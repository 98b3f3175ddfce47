"""The package's public names are each module's ``__all__``, republished."""

import importlib

import gcestream

MODULES = ("core", "solver", "streaming", "simulation", "metrics", "experiments")


def test_the_package_republishes_each_module_all():
    modules = [importlib.import_module(f"gcestream.{name}") for name in MODULES]
    declared = [name for module in modules for name in module.__all__]
    assert gcestream.__all__ == [*declared, "__version__"]
    assert len(set(gcestream.__all__)) == len(gcestream.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(gcestream, name) is getattr(module, name), name
    namespace = {}
    exec("from gcestream import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gcestream.__all__)
