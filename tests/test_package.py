"""The package's public names are each module's ``__all__``, republished."""

import importlib
import os
import subprocess
import sys

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


def test_importing_the_package_loads_neither_openssl_nor_multiprocessing():
    # seeds take the builtin sha256, and only a pool of workers needs multiprocessing
    code = (
        "import sys, gcestream; "
        "print(sorted({'_hashlib', 'multiprocessing'} & set(sys.modules)))"
    )
    where = os.path.dirname(os.path.dirname(gcestream.__file__))
    path = os.pathsep.join(filter(None, [where, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
