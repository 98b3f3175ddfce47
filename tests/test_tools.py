"""Smoke tests of the two development tools: the line counter and the A/B timer."""

import sys
from pathlib import Path

import sloc

SRC = Path(__file__).resolve().parents[1] / "src"


def test_sloc_counts_every_line_of_each_package_file_once():
    files = sorted((SRC / "gcestream").glob("*.py"))
    assert files
    for path in files:
        source = path.read_text(encoding="utf-8")
        counts = sloc.count(source)
        assert set(counts) == set(sloc.KINDS)
        assert sum(counts.values()) == len(source.splitlines()), path.name


def test_ab_on_one_tree_twice_finds_bit_identical_outputs(monkeypatch, capsys):
    # in process, as a second interpreter would double the test's time; the
    # tool's BLAS settings and its two package copies are undone afterwards
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    import ab

    try:
        assert ab.main([str(SRC), str(SRC), "--only", "g40", "--rounds", "1"]) == 0
    finally:
        copies = ("gcestream_base", "gcestream_new")
        for name in [m for m in sys.modules if m.split(".")[0] in copies]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[0] == "g40"
    assert lines[1].endswith("unresolved")  # one round has no IQR to resolve against
    assert lines[-1] == "outputs: bit-identical in every round"
