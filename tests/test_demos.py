"""The quick demos run to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# multicollinearity_sweep.py (about 5 s on two cores, 2.4 s of it one fit that
# stalls at the iteration cap, see tests/test_solver.py) is left out to keep
# the suite quick
@pytest.mark.parametrize(
    "demo",
    [
        "batch_fit.py",
        "streaming_walkthrough.py",
        "experiment_harness.py",
        "block_interpolation.py",
    ],
)
def test_demo_exits_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
