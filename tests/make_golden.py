"""Write ``golden.json``: the exact outputs of this checkout on fixed inputs.

    PYTHONPATH=src python3 tests/make_golden.py

Always rewrites the whole file, after printing ``mismatches`` of the new
outputs against the file it replaces (one line per moved field). It pins,
bit for bit:

* the sha256 of every report file that ``run_experiment`` writes on
  criterion 09's config and on a one-replication copy of README's config
  plus a cumulative scenario;
* per ``STREAM_CASES`` entry of ``test_streaming``, what ``run_stream``
  returns, floats as ``float.hex``;
* ``solve_gce`` on n = 240, seed 1, with its multipliers, diagnostics and
  objective value, which the solve reads off its final dual point.

``test_golden`` compares a fresh run with the file exactly. Regenerate only
for a change that is meant to move the package's numbers, and state the
moves it reports in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from gcestream import (  # noqa: E402
    DEFAULT_BETA_SUPPORT,
    REPORT_FILES,
    GceProblem,
    SimulationConfig,
    SupportGrid,
    build_error_support,
    generate_dataset,
    parse_experiment_config,
    run_experiment,
    run_stream,
    solve_gce,
)
from test_streaming import BETA_ROW, STREAM_CASES, simulated  # noqa: E402

GOLDEN_PATH = HERE / "golden.json"

#: Criterion 09's config (``test_acceptance``).
CRITERION_09 = {
    "scenarios": [
        {"name": "det", "n": 24, "eta_grid": [0.0, 0.5], "batch_fractions": [0.5],
         "block_sizes": [1, 4]},
    ],
    "replications": 2,
    "seed_base": 99,
}

#: README's config at one replication plus a cumulative error-scale scenario,
#: at n = 240 and seed base 1: the benchmark's ``sweep_config(240, 1)``.
SWEEP = {
    "scenarios": [
        {"name": "clean", "n": 240, "batch_fractions": [0.25, 0.5, 0.75],
         "block_sizes": [1, 10, 40]},
        {"name": "collinear", "n": 240, "eta_grid": [0.0, 0.5, 1.0], "batch_fractions": [0.5],
         "block_sizes": [1], "run_std": True},
        {"name": "cumulative", "n": 240, "error_scale": "cumulative", "batch_fractions": [0.5],
         "block_sizes": [1]},
    ],
    "replications": 1,
    "seed_base": 1,
    "jobs": 1,
}


def _floats(values) -> dict:
    a = np.asarray(values, dtype=float)
    return {"shape": list(a.shape), "hex": [float(v).hex() for v in a.ravel().tolist()]}


def report_hashes() -> dict:
    """The sha256 of every report file, per config."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in (("criterion_09", CRITERION_09), ("sweep_240_1", SWEEP)):
            where = Path(tmp) / name
            outcome = run_experiment(parse_experiment_config(raw), out_dir=where, jobs=1)
            if outcome.exit_code != 0:
                raise RuntimeError(f"{name}: {outcome.failures}")
            for file in REPORT_FILES:
                digest = hashlib.sha256((where / file).read_bytes()).hexdigest()
                out[f"reports/{name}/{file}"] = digest
    return out


def stream_outputs() -> dict:
    """``run_stream``'s outputs on every ``STREAM_CASES`` entry."""
    out = {}
    y, design = simulated(200, seed=181)
    for case in sorted(STREAM_CASES):
        kwargs = {"batch_size": 60, "beta_support": BETA_ROW, **STREAM_CASES[case]}
        report = run_stream(y, design, **kwargs)
        state = report.final_state
        for name, value in (
            ("beta_hat", report.beta_hat),
            ("epsilon_hat", report.epsilon_hat),
            ("entropy_ledger", report.entropy_ledger),
            ("beta_trajectory", report.beta_trajectory),
            ("final_prior", state.beta_prior),
        ):
            out[f"stream/{case}/{name}"] = _floats(value)
        out[f"stream/{case}/skipped"] = list(report.skipped)
        out[f"stream/{case}/converged_log"] = list(state.converged_log)
    return out


def solve_outputs() -> dict:
    """``solve_gce`` on n = 240, seed 1, with the default grid."""
    ds = generate_dataset(SimulationConfig(n=240, seed=1))
    design = np.column_stack([np.ones(ds.n), ds.x])
    grid = SupportGrid.tiled(
        DEFAULT_BETA_SUPPORT, design.shape[1], build_error_support(ds.y), ds.n
    )
    sol = solve_gce(GceProblem(ds.y, design, grid))
    d = sol.diagnostics
    return {
        "solve/multipliers": _floats(sol.multipliers),
        "solve/beta_hat": _floats(sol.beta_hat),
        "solve/epsilon_hat": _floats(sol.epsilon_hat),
        "solve/beta_weights": _floats(sol.distributions.beta),
        "solve/error_weights": _floats(sol.distributions.error),
        "solve/objective_value": _floats(sol.objective_value),
        "solve/iterations": d.iterations,
        "solve/max_residual": _floats(d.max_residual),
        "solve/converged": d.converged,
    }


def outputs() -> dict:
    return {**report_hashes(), **stream_outputs(), **solve_outputs()}


def _ordered(a: np.ndarray) -> list[int]:
    """The doubles of ``a`` as integers in the order of the reals, one apart per ulp."""
    bits = a.view(np.int64).ravel().tolist()
    return [b if b >= 0 else -(b & 0x7FFFFFFFFFFFFFFF) for b in bits]


def mismatches(got: dict, want: dict) -> list[str]:
    """One line per field that differs, with its largest absolute and ulp moves."""
    lines = []
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            lines.append(f"{name}: only in {'the run' if name in got else 'the golden file'}")
            continue
        g, w = got[name], want[name]
        if g == w:
            continue
        if not (isinstance(g, dict) and isinstance(w, dict)) or g["shape"] != w["shape"]:
            lines.append(f"{name}: {g!r} != {w!r}")
            continue
        a = np.array([float.fromhex(v) for v in g["hex"]])
        b = np.array([float.fromhex(v) for v in w["hex"]])
        moved = np.abs(a - b)
        ulps = max(abs(p - q) for p, q in zip(_ordered(a), _ordered(b)))
        lines.append(
            f"{name}: {int(np.count_nonzero(a != b))} of {a.size} values moved, "
            f"largest by {float(np.nanmax(moved)):.3e} absolute and {ulps} ulp"
        )
    return lines


def main() -> int:
    fields = outputs()
    if GOLDEN_PATH.exists():
        moved = mismatches(fields, json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["fields"])
        print("\n".join(moved) if moved else f"no field moved from {GOLDEN_PATH.name}")
    data = {
        "made_with": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "fields": fields,
    }
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(data['fields'])} fields to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
