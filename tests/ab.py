"""Time two source trees of the package against each other on the same inputs, bit for bit.

    python3 tests/ab.py BASE_SRC NEW_SRC [--rounds 20] [--seed 1] [--steps 480]

BASE_SRC and NEW_SRC are directories that hold a ``gcestream`` package (a
checkout's ``src``). Both are imported into one process under distinct names,
so both run on the same interpreter, numpy and machine state. Four kinds of
operation run in alternating rounds, the base first in even rounds and the
new tree first in odd ones:

* ``oneshot``: ``SupportGrid.tiled`` + ``GceProblem`` + ``solve_gce`` at n = 3840,
  8 fits a round;
* ``g1``: ``update_step`` on the first ``--steps`` arrivals after a half batch;
* ``g40``: ``block_update`` over the 48 blocks of 40 after a half batch;
* ``sweep``: ``run_experiment`` on README's config plus a cumulative scenario
  at n = 240, written to a temporary directory.

Every round draws a new dataset (seeds from ``--seed`` on), gives both trees
the same arrays, and asserts that their outputs are bit-identical: a fit's
weights, multipliers and estimates, a stream's final carried weights, logs
and every log entry, and the bytes of every report file. Within a round each
side runs its operation ``REPEATS`` times back to back and keeps the fastest,
so a machine-speed swing of one run does not reach the median. Each
operation kind prints each side's median time per operation and the
interquartile range (IQR) of its rounds, the ratio of the medians (new /
base), in how many rounds the new tree was faster, and ``unresolved`` when
the medians differ by less than the base's IQR (always, for one round). One
BLAS thread is asked for, as the benchmark runs with.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

N = 3840
BATCH = N // 2
REPEATS = 3


def load(src: Path, name: str):
    """The ``gcestream`` package under ``src``, imported as the top-level module ``name``."""
    init = src / "gcestream" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def dataset(pkg, seed: int):
    ds = pkg.generate_dataset(pkg.SimulationConfig(n=N, seed=seed))
    return ds.y, np.column_stack([np.ones(ds.n), ds.x])


def sweep_config(seed: int) -> dict:
    """README's example config plus a cumulative error-scale scenario, at n = 240."""
    return {
        "scenarios": [
            {"name": "clean", "n": 240, "batch_fractions": [0.25, 0.5, 0.75],
             "block_sizes": [1, 10, 40]},
            {"name": "collinear", "n": 240, "eta_grid": [0.0, 0.5, 1.0],
             "batch_fractions": [0.5], "block_sizes": [1], "run_std": True},
            {"name": "cumulative", "n": 240, "error_scale": "cumulative",
             "batch_fractions": [0.5], "block_sizes": [1]},
        ],
        "replications": 1,
        "seed_base": seed,
        "jobs": 1,
    }


def state_bytes(state) -> list[bytes]:
    logs = (state.epsilon_log, state.entropy_ledger, state.beta_trajectory, state.converged_log)
    return [state.beta_prior.tobytes(), state.log_prior.tobytes()] + [
        np.asarray(log).tobytes() for log in logs
    ]


def oneshot(pkg, _seed, y, x, _scratch, fits=8):
    """``fits`` fits of one dataset; returns (seconds per fit, output bytes)."""
    row = pkg.build_error_support(y)
    t = time.perf_counter()
    for _ in range(fits):
        grid = pkg.SupportGrid.tiled(pkg.DEFAULT_BETA_SUPPORT, x.shape[1], row, y.size)
        sol = pkg.solve_gce(pkg.GceProblem(y, x, grid))
    seconds = (time.perf_counter() - t) / fits
    out = [sol.distributions.beta.tobytes(), sol.distributions.error.tobytes(),
           sol.multipliers.tobytes(), sol.beta_hat.tobytes(), sol.epsilon_hat.tobytes(),
           repr((sol.objective_value, sol.diagnostics))]
    return seconds, out


def stream(block: int, steps: int):
    """A stream operation of blocks of ``block``: (seconds per update, output bytes)."""

    def run(pkg, _seed, y, x, _scratch):
        row = pkg.build_error_support(y[:BATCH])
        grid = pkg.SupportGrid.tiled(pkg.DEFAULT_BETA_SUPPORT, x.shape[1], row, BATCH)
        state, _ = pkg.init_stream(pkg.GceProblem(y[:BATCH], x[:BATCH], grid))
        starts = range(BATCH, BATCH + steps, block)
        t = time.perf_counter()
        if block == 1:
            for i in starts:
                state = pkg.update_step(state, y[i], x[i], row)
        else:
            for i in starts:
                state = pkg.block_update(state, y[i : i + block], x[i : i + block], row)
        return (time.perf_counter() - t) / len(starts), state_bytes(state)

    return run


def sweep(pkg, seed, _y, _x, scratch: Path):
    """One ``run_experiment``; returns (seconds, the bytes of every report file)."""
    out = Path(tempfile.mkdtemp(dir=scratch))
    config = pkg.parse_experiment_config(sweep_config(seed))
    t = time.perf_counter()
    pkg.run_experiment(config, out_dir=out)
    seconds = time.perf_counter() - t
    return seconds, [(out / name).read_bytes() for name in pkg.REPORT_FILES]


def iqr(values: list[float]) -> float:
    """The interquartile range of ``values``; NaN for fewer than two."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--steps", type=int, default=480, help="g = 1 steps per round")
    parser.add_argument("--only", nargs="*", default=None, help="operation kinds to run")
    args = parser.parse_args(argv)
    sides = (load(args.base, "gcestream_base"), load(args.new, "gcestream_new"))
    kinds = {
        "oneshot": oneshot,
        "g1": stream(1, args.steps),
        "g40": stream(40, N - BATCH),
        "sweep": sweep,
    }
    if args.only:
        kinds = {k: kinds[k] for k in args.only}
    times = {kind: ([], []) for kind in kinds}
    with tempfile.TemporaryDirectory() as scratch:
        for kind, op in kinds.items():  # one untimed round each, to warm both trees up
            y, x = dataset(sides[0], args.seed)
            for pkg in sides:
                op(pkg, args.seed, y, x, Path(scratch))
        for r in range(args.rounds):
            y, x = dataset(sides[0], args.seed + r)
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for kind, op in kinds.items():
                outputs = [None, None]
                for side in order:
                    runs = []
                    for _ in range(REPEATS):
                        gc.collect()
                        runs.append(op(sides[side], args.seed + r, y, x, Path(scratch)))
                    if any(out != runs[0][1] for _, out in runs):
                        raise AssertionError(f"{kind}: round {r} differs between repeats")
                    times[kind][side].append(min(seconds for seconds, _ in runs))
                    outputs[side] = runs[0][1]
                if outputs[0] != outputs[1]:
                    raise AssertionError(f"{kind}: round {r} (seed {args.seed + r}) differs")
    print(f"{'operation':<10}{'base':>12}{'IQR':>10}{'new':>12}{'IQR':>10}{'new/base':>10}"
          f"{'new won':>10}")
    for kind, (base, new) in times.items():
        won = sum(b > n for b, n in zip(base, new))
        mb, mn = statistics.median(base), statistics.median(new)
        unit, scale = ("ms", 1e3) if kind == "sweep" else ("us", 1e6)
        spread = iqr(base), iqr(new)
        resolved = abs(mn - mb) >= spread[0]  # False for a NaN IQR
        base_iqr, new_iqr = (f"{v * scale:>8.1f}{unit}" if v == v else f"{'-':>10}" for v in spread)
        print(f"{kind:<10}{mb * scale:>10.1f}{unit}{base_iqr}{mn * scale:>10.1f}{unit}{new_iqr}"
              f"{mn / mb - 1:>+10.1%}{won:>6}/{len(base)}" + ("" if resolved else "  unresolved"))
    print("outputs: bit-identical in every round")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
