"""The benchmark's workloads, reached only through gcestream's public names.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Work comes in units, and each unit is a
list of operations:

* ``oneshot``: a unit is one one-shot fit at n = 3840 (the operation).
* ``stream_g1``: a unit is one stream over n = 3840 with a half batch, an
  ``init_stream`` and then 1920 ``update_step`` operations.
* ``stream_g40``: the same stream shape absorbed in 48 ``block_update``
  operations of 40 observations.
* ``sweep``: a unit is one in-process ``gcestream simulate`` command with
  jobs = 1 on the README's config plus a cumulative error-scale scenario;
  its operations, for the failure count, are the sweep's cells.

Inputs come from ``SimulationConfig`` with three regressors plus an intercept
column. Each workload draws its units from a fixed pool of data seeds, in an
order and selection made from the run's ``--seed``, so every unit has a
stored reference output (see ``reference.py``).

Calls go through ``gcestream.<name>`` at call time, so that a traced run sees
the patched names.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gcestream
import gcestream.cli

from reference import csv_mismatches, vectors_match
from tracing import UNIT

_NULL = contextlib.nullcontext()


def _no_span(_name):
    return _NULL


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and the size of each workload's pool of data seeds."""

    n: int = 3840
    batch_fraction: float = 0.5
    block: int = 40
    sweep_n: int = 240
    pools: dict = field(
        default_factory=lambda: {"oneshot": 64, "stream_g1": 24, "stream_g40": 64, "sweep": 16}
    )


@dataclass
class UnitRun:
    """What one unit did: wall-clock intervals, operation count and failures."""

    key: str
    start: float = 0.0
    end: float = 0.0
    ops: list = field(default_factory=list)  # (start, end) of each timed operation
    attempted: int = 0
    failed: set = field(default_factory=set)
    outputs: dict = field(default_factory=dict)


def _dataset(n: int, seed: int):
    ds = gcestream.generate_dataset(gcestream.SimulationConfig(n=n, seed=seed))
    return ds.y, np.column_stack([np.ones(ds.n), ds.x])


def _order(seed: int, pool: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).permutation(pool)]


def _perturb_beta(outputs) -> dict:
    """A copy of ``outputs`` with its first coefficient moved by 1e-6 (relative)."""
    beta = list(outputs["beta_hat"])
    beta[0] += 1e-6 * max(1.0, abs(beta[0]))
    return {**outputs, "beta_hat": beta}


class Oneshot:
    """Back-to-back one-shot fits: SupportGrid.tiled + GceProblem + solve_gce."""

    name = "oneshot"
    op_label = "fits"

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def make_inputs(self, seed: int) -> list:
        units = []
        for data_seed in _order(seed, self.sizes.pools[self.name]):
            y, design = _dataset(self.sizes.n, data_seed)
            units.append((str(data_seed), y, design, gcestream.build_error_support(y)))
        return units

    def warm_up(self, units) -> None:
        self.run(units[0])

    def run(self, unit, tracer=None) -> UnitRun:
        key, y, design, error_row = unit
        span = tracer.span if tracer is not None else _no_span
        out = UnitRun(key, attempted=1)
        with span(UNIT):
            if tracer is not None:
                tracer.next_op()
            out.start = time.perf_counter()
            try:
                grid = gcestream.SupportGrid.tiled(
                    gcestream.DEFAULT_BETA_SUPPORT, design.shape[1], error_row, y.size
                )
                solution = gcestream.solve_gce(gcestream.GceProblem(y=y, x=design, supports=grid))
            except Exception:
                solution = None
            out.end = time.perf_counter()
        out.ops.append((out.start, out.end))
        if solution is None or not solution.diagnostics.converged:
            out.failed.add(0)
        else:
            out.outputs = {"beta_hat": [float(b) for b in solution.beta_hat]}
        return out

    def check(self, run: UnitRun, expected) -> None:
        if not (run.outputs and vectors_match(run.outputs["beta_hat"], expected["beta_hat"])):
            run.failed.add(0)

    perturb = staticmethod(_perturb_beta)


class Stream:
    """One stream per unit: batch fit, then updates of ``block`` arrivals each."""

    op_label = "updates"
    perturb = staticmethod(_perturb_beta)

    def __init__(self, sizes: Sizes, name: str, block: int) -> None:
        self.sizes = sizes
        self.name = name
        self.block = block

    def make_inputs(self, seed: int) -> list:
        return [
            (str(s), *_dataset(self.sizes.n, s))
            for s in _order(seed, self.sizes.pools[self.name])
        ]

    def warm_up(self, units) -> None:
        key, y, design = units[0]
        stop = min(y.size, 2 * max(100, 5 * self.block))
        self.run((key, y[:stop], design[:stop]))

    def run(self, unit, tracer=None) -> UnitRun:
        key, y, design = unit
        span = tracer.span if tracer is not None else _no_span
        next_op = tracer.next_op if tracer is not None else (lambda: None)
        n, g = y.size, self.block
        m = int(round(self.sizes.batch_fraction * n))
        starts = range(m, n, g)
        out = UnitRun(key, attempted=1)
        with span(UNIT):
            out.start = time.perf_counter()
            next_op()
            try:
                error_row = gcestream.build_error_support(y[:m])
                grid = gcestream.SupportGrid.tiled(
                    gcestream.DEFAULT_BETA_SUPPORT, design.shape[1], error_row, m
                )
                state, batch = gcestream.init_stream(gcestream.GceProblem(y[:m], design[:m], grid))
            except Exception:
                # Nothing to update without a batch fit: every operation fails.
                out.attempted += len(starts)
                out.failed.update(range(out.attempted))
                out.end = time.perf_counter()
                return out
            if not batch.diagnostics.converged:
                out.failed.add(0)
            for start in starts:
                next_op()
                op = out.attempted
                out.attempted += 1
                t = time.perf_counter()
                try:
                    if g == 1:
                        new = gcestream.update_step(state, y[start], design[start], error_row)
                    else:
                        new = gcestream.block_update(
                            state, y[start : start + g], design[start : start + g], error_row
                        )
                except Exception:
                    out.failed.add(op)
                    continue
                out.ops.append((t, time.perf_counter()))
                state = new
                if not state.converged_log[-1] or state.entropy_ledger[-1] < -1e-12:
                    out.failed.add(op)
            out.end = time.perf_counter()
        out.outputs = {
            "beta_hat": [float(b) for b in state.beta_hat],
            "ledger_sum": float(sum(state.entropy_ledger)),
        }
        return out

    def check(self, run: UnitRun, expected) -> None:
        out = run.outputs
        if not (
            out
            and vectors_match(out["beta_hat"], expected["beta_hat"])
            and vectors_match([out["ledger_sum"]], [expected["ledger_sum"]])
        ):
            run.failed.add(run.attempted - 1)


def sweep_config(n: int, seed_base: int) -> dict:
    """README's example config plus a cumulative error-scale scenario."""
    return {
        "scenarios": [
            {
                "name": "clean",
                "n": n,
                "batch_fractions": [0.25, 0.5, 0.75],
                "block_sizes": [1, 10, 40],
            },
            {
                "name": "collinear",
                "n": n,
                "eta_grid": [0.0, 0.5, 1.0],
                "batch_fractions": [0.5],
                "block_sizes": [1],
                "run_std": True,
            },
            {
                "name": "cumulative",
                "n": n,
                "error_scale": "cumulative",
                "batch_fractions": [0.5],
                "block_sizes": [1],
            },
        ],
        "replications": 1,
        "seed_base": seed_base,
        "jobs": 1,
    }


def _cell(eta, seed) -> tuple[float, int]:
    return float(eta), int(seed)


class Sweep:
    """``gcestream simulate`` in process, writing into a temporary directory."""

    name = "sweep"
    op_label = "simulate commands"

    def __init__(self, sizes: Sizes, scratch: Path) -> None:
        self.sizes = sizes
        self.scratch = scratch

    def make_inputs(self, seed: int) -> list:
        return [
            (str(s), sweep_config(self.sizes.sweep_n, s))
            for s in _order(seed, self.sizes.pools[self.name])
        ]

    def warm_up(self, units) -> None:
        key, config = units[0]
        small = {**config, "scenarios": [dict(config["scenarios"][0], n=40, block_sizes=[1])]}
        self.run((key, small))

    def run(self, unit, tracer=None) -> UnitRun:
        key, config = unit
        span = tracer.span if tracer is not None else _no_span
        cells = sum(len(s.get("eta_grid", [0.0])) for s in config["scenarios"])
        out = UnitRun(key, attempted=cells * config["replications"])
        self.scratch.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        try:
            config_path = work / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            argv = ["simulate", "--config", str(config_path), "--out", str(work / "out"),
                    "--jobs", "1"]
            stdout, stderr = io.StringIO(), io.StringIO()
            with span(UNIT):
                if tracer is not None:
                    tracer.next_op()
                out.start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = gcestream.cli.main(argv)
                except Exception:
                    code = None
                out.end = time.perf_counter()
            out.ops.append((out.start, out.end))
            if code is None or code not in (0, 2):
                out.failed.update(range(out.attempted))
                out.end = time.perf_counter()
                return out
            for line in stderr.getvalue().splitlines():
                if line.startswith("failed: ") and "seed=" in line:
                    eta = line.split("eta=", 1)[1].split(",", 1)[0]
                    seed = line.split("seed=", 1)[1].split("]", 1)[0]
                    out.failed.add(_cell(eta, seed))
            out.outputs = {
                name: (work / "out" / f"{name}.csv").read_text(encoding="utf-8")
                if (work / "out" / f"{name}.csv").is_file()
                else ""
                for name in ("report", "summary")
            }
            for row in _rows(out.outputs["report"]):
                if row.get("converged") != "true":
                    out.failed.add(_cell(row["eta"], row["seed"]))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return out

    def check(self, run: UnitRun, expected) -> None:
        """Fail the cell of each mismatched report row; a mismatched summary
        row fails every cell at its eta."""
        cells = {_cell(r["eta"], r["seed"]) for r in _rows(expected["report"])}
        for got, want in csv_mismatches(run.outputs.get("report", ""), expected["report"]):
            row = want or got
            try:
                run.failed.add(_cell(row["eta"], row["seed"]))
            except (KeyError, ValueError):
                run.failed.update(cells)
        for got, want in csv_mismatches(run.outputs.get("summary", ""), expected["summary"]):
            try:
                eta = float((want or got)["eta"])
            except (KeyError, ValueError):
                eta = None
            run.failed.update(c for c in cells if eta is None or c[0] == eta)

    @staticmethod
    def perturb(outputs) -> dict:
        lines = outputs["report"].splitlines()
        column = lines[0].split(",").index("rmse")
        cells = lines[1].split(",")
        value = float(cells[column])
        cells[column] = repr(value + 1e-6 * max(1.0, abs(value)))
        lines[1] = ",".join(cells)
        return {**outputs, "report": "\n".join(lines) + "\n"}


def _rows(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def make_workload(name: str, sizes: Sizes, scratch: Path):
    if name == "oneshot":
        return Oneshot(sizes)
    if name == "stream_g1":
        return Stream(sizes, "stream_g1", 1)
    if name == "stream_g40":
        return Stream(sizes, "stream_g40", sizes.block)
    if name == "sweep":
        return Sweep(sizes, scratch)
    raise ValueError(f"unknown workload {name!r}")

