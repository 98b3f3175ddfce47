"""Experiment orchestration: configs, the estimation suite, report emission.

A JSON config describes scenarios (one generating model each, with grids of
multicollinearity levels and batch fractions, plus block sizes to sweep).
``run_experiment`` expands scenarios into (scenario, eta, replication) cells,
runs the whole method suite on each cell's dataset, and writes the tabular
reports plus plot-ready figure data. Every method's rmse is computed over all
n observations with that method's final coefficients, so columns are directly
comparable.

Cells run in four steps. Each cell is planned first: its dataset and the
arrays of its one-shot problems, each fraction's batch problem laid out once
and shared by the streams on the raw design. Then the one-shot problems of
every planned cell are checked and solved in stacks of arrays, one solve for
all the problems of one size, and each cell's streams are prepared from
their batch fits. No problem or solution object is built on the way:
``GceProblem`` and ``GceSolution`` are for callers of ``solve_gce`` and
``run_stream``. Then the streams of every cell are folded together
(``streaming._fold``), so one stacked solve advances the same-size blocks of
a lane of them. Then each cell is scored. A cell fails alone when its
planning, one of its one-shot fits or one of its streams raises.

Replication seeds are derived from (seed_base, scenario name, eta index,
replication index) through a seed sequence, so runs are reproducible cell by
cell and independent across cells. With ``jobs`` workers the cells are split
into ``jobs`` groups, each run in one worker process by the same function a
single process uses; the emitted files are byte-identical regardless of
worker count because a fit's or a stream's results do not depend on what it
is stacked with, rows are sorted, and timing values are withheld unless
explicitly requested.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .metrics import (
    REPORT_COLUMNS,
    SUMMARY_COLUMNS,
    MethodResult,
    RunReport,
    _ordered,
    _write_csv,
    _write_json,
    relative_gap,
    report_rows,
    rmse,
    summary_rows,
)
from .simulation import (
    DEFAULT_BETA_SUPPORT,
    ERROR_SCALES,
    SimulationConfig,
    _check_error_scale,
    _scaled_error_support,
    generate_dataset,
    load_dataset_csv,
    standardize_columns,
)
from .solver import (
    GceProblem, SolverSettings, _check_hull, _check_observations, _solve_dual, solve_gce,
)
from .streaming import UpdateSettings, _failure, _Fit, _fold, _prepare_stream, run_stream
from .core import (
    SupportGrid, _entries, _error_rows, _flag, _gibbs_rows, _integer, _log_priors, _real,
    _support_rows, _uniform_log_row, _uniform_row, _uniform_rows,
)

try:  # the builtin sha256, which does not load OpenSSL as hashlib does
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # up to Python 3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ExperimentConfig",
    "ExperimentOutcome",
    "CellOutcome",
    "SolveOutcome",
    "parse_experiment_config",
    "run_cell",
    "run_experiment",
    "solve_file",
    "REPORT_FILES",
]

#: Figure tables as (file name, key columns, value columns). The key columns
#: lead each table and are also its row order. The rmse figures project the
#: summary rows; the gap figure is aggregated by ``_gap_rows``.
_FIGURES = (
    ("fig_rmse_vs_n.csv", ("method", "eta", "batch_fraction", "g", "n"), ("rmse_mean",)),
    ("fig_rmse_vs_eta.csv", ("n", "method", "batch_fraction", "g", "eta"), ("rmse_mean",)),
    (
        "fig_gap_vs_batch.csv",
        ("n", "eta", "method", "g", "batch_fraction"),
        ("relative_gap_mean", "replications"),
    ),
)

#: Files run_experiment writes into the output directory.
REPORT_FILES = ("report.csv", "report.json", "summary.csv", "summary.json") + tuple(
    name for name, _, _ in _FIGURES
)

_STREAMING_METHODS = ("stre_gce", "stre_gce_block", "stre_gce_std")

#: The most one-shot problems solved by one stacked call. It bounds the memory
#: that a stack's problems and its evaluations hold at once; a stack of this
#: size already spreads the per-call cost of the solve thinly.
_MAX_ONE_SHOT_STACK = 32


class ConfigError(ValueError):
    """Configuration content is malformed; the message names the field."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One generating model plus the grids swept on top of it."""

    name: str
    simulation: SimulationConfig
    eta_grid: tuple[float, ...] = (0.0,)
    batch_fractions: tuple[float, ...] = (0.25, 0.5, 0.75)
    block_sizes: tuple[int, ...] = (1,)
    run_std: bool = False
    gamma: float = 0.5
    error_points: int = 3
    error_scale: str = "batch"
    estimate_intercept: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigError(f"scenario name must be a string, got {self.name!r}")
        if not self.name:
            raise ConfigError("scenario name must be nonempty")
        etas = _entries(self.eta_grid, "eta_grid", _real, ConfigError)
        if not etas or any(not 0.0 <= e <= 1.0 for e in etas):
            raise ConfigError("eta_grid entries must lie in [0, 1]")
        fractions = _entries(self.batch_fractions, "batch_fractions", _real, ConfigError)
        if not fractions or any(not 0.0 < f <= 1.0 for f in fractions):
            raise ConfigError("batch_fractions must lie in (0, 1]")
        for f in fractions:
            m = int(round(f * self.simulation.n))
            if not 2 <= m <= self.simulation.n:
                raise ConfigError(
                    f"batch fraction {f} of n={self.simulation.n} gives batch size {m}; "
                    "need at least 2"
                )
        blocks = _entries(self.block_sizes, "block_sizes", _integer, ConfigError)
        if any(g < 1 for g in blocks) or len(set(blocks)) != len(blocks):
            raise ConfigError("block_sizes must be distinct positive integers")
        try:  # the streams' own rule for gamma
            object.__setattr__(self, "gamma", UpdateSettings(gamma=self.gamma).gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(
            self, "error_points", _integer(self.error_points, "error_points", ConfigError)
        )
        if self.error_points < 2:
            raise ConfigError("error_points must be at least 2")
        if self.error_scale not in ERROR_SCALES:
            raise ConfigError(f"unknown error_scale {self.error_scale!r}; known: {ERROR_SCALES}")
        for name in ("run_std", "estimate_intercept"):
            object.__setattr__(self, name, _flag(getattr(self, name), name, ConfigError))
        if self.run_std and not self.estimate_intercept:
            raise ConfigError("run_std requires estimate_intercept (it absorbs column means)")
        object.__setattr__(self, "eta_grid", etas)
        object.__setattr__(self, "batch_fractions", fractions)
        object.__setattr__(self, "block_sizes", blocks)


@dataclass(frozen=True)
class ExperimentConfig:
    scenarios: tuple[ScenarioConfig, ...]
    replications: int
    seed_base: int
    solver: SolverSettings = field(default_factory=SolverSettings)
    out_dir: str | os.PathLike | None = None
    jobs: int = 1
    include_timings: bool = False

    def __post_init__(self) -> None:
        scenarios = tuple(self.scenarios)
        if not scenarios:
            raise ConfigError("config needs at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ConfigError("scenario names must be unique")
        for name in ("replications", "seed_base", "jobs"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError))
        _flag(self.include_timings, "include_timings", ConfigError)
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.seed_base < 0:
            raise ConfigError("seed_base must be nonnegative")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.out_dir is not None and not isinstance(self.out_dir, (str, os.PathLike)):
            raise ConfigError(f"out_dir must be a path, got {self.out_dir!r}")
        object.__setattr__(self, "scenarios", scenarios)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


# eta and seed come from the cell, standardize from run_std
_SIMULATION_KEYS = _field_names(SimulationConfig) - {"eta", "standardize", "seed"}
_FORWARDED_KEYS = _field_names(ScenarioConfig) - {"name", "simulation"}
_SCENARIO_KEYS = _SIMULATION_KEYS | _FORWARDED_KEYS | {"name"}
_TOP_KEYS = _field_names(ExperimentConfig)
_SOLVER_KEYS = _field_names(SolverSettings)


def _reject_unknown(mapping: Mapping[str, Any], known: set[str], where: str) -> None:
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{where}: expected an object, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _parse_scenario(raw: Mapping[str, Any], where: str) -> ScenarioConfig:
    _reject_unknown(raw, _SCENARIO_KEYS, where)
    if "name" not in raw or "n" not in raw:
        raise ConfigError(f"{where}: 'name' and 'n' are required")
    sim_kwargs = {k: raw[k] for k in _SIMULATION_KEYS if k in raw}
    try:
        if "true_beta" in sim_kwargs and "n_regressors" not in sim_kwargs:
            sim_kwargs["n_regressors"] = len(_entries(sim_kwargs["true_beta"], "true_beta", _real))
        return ScenarioConfig(
            name=raw["name"],
            simulation=SimulationConfig(**sim_kwargs),
            **{k: raw[k] for k in _FORWARDED_KEYS if k in raw},
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_experiment_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or an in-memory dict.

    Unknown keys at any level are errors, as are malformed values; messages
    name the offending field (and JSON syntax errors keep their line/column).
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON: {exc}") from None
    else:
        raw = source

    _reject_unknown(raw, _TOP_KEYS, "config")
    for key in ("scenarios", "replications", "seed_base"):
        if key not in raw:
            raise ConfigError(f"config: {key!r} is required")
    if not isinstance(raw["scenarios"], list) or not raw["scenarios"]:
        raise ConfigError("config: 'scenarios' must be a nonempty list")

    solver = SolverSettings()
    if "solver" in raw:
        _reject_unknown(raw["solver"], _SOLVER_KEYS, "config.solver")
        try:
            solver = SolverSettings(**raw["solver"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.solver: {exc}") from None

    scenarios = tuple(
        _parse_scenario(s, f"scenarios[{i}]") for i, s in enumerate(raw["scenarios"])
    )
    return ExperimentConfig(
        scenarios=scenarios,
        replications=raw["replications"],
        seed_base=raw["seed_base"],
        solver=solver,
        out_dir=raw.get("out_dir"),
        jobs=raw.get("jobs", 1),
        include_timings=raw.get("include_timings", False),
    )


# ---------------------------------------------------------------------------
# Method suite on one cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellOutcome:
    """Reports for one (scenario, eta, replication) cell plus timing accounts.

    ``method_seconds`` holds one entry per distinct estimation run (methods
    shared across batch fractions appear once); their sum accounts for
    ``estimation_seconds``, the time of the whole estimation section. A
    one-shot fit is charged an equal share of the checks and the solve of
    the stack it was part of. A fraction's batch fit is charged to
    ``gce_batch``, which the streams on the raw design start from without
    solving it again; the stream on the standardized design is charged its
    own batch fit. A stream is charged its preparation and its share of the
    fold: an equal share of its lane's set-up and of each stack of blocks it
    took part in (trust tests, skips and solve), and its report. The
    estimation section is the cell's planning and scoring plus its shares,
    its wall time when the cell is run alone, as ``run_cell`` runs it.
    """

    reports: tuple[RunReport, ...]
    method_seconds: Mapping[str, float]
    estimation_seconds: float


def _derive_seed(seed_base: int, scenario_name: str, eta_index: int, replication: int) -> int:
    """Deterministic per-cell seed, keyed by scenario name so removing one
    scenario never shifts the seeds (hence the outputs) of the others."""
    digest = sha256(scenario_name.encode("utf-8")).digest()
    name_key = int.from_bytes(digest[:8], "big")
    seq = np.random.SeedSequence((seed_base, name_key, eta_index, replication))
    return int(seq.generate_state(1, np.uint64)[0])


def _outcome(step, *args):
    """``step(*args)``, or the exception it raised: a step that raises fails its cell alone."""
    try:
        return step(*args)
    except Exception as exc:
        return _failure(exc)


@dataclass
class _CellPlan:
    """A cell after planning: its one-shot problems, then its fits, then its streams.

    ``one_shots`` holds the data of the cell's one-shot problems, as ``(y,
    x, error row)`` on the support row ``support_row`` (checked when
    planned), by their ``method_seconds`` key, in the order they are
    reported: ``gce_dataset``, then per batch fraction ``gce_batch`` and,
    with ``run_std``, the batch fit of the stream on the standardized
    design. ``fits`` holds each problem's ``_Fit``, or the exception that
    checking or solving it raised. ``fractions``, filled by ``prepare``,
    holds per batch fraction its one-shot results and its streams, each as
    its ``method_seconds`` key, method, g, the regressors it is scored on
    and the prepared stream, in report order. ``method_seconds`` holds the
    wall time charged so far per method, and ``planning_seconds`` that of
    the planning, the cell's share of the one-shot solves and the
    preparation.
    """

    scenario: ScenarioConfig
    eta: float
    seed: int
    solver: SolverSettings
    x: np.ndarray  # the dataset's regressors, without an intercept column
    y_fit: np.ndarray
    design: np.ndarray
    variants: list
    support_row: np.ndarray
    one_shots: dict
    method_seconds: dict
    planning_seconds: float
    fits: dict = field(default_factory=dict)
    fractions: list = field(default_factory=list)

    @property
    def streams(self) -> list:
        """Every prepared stream of the cell, in report order."""
        return [entry[-1] for _, _, entries in self.fractions for entry in entries]

    def prepare(self) -> "_CellPlan":
        """Score the one-shot fits and prepare the streams, each from its batch fit.

        Returns the plan, or raises the first exception a one-shot fit of
        the cell raised. The streams on the raw design start from their
        fraction's ``gce_batch`` fit, the stream on the standardized design
        from its own batch fit.
        """
        for key in self.one_shots:
            if isinstance(self.fits[key], Exception):
                raise self.fits[key]
        clock = time.perf_counter
        t_start = clock()
        scenario, y_fit, n = self.scenario, self.y_fit, self.y_fit.size
        update_settings = UpdateSettings(gamma=scenario.gamma, solver=self.solver)

        def result(key, method):
            fit = self.fits[key]
            return self._result(method, None, self.x, fit, fit.converged, self.method_seconds[key])

        full_result = result("gce_dataset", "gce_dataset")
        for fraction in scenario.batch_fractions:
            m = int(round(fraction * n))
            one_shot = (full_result, result(f"gce_batch@{fraction}", "gce_batch"))
            streams = []
            self.fractions.append((fraction, one_shot, streams))
            for name, g, suffix, x_design, x_eval in self.variants:
                key = f"{name}@{fraction}{suffix}"
                batch_key = f"gce_batch@{fraction}" if x_design is self.design else key
                t0 = clock()
                stream = _prepare_stream(
                    y_fit, x_design, m, g, update_settings, beta_support=self.support_row,
                    error_support=None, error_points=scenario.error_points,
                    error_scale=scenario.error_scale, batch_fit=self.fits[batch_key],
                )
                self.method_seconds[key] = self.method_seconds.get(key, 0.0) + clock() - t0
                streams.append((key, name, g, x_eval, stream))
        # the streams hold the batch fits they start from; nothing else is read again
        self.one_shots, self.fits = {}, {}
        self.planning_seconds += clock() - t_start
        return self

    def _result(self, method, g, x_eval, fitted, converged, seconds) -> MethodResult:
        """A method's result: the ``beta_hat`` of ``fitted`` (a one-shot fit or a stream's
        report) scored on ``x_eval``, with the wall time ``seconds`` charged to it."""
        score = rmse(self.y_fit, x_eval, fitted.beta_hat,
                     include_intercept=self.scenario.estimate_intercept)
        return MethodResult(method, score, g, converged, seconds * 1e3)

    def finish(self, folded) -> CellOutcome:
        """Score the cell on its folded streams, given as (report, seconds charged) in order.

        Raises the first exception a stream of the cell raised.
        """
        t0 = time.perf_counter()
        method_seconds = dict(self.method_seconds)
        charged = 0.0
        folded = iter(folded)
        reports = []
        for fraction, one_shot, entries in self.fractions:
            results = list(one_shot)
            for key, method, g, x_eval, _ in entries:
                report, dt = next(folded)
                if isinstance(report, Exception):
                    raise report
                method_seconds[key] += dt
                charged += dt
                converged = report.all_converged and not report.skipped
                results.append(
                    self._result(method, g, x_eval, report, converged, method_seconds[key])
                )
            reports.append(
                RunReport(
                    n=self.y_fit.size,
                    batch_fraction=float(fraction),
                    eta=float(self.eta),
                    seed=self.seed,
                    results=tuple(results),
                )
            )
        return CellOutcome(
            reports=tuple(reports),
            method_seconds=method_seconds,
            estimation_seconds=self.planning_seconds + charged + time.perf_counter() - t0,
        )


def _plan_cell(scenario, eta, seed, solver) -> _CellPlan:
    """Generate one cell's dataset and lay out its one-shot problems.

    Each batch fraction's one-shot batch problem is laid out once: the
    streams on the raw design at that fraction solve the same problem for
    their batch, so they start from its fit. The stream on the standardized
    design gets its own batch problem here, so that every one-shot problem
    of the cell is known before any is solved, on one checked support row.
    """
    solver = solver if solver is not None else SolverSettings()
    clock = time.perf_counter
    t_start = clock()
    sim = replace(scenario.simulation, eta=float(eta), seed=seed, standardize=False)
    ds = generate_dataset(sim)
    y_fit = ds.y if scenario.estimate_intercept else ds.y - ds.intercept
    design = np.column_stack([np.ones(ds.n), ds.x]) if scenario.estimate_intercept else ds.x
    # one stream per block size, plus the standardized design when requested:
    # (method, g, method_seconds key suffix, design, regressors it is scored on)
    variants = [
        ("stre_gce" if g == 1 else "stre_gce_block", g, f"@g{g}", design, ds.x)
        for g in sorted(set(scenario.block_sizes) | {1})
    ]
    if scenario.run_std:
        x_std, _, _ = standardize_columns(ds.x)
        variants.append(("stre_gce_std", 1, "", np.column_stack([np.ones(ds.n), x_std]), x_std))

    full_row = _scaled_error_support(y_fit, ds.n, "full", scenario.error_points)
    one_shots = {"gce_dataset": (y_fit, design, full_row)}
    for fraction in scenario.batch_fractions:
        m = int(round(fraction * ds.n))
        batch_row = _scaled_error_support(y_fit, m, scenario.error_scale, scenario.error_points)
        one_shots[f"gce_batch@{fraction}"] = (y_fit[:m], design[:m], batch_row)
        for name, _, suffix, x_design, _ in variants:
            if x_design is not design:
                one_shots[f"{name}@{fraction}{suffix}"] = (y_fit[:m], x_design[:m], batch_row)
    (support_row,) = _support_rows(sim.beta_support, "beta_support")
    return _CellPlan(
        scenario, eta, seed, solver, ds.x, y_fit, design, variants, support_row, one_shots,
        dict.fromkeys(one_shots, 0.0), clock() - t_start,
    )


def _fit_stack(problems, zb, solver) -> list[_Fit]:
    """Check and solve one-shot problems on uniform priors as one stack; the ``_Fit`` of each.

    ``problems`` holds ``(y, x, error row)`` per problem, all of one size,
    on the checked coefficient supports ``zb``. The stack is checked as
    ``GceProblem`` checks a problem, each error row once, so a stack of one
    raises what its problem raises. Each fit, solved on its one error row,
    has the bits ``solve_gce`` would give it.
    """
    y, x, rows = (np.stack(arrays) for arrays in zip(*problems))
    (s, m, j), k, h = x.shape, zb.shape[1], rows.shape[1]
    ze = _error_rows(rows)[:, None]
    _check_observations(y.reshape(-1), x.reshape(-1, j), zb, s * m)
    qb, qe = _uniform_rows(j, k, "beta"), _uniform_row(h, "error")
    log_qb = _log_priors(qb)
    _check_hull(y, x, zb, log_qb, ze, _uniform_log_row(h))
    qb, log_qb = (np.broadcast_to(q, (s, j, k)) for q in (qb, log_qb))
    solved = _solve_dual(y, x, zb, ze, qb, log_qb, qe, 1.0, 1.0, solver)
    pt = solved.point
    return [
        _Fit(_gibbs_rows(pt.pb[i]), pt.beta_hat[i], pt.eps_hat[i], verdict)
        for i, verdict in enumerate(solved.converged.tolist())
    ]


def _solve_one_shots(plans) -> None:
    """Check and solve the one-shot problems of every plan, in stacks, into each plan's ``fits``.

    Problems that share the number of observations, the support row, the
    number of regressors, the error row width and the solver settings form
    a stack, checked and solved by one ``_fit_stack``; each gets its fit
    alone, bit for bit. A stack that raises is checked and solved again one
    problem at a time, and a problem that raises alone keeps the exception
    as its fit, the one ``GceProblem`` or ``solve_gce`` raises. A problem is
    charged an equal share of its stack's checks and solve. A stack holds at
    most ``_MAX_ONE_SHOT_STACK`` problems, stacked just before it is solved
    and dropped after, so only one stack's arrays are alive at a time.
    """
    clock = time.perf_counter
    stacks: dict = {}
    for plan in plans:
        row = plan.support_row.tobytes()
        for key, (y, x, error_row) in plan.one_shots.items():
            shape = (y.size, row, x.shape[1], error_row.size, plan.solver)
            stacks.setdefault(shape, []).append((plan, key))
    size = _MAX_ONE_SHOT_STACK
    chunks = [group[i : i + size] for group in stacks.values() for i in range(0, len(group), size)]
    for members in chunks:
        t0 = clock()
        problems = [plan.one_shots[key] for plan, key in members]
        plan = members[0][0]  # the stack's support row and solver settings
        zb = np.tile(plan.support_row, (problems[0][1].shape[1], 1))
        fits = _outcome(_fit_stack, problems, zb, plan.solver)
        if isinstance(fits, Exception):  # again, one problem at a time
            fits = [_outcome(lambda p: _fit_stack([p], zb, plan.solver)[0], p) for p in problems]
        share = (clock() - t0) / len(members)
        for (plan, key), fit in zip(members, fits):
            plan.fits[key] = fit
            plan.method_seconds[key] += share
            plan.planning_seconds += share


def _run_cells(tasks) -> list:
    """Plan every cell, solve their one-shot problems in stacks, fold all of their
    streams together, then score each cell.

    ``tasks`` holds ``run_cell``'s arguments per cell. Returns per cell its
    ``CellOutcome``, or the exception that failed it: a cell fails when its
    planning, one of its one-shot solves, the preparation of one of its
    streams or one of its streams raises, and no other cell fails with it.
    """
    plans = [_outcome(_plan_cell, *args) for args in tasks]
    _solve_one_shots([plan for plan in plans if isinstance(plan, _CellPlan)])
    plans = [plan if isinstance(plan, Exception) else _outcome(plan.prepare) for plan in plans]
    live = [plan for plan in plans if isinstance(plan, _CellPlan)]
    reports, charged = _fold([stream for plan in live for stream in plan.streams])
    folded = iter(zip(reports, charged))
    return [
        plan if isinstance(plan, Exception)
        else _outcome(plan.finish, [next(folded) for _ in plan.streams])
        for plan in plans
    ]


def run_cell(
    scenario: ScenarioConfig, eta: float, seed: int, solver: SolverSettings | None = None
) -> CellOutcome:
    """Run every configured method on one generated dataset.

    Produces one RunReport per batch fraction. The dataset-level fit does not
    depend on the fraction and is computed once, then reported in every
    fraction's table row for side-by-side reading. The cell's streams are
    folded together, as ``run_experiment`` folds the streams of many cells.
    """
    (outcome,) = _run_cells([(scenario, eta, seed, solver)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# Whole experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentOutcome:
    reports: tuple[RunReport, ...]
    failures: tuple[str, ...]
    written: tuple[str, ...]
    exit_code: int


def _gap_rows(reports, keys) -> list[dict]:
    """Mean relative rmse gap of each stream over the one-shot fit, per ``keys`` cell.

    A report without a ``gce_dataset`` fit, or whose fit is exact (rmse 0),
    has no gap to give and is skipped. Results are read in ``report_rows``'s order.
    """
    gaps: dict[tuple, list[float]] = {}
    for report in reports:
        try:
            reference = report.rmse_of("gce_dataset")
        except KeyError:
            continue
        if not reference > 0.0:
            continue
        for result in sorted(report.results, key=lambda r: (r.method, r.g is not None, r.g)):
            if result.method in _STREAMING_METHODS:
                cell = tuple(getattr(result if k in ("method", "g") else report, k) for k in keys)
                gaps.setdefault(cell, []).append(relative_gap(result.rmse, reference))
    return [
        {
            **dict(zip(keys, cell)),
            "relative_gap_mean": sum(values) / len(values),
            "replications": len(values),
        }
        for cell, values in gaps.items()
    ]


def run_experiment(
    config: ExperimentConfig, out_dir=None, jobs: int | None = None
) -> ExperimentOutcome:
    """Execute all cells, write the report and figure files, and summarize.

    ``out_dir`` and ``jobs`` override the config's values and are checked as
    the config checks them. Failed cells are recorded and skipped rather than
    aborting the rest; any failure yields exit code 2 with whatever partial
    results completed.
    """
    overrides = {"out_dir": out_dir, "jobs": jobs}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    out = Path(config.out_dir or "out")
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    for scenario in config.scenarios:
        for ei, eta in enumerate(scenario.eta_grid):
            for rep in range(config.replications):
                seed = _derive_seed(config.seed_base, scenario.name, ei, rep)
                label = f"{scenario.name}[eta={eta}, rep={rep}, seed={seed}]"
                tasks.append((label, (scenario, eta, seed, config.solver)))

    # each worker folds the streams of every jobs-th cell
    groups = [range(w, len(tasks), config.jobs) for w in range(min(config.jobs, len(tasks)))]
    results: list = [None] * len(tasks)
    if len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            futures = [
                (group, pool.submit(_run_cells, [tasks[i][1] for i in group])) for group in groups
            ]
            for group, future in futures:
                done = _outcome(future.result)
                done = [done] * len(group) if isinstance(done, Exception) else done
                for i, outcome in zip(group, done):
                    results[i] = outcome
    else:
        results = _run_cells([args for _, args in tasks])

    outcomes: list[CellOutcome] = []
    failures: list[str] = []
    for (label, _), outcome in zip(tasks, results):
        if isinstance(outcome, Exception):
            failures.append(f"{label}: {outcome}")
        else:
            outcomes.append(outcome)

    reports = tuple(r for outcome in outcomes for r in outcome.reports)
    written = []
    if reports:
        reported, summaries = report_rows(reports, config.include_timings), summary_rows(reports)
        _write_csv(out / "report.csv", REPORT_COLUMNS, reported)
        _write_json(out / "report.json", reported)
        _write_csv(out / "summary.csv", SUMMARY_COLUMNS, summaries)
        _write_json(out / "summary.json", summaries)
        for name, keys, values in _FIGURES:
            rows = _gap_rows(reports, keys) if "relative_gap_mean" in values else summaries
            _write_csv(out / name, keys + values, _ordered(rows, keys))
        written = [str(out / name) for name in REPORT_FILES]

    return ExperimentOutcome(
        reports=reports,
        failures=tuple(failures),
        written=tuple(written),
        exit_code=2 if failures else 0,
    )


# ---------------------------------------------------------------------------
# Single-file solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveOutcome:
    """Result of fitting one CSV dataset with one method."""

    mode: str
    beta_hat: np.ndarray  # intercept estimate first, slopes after
    rmse: float
    entropy_ledger: np.ndarray
    converged: bool
    skipped: tuple[int, ...]
    n: int
    batch_size: int
    block_size: int


def solve_file(
    path,
    mode: str = "gce",
    *,
    batch_fraction: float = 0.25,
    block_size: int = 1,
    standardize: bool = False,
    gamma: float = 0.5,
    beta_support=DEFAULT_BETA_SUPPORT,
    error_points: int = 3,
    error_scale: str = "batch",
    solver: SolverSettings | None = None,
) -> SolveOutcome:
    """Fit a ``y, x1..xJ`` CSV file with the chosen method.

    ``mode`` is one of ``gce`` (one solve over the whole file), ``stre``
    (batch then one-by-one updates), or ``block`` (batch then blocks of
    ``block_size``). An intercept is always estimated as a leading constant
    column. ``standardize`` fits on standardized regressors; reported rmse
    stays in response units either way. The error support follows
    ``run_stream``'s ``error_scale`` policy; ``gce`` always scales to the
    whole file. A file or batch of one row or with constant responses gets
    the policy's fixed-width row, so such files remain solvable.
    """
    solver = solver if solver is not None else SolverSettings()
    _check_error_scale(error_scale)
    block_size = _integer(block_size, "block_size")
    error_points = _integer(error_points, "error_points")
    y, x = load_dataset_csv(path)
    if standardize:
        x, _, _ = standardize_columns(x)
    design = np.column_stack([np.ones(y.size), x])
    support_row = np.asarray(beta_support, dtype=float)

    if mode == "gce":
        error_row = _scaled_error_support(y, y.size, "full", error_points)
        grid = SupportGrid.tiled(support_row, design.shape[1], error_row, y.size)
        fit = solve_gce(GceProblem(y, design, grid), solver)
        beta_hat, ledger, converged, skipped, m, g = (
            fit.beta_hat, np.array([]), fit.diagnostics.converged, (), int(y.size), int(y.size)
        )
    elif mode in ("stre", "block"):
        batch_fraction = _real(batch_fraction, "batch_fraction", within=lambda f: 0.0 < f <= 1.0,
                               must="be a number in (0, 1]")
        m = min(int(y.size), max(1, int(round(batch_fraction * y.size))))
        g = 1 if mode == "stre" else block_size
        stream = run_stream(
            y,
            design,
            batch_size=m,
            block_size=g,
            settings=UpdateSettings(gamma=gamma, solver=solver),
            beta_support=support_row,
            error_points=error_points,
            error_scale=error_scale,
        )
        beta_hat, ledger, converged, skipped = (
            stream.beta_hat, stream.entropy_ledger, stream.all_converged, stream.skipped
        )
    else:
        raise ValueError(f"mode must be one of 'gce', 'stre', 'block', got {mode!r}")
    return SolveOutcome(
        mode=mode,
        beta_hat=beta_hat,
        rmse=rmse(y, x, beta_hat, include_intercept=True),
        entropy_ledger=ledger,
        converged=converged,
        skipped=skipped,
        n=int(y.size),
        batch_size=m,
        block_size=g,
    )
