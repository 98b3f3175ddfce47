"""Fit quality measures and the tabular report format the experiments emit.

One ``RunReport`` covers one (dataset, batch fraction) cell: every estimation
method that ran on it, each with its root mean squared error, block size
where applicable, timing, and convergence flag. Reports serialize to CSV and
JSON with a fixed column set so downstream tooling can rely on the layout:

    n, batch_fraction, g, eta, method, rmse, seed, wallclock_ms, converged

Timing values are only written out when explicitly requested; they are the
one field that cannot be reproduced bit for bit across reruns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import mean, stdev

import numpy as np

__all__ = [
    "REPORT_COLUMNS",
    "SUMMARY_COLUMNS",
    "rmse",
    "relative_gap",
    "MethodResult",
    "RunReport",
    "report_rows",
    "summary_rows",
    "write_report_csv",
    "write_report_json",
    "write_summary_csv",
    "write_summary_json",
]

REPORT_COLUMNS = (
    "n",
    "batch_fraction",
    "g",
    "eta",
    "method",
    "rmse",
    "seed",
    "wallclock_ms",
    "converged",
)

SUMMARY_COLUMNS = (
    "n",
    "batch_fraction",
    "g",
    "eta",
    "method",
    "replications",
    "rmse_mean",
    "rmse_sd",
    "rmse_min",
    "rmse_max",
    "converged_all",
)


def rmse(y, x, beta_hat, include_intercept: bool = True) -> float:
    """Root mean squared error of the fitted linear predictor, 1/n inside.

    With ``include_intercept`` (the default) ``beta_hat`` carries the
    intercept estimate first and the J slope estimates after it; otherwise it
    carries exactly the J slopes and predictions omit any intercept.
    """
    yv = np.asarray(y, dtype=float).reshape(-1)
    xv = np.atleast_2d(np.asarray(x, dtype=float))
    b = np.asarray(beta_hat, dtype=float).reshape(-1)
    if xv.shape[0] != yv.size:
        raise ValueError(f"x has {xv.shape[0]} rows, y has {yv.size} entries")
    expected = xv.shape[1] + 1 if include_intercept else xv.shape[1]
    if b.size != expected:
        raise ValueError(
            f"beta_hat has {b.size} entries, expected {expected} "
            f"(include_intercept={include_intercept})"
        )
    predicted = b[0] + xv @ b[1:] if include_intercept else xv @ b
    return float(np.sqrt(np.mean((yv - predicted) ** 2)))


def relative_gap(rmse_stream: float, rmse_reference: float) -> float:
    """Relative excess error of the streaming fit over the reference fit."""
    if not (rmse_reference > 0.0 and math.isfinite(rmse_reference)):
        raise ValueError(f"reference rmse must be positive, got {rmse_reference!r}")
    return (rmse_stream - rmse_reference) / rmse_reference


@dataclass(frozen=True)
class MethodResult:
    """One method's outcome on one dataset cell; ``g`` only for block runs."""

    method: str
    rmse: float
    g: int | None = None
    converged: bool = True
    wallclock_ms: float | None = None

    def __post_init__(self) -> None:
        if not self.method:
            raise ValueError("method name must be nonempty")
        if not (self.rmse >= 0.0 and math.isfinite(self.rmse)):
            raise ValueError(f"rmse must be finite and nonnegative, got {self.rmse!r}")
        if self.g is not None and self.g < 1:
            raise ValueError("g must be a positive block size when given")


@dataclass(frozen=True)
class RunReport:
    """All method results for one generated dataset and one batch fraction."""

    n: int
    batch_fraction: float
    eta: float
    seed: int
    results: tuple[MethodResult, ...]

    def __post_init__(self) -> None:
        results = tuple(self.results)
        if not results:
            raise ValueError("a report needs at least one method result")
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ValueError(f"batch_fraction must lie in (0, 1], got {self.batch_fraction!r}")
        object.__setattr__(self, "results", results)

    def rmse_of(self, method: str, g: int | None = None) -> float:
        for r in self.results:
            if r.method == method and (g is None or r.g == g):
                return r.rmse
        raise KeyError(f"no result for method {method!r} (g={g!r})")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


#: Row order of the report and summary tables (summary rows carry no seed).
_ROW_ORDER = ("n", "eta", "batch_fraction", "method", "g", "seed")


def _ordered(rows, columns) -> list[dict]:
    """``rows`` sorted on ``columns`` in turn; a missing value sorts first."""

    def key(row):
        return tuple((row.get(c) is not None, row.get(c)) for c in columns)

    return sorted(rows, key=key)


def report_rows(reports, include_timings: bool = False) -> list[dict]:
    """Flatten reports into one dict per method result, deterministically ordered."""
    rows = []
    for report in reports:
        for result in report.results:
            rows.append(
                {
                    "n": report.n,
                    "batch_fraction": report.batch_fraction,
                    "g": result.g,
                    "eta": report.eta,
                    "method": result.method,
                    "rmse": result.rmse,
                    "seed": report.seed,
                    "wallclock_ms": result.wallclock_ms if include_timings else None,
                    "converged": result.converged,
                }
            )
    return _ordered(rows, _ROW_ORDER)


def summary_rows(reports) -> list[dict]:
    """Aggregate per-method rmse over replications (mean, sd, range)."""
    cells: dict[tuple, list] = {}
    for report in reports:
        for result in report.results:
            key = (report.n, report.batch_fraction, result.g, report.eta, result.method)
            cells.setdefault(key, []).append(result)
    rows = []
    for (n, fraction, g, eta, method), results in cells.items():
        values = [r.rmse for r in results]
        rows.append(
            {
                "n": n,
                "batch_fraction": fraction,
                "g": g,
                "eta": eta,
                "method": method,
                "replications": len(values),
                "rmse_mean": mean(values),
                "rmse_sd": stdev(values) if len(values) > 1 else 0.0,
                "rmse_min": min(values),
                "rmse_max": max(values),
                "converged_all": all(r.converged for r in results),
            }
        )
    return _ordered(rows, _ROW_ORDER)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(rows, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_report_csv(reports, path, include_timings: bool = False) -> None:
    _write_csv(path, REPORT_COLUMNS, report_rows(reports, include_timings))


def write_report_json(reports, path, include_timings: bool = False) -> None:
    _write_json(path, report_rows(reports, include_timings))


def write_summary_csv(reports, path) -> None:
    _write_csv(path, SUMMARY_COLUMNS, summary_rows(reports))


def write_summary_json(reports, path) -> None:
    _write_json(path, summary_rows(reports))
