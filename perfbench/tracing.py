"""Spans around calls into the gcestream modules, for the traced run only.

The tracer replaces the names one gcestream module calls in another (for
example ``gcestream.streaming.solve_gce`` or ``gcestream.solver.logsumexp``)
with thin wrappers that record a span per call, and puts the originals back
when it is closed. A name that a later version of the package no longer has is
skipped, so its call count reads zero instead of breaking the benchmark.

Every span has a name, a start, an end, the index of its parent span (-1 for a
root) and the id of the benchmark operation it ran in. Spans stay in memory
until the run ends. A span's self time is its duration minus the durations of
its direct children; on one thread children never overlap, so that is the
part of its interval no child covers.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import gzip
import statistics
import sys
import time
from dataclasses import dataclass

#: (span name, module that defines the name, attribute path). A dotted path is
#: a method or classmethod on a class of that module; a plain name is patched
#: in every gcestream module that holds the same object under that name.
TRACED_NAMES = (
    ("core.joint_build", "gcestream.core", "JointDistribution.uniform"),
    ("core.joint_build", "gcestream.core", "JointDistribution.from_matrices"),
    ("core.joint_build", "gcestream.core", "SimplexDistribution.uniform"),
    ("core.kl", "gcestream.core", "kl_divergence"),
    ("solver.problem", "gcestream.solver", "GceProblem.__post_init__"),
    ("solver.solve", "gcestream.solver", "solve_gce"),
    ("solver.lse", "gcestream.solver", "logsumexp"),
    ("streaming.init", "gcestream.streaming", "init_stream"),
    ("streaming.update", "gcestream.streaming", "update_step"),
    ("streaming.update", "gcestream.streaming", "block_update"),
    ("simulation.generate", "gcestream.simulation", "generate_dataset"),
    ("simulation.error_support", "gcestream.simulation", "build_error_support"),
    ("simulation.standardize", "gcestream.simulation", "standardize_columns"),
    ("metrics.write", "gcestream.metrics", "write_report_csv"),
    ("metrics.write", "gcestream.metrics", "write_report_json"),
    ("metrics.write", "gcestream.metrics", "write_summary_csv"),
    ("metrics.write", "gcestream.metrics", "write_summary_json"),
    ("metrics.summary", "gcestream.metrics", "summary_rows"),
    ("metrics.rmse", "gcestream.metrics", "rmse"),
    ("experiments.run_stream", "gcestream.streaming", "run_stream"),
    ("experiments.run_cell", "gcestream.experiments", "run_cell"),
    ("experiments.run_experiment", "gcestream.experiments", "run_experiment"),
    ("cli.parse", "gcestream.cli", "_build_parser"),
    ("cli.parse", "gcestream.experiments", "parse_experiment_config"),
    ("cli.main", "gcestream.cli", "main"),
)

#: The package's modules, which are the benchmark's layers.
LAYERS = ("core", "solver", "streaming", "simulation", "metrics", "experiments", "cli")

#: Span name the benchmark itself records around each unit of work.
UNIT = "bench.unit"

_NAME, _START, _END, _PARENT = range(4)


class SpanError(RuntimeError):
    """The recorded spans do not nest: a child ran outside its parent."""


class Tracer:
    """Records spans; ``install`` patches the package, ``close_patches`` restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self.iterations = 0
        self.solves = 0
        self.converged = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise SpanError(f"span {index} closed while span {popped} was innermost")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def next_op(self) -> None:
        self.op_id += 1

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_solution(self, solution) -> None:
        diagnostics = getattr(solution, "diagnostics", None)
        if diagnostics is None:
            return
        self.solves += 1
        self.iterations += int(getattr(diagnostics, "iterations", 0))
        self.converged += bool(getattr(diagnostics, "converged", False))

    def install(self) -> list[str]:
        """Patch every traced name that exists; return the ones that do not."""
        missing = []
        for span_name, module_name, path in TRACED_NAMES:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not hasattr(owner, attr):
                missing.append(f"{module_name}.{path}")
                continue
            observe = self._observe_solution if path == "solve_gce" else None
            if owner_name:
                self._patch_class_attr(owner, attr, span_name, observe)
            else:
                self._patch_module_name(getattr(owner, attr), attr, span_name, observe)
        return missing

    def _patch_class_attr(self, cls, attr, span_name, observe) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        if isinstance(original, classmethod):
            patched = classmethod(self._wrap(span_name, original.__func__, observe))
        else:
            patched = self._wrap(span_name, original, observe)
        setattr(cls, attr, patched)
        self._patched.append((cls, attr, original))

    def _patch_module_name(self, target, attr, span_name, observe) -> None:
        wrapper = self._wrap(span_name, target, observe)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "gcestream" or module is None:
                continue
            if getattr(module, attr, None) is target:
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, target))

    def close_patches(self) -> None:
        """Put back every original name, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV, one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op}\n")


@dataclass(frozen=True)
class SpanTotals:
    """Per-name sums over a list of spans."""

    calls: dict
    self_s: dict
    self_total_s: float
    root_total_s: float


def span_totals(spans, ticks=()) -> SpanTotals:
    """Self time and call count per span name; raises if spans do not nest.

    ``ticks`` are (start, end) intervals of calibration ticks that ran during
    the spans (see ``speed.py``); each is taken out of the self time of the
    innermost span that contains it.
    """
    child_s = [0.0] * len(spans)
    root_total = 0.0
    for i, (name, start, end, parent, _op) in enumerate(spans):
        if end < start:
            raise SpanError(f"span {i} ({name}) ends before it starts")
        if parent < 0:
            root_total += end - start
            continue
        p = spans[parent]
        if start < p[_START] or end > p[_END]:
            raise SpanError(f"span {i} ({name}) runs outside its parent {parent} ({p[_NAME]})")
        child_s[parent] += end - start
    starts = [span[_START] for span in spans]
    for tick_start, tick_end in ticks:
        # The innermost container is the last span opened before the tick or
        # one of its ancestors.
        k = bisect.bisect_right(starts, tick_start) - 1
        while k >= 0 and spans[k][_END] < tick_end:
            k = spans[k][_PARENT]
        if k >= 0:
            child_s[k] += tick_end - tick_start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
    return SpanTotals(calls, self_s, sum(self_s.values()), root_total)


def update_drift(spans, duration) -> float:
    """Median over streams of late update time over early update time.

    Updates are the outermost ``streaming.update`` spans, grouped by the
    stream they ran in (a benchmark unit or an ``experiments.run_stream``
    call), and timed by ``duration(start, end)``: the run's nominal time, so
    that a change of machine speed between the start and the end of a stream
    does not read as drift. For each stream with at least 20 updates the ratio
    is the median duration of its last tenth over that of its first tenth.
    Zero when no stream has 20 updates.
    """
    streams: dict[int, list[float]] = {}
    for name, start, end, parent, _op in spans:
        if name != "streaming.update" or (parent >= 0 and spans[parent][_NAME] == name):
            continue
        anchor = parent
        while anchor >= 0 and spans[anchor][_NAME] not in (UNIT, "experiments.run_stream"):
            anchor = spans[anchor][_PARENT]
        streams.setdefault(anchor, []).append(duration(start, end))
    ratios = []
    for durations in streams.values():
        if len(durations) < 20:
            continue
        k = len(durations) // 10
        ratios.append(statistics.median(durations[-k:]) / statistics.median(durations[:k]))
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(tracer: Tracer, units: int, clock, ticks, scale: float) -> dict[str, float]:
    """Per-layer metrics, per unit of work, from a finished traced phase.

    Calibration ``ticks`` are taken out of span times, which are then
    multiplied by ``scale``, the phase's nominal time over its wall time, so
    that they are in the same nominal time as the end-to-end metrics. Update
    drift compares single updates, so it times each one with ``clock``
    (a ``speed.SpeedClock`` that ticked through the phase).
    """
    totals = span_totals(tracer.spans, ticks)
    per = 1.0 / max(units, 1)

    def ms(name: str) -> float:
        return totals.self_s.get(name, 0.0) * 1e3 * per * scale

    def calls(name: str) -> float:
        return totals.calls.get(name, 0) * per

    metrics = {
        "core.joint_build_ms": ms("core.joint_build"),
        "core.joint_build_calls": calls("core.joint_build"),
        "core.kl_ms": ms("core.kl"),
        "core.kl_calls": calls("core.kl"),
        "solver.problem_ms": ms("solver.problem"),
        "solver.solve_ms": ms("solver.solve"),
        "solver.lse_calls": calls("solver.lse"),
        "solver.lse_ms": ms("solver.lse"),
        "solver.iterations": tracer.iterations * per,
        "solver.converged_ratio": tracer.converged / tracer.solves if tracer.solves else 0.0,
        "streaming.init_ms": ms("streaming.init"),
        "streaming.update_self_ms": ms("streaming.update"),
        "streaming.update_drift": update_drift(tracer.spans, clock.normalized),
        "simulation.generate_ms": ms("simulation.generate"),
        "simulation.error_support_calls": calls("simulation.error_support"),
        "simulation.error_support_ms": ms("simulation.error_support"),
        "simulation.standardize_ms": ms("simulation.standardize"),
        "metrics.write_ms": ms("metrics.write"),
        "metrics.summary_ms": ms("metrics.summary"),
        "metrics.rmse_ms": ms("metrics.rmse"),
        "experiments.run_cell_ms": ms("experiments.run_cell"),
        "experiments.run_stream_ms": ms("experiments.run_stream"),
        "experiments.self_ms": ms("experiments.run_experiment"),
        "cli.parse_ms": ms("cli.parse"),
        "cli.self_ms": ms("cli.main"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = sum(
            count for name, count in totals.calls.items() if name.split(".")[0] == layer
        ) * per
    return metrics
