"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import UNIT, SpanError, Tracer, span_totals, update_drift  # noqa: E402
from workloads import Sizes, make_workload  # noqa: E402

TINY = Sizes(n=48, block=8, sweep_n=40, pools={name: 2 for name in run.WORKLOADS})
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_and_prints_every_metric(workload, trace):
    record = run.measure(workload, seed=3, seconds=0.01, trace=trace, sizes=TINY)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(record["metrics"]) == sorted(names)
    for name in names:
        assert record["metrics"][name]["unit"] == next(
            m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"] if m["name"] == name
        )
    printed = io.StringIO()
    with redirect_stdout(printed):
        run.report(record)
    for name in names:
        assert f"{name} = " in printed.getvalue()


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_self_times_sum_to_at_most_the_span_durations():
    import gcestream

    workload = make_workload("sweep", TINY, HERE / "results" / "tmp")
    units = workload.make_inputs(0)
    tracer = Tracer()
    tracer.install()
    try:
        workload.run(units[0], tracer)
    finally:
        tracer.close_patches()
    totals = span_totals(tracer.spans)
    assert all(v >= -1e-9 for v in totals.self_s.values())
    assert totals.self_total_s <= totals.root_total_s + 1e-9
    assert totals.calls["cli.main"] == 1 and totals.calls["solver.lse"] > 0
    # every patched name is back
    assert gcestream.solve_gce.__module__ == "gcestream.solver"
    assert not hasattr(gcestream.streaming.solve_gce, "__wrapped__")
    assert not hasattr(gcestream.solver.logsumexp, "__wrapped__")


def test_ticks_leave_the_self_time_of_the_innermost_span():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 5.0, 9.0, 0, 0],
             ["d", 6.0, 7.0, 2, 0]]
    ticks = [(2.0, 2.5), (4.5, 4.8), (6.2, 6.4), (8.0, 8.5)]
    self_s = span_totals(spans, ticks).self_s
    assert self_s == pytest.approx({"a": 2.7, "b": 2.5, "c": 2.5, "d": 0.8})


def test_update_drift_uses_the_given_duration():
    # one stream of 20 updates whose wall time doubles from the first tenth to
    # the last; a duration that undoes the slowdown reads no drift
    spans = [[UNIT, 0.0, 100.0, -1, 0]]
    spans += [["streaming.update", 1.0 + i, 1.5 + i + 0.5 * (i >= 18), 0, i]
              for i in range(20)]
    assert update_drift(spans, lambda a, b: b - a) == pytest.approx(2.0)
    assert update_drift(spans, lambda a, b: (b - a) / (2.0 if a >= 19.0 else 1.0)) == 1.0


def test_a_child_outside_its_parent_is_rejected():
    spans = [["a", 0.0, 1.0, -1, 0], ["b", 0.5, 1.5, 0, 0]]
    with pytest.raises(SpanError):
        span_totals(spans)


def test_a_missing_name_counts_zero_calls(monkeypatch):
    import gcestream.solver

    monkeypatch.delattr(gcestream.solver, "logsumexp")
    tracer = Tracer()
    missing = tracer.install()
    tracer.close_patches()
    assert "gcestream.solver.logsumexp" in missing


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gate_counts_a_perturbed_output_as_a_failure(workload):
    w = make_workload(workload, TINY, HERE / "results" / "tmp")
    result = w.run(w.make_inputs(0)[0])
    assert run.gate_self_check(w, result.outputs)


def test_stored_reference_covers_every_pooled_input():
    from reference import load_reference

    reference = load_reference()
    for name, pool in Sizes().pools.items():
        assert sorted(reference[name], key=int) == [str(s) for s in range(pool)]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_nominal_time_scales_by_nearby_kernel_time_and_skips_ticks():
    from speed import NOMINAL_KERNEL_S, SpeedClock

    clock = SpeedClock()
    clock.starts, clock.ends = [0.0, 10.0, 20.0], [1.0, 11.0, 23.0]  # kernels 1, 1, 3 s
    assert clock.normalized(2.0, 5.0) == pytest.approx(3.0 * NOMINAL_KERNEL_S)
    # a tick inside the interval is left out; the smoothed kernel time is 1 s
    assert clock.normalized(0.5, 15.0) == pytest.approx(13.0 * NOMINAL_KERNEL_S)
    assert clock.normalized(0.5, 15.0, nominal=False) == pytest.approx(13.0)
    # the 3 s tick is an outlier among its neighbours, so the median damps it
    assert clock.normalized(24.0, 26.0) == pytest.approx(2.0 * NOMINAL_KERNEL_S)


def test_ticking_restores_the_alarm_handler():
    import signal

    from speed import SpeedClock

    before = signal.getsignal(signal.SIGALRM)
    clock = SpeedClock()
    with clock.ticking():
        sum(range(10**6))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.ends) >= 2
