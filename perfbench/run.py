"""gcestream benchmark: one workload per process, closed loop, one BLAS thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
runs the same units once untraced and once with spans around the package's
cross-module calls, and reports the per-layer metrics. It prints one line per
metric with its unit, then, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Every result is also written under
``perfbench/results/``. See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("oneshot", "stream_g1", "stream_g40", "sweep")

#: Setup (input generation and warm-up) is repeated this many times per run.
SETUP_REPEATS = 3


def _pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import re

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", fh.read())))
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def run_units(workload, units, seconds: float) -> list:
    """Run units in order, cycling, until ``seconds`` have passed; at least two."""
    runs = []
    t0 = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - t0 < seconds:
        runs.append(workload.run(units[len(runs) % len(units)]))
    return runs


def gate_self_check(workload, expected) -> bool:
    """The reference output passes the check and a perturbed copy of it fails."""
    from workloads import UnitRun

    exact = UnitRun("self-check", attempted=1, outputs=expected)
    perturbed = UnitRun("self-check", attempted=1, outputs=workload.perturb(expected))
    workload.check(exact, expected)
    workload.check(perturbed, expected)
    return not exact.failed and bool(perturbed.failed)


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, run and check one workload; return the result record."""
    _pin_threads()
    # numpy and scipy are dependencies, not the package: import them untimed,
    # so that setup_s counts the package's own import.
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    t_import = time.perf_counter()
    import gcestream
    import gcestream.cli  # noqa: F401

    import_s = time.perf_counter() - t_import
    from reference import load_reference
    from speed import NOMINAL_KERNEL_S, SpeedClock
    from tracing import Tracer, layer_metrics
    from workloads import Sizes, make_workload

    package = Path(gcestream.__file__).resolve()
    if ROOT / "src" not in package.parents:
        raise SystemExit(f"gcestream was imported from {package}, not from {ROOT / 'src'}")

    clock = SpeedClock()
    setup, setup_raw = [], []
    sizes = sizes if sizes is not None else Sizes()
    workload = make_workload(name, sizes, RESULTS / "tmp")
    reference = load_reference()[name] if sizes == Sizes() else None
    with clock.ticking():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            units = workload.make_inputs(seed)
            workload.warm_up(units)
            t1 = time.perf_counter()
            setup.append(clock.normalized(t0, t1))
            setup_raw.append(clock.normalized(t0, t1, nominal=False))
    import_nominal = import_s * NOMINAL_KERNEL_S / clock.kernel_s()[0]

    record = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "op_label": workload.op_label,
        "env": environment(seed),
    }
    if trace:
        with clock.ticking():
            untraced = run_units(workload, units, seconds / 2)
        tracer = Tracer()
        missing = tracer.install()
        first_tick = len(clock.ends)
        try:
            with clock.ticking():
                traced = [workload.run(units[i % len(units)], tracer) for i in range(len(untraced))]
        finally:
            tracer.close_patches()
        untraced_s = sum(clock.normalized(r.start, r.end) for r in untraced)
        traced_s = sum(clock.normalized(r.start, r.end) for r in traced)
        traced_raw = sum(clock.normalized(r.start, r.end, nominal=False) for r in traced)
        ticks = list(zip(clock.starts[first_tick:], clock.ends[first_tick:]))
        metrics = layer_metrics(tracer, len(traced), clock, ticks, scale=traced_s / traced_raw)
        metrics["trace_overhead"] = traced_s / untraced_s
        record["missing_names"] = missing
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"spans-{name}-seed{seed}.csv.gz")
        runs = untraced + traced
    else:
        with clock.ticking():
            runs = run_units(workload, units, seconds)
        metrics, raw = {}, {}
        for out, nominal in ((metrics, True), (raw, False)):
            ops = [clock.normalized(a, b, nominal) for r in runs for a, b in r.ops]
            out.update(
                latency_ms_p50=statistics.median(ops) * 1e3,
                latency_ms_p90=statistics.quantiles(ops, n=10, method="inclusive")[8] * 1e3,
                unit_s=statistics.median(clock.normalized(r.start, r.end, nominal) for r in runs),
            )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = import_nominal + statistics.median(setup)
        raw["setup_s"] = import_s + statistics.median(setup_raw)
        record["latency_samples"] = len(ops)
        record["raw_wall"] = raw
        record["kernel_ms_median"] = 1e3 * statistics.median(clock.kernel_s())

    gate_ok = True
    if reference is not None:
        for run in runs:
            workload.check(run, reference[run.key])
        gate_ok = gate_self_check(workload, reference[runs[0].key])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units_of = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units_of) != set(metrics):
        raise RuntimeError(
            f"BENCHMARK.json lists {sorted(set(units_of) - set(metrics))} that are not measured"
            f" and omits {sorted(set(metrics) - set(units_of))}"
        )
    attempted = sum(r.attempted for r in runs)
    failed = sum(min(len(r.failed), r.attempted) for r in runs)
    record.update(
        units=len(runs),
        attempted=attempted,
        failed=failed,
        fail_share=failed / attempted,
        gate_self_check=gate_ok,
        reference_checked=reference is not None,
        correct=failed == 0 and gate_ok,
        metrics={k: {"value": metrics[k], "unit": unit} for k, unit in units_of.items()},
    )
    return record


def report(record: dict) -> None:
    env = record["env"]
    print(
        f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
        f"units {record['units']}"
    )
    print(
        f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} blas={env['blas']} blas_threads={env['blas_threads']}"
    )
    for name, metric in record["metrics"].items():
        raw = record.get("raw_wall", {}).get(name)
        wall = f"  (wall {raw:.6g})" if raw is not None else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{wall}")
    if "kernel_ms_median" in record:
        print(f"calibration kernel median = {record['kernel_ms_median']:.4g} ms")
    if "latency_samples" in record:
        print(f"latency samples = {record['latency_samples']} {record['op_label']}")
    print(f"fail_share = {record['failed']}/{record['attempted']} = {record['fail_share']:.6g}")
    print(f"reference checked = {record['reference_checked']}  gate self-check = "
          f"{'ok' if record['gate_self_check'] else 'BROKEN'}")
    for name in record.get("missing_names", []):
        print(f"traced name not found (counts as zero calls): {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gcestream" / "__init__.py").is_file():
        print(f"no gcestream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 120:
        print("--seconds must lie in (0, 120]", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
