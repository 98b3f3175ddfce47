"""Repeat the benchmark over seeds and write one point of the BENCH trajectory.

    python3 perfbench/trajectory.py --out perfbench/trajectory/BENCH_x.json

For each workload in BENCHMARK.json it runs ``run.py`` once per seed
1..``RUNS`` with tracing off, one workload and one process at a time, and
reports for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json. A spread above a third of its
bound is flagged (``setup_s`` is not gated on its spread). Traced runs on the
first ``TRACED_RUNS`` seeds add one per-layer row each, so that the point
shows whether the per-layer figures repeat from run to run. Optional
``--tier1-seconds`` records the wall time of the repository's tests, as
information only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced runs per workload, on seeds 1..RUNS.
RUNS = 10

#: Traced runs per workload, on seeds 1, 2, ...
TRACED_RUNS = 2

#: Per-layer metrics printed for each traced run, to compare run with run.
REPEATED = ("solver.lse_calls", "streaming.update_drift", "trace_overhead")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["env"] = record["env"]
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier1-seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, RUNS + 1))
    out = {"run_seconds": spec["run_seconds"], "runs": RUNS, "seeds": seeds,
           "tier1_seconds": args.tier1_seconds, "workloads": {}}
    for name in names:
        results = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        row = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                metric: summarize([r["metrics"][metric]["value"] for r in results], bound)
                for metric, bound in bounds.items()
            },
        }
        out["env"] = results[0]["env"]
        traced = [run_once(name, s, spec["run_seconds"], 1) for s in seeds[:TRACED_RUNS]]
        row["correct"] &= all(r["correct"] for r in traced)
        row["per_layer"] = [{k: v["value"] for k, v in r["metrics"].items()} for r in traced]
        out["workloads"][name] = row
        for metric, s in row["end_to_end"].items():
            flag = "" if s["spread_below_third_of_bound"] or metric == "setup_s" else "  WIDE"
            print(f"{name:11s} {metric:15s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}", flush=True)
        for metric in REPEATED:
            values = "  ".join(f"{layers[metric]:.6g}" for layers in row["per_layer"])
            print(f"{name:11s} {metric:15s} traced runs {values}", flush=True)
        print(f"{name:11s} correct {row['correct']}  failed {row['failed']}/{row['attempted']}",
              flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
