"""Command line front end.

Three subcommands: ``simulate`` runs a configured experiment sweep and writes
report files, ``solve`` fits one CSV dataset, and ``gen`` writes a synthetic
dataset CSV. Exit codes: 0 on success, 1 for configuration or usage errors,
2 when an experiment finished but some scenario cells failed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from .experiments import (
    ConfigError,
    parse_experiment_config,
    run_experiment,
    solve_file,
)
from .simulation import SimulationConfig, generate_dataset, save_dataset_csv


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gcestream",
        description="Entropy-based regression over support grids, batch and streaming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment sweep from a JSON config")
    sim.add_argument("--config", required=True, help="path to the experiment JSON config")
    sim.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    sim.add_argument("--jobs", type=int, default=None, help="worker processes (overrides config)")

    solve = sub.add_parser("solve", help="fit one y,x1..xJ CSV dataset")
    solve.add_argument("dataset", help="path to the CSV file")
    solve.add_argument("--mode", choices=("gce", "stre", "block"), default="gce")
    solve.add_argument(
        "--batch-fraction",
        type=float,
        default=0.25,
        help="fraction of rows used as the initial batch (stre/block modes)",
    )
    solve.add_argument(
        "--block-size", type=int, default=2, help="observations per update (block mode)"
    )
    solve.add_argument(
        "--std", action="store_true", help="standardize regressors before fitting"
    )
    solve.add_argument(
        "--gamma",
        type=float,
        default=0.5,
        help="weight on coefficient entropy during updates, in (0, 1)",
    )

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--out", required=True, help="path of the CSV file to write")
    gen.add_argument("--seed", type=int, required=True, help="generator seed")
    gen.add_argument("--n", type=int, required=True, help="number of observations")
    gen.add_argument("--eta", type=float, default=0.0, help="multicollinearity level in [0, 1]")
    gen.add_argument("--regressors", type=int, default=3, help="number of regressors")
    gen.add_argument("--noise-sd", type=float, default=1.0, help="noise standard deviation")
    gen.add_argument(
        "--std", action="store_true", help="store standardized regressors in the file"
    )
    return parser


def _cmd_simulate(args) -> int:
    try:
        config = parse_experiment_config(args.config)
        if args.jobs is not None:
            config = replace(config, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        outcome = run_experiment(config, out_dir=args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in outcome.written:
        print(f"wrote {path}")
    cells = len({(r.n, r.eta, r.seed) for r in outcome.reports})
    print(f"{len(outcome.reports)} reports from {cells} scenario cells")
    for failure in outcome.failures:
        print(f"failed: {failure}", file=sys.stderr)
    return outcome.exit_code


def _cmd_solve(args) -> int:
    try:
        outcome = solve_file(
            args.dataset,
            args.mode,
            batch_fraction=args.batch_fraction,
            block_size=args.block_size,
            standardize=args.std,
            gamma=args.gamma,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = ["intercept"] + [f"x{j}" for j in range(1, outcome.beta_hat.size)]
    print(f"mode: {outcome.mode}  n: {outcome.n}  batch: {outcome.batch_size}", end="")
    if outcome.mode != "gce":
        print(f"  block: {outcome.block_size}", end="")
    print()
    for name, value in zip(names, outcome.beta_hat):
        print(f"  {name}: {value:.6f}")
    print(f"rmse: {outcome.rmse:.6f}")
    print(f"converged: {'yes' if outcome.converged else 'no'}")
    if outcome.skipped:
        print(f"skipped infeasible observations: {list(outcome.skipped)}")
    if outcome.entropy_ledger.size:
        total = float(np.sum(outcome.entropy_ledger))
        print(f"entropy ledger ({outcome.entropy_ledger.size} updates, total {total:.6f}):")
        print(f"  {np.array2string(outcome.entropy_ledger, precision=6, threshold=20)}")
    return 0


def _cmd_gen(args) -> int:
    try:
        config = SimulationConfig(
            n=args.n,
            n_regressors=args.regressors,
            noise_sd=args.noise_sd,
            eta=args.eta,
            standardize=args.std,
            seed=args.seed,
        )
        dataset = generate_dataset(config)
        save_dataset_csv(args.out, dataset.y, dataset.x)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out} ({dataset.n} rows, {dataset.x.shape[1]} regressors)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "solve":
        return _cmd_solve(args)
    return _cmd_gen(args)


if __name__ == "__main__":
    sys.exit(main())
