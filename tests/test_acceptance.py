"""End-to-end acceptance gate.

Ten checks covering oracle equivalence on small problems, stationarity
conditions, streaming identities and invariants, statistical bands for the
Monte Carlo protocol, byte determinism, and scale. Each test prints one
PASS/FAIL line with the measured values (run with ``-s`` to see them all).
"""

import functools
import json
import time

import numpy as np

import oracles
from gcestream import (
    GceProblem,
    ScenarioConfig,
    SimulationConfig,
    StreamState,
    SupportGrid,
    block_update,
    build_error_support,
    dual_objective,
    generate_dataset,
    gibbs_weights,
    init_stream,
    parse_experiment_config,
    run_cell,
    run_experiment,
    run_stream,
    solve_gce,
    update_step,
)

rng = np.random.default_rng(987654321)

BETA_ROW = (-100.0, -50.0, 0.0, 50.0, 100.0)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@functools.lru_cache(maxsize=1)
def _small_problem_suite():
    """100 random small problems, their solutions, grid oracles, and runtime."""
    local = np.random.default_rng(20240)
    entries = []
    t0 = time.perf_counter()
    for i in range(100):
        structure = oracles.SMALL_STRUCTURES[i % len(oracles.SMALL_STRUCTURES)]
        problem = oracles.random_small_problem(local, structure, random_prior=(i % 4 == 0))
        solution = solve_gce(problem)
        oracle = oracles.grid_search_oracle(problem)
        entries.append((problem, solution, oracle))
    return entries, time.perf_counter() - t0


def _protocol_scenario(n, block_sizes=(1,)):
    return ScenarioConfig(
        name="protocol",
        simulation=SimulationConfig(n=n),
        batch_fractions=(0.5,),
        block_sizes=block_sizes,
    )


def _protocol_dataset(n, seed, eta=0.0):
    ds = generate_dataset(SimulationConfig(n=n, eta=eta, seed=seed))
    design = np.column_stack([np.ones(ds.n), ds.x])
    return ds, design


def test_criterion_01_small_problems_match_the_grid_oracle():
    entries, elapsed = _small_problem_suite()
    worst_coord = 0.0
    worst_excess = -np.inf
    for problem, solution, oracle in entries:
        worst_coord = max(worst_coord, float(np.max(np.abs(solution.beta_hat - oracle.beta_hat))))
        worst_excess = max(worst_excess, solution.objective_value - oracle.objective)
    ok = worst_coord <= 5e-3 and worst_excess <= 1e-6 and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"100 small problems: max coordinate gap {worst_coord:.2e} (<= 5e-3), "
        f"max objective excess {worst_excess:.2e} (<= 1e-6), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_stationarity_holds_on_every_converged_solve():
    entries, _ = _small_problem_suite()
    solves = [(p, s) for p, s, _ in entries]
    for seed in range(5):
        ds, design = _protocol_dataset(120, seed=9000 + seed)
        row = build_error_support(ds.y, 3)
        grid = SupportGrid.tiled(BETA_ROW, design.shape[1], row, ds.n)
        problem = GceProblem(ds.y, design, grid)
        solves.append((problem, solve_gce(problem)))

    worst_residual = 0.0
    worst_weight_gap = 0.0
    n_converged = 0
    for problem, solution in solves:
        if not solution.diagnostics.converged:
            continue
        n_converged += 1
        residual = problem.y - problem.x @ solution.beta_hat - solution.epsilon_hat
        worst_residual = max(worst_residual, float(np.max(np.abs(residual))))
        closed_form = gibbs_weights(solution.multipliers, problem)
        worst_weight_gap = max(
            worst_weight_gap,
            float(np.max(np.abs(
                solution.distributions.beta - closed_form.beta
            ))),
            float(np.max(np.abs(
                solution.distributions.error - closed_form.error
            ))),
        )

    worst_rel = 0.0
    local = np.random.default_rng(31337)
    for probe in range(20):
        problem = oracles.random_small_problem(local)
        point = local.normal(0.0, 0.3, size=problem.n_obs)
        _, grad = dual_objective(point, problem)
        numeric = oracles.finite_difference_gradient(
            lambda lam: dual_objective(lam, problem)[0], point
        )
        scale = max(1.0, float(np.max(np.abs(numeric))))
        worst_rel = max(worst_rel, float(np.max(np.abs(grad - numeric))) / scale)

    ok = (
        n_converged == len(solves)
        and worst_residual <= 1e-8
        and worst_weight_gap <= 1e-10
        and worst_rel <= 1e-5
    )
    _verdict(
        2,
        ok,
        f"{n_converged}/{len(solves)} solves converged; max residual {worst_residual:.2e} "
        f"(<= 1e-8), max weight gap {worst_weight_gap:.2e} (<= 1e-10), "
        f"max finite-difference gradient error {worst_rel:.2e} rel (<= 1e-5) on 20 probes",
    )


def test_criterion_03_single_block_of_everything_is_the_batch_fit():
    worst = 0.0
    for n in (16, 32, 64):
        ds, design = _protocol_dataset(n, seed=1200 + n)
        row = build_error_support(ds.y, 3)
        grid = SupportGrid.tiled(BETA_ROW, design.shape[1], row, n)
        direct = solve_gce(GceProblem(ds.y, design, grid))
        stream = run_stream(
            ds.y, design, batch_size=0, block_size=n,
            beta_support=BETA_ROW, error_support=row,
        )
        worst = max(worst, float(np.max(np.abs(stream.beta_hat - direct.beta_hat))))
    ok = worst <= 1e-6
    _verdict(
        3,
        ok,
        f"one whole-dataset block from uniform vs one-shot fit at n in (16, 32, 64): "
        f"max coordinate gap {worst:.2e} (<= 1e-6)",
    )


def test_criterion_04_blocks_of_one_decompose_into_single_steps():
    ds, design = _protocol_dataset(24, seed=4321)
    row = build_error_support(ds.y[:8], 3)
    grid = SupportGrid.tiled(BETA_ROW, design.shape[1], row, 8)
    state0, _ = init_stream(GceProblem(ds.y[:8], design[:8], grid))
    by_block, by_step = state0, state0
    for i in range(8, 24):
        by_block = block_update(by_block, ds.y[i : i + 1], design[i : i + 1],
                                row.reshape(1, -1))
        by_step = update_step(by_step, ds.y[i], design[i], row)
    gap = float(np.max(np.abs(by_block.beta_hat - by_step.beta_hat)))
    ok = gap <= 1e-12
    _verdict(
        4,
        ok,
        f"16 size-one blocks vs 16 single steps: max coefficient gap {gap:.2e} (<= 1e-12)",
    )


def test_criterion_05_half_batch_bands_at_n240():
    t0 = time.perf_counter()
    gce_values, stre_values = [], []
    scenario = _protocol_scenario(240)
    for rep in range(30):
        outcome = run_cell(scenario, eta=0.0, seed=5000 + rep)
        (report,) = outcome.reports
        gce_values.append(report.rmse_of("gce_dataset"))
        stre_values.append(report.rmse_of("stre_gce", g=1))
    elapsed = time.perf_counter() - t0
    gce_mean = float(np.mean(gce_values))
    ratio = float(np.mean(stre_values)) / gce_mean
    ok = 0.85 <= gce_mean <= 1.15 and 1.0 <= ratio <= 1.6 and elapsed < 600.0
    _verdict(
        5,
        ok,
        f"n=240, half batch, 30 replications: mean one-shot rmse {gce_mean:.4f} "
        f"(in [0.85, 1.15]), stream/one-shot ratio {ratio:.3f} (in [1.0, 1.6]), "
        f"{elapsed:.0f}s (< 600s)",
    )


def test_criterion_06_larger_blocks_land_closer_to_the_one_shot_fit():
    scenario = _protocol_scenario(480, block_sizes=(1, 40))
    full, g1, g40 = [], [], []
    for rep in range(20):
        outcome = run_cell(scenario, eta=0.0, seed=6000 + rep)
        (report,) = outcome.reports
        full.append(report.rmse_of("gce_dataset"))
        g1.append(report.rmse_of("stre_gce", g=1))
        g40.append(report.rmse_of("stre_gce_block", g=40))
    reference = float(np.mean(full))
    gap_g1 = abs(float(np.mean(g1)) - reference)
    gap_g40 = abs(float(np.mean(g40)) - reference)
    ok = gap_g40 < gap_g1
    _verdict(
        6,
        ok,
        f"n=480, 20 replications: mean rmse gap to one-shot fit {gap_g40:.4f} at g=40 "
        f"vs {gap_g1:.4f} at g=1 (g=40 must be closer)",
    )


def test_criterion_07_perfect_collinearity_stays_solvable():
    # the stream value takes the better of the raw and standardized variants
    # per replication, the selection rule the reference protocol reports.
    # the per-replication statistic is heavy tailed (quartiles near 1.1, 1.2,
    # 1.4 with occasional values above 2), so the mean needs a couple hundred
    # replications before it settles; 30 was not enough to trust the estimate
    scenario = ScenarioConfig(
        name="protocol",
        simulation=SimulationConfig(n=240),
        batch_fractions=(0.5,),
        block_sizes=(1,),
        run_std=True,
    )
    replications = 200
    gce_values, stre_values = [], []
    all_converged = True
    for rep in range(replications):
        outcome = run_cell(scenario, eta=1.0, seed=7000 + rep)
        (report,) = outcome.reports
        all_converged = all_converged and all(r.converged for r in report.results)
        gce_values.append(report.rmse_of("gce_dataset"))
        stre_values.append(
            min(report.rmse_of("stre_gce", g=1), report.rmse_of("stre_gce_std"))
        )
    ratio = float(np.mean(stre_values)) / float(np.mean(gce_values))
    ok = all_converged and ratio <= 1.35
    _verdict(
        7,
        ok,
        f"n=240 at eta=1, {replications} replications: all converged={all_converged}, "
        f"best-variant stream/one-shot ratio {ratio:.3f} (<= 1.35)",
    )


def test_criterion_08_streaming_invariants():
    min_ledger = np.inf
    worst_replay = 0.0
    sensitive = 0
    datasets = 40
    for rep in range(datasets):
        ds, design = _protocol_dataset(64, seed=8000 + rep)
        forward = run_stream(ds.y, design, batch_size=16, beta_support=BETA_ROW)
        if forward.entropy_ledger.size:
            min_ledger = min(min_ledger, float(forward.entropy_ledger.min()))

        # replay the final step from a state stripped of its history
        row = build_error_support(ds.y[:16], 3)
        prefix = run_stream(ds.y[:63], design[:63], batch_size=16, beta_support=BETA_ROW)
        bare = StreamState(
            beta_prior=prefix.final_state.beta_prior,
            supports=prefix.final_state.supports,
            step_index=prefix.final_state.step_index,
        )
        a = update_step(prefix.final_state, ds.y[63], design[63], row)
        b = update_step(bare, ds.y[63], design[63], row)
        worst_replay = max(
            worst_replay,
            float(np.max(np.abs(
                a.beta_prior - b.beta_prior
            ))),
        )

        y_rev = np.concatenate([ds.y[:16], ds.y[16:][::-1]])
        x_rev = np.vstack([design[:16], design[16:][::-1]])
        reverse = run_stream(y_rev, x_rev, batch_size=16, beta_support=BETA_ROW)
        if float(np.max(np.abs(forward.beta_hat - reverse.beta_hat))) > 1e-6:
            sensitive += 1

    share = sensitive / datasets
    ok = min_ledger >= -1e-12 and worst_replay <= 1e-12 and share >= 0.95
    _verdict(
        8,
        ok,
        f"{datasets} streams at n=64: min ledger entry {min_ledger:.2e} (>= -1e-12), "
        f"max replayed-step gap {worst_replay:.2e} (<= 1e-12), "
        f"order-sensitive share {share:.0%} (>= 95%)",
    )


def test_criterion_09_reports_are_byte_identical_across_runs(tmp_path):
    config = parse_experiment_config(
        {
            "scenarios": [
                {
                    "name": "det",
                    "n": 24,
                    "eta_grid": [0.0, 0.5],
                    "batch_fractions": [0.5],
                    "block_sizes": [1, 4],
                }
            ],
            "replications": 2,
            "seed_base": 99,
        }
    )
    first = run_experiment(config, out_dir=tmp_path / "first", jobs=1)
    second = run_experiment(config, out_dir=tmp_path / "second", jobs=2)
    identical = [
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("report.csv", "report.json", "summary.csv", "summary.json")
    ]
    ok = all(identical) and first.exit_code == 0 and second.exit_code == 0
    _verdict(
        9,
        ok,
        f"two runs of one config (serial vs 2 workers): "
        f"{sum(identical)}/4 report files byte-identical",
    )


def test_criterion_10_protocol_scales_to_n3840():
    t0 = time.perf_counter()
    scenario = _protocol_scenario(3840, block_sizes=(1, 40))
    outcome = run_cell(scenario, eta=0.0, seed=10_000)
    elapsed = time.perf_counter() - t0
    (report,) = outcome.reports
    finite = all(np.isfinite(r.rmse) for r in report.results)
    converged = all(r.converged for r in report.results)
    ok = finite and converged and elapsed < 300.0
    _verdict(
        10,
        ok,
        f"n=3840 full cell: finite={finite}, converged={converged}, "
        f"{elapsed:.0f}s (< 300s)",
    )
