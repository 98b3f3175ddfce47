import json
import math
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gcestream import solver
from gcestream import (
    DEFAULT_BETA_SUPPORT,
    ConfigError,
    GceProblem,
    InfeasibleObservationError,
    JointDistribution,
    SimulationConfig,
    SolverSettings,
    StreamState,
    SupportGrid,
    UpdateSettings,
    block_update,
    build_error_support,
    dual_objective,
    expectation,
    generate_dataset,
    gibbs_weights,
    init_stream,
    kl_divergence,
    parse_experiment_config,
    run_experiment,
    solve_gce,
)

rng = np.random.default_rng(90210)


def two_point_problem(y=0.3):
    """m=1, J=1, K=2, H=2 with unit regressor; hull is (-1, 2)."""
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-1.0, 1.0]]))
    return GceProblem(np.array([y]), np.array([[1.0]]), grid)


def protocol_like_problem(n=40, seed=5):
    """Wide supports and U[0, 20] regressors, like the simulation setting."""
    local = np.random.default_rng(seed)
    x = local.uniform(0.0, 20.0, size=(n, 3))
    y = 1.0 + x @ np.array([1.0, -2.0, 3.0]) + local.normal(0.0, 1.0, size=n)
    design = np.column_stack([np.ones(n), x])
    sd = float(np.std(y, ddof=1))
    grid = SupportGrid.tiled(
        [-100.0, -50.0, 0.0, 50.0, 100.0], 4, [-3.0 * sd, 0.0, 3.0 * sd], n
    )
    return GceProblem(y, design, grid)


# ---------------------------------------------------------------------------
# gibbs_weights
# ---------------------------------------------------------------------------


def test_zero_multipliers_uniform_prior_gives_uniform_rows():
    prob = protocol_like_problem(n=6)
    joint = gibbs_weights(np.zeros(6), prob)
    assert (prob.n_obs, prob.n_params) == (6, 4)
    np.testing.assert_allclose(joint.beta, 0.2, atol=1e-15)
    np.testing.assert_allclose(joint.error, 1.0 / 3.0, atol=1e-15)


def test_zero_multipliers_return_the_prior_exactly():
    prob = oracles.random_small_problem(rng, random_prior=True)
    joint = gibbs_weights(np.zeros(prob.n_obs), prob)
    np.testing.assert_allclose(joint.beta, prob.prior.beta, atol=1e-14)
    np.testing.assert_allclose(joint.error, prob.prior.error, atol=1e-14)


def test_two_point_gibbs_closed_form():
    # z = {0, 1}, x = 1, lam = ln 3: tilts are exp(0) = 1 and exp(-ln 3) = 1/3,
    # so the coefficient row is (3/4, 1/4); the symmetric error row tilts to
    # exp(+ln 3), exp(-ln 3) = (3, 1/3), normalizing to (9/10, 1/10).
    prob = two_point_problem()
    joint = gibbs_weights(np.array([math.log(3.0)]), prob)
    np.testing.assert_allclose(joint.beta[0], [0.75, 0.25], atol=1e-15)
    np.testing.assert_allclose(joint.error[0], [0.9, 0.1], atol=1e-15)


def test_gibbs_rejects_bad_multipliers():
    prob = two_point_problem()
    with pytest.raises(ValueError):
        gibbs_weights(np.array([np.nan]), prob)
    with pytest.raises(ValueError):
        gibbs_weights(np.array([0.0, 0.0]), prob)


# ---------------------------------------------------------------------------
# dual_objective
# ---------------------------------------------------------------------------


def test_dual_value_at_zero_is_log_row_sizes():
    prob = protocol_like_problem(n=7)
    value, _ = dual_objective(np.zeros(7), prob)
    assert value == pytest.approx(4 * math.log(5) + 7 * math.log(3), abs=1e-12)


def test_dual_gradient_at_zero_equals_y_for_symmetric_supports():
    prob = protocol_like_problem(n=9)
    _, grad = dual_objective(np.zeros(9), prob)
    np.testing.assert_allclose(grad, prob.y, atol=1e-9)


@pytest.mark.parametrize("trial", range(20))
def test_dual_gradient_matches_finite_differences(trial):
    local = np.random.default_rng(1000 + trial)
    prob = oracles.random_small_problem(local, random_prior=(trial % 4 == 0))
    lam = local.normal(0.0, 0.5, size=prob.n_obs)
    _, grad = dual_objective(lam, prob)
    fd = oracles.finite_difference_gradient(lambda l: dual_objective(l, prob)[0], lam)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("trial", range(10))
def test_dual_is_convex_along_random_segments(trial):
    local = np.random.default_rng(7700 + trial)
    prob = oracles.random_small_problem(local)
    a = local.normal(0.0, 1.0, size=prob.n_obs)
    b = local.normal(0.0, 1.0, size=prob.n_obs)
    va, _ = dual_objective(a, prob)
    vb, _ = dual_objective(b, prob)
    vm, _ = dual_objective(0.5 * (a + b), prob)
    assert vm <= 0.5 * (va + vb) + 1e-9


# ---------------------------------------------------------------------------
# solve_gce
# ---------------------------------------------------------------------------


def test_two_point_solution_matches_fine_grid_oracle():
    prob = two_point_problem(y=0.55)
    sol = solve_gce(prob)
    ora = oracles.grid_search_oracle(prob, coarse_step=1e-4, refine_step=1e-5)
    assert sol.diagnostics.converged
    np.testing.assert_allclose(sol.beta_hat, ora.beta_hat, atol=1e-4)
    assert sol.objective_value <= ora.objective + 1e-9


@pytest.mark.parametrize(
    "y, message",
    [
        (2.5, "observation(s) 0 fall outside the attainable hull [-1.0, 2.0]"),
        (
            2.0,
            "observation(s) 0 lie exactly on the attainable hull boundary [-1.0, 2.0] "
            "and would force degenerate point masses",
        ),
    ],
)
def test_an_infeasible_observation_names_its_hull_in_plain_numbers(y, message):
    with pytest.raises(InfeasibleObservationError) as info:
        two_point_problem(y=y)
    assert str(info.value) == message
    assert type(info.value.lo) is float and type(info.value.hi) is float


def test_an_infeasibility_error_survives_a_pickle_round_trip():
    # a worker process sends a failed cell's error back to its parent this way
    with pytest.raises(InfeasibleObservationError) as info:
        two_point_problem(y=2.0)
    back = pickle.loads(pickle.dumps(info.value))
    assert type(back) is InfeasibleObservationError
    assert (back.indices, back.lo, back.hi, back.boundary) == ((0,), -1.0, 2.0, True)
    assert str(back) == str(info.value)


def test_prior_feasible_response_solves_at_zero():
    prob = oracles.random_small_problem(rng, random_prior=True)
    prediction = prob.x @ expectation(
        prob.prior.beta, prob.supports.beta_support
    ) + expectation(prob.prior.error, prob.supports.error_support)
    relaxed = GceProblem(prediction, prob.x, prob.supports, prob.prior)
    sol = solve_gce(relaxed)
    assert sol.diagnostics.converged
    np.testing.assert_allclose(sol.multipliers, 0.0, atol=1e-9)
    assert sol.objective_value <= 1e-12
    np.testing.assert_allclose(
        sol.distributions.beta, prob.prior.beta, atol=1e-8
    )


@pytest.mark.parametrize("trial", range(15))
def test_small_problems_beat_every_random_feasible_point(trial):
    local = np.random.default_rng(42000 + trial)
    prob = oracles.random_small_problem(local, random_prior=(trial % 3 == 0))
    sol = solve_gce(prob)
    assert sol.diagnostics.converged
    competitors = oracles.random_feasible_objectives(prob, local, draws=400)
    assert competitors.size > 0
    assert sol.objective_value <= competitors.min() + 1e-6


@pytest.mark.parametrize("n", [12, 40])
def test_solution_invariants_on_protocol_problems(n):
    prob = protocol_like_problem(n=n, seed=n)
    sol = solve_gce(prob)
    assert sol.diagnostics.converged
    # residuals at the reported tolerance
    residual = prob.y - prob.x @ sol.beta_hat - sol.epsilon_hat
    assert np.max(np.abs(residual)) <= 1e-8
    # point estimates really are the row expectations
    for j, row in enumerate(sol.distributions.beta):
        assert sol.beta_hat[j] == pytest.approx(
            expectation(row, prob.supports.beta_support[j]), abs=1e-12
        )
    for i, row in enumerate(sol.distributions.error):
        assert sol.epsilon_hat[i] == pytest.approx(
            expectation(row, prob.supports.error_support[i]), abs=1e-12
        )
    # round-trip: the stored multipliers regenerate the stored weights
    regen = gibbs_weights(sol.multipliers, prob)
    np.testing.assert_allclose(
        regen.beta, sol.distributions.beta, atol=1e-10
    )
    np.testing.assert_allclose(
        regen.error, sol.distributions.error, atol=1e-10
    )
    # everything stays finite under the wide supports
    assert np.all(np.isfinite(sol.distributions.beta))
    assert np.all(np.isfinite(sol.multipliers))


def test_scalar_path_matches_independent_bisection():
    local = np.random.default_rng(88)
    grid = SupportGrid(np.array([[-1.0, 0.0, 1.5]]), np.array([[-2.0, 0.0, 2.0]]))
    prior = JointDistribution(
        np.array([[0.5, 0.3, 0.2]]), np.array([[1 / 3, 1 / 3, 1 / 3]])
    )
    prob = GceProblem(np.array([0.8]), np.array([[1.3]]), grid, prior)
    sol = solve_gce(prob)
    lam_star = oracles.bisect_scalar_multiplier(
        0.8, [1.3], grid.beta_support, prior.beta,
        grid.error_support[0], prior.error[0],
    )
    assert sol.diagnostics.converged
    assert sol.multipliers[0] == pytest.approx(lam_star, abs=1e-7)
    del local


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 7),
    h=st.integers(2, 7),
    j=st.integers(1, 3),
    gamma=st.floats(0.1, 0.9),  # the oracle's plain exponentials overflow nearer 0 or 1
    where=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_observation_solves_match_bisection_on_random_priors(k, h, j, gamma, where, seed):
    local = np.random.default_rng(seed)
    zb = np.sort(local.uniform(-5.0, 5.0, (j, k)), axis=1)
    zb[:, 0], zb[:, -1] = -5.0, 5.0
    ze = np.linspace(-2.0, 2.0, h)
    prior = JointDistribution(
        local.dirichlet(np.ones(k), size=j), local.dirichlet(np.ones(h))[None, :]
    )
    x = local.uniform(-2.0, 2.0, (1, j))
    lo, hi = solver._coefficient_hull(x, zb[:, 0], zb[:, -1])
    y = lo + ze[0] + where * (hi - lo + ze[-1] - ze[0])
    problem = GceProblem(y, x, SupportGrid(zb, ze[None, :]), prior)
    sol = solve_gce(problem, signal_weight=gamma, error_weight=1.0 - gamma)
    lam_star = oracles.bisect_scalar_multiplier(
        y[0], x[0], zb, prior.beta, ze, prior.error[0], wb=gamma, we=1.0 - gamma,
    )
    assert sol.diagnostics.converged
    assert sol.multipliers[0] == pytest.approx(lam_star, abs=1e-7)


def stacked_problems(local, s, j, k, h, where, zb=None):
    """``s`` one-observation problems on shared supports, with random priors and data.

    Returns the ``_solve_dual`` stack arguments ``(y, x, zb, ze, qb)``. Every
    ``y`` lies at the fraction ``where`` of its hull; coefficient priors are
    random and some weights are exactly zero. ``zb`` defaults to random rows.
    """
    if zb is None:
        zb = np.sort(local.uniform(-5.0, 5.0, (j, k)), axis=1)
        zb[:, 0], zb[:, -1] = -5.0, 5.0
    ze = np.tile(np.linspace(-2.0, 2.0, h), (s, 1, 1)) * local.uniform(0.5, 2.0, (s, 1, 1))
    qb = local.dirichlet(np.full(k, 0.5), size=(s, j))
    qb[local.uniform(size=(s, j, k)) < 0.1] = 0.0
    qb[qb.sum(axis=2) == 0.0] = 1.0
    qb /= qb.sum(axis=2, keepdims=True)
    x = local.uniform(-2.0, 2.0, (s, 1, j))
    y = np.empty((s, 1))
    for i in range(s):
        live = np.where(qb[i] > 0.0, zb, np.nan)
        lo, hi = solver._coefficient_hull(x[i], np.nanmin(live, axis=1), np.nanmax(live, axis=1))
        y[i] = lo + ze[i, 0, 0] + where[i] * (hi - lo + ze[i, 0, -1] - ze[i, 0, 0])
    return y, x, zb, ze, qb


def diagnosed(solved):
    """A ``_solve_dual`` result's per-problem verdicts as one ``SolverDiagnostics`` each."""
    verdicts = (solved.iterations, solved.residual, solved.converged)
    return [solver.SolverDiagnostics(*d) for d in zip(*(v.tolist() for v in verdicts))]


def assert_stack_is_stacks_of_one(y, x, zb, ze, qb, qe, wb, we, settings=SolverSettings()):
    """Solve the stack at once and problem by problem; every output must be the same bits.

    Multi-observation points carry one dual value per problem, which must
    match too. The solves read ``_log_priors(qb)``, a stream state's default logs.
    """
    log_qb = solver._log_priors(qb)
    solved = solver._solve_dual(y, x, zb, ze, qb, log_qb, qe, wb, we, settings)
    diagnostics = diagnosed(solved)
    names = ("grad", "pb", "pe", "beta_hat", "eps_hat", "tilt", "ln_zb")
    for i in range(y.shape[0]):
        one = slice(i, i + 1)
        alone = solver._solve_dual(
            y[one], x[one], zb, ze[one], qb[one], log_qb[one], qe, wb, we, settings
        )
        assert diagnostics[i] == diagnosed(alone)[0]
        assert solved.lam[i].tobytes() == alone.lam[0].tobytes()
        for name in names + (("value",) if y.shape[1] > 1 else ()):
            got, want = getattr(solved.point, name)[i], getattr(alone.point, name)[0]
            assert got.tobytes() == want.tobytes(), (i, name)
    return diagnostics


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    s=st.integers(1, 12),
    j=st.integers(1, 4),
    k=st.integers(2, 7),
    h=st.integers(2, 7),
    gamma=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_stack_of_one_observation_solves_is_its_stacks_of_one(s, j, k, h, gamma, seed):
    local = np.random.default_rng(seed)
    where = local.uniform(0.02, 0.98, s)
    y, x, zb, ze, qb = stacked_problems(local, s, j, k, h, where)
    # the last problem's observation is its prior's own prediction: no Newton step
    kernel = solver._StackKernel(zb, np.log(np.full(h, 1.0 / h)))
    (g,), _, _ = kernel.start(
        qb[-1:], solver._log_priors(qb[-1:]), y[-1], x[-1], ze[-1, 0][None], gamma, 1.0 - gamma
    )
    y[-1] -= g
    qe = np.full((1, h), 1.0 / h)
    diagnostics = assert_stack_is_stacks_of_one(y, x, zb, ze, qb, qe, gamma, 1.0 - gamma)
    assert diagnostics[-1].iterations == 0
    assert all(d.converged for d in diagnostics)


def test_a_stack_with_a_bisecting_and_an_idle_problem_is_its_stacks_of_one(monkeypatch):
    # near the top of its hull with the prior at the bottom, the first
    # trust step overshoots and the next proposal leaves the bracket, so
    # the problem bisects; another one starts at its root
    local = np.random.default_rng(5)
    zb = np.array([[-1.0, 0.0, 1.0]])
    y, x, zb, ze, qb = stacked_problems(local, 6, 1, 3, 3, local.uniform(0.1, 0.9, 6), zb)
    y[0], x[0], ze[0], qb[0] = 0.9995, 1.0, [-1e-3, 0.0, 1e-3], [0.98, 0.01, 0.01]
    y[1], x[1], qb[1] = 0.0, 1.0, [0.25, 0.5, 0.25]  # symmetric: the prior predicts 0
    ze[1] = [-1.0, 0.0, 1.0]
    multipliers = []
    at = solver._StackKernel.at

    def recorded(self, lam):
        multipliers.append(lam[:: zb.shape[0] + 1, 0].tolist())
        return at(self, lam)

    monkeypatch.setattr(solver._StackKernel, "at", recorded)
    qe = np.full((1, 3), 1.0 / 3.0)
    diagnostics = assert_stack_is_stacks_of_one(y, x, zb, ze, qb, qe, 0.5, 0.5)
    # the stack's first two steps for problem 0: a trust step, then the midpoint
    assert [step[0] for step in multipliers[:2]] == [-8.0, -4.0]
    assert diagnostics[1].iterations == 0 and diagnostics[0].iterations > 2
    assert all(d.converged for d in diagnostics)


@pytest.mark.parametrize("y, toward", [(0.3, 1.0), (0.9, -1.0)])
def test_a_kernel_step_without_a_newton_candidate_is_the_trust_step_toward_the_root(
    monkeypatch, y, toward
):
    # a zero curvature at the first iterate leaves Newton no candidate
    # before the root is bracketed: the step is the whole trust step,
    # 8 * (1 + |lam|) = 8 at lam = 0, to the side where the gradient is zero
    curvature, at = solver._StackKernel.curvature, solver._StackKernel.at
    curvatures, multipliers = [], []

    def flat_first(self, p, means):
        curvatures.append(curvature(self, p, means))
        return np.zeros_like(curvatures[0]) if len(curvatures) == 1 else curvatures[-1]

    def recorded(self, lam):
        multipliers.append(float(lam[0, 0]))
        return at(self, lam)

    monkeypatch.setattr(solver._StackKernel, "curvature", flat_first)
    monkeypatch.setattr(solver._StackKernel, "at", recorded)
    fit = solve_gce(two_point_problem(y))
    assert curvatures[0].min() > 0.0
    assert multipliers[0] == toward * 8.0
    assert fit.diagnostics.converged and fit.diagnostics.iterations > 1


def multi_row_problems(local, s, m, j, k, h, point_mass):
    """``s`` problems of ``m`` observations on shared supports, with random priors and data.

    Returns the ``_solve_dual`` stack arguments ``(y, x, zb, ze, qb)``.
    Coefficient priors are random with some weights exactly zero; with
    ``point_mass`` the first problem's first coefficient row has a single
    live point, so that coefficient has no curvature and its column drops
    out of the Newton system. Every ``y_i`` is ``x_i . beta + eps_i`` for
    weights positive on every live point, so it lies inside its hull.
    """
    zb = np.sort(local.uniform(-5.0, 5.0, (j, k)), axis=1)
    zb[:, 0], zb[:, -1] = -5.0, 5.0
    ze = np.tile(np.linspace(-2.0, 2.0, h), (s, m, 1)) * local.uniform(0.5, 2.0, (s, m, 1))
    qb = local.dirichlet(np.full(k, 0.5), size=(s, j))
    qb[local.uniform(size=(s, j, k)) < 0.1] = 0.0
    qb[qb.sum(axis=2) == 0.0] = 1.0
    if point_mass:
        qb[0, 0] = np.eye(k)[local.integers(k)]
    qb /= qb.sum(axis=2, keepdims=True)
    x = local.uniform(-2.0, 2.0, (s, m, j))
    weights = local.dirichlet(np.ones(k), size=(s, j)) * (qb > 0.0)
    beta = (weights * zb).sum(axis=2) / weights.sum(axis=2)
    eps = (local.dirichlet(np.ones(h), size=(s, m)) * ze).sum(axis=2)
    y = np.einsum("smj,sj->sm", x, beta) + eps
    return y, x, zb, ze, qb


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    s=st.integers(1, 6),
    m=st.integers(2, 40),
    j=st.integers(1, 7),
    k=st.integers(2, 7),
    h=st.integers(2, 7),
    gamma=st.floats(0.05, 0.95),
    point_mass=st.booleans(),
    force=st.sampled_from([None, "ridge", "fallback"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_stack_of_multi_observation_solves_is_its_stacks_of_one(
    s, m, j, k, h, gamma, point_mass, force, seed
):
    # ``force`` spoils the Newton systems of the problems whose first
    # regressor is positive: the plain one for "ridge", both for "fallback",
    # so those problems retry with a ridge or take the negative gradient
    local = np.random.default_rng(seed)
    y, x, zb, ze, qb = multi_row_problems(local, s, m, j, k, h, point_mass)
    qe = np.full((1, h), 1.0 / h)
    diagonal = solver._error_diagonal
    spoiled = []

    def spoiling(ridge, x, vb, ve):
        ve = diagonal(ridge, x, vb, ve)
        hit = (x[:, 0, 0] > 0.0) & (force == "fallback" or not ridge)
        spoiled.append(int(hit.sum()))
        return np.where(hit[:, None], np.nan, ve)

    with pytest.MonkeyPatch.context() as patch:
        if force is not None:
            patch.setattr(solver, "_error_diagonal", spoiling)
        assert_stack_is_stacks_of_one(
            y, x, zb, ze, qb, qe, gamma, 1.0 - gamma, SolverSettings(max_iterations=15)
        )
    if force is not None and (x[:, 0, 0] > 0.0).any():
        assert sum(spoiled) > 0


def test_readmes_study_takes_every_newton_direction_from_one_whole_stack_solve(
    monkeypatch, tmp_path
):
    # the fallbacks (dead columns, non-positive error curvature, a ridge
    # retry, the negative gradient) run on no problem of the study: each
    # direction is one plain Woodbury solve of the stack it was asked for
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Experiment config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    raw = {**json.loads(block), "replications": 1, "jobs": 1}
    woodbury, diagonal, direction = (
        solver._woodbury, solver._error_diagonal, solver._newton_direction
    )
    solves, ridges = [], []  # per direction, whether each Woodbury solve took its whole stack

    def counted_direction(ev, *args):
        solves.append((ev.xt, []))
        return direction(ev, *args)

    def counted_woodbury(xt, *args):
        stack, taken = solves[-1]
        taken.append(xt is stack)
        return woodbury(xt, *args)

    def counted_diagonal(ridge, *args):
        ridges.append(ridge)
        return diagonal(ridge, *args)

    monkeypatch.setattr(solver, "_newton_direction", counted_direction)
    monkeypatch.setattr(solver, "_woodbury", counted_woodbury)
    monkeypatch.setattr(solver, "_error_diagonal", counted_diagonal)
    assert run_experiment(parse_experiment_config(raw), out_dir=tmp_path).exit_code == 0
    assert len(solves) > 10
    assert all(taken == [True] for _, taken in solves)
    assert len(ridges) == len(solves) and not any(ridges)


def collinear_stall_problem(seed=1007, eta=1.0, scale=1.0):
    """The study's one-shot fit at n = 240, with y, x and the error row times ``scale``.

    Seed 1007 at eta 1 was the collinear stall. Times 2**20 a fit stalls
    below its rounding floor: one ulp of its multipliers moves the residual
    by more than the tolerance, so it backtracks on every step and never converges.
    """
    ds = generate_dataset(SimulationConfig(n=240, eta=eta, seed=seed))
    design = np.column_stack([np.ones(ds.n), ds.x]) * scale
    grid = SupportGrid.tiled(
        DEFAULT_BETA_SUPPORT, design.shape[1], build_error_support(ds.y) * scale, ds.n
    )
    return GceProblem(ds.y * scale, design, grid)


STALL_CASES = ((1007, 1.0, 2.0**20), (3, 1.0), (4, 0.0))  # a fit below its floor, two converging


def problem_stack(problems):
    """The ``_solve_dual`` stack arguments ``(y, x, zb, ze, qb, qe)`` of problems sharing m,
    the coefficient supports and the error prior."""
    first = problems[0]
    return (
        np.stack([p.y for p in problems]), np.stack([p.x for p in problems]),
        first.supports.beta_support, np.stack([p.supports.error_support for p in problems]),
        np.stack([p.prior.beta for p in problems]), first.prior.error,
    )


def test_the_collinear_stall_stacked_with_converging_fits_keeps_every_fit_its_bits():
    # the stall backtracks on every step while its neighbours converge in a
    # few; each keeps the solution it gets alone
    capped = SolverSettings(max_iterations=20)
    problems = [collinear_stall_problem(*case) for case in STALL_CASES]
    stacked = assert_stack_is_stacks_of_one(*problem_stack(problems), 1.0, 1.0, capped)
    for got, problem in zip(stacked, problems):
        assert got == solve_gce(problem, capped).diagnostics
    assert [fit.converged for fit in stacked] == [False, True, True]
    assert stacked[0].iterations == 20


def test_a_stack_narrows_once_per_newton_iteration(monkeypatch):
    # the stall backtracks many times on steps its neighbours accept whole:
    # the problems that accept keep their points and are dropped from the
    # stack after the iteration, not at each halving that some accept
    capped = SolverSettings(max_iterations=20)
    problems = [collinear_stall_problem(*case) for case in STALL_CASES]
    taken, directions, counts = [], [], []
    take, direction, solve_multi = (
        solver._DualEvaluator.take, solver._newton_direction, solver._solve_multi
    )

    def counted_take(self, rows):
        taken.append(len(rows))
        return take(self, rows)

    def counted_direction(ev, *args):
        directions.append(ev.y.shape[0])
        return direction(ev, *args)

    def recorded(ev, settings):
        result = solve_multi(ev, settings)
        counts.append(result[2])
        return result

    monkeypatch.setattr(solver._DualEvaluator, "take", counted_take)
    monkeypatch.setattr(solver, "_newton_direction", counted_direction)
    monkeypatch.setattr(solver, "_solve_multi", recorded)
    y, x, zb, ze, qb, qe = problem_stack(problems)
    solved = solver._solve_dual(y, x, zb, ze, qb, solver._log_priors(qb), qe, 1.0, 1.0, capped)
    (iterations,) = counts
    assert isinstance(iterations, np.ndarray) and iterations.dtype.kind == "i"
    assert iterations.tolist() == solved.iterations.tolist()
    assert iterations[0] == 20 and max(iterations[1:]) < 20
    # one direction per iteration, over the stack that iteration ran; a
    # narrower stack is taken once, before its direction
    assert len(directions) == 20 and directions[0] == 3 and directions[-1] == 1
    assert taken == [n for n in directions if n < 3]


def collapse_problems():
    """One-observation fits on rows 0-2 of a simulated dataset, on its default supports."""
    ds = generate_dataset(SimulationConfig(n=40, seed=3))
    design = np.column_stack([np.ones(ds.n), ds.x])
    grid = SupportGrid.tiled(DEFAULT_BETA_SUPPORT, design.shape[1], build_error_support(ds.y), 1)
    return [GceProblem(ds.y[i : i + 1], design[i : i + 1], grid) for i in range(3)], grid


def test_a_one_observation_fit_stops_when_no_representable_step_remains():
    # a tolerance below the residual's rounding floor: each bracket shrinks
    # until its Newton proposal is its own multiplier, and the kernel stops
    # there, not at the iteration cap, with its residual and no verdict
    tight = SolverSettings(constraint_tolerance=1e-300)
    problems, grid = collapse_problems()
    # the prior's own prediction, 0 on these symmetric supports: converged at zero
    idle = GceProblem(np.zeros(1), problems[0].x, grid)
    alone = [solve_gce(problem, tight) for problem in problems + [idle]]
    for fit in alone[:3]:
        assert 1 <= fit.diagnostics.iterations < 50
        assert 0.0 < fit.diagnostics.max_residual < 1e-12
        assert not fit.diagnostics.converged
    assert alone[3].diagnostics == solver.SolverDiagnostics(0, 0.0, True)
    stacked = assert_stack_is_stacks_of_one(*problem_stack(problems + [idle]), 1.0, 1.0, tight)
    assert stacked == [fit.diagnostics for fit in alone]


def test_a_reused_kernel_gives_a_smaller_stack_the_bits_of_a_fresh_one():
    # the buffers are sized to each stack and the weights written with each
    # solve, so nothing of a larger stack at other weights is left behind
    local = np.random.default_rng(17)
    big = stacked_problems(local, 6, 2, 5, 3, local.uniform(0.05, 0.95, 6))
    zb = big[2]
    small = stacked_problems(local, 2, 2, 5, 3, local.uniform(0.05, 0.95, 2), zb)
    log_qe_row = np.log(np.full(3, 1.0 / 3.0))

    def solved(kernel, problems, wb, we):
        y, x, _, ze, qb = problems
        lam, pt, iterations = kernel.solve(
            qb, solver._log_priors(qb), y[:, 0], x[:, 0], ze[:, 0], wb, we, SolverSettings()
        )
        names = ("grad", "pb", "pe", "beta_hat", "eps_hat", "tilt", "ln_zb")
        return [iterations, lam.tobytes()] + [getattr(pt, name).tobytes() for name in names]

    reused = solver._StackKernel(zb, log_qe_row)
    solved(reused, big, 0.3, 0.7)
    got = solved(reused, small, 0.6, 0.4)
    assert got == solved(solver._StackKernel(zb, log_qe_row), small, 0.6, 0.4)
    assert min(got[0]) >= 1


def test_a_singular_newton_system_fails_only_its_problem():
    # the middle problem's second column is zero and no column carries a
    # diagonal (1 / vb = 0), so its small system is exactly singular: a
    # stack holding it has no solve, and the other two solve, together or
    # alone, to the same bits
    local = np.random.default_rng(8)
    xt = local.uniform(-1.0, 1.0, (3, 2, 6))
    xt[1, 1] = 0.0
    vb = local.uniform(0.5, 2.0, (3, 2))
    vb[1] = np.inf
    ve, u = local.uniform(0.5, 2.0, (3, 6)), local.normal(size=(3, 6))
    assert solver._woodbury(xt, vb, ve, u) is None
    assert solver._woodbury(xt[1:2], vb[1:2], ve[1:2], u[1:2]) is None
    rest = [0, 2]
    d = solver._woodbury(xt[rest], vb[rest], ve[rest], u[rest])
    for row, i in enumerate(rest):
        one = slice(i, i + 1)
        d1 = solver._woodbury(xt[one], vb[one], ve[one], u[one])
        assert d[row].tobytes() == d1[0].tobytes()


def regressors(xt):
    """A stand-in evaluator of the transposed regressors ``xt`` (S, J, m): its ``x`` and ``xt``."""
    xt = np.ascontiguousarray(xt)
    return SimpleNamespace(x=np.ascontiguousarray(xt.transpose(0, 2, 1)), xt=xt)


@pytest.mark.parametrize("seed", range(6))
def test_a_column_without_curvature_drops_out_of_its_newton_system_exactly(seed):
    # each problem's direction and slope are, bit for bit, those of that
    # problem alone with its dead columns removed; one problem has none,
    # one has no live one, and every problem takes a Newton step
    local = np.random.default_rng(seed)
    s, j, m = 6, int(local.integers(2, 6)), int(local.integers(2, 9))
    xt = local.uniform(-2.0, 2.0, (s, j, m))
    vb = local.uniform(0.1, 3.0, (s, j))
    vb[1:] *= local.uniform(size=(s - 1, j)) < 0.5
    vb[-1] = 0.0
    ve, grad = local.uniform(0.1, 3.0, (s, m)), local.normal(size=(s, m))
    d, slope = solver._newton_direction(regressors(xt), grad, vb, ve)
    assert not (d == -grad).all(axis=1).any()
    for i in range(s):
        live = vb[i] > 0.0
        one = slice(i, i + 1)
        want, want_slope = solver._newton_direction(
            regressors(xt[one][:, live]), grad[one], vb[one][:, live], ve[one]
        )
        assert d[i].tobytes() == want[0].tobytes(), i
        assert slope[i].tobytes() == want_slope[0].tobytes(), i


def test_weighted_solve_matches_weighted_bisection():
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-1.5, 1.5]]))
    prob = GceProblem(np.array([0.7]), np.array([[2.0]]), grid)
    sol = solve_gce(prob, signal_weight=0.3, error_weight=0.7)
    lam_star = oracles.bisect_scalar_multiplier(
        0.7, [2.0], grid.beta_support, np.full((1, 2), 0.5),
        grid.error_support[0], np.full(2, 0.5), wb=0.3, we=0.7,
    )
    assert sol.diagnostics.converged
    assert sol.multipliers[0] == pytest.approx(lam_star, abs=1e-7)
    # the weighted residual is still the plain constraint residual
    resid = 0.7 - 2.0 * sol.beta_hat[0] - sol.epsilon_hat[0]
    assert abs(resid) <= 1e-8
    for name in ("signal_weight", "error_weight"):
        for weight in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be a positive finite number$"):
                solve_gce(prob, **{name: weight})


def lean_scalar_problem():
    """m=1 with unequal priors on both sides and an exact zero coefficient weight."""
    grid = SupportGrid(
        np.array([[-1.0, 0.0, 1.5], [-2.0, 0.5, 3.0]]), np.array([[-2.0, 0.0, 2.0, 3.0]])
    )
    prior = JointDistribution(
        np.array([[0.5, 0.3, 0.2], [0.0, 0.6, 0.4]]), np.array([[0.1, 0.4, 0.3, 0.2]])
    )
    return GceProblem(np.array([0.8]), np.array([[1.3, -0.4]]), grid, prior)


def loaded_kernel(problem, signal_weight, error_weight):
    """The one-observation kernel for ``problem``, loaded, and its point at zero."""
    grid, prior = problem.supports, problem.prior
    kernel = solver._StackKernel(grid.beta_support, solver._log_priors(prior.error)[0])
    start = kernel.start(
        prior.beta[None], solver._log_priors(prior.beta)[None], problem.y, problem.x,
        grid.error_support, signal_weight, error_weight,
    )
    return kernel, start


def unstacked(kernel, point):
    """A stack-of-one kernel point and ``curvature``'s rows for it, unstacked.

    Returns ``(grad, pb, pe, beta_hat, eps_hat, curv_beta, curv_eps)``.
    """
    j, k, h = kernel.shape
    (grad,), p, means = point
    curv = kernel.curvature(p, means)
    return grad, p[:j, :k], p[j, :h], means[:j, 0], means[j, 0], curv[:j, 0], curv[j, 0]


def full_point(ev, lam):
    """A stack-of-one evaluator's point at the multipliers ``lam`` (m,), unstacked.

    It carries the evaluator's curvature there as ``curv_beta`` and ``curv_eps``.
    """
    pt = ev.evaluate(np.asarray(lam, dtype=float)[None])
    curv_beta, curv_eps = ev.curvature(pt)
    return SimpleNamespace(**vars(pt.take(0)), curv_beta=curv_beta[0], curv_eps=curv_eps[0])


def assert_point_matches(kernel, point, full, **close):
    grad, pb, pe, beta_hat, eps_hat, curv_beta, curv_eps = unstacked(kernel, point)
    np.testing.assert_allclose(grad, full.grad[0], **close)
    np.testing.assert_allclose(pb, full.pb, **close)
    np.testing.assert_allclose(pe, full.pe[0], **close)
    np.testing.assert_allclose(beta_hat, full.beta_hat, **close)
    np.testing.assert_allclose(eps_hat, full.eps_hat[0], **close)
    np.testing.assert_allclose(curv_beta, full.curv_beta, **close)
    np.testing.assert_allclose(curv_eps, full.curv_eps[0], **close)


@pytest.mark.parametrize("lam", [-40.0, -3.0, -0.5, 0.0, 0.2, 1.7, 25.0])
def test_scalar_routine_matches_the_full_evaluation(lam):
    problem = lean_scalar_problem()
    kernel, _ = loaded_kernel(problem, 0.3, 0.7)
    full = full_point(solver._evaluator(problem, 0.3, 0.7), [lam])
    point = kernel.at(np.array([lam]))
    assert_point_matches(kernel, point, full, rtol=0.0, atol=1e-14)
    assert unstacked(kernel, point)[1][1, 0] == 0.0


@pytest.mark.parametrize("k, h", [(9, 3), (5, 11), (12, 8)])
def test_scalar_routine_on_wide_grids_matches_the_full_evaluation(k, h):
    # rows of 8 or more points are summed pairwise, so padding one row to the
    # other's length may move the last ulps; nothing more
    local = np.random.default_rng(k * h)
    grid = SupportGrid(
        np.tile(np.linspace(-5.0, 5.0, k), (3, 1)), np.linspace(-4.0, 4.0, h)[None, :]
    )
    prior = JointDistribution(
        local.dirichlet(np.ones(k), size=3), local.dirichlet(np.ones(h))[None, :]
    )
    problem = GceProblem(np.array([1.1]), np.array([[1.0, 0.7, -0.3]]), grid, prior)
    kernel, _ = loaded_kernel(problem, 0.4, 0.6)
    ev = solver._evaluator(problem, 0.4, 0.6)
    for lam in (-2.0, 0.0, 0.3, 5.0):
        full = full_point(ev, [lam])
        assert_point_matches(kernel, kernel.at(np.array([lam])), full, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("k, h", [(3, 4), (9, 3), (5, 11)])
def test_scalar_kernel_starts_at_the_prior_moments(k, h):
    # the point at zero comes from the prior weights without an exponential;
    # it is evaluate(0) up to rounding, and sub-clamp weights count as zero
    local = np.random.default_rng(k + 10 * h)
    qb = local.dirichlet(np.ones(k), size=3)
    qb[1, 0] = 0.0
    qb[2, -1] = 1e-320  # below ZERO_CLAMP
    qb /= qb.sum(axis=1)[:, None]
    grid = SupportGrid(
        np.tile(np.linspace(-5.0, 5.0, k), (3, 1)), np.linspace(-4.0, 4.0, h)[None, :]
    )
    prior = JointDistribution(qb, local.dirichlet(np.ones(h))[None, :])
    problem = GceProblem(np.array([0.4]), np.array([[1.0, -0.7, 2.3]]), grid, prior)
    kernel, start = loaded_kernel(problem, 0.35, 0.65)
    full = full_point(solver._evaluator(problem, 0.35, 0.65), [0.0])
    assert_point_matches(kernel, start, full, rtol=1e-15, atol=1e-15)
    pb = unstacked(kernel, start)[1]
    assert pb[1, 0] == 0.0 and pb[2, -1] == 0.0


def test_one_observation_fit_is_the_full_evaluation_at_its_multiplier():
    problem = lean_scalar_problem()
    sol = solve_gce(problem, signal_weight=0.3, error_weight=0.7)
    full = full_point(solver._evaluator(problem, 0.3, 0.7), sol.multipliers)
    exact = dict(rtol=0.0, atol=1e-14)
    assert sol.diagnostics.converged and sol.diagnostics.iterations >= 1
    assert sol.diagnostics.max_residual == pytest.approx(abs(full.grad[0]), abs=1e-14)
    np.testing.assert_allclose(sol.beta_hat, full.beta_hat, **exact)
    np.testing.assert_allclose(sol.epsilon_hat, full.eps_hat, **exact)
    np.testing.assert_allclose(sol.distributions.beta, full.pb, **exact)
    np.testing.assert_allclose(sol.distributions.error, full.pe, **exact)


def test_one_observation_verdict_reads_the_lone_residual():
    # the m = 1 residual is |grad[0]|, and the verdict compares it with the
    # tolerance as the multi-constraint path does, boundary included
    problem = lean_scalar_problem()
    grid, prior = problem.supports, problem.prior
    args = (
        problem.y[None], problem.x[None], grid.beta_support, grid.error_support[None],
        prior.beta[None], solver._log_priors(prior.beta)[None], prior.error, 0.3, 0.7,
    )
    verdicts = []
    for settings in (SolverSettings(), SolverSettings(max_iterations=1)):
        solved = solver._solve_dual(*args, settings)
        (diagnostics,) = diagnosed(solved)
        assert solved.point.grad.shape == (1, 1)
        assert diagnostics.max_residual == abs(solved.point.grad[0, 0])
        assert diagnostics.converged == (
            diagnostics.max_residual <= settings.constraint_tolerance
        )
        verdicts.append((diagnostics.iterations, diagnostics.converged))
    assert verdicts[0][0] > 1 and verdicts[0][1]
    assert verdicts[1] == (1, False)
    # a tolerance exactly at the capped solve's residual accepts it
    residual = diagnosed(solver._solve_dual(*args, SolverSettings(max_iterations=1)))[0]
    residual = residual.max_residual
    tight = SolverSettings(constraint_tolerance=residual, max_iterations=1)
    assert diagnosed(solver._solve_dual(*args, tight)) == [
        solver.SolverDiagnostics(1, residual, True)
    ]


@pytest.mark.parametrize("x, row", [(4.0, "coefficient row 0"), (0.0, "error row 0")])
def test_scalar_routine_rejects_what_the_full_evaluation_rejects(x, row):
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-1.0, 1.0]]))
    problem = GceProblem(np.array([0.3]), np.array([[x]]), grid)
    ev = solver._evaluator(problem, 0.5, 0.5)
    kernel, _ = loaded_kernel(problem, 0.5, 0.5)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=f"non-finite partition sum in {row}"):
            ev.evaluate(np.array([[1e308]]))
        with pytest.raises(ValueError, match=f"non-finite partition sum in {row}"):
            kernel.at(np.array([1e308]))


# ---------------------------------------------------------------------------
# the multi-constraint evaluator against the row-major oracle
# ---------------------------------------------------------------------------

POINT_FIELDS = ("grad", "pb", "pe", "beta_hat", "eps_hat", "curv_beta", "curv_eps")


def one_problem_evaluator(y, x, zb, ze, log_qb, log_qe, wb, we):
    """The evaluator of a stack of one problem, from that problem's arrays."""
    return solver._DualEvaluator(
        y[None], x[None], zb, ze[None], np.exp(log_qb)[None], log_qb[None], log_qe, wb, we
    )


def evaluator_inputs(h, shared, seed, m=40):
    """Random evaluator inputs with H = ``h``, one error point without prior weight.

    ``shared`` gives one ``(1, H)`` error prior for every observation,
    otherwise each row has its own.
    """
    local = np.random.default_rng(seed)
    j, k = 3, 5
    x = local.uniform(-2.0, 2.0, size=(m, j))
    zb = np.sort(local.uniform(-5.0, 5.0, size=(j, k)), axis=1)
    ze = np.sort(local.normal(scale=3.0, size=(m, h)), axis=1)
    qb = local.dirichlet(np.ones(k), size=j)
    qe = local.dirichlet(np.ones(h), size=1 if shared else m)
    qe[0, 1] = 0.0  # its log prior is -inf
    qe /= qe.sum(axis=1, keepdims=True)
    y = local.normal(size=m)
    return y, x, zb, ze, solver._log_priors(qb), solver._log_priors(qe)


@pytest.mark.parametrize("shared", [False, True], ids=["row-priors", "shared-prior"])
@pytest.mark.parametrize("h", [2, 3, 5, 7, 8, 9, 11])
def test_evaluator_matches_the_row_major_oracle(h, shared):
    # rows of fewer than 8 points are summed in sequence along either axis,
    # so the long-axis reductions give the row-major bits; wider rows are
    # summed pairwise and may move the last ulps
    inputs = evaluator_inputs(h, shared, seed=10 * h + shared)
    m = inputs[0].size
    lams = (np.zeros(m), np.random.default_rng(h).normal(scale=2.0, size=m))
    for wb, we in ((1.0, 1.0), (0.3, 0.7)):
        ev = one_problem_evaluator(*inputs, wb, we)
        for lam in lams:
            got = full_point(ev, lam)
            want = oracles.row_major_dual_point(lam, *inputs, wb, we)
            assert got.pe.shape == (m, h)
            assert got.pe[0, 1] == want.pe[0, 1] == 0.0
            if h < 8:
                assert got.value == want.value
                for name in POINT_FIELDS:
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
            else:
                assert got.value == pytest.approx(want.value, rel=1e-14)
                for name in POINT_FIELDS:
                    a, b = getattr(got, name), getattr(want, name)
                    scale = max(1.0, float(np.abs(b).max()))
                    assert np.abs(a - b).max() <= 1e-14 * scale, name


@pytest.mark.parametrize("shared", [False, True], ids=["row-priors", "shared-prior"])
def test_evaluator_names_the_first_non_finite_error_row(shared):
    y, x, zb, ze, log_qb, log_qe = evaluator_inputs(3, shared, seed=5)
    ze[[6, 21]] = [-1e308, 0.0, 1e308]
    lam = np.zeros(y.size)
    lam[[6, 21]] = 10.0  # the tilt of the lowest point overflows to +inf
    ev = one_problem_evaluator(y, x, zb, ze, log_qb, log_qe, 1.0, 1.0)
    with np.errstate(all="ignore"):
        for evaluate in (
            lambda lam: ev.evaluate(lam[None]),
            lambda lam: oracles.row_major_dual_point(lam, y, x, zb, ze, log_qb, log_qe),
        ):
            with pytest.raises(ValueError, match="^non-finite partition sum in error row 6$"):
                evaluate(lam)


# ---------------------------------------------------------------------------
# errors and edge handling
# ---------------------------------------------------------------------------


def test_infeasible_observation_is_named():
    with pytest.raises(InfeasibleObservationError, match=r"observation\(s\) 0"):
        two_point_problem(y=2.5)
    try:
        two_point_problem(y=2.5)
    except InfeasibleObservationError as exc:
        assert exc.indices == (0,)
        assert exc.boundary is False


def test_boundary_observation_raises_distinct_error():
    with pytest.raises(InfeasibleObservationError, match="boundary"):
        two_point_problem(y=2.0)
    try:
        two_point_problem(y=2.0)
    except InfeasibleObservationError as exc:
        assert exc.boundary is True


def test_zero_prior_weight_shrinks_the_attainable_hull():
    # support point z=1 carries zero prior weight, so the hull tops out below
    # the value it would otherwise reach
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-0.5, 0.5]]))
    prior = JointDistribution(
        np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])
    )
    # with full prior support the hull would reach 1.5; the dead point z=1
    # caps it at 0.5, so y=0.8 must be rejected
    with pytest.raises(InfeasibleObservationError):
        GceProblem(np.array([0.8]), np.array([[1.0]]), grid, prior)


def test_zero_prior_support_points_keep_zero_weight():
    # log q = -inf at a dead support point: both solver paths still converge
    # and the dead points keep exactly zero weight
    qb = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    x = np.array([[1.0, 0.5], [0.2, 1.0], [1.0, 1.0]])
    y = np.array([0.3, -0.2, 0.1])
    for m in (1, 3):
        grid = SupportGrid.tiled([-1.0, 0.0, 1.0], 2, [-2.0, 0.0, 2.0], m)
        prior = JointDistribution(qb, np.full((m, 3), 1 / 3))
        sol = solve_gce(GceProblem(y[:m], x[:m], grid, prior))
        assert sol.diagnostics.converged
        assert sol.distributions.beta[0, 2] == 0.0 and sol.distributions.beta[1, 0] == 0.0
        assert np.isfinite(sol.objective_value)


def test_non_finite_partition_sum_is_rejected():
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-1.0, 1.0]]))
    prob = GceProblem(np.array([0.3]), np.array([[4.0]]), grid)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite partition sum"):
        gibbs_weights(np.array([1e308]), prob)


def test_a_regressor_whose_square_overflows_is_refused():
    # x**2 overflowed inside the solve, which then ran to its iteration cap
    # although the observation lies inside the hull
    grid = SupportGrid([[0.0, 1.0]], [[-1.0, 1.0]])
    refused = r"^x\[0, 0\] = 1e\+160 is too large for the solver to square; rescale"
    with pytest.raises(ValueError, match=refused):
        GceProblem([3e159], [[1e160]], grid)
    state = StreamState.uniform_start(grid)
    with pytest.raises(ValueError, match=refused):
        block_update(state, [3e159], [[1e160]], [-1.0, 1.0])
    with pytest.raises(ValueError, match=r"^x\[1, 0\] = -1e\+160 is too large"):
        block_update(state, [0.5, 3e159], [[1.0], [-1e160]], [-1.0, 1.0])
    for x in ([[1e160]], [[-math.inf]]):  # a non-finite entry is reported as one
        with pytest.raises(ValueError, match="^y and x must be finite$"):
            GceProblem([math.nan], x, grid)
    with pytest.raises(ValueError, match="^y and x must be finite$"):
        GceProblem([0.5], [[math.nan]], grid)
    edge = 2.0**510  # the largest magnitude accepted
    assert GceProblem([0.5 * edge], [[edge]], grid).x[0, 0] == edge


def test_a_regressor_too_large_for_its_coefficient_row_is_refused():
    # x at the 2**510 limit on a row of span 1024: x**2 * var overflowed in the
    # one-observation kernel, which ran 500 iterations to residual 1e156
    grid = SupportGrid([[0.0, 1024.0]], [[-1.0, 1.0]])
    refused = r"^x\[0, 0\] = .* is too large for coefficient row 0 of span 1024\.0; rescale"
    with pytest.raises(ValueError, match=refused):
        GceProblem([300 * 2.0**510], [[2.0**510]], grid)
    with pytest.raises(ValueError, match=refused):
        block_update(StreamState.uniform_start(grid), [300 * 2.0**510], [[2.0**510]], [-1.0, 1.0])
    # a stream's bound follows its gamma: var / gamma stays finite down to 2**-53
    unit = SupportGrid([[0.0, 1.0]], [[-1.0, 1.0]])
    y, x = [0.5 * 2.0**500], [[2.0**500]]
    assert solve_gce(GceProblem(y, x, unit)).diagnostics.max_residual < 2.0**500
    state = StreamState.uniform_start(unit)
    block_update(state, y, x, [-1.0, 1.0], UpdateSettings(gamma=0.5))
    with pytest.raises(ValueError, match=r"^x\[0, 0\] = .* of span 1\.0; rescale"):
        block_update(state, y, x, [-1.0, 1.0], UpdateSettings(gamma=2.0**-53))
    # solve_gce checks again at a signal weight below 1
    accepted = GceProblem([300 * 2.0**500], [[2.0**500]], grid)
    assert solve_gce(accepted).diagnostics.max_residual < 2.0**500
    with pytest.raises(ValueError, match=r"^x\[0, 0\] = .* of span 1024\.0; rescale"):
        solve_gce(accepted, signal_weight=1e-30)


def one_row_problems(h, m):
    """One problem on a tiled grid and uniform prior, and the same on per-row copies."""
    local = np.random.default_rng(1000 * h + m)
    x = np.column_stack([np.ones(m), local.uniform(0.0, 20.0, size=(m, 3))])
    y = x @ np.array([1.0, -2.0, 3.0, 0.5]) + local.normal(0.0, 1.0, size=m)
    beta_row, error_row = DEFAULT_BETA_SUPPORT, np.linspace(-3.0, 3.0, h) * np.std(y)
    tiled = GceProblem(y, x, SupportGrid.tiled(beta_row, 4, error_row, m))
    k = len(beta_row)
    rows = SupportGrid(np.tile(beta_row, (4, 1)), np.tile(error_row, (m, 1)))
    prior = JointDistribution(np.full((4, k), 1.0 / k), np.full((m, h), 1.0 / h))
    return tiled, GceProblem(y, x, rows, prior), local


@pytest.mark.parametrize("m", [2, 40, 240])
@pytest.mark.parametrize("h", [3, 9, 12])
def test_a_tiled_grid_solves_to_the_bits_of_its_per_row_copy(monkeypatch, h, m):
    # the tiled grid hands the solver its one error row, the copy one per
    # observation; every output is the same to the bit
    tiled, per_row, local = one_row_problems(h, m)
    shapes = []
    solve_dual = solver._solve_dual

    def recorded(y, x, zb, ze, qb, log_qb, qe, *args):
        shapes.append((ze.shape, qe.shape))
        return solve_dual(y, x, zb, ze, qb, log_qb, qe, *args)

    monkeypatch.setattr(solver, "_solve_dual", recorded)
    got, want = solve_gce(tiled), solve_gce(per_row)
    assert shapes == [((1, 1, h), (1, h)), ((1, m, h), (m, h))]
    for name in ("multipliers", "beta_hat", "epsilon_hat"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("beta", "error"):
        a, b = getattr(got.distributions, name), getattr(want.distributions, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes() and not a.flags.writeable
    assert got.objective_value.hex() == want.objective_value.hex()
    assert got.diagnostics == want.diagnostics
    for lam in (np.zeros(m), got.multipliers, local.normal(0.0, 0.1, size=m)):
        (value, grad), (value_rows, grad_rows) = (dual_objective(lam, p) for p in (tiled, per_row))
        assert value.hex() == value_rows.hex() and grad.tobytes() == grad_rows.tobytes()
        a, b = gibbs_weights(lam, tiled), gibbs_weights(lam, per_row)
        assert a.beta.tobytes() == b.beta.tobytes() and a.error.tobytes() == b.error.tobytes()


# ---------------------------------------------------------------------------
# both ends of a solve read off its dual points
# ---------------------------------------------------------------------------

def fit_problems(m):
    """``one_row_problems(3, m)``'s tiled and per-row problems; for m = 1, the first
    observation of the m = 2 pair, whose error row needs two observations' spread."""
    tiled, per_row, _ = one_row_problems(3, max(m, 2))
    if m > 1:
        return tiled, per_row
    return tuple(
        GceProblem(
            p.y[:1], p.x[:1], SupportGrid(p.supports.beta_support, p.supports.error_support[:1]),
            JointDistribution(p.prior.beta, p.prior.error[:1]),
        )
        for p in (tiled, per_row)
    )


def masked_objective(solution, problem, signal_weight, error_weight):
    """The weighted KL of a fit's own distributions from its prior, by ``kl_divergence``."""
    d, q = solution.distributions, problem.prior
    return signal_weight * kl_divergence(d.beta, q.beta).sum() + (
        error_weight * kl_divergence(d.error, q.error).sum()
    )


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.3, 0.7), (2.0, 0.5)])
@pytest.mark.parametrize("m", [1, 2, 240, 3840])
def test_the_objective_read_off_the_final_point_is_the_kl_of_the_fit(m, weights):
    # worst 5.9e-13 relative here. Both forms round at about 1e-15 absolute,
    # so on objectives near 1e-4 they may part by more: 1.7e-12 on the first
    # collapse_problems fit, where the 50-digit check below finds the pass
    # over the weights the one that is off
    for problem in fit_problems(m):
        sol = solve_gce(problem, signal_weight=weights[0], error_weight=weights[1])
        assert sol.diagnostics.converged and sol.diagnostics.iterations >= 1
        want = masked_objective(sol, problem, *weights)
        assert abs(sol.objective_value - want) <= 1e-12 * want


@pytest.mark.parametrize("m", [1, 3])
def test_a_fit_that_takes_no_step_has_objective_exactly_zero(m):
    # y is the prior's own prediction, so the start is the optimum
    grid = SupportGrid.tiled([-1.0, 1.0], 2, [-1.0, 0.0, 1.0], m)
    x = np.random.default_rng(m).uniform(-1.0, 1.0, size=(m, 2))
    for wb, we in ((1.0, 1.0), (0.3, 0.7)):
        sol = solve_gce(GceProblem(np.zeros(m), x, grid), signal_weight=wb, error_weight=we)
        assert sol.diagnostics.iterations == 0 and sol.diagnostics.max_residual == 0.0
        assert sol.objective_value.hex() == (0.0).hex()


@pytest.mark.parametrize(
    "fit, weights",
    [
        (lambda: collapse_problems()[0][0], (2.0, 0.5)),
        (lambda: fit_problems(2)[1], (0.3, 0.7)),
        (lambda: fit_problems(40)[0], (1.0, 1.0)),
    ],
    ids=["collapse-m1", "per-row-m2", "tiled-m40"],
)
def test_the_objective_matches_a_50_digit_kl_at_the_solvers_multipliers(fit, weights):
    # worst relative error over these three fits: the Gibbs form 3.7e-13,
    # a kl_divergence pass over the fit's weights 1.3e-12 (both at m = 1)
    problem = fit()
    sol = solve_gce(problem, signal_weight=weights[0], error_weight=weights[1])
    exact = oracles.decimal_kl(sol.multipliers, problem, *weights)
    assert abs(sol.objective_value - exact) <= 1e-12 * exact
    assert abs(masked_objective(sol, problem, *weights) - exact) <= 2e-12 * exact


def test_a_multi_observation_solve_evaluates_once_per_trial_and_never_at_zero(monkeypatch):
    evaluate, calls = solver._DualEvaluator.evaluate, []

    def recorded(self, lam):
        calls.append(lam.copy())
        return evaluate(self, lam)

    monkeypatch.setattr(solver._DualEvaluator, "evaluate", recorded)
    for problem in one_row_problems(3, 240)[:2]:
        calls.clear()
        sol = solve_gce(problem)
        # every Newton step of this fit is accepted whole: one trial per
        # iteration, and none at zero
        assert sol.diagnostics.converged and len(calls) == sol.diagnostics.iterations >= 2
        assert all((lam != 0.0).any(axis=1).all() for lam in calls)


@pytest.mark.parametrize("h", [3, 9, 12])
def test_the_start_is_the_point_at_zero_on_uniform_priors(h):
    # from 8 error points a shared row is reduced across all m columns, as
    # evaluate reduces it, since numpy would sum one column pairwise
    m = 40
    for problem in one_row_problems(h, m)[:2]:
        for weights in ((1.0, 1.0), (0.3, 0.7)):
            ev = solver._evaluator(problem, *weights)
            got, want = ev.start(), ev.evaluate(np.zeros((1, m)))
            for name in solver._DualPoint.__dataclass_fields__:
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_the_start_on_a_carried_stream_prior_is_the_point_at_zero_to_an_ulp():
    # a carried prior's weights are the last solve's Gibbs rows and its logs
    # carry the stream's tilt: evaluate(0) renormalizes them, start does not.
    # Each weight stays within 1 ulp; the means and residuals, which cancel,
    # within 1 ulp of the magnitudes they are formed at (the supports', y's)
    data = generate_dataset(SimulationConfig(n=200, seed=181))
    y, x = data.y, np.column_stack([np.ones(data.n), data.x])
    row = build_error_support(y[:60])
    grid = SupportGrid.tiled(DEFAULT_BETA_SUPPORT, x.shape[1], row, 60)
    state, _ = init_stream(GceProblem(y[:60], x[:60], grid))
    log_qe = solver._log_priors(np.full((1, row.size), 1.0 / row.size))
    scales = {"grad": np.abs(y).max(), "beta_hat": 100.0, "eps_hat": np.abs(row).max()}
    worst = dict.fromkeys(("pb", "pe", *scales), 0.0)
    for a in range(60, 200, 2):
        rows = np.tile(row, (2, 1))
        ev = solver._DualEvaluator(
            y[None, a : a + 2], x[None, a : a + 2], state.supports.beta_support, rows[None],
            state.beta_prior[None], state.log_prior[None], log_qe, 0.5, 0.5,
        )
        got, want = ev.start(), ev.evaluate(np.zeros((1, 2)))
        for name in worst:
            a_, b_ = getattr(got, name), getattr(want, name)
            scale = scales.get(name, np.maximum(np.abs(a_), np.abs(b_)))
            worst[name] = max(worst[name], float((np.abs(a_ - b_) / np.spacing(scale)).max()))
        state = block_update(state, y[a : a + 2], x[a : a + 2], rows)
    assert max(worst.values()) <= 1.0 and worst["pb"] > 0.0, worst


def test_iteration_cap_returns_unconverged_solution():
    prob = protocol_like_problem(n=30, seed=77)
    sol = solve_gce(prob, SolverSettings(max_iterations=1))
    assert sol.diagnostics.converged is False
    assert sol.diagnostics.max_residual > 1e-8
    assert np.all(np.isfinite(sol.beta_hat))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"constraint_tolerance": 0.0},
        {"constraint_tolerance": -1e-8},
        {"max_iterations": 0},
        {"max_iterations": 2.5},
        {"max_iterations": True},
        {"constraint_tolerance": True},
    ],
)
def test_solver_settings_validation(kwargs):
    with pytest.raises(ValueError):
        SolverSettings(**kwargs)
    config = {"scenarios": [{"name": "a", "n": 16}], "replications": 1, "seed_base": 0}
    with pytest.raises(ConfigError, match=r"^config\.solver: "):
        parse_experiment_config({**config, "solver": kwargs})


def test_problem_dimension_mismatches_are_rejected():
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-1.0, 1.0]]))
    with pytest.raises(ValueError):
        GceProblem(np.array([0.1, 0.2]), np.array([[1.0]]), grid)
    with pytest.raises(ValueError):
        GceProblem(np.array([0.1]), np.array([[1.0, 2.0]]), grid)
    bad_prior = JointDistribution(np.full((1, 3), 1 / 3), np.full((1, 2), 0.5))
    with pytest.raises(ValueError):
        GceProblem(np.array([0.1]), np.array([[1.0]]), grid, bad_prior)


def test_perfectly_collinear_design_still_converges():
    # identical regressor columns keep the dual solvable because the error
    # curvature regularizes the Newton system
    local = np.random.default_rng(99)
    n = 24
    c = local.uniform(0.0, 20.0, size=n)
    x = np.column_stack([np.ones(n), c, c, c])
    y = 1.0 + 2.0 * c + local.normal(0.0, 1.0, size=n)
    sd = float(np.std(y, ddof=1))
    grid = SupportGrid.tiled(
        [-100.0, -50.0, 0.0, 50.0, 100.0], 4, [-3.0 * sd, 0.0, 3.0 * sd], n
    )
    sol = solve_gce(GceProblem(y, x, grid))
    assert sol.diagnostics.converged
    assert np.max(np.abs(y - x @ sol.beta_hat - sol.epsilon_hat)) <= 1e-8


def test_the_collinear_study_fit_converges():
    # eta = 1, rep 7 of demos/multicollinearity_sweep.py: near the optimum
    # the decrease Armijo asks for is below one ulp of the dual value, so the
    # fit converges only through the approximate Wolfe test on its slope
    ds = generate_dataset(SimulationConfig(n=240, eta=1.0, seed=1007))
    design = np.column_stack([np.ones(ds.n), ds.x])
    grid = SupportGrid.tiled(
        DEFAULT_BETA_SUPPORT, design.shape[1], build_error_support(ds.y), ds.n
    )
    sol = solve_gce(GceProblem(ds.y, design, grid), SolverSettings(max_iterations=20))
    assert sol.diagnostics.converged
