import math

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
    SupportGrid,
    build_error_support,
    dual_objective,
    expectation,
    generate_dataset,
    gibbs_weights,
    parse_experiment_config,
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
    kernel = solver._ScalarKernel(
        grid.beta_support, solver._log_priors(prior.error)[0], signal_weight, error_weight
    )
    start = kernel.start(
        prior.beta, solver._log_priors(prior.beta), problem.y[0], problem.x[0],
        grid.error_support[0],
    )
    return kernel, start


def unstacked(kernel, point):
    """A kernel point as ``(grad, pb, pe, beta_hat, eps_hat, curv_beta, curv_eps)``."""
    j, k, h = kernel.shape
    grad, p, means, curv = point
    return grad, p[:j, :k], p[j, :h], means[:j], means[j], curv[:j], curv[j]


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
    full = solver._evaluator(problem, 0.3, 0.7).evaluate(np.array([lam]))
    point = kernel.at(lam)
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
        full = ev.evaluate(np.array([lam]))
        assert_point_matches(kernel, kernel.at(lam), full, rtol=1e-12, atol=1e-14)


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
    full = solver._evaluator(problem, 0.35, 0.65).evaluate(np.zeros(1))
    assert_point_matches(kernel, start, full, rtol=1e-15, atol=1e-15)
    pb = unstacked(kernel, start)[1]
    assert pb[1, 0] == 0.0 and pb[2, -1] == 0.0


def test_one_observation_fit_is_the_full_evaluation_at_its_multiplier():
    problem = lean_scalar_problem()
    sol = solve_gce(problem, signal_weight=0.3, error_weight=0.7)
    full = solver._evaluator(problem, 0.3, 0.7).evaluate(sol.multipliers)
    exact = dict(rtol=0.0, atol=1e-14)
    assert sol.diagnostics.converged and sol.diagnostics.iterations >= 1
    assert sol.diagnostics.max_residual == pytest.approx(abs(full.grad[0]), abs=1e-14)
    np.testing.assert_allclose(sol.beta_hat, full.beta_hat, **exact)
    np.testing.assert_allclose(sol.epsilon_hat, full.eps_hat, **exact)
    np.testing.assert_allclose(sol.distributions.beta, full.pb, **exact)
    np.testing.assert_allclose(sol.distributions.error, full.pe, **exact)


@pytest.mark.parametrize("x, row", [(4.0, "coefficient row 0"), (0.0, "error row 0")])
def test_scalar_routine_rejects_what_the_full_evaluation_rejects(x, row):
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-1.0, 1.0]]))
    problem = GceProblem(np.array([0.3]), np.array([[x]]), grid)
    ev = solver._evaluator(problem, 0.5, 0.5)
    kernel, _ = loaded_kernel(problem, 0.5, 0.5)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=f"non-finite partition sum in {row}"):
            ev.evaluate(np.array([1e308]))
        with pytest.raises(ValueError, match=f"non-finite partition sum in {row}"):
            kernel.at(1e308)


# ---------------------------------------------------------------------------
# the multi-constraint evaluator against the row-major oracle
# ---------------------------------------------------------------------------

POINT_FIELDS = ("grad", "pb", "pe", "beta_hat", "eps_hat", "curv_beta", "curv_eps")


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
        ev = solver._DualEvaluator(*inputs, wb, we)
        for lam in lams:
            got = ev.evaluate(lam)
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
    ev = solver._DualEvaluator(y, x, zb, ze, log_qb, log_qe, 1.0, 1.0)
    with np.errstate(all="ignore"):
        for evaluate in (
            ev.evaluate,
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


@pytest.mark.xfail(
    reason="ROADMAP item 4: the Armijo search stalls at residual 3.5e-7 on this fit, "
    "every step backtracking while the dual value stays flat",
)
def test_the_collinear_study_fit_converges():
    # eta = 1, rep 7 of demos/multicollinearity_sweep.py: at the 500-step cap
    # the fit spins for about 2.4 s; 20 steps show the same stall
    ds = generate_dataset(SimulationConfig(n=240, eta=1.0, seed=1007))
    design = np.column_stack([np.ones(ds.n), ds.x])
    grid = SupportGrid.tiled(
        DEFAULT_BETA_SUPPORT, design.shape[1], build_error_support(ds.y), ds.n
    )
    sol = solve_gce(GceProblem(ds.y, design, grid), SolverSettings(max_iterations=20))
    assert sol.diagnostics.converged
