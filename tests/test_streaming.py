import dataclasses
import gc
import logging
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gcestream import core as core_module
from gcestream import solver
from gcestream import streaming as streaming_module
from gcestream.simulation import _scaled_error_support
from gcestream import (
    DEFAULT_BETA_SUPPORT,
    GceProblem,
    InfeasibleObservationError,
    JointDistribution,
    SimulationConfig,
    StreamState,
    SupportGrid,
    UpdateSettings,
    block_update,
    generate_dataset,
    init_stream,
    kl_divergence,
    rmse,
    run_stream,
    solve_gce,
    update_step,
)

rng = np.random.default_rng(60646)

BETA_ROW = [-10.0, -5.0, 0.0, 5.0, 10.0]


def simulated(n, seed, n_regressors=2, noise=1.0):
    local = np.random.default_rng(seed)
    x = local.uniform(0.0, 20.0, size=(n, n_regressors))
    slopes = np.array([1.5, -0.5, 2.0][:n_regressors])
    y = 1.0 + x @ slopes + local.normal(0.0, noise, size=n)
    design = np.column_stack([np.ones(n), x])
    return y, design


def batch_problem(y, design, error_row=None):
    if error_row is None:
        sd = float(np.std(y, ddof=1))
        error_row = [-3.0 * sd, 0.0, 3.0 * sd]
    grid = SupportGrid.tiled(BETA_ROW, design.shape[1], error_row, len(y))
    return GceProblem(y, design, grid), np.asarray(error_row, dtype=float)


# ---------------------------------------------------------------------------
# init_stream
# ---------------------------------------------------------------------------


def test_init_stream_single_observation_batch():
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-1.0, 1.0]]))
    batch = GceProblem(np.array([0.4]), np.array([[1.0]]), grid)
    state, solution = init_stream(batch)
    direct = solve_gce(batch)
    np.testing.assert_allclose(
        state.beta_prior,
        direct.distributions.beta,
        atol=1e-12,
    )
    assert state.step_index == 1
    assert state.epsilon_log == tuple(solution.epsilon_hat)
    assert state.entropy_ledger == ()


def test_init_stream_consistent_batch_keeps_uniform_weights():
    # symmetric supports and y = 0 mean the uniform weights already satisfy
    # every constraint
    design = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
    grid = SupportGrid.tiled([-1.0, 1.0], 2, [-2.0, 2.0], 3)
    batch = GceProblem(np.zeros(3), design, grid)
    state, solution = init_stream(batch)
    np.testing.assert_allclose(
        state.beta_prior, 0.5, atol=1e-10
    )
    assert solution.objective_value <= 1e-12
    assert state.entropy_ledger == ()


def test_init_stream_rejects_non_uniform_prior():
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-1.0, 1.0]]))
    prior = JointDistribution(np.array([[0.7, 0.3]]), np.array([[0.5, 0.5]]))
    batch = GceProblem(np.array([0.4]), np.array([[1.0]]), grid, prior)
    with pytest.raises(ValueError, match="uniform batch prior"):
        init_stream(batch)


# ---------------------------------------------------------------------------
# update_step
# ---------------------------------------------------------------------------


UNDERFLOW_BETA_ROW = [-1.0, 0.0, 1.0]
UNDERFLOW_ERROR_ROW = [-1e-3, 0.0, 1e-3]


def underflowing_stream():
    """40 observations for a batch of 20 on ``UNDERFLOW_BETA_ROW`` and ``UNDERFLOW_ERROR_ROW``.

    Observation 25, just under the top of the hull, drives both coefficients
    onto their largest support point; the other points underflow to zero, so
    observation 30, inside the full hull, falls outside the live one, while
    observation 31 stays inside it and is absorbed.
    """
    local = np.random.default_rng(3)
    design = np.column_stack([np.ones(40), local.uniform(0.0, 1.0, 40)])
    y = local.uniform(-0.5, 0.5, 40)
    design[25:30, 1] = 1.0
    y[25], y[26:30] = 2.0008, 2.0
    y[31] = 1.0 + design[31, 1] + 2e-4
    return y, design


def stream_after_batch(n=20, batch=8, seed=11):
    y, design = simulated(n, seed)
    problem, error_row = batch_problem(y[:batch], design[:batch])
    state, _ = init_stream(problem)
    return state, y, design, error_row


def test_consistent_observation_moves_nothing():
    state, y, design, error_row = stream_after_batch()
    x_new = design[10]
    y_new = float(x_new @ state.beta_hat)  # symmetric error row, zero mean
    updated = update_step(state, y_new, x_new, error_row)
    assert updated.entropy_ledger[-1] <= 1e-12
    np.testing.assert_allclose(updated.beta_hat, state.beta_hat, atol=1e-9)
    assert updated.epsilon_log[-1] == pytest.approx(0.0, abs=1e-9)


def test_first_update_from_uniform_equals_single_solve():
    grid = SupportGrid.tiled(BETA_ROW, 2, [-4.0, 0.0, 4.0], 1)
    state = StreamState.uniform_start(grid)
    x_new = np.array([1.0, 2.0])
    updated = update_step(state, 3.0, x_new, [-4.0, 0.0, 4.0])
    direct = solve_gce(GceProblem(np.array([3.0]), x_new.reshape(1, -1), grid))
    np.testing.assert_allclose(updated.beta_hat, direct.beta_hat, atol=1e-8)


def test_single_update_matches_scalar_bisection_oracle():
    grid = SupportGrid(np.array([[0.0, 1.0]]), np.array([[-1.0, 1.0]]))
    batch = GceProblem(np.array([0.4]), np.array([[1.0]]), grid)
    state, _ = init_stream(batch)
    settings = UpdateSettings(gamma=0.5)
    updated = update_step(state, 0.7, [1.0], [-1.0, 1.0], settings)

    qb = state.beta_prior
    lam = oracles.bisect_scalar_multiplier(
        0.7, [1.0], grid.beta_support, qb, np.array([-1.0, 1.0]), np.full(2, 0.5),
        wb=0.5, we=0.5,
    )
    tilt = qb[0] * np.exp(-grid.beta_support[0] * 1.0 * lam / 0.5)
    beta_oracle = float((tilt / tilt.sum()) @ grid.beta_support[0])
    assert updated.beta_hat[0] == pytest.approx(beta_oracle, abs=1e-8)


def test_gamma_half_matches_unweighted_objective():
    state, y, design, error_row = stream_after_batch(seed=21)
    x_new, y_new = design[9], y[9]
    updated = update_step(state, y_new, x_new, error_row, UpdateSettings(gamma=0.5))

    grid = SupportGrid(state.supports.beta_support, error_row.reshape(1, -1))
    prior = JointDistribution(state.beta_prior, np.full((1, error_row.size), 1 / error_row.size))
    plain = solve_gce(GceProblem(np.array([y_new]), x_new.reshape(1, -1), grid, prior))
    np.testing.assert_allclose(updated.beta_hat, plain.beta_hat, atol=1e-8)


def test_infeasible_update_raises_and_leaves_state_usable():
    state, y, design, error_row = stream_after_batch()
    with pytest.raises(InfeasibleObservationError):
        update_step(state, 1e7, design[12], error_row)
    # the original value still works afterwards
    after = update_step(state, y[12], design[12], error_row)
    assert after.step_index == state.step_index + 1


# ---------------------------------------------------------------------------
# block_update
# ---------------------------------------------------------------------------


def test_block_of_one_equals_update_step():
    state, y, design, error_row = stream_after_batch(seed=31)
    via_step = update_step(state, y[8], design[8], error_row)
    via_block = block_update(state, y[8:9], design[8:9], error_row.reshape(1, -1))
    np.testing.assert_allclose(
        via_step.beta_prior,
        via_block.beta_prior,
        atol=1e-12,
    )
    assert via_step.epsilon_log == via_block.epsilon_log
    assert abs(via_step.entropy_ledger[-1] - via_block.entropy_ledger[-1]) <= 1e-12


def test_single_block_of_everything_is_the_batch_solve():
    y, design = simulated(24, seed=41)
    problem, error_row = batch_problem(y, design)
    state = StreamState.uniform_start(problem.supports)
    updated = block_update(state, y, design, np.tile(error_row, (24, 1)))
    direct = solve_gce(problem)
    np.testing.assert_allclose(updated.beta_hat, direct.beta_hat, atol=1e-6)


def test_block_infeasibility_reports_local_indices():
    state, y, design, error_row = stream_after_batch(seed=51)
    y_block = np.array([y[8], 1e7, y[10]])
    with pytest.raises(InfeasibleObservationError) as info:
        block_update(state, y_block, design[8:11], error_row.reshape(1, -1))
    assert info.value.indices == (1,)


def plain_weighted_update(state, y, x, rows, gamma):
    """The update as problem objects and ``solve_gce``, with its ledger entry."""
    rows = np.atleast_2d(rows)
    if rows.shape[0] == 1 and len(y) > 1:
        rows = np.tile(rows, (len(y), 1))
    grid = SupportGrid(state.supports.beta_support, rows)
    prior = JointDistribution(state.beta_prior, np.full(rows.shape, 1.0 / rows.shape[1]))
    sol = solve_gce(
        GceProblem(y, x, grid, prior), signal_weight=gamma, error_weight=1.0 - gamma
    )
    return sol, float(kl_divergence(sol.distributions.beta, state.beta_prior).sum())


@pytest.mark.parametrize("gamma, block", [(0.3, 1), (0.5, 1), (0.8, 1), (0.5, 40)])
def test_every_update_matches_the_plain_weighted_solve(gamma, block):
    y, design = simulated(440, seed=7 + block)
    problem, error_row = batch_problem(y[:40], design[:40])
    state, _ = init_stream(problem)
    settings = UpdateSettings(gamma=gamma)
    steps = 0
    for start in range(40, 40 + (210 if block == 1 else 400), block):
        yb, xb = y[start : start + block], design[start : start + block]
        sol, moved = plain_weighted_update(state, yb, xb, error_row, gamma)
        if block == 1:
            new = update_step(state, yb[0], xb[0], error_row, settings)
        else:
            new = block_update(state, yb, xb, error_row, settings)
        np.testing.assert_allclose(new.beta_hat, sol.beta_hat, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            new.beta_prior, sol.distributions.beta, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            new.epsilon_log[-block:], sol.epsilon_hat, rtol=0.0, atol=1e-12
        )
        assert abs(new.entropy_ledger[-1] - moved) <= 1e-12
        assert new.converged_log[-1] == sol.diagnostics.converged
        state = new
        steps += 1
    assert steps == (210 if block == 1 else 10)


def zero_edged_state():
    """Coefficient 0 carries no weight on its outer points, so its hull is [-5, 5]."""
    grid = SupportGrid.tiled(BETA_ROW, 3, [-4.0, 0.0, 4.0], 1)
    prior = np.full((3, 5), 0.2)
    prior[0] = [0.0, 0.25, 0.5, 0.25, 0.0]
    return StreamState(prior, grid, step_index=10)


# x = (1, 0.5, 0.25) and error row (-4, 0, 4): live hull [-16.5, 16.5], while
# the frozen points would widen it to [-21.5, 21.5]
EDGE_X = np.tile([1.0, 0.5, 0.25], (3, 1))
EDGE_ROW = [-4.0, 0.0, 4.0]


@pytest.mark.parametrize(
    "y, x, rows, error, message",
    [
        ([0.0, np.nan, 1.0], EDGE_X, EDGE_ROW, ValueError, "y and x must be finite"),
        ([0.0, 0.5, 1.0], np.where(np.eye(3, dtype=bool), np.inf, EDGE_X), EDGE_ROW,
         ValueError, "y and x must be finite"),
        ([0.0, 0.5, 1.0], EDGE_X[:, :2], EDGE_ROW, ValueError,
         "support grid covers 3 coefficients, x has 2 columns"),
        ([0.0, 0.5, 1.0], EDGE_X[:2], EDGE_ROW, ValueError, "x has 2 rows, y has 3 entries"),
        ([0.0, 0.5, 1.0], EDGE_X, [EDGE_ROW, EDGE_ROW], ValueError,
         "support grid covers 2 observations, data has 3"),
        ([0.0, 0.5, 1.0], EDGE_X, [0.5, 1.0, 2.0], ValueError, "must span zero"),
        ([0.0, 0.5, 1.0], EDGE_X, [-1.0, 0.0, -0.5], ValueError, "strictly increasing"),
        ([0.0, 0.5, 1.0], EDGE_X, [-1.0, 1.0, 1.0], ValueError, "strictly increasing"),
        ([0.0, 0.5, 1.0], EDGE_X, [-1.0, np.nan, 1.0], ValueError,
         "error_support must be finite"),
        ([0.0, 0.5, 1.0], EDGE_X, [[-1.0]], ValueError, "at least 2 columns"),
    ],
)
def test_block_input_contract_matches_the_problem_objects(y, x, rows, error, message):
    state = zero_edged_state()
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    with pytest.raises(error, match=message) as got:
        block_update(state, y, x, rows)
    with pytest.raises(error) as reference:
        plain_weighted_update(state, y, x, rows, 0.5)
    assert str(got.value) == str(reference.value)


@pytest.mark.parametrize(
    "y, indices, boundary",
    [
        ([0.0, 18.0, 1.0], (1,), False),  # inside the hull the frozen points would add
        ([0.0, 0.5, 16.5], (2,), True),
        ([-16.5, 0.5, 30.0], (2,), False),  # outside is reported before on-edge
        ([16.5, -16.5, 1.0], (0, 1), True),
    ],
)
def test_block_infeasibility_uses_the_live_hull(y, indices, boundary):
    state = zero_edged_state()
    with pytest.raises(InfeasibleObservationError) as got:
        block_update(state, y, EDGE_X, EDGE_ROW)
    assert (got.value.indices, got.value.boundary) == (indices, boundary)
    with pytest.raises(InfeasibleObservationError) as reference:
        plain_weighted_update(state, np.asarray(y), EDGE_X, EDGE_ROW, 0.5)
    assert str(got.value) == str(reference.value)


def positive_state():
    """The grid of ``zero_edged_state`` with every weight positive: its hull is the full one."""
    grid = SupportGrid.tiled(BETA_ROW, 3, [-4.0, 0.0, 4.0], 1)
    prior = np.full((3, 5), 0.2)
    prior[0] = [0.1, 0.2, 0.4, 0.2, 0.1]
    return StreamState(prior, grid, step_index=10)


EDGE_X_ROW = [1.0, 0.5, 0.25]
OUTSIDE = "observation(s) 0 fall outside the attainable hull [{0}, {1}]"
ON_EDGE = ("observation(s) 0 lie exactly on the attainable hull boundary [{0}, {1}] "
           "and would force degenerate point masses")
TOO_LARGE = ("x[0, {0}] = {1} is too large for the solver to square; "
             "rescale the data and the supports")


@pytest.mark.parametrize(
    "start, y_new, x_new, row, gamma, error, message",
    [
        (zero_edged_state, np.nan, EDGE_X_ROW, EDGE_ROW, 0.5, ValueError,
         "y and x must be finite"),
        (zero_edged_state, 0.0, [1.0, 0.5], EDGE_ROW, 0.5, ValueError,
         "support grid covers 3 coefficients, x has 2 columns"),
        (zero_edged_state, 18.0, EDGE_X_ROW, EDGE_ROW, 0.5, InfeasibleObservationError,
         OUTSIDE.format(-16.5, 16.5)),
        (zero_edged_state, 16.5, EDGE_X_ROW, EDGE_ROW, 0.5, InfeasibleObservationError,
         ON_EDGE.format(-16.5, 16.5)),
        (zero_edged_state, -16.5, EDGE_X_ROW, EDGE_ROW, 0.5, InfeasibleObservationError,
         ON_EDGE.format(-16.5, 16.5)),
        # a positive prior: the full-support hull [-21.5, 21.5]
        (positive_state, 22.0, EDGE_X_ROW, EDGE_ROW, 0.5, InfeasibleObservationError,
         OUTSIDE.format(-21.5, 21.5)),
        (positive_state, -30.0, EDGE_X_ROW, EDGE_ROW, 0.5, InfeasibleObservationError,
         OUTSIDE.format(-21.5, 21.5)),
        (positive_state, 21.5, EDGE_X_ROW, EDGE_ROW, 0.5, InfeasibleObservationError,
         ON_EDGE.format(-21.5, 21.5)),
        (positive_state, -21.5, EDGE_X_ROW, EDGE_ROW, 0.5, InfeasibleObservationError,
         ON_EDGE.format(-21.5, 21.5)),
        (positive_state, 0.0, [1e160, 0.5, 0.25], EDGE_ROW, 0.5, ValueError,
         TOO_LARGE.format(0, "1e+160")),
        (positive_state, 0.0, [1.0, 0.5, -1e160], EDGE_ROW, 0.5, ValueError,
         TOO_LARGE.format(2, "-1e+160")),
        (positive_state, 0.0, [1.0, 1e150, 0.25], EDGE_ROW, 1e-10, ValueError,
         "x[0, 1] = 1e+150 is too large for coefficient row 1 of span 20.0; "
         "rescale the data and the supports"),
        (positive_state, 0.0, [1.0, np.nan, 0.25], EDGE_ROW, 0.5, ValueError,
         "y and x must be finite"),
        (positive_state, 0.0, [np.inf, 0.5, 0.25], EDGE_ROW, 0.5, ValueError,
         "y and x must be finite"),
        (positive_state, np.inf, EDGE_X_ROW, EDGE_ROW, 0.5, ValueError, "y and x must be finite"),
        (positive_state, 0.0, EDGE_X_ROW, [0.5, 1.0, 2.0], 0.5, ValueError,
         "every error_support row must span zero (min < 0 < max)"),
        (positive_state, 0.0, EDGE_X_ROW, [-1.0, np.inf, 1.0], 0.5, ValueError,
         "error_support must be finite"),
        (positive_state, 0.0, EDGE_X_ROW, [-1.0, np.nan, 1.0], 0.5, ValueError,
         "error_support must be finite"),
    ],
    ids=[  # the zero-edged cases keep the ids they had before the positive-prior ones
        "nan-x_new0-ValueError-y and x must be finite", "0.0-x_new1-ValueError-x has 2 columns",
        "18.0-x_new2-InfeasibleObservationError-outside",
        "16.5-x_new3-InfeasibleObservationError-boundary",
        "-16.5-x_new4-InfeasibleObservationError-boundary",
        "positive-above the hull", "positive-below the hull", "positive-on the upper edge",
        "positive-on the lower edge", "positive-x of 1e160", "positive-x of -1e160",
        "positive-x over the span rule at a small gamma", "positive-a NaN in x",
        "positive-an infinite x", "positive-an infinite y", "positive-a row not spanning zero",
        "positive-an infinite error point", "positive-a NaN error point",
    ],
)
def test_single_step_input_contract(start, y_new, x_new, row, gamma, error, message):
    state, settings = start(), UpdateSettings(gamma=gamma)
    steps = (
        lambda: update_step(state, y_new, x_new, row, settings),
        lambda: block_update(state, [y_new], [x_new], [row], settings),
    )
    for step in steps:
        with pytest.raises(error) as got:
            step()
        assert type(got.value) is error and str(got.value) == message
        if error is InfeasibleObservationError:
            assert got.value.indices == (0,)
    # the state is untouched and still absorbs a feasible observation
    assert update_step(state, 16.0, EDGE_X_ROW, EDGE_ROW, settings).step_index == 11


def test_an_x_too_large_to_square_is_refused_on_a_grid_too_narrow_for_the_span_rule():
    # 1e160 times a span of 2e-10 clears the span rule: only the magnitude test refuses it
    grid = SupportGrid.tiled([-1e-10, 0.0, 1e-10], 3, EDGE_ROW, 1)
    state = StreamState(np.full((3, 3), 1.0 / 3.0), grid, step_index=10)
    x_new = [1e160, 0.5, 0.25]
    for step in (
        lambda: update_step(state, 0.0, x_new, EDGE_ROW),
        lambda: block_update(state, [0.0], [x_new], [EDGE_ROW]),
    ):
        with pytest.raises(ValueError) as got:
            step()
        assert type(got.value) is ValueError and str(got.value) == TOO_LARGE.format(0, "1e+160")


# entries with signed zeros and ties, whose products and sums are often exact
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-8.0, 8.0, width=16))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    x_row=st.lists(ENTRIES, min_size=1, max_size=6),
    k=st.integers(2, 5),
    h=st.integers(2, 5),
    at=st.sampled_from(["lo", "hi", "below lo", "above lo", "below hi", "above hi", "any"]),
    live=st.booleans(),
    dead=st.sampled_from([0.0, 5e-324, 1e-305, np.nextafter(core_module.ZERO_CLAMP, 0.0)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_scalar_step_test_accepts_exactly_what_the_hull_check_passes(
    x_row, k, h, at, live, dead, seed
):
    local = np.random.default_rng(seed)
    j = len(x_row)
    points = np.arange(-6, 7) * 0.75
    points[points == 0.0] = -0.0 if local.uniform() < 0.5 else 0.0
    zb = np.sort([local.choice(points, k, replace=False) for _ in range(j)])
    zb = core_module._support_rows(zb, "beta_support")
    row = np.sort(np.r_[-local.uniform(0.5, 4.0), local.uniform(-4.0, 4.0, h - 2),
                        local.uniform(0.5, 4.0)])
    prior = local.uniform(0.1, 1.0, (j, k))
    if not live:  # one weight underflowed: only the numpy checks tell its live hull
        at_dead = local.integers(j), local.integers(k)
        prior[at_dead] = 0.0
    prior /= prior.sum(axis=1, keepdims=True)
    if not live:  # an exact zero or a weight below ZERO_CLAMP: dead to the hull and the solve
        prior[at_dead] = dead
    x = np.array([x_row])
    lo, hi = solver._coefficient_hull(x, zb[:, 0], zb[:, -1])
    lo, hi = float(lo[0] + row[0]), float(hi[0] + row[-1])
    y = {
        "lo": lo, "hi": hi, "below lo": np.nextafter(lo, -np.inf),
        "above lo": np.nextafter(lo, np.inf), "below hi": np.nextafter(hi, -np.inf),
        "above hi": np.nextafter(hi, np.inf), "any": local.uniform(lo - 1.0, hi + 1.0),
    }[at]
    checked = streaming_module._check_block(np.array([y]), x, zb, row, 0.5)
    verdicts, log_qe = [], solver._log_priors(np.full(h, 1.0 / h))
    for q in (prior, np.where(prior < core_module.ZERO_CLAMP, 0.0, prior)):
        try:
            solver._check_hull(*checked[:2], zb, solver._log_priors(q), checked[2], log_qe)
            verdicts.append(True)
        except InfeasibleObservationError:
            verdicts.append(False)
    passes = verdicts[0]
    assert verdicts[1] == passes  # a weight below ZERO_CLAMP counts as an exact zero
    log_prior = solver._log_priors(prior)  # a state's default logs
    got = streaming_module._ordinary_step(np.array([y]), x, zb, row, log_prior, 0.5)
    assert (got is not None) == (passes and live)
    if got is not None:
        assert all(np.array_equal(a, b) and a.shape == b.shape for a, b in zip(got, checked))
        assert got[2] is checked[2]  # the one kept row


def test_an_ordinary_step_skips_the_numpy_checks(monkeypatch):
    calls = {"_check_hull": 0, "_check_observations": 0}

    def counted(name):
        fn = getattr(streaming_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(streaming_module, name, counted(name))
    state, y, design, error_row = stream_after_batch()
    assert state.beta_prior.min() > 0.0
    update_step(state, y[8], design[8], error_row)
    block_update(state, y[8:9], design[8:9], error_row)
    assert calls == {"_check_hull": 0, "_check_observations": 0}
    # an underflowed prior's live hull is narrower: the numpy checks tell it
    update_step(zero_edged_state(), 16.0, EDGE_X_ROW, EDGE_ROW)
    assert calls == {"_check_hull": 1, "_check_observations": 1}


def test_a_single_step_validates_once_and_builds_no_problem_objects(monkeypatch):
    state, y, design, error_row = stream_after_batch()
    calls = {"rows": 0, "GceProblem": 0, "JointDistribution": 0, "SupportGrid": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    rows = counted("rows", core_module._simplex_rows)
    monkeypatch.setattr(core_module, "_simplex_rows", rows)
    monkeypatch.setattr(streaming_module, "_simplex_rows", rows)
    for cls in (GceProblem, JointDistribution, SupportGrid):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    update_step(state, y[10], design[10], error_row)
    # the new state is built from checked parts: its prior is not checked again
    assert calls == {"rows": 0, "GceProblem": 0, "JointDistribution": 0, "SupportGrid": 0}


def test_steps_on_one_row_check_it_once_and_build_states_unchecked(monkeypatch):
    state, y, design, error_row = stream_after_batch(n=108)
    calls = {"_error_rows": 0, "__post_init__": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    core_module._cached_row.cache_clear()
    monkeypatch.setattr(core_module, "_error_rows", counted("_error_rows", core_module._error_rows))
    monkeypatch.setattr(
        StreamState, "__post_init__", counted("__post_init__", StreamState.__post_init__)
    )
    for i in range(8, 108):
        state = update_step(state, y[i], design[i], list(error_row))
    assert state.step_index == 108
    assert calls == {"_error_rows": 1, "__post_init__": 0}


def test_a_row_changed_in_place_is_checked_again():
    state, y, design, error_row = stream_after_batch()
    row = error_row.copy()
    first = update_step(state, y[8], design[8], row)
    row[:] = [0.5, 1.0, 2.0]
    with pytest.raises(ValueError, match="must span zero"):
        update_step(first, y[9], design[9], row)
    row[:] = error_row
    assert update_step(first, y[9], design[9], row).step_index == 10


def test_an_invalid_row_raises_on_every_call_and_a_kept_row_is_read_only(monkeypatch):
    state, y, design, error_row = stream_after_batch()
    checked = []
    error_rows = core_module._error_rows

    def counted(rows):
        checked.append(np.array(rows))
        return error_rows(rows)

    core_module._cached_row.cache_clear()
    monkeypatch.setattr(core_module, "_error_rows", counted)
    for _ in range(3):
        with pytest.raises(ValueError, match="strictly increasing"):
            update_step(state, y[8], design[8], [-1.0, 1.0, 1.0])
    assert len(checked) == 3
    zb = state.supports.beta_support
    for shape in ((3,), (1, 3), (3,)):
        row = error_row.reshape(shape).copy()
        kept = streaming_module._check_block(y[8:9], design[8:9], zb, row)[2]
        assert not kept.flags.writeable and kept.tolist() == [error_row.tolist()]
        row[...] = 0.0  # the caller's array is not the one kept
        assert kept.tolist() == [error_row.tolist()]
    assert len(checked) == 4  # a 1-D row and a (1, H) one are one row


def test_threads_stepping_on_different_rows_each_get_their_own_row():
    state, y, design, error_row = stream_after_batch(n=40)
    rows = [error_row * (1.0 + k / 4.0) for k in range(4)]

    def chain(row):
        current = state
        for i in range(8, 40):
            current = update_step(current, y[i], design[i], row)
        return current.beta_prior.tobytes()

    want = {k: chain(row) for k, row in enumerate(rows)}
    assert len(set(want.values())) == len(rows)
    barrier = threading.Barrier(len(rows), timeout=60)
    results = {}

    def run(k):
        barrier.wait()
        results[k] = chain(rows[k])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(rows))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == want


# ---------------------------------------------------------------------------
# entropy ledger
# ---------------------------------------------------------------------------


def test_ledger_empty_without_updates():
    grid = SupportGrid.tiled(BETA_ROW, 2, [-4.0, 0.0, 4.0], 1)
    assert StreamState.uniform_start(grid).entropy_ledger == ()


def test_ledger_entries_recompute_from_stored_states():
    state, y, design, error_row = stream_after_batch(n=16, batch=6, seed=61)
    states = [state]
    for i in range(6, 12):
        states.append(update_step(states[-1], y[i], design[i], error_row))
    for step, (before, after) in enumerate(zip(states, states[1:]), start=1):
        recomputed = kl_divergence(after.beta_prior, before.beta_prior).sum()
        assert after.entropy_ledger[-1] == pytest.approx(recomputed, abs=1e-15)
        assert len(after.entropy_ledger) == step
    assert all(e >= -1e-12 for e in states[-1].entropy_ledger)

    # blocks of four (the multi-constraint solve) and a stream whose carried
    # weights underflow to zero on some points: there the entries recompute
    # from the stored logs, which stay finite, as sum p * (log p - log q)
    state, y, design, error_row = stream_after_batch(n=30, batch=6, seed=61)
    blocks = [state]
    for start in range(6, 30, 4):
        rows = slice(start, start + 4)
        blocks.append(block_update(blocks[-1], y[rows], design[rows], error_row))
    y, design = underflowing_stream()
    grid = SupportGrid.tiled(UNDERFLOW_BETA_ROW, 2, UNDERFLOW_ERROR_ROW, 20)
    underflowed = [init_stream(GceProblem(y[:20], design[:20], grid))[0]]
    for i in range(20, 40):
        underflowed.append(update_step(underflowed[-1], y[i], design[i], UNDERFLOW_ERROR_ROW))
    assert any(state.beta_prior.min() == 0.0 for state in underflowed)
    for states, kl in ((blocks, kl_divergence_of_weights), (underflowed, kl_divergence_of_logs)):
        for before, after in zip(states, states[1:]):
            entry = after.entropy_ledger[-1]
            recomputed = kl(after, before)
            assert abs(entry - recomputed) <= 1e-13 * max(1.0, entry)
            assert entry >= 0.0
    assert max(underflowed[-1].entropy_ledger) > 1.0


def kl_divergence_of_weights(after, before):
    """KL of a state's carried weights from the state before's, by ``kl_divergence``."""
    return kl_divergence(after.beta_prior, before.beta_prior).sum()


def kl_divergence_of_logs(after, before):
    """The same KL from the two states' carried logs, each row normalized: sum p (log p - log q).

    A row of logs tilted far sums to 1 only within about 1e-13 once exponentiated.
    """
    log_p, log_q = (
        state.log_prior - np.logaddexp.reduce(state.log_prior, axis=1, keepdims=True)
        for state in (after, before)
    )
    return float(np.sum(np.exp(log_p) * (log_p - log_q)))


def test_ledger_rejects_negative_entries():
    grid = SupportGrid.tiled(BETA_ROW, 2, [-4.0, 0.0, 4.0], 1)
    state = StreamState.uniform_start(grid)
    with pytest.raises(ValueError, match="nonnegative"):
        StreamState(
            beta_prior=state.beta_prior,
            supports=grid,
            step_index=1,
            entropy_ledger=(-1e-6,),
        )


def test_state_rejects_bad_priors_and_indices():
    grid = SupportGrid.tiled(BETA_ROW, 2, [-4.0, 0.0, 4.0], 1)
    state = StreamState.uniform_start(grid)
    with pytest.raises(ValueError, match="support grid"):
        StreamState(beta_prior=np.full((3, 5), 0.2), supports=grid, step_index=0)
    with pytest.raises(ValueError, match="support grid"):
        StreamState(beta_prior=np.full((2, 4), 0.25), supports=grid, step_index=0)
    with pytest.raises(ValueError):
        StreamState(beta_prior=np.full((2, 5), 0.3), supports=grid, step_index=0)
    for index in (-1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="step_index"):
            StreamState(beta_prior=state.beta_prior, supports=grid, step_index=index)
    ledger = state.entropy_ledger.extended((0.1,))
    for bad in ([math.nan], [math.nan, -5.0], [-5.0, math.nan], [0.2, math.inf]):
        for entries in (bad, ledger.extended(bad)):  # the copy path and the shared one
            with pytest.raises(ValueError, match="ledger entries must be finite"):
                StreamState(
                    beta_prior=state.beta_prior, supports=grid, step_index=0,
                    entropy_ledger=entries,
                )
    with pytest.raises(ValueError):
        state.beta_prior[0, 0] = 0.5


def test_a_state_carries_the_logs_it_is_given_or_those_of_its_weights():
    grid = SupportGrid.tiled(BETA_ROW, 2, [-4.0, 0.0, 4.0], 1)
    prior = np.full((2, 5), 0.2)
    prior[0] = [0.0, 0.25, 0.5, 0.25, 0.0]
    state = StreamState(prior, grid, step_index=0)
    assert state.log_prior.tobytes() == solver._log_priors(prior).tobytes()
    assert not state.log_prior.flags.writeable
    logs = np.nextafter(state.log_prior, 0.0)  # the same logs but for rounding
    given = StreamState(prior, grid, step_index=0, log_prior=logs)
    assert given.log_prior.tobytes() == logs.tobytes()
    moved = dataclasses.replace(given, step_index=4)
    assert moved.log_prior.tobytes() == logs.tobytes() and moved.step_index == 4
    underflowed = logs.copy()
    underflowed[0, 0] = -2000.0  # finite where the weight is zero: a live point
    assert StreamState(prior, grid, 0, log_prior=underflowed).log_prior[0, 0] == -2000.0
    # NaN, +inf, -inf at a live weight, or a row too few
    for at, value in (((1, 0), np.nan), ((1, 0), np.inf), ((0, 2), -np.inf), (None, None)):
        bad = logs.copy() if at else logs[:1]
        if at:
            bad[at] = value
        with pytest.raises(ValueError, match="log_prior"):
            StreamState(prior, grid, step_index=0, log_prior=bad)


def test_ledger_check_covers_logs_taken_from_other_states():
    state, y, design, error_row = stream_after_batch(n=14, batch=8, seed=67)
    for i in range(8, 12):
        state = update_step(state, y[i], design[i], error_row)
    assert min(state.epsilon_log) < -1e-12  # a residual log, not a ledger
    with pytest.raises(ValueError, match="nonnegative"):
        StreamState(
            beta_prior=state.beta_prior,
            supports=state.supports,
            step_index=state.step_index,
            entropy_ledger=state.epsilon_log,
        )


def test_branching_from_an_older_state_leaves_newer_logs_alone():
    state, y, design, error_row = stream_after_batch(n=16, batch=8, seed=91)
    first = update_step(state, y[8], design[8], error_row)
    second = update_step(first, y[9], design[9], error_row)
    snapshot = (tuple(second.epsilon_log), tuple(second.entropy_ledger),
                tuple(second.converged_log), len(second.beta_trajectory))
    other = update_step(first, y[10], design[10], error_row)
    assert (tuple(second.epsilon_log), tuple(second.entropy_ledger),
            tuple(second.converged_log), len(second.beta_trajectory)) == snapshot
    assert len(first.entropy_ledger) == 1 and len(other.entropy_ledger) == 2
    assert other.entropy_ledger[:1] == first.entropy_ledger[:]
    assert other.epsilon_log[-1] != second.epsilon_log[-1]
    # the branch keeps growing on its own
    again = update_step(other, y[11], design[11], error_row)
    assert len(again.entropy_ledger) == 3 and len(second.entropy_ledger) == 2
    assert np.shares_memory(again.beta_trajectory[-2], other.beta_trajectory[-1])


def test_concurrent_branches_each_keep_their_own_entry():
    # many threads extend the same log at once; a lost check-then-append
    # race would let one branch see another branch's entry. The buffer, with
    # room for two more entries, yields the interpreter inside its length
    # check to open that window wide.
    from gcestream.streaming import _Log

    class YieldingBuffer(np.ndarray):
        def __len__(self):
            size = super().__len__()
            time.sleep(1e-4)
            return size

    bases = [_Log(np.array([0.0, 1.0, 0.0, 0.0]).view(YieldingBuffer), 2) for _ in range(20)]
    workers = 8
    barrier = threading.Barrier(workers, timeout=60)
    results = {}

    def branch(k):
        barrier.wait()
        results[k] = all(
            tuple(base.extended((float(k),))) == (0.0, 1.0, float(k)) for base in bases
        )

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=branch, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == {k: True for k in range(workers)}
    assert all(tuple(base) == (0.0, 1.0) for base in bases)


def test_prior_weights_stay_positive_through_updates():
    state, y, design, error_row = stream_after_batch(n=30, batch=10, seed=71)
    for i in range(10, 30):
        state = update_step(state, y[i], design[i], error_row)
    assert state.beta_prior.min() > 0.0


def test_error_prior_resets_each_step():
    # replaying an update from a state stripped of its history gives the same
    # answer: only (y, x, carried weights) matter
    state, y, design, error_row = stream_after_batch(n=18, batch=8, seed=81)
    for i in range(8, 13):
        state = update_step(state, y[i], design[i], error_row)
    bare = StreamState(
        beta_prior=state.beta_prior, supports=state.supports, step_index=state.step_index
    )
    a = update_step(state, y[13], design[13], error_row)
    b = update_step(bare, y[13], design[13], error_row)
    np.testing.assert_allclose(
        a.beta_prior,
        b.beta_prior,
        atol=1e-12,
    )
    assert a.epsilon_log[-1] == pytest.approx(b.epsilon_log[-1], abs=1e-12)


# ---------------------------------------------------------------------------
# run_stream
# ---------------------------------------------------------------------------


def test_batch_of_everything_reproduces_one_shot_solve():
    y, design = simulated(20, seed=91)
    problem, error_row = batch_problem(y, design)
    report = run_stream(y, design, batch_size=20, beta_support=BETA_ROW)
    direct = solve_gce(problem)
    np.testing.assert_allclose(report.beta_hat, direct.beta_hat, atol=1e-12)
    assert report.entropy_ledger.size == 0
    assert report.skipped == ()
    assert report.all_converged


def test_reversed_stream_changes_the_answer():
    y, design = simulated(48, seed=101)
    fwd = run_stream(y, design, batch_size=12, beta_support=BETA_ROW)
    y_rev = np.concatenate([y[:12], y[12:][::-1]])
    x_rev = np.vstack([design[:12], design[12:][::-1]])
    rev = run_stream(y_rev, x_rev, batch_size=12, beta_support=BETA_ROW)
    assert np.max(np.abs(fwd.beta_hat - rev.beta_hat)) > 1e-6


def test_block_size_covers_ragged_tail():
    y, design = simulated(23, seed=111)
    report = run_stream(y, design, batch_size=10, block_size=5, beta_support=BETA_ROW)
    # 13 streamed observations in blocks of 5 -> 5, 5, 3
    assert report.entropy_ledger.size == 3
    assert report.epsilon_hat.size == 23
    assert report.final_state.step_index == 23
    assert report.beta_trajectory.shape == (4, design.shape[1])


def test_skipped_blocks_report_global_indices(caplog):
    y, design = simulated(20, seed=121)
    y = y.copy()
    y[15] = 1e8
    with caplog.at_level(logging.WARNING, logger="gcestream.streaming"):
        report = run_stream(y, design, batch_size=10, block_size=2, beta_support=BETA_ROW)
    assert report.skipped == (14, 15)
    assert any("15" in message for message in caplog.messages)
    assert np.all(np.isfinite(report.beta_hat))


def test_zero_batch_needs_explicit_or_full_error_scale():
    y, design = simulated(12, seed=151)
    with pytest.raises(ValueError, match="error_scale"):
        run_stream(y, design, batch_size=0, beta_support=BETA_ROW)
    report = run_stream(y, design, batch_size=0, beta_support=BETA_ROW, error_scale="full")
    assert report.batch_solution is None
    assert report.final_state.step_index == 12
    # an empty stream has no observation to check, as an empty block has none
    with pytest.raises(ValueError, match="need at least one observation"):
        run_stream(
            np.empty(0), np.empty((0, 2)), 0, beta_support=[-1, 0, 1], error_support=[-1, 0, 1]
        )


def test_unknown_error_scale_is_rejected_even_with_an_explicit_row():
    y, design = simulated(12, seed=151)
    with pytest.raises(ValueError, match="error_scale must be one of"):
        run_stream(
            y, design, batch_size=4, beta_support=BETA_ROW,
            error_support=[-3.0, 0.0, 3.0], error_scale="weekly",
        )


@pytest.mark.parametrize("scale", ["batch", "cumulative"])
def test_one_value_or_flat_batch_gets_the_fixed_width_row(scale):
    y, design = simulated(12, seed=171)
    y = np.concatenate([np.full(4, 2.5), y[4:]])
    half = 3.0 * 2.5
    for batch_size in (1, 4):
        report = run_stream(
            y, design, batch_size=batch_size, beta_support=BETA_ROW, error_scale=scale
        )
        explicit = run_stream(
            y, design, batch_size=batch_size, beta_support=BETA_ROW,
            error_support=[-half, 0.0, half],
        )
        assert report.final_state.step_index == 12
        # the batch stage sees the same row either way; "batch" keeps it throughout
        assert np.array_equal(report.batch_solution.beta_hat, explicit.batch_solution.beta_hat)
        if scale == "batch":
            assert np.array_equal(report.beta_hat, explicit.beta_hat)


def test_cumulative_error_scale_tracks_observed_spread():
    y, design = simulated(30, seed=161)
    fixed = run_stream(y, design, batch_size=10, beta_support=BETA_ROW)
    cumulative = run_stream(
        y, design, batch_size=10, beta_support=BETA_ROW, error_scale="cumulative"
    )
    assert cumulative.final_state.step_index == 30
    # widths differ, so the fitted paths cannot coincide
    assert np.max(np.abs(fixed.beta_hat - cumulative.beta_hat)) > 0.0


def test_streaming_underperforms_batch_when_badly_initialized():
    # tiny batch, long stream: the one-shot fit should beat the stream
    local = np.random.default_rng(7)
    x = local.uniform(0.0, 20.0, size=(64, 3))
    y = 1.0 + x @ np.array([1.0, -2.0, 3.0]) + local.normal(0.0, 1.0, size=64)
    design = np.column_stack([np.ones(64), x])
    sd = float(np.std(y, ddof=1))
    grid = SupportGrid.tiled([-100.0, -50.0, 0.0, 50.0, 100.0], 4, [-3 * sd, 0.0, 3 * sd], 64)
    direct = solve_gce(GceProblem(y, design, grid))
    stream = run_stream(
        y, design, batch_size=4, beta_support=[-100.0, -50.0, 0.0, 50.0, 100.0],
        error_support=[-3 * sd, 0.0, 3 * sd],
    )
    gce_rmse = rmse(y, x, direct.beta_hat)
    stre_rmse = rmse(y, x, stream.beta_hat)
    assert stre_rmse > gce_rmse


# ---------------------------------------------------------------------------
# run_stream against a fold of block_update
# ---------------------------------------------------------------------------


def fold_of_block_updates(
    y, x, batch_size, block_size=1, settings=None, *, beta_support, error_support=None,
    error_points=3, error_scale="batch",
):
    """``run_stream`` as a left fold of ``block_update``: its reference.

    Returns the last state and the skipped indices; skipped blocks are logged
    on the package's logger with ``run_stream``'s message.
    """
    settings = settings if settings is not None else UpdateSettings()
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta_support, dtype=float)
    if beta.ndim == 1:
        beta = np.tile(beta, (x.shape[1], 1))
    if error_support is not None:
        row = np.asarray(error_support, dtype=float).reshape(-1)
    else:
        row = _scaled_error_support(y, batch_size, error_scale, error_points)
    if batch_size:
        grid = SupportGrid(beta, np.tile(row, (batch_size, 1)))
        state, _ = init_stream(GceProblem(y[:batch_size], x[:batch_size], grid), settings)
    else:
        state = StreamState.uniform_start(SupportGrid(beta, row.reshape(1, -1)))
    skipped = []
    for ordinal, start in enumerate(range(batch_size, y.size, block_size)):
        stop = min(start + block_size, y.size)
        if error_support is None and error_scale == "cumulative":
            row = _scaled_error_support(y, stop, error_scale, error_points)
        try:
            state = block_update(state, y[start:stop], x[start:stop], row, settings)
        except InfeasibleObservationError as exc:
            skipped.extend(range(start, stop))
            logging.getLogger("gcestream.streaming").warning(
                "skipping block %d (observations %d..%d): %s (offending: %s)",
                ordinal, start, stop - 1, exc, [start + i for i in exc.indices],
            )
    return state, tuple(skipped)


def assert_stream_is_the_fold(report, state, skipped):
    assert np.array_equal(report.beta_trajectory, np.vstack(state.beta_trajectory))
    assert np.array_equal(report.entropy_ledger, np.array(state.entropy_ledger))
    assert np.array_equal(report.epsilon_hat, np.array(state.epsilon_log))
    assert np.array_equal(report.final_state.beta_prior, state.beta_prior)
    assert np.array_equal(report.beta_hat, state.beta_hat)
    assert report.all_converged == all(state.converged_log)
    assert report.skipped == skipped
    assert report.final_state.step_index == state.step_index
    for log in ("epsilon_log", "entropy_ledger", "beta_trajectory", "converged_log"):
        assert getattr(report.final_state, log) == getattr(state, log), log


def stream_and_fold(caplog, *args, **kwargs):
    """Both runs with their warnings; the fold's must equal the stream's."""
    with caplog.at_level(logging.WARNING, logger="gcestream.streaming"):
        report = run_stream(*args, **kwargs)
        logged = [r.getMessage() for r in caplog.records]
        caplog.clear()
        state, skipped = fold_of_block_updates(*args, **kwargs)
        assert [r.getMessage() for r in caplog.records] == logged
    assert_stream_is_the_fold(report, state, skipped)
    return report


STREAM_CASES = {
    "g1": dict(block_size=1),
    "g7": dict(block_size=7),
    "g40": dict(block_size=40),
    "gamma-0.3-g7": dict(block_size=7, settings=UpdateSettings(gamma=0.3)),
    "cumulative-g1": dict(error_scale="cumulative"),
    "cumulative-g7": dict(block_size=7, error_scale="cumulative"),
    "no-batch-g1": dict(batch_size=0, error_scale="full"),
    "no-batch-g7": dict(batch_size=0, block_size=7, error_scale="full"),
    "one-block": dict(block_size=1000),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_run_stream_is_a_fold_of_block_updates(caplog, case):
    y, design = simulated(200, seed=181)
    kwargs = {"batch_size": 60, "beta_support": BETA_ROW, **STREAM_CASES[case]}
    report = stream_and_fold(caplog, y, design, **kwargs)
    assert report.skipped == ()
    assert report.entropy_ledger.size >= (1 if case == "one-block" else 4)


def test_the_no_batch_g7_stream_converges_every_block_fast():
    # block 24 of this stream once spun to the 500-iteration cap (1.5 s),
    # every Armijo trial refused on a dual value flat in all 17 digits
    y, design = simulated(200, seed=181)
    best = math.inf
    for _ in range(3):  # the fastest of up to three runs, for a loaded machine
        start = time.perf_counter()
        report = run_stream(y, design, 0, 7, beta_support=BETA_ROW, error_scale="full")
        best = min(best, time.perf_counter() - start)
        assert report.all_converged
        if best < 0.05:
            break
    assert best < 0.05


def test_an_ordinary_block_of_two_converges():
    # block 69 of this g = 2 stream (observations 2058 and 2059) once stopped
    # at the 500-iteration cap, one of 13 such blocks over seeds 1 to 8
    ds = generate_dataset(SimulationConfig(n=3840, seed=6))
    design = np.column_stack([np.ones(ds.n), ds.x])
    report = run_stream(ds.y[:2060], design[:2060], 1920, 2, beta_support=DEFAULT_BETA_SUPPORT)
    assert report.entropy_ledger.size == 70 and report.all_converged


@pytest.mark.xfail(
    strict=True,
    reason="the FOUND in CHANGES.md on solver._solve_multi saturating where the only point "
    "reaching y carries a tiny prior weight; ROADMAP item 7 (Newton stops stalling where the "
    "floor is reachable)",
)
def test_a_block_of_two_from_a_nearly_dead_edge_converges_as_its_one_row_step_does():
    # the Newton step overshoots into rows that are point masses on -10 and
    # -1, where no curvature is left and no trial decreases: the block stops
    # at beta_hat = -10, unconverged, while the bracketed one-row kernel
    # reaches -8 from the same prior
    grid = SupportGrid(np.array([BETA_ROW]), np.array([[-1.0, 0.0, 1.0]]))
    state = StreamState(np.array([[1e-300, 0.25, 0.25, 0.25, 0.25 + 5e-13]]), grid, 0)
    step = update_step(state, -9.0, [1.0], [-1.0, 0.0, 1.0])
    assert step.converged_log[-1] and step.beta_hat[0] == pytest.approx(-8.0)
    block = block_update(state, [-9.0, -9.0], [[1.0], [1.0]], [-1.0, 0.0, 1.0])
    assert block.converged_log[-1]


@pytest.mark.xfail(
    strict=True,
    reason="the FOUND in CHANGES.md on block_update absorbing a block whose observations are "
    "each inside their hull but cannot all be reached together",
)
def test_a_block_that_no_weights_reach_together_is_infeasible():
    # each response lies inside the live hull [-16.5, 16.5], but at one x row
    # they differ by 31 while the errors can differ by at most 8: today the
    # solve stops unconverged with eps_hat on the support's ends, and the
    # stream carries on
    with pytest.raises(InfeasibleObservationError):
        block_update(zero_edged_state(), [15.0, -16.0], [EDGE_X[0]] * 2, EDGE_ROW)


def assert_state_rebuilds_to_itself(state, copy_logs=True):
    """A stepped state is the state its own fields, checked afresh, build.

    With ``copy_logs`` the logs are also copied into plain lists, whose checks start over.
    """
    fields = dict(
        beta_prior=state.beta_prior, supports=state.supports, step_index=state.step_index
    )
    logs = ("epsilon_log", "entropy_ledger", "beta_trajectory", "converged_log")
    assert not state.beta_prior.flags.writeable and state.beta_prior.flags.c_contiguous
    assert type(state.step_index) is int
    for copied in (False, True) if copy_logs else (False,):
        kept = {name: list(getattr(state, name)) if copied else getattr(state, name)
                for name in logs}
        rebuilt = StreamState(**fields, **kept)
        assert rebuilt.beta_prior.tobytes() == state.beta_prior.tobytes()
        assert rebuilt.beta_prior.shape == state.beta_prior.shape
        assert rebuilt.step_index == state.step_index
        for name in logs:
            assert getattr(rebuilt, name) == getattr(state, name), name


@pytest.mark.parametrize(
    "case", sorted(c for c, kw in STREAM_CASES.items() if kw.get("block_size", 1) in (1, 7))
)
def test_every_stepped_state_equals_the_checked_state(monkeypatch, case):
    states = []
    step = streaming_module.block_update

    def recorded(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    monkeypatch.setitem(globals(), "block_update", recorded)
    y, design = simulated(200, seed=181)
    kwargs = {"batch_size": 60, "beta_support": BETA_ROW, **STREAM_CASES[case]}
    fold_of_block_updates(y, design, **kwargs)
    assert len(states) >= 20
    for state in states:  # each log's entries were checked once, so copy the last state's
        assert_state_rebuilds_to_itself(state, copy_logs=state is states[-1])


def test_stepped_states_whose_prior_underflows_equal_the_checked_states():
    y, design = underflowing_stream()
    settings = UpdateSettings(gamma=0.1)
    grid = SupportGrid.tiled(UNDERFLOW_BETA_ROW, 2, UNDERFLOW_ERROR_ROW, 20)
    state = init_stream(GceProblem(y[:20], design[:20], grid), settings)[0]
    underflowed = 0
    for i in range(20, 40):
        try:
            state = update_step(state, y[i], design[i], UNDERFLOW_ERROR_ROW, settings)
        except InfeasibleObservationError:
            continue
        underflowed += state.beta_prior.min() == 0.0
        assert_state_rebuilds_to_itself(state)
    assert underflowed >= 2


@pytest.mark.parametrize("block_size", [1, 7])
def test_infeasible_observations_are_skipped_as_in_a_fold(caplog, block_size):
    y, design = simulated(80, seed=191)
    row = np.array([-4.0, 0.0, 4.0])
    zb = np.tile(BETA_ROW, (design.shape[1], 1))
    _, hi = solver._coefficient_hull(design, zb[:, 0], zb[:, -1])
    y = y.copy()
    y[37] = 1e7  # outside the hull
    y[52] = hi[52] + row[-1]  # exactly on its upper edge
    report = stream_and_fold(
        caplog, y, design, 30, block_size, beta_support=BETA_ROW, error_support=row
    )
    blocks = {1: [(37, 38), (52, 53)], 7: [(37, 44), (51, 58)]}[block_size]
    assert report.skipped == tuple(i for lo, hi in blocks for i in range(lo, hi))
    assert any("outside" in m for m in caplog.messages)
    assert any("boundary" in m for m in caplog.messages)


def test_an_underflowing_stream_skips_nothing_and_keeps_finite_logs(caplog):
    # observation 25 drives the weights of every point but the top one below
    # the smallest float; their logs stay finite, so observation 30 and the
    # eight after it, inside the full hull, are absorbed and converge
    y, design = underflowing_stream()
    grid = SupportGrid.tiled(UNDERFLOW_BETA_ROW, 2, UNDERFLOW_ERROR_ROW, 20)
    state = init_stream(GceProblem(y[:20], design[:20], grid))[0]
    underflowed = []
    for i in range(20, 40):
        state = update_step(state, y[i], design[i], UNDERFLOW_ERROR_ROW)
        underflowed.append(state.beta_prior.min() == 0.0)
        assert np.isfinite(state.log_prior).all()
    assert underflowed[5] and underflowed.index(False, 5) > 6
    report = stream_and_fold(
        caplog, y, design, 20,
        beta_support=UNDERFLOW_BETA_ROW, error_support=UNDERFLOW_ERROR_ROW,
    )
    assert report.skipped == () and not caplog.messages
    assert report.final_state.step_index == 40 and all(report.final_state.converged_log[1:])
    assert np.isfinite(report.final_state.log_prior).all()


def assert_same_report(got, want):
    """Two stream reports with the same bits in every output."""
    for name in ("beta_hat", "epsilon_hat", "entropy_ledger", "beta_trajectory"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.final_state.beta_prior.tobytes() == want.final_state.beta_prior.tobytes()
    assert tuple(got.final_state.converged_log) == tuple(want.final_state.converged_log)
    assert got.final_state.step_index == want.final_state.step_index
    assert got.skipped == want.skipped and got.all_converged == want.all_converged


def test_streams_folded_together_are_each_their_stream_alone(caplog):
    # one stream skips two infeasible blocks, one underflows its weights and
    # absorbs every later observation on its logs, the others are healthy;
    # g = 1 streams of one support are stacked, g = 7 blocks are absorbed
    # alone between them
    row = np.array([-4.0, 0.0, 4.0])
    y_skip, design = simulated(80, seed=191)
    zb = np.tile(BETA_ROW, (design.shape[1], 1))
    _, hi = solver._coefficient_hull(design, zb[:, 0], zb[:, -1])
    y_skip[37], y_skip[52] = 1e7, hi[52] + row[-1]
    y_under, x_under = underflowing_stream()
    local = np.random.default_rng(4)
    healthy_under = [
        (local.uniform(-0.5, 0.5, 40), np.column_stack([np.ones(40), local.uniform(0, 1, 40)]))
        for _ in range(2)
    ]
    under = dict(beta_support=UNDERFLOW_BETA_ROW, error_support=UNDERFLOW_ERROR_ROW)
    streams = [
        ((y_skip, design, 30, 1), dict(beta_support=BETA_ROW, error_support=row)),
        ((y_under, x_under, 20, 1), under),
        *(((*simulated(80, seed=s), 30, g), dict(beta_support=BETA_ROW, error_support=row))
          for s, g in ((3, 1), (4, 7), (5, 1))),
        ((y_skip, design, 30, 7), dict(beta_support=BETA_ROW, error_support=row)),
        *(((y, x, 20, 1), {**under, "error_support": [-1.0, 0.0, 1.0]}) for y, x in healthy_under),
        ((*simulated(80, seed=6), 30, 1), dict(beta_support=BETA_ROW, error_scale="cumulative")),
    ]
    alone, logged = [], []
    with caplog.at_level(logging.WARNING, logger="gcestream.streaming"):
        for args, kwargs in streams:
            alone.append(run_stream(*args, **kwargs))
        logged = sorted(caplog.messages)
        caplog.clear()
        prepared = [
            streaming_module._prepare_stream(
                *args, None, error_support=kwargs.get("error_support"),
                beta_support=kwargs["beta_support"], error_points=3,
                error_scale=kwargs.get("error_scale", "batch"),
            )
            for args, kwargs in streams
        ]
        folded, seconds = streaming_module._fold(prepared)
        assert sorted(caplog.messages) == logged
    assert alone[0].skipped == (37, 52) and alone[1].skipped == ()
    for got, want in zip(folded, alone):
        assert_same_report(got, want)
    assert len(seconds) == len(streams) and all(dt > 0.0 for dt in seconds)


def test_a_wide_block_that_raises_in_its_stack_fails_its_stream_only(monkeypatch):
    # three g = 7 streams stack their blocks in every round; one block of
    # the middle stream raises, in its stack and then alone
    row = np.array([-4.0, 0.0, 4.0])
    data = [simulated(80, seed=s) for s in (11, 12, 13)]
    alone = [run_stream(y, d, 30, 7, beta_support=BETA_ROW, error_support=row) for y, d in data]
    marker = data[1][0][46]  # in the middle stream's third block, 44..50
    absorb = streaming_module._absorb
    stacks = []

    def failing(carried, log_carried, zb, y, *args):
        if (y == marker).any():
            stacks.append(y.shape)
            raise RuntimeError("injected failure")
        return absorb(carried, log_carried, zb, y, *args)

    monkeypatch.setattr(streaming_module, "_absorb", failing)
    prepared = [
        streaming_module._prepare_stream(
            y, d, 30, 7, None, beta_support=BETA_ROW, error_support=row, error_points=3,
            error_scale="batch",
        )
        for y, d in data
    ]
    folded, seconds = streaming_module._fold(prepared)
    assert stacks == [(3, 7), (1, 7)]
    assert isinstance(folded[1], RuntimeError) and str(folded[1]) == "injected failure"
    for i in (0, 2):
        assert_same_report(folded[i], alone[i])
    assert all(dt > 0.0 for dt in seconds)


def test_irregular_rounds_of_one_group_are_each_stream_alone(caplog, monkeypatch):
    # one group (one support, error row width and settings): streams of
    # different lengths, g = 1 and g = 7 with remainders of 6 and 2 in one
    # round, batch-less streams, skips in the middle of a g = 1 and a g = 7
    # stack, a prior whose weights underflow while its logs carry on, and a
    # g = 1 and a g = 7 stream that raise mid-fold, in their stacks and alone
    local = np.random.default_rng(8)

    def healthy(n):
        return local.uniform(-0.5, 0.5, n), np.column_stack([np.ones(n), local.uniform(0, 1, n)])

    row = [-1.0, 0.0, 1.0]
    (y_skip1, x_skip1), (y_skip7, x_skip7) = healthy(40), healthy(47)
    y_skip1[27] = y_skip7[29] = 5.0  # outside every hull
    raising = [healthy(40), healthy(40)]
    streams = [
        ((*underflowing_stream(), 20, 1), UNDERFLOW_ERROR_ROW),
        ((*healthy(40), 20, 1), row),
        ((*healthy(47), 20, 7), row),
        ((*healthy(33), 10, 7), row),
        ((*healthy(25), 0, 1), row),
        ((*healthy(30), 0, 7), row),
        ((y_skip1, x_skip1, 20, 1), row),
        ((y_skip7, x_skip7, 20, 7), row),
        ((*raising[0], 20, 1), row),
        ((*raising[1], 19, 7), row),
    ]
    markers = (raising[0][0][30], raising[1][0][28])
    absorb = streaming_module._absorb

    def failing(carried, log_carried, zb, y, *args):
        if np.isin(y, markers).any():
            raise RuntimeError("injected failure")
        return absorb(carried, log_carried, zb, y, *args)

    monkeypatch.setattr(streaming_module, "_absorb", failing)
    alone = []
    with caplog.at_level(logging.WARNING, logger="gcestream.streaming"):
        for args, error_row in streams:
            try:
                alone.append(run_stream(
                    *args, beta_support=UNDERFLOW_BETA_ROW, error_support=error_row
                ))
            except RuntimeError as exc:
                alone.append(exc)
        logged = sorted(caplog.messages)
        caplog.clear()
        prepared = [
            streaming_module._prepare_stream(
                *args, None, beta_support=UNDERFLOW_BETA_ROW, error_support=error_row,
                error_points=3, error_scale="batch",
            )
            for args, error_row in streams
        ]
        wall = time.perf_counter()
        folded, seconds = streaming_module._fold(prepared)
        wall = time.perf_counter() - wall
        assert sorted(caplog.messages) == logged
    assert alone[0].skipped == ()
    assert alone[6].skipped == (27,)
    assert alone[7].skipped == tuple(range(27, 34))
    for got, want in zip(folded, alone):
        if isinstance(want, Exception):
            assert isinstance(got, RuntimeError) and str(got) == str(want)
        else:
            assert_same_report(got, want)
    assert [isinstance(got, Exception) for got in folded] == [False] * 8 + [True] * 2
    assert all(dt > 0.0 for dt in seconds)
    assert -1e-9 <= wall - sum(seconds) <= 1e-3


def prepare(args, gamma, **kwargs):
    """``_prepare_stream`` of ``run_stream``'s positional ``args`` at ``gamma``."""
    return streaming_module._prepare_stream(
        *args, UpdateSettings(gamma=gamma), error_points=3, error_scale="batch", **kwargs
    )


def test_lanes_that_differ_in_gamma_share_one_kernel(caplog, monkeypatch):
    # two g = 1 lanes on one support, at gamma 0.5 and 0.3, with update_step
    # calls before and after the fold: the kernel takes the objective weights
    # with each solve, so the solver's one kernel per thread serves both
    # lanes and the updates
    row = np.array([-4.0, 0.0, 4.0])
    y_skip, design = simulated(60, seed=191)
    y_skip[41] = 1e7
    cases = [((y_skip, design), 0.5), (simulated(60, seed=3), 0.3),
             (simulated(60, seed=4), 0.5), (simulated(60, seed=5), 0.3)]
    kwargs = dict(beta_support=BETA_ROW, error_support=row)
    built = []
    init = solver._StackKernel.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    with caplog.at_level(logging.WARNING, logger="gcestream.streaming"):
        alone = [
            run_stream(*data, 20, settings=UpdateSettings(gamma=gamma), **kwargs)
            for data, gamma in cases
        ]
        logged = sorted(caplog.messages)
        caplog.clear()
        prepared = [prepare((*data, 20, 1), gamma, **kwargs) for data, gamma in cases]
        state, y, x, error_row = stream_after_batch(n=30)
        settings = UpdateSettings(gamma=0.3)
        monkeypatch.setattr(solver._StackKernel, "__init__", counted_init)
        monkeypatch.setattr(solver, "_KERNELS", threading.local())
        state = update_step(state, y[8], x[8], error_row, settings)
        folded, _ = streaming_module._fold(prepared)
        update_step(state, y[9], x[9], error_row, settings)
        assert sorted(caplog.messages) == logged
    assert any("skipping block" in m for m in logged)
    assert len(built) == 1
    for got, want in zip(folded, alone):
        assert_same_report(got, want)


def test_the_fold_holds_one_lane_at_a_time(monkeypatch):
    # a lane's gathered blocks are freed with it before the next lane is built
    alive, seen = weakref.WeakSet(), []

    class Counted(streaming_module._Lane):
        def __init__(self, *args):
            seen.append(len(alive))
            alive.add(self)
            super().__init__(*args)

    kwargs = dict(beta_support=BETA_ROW, error_support=[-4.0, 0.0, 4.0])
    cases = [((*simulated(50, seed=s), 20, g), gamma)
             for s, g, gamma in ((21, 1, 0.5), (22, 7, 0.5), (23, 1, 0.3), (24, 1, 0.5))]
    alone = [run_stream(*args, settings=UpdateSettings(gamma=gamma), **kwargs)
             for args, gamma in cases]
    monkeypatch.setattr(streaming_module, "_Lane", Counted)
    folded, _ = streaming_module._fold([prepare(args, gamma, **kwargs) for args, gamma in cases])
    assert seen == [0, 0, 0] and len(alive) == 0
    for got, want in zip(folded, alone):
        assert_same_report(got, want)


def test_a_failed_stream_pins_nothing_of_its_lane(monkeypatch):
    # a stored failure keeps its type and message, not its traceback or the
    # failed stack attempt it was raised over, whose frames hold the lane;
    # with the cycle collector off, only references count
    alive = weakref.WeakSet()

    class Counted(streaming_module._Lane):
        def __init__(self, *args):
            alive.add(self)
            super().__init__(*args)

    kwargs = dict(beta_support=BETA_ROW, error_support=[-4.0, 0.0, 4.0])
    (y_bad, x_bad), healthy = simulated(50, seed=31), simulated(50, seed=32)
    absorb = streaming_module._absorb

    def failing(carried, log_carried, zb, y, *args):
        if (y == y_bad[30]).any():
            raise RuntimeError("injected failure")
        return absorb(carried, log_carried, zb, y, *args)

    want = run_stream(*healthy, 20, **kwargs)
    monkeypatch.setattr(streaming_module, "_absorb", failing)
    with pytest.raises(RuntimeError, match="^injected failure$"):
        run_stream(y_bad, x_bad, 20, **kwargs)
    monkeypatch.setattr(streaming_module, "_Lane", Counted)
    prepared = [prepare((*data, 20, 1), 0.5, **kwargs) for data in ((y_bad, x_bad), healthy)]
    gc.disable()
    try:
        folded, _ = streaming_module._fold(prepared)
        lanes = len(alive)
    finally:
        gc.enable()
    assert lanes == 0
    assert type(folded[0]) is RuntimeError and str(folded[0]) == "injected failure"
    assert_same_report(folded[1], want)


def test_a_stream_whose_report_raises_fails_alone(monkeypatch):
    kwargs = dict(beta_support=BETA_ROW, error_support=[-4.0, 0.0, 4.0])
    cases = [(*simulated(40, seed=s), 20, 1) for s in (41, 42, 43)]
    alone = [run_stream(*args, **kwargs) for args in cases]
    report = streaming_module._Lane.report

    def failing(self, p):
        if self.streams[p].y is prepared[1].y:
            raise RuntimeError("injected failure")
        return report(self, p)

    prepared = [prepare(args, 0.5, **kwargs) for args in cases]
    monkeypatch.setattr(streaming_module._Lane, "report", failing)
    folded, seconds = streaming_module._fold(prepared)
    assert type(folded[1]) is RuntimeError and str(folded[1]) == "injected failure"
    assert folded[1].__traceback__ is None
    assert_same_report(folded[0], alone[0])
    assert_same_report(folded[2], alone[2])
    assert all(dt > 0.0 for dt in seconds)


def test_logs_of_equal_but_distinct_arrays_compare_equal():
    from gcestream.streaming import _Log

    assert _Log(np.array([[1.0, 2.0]])) == _Log(np.array([[1.0, 2.0]]))
    assert _Log(np.array([[1.0, 2.0]])) != _Log(np.array([[1.0, 3.0]]))
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    rows.setflags(write=False)
    assert _Log(rows) == [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    assert _Log(rows) != [np.array([1.0, 2.0])]
    # a string is a sequence, but not of entries
    assert (_Log(np.array([1.0, 2.0])) == "ab") is False
    assert repr(_Log(np.array([1.0, 2.0]))) == "(1.0, 2.0)"


@pytest.mark.parametrize("y_bad", [None, 1e7])
def test_a_folded_stream_stores_its_logs_once(y_bad):
    # the report's arrays are the final state's logs, read-only; updating
    # the state copies them once and leaves the report alone, and continues
    # as a state with list logs does
    y, design = simulated(80, seed=3)
    if y_bad is not None:
        y[50] = y_bad  # a skipped block: its logs are copies without it
    row = np.array([-4.0, 0.0, 4.0])
    report = run_stream(y, design, 30, 1, beta_support=BETA_ROW, error_support=row)
    assert report.skipped == (() if y_bad is None else (50,))
    state = report.final_state
    names = ("epsilon_hat", "entropy_ledger", "beta_trajectory")
    logs = ("epsilon_log", "entropy_ledger", "beta_trajectory")
    for name, log in zip(names, logs):
        array = getattr(report, name)
        assert not array.flags.writeable
        assert np.shares_memory(np.asarray(getattr(state, log)), array)
    assert np.shares_memory(report.beta_trajectory, state.beta_trajectory[-1])
    before = [getattr(report, name).copy() for name in names]

    listed = StreamState(
        state.beta_prior, state.supports, state.step_index,
        *(list(getattr(state, log)) for log in (*logs, "converged_log")),
        log_prior=state.log_prior,
    )
    y_new, x_new = simulated(6, seed=4)
    for start in listed, state:
        after = block_update(start, y_new[:3], x_new[:3], row)
        after = update_step(after, y_new[3], x_new[3], row)
        after = block_update(after, y_new[4:], x_new[4:], row)
        if start is listed:
            want = after
    for log in (*logs, "converged_log"):
        assert getattr(after, log) == getattr(want, log)
    assert after.beta_prior.tobytes() == want.beta_prior.tobytes()
    for name, array in zip(names, before):
        assert getattr(report, name).tobytes() == array.tobytes()
    assert len(state.epsilon_log) == 80 - len(report.skipped)


LOGS = ("epsilon_log", "entropy_ledger", "beta_trajectory", "converged_log")


def test_a_branch_from_before_a_growth_sees_only_its_own_entries():
    from gcestream.streaming import _Log

    # a numeric log and a trajectory of two-coefficient rows
    for start, entries in ((np.array([0.0]), lambda v: [v]), (np.zeros((1, 2)), lambda v: [[v, v]])):
        before = _Log(start).extended(entries(1.0))  # two entries, room for four
        full = before.extended(entries(2.0) * 2)
        grown = full.extended(entries(4.0))  # outgrows the array: a new one, twice the size
        assert np.shares_memory(np.asarray(before), np.asarray(full))
        assert not np.shares_memory(np.asarray(full), np.asarray(grown))
        branch = before.extended(entries(7.0))
        twig = full.extended(entries(5.0))
        grown = grown.extended(entries(3.0))
        values = [np.asarray(log).reshape(len(log), -1)[:, 0].tolist()
                  for log in (before, full, grown, branch, twig)]
        assert values == [
            [0.0, 1.0], [0.0, 1.0, 2.0, 2.0], [0.0, 1.0, 2.0, 2.0, 4.0, 3.0],
            [0.0, 1.0, 7.0], [0.0, 1.0, 2.0, 2.0, 5.0],
        ]

    # the same through update_step: a stream whose logs outgrow their arrays
    # several times, branched from each of its states, before and after each
    # growth, continues as the same state built from lists does
    state, y, design, error_row = stream_after_batch(n=24, batch=8, seed=97)
    chain = [state]
    for i in range(8, 20):
        chain.append(update_step(chain[-1], y[i], design[i], error_row))
    def snapshot():
        return [[np.asarray(getattr(s, log)).tobytes() for log in LOGS] for s in chain]

    taken = snapshot()
    for k in range(len(chain)):
        branch = update_step(chain[k], y[21], design[21], error_row)
        listed = StreamState(chain[k].beta_prior, chain[k].supports, chain[k].step_index,
                             *(list(getattr(chain[k], log)) for log in LOGS),
                             log_prior=chain[k].log_prior)
        want = update_step(listed, y[21], design[21], error_row)
        for log in LOGS:
            assert getattr(branch, log) == getattr(want, log)
        assert snapshot() == taken
    onward = update_step(chain[-1], y[20], design[20], error_row)
    assert snapshot() == taken
    assert len(onward.entropy_ledger) == 13 and onward.epsilon_log[:-1] == chain[-1].epsilon_log[:]


@pytest.mark.parametrize("g", [1, 7])
def test_a_folded_state_continues_as_a_state_of_plain_lists(g):
    # continued by update_step and by a 40-observation block_update, a
    # folded final state gives bit for bit what the same state built from
    # lists gives, and its report's arrays stay as they were
    y, design = simulated(140, seed=5)
    row = np.array([-4.0, 0.0, 4.0])
    report = run_stream(y[:90], design[:90], 30, g, beta_support=BETA_ROW, error_support=row)
    names = ("epsilon_hat", "entropy_ledger", "beta_trajectory")
    before = [getattr(report, name).copy() for name in names]
    state = report.final_state
    listed = StreamState(state.beta_prior, state.supports, state.step_index,
                         *(list(getattr(state, log)) for log in LOGS), log_prior=state.log_prior)
    ends = []
    for start in (state, listed):
        after = update_step(start, y[90], design[90], row)
        ends.append(block_update(after, y[91:131], design[91:131], row))
    got, want = ends
    assert got.beta_prior.tobytes() == want.beta_prior.tobytes()
    assert got.step_index == want.step_index == 131
    for log in LOGS:
        got_log, want_log = np.asarray(getattr(got, log)), np.asarray(getattr(want, log))
        assert got_log.shape == want_log.shape and got_log.tobytes() == want_log.tobytes()
    assert len(got.entropy_ledger) == len(report.entropy_ledger) + 2
    for name, array in zip(names, before):
        assert getattr(report, name).shape == array.shape
        assert getattr(report, name).tobytes() == array.tobytes()


def test_log_entries_and_trajectory_rows_read_back_read_only():
    state, y, design, error_row = stream_after_batch(n=14, batch=8, seed=99)
    for i in range(8, 12):
        state = update_step(state, y[i], design[i], error_row)
    folded = run_stream(y, design, 8, 1, beta_support=BETA_ROW, error_support=error_row)
    for s in (state, folded.final_state):
        for log in LOGS:
            view = np.asarray(getattr(s, log))
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0] = view[-1]
        rows = [s.beta_trajectory[-1], *s.beta_trajectory, *s.beta_trajectory[1:]]
        for r in rows:
            assert not r.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                r[0] = 0.0
        assert type(s.entropy_ledger[-1]) is float and type(s.epsilon_log[0]) is float
        assert type(s.converged_log[-1]) is bool
        assert all(type(v) is float for v in s.epsilon_log[-3:])
    # reading a log leaves its later appends in place
    again = update_step(state, y[12], design[12], error_row)
    assert np.shares_memory(np.asarray(again.epsilon_log), np.asarray(state.epsilon_log))
    assert again.epsilon_log[:-1] == state.epsilon_log[:]


def test_state_refuses_trajectory_rows_that_are_not_j_long():
    grid = SupportGrid.tiled(BETA_ROW, 2, [-4.0, 0.0, 4.0], 1)
    prior = StreamState.uniform_start(grid).beta_prior
    wider = StreamState.uniform_start(SupportGrid.tiled(BETA_ROW, 3, [-4.0, 0.0, 4.0], 1))
    rows = ([[1.0, 2.0, 3.0]], [np.zeros(1)], [1.0, 2.0], np.zeros((2, 2, 1)),
            wider.beta_trajectory)
    for trajectory in rows:
        with pytest.raises(ValueError, match="beta_trajectory"):
            StreamState(prior, grid, 0, beta_trajectory=trajectory)
    with pytest.raises(ValueError):  # ragged rows
        StreamState(prior, grid, 0, beta_trajectory=[[1.0, 2.0], [1.0, 2.0, 3.0]])
    state = StreamState(prior, grid, 0, beta_trajectory=[[1.0, 2.0], (3.0, 4.0)])
    assert state.beta_trajectory == [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    assert StreamState(prior, grid, 0).beta_trajectory == ()


# ---------------------------------------------------------------------------
# run_stream's up-front checks
# ---------------------------------------------------------------------------


def assert_same_failure(run, fold):
    with pytest.raises(ValueError) as got:
        run()
    with pytest.raises(ValueError) as want:
        fold()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    return str(got.value)


def recorded_solves(monkeypatch):
    """A list that records every dual solve, in the solver and in the stream."""
    import gcestream.streaming as streaming_module

    solves = []
    solve_dual = solver._solve_dual

    def counted(*args):
        solves.append(args)
        return solve_dual(*args)

    monkeypatch.setattr(solver, "_solve_dual", counted)
    monkeypatch.setattr(streaming_module, "_solve_dual", counted)
    return solves


# (scale, where, value, message): a non-finite value fails the data check at
# either scale; a finite 1e308 overflows only a later cumulative error row,
# which names the response
BAD_AFTER_THE_BATCH = [
    *(
        (scale, where, value, "y and x must be finite")
        for scale in ("batch", "cumulative")
        for where, value in (("y", np.nan), ("y", np.inf), ("x", np.nan), ("x", -np.inf))
    ),
    (
        "cumulative", "y", 1e308,
        "response y[30] = 1e+308 is too large to scale an error_scale='cumulative' error "
        "support to; rescale y or pass error_support explicitly",
    ),
]


@pytest.mark.parametrize(
    "where, value, block_size, scale, message",
    [
        pytest.param(where, value, g, scale, message, id=f"{where}-{value}-{g}-{scale}")
        for scale, where, value, message in BAD_AFTER_THE_BATCH
        for g in (1, 4)
    ],
)
def test_non_finite_data_after_the_batch_fails_before_any_solve(
    caplog, monkeypatch, where, value, block_size, scale, message
):
    y, design = simulated(40, seed=201)
    y[25] = 1e7  # an infeasible block before the bad value: never reached
    if where == "y":
        y[30] = value
    else:
        design[30, 2] = value
    solves = recorded_solves(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="gcestream.streaming"):
        with pytest.raises(ValueError) as got:
            run_stream(y, design, 20, block_size, beta_support=BETA_ROW, error_scale=scale)
    assert str(got.value) == message
    assert not any("skipping block" in m for m in caplog.messages)
    assert solves == []


@pytest.mark.parametrize(
    "field, beta_row, error_row",
    [
        ("error_support", BETA_ROW, [-3e200, 0.0, 3e200]),
        ("beta_support", [-1e200, 0.0, 1e200], [-30.0, 0.0, 30.0]),
    ],
)
def test_a_row_whose_squared_span_overflows_fails_before_any_solve(
    monkeypatch, field, beta_row, error_row
):
    y, design = simulated(40, seed=201)
    state, _, _, _ = stream_after_batch()
    solves = recorded_solves(monkeypatch)
    refused = f"^{field} row 0 spans .* too wide"
    with pytest.raises(ValueError, match=refused):
        run_stream(y, design, 20, beta_support=beta_row, error_support=error_row)
    if field == "error_support":
        with pytest.raises(ValueError, match=refused):
            update_step(state, y[30], design[30], error_row)
        with pytest.raises(ValueError, match=refused):
            block_update(state, y[30:33], design[30:33], error_row)
    assert solves == []


@pytest.mark.parametrize("bad_first_block", [False, True])
def test_column_mismatch_without_a_batch_fails_as_in_a_fold(bad_first_block):
    y, design = simulated(12, seed=211)
    if bad_first_block:
        design[0, 1] = np.nan
    kwargs = dict(beta_support=np.tile(BETA_ROW, (2, 1)), error_support=[-30.0, 0.0, 30.0])
    message = assert_same_failure(
        lambda: run_stream(y, design, 0, 3, **kwargs),
        lambda: fold_of_block_updates(y, design, 0, 3, **kwargs),
    )
    expected = "y and x must be finite" if bad_first_block else "covers 2 coefficients"
    assert expected in message


@pytest.mark.parametrize("batch_size", [0, 10])
@pytest.mark.parametrize(
    "row, fragment",
    [
        ([0.5, 1.0, 2.0], "span zero"),
        ([-1.0, np.nan, 1.0], "finite"),
        ([-1.0, 1.0, 1.0], "strictly increasing"),
        ([1.0], "at least 2 columns"),
    ],
)
def test_malformed_error_support_fails_as_in_a_fold(batch_size, row, fragment):
    y, design = simulated(20, seed=221)
    kwargs = dict(beta_support=BETA_ROW, error_support=row)
    message = assert_same_failure(
        lambda: run_stream(y, design, batch_size, **kwargs),
        lambda: fold_of_block_updates(y, design, batch_size, **kwargs),
    )
    assert fragment in message


@pytest.mark.parametrize("block_size", [1, 7])
@pytest.mark.parametrize(
    "rows, message",
    [
        ([[-30.0, 0.0, 30.0], [40.0, 50.0, 60.0]], "every error_support row must span zero"),
        ([[-30.0, 0.0, 30.0], [-40.0, 0.0, 40.0]], "error_support must be one row, got 2 rows"),
    ],
)
def test_run_stream_takes_one_error_support_row(monkeypatch, block_size, rows, message):
    y, design = simulated(60, seed=3)
    solves = recorded_solves(monkeypatch)
    with pytest.raises(ValueError, match=f"^{message}"):
        run_stream(y, design, 20, block_size, beta_support=BETA_ROW, error_support=rows)
    assert solves == []
    flat, shaped = (
        run_stream(y, design, 20, block_size, beta_support=BETA_ROW, error_support=row)
        for row in (rows[0], rows[:1])
    )
    assert flat.skipped == shaped.skipped == ()
    assert np.array_equal(flat.beta_trajectory, shaped.beta_trajectory)
    assert np.array_equal(flat.entropy_ledger, shaped.entropy_ledger)
    assert np.array_equal(flat.epsilon_hat, shaped.epsilon_hat)
    assert np.array_equal(flat.final_state.beta_prior, shaped.final_state.beta_prior)
    assert np.array_equal(
        flat.final_state.supports.error_support, shaped.final_state.supports.error_support
    )
    assert flat.final_state.supports.error_support.shape == (20, 3)


def test_an_underflowed_prior_checks_no_hull_of_a_later_step(monkeypatch):
    # liveness is fixed when a state is built from weights: once a carried
    # weight underflows to zero its log stays finite, so every later step
    # keeps the full hull, takes the scalar test and checks no hull
    y, design = underflowing_stream()
    grid = SupportGrid.tiled(UNDERFLOW_BETA_ROW, 2, UNDERFLOW_ERROR_ROW, 20)
    states = [init_stream(GceProblem(y[:20], design[:20], grid))[0]]
    skipped, first_zero = [], None
    for i in range(20, 40):
        try:
            states.append(update_step(states[-1], y[i], design[i], UNDERFLOW_ERROR_ROW))
        except InfeasibleObservationError:
            skipped.append(i)
            continue
        if first_zero is None and states[-1].beta_prior.min() == 0.0:
            first_zero = i
    assert first_zero is not None and first_zero < 39 and skipped == []

    checked = []
    check_hull = streaming_module._check_hull

    def counted(y_block, *args):
        checked.append(float(y_block[0]))
        check_hull(y_block, *args)

    monkeypatch.setattr(streaming_module, "_check_hull", counted)
    report = run_stream(
        y, design, 20, beta_support=UNDERFLOW_BETA_ROW, error_support=UNDERFLOW_ERROR_ROW
    )
    update_step(states[-1], y[39], design[39], UNDERFLOW_ERROR_ROW)
    assert checked == []
    assert_stream_is_the_fold(report, states[-1], tuple(skipped))


# ---------------------------------------------------------------------------
# One liveness rule: a weight below ZERO_CLAMP is an exact zero everywhere
# ---------------------------------------------------------------------------


SUB_CLAMP_ROW = [-1.0, 0.0, 1.0]


def sub_clamp_state(weight=1e-305):
    """A one-coefficient state on ``BETA_ROW`` whose point -10 carries ``weight``.

    Only that point reaches y = -9 at x = 1: the live hull is [-6, 11].
    """
    grid = SupportGrid([BETA_ROW], [SUB_CLAMP_ROW])
    return StreamState(np.array([[weight, 0.25, 0.25, 0.25, 0.25]]), grid, 0)


def sub_clamp_paths(state, y):
    """The three ways to absorb ``y`` at x = 1 into ``state``: a problem, a step, a block of 2."""
    prior = JointDistribution(state.beta_prior, np.full((1, 3), 1.0 / 3.0))
    return {
        "problem": lambda: solve_gce(GceProblem([y], [[1.0]], state.supports, prior)),
        "update_step": lambda: update_step(state, y, [1.0], SUB_CLAMP_ROW),
        "block_update": lambda: block_update(state, [y, 3.0], [[1.0], [1.0]], SUB_CLAMP_ROW),
    }


@pytest.mark.parametrize("path", ["problem", "update_step", "block_update"])
def test_a_weight_below_the_clamp_is_dead_to_the_hull_check(path):
    # the solve gives the weight log prior -inf, so y = -9 is out of reach;
    # the RuntimeWarning filter fails the test on an overflowing solve
    with pytest.raises(InfeasibleObservationError) as got:
        sub_clamp_paths(sub_clamp_state(), -9.0)[path]()
    assert type(got.value) is InfeasibleObservationError
    assert str(got.value) == "observation(s) 0 fall outside the attainable hull [-6.0, 11.0]"
    assert got.value.indices == (0,) and (got.value.lo, got.value.hi) == (-6.0, 11.0)


def test_a_weight_below_the_clamp_that_y_does_not_need_steps_as_an_exact_zero():
    results = [
        {path: run() for path, run in sub_clamp_paths(sub_clamp_state(weight), 3.0).items()}
        for weight in (1e-305, 0.0)
    ]
    tiny, zero = results
    for name in ("beta_hat", "epsilon_hat", "multipliers"):
        assert getattr(tiny["problem"], name).tobytes() == getattr(zero["problem"], name).tobytes()
    for path in ("update_step", "block_update"):
        assert tiny[path].beta_prior.tobytes() == zero[path].beta_prior.tobytes()
        for log in ("epsilon_log", "entropy_ledger", "beta_trajectory", "converged_log"):
            assert np.asarray(getattr(tiny[path], log)).tobytes() == np.asarray(
                getattr(zero[path], log)
            ).tobytes(), log


def test_a_fold_from_a_weight_below_the_clamp_skips_the_block_its_live_hull_refuses(caplog):
    state = sub_clamp_state()
    y, x = np.array([0.5, -9.0, 3.0]), np.ones((3, 1))
    fit = streaming_module._Fit(state.beta_prior, state.beta_hat, np.array([0.5]), True)
    start = StreamState(
        state.beta_prior, state.supports, 1, epsilon_log=fit.epsilon_hat,
        beta_trajectory=(fit.beta_hat,), converged_log=(True,),
    )
    with caplog.at_level(logging.WARNING, logger="gcestream.streaming"):
        stream = streaming_module._prepare_stream(
            y, x, 1, 1, None, beta_support=[BETA_ROW], error_support=SUB_CLAMP_ROW,
            error_points=3, error_scale="batch", batch_fit=fit,
        )
        (report,), _ = streaming_module._fold([stream])
        logged = list(caplog.messages)
        caplog.clear()
        skipped = []
        for i in (1, 2):
            try:
                start = block_update(start, y[i : i + 1], x[i : i + 1], SUB_CLAMP_ROW)
            except InfeasibleObservationError as exc:
                skipped.append(i)
                logging.getLogger("gcestream.streaming").warning(
                    "skipping block %d (observations %d..%d): %s (offending: %s)",
                    i - 1, i, i, exc, [i + k for k in exc.indices],
                )
        assert caplog.messages == logged
    assert skipped == [1]
    assert_stream_is_the_fold(report, start, (1,))
    assert "outside the attainable hull [-6.0, 11.0]" in logged[0]


# per start: its x row, error row, the observations after its batch (the
# third outside its live hull only) and that live hull
DEAD_POINT_STREAMS = {
    "zero-edged": (zero_edged_state, [1.0, 0.5, 0.25], EDGE_ROW,
                   [14.0, 15.0, 18.0, 12.0, 16.4, 16.45, -10.0], "[-16.5, 16.5]"),
    "sub-clamp": (sub_clamp_state, [1.0], SUB_CLAMP_ROW,
                  [10.5, 10.9, -9.0, -4.0, 10.99999, 10.9999, 3.0], "[-6.0, 11.0]"),
}


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("case", DEAD_POINT_STREAMS)
def test_a_streams_dead_points_never_change_and_its_fold_skips_a_block_outside_them(
    caplog, case, g
):
    # every state of a block_update chain, and the fold's final state, keeps
    # the start's dead points (log -inf) while live weights fall as low as
    # 1e-156; so a block outside the start's live hull stays outside, and the
    # fold skips it with the message block_update raises
    make, x_row, row, post, hull = DEAD_POINT_STREAMS[case]
    first = make()
    dead = first.log_prior == -np.inf
    assert dead.any()
    y = np.array([0.5, *post])  # observation 0 is the batch the start stands for
    x = np.tile(x_row, (y.size, 1))
    fit = streaming_module._Fit(first.beta_prior, first.beta_hat, np.array([0.5]), True)
    state = StreamState(
        first.beta_prior, first.supports, 1, epsilon_log=fit.epsilon_hat,
        beta_trajectory=(fit.beta_hat,), converged_log=(True,),
    )
    with caplog.at_level(logging.WARNING, logger="gcestream.streaming"):
        stream = streaming_module._prepare_stream(
            y, x, 1, g, None, beta_support=first.supports.beta_support, error_support=row,
            error_points=3, error_scale="batch", batch_fit=fit,
        )
        (report,), _ = streaming_module._fold([stream])
    assert np.flatnonzero(~stream.inside).tolist() == [3]
    raised, skipped = [], []
    for t, i in enumerate(range(1, y.size, g)):
        stop = min(i + g, y.size)
        try:
            state = block_update(state, y[i:stop], x[i:stop], row)
        except InfeasibleObservationError as exc:
            skipped.extend(range(i, stop))
            raised.append(f"skipping block {t} (observations {i}..{stop - 1}): {exc} "
                          f"(offending: {[i + k for k in exc.indices]})")
            continue
        assert np.array_equal(state.log_prior == -np.inf, dead)
        assert state.converged_log[-1]
    assert caplog.messages == raised
    assert len(raised) == 1
    assert f"observation(s) 0 fall outside the attainable hull {hull}" in raised[0]
    assert_stream_is_the_fold(report, state, tuple(skipped))
    assert np.array_equal(report.final_state.log_prior == -np.inf, dead)


# ---------------------------------------------------------------------------
# The ledger is checked where its entries are made
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1e-11, math.nan])
def test_a_state_built_with_a_bad_ledger_entry_raises(bad):
    state, y, design, error_row = stream_after_batch(n=10, batch=8, seed=67)
    state = update_step(state, y[8], design[8], error_row)
    entries = [*state.entropy_ledger, bad]
    fields = dict(beta_prior=state.beta_prior, supports=state.supports, step_index=9)
    for build in (
        lambda: StreamState(**fields, entropy_ledger=entries),
        lambda: dataclasses.replace(state, entropy_ledger=entries),
        lambda: dataclasses.replace(state, entropy_ledger=state.entropy_ledger.extended([bad])),
    ):
        with pytest.raises(ValueError, match="^entropy ledger entries must be finite"):
            build()
    assert dataclasses.replace(state, entropy_ledger=[*state.entropy_ledger, -1e-12])


@pytest.mark.parametrize("m", [1, 2])
def test_a_step_whose_ledger_entry_is_nan_raises_and_leaves_the_state_untouched(
    monkeypatch, m
):
    state, y, design, error_row = stream_after_batch(n=12, batch=8, seed=67)
    state = update_step(state, y[8], design[8], error_row)
    logs = ("epsilon_log", "entropy_ledger", "beta_trajectory", "converged_log")
    before = {name: np.asarray(getattr(state, name)).copy() for name in logs}
    monkeypatch.setattr(solver._DualPoint, "kl", lambda self: np.full(len(self.pb), math.nan))
    with pytest.raises(ValueError, match="^entropy ledger entries must be finite"):
        block_update(state, y[9 : 9 + m], design[9 : 9 + m], error_row)
    for name in logs:
        log = getattr(state, name)
        assert np.array_equal(np.asarray(log), before[name]), name
        assert log._filled[0] == len(log), name  # no log grew past the caller's entries
    monkeypatch.undo()
    assert_state_rebuilds_to_itself(update_step(state, y[9], design[9], error_row))


def test_a_g1_stream_builds_one_state_after_the_batch(monkeypatch):
    built = []
    post_init = StreamState.__post_init__

    def counted(self):
        built.append(self.step_index)
        post_init(self)

    monkeypatch.setattr(StreamState, "__post_init__", counted)
    y, design = simulated(60, seed=231)
    report = run_stream(y, design, batch_size=20, beta_support=BETA_ROW)
    assert report.entropy_ledger.size == 40
    assert built == [60]  # the final one; the batch fit builds no state


def test_a_live_stream_trusts_its_precomputed_hull(monkeypatch):
    # the batch problem checks its hull through solver, which stays unpatched
    import gcestream.streaming as streaming_module

    calls = []
    check_hull = streaming_module._check_hull

    def counted(y, *args):
        calls.append(y.size)
        check_hull(y, *args)

    monkeypatch.setattr(streaming_module, "_check_hull", counted)
    y, design = simulated(60, seed=231)
    report = run_stream(y, design, batch_size=20, beta_support=BETA_ROW)
    assert report.skipped == () and report.final_state.beta_prior.min() > 0.0
    assert calls == []  # as block_update, the reference below, trusts it on a positive prior
    state, _ = fold_of_block_updates(y, design, 20, beta_support=BETA_ROW)
    assert_stream_is_the_fold(report, state, ())


def test_a_one_observation_stream_builds_one_kernel_and_evaluates_only_iterates(monkeypatch):
    # the point at lam = 0 comes from the carried prior's moments, so each
    # kernel evaluation is one Newton iteration, and one kernel serves the stream
    kernel = solver._StackKernel
    built, evaluations, iterations, curvatures = [], [], [], []
    init, at, solve, curvature = kernel.__init__, kernel.at, kernel.solve, kernel.curvature

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_at(self, lam):
        evaluations.append(lam)
        return at(self, lam)

    def counted_solve(self, *args):
        result = solve(self, *args)
        iterations.extend(result[2])
        return result

    def counted_curvature(self, p, means):
        curvatures.append(self)
        return curvature(self, p, means)

    monkeypatch.setattr(kernel, "__init__", counted_init)
    monkeypatch.setattr(kernel, "at", counted_at)
    monkeypatch.setattr(kernel, "solve", counted_solve)
    monkeypatch.setattr(kernel, "curvature", counted_curvature)
    monkeypatch.setattr(solver, "_KERNELS", threading.local())
    y, design = simulated(60, seed=231)
    report = run_stream(y, design, batch_size=20, beta_support=BETA_ROW)
    assert report.skipped == () and report.all_converged
    assert len(built) == 1
    assert len(iterations) == 40 and sum(iterations) > 40
    assert len(evaluations) == sum(iterations)
    # curvature is formed once per Newton step, never at a solve's final
    # point: one fewer than the points each solve evaluates (start's and at's)
    assert len(curvatures) == sum(iterations)
    assert len(curvatures) == len(evaluations) + len(iterations) - 40


def test_updates_on_one_thread_share_one_kernel(monkeypatch):
    # the kernel keeps nothing of a problem between solves and takes the
    # objective weights with each, so the solver's one per thread serves
    # every one-observation update on the same supports, at any gamma
    built = []
    init = solver._StackKernel.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    state, y, design, error_row = stream_after_batch(n=30)
    monkeypatch.setattr(solver._StackKernel, "__init__", counted_init)
    monkeypatch.setattr(solver, "_KERNELS", threading.local())
    states = [state]
    for i in range(8, 20):
        states.append(update_step(states[-1], y[i], design[i], error_row))
    assert len(built) == 1
    other = update_step(state, y[8], design[8], error_row, UpdateSettings(gamma=0.3))
    assert len(built) == 1 and other.beta_hat.tolist() != states[1].beta_hat.tolist()
    again = update_step(state, y[8], design[8], error_row)
    assert len(built) == 1
    assert again.beta_prior.tobytes() == states[1].beta_prior.tobytes()


def test_one_observation_fits_and_updates_on_one_thread_share_one_kernel(monkeypatch):
    # the kernel is keyed on the values of the coefficient supports and the
    # error prior, so one-observation fits on a stream's grid and its updates
    # reuse one, in any order, each solve with the bits of a fresh kernel
    built = []
    init = solver._StackKernel.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    state, y, design, error_row = stream_after_batch(n=30)
    grid = SupportGrid.tiled(BETA_ROW, design.shape[1], error_row, 1)

    def run(kinds, fresh):
        current, out = state, []
        for i, kind in zip(range(8, 28), kinds):
            if fresh:
                monkeypatch.setattr(solver, "_KERNELS", threading.local())
            if kind == "fit":
                fit = solve_gce(GceProblem(y[i : i + 1], design[i : i + 1], grid))
                out.append((fit.multipliers.tobytes(), fit.distributions.beta.tobytes()))
            else:
                current = update_step(current, y[i], design[i], error_row)
                out.append((current.beta_prior.tobytes(), current.entropy_ledger[-1]))
        return out

    monkeypatch.setattr(solver._StackKernel, "__init__", counted_init)
    counts = []
    for kinds in (["update"] * 10, ["fit"] * 10, ["update", "fit"] * 10):
        monkeypatch.setattr(solver, "_KERNELS", threading.local())
        built.clear()
        got = run(kinds, fresh=False)
        counts.append(len(built))
        assert got == run(kinds, fresh=True)
    assert counts == [1, 1, 1]


def test_the_blocks_of_a_stream_form_the_log_of_their_error_row_once(monkeypatch):
    # 48 blocks of 40 on one shared error row: the first block forms its log
    # prior, which the thread keeps, and the rest read it; a one-shot fit
    # between them forms its tiled grid's one row for its problem's hull
    # check, and its solve reads the thread's; no solve of more than one
    # observation builds a one-observation kernel
    logged, kernels = [], []
    log_priors = solver._log_priors

    def counted(q):
        if q.shape[-2] == 1:  # an error row; coefficient priors have J = 3 rows
            logged.append(q.shape)
        return log_priors(q)

    class Kernel(solver._StackKernel):
        def __init__(self, *args):
            kernels.append(args)
            super().__init__(*args)

    state, y, design, error_row = stream_after_batch(n=20 + 48 * 40, batch=20)
    monkeypatch.setattr(solver, "_log_priors", counted)
    monkeypatch.setattr(solver, "_StackKernel", Kernel)
    monkeypatch.setattr(solver, "_KERNELS", threading.local())
    grid = SupportGrid.tiled(BETA_ROW, design.shape[1], error_row, 40)
    for start in range(20, y.size, 40):
        if start == 20 + 24 * 40:
            solve_gce(GceProblem(y[:40], design[:40], grid))
        state = block_update(state, y[start : start + 40], design[start : start + 40], error_row)
    assert state.step_index == y.size and all(state.converged_log)
    assert logged == [(1, 3), (1, 3)]
    assert kernels == []


def test_the_blocks_of_a_stream_normalize_their_error_row_once_per_value(monkeypatch):
    # 48 blocks of 40, the first 24 on one shared error row of 3 points and
    # the rest on one of 5: the thread keeps each uniform error prior's start
    # weights with its log, so the prior is normalized once per value, and
    # every state is the one a fresh thread (a cold cache at every block) gives
    normalized = []
    error_start = solver._error_start

    def counted(log_qe):
        normalized.append(log_qe.tobytes())
        return error_start(log_qe)

    start, y, design, error_row = stream_after_batch(n=20 + 48 * 40, batch=20)
    wide = np.linspace(error_row[0], error_row[-1], 5)
    rows = [error_row if k < 24 else wide for k in range(48)]

    def run(fresh):
        state, states = start, []
        for k, row in enumerate(rows):
            if fresh:
                monkeypatch.setattr(solver, "_KERNELS", threading.local())
            a = 20 + 40 * k
            state = block_update(state, y[a : a + 40], design[a : a + 40], row)
            states.append((state.beta_prior.tobytes(), state.log_prior.tobytes()))
        return states

    monkeypatch.setattr(solver, "_error_start", counted)
    monkeypatch.setattr(solver, "_KERNELS", threading.local())
    cached = run(fresh=False)
    assert normalized == [core_module._uniform_log_row(h).tobytes() for h in (3, 5)]
    normalized.clear()
    assert run(fresh=True) == cached
    assert len(normalized) == 48


def test_threads_updating_at_once_each_use_their_own_kernel():
    # every thread updates from one state, so all ask for the same kernel; a
    # kernel shared between threads would have its buffers reloaded by one
    # thread in the middle of another's solve
    state, y, design, error_row = stream_after_batch(n=40)

    def chain():
        current = state
        for i in range(8, 40):
            current = update_step(current, y[i], design[i], error_row)
        return current.beta_prior.tobytes()

    want = chain()
    workers = 4
    barrier = threading.Barrier(workers, timeout=60)
    results = {}

    def run(k):
        barrier.wait()
        results[k] = chain()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == {k: want for k in range(workers)}


# ---------------------------------------------------------------------------
# settings validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.1, 1.5, math.nan, "0.5", None, True])
def test_gamma_must_be_strictly_interior(gamma):
    with pytest.raises(ValueError, match=r"^gamma must lie strictly in \(0, 1\), got "):
        UpdateSettings(gamma=gamma)


def test_gamma_below_the_least_error_weight_is_refused():
    # 1 - gamma is never below 2**-53, and gamma may not be either: the solve
    # divides by both, and near the smallest floats the first Newton step's
    # tilt and curvature overflowed
    refused = r"^gamma must be at least 2\*\*-53 \(about 1\.1e-16\), got "
    for gamma in (1e-308, 5e-324, 2.0**-54):
        with pytest.raises(ValueError, match=refused):
            UpdateSettings(gamma=gamma)
    # the least gamma accepted solves every one-observation step
    y, design = simulated(60, seed=231)
    settings = UpdateSettings(gamma=2.0**-53)
    report = run_stream(y, design, 20, settings=settings, beta_support=BETA_ROW)
    assert report.skipped == () and report.all_converged


@pytest.mark.parametrize("solver_settings", [None, {"max_iterations": 5}, 1e-8])
def test_update_solver_must_be_solver_settings(solver_settings):
    with pytest.raises(ValueError, match="^solver must be a SolverSettings, got "):
        UpdateSettings(solver=solver_settings)


# ---------------------------------------------------------------------------
# duplicated regressors
# ---------------------------------------------------------------------------


def test_duplicate_columns_get_identical_coefficients():
    # two identical design columns with identical supports and priors are
    # interchangeable, so every fit must give them the same coefficient, to
    # the last bit
    y, base = simulated(240, seed=161)
    design = np.column_stack([base, base[:, 1]])
    sd = float(np.std(y[:120], ddof=1))
    error_row = np.array([-3.0 * sd, 0.0, 3.0 * sd])
    one_shot = solve_gce(GceProblem(
        y, design, SupportGrid.tiled(BETA_ROW, design.shape[1], error_row, y.size)
    ))
    assert one_shot.diagnostics.converged
    fits = {"one-shot": one_shot.beta_hat}
    for g in (1, 40):
        report = run_stream(
            y, design, batch_size=120, block_size=g, beta_support=BETA_ROW,
            error_support=error_row,
        )
        assert report.all_converged and report.skipped == ()
        fits[f"g={g}"] = report.beta_hat
        assert np.all(report.beta_trajectory[:, 1] == report.beta_trajectory[:, 3])
    for name, beta in fits.items():
        assert beta[1] == beta[3], name
        assert beta[1] != beta[2]
