import logging
import math
import sys
import threading
import time

import numpy as np
import pytest

import oracles
from gcestream import solver
from gcestream.simulation import _scaled_error_support
from gcestream import (
    GceProblem,
    InfeasibleObservationError,
    JointDistribution,
    StreamState,
    SupportGrid,
    UpdateSettings,
    block_update,
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


@pytest.mark.parametrize(
    "y_new, x_new, error, message",
    [
        (np.nan, [1.0, 0.5, 0.25], ValueError, "y and x must be finite"),
        (0.0, [1.0, 0.5], ValueError, "x has 2 columns"),
        (18.0, [1.0, 0.5, 0.25], InfeasibleObservationError, "outside"),
        (16.5, [1.0, 0.5, 0.25], InfeasibleObservationError, "boundary"),
        (-16.5, [1.0, 0.5, 0.25], InfeasibleObservationError, "boundary"),
    ],
)
def test_single_step_input_contract(y_new, x_new, error, message):
    state = zero_edged_state()
    with pytest.raises(error, match=message) as got:
        update_step(state, y_new, x_new, EDGE_ROW)
    if error is InfeasibleObservationError:
        assert got.value.indices == (0,)
    # the state is untouched and still absorbs a feasible observation
    assert update_step(state, 16.0, [1.0, 0.5, 0.25], EDGE_ROW).step_index == 11


def test_a_single_step_validates_once_and_builds_no_problem_objects(monkeypatch):
    import gcestream.core as core_module
    import gcestream.streaming as streaming_module

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
    assert calls == {"rows": 1, "GceProblem": 0, "JointDistribution": 0, "SupportGrid": 0}


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
    # prior underflows to zero on some points, where the Gibbs form and the
    # weights' KL pass round apart by up to 2e-14 on an entry of 1.6
    state, y, design, error_row = stream_after_batch(n=30, batch=6, seed=61)
    blocks = [state]
    for start in range(6, 30, 4):
        rows = slice(start, start + 4)
        blocks.append(block_update(blocks[-1], y[rows], design[rows], error_row))
    y, design = underflowing_stream()
    grid = SupportGrid.tiled(UNDERFLOW_BETA_ROW, 2, UNDERFLOW_ERROR_ROW, 20)
    underflowed = [init_stream(GceProblem(y[:20], design[:20], grid))[0]]
    for i in range(20, 40):
        try:
            underflowed.append(
                update_step(underflowed[-1], y[i], design[i], UNDERFLOW_ERROR_ROW)
            )
        except InfeasibleObservationError:
            pass
    assert underflowed[-1].beta_prior.min() == 0.0
    for states in (blocks, underflowed):
        for before, after in zip(states, states[1:]):
            entry = after.entropy_ledger[-1]
            recomputed = kl_divergence(after.beta_prior, before.beta_prior).sum()
            assert abs(entry - recomputed) <= 1e-13 * max(1.0, entry)
            assert entry >= 0.0
    assert max(underflowed[-1].entropy_ledger) > 1.0


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
    assert again.beta_trajectory[-2] is other.beta_trajectory[-1]


def test_concurrent_branches_each_keep_their_own_entry():
    # many threads extend the same log at once; a lost check-then-append
    # race would let one branch see another branch's entry. The list yields
    # the interpreter inside its length check to open that window wide.
    from gcestream.streaming import _Log

    class YieldingList(list):
        def __len__(self):
            size = super().__len__()
            time.sleep(1e-4)
            return size

    bases = [_Log(YieldingList([0.0, 1.0]), 0.0) for _ in range(20)]
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


def test_an_underflowed_prior_takes_the_masked_hull_check(caplog):
    y, design = underflowing_stream()
    report = stream_and_fold(
        caplog, y, design, 20,
        beta_support=UNDERFLOW_BETA_ROW, error_support=UNDERFLOW_ERROR_ROW,
    )
    assert np.array_equal(report.final_state.beta_prior, [[0.0, 0.0, 1.0]] * 2)
    assert any("underflowed" in m for m in caplog.messages)
    assert 30 in report.skipped and 31 not in report.skipped


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
    assert built == [20, 60]  # init_stream's, then the final one


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
    state, _ = fold_of_block_updates(y, design, 20, beta_support=BETA_ROW)
    assert_stream_is_the_fold(report, state, ())
    assert calls == []


def test_a_one_observation_stream_builds_one_kernel_and_evaluates_only_iterates(monkeypatch):
    # the point at lam = 0 comes from the carried prior's moments, so each
    # kernel evaluation is one Newton iteration, and one kernel serves the stream
    kernel = solver._ScalarKernel
    built, evaluations, iterations = [], [], []
    init, at, solve = kernel.__init__, kernel.at, kernel.solve

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_at(self, lam):
        evaluations.append(lam)
        return at(self, lam)

    def counted_solve(self, *args):
        result = solve(self, *args)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(kernel, "__init__", counted_init)
    monkeypatch.setattr(kernel, "at", counted_at)
    monkeypatch.setattr(kernel, "solve", counted_solve)
    y, design = simulated(60, seed=231)
    report = run_stream(y, design, batch_size=20, beta_support=BETA_ROW)
    assert report.skipped == () and report.all_converged
    assert len(built) == 1
    assert len(iterations) == 40 and sum(iterations) > 40
    assert len(evaluations) == sum(iterations)


# ---------------------------------------------------------------------------
# settings validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.1, 1.5, math.nan, "0.5", None, True])
def test_gamma_must_be_strictly_interior(gamma):
    with pytest.raises(ValueError, match=r"^gamma must lie strictly in \(0, 1\), got "):
        UpdateSettings(gamma=gamma)


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
