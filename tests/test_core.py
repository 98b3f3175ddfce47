import math
import pickle
import re

import numpy as np
import pytest

from gcestream import (
    JointDistribution,
    SupportGrid,
    expectation,
    kl_divergence,
    shannon_entropy,
)
from gcestream import core
from gcestream.core import (
    SUM_TOLERANCE,
    ZERO_CLAMP,
    _checked_row,
    _error_rows,
    _row_sums,
    _simplex_rows,
    _support_rows,
    _uniform_row,
    _uniform_rows,
)

rng = np.random.default_rng(314159)

WIDE_SUPPORT = [-100.0, -50.0, 0.0, 50.0, 100.0]


def random_simplex(size):
    return JointDistribution(rng.dirichlet(np.full(size, 1.0)), [0.5, 0.5]).beta[0]


def uniform_row(size):
    return np.full(size, 1.0 / size)


# ---------------------------------------------------------------------------
# JointDistribution construction: every rule holds row by row
# ---------------------------------------------------------------------------


def test_weights_are_renormalized_and_read_only():
    rows = np.array([[0.25, 0.25, 0.25, 0.25 + 5e-13], [0.5, 0.5 - 5e-13, 0.0, 0.0]])
    joint = JointDistribution(rows, rows[::-1])
    for weights in (joint.beta, joint.error):
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        with pytest.raises(ValueError):
            weights[0, 0] = 0.9


@pytest.mark.parametrize(
    "bad",
    [
        [0.5, 0.4],  # sum far from one
        [1.2, -0.2],  # negative entry
        [0.5, 0.5, np.nan],
        [1.0],  # single point is not a distribution
    ],
)
def test_invalid_weights_rejected(bad):
    good = uniform_row(len(bad))
    for position in range(3):
        beta = np.vstack([good, good, good])
        beta[position] = bad
        with pytest.raises(ValueError):
            JointDistribution(beta, [[0.5, 0.5]])
        with pytest.raises(ValueError):
            JointDistribution([[0.5, 0.5]], beta)


def test_row_sum_tolerance_is_per_row():
    barely = [0.5, 0.5 + 0.9 * SUM_TOLERANCE]
    too_far = [0.5, 0.5 + 2.0 * SUM_TOLERANCE]
    JointDistribution([[0.5, 0.5], barely], [[0.5, 0.5]])
    with pytest.raises(ValueError, match="row 1"):
        JointDistribution([[0.5, 0.5], too_far], [[0.5, 0.5]])
    # a tall stack, as the solver's error weights arrive (an F-ordered view)
    tall = np.full((500, 3), 1.0 / 3.0)
    tall[[137, 400], 1] += 2.0 * SUM_TOLERANCE
    message = re.escape(f"error row 137 sums to {tall[137].sum()!r}, expected")
    for stack in (tall, np.asfortranarray(tall)):
        with pytest.raises(ValueError, match=f"^{message}"):
            JointDistribution([[0.5, 0.5]], stack)


@pytest.mark.parametrize("size", range(2, 8))
def test_row_sums_are_the_last_axis_sums_bit_for_bit(size):
    # values spread over many magnitudes, so any change of summation order shows
    tall = rng.normal(size=(300, size)) * np.exp(rng.uniform(-20.0, 20.0, size=(300, size)))
    for a in (tall[7], tall[:1], tall, np.asfortranarray(tall), np.asfortranarray(tall[:1])):
        got, want = np.asarray(_row_sums(a)), np.asarray(a.sum(axis=-1))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h", range(2, 33))
def test_a_row_sums_and_renormalizes_to_the_same_bits_alone_and_in_a_stack(h):
    # a lone row is added in the order of a stack's rows, so its sum and its
    # renormalized weights do not depend on how many rows it is stacked with
    others = rng.dirichlet(np.ones(h), size=4)
    for row in (np.full(h, 1.0 / h), rng.dirichlet(np.ones(h))):
        total, weights = _row_sums(row[None]), _simplex_rows(row)
        for n in (2, 5):
            stack = np.vstack([row, others[: n - 1]])
            assert _row_sums(stack)[:1].tobytes() == total.tobytes()
            assert _simplex_rows(stack)[:1].tobytes() == weights.tobytes()
    uniform = _simplex_rows(np.full((5, h), 1.0 / h))[:1]
    for n in (1, 2, 5):
        assert _uniform_rows(n, h, "error")[:1].tobytes() == uniform.tobytes()


def test_weight_arrays_need_at_least_one_row():
    with pytest.raises(ValueError):
        JointDistribution(np.empty((0, 3)), [[0.5, 0.5]])
    with pytest.raises(ValueError):
        JointDistribution(np.full((1, 2, 2), 0.5), [[0.5, 0.5]])


def test_uniform_constructor():
    g = SupportGrid.tiled(WIDE_SUPPORT, 3, [-1.0, 0.0, 1.0], 2)
    joint = JointDistribution.uniform(g)
    assert joint.beta.shape == (3, 5) and joint.error.shape == (2, 3)
    np.testing.assert_allclose(joint.beta, 0.2)
    np.testing.assert_allclose(joint.error, 1.0 / 3.0)


@pytest.mark.parametrize("size", [2, 3, 7, 20])
def test_random_simplexes_sum_to_one(size):
    joint = JointDistribution(rng.dirichlet(np.full(size, 1.0), size=50), [[0.5, 0.5]])
    assert np.all(np.abs(joint.beta.sum(axis=1) - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# SupportGrid
# ---------------------------------------------------------------------------


def test_tiled_grid_shapes():
    g = SupportGrid.tiled(WIDE_SUPPORT, 3, [-3.0, 0.0, 3.0], 10)
    assert g.beta_support.shape == (3, 5)
    assert g.error_support.shape == (10, 3)
    assert g.n_params == 3 and g.n_beta_points == 5
    assert g.n_obs == 10 and g.n_error_points == 3


def test_grid_rejects_non_increasing_rows():
    with pytest.raises(ValueError):
        SupportGrid(np.array([[0.0, 0.0, 1.0]]), np.array([[-1.0, 1.0]]))


def test_error_rows_must_span_zero():
    with pytest.raises(ValueError):
        SupportGrid(np.array([[0.0, 1.0]]), np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        SupportGrid(np.array([[0.0, 1.0]]), np.array([[-2.0, -1.0]]))


WIDE_ERROR_ROW = [-3e200, 0.0, 3e200]  # build_error_support([0, 1e200, -1e200])


@pytest.mark.parametrize(
    "beta_row, error_row, field",
    [
        ([-10.0, 0.0, 10.0], WIDE_ERROR_ROW, "error_support"),
        ([-1e200, 0.0, 1e200], [-3.0, 0.0, 3.0], "beta_support"),
        ([1e200, 1.0000001e200], [-3.0, 0.0, 3.0], "beta_support"),
    ],
)
def test_a_row_whose_squared_span_overflows_is_refused(beta_row, error_row, field):
    # the solver squares deviations across a row; such a row overflowed them
    # with numpy's "overflow encountered" warning inside the first solve
    refused = f"^{field} row 0 spans .* too wide: the square of its span overflows"
    with pytest.raises(ValueError, match=refused):
        SupportGrid.tiled(beta_row, 2, error_row, 3)


def test_rows_of_large_points_with_a_narrow_span_stay_accepted():
    # only the span is squared: points far from zero close together are fine
    grid = SupportGrid.tiled([1e160, 1e160 + 1e150], 1, [-1e153, 0.0, 1e153], 2)
    assert grid.beta_support.tolist() == [[1e160, 1e160 + 1e150]]
    assert grid.error_support.tolist() == [[-1e153, 0.0, 1e153]] * 2


@pytest.mark.parametrize("n", [1, 2, 40])
def test_a_tiled_grid_is_the_grid_of_its_tiled_rows(n):
    beta_row, error_row = [-10.0, -2.5, 0.0, 7.0, 10.0], [-3.0, 0.0, 0.5, 3.0]
    tiled = SupportGrid.tiled(beta_row, n + 1, error_row, n)
    full = SupportGrid(np.tile(beta_row, (n + 1, 1)), np.tile(error_row, (n, 1)))
    for got, want in ((tiled.beta_support, full.beta_support),
                      (tiled.error_support, full.error_support)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 40])
@pytest.mark.parametrize(
    "beta_row, error_row",
    [
        ([0.0, math.nan], [-1.0, 1.0]),
        ([0.0, 1.0], [-1.0, math.inf]),
        ([0.0, 0.0, 1.0], [-1.0, 1.0]),
        ([0.0, 1.0], [-1.0, 1.0, 0.5]),
        ([0.0, 1.0], [0.5, 1.0]),
        ([0.0, 1.0], [-2.0, -1.0]),
        ([-1e200, 1e200], [-1.0, 1.0]),
        ([0.0, 1.0], [-1e200, 1e200]),
        ([0.0], [-1.0, 1.0]),
    ],
)
def test_a_tiled_grid_refuses_a_row_as_its_constructor_does(n, beta_row, error_row):
    with pytest.raises(ValueError) as want:
        SupportGrid(np.tile(beta_row, (n, 1)), np.tile(error_row, (n, 1)))
    for _ in range(2):  # an invalid row is never kept: it raises on every call
        with pytest.raises(ValueError) as got:
            SupportGrid.tiled(beta_row, n, error_row, n)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("n_params, n_obs", [(0, 1), (1, 0), (0, 0)])
def test_a_tiled_grid_of_no_rows_is_refused(n_params, n_obs):
    name = "beta_support" if n_params < 1 else "error_support"
    for _ in range(2):  # the valid rows are kept after the first call
        with pytest.raises(ValueError, match=f"^{name} must have at least one row$"):
            SupportGrid.tiled([0.0, 1.0], n_params, [-1.0, 1.0], n_obs)


@pytest.mark.parametrize("field", ["beta_support", "error_support"])
def test_a_support_stack_of_no_rows_is_refused_by_its_name(field):
    rows = {"beta_support": [[0.0, 1.0]], "error_support": [[-1.0, 1.0]]}
    rows[field] = np.empty((0, 3))
    with pytest.raises(ValueError, match=f"^{field} must be 2-D .* at least one row$"):
        SupportGrid(**rows)


def test_invalid_rows_raise_on_every_call_and_are_never_kept():
    core._cached_row.cache_clear()
    core._uniform_row.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError, match="strictly increasing"):
            _checked_row([0.0, 0.0, 1.0], "beta_support")
        with pytest.raises(ValueError, match="must be finite"):
            _checked_row([[0.0, math.nan]], "beta_support")
        with pytest.raises(ValueError, match="must span zero"):
            _checked_row([0.5, 1.0], "error_support")
        with pytest.raises(ValueError, match="at least two entries"):
            _uniform_row(1, "beta")
    for cache in (core._cached_row, core._uniform_row):
        info = cache.cache_info()
        assert info.currsize == 0 and info.hits == 0
    assert (core._cached_row.cache_info().misses, core._uniform_row.cache_info().misses) == (9, 3)


@pytest.mark.parametrize("h", [2, 3, 7, 9])
def test_kept_rows_are_read_only_and_have_the_checked_bits(h):
    beta = np.cumsum(rng.uniform(0.5, 2.0, size=h)) - 1.5 * h
    error = np.linspace(-3.0, 3.0, h) + 0.1
    for _ in range(2):  # the first call keeps each row, the second reads it
        for got, want in (
            (_checked_row(beta, "beta_support"), _support_rows(beta, "beta_support")),
            (_checked_row(error[None], "error_support"), _error_rows(error)),
            (_uniform_row(h, "error"), _simplex_rows(np.full((1, h), 1.0 / h), "error")),
        ):
            assert got.shape == want.shape == (1, h) and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0] = 1.0
    # a 1-D row and a (1, H) one are one value; the caller's array is not kept
    row = error.copy()
    kept = _checked_row(row, "error_support")
    assert kept is _checked_row(row[None], "error_support")
    row[:] = 0.0
    assert kept.tobytes() == _error_rows(error).tobytes()


def test_a_tiled_grid_and_its_uniform_prior_hold_one_row_of_each_kind():
    n = 10**6
    grid = SupportGrid.tiled(WIDE_SUPPORT, 3, [-3.0, 0.0, 3.0], n)
    prior = JointDistribution.uniform(grid)
    assert grid.error_support.shape == prior.error.shape == (n, 3)
    for rows in (grid.beta_support, grid.error_support, prior.beta, prior.error):
        # every row is the one row in memory: O(H) data, whatever the count
        assert rows.strides == (0, rows.itemsize) and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[-1, 0] = 1.0
    back = pickle.loads(pickle.dumps(grid))
    for got, want in ((back.beta_support, grid.beta_support),
                      (back.error_support, grid.error_support)):
        assert got.shape == want.shape and np.array_equal(got, want)
    # the constructor checks and stores every row it is given, as rows
    copied = SupportGrid(grid.beta_support[:4], grid.error_support[:4])
    assert copied.error_support.strides[0] != 0 and copied.error_support.shape == (4, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 40])
@pytest.mark.parametrize("h", range(2, 13))
def test_uniform_weights_are_the_checked_uniform_stacks(h, n):
    grid = SupportGrid.tiled(np.arange(h) - 0.5, n, np.arange(h) - 0.5, n)
    got = JointDistribution.uniform(grid)
    want = JointDistribution(np.full((n, h), 1.0 / h), np.full((n, h), 1.0 / h))
    for a, b in ((got.beta, want.beta), (got.error, want.error)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable


def test_joint_distribution_matches_grid():
    g = SupportGrid.tiled(WIDE_SUPPORT, 2, [-3.0, 0.0, 3.0], 4)
    joint = JointDistribution.uniform(g)
    assert joint.matches_grid(g)
    assert joint.beta.shape == (2, 5)
    assert joint.error.shape == (4, 3)
    smaller = SupportGrid.tiled(WIDE_SUPPORT, 2, [-3.0, 0.0, 3.0], 3)
    assert not joint.matches_grid(smaller)


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------


def test_expectation_uniform_symmetric_support_is_zero():
    assert expectation(uniform_row(5), WIDE_SUPPORT) == pytest.approx(0.0)


def test_expectation_point_mass():
    d = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert expectation(d, WIDE_SUPPORT) == -100.0


def test_expectation_hand_dot_product():
    # direct summation: .1*-100 + .2*-50 + .3*0 + .2*50 + .2*100 = 10
    d = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
    assert expectation(d, WIDE_SUPPORT) == pytest.approx(10.0, abs=1e-12)


def test_expectation_length_mismatch():
    with pytest.raises(ValueError):
        expectation(uniform_row(3), WIDE_SUPPORT)


def test_expectation_is_linear_in_mixtures():
    z = rng.normal(size=6)
    for _ in range(25):
        p = random_simplex(6)
        q = random_simplex(6)
        a = rng.uniform()
        mix = a * p + (1 - a) * q
        direct = a * expectation(p, z) + (1 - a) * expectation(q, z)
        assert expectation(mix, z) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# shannon_entropy
# ---------------------------------------------------------------------------


def test_entropy_point_mass_is_zero():
    d = np.array([0.0, 1.0, 0.0])
    assert shannon_entropy(d) == 0.0


def test_entropy_uniform_is_log_count():
    assert shannon_entropy(uniform_row(5)) == pytest.approx(math.log(5))


def test_entropy_half_half_with_zeros():
    d = np.array([0.5, 0.5, 0.0, 0.0])
    assert shannon_entropy(d) == pytest.approx(math.log(2), abs=1e-15)


@pytest.mark.parametrize("size", [2, 4, 9])
def test_uniform_maximizes_entropy(size):
    for _ in range(100):
        assert shannon_entropy(random_simplex(size)) <= math.log(size) + 1e-12


# ---------------------------------------------------------------------------
# kl_divergence
# ---------------------------------------------------------------------------


def test_kl_of_distribution_with_itself_is_zero():
    for size in (2, 5, 11):
        p = random_simplex(size)
        assert kl_divergence(p, p) == 0.0


def test_kl_against_uniform_equals_log_n_minus_entropy():
    for size in (3, 6, 10):
        p = random_simplex(size)
        u = uniform_row(size)
        expected = math.log(size) - shannon_entropy(p)
        assert kl_divergence(p, u) == pytest.approx(expected, abs=1e-12)


def test_kl_hand_value():
    # direct summation: .9*ln(.9/.5) + .1*ln(.1/.5)
    p = np.array([0.9, 0.1])
    q = np.array([0.5, 0.5])
    expected = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)


def test_kl_requires_domination():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="dominate"):
        kl_divergence(p, q)
    # one dominated row among fine ones still fails the whole stack
    with pytest.raises(ValueError, match="dominate"):
        kl_divergence(np.vstack([q, p, q]), np.vstack([q, q, q]))


def test_kl_length_mismatch():
    with pytest.raises(ValueError):
        kl_divergence(uniform_row(2), uniform_row(3))
    with pytest.raises(ValueError):
        kl_divergence(np.full((2, 3), 1 / 3), np.full((3, 3), 1 / 3))


def test_kl_nonnegative_and_zero_only_at_equality():
    for _ in range(200):
        size = int(rng.integers(2, 8))
        p = random_simplex(size)
        q = random_simplex(size)
        val = kl_divergence(p, q)
        assert val >= 0.0
        if val <= 1e-12:
            assert np.max(np.abs(p - q)) < 1e-9


def test_kl_zero_weights_contribute_nothing():
    p = np.array([0.0, 0.3, 0.7])
    q = np.array([0.2, 0.3, 0.5])
    expected = 0.3 * math.log(1.0) + 0.7 * math.log(0.7 / 0.5)
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# row-wise evaluation
# ---------------------------------------------------------------------------


def rows_with_zeros(count, size):
    """Random simplex rows, some with exact zeros or entries below ZERO_CLAMP."""
    rows = rng.dirichlet(np.full(size, 0.7), size=count)
    rows[rng.uniform(size=rows.shape) < 0.2] = 0.0
    rows[rng.uniform(size=rows.shape) < 0.1] = ZERO_CLAMP * rng.uniform(1e-3, 0.9)
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("size", [2, 3, 5, 9])
def test_stacked_functionals_equal_row_by_row(size):
    p = rows_with_zeros(60, size)
    q = rows_with_zeros(60, size)
    q = np.where(p > 0.0, np.maximum(q, 0.01), q)  # q dominates p
    q /= q.sum(axis=1, keepdims=True)
    z = np.sort(rng.normal(scale=10.0, size=(60, size)), axis=1)
    assert np.any(p == 0.0) and np.any((p > 0.0) & (p < ZERO_CLAMP))

    for stacked, single in (
        (kl_divergence(p, q), [kl_divergence(a, b) for a, b in zip(p, q)]),
        (shannon_entropy(p), [shannon_entropy(a) for a in p]),
        (expectation(p, z), [expectation(a, b) for a, b in zip(p, z)]),
    ):
        assert stacked.shape == (60,)
        assert all(isinstance(v, float) for v in single)
        np.testing.assert_allclose(stacked, single, rtol=0.0, atol=1e-15)
    assert np.all(kl_divergence(p, q) >= 0.0)
    assert np.all(kl_divergence(p, p) == 0.0)


def test_sub_clamp_weights_count_as_zero():
    tiny = ZERO_CLAMP / 2.0
    p = np.array([tiny, 0.5 - tiny, 0.5])
    q = np.array([0.0, 0.5, 0.5])
    assert kl_divergence(p, q) == pytest.approx(0.0, abs=1e-15)
    assert shannon_entropy(p) == pytest.approx(math.log(2), abs=1e-15)


def masked_kl(p, q):
    """The masked KL arithmetic written out: the reference for every input."""
    live, q_live = p >= ZERO_CLAMP, q >= ZERO_CLAMP
    ratio = p / np.where(q_live, q, 1.0)
    return np.maximum(_row_sums(np.where(live, p * np.log(np.where(live, ratio, 1.0)), 0.0)), 0.0)


@pytest.mark.parametrize("h", [2, 3, 9])
def test_the_kl_pass_has_the_masked_bits_on_live_rows(h):
    p = rng.dirichlet(np.full(h, 0.8), size=3840)
    q = rng.dirichlet(np.full(h, 0.8), size=3840)
    prior = np.broadcast_to(q[:1], p.shape)  # one shared row, as a tiled grid's prior
    cases = [(p[i], q[i]) for i in range(20)] + [(p[:1], q[:1]), (p[:7], q[:7]), (p, q), (p, prior)]
    for a, b in cases:
        assert min(a.min(), b.min()) >= ZERO_CLAMP  # every weight live
        got = np.asarray(kl_divergence(a, b))
        assert got.shape == a.shape[:-1] and got.tobytes() == masked_kl(a, b).tobytes()


@pytest.mark.parametrize("h", [2, 3, 9])
def test_a_dead_weight_keeps_the_masked_values_and_the_dominance_error(h):
    p = rng.dirichlet(np.full(h, 0.8), size=40)
    q = rng.dirichlet(np.full(h, 0.8), size=40)
    for dead in (0.0, ZERO_CLAMP / 2.0, -0.0, -1e-3, math.nan):
        a = p.copy()
        a[5, 1] = dead
        for pa, qa in ((a, q), (a[5], q[5]), (a, np.broadcast_to(q[:1], a.shape))):
            got = np.asarray(kl_divergence(pa, qa))
            assert got.tobytes() == masked_kl(pa, qa).tobytes()
        b = q.copy()
        b[5, 1] = dead  # q dead where p is dead too: no error
        assert np.asarray(kl_divergence(a, b)).tobytes() == masked_kl(a, b).tobytes()
    refused = "^reference distribution must dominate: q vanishes where p > 0$"
    for vanished in (0.0, ZERO_CLAMP / 2.0):  # q vanishes where p is live
        b = q.copy()
        b[5, 1] = vanished
        for pq in ((p, b), (p[5], b[5])):
            with pytest.raises(ValueError, match=refused):
                kl_divergence(*pq)
