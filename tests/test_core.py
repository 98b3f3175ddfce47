import math
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
from gcestream.core import SUM_TOLERANCE, ZERO_CLAMP, _row_sums

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
