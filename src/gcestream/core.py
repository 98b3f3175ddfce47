"""Finite-support probability objects and the information functionals on them.

Everything downstream works with reparameterized regressions: each coefficient
and each noise term is written as the expectation of a discrete distribution
over a small, fixed support row. This module holds those building blocks:
support grids, the joint container of simplex weight rows, and the three
functionals (expectation, Shannon entropy, KL divergence) the estimators
optimize.

Conventions shared by the whole package:

* a distribution is a row of a 2-D weight array, one row per coefficient or
  observation; the functionals take one row (1-D, giving a float) or a stack
  of rows (2-D, giving one value per row);
* weights are nonnegative and sum to one within ``SUM_TOLERANCE`` at
  construction, then are renormalized so the stored sums are exact;
* weights smaller than ``ZERO_CLAMP`` are treated as exact zeros inside
  logarithms, and the convention 0 * log(0) = 0 applies throughout;
* all containers are immutable values holding read-only arrays, safe to
  share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SUM_TOLERANCE",
    "ZERO_CLAMP",
    "SupportGrid",
    "JointDistribution",
    "expectation",
    "shannon_entropy",
    "kl_divergence",
]

#: Tolerance on |sum(weights) - 1| accepted at construction time.
SUM_TOLERANCE = 1e-12

#: Weights below this value are clamped to exact zero before any logarithm.
ZERO_CLAMP = 1e-300


def _row_sums(a: np.ndarray):
    """``a.sum(axis=-1)`` for a 1-D or 2-D array, reduced along the long axis.

    A 2-D stack is summed as its contiguous transpose along axis 0, a few
    vector passes instead of one short reduction per row; for an F-ordered
    stack the transpose is a free view. numpy adds rows of fewer than 8
    points in sequence either way, so the sums are bit-identical to
    ``a.sum(axis=-1)`` there; wider rows agree to the last few ulps.
    """
    if a.ndim == 1:
        return a.sum()
    return np.add.reduce(np.ascontiguousarray(a.T), axis=0)


def _simplex_rows(values, name: str = "weights", renormalize: bool = True) -> np.ndarray:
    """Validate a stack of simplex rows and return a read-only, C-ordered copy.

    Every row must be finite and nonnegative, have at least two entries and
    sum to one within ``SUM_TOLERANCE``; a 1-D input is one row. The copy is
    renormalized unless ``renormalize`` is false, which keeps weights that
    were normalized before bit for bit.
    """
    w = np.atleast_2d(np.array(values, dtype=float, order="C"))
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 2:
        raise ValueError(f"{name} must be one or more rows of at least two entries")
    if not np.isfinite(w).all():
        raise ValueError(f"{name} must be finite")
    if (w < 0.0).any():
        raise ValueError(f"{name} must be nonnegative, got min {w.min()!r}")
    total = _row_sums(w)
    off = np.abs(total - 1.0) > SUM_TOLERANCE
    if off.any():
        row = int(np.argmax(off))
        raise ValueError(
            f"{name} row {row} sums to {total[row]!r}, expected 1 within {SUM_TOLERANCE}"
        )
    if renormalize:
        w /= total[:, None]
    w.setflags(write=False)
    return w


def _support_rows(values, name: str) -> np.ndarray:
    """Validate a stack of support rows and return a read-only copy.

    Rows must be finite and strictly increasing with at least two points; a
    1-D input is one row.
    """
    rows = np.atleast_2d(np.array(values, dtype=float))
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValueError(f"{name} must be 2-D with at least 2 columns")
    if not np.isfinite(rows).all():
        raise ValueError(f"{name} must be finite")
    if (rows[:, 1:] <= rows[:, :-1]).any():
        raise ValueError(f"{name} rows must be strictly increasing")
    rows.setflags(write=False)
    return rows


def _error_rows(values) -> np.ndarray:
    """``_support_rows`` for error supports, whose rows must also span zero."""
    rows = _support_rows(values, "error_support")
    if (rows[:, 0] >= 0.0).any() or (rows[:, -1] <= 0.0).any():
        raise ValueError("every error_support row must span zero (min < 0 < max)")
    return rows


def _integer(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int; ``error`` naming ``name`` unless it is a whole number.

    Integral floats such as ``40.0`` are whole numbers; booleans, strings and
    fractions such as ``40.5`` are not, so nothing is silently truncated.
    """
    if type(value) is int:  # the common case, without the abstract-base checks
        return value
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportGrid:
    """Fixed support points for every coefficient row and every noise row.

    ``beta_support`` has one row per regression coefficient (shape ``(J, K)``)
    and ``error_support`` one row per observation (shape ``(m, H)``). Rows are
    strictly increasing; every error row must bracket zero so that noiseless
    observations stay representable.
    """

    beta_support: np.ndarray
    error_support: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta_support", _support_rows(self.beta_support, "beta_support"))
        object.__setattr__(self, "error_support", _error_rows(self.error_support))

    @classmethod
    def tiled(
        cls,
        beta_points: Sequence[float],
        n_params: int,
        error_points: Sequence[float],
        n_obs: int,
    ) -> "SupportGrid":
        """Repeat one coefficient row ``n_params`` times and one error row ``n_obs`` times."""
        beta_row = np.asarray(beta_points, dtype=float)
        error_row = np.asarray(error_points, dtype=float)
        return cls(np.tile(beta_row, (n_params, 1)), np.tile(error_row, (n_obs, 1)))

    @property
    def n_params(self) -> int:
        return int(self.beta_support.shape[0])

    @property
    def n_beta_points(self) -> int:
        return int(self.beta_support.shape[1])

    @property
    def n_obs(self) -> int:
        return int(self.error_support.shape[0])

    @property
    def n_error_points(self) -> int:
        return int(self.error_support.shape[1])


@dataclass(frozen=True)
class JointDistribution:
    """One simplex row per coefficient plus one per observation.

    ``beta`` has shape ``(J, K)`` and ``error`` shape ``(m, H)``. Every row of
    both is checked (finite, nonnegative, at least two points, sum within
    ``SUM_TOLERANCE`` of one) in one pass, renormalized and stored read-only.
    """

    beta: np.ndarray
    error: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _simplex_rows(self.beta, "beta"))
        object.__setattr__(self, "error", _simplex_rows(self.error, "error"))

    @classmethod
    def uniform(cls, grid: SupportGrid) -> "JointDistribution":
        k, h = grid.n_beta_points, grid.n_error_points
        return cls(np.full((grid.n_params, k), 1.0 / k), np.full((grid.n_obs, h), 1.0 / h))

    def matches_grid(self, grid: SupportGrid) -> bool:
        """True when the weight arrays have the shapes of the grid's support arrays."""
        return (
            self.beta.shape == grid.beta_support.shape
            and self.error.shape == grid.error_support.shape
        )


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * log(y) where x is at least the clamp, exact zero elsewhere."""
    live = x >= ZERO_CLAMP
    return np.where(live, x * np.log(np.where(live, y, 1.0)), 0.0)


def _per_row(values: np.ndarray):
    """A float for one row, the array of per-row values for a stack."""
    return float(values) if values.ndim == 0 else values


def expectation(weights, support):
    """Weighted mean of each support row under the matching weight row."""
    w = np.asarray(weights, dtype=float)
    z = np.asarray(support, dtype=float)
    if z.shape != w.shape:
        raise ValueError(f"support has shape {z.shape}, weights have {w.shape}")
    return _per_row((w * z).sum(axis=-1))


def shannon_entropy(weights):
    """Shannon entropy of each row in nats; zero weights contribute nothing."""
    w = np.asarray(weights, dtype=float)
    return _per_row(-_xlogy(w, w).sum(axis=-1))


def kl_divergence(p, q):
    """KL divergence of each row of ``p`` from the matching row of ``q``.

    ``q`` must dominate ``p``: a ValueError is raised when some ``p`` weight
    is positive where ``q`` vanishes (after clamping), since the divergence
    is infinite there.
    """
    pw = np.asarray(p, dtype=float)
    qw = np.asarray(q, dtype=float)
    if pw.shape != qw.shape:
        raise ValueError(f"shape mismatch: {pw.shape} vs {qw.shape}")
    q_live = qw >= ZERO_CLAMP
    if ((pw >= ZERO_CLAMP) & ~q_live).any():
        raise ValueError("reference distribution must dominate: q vanishes where p > 0")
    value = _row_sums(_xlogy(pw, pw / np.where(q_live, qw, 1.0)))
    # Exact zero for identical rows; tiny negative values are pure rounding.
    return _per_row(np.maximum(value, 0.0))
