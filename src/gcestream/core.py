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
* weights smaller than ``ZERO_CLAMP`` are exact zeros, not only inside
  logarithms: a point is live when its weight is at least ``ZERO_CLAMP``, for
  the hull, the stream's trust test, the solver and the functionals alike,
  and the convention 0 * log(0) = 0 applies throughout;
* all containers are immutable values holding read-only arrays, safe to
  share across threads.
"""

from __future__ import annotations

import functools
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

#: Weights below this value count as exact zeros: in logarithms, hulls and liveness tests.
ZERO_CLAMP = 1e-300


def _row_sums(a: np.ndarray):
    """``a.sum(axis=-1)`` for a 1-D or 2-D array, reduced along the long axis.

    A 2-D stack is summed as its contiguous transpose along axis 0, a few
    vector passes instead of one short reduction per row; for an F-ordered
    stack the transpose is a free view. Each row is added in sequence, so
    its sum has the same bits alone and in a stack of any size. numpy adds
    rows of fewer than 8 points in sequence in ``a.sum(axis=-1)`` too, so
    the sums are bit-identical to it there; wider rows agree to the last
    few ulps. A 1-D row is summed as ``a.sum()`` sums it.
    """
    if len(a) == 1 and a.ndim == 2:  # its (H, 1) transpose would be summed as one vector
        return np.add.reduce(np.repeat(a.T, 2, axis=1), axis=0)[:1]
    return np.add.reduce(np.ascontiguousarray(a.T), axis=0)


def _simplex_rows(values, name: str = "weights", renormalize: bool = True) -> np.ndarray:
    """Validate a stack of simplex rows and return a read-only, C-ordered copy.

    Every row must be finite and nonnegative, have at least two entries and
    sum to one within ``SUM_TOLERANCE``; a 1-D input is one row. The copy is
    renormalized unless ``renormalize`` is false, which keeps weights that
    were normalized before bit for bit.
    """
    w = np.array(values, dtype=float, order="C", ndmin=2)
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 2:
        raise ValueError(f"{name} must be one or more rows of at least two entries")
    # every weight finite and nonnegative, from the two extremes (NaN fails both)
    if not (np.minimum.reduce(w, axis=None) >= 0.0 and np.maximum.reduce(w, axis=None) < np.inf):
        if not np.isfinite(w).all():
            raise ValueError(f"{name} must be finite")
        raise ValueError(f"{name} must be nonnegative, got min {w.min()!r}")
    columns = np.ascontiguousarray(w.T)  # summed and divided along the long axis, as _gibbs_rows
    total = _row_sums(columns.T)
    off = np.abs(total - 1.0)
    if np.maximum.reduce(off) > SUM_TOLERANCE:
        row = int(np.argmax(off > SUM_TOLERANCE))
        raise ValueError(
            f"{name} row {row} sums to {total[row]!r}, expected 1 within {SUM_TOLERANCE}"
        )
    if renormalize:
        np.divide(columns, total, out=w.T)
    w.setflags(write=False)
    return w


#: Support points no larger than this in magnitude span at most 2**511, whose
#: square is finite; only a wider row needs its span squared.
_SAFE_SUPPORT = 2.0**510


def _support_rows(values, name: str) -> np.ndarray:
    """Validate a stack of support rows and return a read-only copy.

    Rows must be finite and strictly increasing with at least two points; a
    1-D input is one row. The square of a row's span must be finite too:
    the solver squares deviations across a row, which a wider row would
    overflow. One test of the largest magnitude clears every row of
    ordinary size.
    """
    rows = np.array(values, dtype=float, ndmin=2)
    if rows.ndim != 2 or rows.shape[1] < 2 or rows.shape[0] < 1:
        raise ValueError(f"{name} must be 2-D with at least 2 columns and at least one row")
    if not np.abs(rows).max() <= _SAFE_SUPPORT:  # NaN included
        if not np.isfinite(rows).all():
            raise ValueError(f"{name} must be finite")
        with np.errstate(over="ignore"):
            squared = (rows[:, -1] - rows[:, 0]) ** 2
        if not np.isfinite(squared).all():
            row = int(np.argmin(np.isfinite(squared)))
            lo, hi = float(rows[row, 0]), float(rows[row, -1])
            raise ValueError(
                f"{name} row {row} spans [{lo!r}, {hi!r}], too wide: "
                "the square of its span overflows; rescale the data and the supports"
            )
    if (rows[:, 1:] <= rows[:, :-1]).any():
        raise ValueError(f"{name} rows must be strictly increasing")
    rows.setflags(write=False)
    return rows


def _error_rows(values) -> np.ndarray:
    """``_support_rows`` for error supports, whose rows must also span zero."""
    rows = _support_rows(values, "error_support")
    # the rows are finite and increasing: every first point below zero and
    # every last one above it
    if not rows[:, 0].max() < 0.0 < rows[:, -1].min():
        raise ValueError("every error_support row must span zero (min < 0 < max)")
    return rows


@functools.lru_cache(maxsize=16)
def _cached_row(name: str, data: bytes, shape: tuple) -> np.ndarray:
    """The checked rows of float64 ``data`` of ``shape``, kept per value; see ``_checked_row``."""
    rows = np.frombuffer(data).reshape(shape)
    return _error_rows(rows) if name == "error_support" else _support_rows(rows, name)


def _checked_row(values, name: str) -> np.ndarray:
    """One row, 1-D or ``(1, H)``, checked by ``_error_rows`` if ``name`` is "error_support",
    else by ``_support_rows``, once per value: an invalid value raises on every call, and a
    kept row is read-only."""
    rows = np.asarray(values, dtype=float)  # a 1-D row and a (1, H) one are one key
    return _cached_row(name, rows.tobytes(), (1,) * (2 - rows.ndim) + rows.shape)


def _tiled(row: np.ndarray, n, name: str) -> np.ndarray:
    """``n`` copies of the checked ``(1, H)`` ``row``: a read-only broadcast view of it."""
    if not n >= 1:
        raise ValueError(f"{name} must have at least one row")
    return np.broadcast_to(row, (n, row.shape[1]))


def _shared(rows: np.ndarray) -> np.ndarray:
    """The one rule for "one row": ``rows[:1]`` when ``rows`` broadcasts it (row stride 0)."""
    return rows[:1] if rows.strides[0] == 0 else rows


@functools.lru_cache(maxsize=16)
def _uniform_row(k: int, name: str) -> np.ndarray:
    """One uniform ``(1, k)`` row, checked with a stack's bits once per value; read-only."""
    return _simplex_rows(np.full((1, k), 1.0 / k), name)


def _uniform_rows(n: int, k: int, name: str) -> np.ndarray:
    """``n`` uniform rows of ``k`` points: one cached row, broadcast."""
    return _tiled(_uniform_row(k, name), n, name)


def _gibbs_rows(rows) -> np.ndarray:
    """Gibbs rows renormalized as ``_simplex_rows`` does, bit for bit; they pass its checks."""
    w = np.empty(rows.shape)
    np.divide(rows.T, _row_sums(rows), out=w.T)  # along the long axis, as evaluate lays it out
    w.setflags(write=False)
    return w


def _prechecked(cls, **fields):
    """A ``cls`` of ``fields`` that ``__post_init__`` would pass and keep as is, without it."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


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


def _real(value, name: str, error=ValueError, within=None, must="be a real number") -> float:
    """``value`` as a float; ``error`` saying ``name`` must ``must`` unless it is a real number.

    Booleans and strings such as ``"0.5"`` are not real numbers. With
    ``within``, a predicate, the number must also satisfy it.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if within is None or within(value):
            return float(value)
    raise error(f"{name} must {must}, got {value!r}")


def _flag(value, name: str, error: type[ValueError] = ValueError) -> bool:
    """``value`` if it is a bool; else ``error`` naming ``name``, so ``1`` and ``"no"`` are refused."""
    if isinstance(value, bool):
        return value
    raise error(f"{name} must be true or false, got {value!r}")


def _entries(values, name: str, entry, error: type[ValueError] = ValueError) -> tuple:
    """``entry(value, "name[i]", error)`` of each entry of ``values``, a list, tuple or array.

    Anything else raises ``error`` naming ``name``: a number, or a string,
    which is not read one character at a time.
    """
    if isinstance(values, (list, tuple)) or (isinstance(values, np.ndarray) and values.ndim):
        return tuple(entry(v, f"{name}[{i}]", error) for i, v in enumerate(values))
    raise error(f"{name} must be a list, got {values!r}")


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportGrid:
    """Fixed support points for every coefficient row and every noise row.

    ``beta_support`` has one row per regression coefficient (shape ``(J, K)``)
    and ``error_support`` one row per observation (shape ``(m, H)``). Rows are
    strictly increasing; every error row must bracket zero so that noiseless
    observations stay representable. ``tiled`` stores each of its two rows
    once, as a read-only broadcast view of its stack.
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
        """``n_params`` copies of a coefficient row, ``n_obs`` of an error row, each checked once."""
        beta = _tiled(_checked_row(beta_points, "beta_support"), n_params, "beta_support")
        error = _tiled(_checked_row(error_points, "error_support"), n_obs, "error_support")
        return _prechecked(cls, beta_support=beta, error_support=error)

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
        """Uniform rows over ``grid``: one of each kind checked, as in a full stack, broadcast."""
        k, h, j, m = grid.n_beta_points, grid.n_error_points, grid.n_params, grid.n_obs
        beta, error = _uniform_rows(j, k, "beta"), _uniform_rows(m, h, "error")
        return _prechecked(cls, beta=beta, error=error)

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
