"""Cross entropy regression solved through its smooth dual.

The primal problem picks simplex weights for every coefficient row and every
error row, minimizing KL divergence from a prior subject to the m linear
consistency constraints

    y_i = sum_j beta_hat_j * x_ij + eps_hat_i,

where each hat quantity is the expectation of its row's weights over the
row's support points. Eliminating the weights yields an unconstrained convex
dual in the m Lagrange multipliers: the optimal weights have Gibbs form

    p_jk  proportional to  q_jk * exp(-z_jk * theta_j),   theta = x^T lam,
    p_ih  proportional to  q_ih * exp(-z_ih * lam_i),

and the dual objective is a sum of log partition terms. Its gradient is the
constraint residual, so the solver is a safeguarded Newton iteration driven to
max |residual| <= tolerance. All partition sums are evaluated in the log
domain (per-row max subtraction), which keeps exponents of order 1e5 finite;
the same shifted exponentials give the normalized row weights.

The solver works on plain arrays (data, supports, prior weights and the logs
it reads), so the streaming updates and the experiments' one-shot fits solve
without building a ``GceProblem``; ``solve_gce`` is the one place that takes
a problem and gives a ``GceSolution``. Every solve runs over a stack of S
problems that share m, their coefficient supports, error prior and weights,
so one set of numpy calls advances every problem of the stack, each with its
own Newton control and the bits it would get alone; ``solve_gce`` solves a
stack of one. Several constraints take damped Newton with one Woodbury
direction for the whole stack (``_solve_multi``); a single one (m = 1: a
one-observation fit or streaming step) takes a bracketed Newton kernel that
never forms the dual value (``_StackKernel``). Both start from the priors'
own moments, the point at lam = 0, without evaluating it, and each builds
that start and every iterate through one method (``_DualEvaluator._point``,
``_StackKernel._moments``). ``solve_gce`` and the evaluator behind
``gibbs_weights`` and ``dual_objective`` unpack a ``GceProblem`` through one
adapter (``_stack_of_one``). Each thread keeps the log prior, the start
weights and the kernel of its last shared error row (``_solve_dual``), so
the blocks of a stream set none of them up again. A log partition sum that
is not finite is an error; the multi-row evaluation finds it through the
dual value, tested once per evaluation, and the kernel through the gradient,
and only then looks for the row to name.

The same machinery also minimizes the reweighted objective
``signal_weight * KL(beta rows) + error_weight * KL(error rows)`` used by the
streaming updates; the plain problem is the 1/1 special case. Every row's
KL is read off the final point in Gibbs form, ``-t * E[z] - ln Z`` with the
row's tilt t and log partition ln Z, so no KL pass runs over the weights.
"""

from __future__ import annotations

import copy
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    JointDistribution,
    SupportGrid,
    _SAFE_SUPPORT,
    _gibbs_rows,
    _integer,
    _log_priors,
    _prechecked,
    _real,
    _row_sums,
    _shared,
)

__all__ = [
    "InfeasibleObservationError",
    "SolverSettings",
    "SolverDiagnostics",
    "GceProblem",
    "GceSolution",
    "gibbs_weights",
    "dual_objective",
    "solve_gce",
]

# Line search constants for the multi-constraint Newton path: Armijo's, and
# those of Hager and Zhang's approximate Wolfe test, tried where Armijo refuses
# some trial (a value within _FLAT_VALUE relative of the start's is flat).
_ARMIJO_SLOPE = 1e-4
_FLAT_VALUE = 1e-15
_WOLFE_DELTA = 0.1
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60

# Relative ridge added to the Hessian diagonal when the plain system fails.
_RIDGE_SCALE = 1e-10

# Each thread's last shared error row: its key, log prior, start weights and _StackKernel
# (see _solve_dual).
_KERNELS = threading.local()


class InfeasibleObservationError(ValueError):
    """Raised when observed values cannot be reproduced from the support hulls.

    ``indices`` lists the offending observations, and ``lo`` and ``hi`` are
    the first one's hull bounds as Python floats. ``boundary`` distinguishes
    values sitting exactly on the hull edge (reachable only by degenerate
    point masses, so still rejected) from values strictly outside it.
    """

    def __init__(self, indices, lo, hi, boundary: bool = False):
        self.indices = tuple(int(i) for i in indices)
        self.lo, self.hi = lo, hi = float(lo), float(hi)
        self.boundary = bool(boundary)
        where = ", ".join(str(i) for i in self.indices)
        if boundary:
            msg = (
                f"observation(s) {where} lie exactly on the attainable hull boundary "
                f"[{lo!r}, {hi!r}] and would force degenerate point masses"
            )
        else:
            msg = f"observation(s) {where} fall outside the attainable hull [{lo!r}, {hi!r}]"
        super().__init__(msg)

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so a worker process can
        # send one back to the parent
        return type(self), (self.indices, self.lo, self.hi, self.boundary)


@dataclass(frozen=True)
class SolverSettings:
    """Dual solver knobs: residual tolerance and iteration cap."""

    constraint_tolerance: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self) -> None:
        tol = _real(self.constraint_tolerance, "constraint_tolerance",
                    within=lambda t: 0.0 < t < math.inf, must="be a positive finite number")
        object.__setattr__(self, "constraint_tolerance", tol)
        object.__setattr__(self, "max_iterations", _integer(self.max_iterations, "max_iterations"))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class SolverDiagnostics:
    """How a dual solve ended: the one convergence verdict the package gives.

    ``iterations`` counts accepted Newton steps. ``max_residual`` is the
    largest absolute constraint residual ``|y_i - x_i . beta_hat -
    eps_hat_i|`` at the returned weights, the dual gradient's largest entry.
    ``converged`` is true exactly when ``max_residual`` is at most the
    settings' ``constraint_tolerance``; a solve that stops at the iteration
    cap or when no further decrease is representable reports false.
    """

    iterations: int
    max_residual: float
    converged: bool


@dataclass(frozen=True)
class GceProblem:
    """One regression instance: data, support grid, and prior weights.

    ``y`` has m entries, ``x`` is m-by-J (any constant column for an intercept
    is just another regressor). The prior defaults to uniform rows. Each y_i
    must lie strictly inside the interval reachable by the constraint right
    hand side when the row weights range over the prior's live support (points
    whose prior weight is below ``ZERO_CLAMP`` are unreachable and do not count).
    """

    y: np.ndarray
    x: np.ndarray
    supports: SupportGrid
    prior: JointDistribution = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        y = np.array(self.y, dtype=float).reshape(-1)
        x = np.atleast_2d(np.array(self.x, dtype=float))
        grid = self.supports
        _check_observations(y, x, grid.beta_support, grid.n_obs)
        prior = self.prior if self.prior is not None else JointDistribution.uniform(grid)
        if not prior.matches_grid(grid):
            raise ValueError("prior rows do not match the support grid dimensions")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "prior", prior)
        _check_hull(y, x, grid.beta_support, _log_priors(prior.beta),
                    _shared(grid.error_support), _log_priors(_shared(prior.error)))

    @property
    def n_obs(self) -> int:
        return int(self.y.size)

    @property
    def n_params(self) -> int:
        return int(self.x.shape[1])


def _check_observations(y: np.ndarray, x: np.ndarray, zb, n_obs: int, weight: float = 1.0) -> None:
    """Reject data that is not finite, an ``x`` too large to solve with, or a grid of another shape.

    ``y`` is 1-D and ``x`` at least 2-D; the grid needs one coefficient row
    of ``zb`` per column of ``x`` and one error row (``n_obs``) per
    observation. Entries of ``x`` may not exceed ``2**510`` in magnitude, nor
    ``2**510 * sqrt(weight)`` over their coefficient row's span, so that
    ``x_ij**2 * var_j / weight`` stays below ``2**1018`` at signal weight ``weight``.
    """
    if y.size < 1:
        raise ValueError("need at least one observation")
    top = np.abs(x).max(initial=0.0)  # NaN stays NaN
    if not (np.isfinite(y).all() and top <= _SAFE_SUPPORT):
        if not (np.isfinite(y).all() and np.isfinite(x).all()):  # NaN fails the first test too
            raise ValueError("y and x must be finite")
        at = np.unravel_index(np.argmax(np.abs(x)), x.shape)
        raise ValueError(f"x[{', '.join(map(str, at))}] = {float(x[at])!r} is too large for the "
                         "solver to square; rescale the data and the supports")
    if x.shape[0] != y.size:
        raise ValueError(f"x has {x.shape[0]} rows, y has {y.size} entries")
    if n_obs != y.size:
        raise ValueError(f"support grid covers {n_obs} observations, data has {y.size}")
    if len(zb) != x.shape[1]:
        raise ValueError(f"support grid covers {len(zb)} coefficients, x has {x.shape[1]} columns")
    widest, limit = _grid_ends(zb.tobytes(), zb.shape)[0], _SAFE_SUPPORT * math.sqrt(weight)
    if top * widest > limit:  # else the largest magnitude and span clear all
        span = zb[:, -1] - zb[:, 0]
        i, j = np.unravel_index(np.argmax(np.abs(x) * span), x.shape)
        if abs(x[i, j]) * span[j] > limit:
            raise ValueError(f"x[{i}, {j}] = {float(x[i, j])!r} is too large for coefficient row "
                             f"{j} of span {float(span[j])!r}; rescale the data and the supports")


@functools.lru_cache(maxsize=16)
def _grid_ends(data: bytes, shape: tuple) -> tuple:
    """The widest row span of the float64 coefficient grid ``data`` of ``shape`` and its rows'
    first and last points, as Python floats, kept per value: a stream's grid never changes."""
    first, last = zip(*np.frombuffer(data).reshape(shape)[:, [0, -1]].tolist())
    return max(b - a for a, b in zip(first, last)), first, last


def _live_bounds(z: np.ndarray, log_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the smallest and largest live support point: log prior weight above -inf."""
    if np.minimum.reduce(log_q, axis=None) > -np.inf:  # every point is live; rows increase
        return z[..., 0], z[..., -1]
    live = log_q > -np.inf
    return np.where(live, z, np.inf).min(axis=-1), np.where(live, z, -np.inf).max(axis=-1)


def _coefficient_hull(x, bmin, bmax) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``x`` (m, J) or (S, m, J): the range of ``x_i . beta`` over the box [bmin, bmax].

    The J columns are summed along the observation axis, in sequence, so the
    bounds are the row sums' bits while J < 8.
    """
    xt = np.ascontiguousarray(x.T)
    box = (slice(None),) + (None,) * (x.ndim - 1)
    at_min, at_max = xt * bmin[box], xt * bmax[box]
    add = np.add.reduce
    return add(np.minimum(at_min, at_max), axis=0).T, add(np.maximum(at_min, at_max), axis=0).T


def _hull(x, zb, log_qb, ze, log_qe) -> tuple[np.ndarray, np.ndarray]:
    """Per observation, the range of ``x_i . beta + eps_i`` over the live support points.

    A point is live where its log prior weight (``log_qb``, ``log_qe``, as the solve reads
    them) is above -inf, as a weight below ``ZERO_CLAMP`` is not. ``ze`` may be one shared row.
    """
    emin, emax = _live_bounds(ze, log_qe)
    lo, hi = _coefficient_hull(x, *_live_bounds(zb, log_qb))
    return lo + emin, hi + emax


def _hull_error(y, lo, hi) -> InfeasibleObservationError:
    """The error for a ``y`` not strictly inside [lo, hi]: the values outside, else those on it."""
    outside = (y < lo) | (y > hi)
    boundary = not outside.any()
    idx = np.flatnonzero((y == lo) | (y == hi) if boundary else outside)
    return InfeasibleObservationError(idx, lo.flat[idx[0]], hi.flat[idx[0]], boundary=boundary)


def _check_hull(y, x, zb, log_qb, ze, log_qe) -> None:
    """Raise InfeasibleObservationError unless every y_i lies strictly inside its ``_hull``.

    A stack ((S, m) ``y``, (S, 1, H) ``ze``) counts indices across it.
    """
    lo, hi = _hull(x, zb, log_qb, ze, log_qe)
    if not ((lo < y) & (y < hi)).all():
        raise _hull_error(y, lo, hi)


@dataclass(frozen=True)
class GceSolution:
    """Fitted weights plus the point estimates they imply.

    ``distributions`` holds the fitted weights as ``(J, K)`` and ``(m, H)``
    arrays. ``objective_value`` is the achieved (possibly reweighted) KL
    divergence from the prior, read off the final dual point in the stream
    ledger's Gibbs form: ``signal_weight * sum_j max(-t_j * beta_hat_j - ln
    Z_j, 0) + error_weight * sum_i max(-(lam_i / error_weight) * eps_hat_i -
    ln Z_e,i, 0)``, exactly 0.0 for a fit that took no step. ``beta_hat``
    and ``epsilon_hat`` are the expectations of the fitted rows over their
    support points.
    """

    distributions: JointDistribution
    multipliers: np.ndarray
    beta_hat: np.ndarray
    epsilon_hat: np.ndarray
    objective_value: float
    diagnostics: SolverDiagnostics


# ---------------------------------------------------------------------------
# Dual evaluation
# ---------------------------------------------------------------------------


@dataclass
class _DualPoint:
    """Everything the iteration needs at one multiplier vector, for a stack of problems.

    Every array has a leading axis of S problems; the shapes below are one
    problem's.

    Each row's weights have Gibbs form, p_r proportional to q_r * exp(-z_r *
    t_r) with partition Z_r, so KL(p_r | q_r) = -t_r * E_p[z_r] - ln Z_r:
    the point keeps both kinds of rows' log partitions, and ``kl`` and
    ``error_kl`` read every row's KL off them instead of a pass over the
    weights (within 1.5e-15 of ``kl_divergence``'s pass at n = 3840). A
    coefficient row's tilt is t_j = (x^T lam)_j / signal_weight, an error
    row's lam_i / error_weight.
    """

    value: np.ndarray  # (S,); NaN from the one-observation kernel, which never forms it
    grad: np.ndarray  # (m,)
    pb: np.ndarray  # (J, K) coefficient row weights
    pe: np.ndarray  # (m, H) error row weights
    beta_hat: np.ndarray
    eps_hat: np.ndarray
    tilt: np.ndarray  # (J,) the coefficient rows' tilts
    ln_zb: np.ndarray  # (J,) ln Z_j, the coefficient rows' log partitions
    ln_ze: np.ndarray  # (m,) ln Z_e,i, the error rows' log partitions

    def take(self, rows) -> "_DualPoint":
        """The point of the problems ``rows``; an index gives one problem's arrays.

        The error weights stay views of ``(H, m)`` rows, as ``_point`` lays
        them out.
        """
        pe = np.swapaxes(np.swapaxes(self.pe, -1, -2)[rows], -1, -2)
        return _DualPoint(
            self.value[rows], self.grad[rows], self.pb[rows], pe, self.beta_hat[rows],
            self.eps_hat[rows], self.tilt[rows], self.ln_zb[rows], self.ln_ze[rows],
        )

    def put(self, rows, other: "_DualPoint", chosen) -> None:
        """Overwrite the problems ``rows`` with ``other``'s problems ``chosen``."""
        for name in self.__dataclass_fields__:
            getattr(self, name)[rows] = getattr(other, name)[chosen]

    def kl(self) -> np.ndarray:
        """Per problem, the coefficient rows' summed KL(pb | prior), each clamped at zero."""
        return _gibbs_kl(self.tilt, self.beta_hat, self.ln_zb)

    def error_kl(self, lam: np.ndarray, error_weight: float) -> np.ndarray:
        """Per problem, the error rows' summed KL(pe | prior) at the point's multipliers ``lam``."""
        return _gibbs_kl(lam / error_weight, self.eps_hat, self.ln_ze)


def _gibbs_kl(tilt: np.ndarray, mean: np.ndarray, ln_z: np.ndarray) -> np.ndarray:
    """Per problem, the sum over rows of max(-t * E[z] - ln Z, 0), a Gibbs row's KL from its prior.

    Tiny negative terms are rounding, as in ``kl_divergence``; a row that
    has not moved (t = ln Z = 0) gives exactly 0.0.
    """
    return np.add.reduce(np.maximum(-tilt * mean - ln_z, 0.0), axis=1)


def _log_partition(logits: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log-sum-exp and the normalized row weights, from one exp, for a stack.

    The support points of a row lie along ``axis``: 2 for ``(S, rows,
    points)`` logits, 1 for ``(S, points, rows)``. Reducing a tall stack
    along its long axis (axis 1 of an ``(S, points, rows)`` array) costs a
    few vector passes instead of one short reduction per row. Either way
    numpy adds a row's points in sequence while there are fewer than 8, so
    both layouts give the same bits; from 8 points on, a row sum is pairwise
    and the two agree to the last few ulps. Returns the ``(S, rows)`` log
    partition sums and the weights, formed in place in ``logits``.

    Entries of -inf (support points without prior weight) get zero weight.
    A log partition sum is not checked here: a non-finite one makes its
    problem's dual value non-finite, and ``evaluate`` tests that value once
    per call, looking for the first bad row only then.
    """
    top = np.maximum.reduce(logits, axis=axis, keepdims=True)
    logits -= top
    np.exp(logits, out=logits)
    total = np.add.reduce(logits, axis=axis, keepdims=True)
    logits /= total
    return (np.log(total) + top).reshape(logits.shape[0], -1), logits


def _error_start(log_qe: np.ndarray) -> np.ndarray:
    """The error prior's weights at lam = 0 as ``evaluate``'s Gibbs form normalizes them.

    Takes the log weights ``log_qe`` (rows, H) and returns the read-only
    ``(H, rows)`` weights, each row shifted by its maximum and summed in
    sequence (``_row_sums``).
    """
    qe = np.exp(log_qe - np.maximum.reduce(log_qe, axis=1, keepdims=True))
    qe = (qe / _row_sums(qe)[:, None]).T
    qe.setflags(write=False)
    return qe


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per problem, the dot product of its rows of ``a`` and ``b`` (S, m): ``a[i] @ b[i]``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class _DualEvaluator:
    """Precomputed log-priors and supports for repeated dual evaluations of a stack.

    Takes, per problem of a stack of S, the data ``y`` (S, m) and ``x`` (S,
    m, J), the error supports ``ze`` (S, m, H; S, 1, H for one shared row)
    and the coefficient prior weights ``qb`` (S, J, K), which only ``start``
    reads, with the logs ``log_qb`` the solve reads; the coefficient supports
    ``zb`` (J, K), the log error prior weights ``log_qe`` (``_log_priors`` of
    the weights; one row may be shared by every observation) with their
    start weights ``qe_t`` (``_error_start(log_qe)``, which only ``start``
    reads) and the two objective weights are the stack's.

    ``start`` and ``evaluate`` form only their rows, tilts, log partitions
    and value, and share one point builder, ``_point``, as the kernel's
    ``start`` and ``at`` share ``_moments``.

    Every problem's arithmetic is the one-problem arithmetic, operation for
    operation: dot products are batched ``matmul`` calls on each problem's
    own (transposed) view, the calls numpy makes for one problem's 2-D
    arrays, and every row is reduced along its own axis. So a problem gets
    the same bits in any stack, and ``take`` can drop problems from one.

    The error side is stored once per solve as contiguous ``(S, H, m)``
    arrays (a shared row or ``(1, H)`` log prior as one column), so each of
    its per-row reductions runs along the long observation axis; ``evaluate``
    works in place in its fresh ``(S, H, m)`` logits and hands back the error
    weights as their ``(S, m, H)`` view.
    Rows of fewer than 8 points are summed in sequence in either layout, so
    every output is bit-identical to a row-major evaluation while K, H and J
    are below 8; wider rows agree to the last few ulps.

    The reported values are measured relative to uniform rows: they carry a
    constant offset of sum(log row sizes), so at zero multipliers with a
    uniform prior a value is J*log(K) + m*log(H), and at the optimum the
    achieved KL divergence equals that constant minus the minimal value.
    """

    def __init__(
        self, y, x, zb, ze, qb, log_qb, log_qe, qe_t, signal_weight: float, error_weight: float
    ):
        self.y = np.ascontiguousarray(y)
        self.x = np.ascontiguousarray(x)
        # each problem's regressors transposed, (S, J, m): x^T as a row-major
        # array, so that its transpose lays out columns as a boolean column
        # selection of x does
        self.xt = np.ascontiguousarray(self.x.transpose(0, 2, 1))
        self._views()
        self.zb = np.ascontiguousarray(zb)  # a tiled grid's rows are a broadcast view
        self.ze_t = np.ascontiguousarray(ze.transpose(0, 2, 1))
        self.qb, self.log_qb = qb, log_qb
        self.log_qe_t, self.qe_t = np.ascontiguousarray(log_qe.T), qe_t
        self.wb = float(signal_weight)
        self.we = float(error_weight)
        j, k = self.zb.shape
        m, h = self.y.shape[1], ze.shape[2]
        self.offset = self.wb * j * math.log(k) + self.we * m * math.log(h)

    def _views(self) -> None:
        # x^T as a view of x, as ``x.T @ lam`` reads it, and y as columns
        self.x_t, self.y_col = self.x.transpose(0, 2, 1), self.y[:, :, None]

    def take(self, rows) -> "_DualEvaluator":
        """The evaluator of the problems ``rows`` of the stack."""
        ev = copy.copy(self)
        ev.y, ev.x, ev.xt, ev.ze_t, ev.qb, ev.log_qb = (
            self.y[rows], self.x[rows], self.xt[rows], self.ze_t[rows], self.qb[rows],
            self.log_qb[rows],
        )
        ev._views()
        return ev

    def start(self) -> _DualPoint:
        """The point at lam = 0, the priors' own moments, formed without evaluating there.

        The coefficient weights are the prior weights with dead points (log
        -inf) zeroed, no exp or log: ``evaluate``'s Gibbs rows at zero to
        rounding, bit for bit on uniform rows. The error weights are
        ``qe_t``, the error prior as ``evaluate``'s Gibbs form normalizes
        it, its bits, tiled over the stack; ``_solve_dual`` keeps a shared
        row's with its log, so a stream's blocks normalize it once. The tilt
        and both log partitions are zero, so the value is the offset; the
        means and the gradient are ``_point``'s, as ``evaluate``'s are.
        """
        (s, m), j = self.y.shape, self.zb.shape[0]
        pe = np.empty((s, self.qe_t.shape[0], m))
        pe[...] = self.qe_t
        return self._point(np.full(s, self.offset), self.qb * (self.log_qb > -np.inf), pe,
                           np.zeros((s, j)), np.zeros((s, j)), np.zeros((s, m)))

    def evaluate(self, lam: np.ndarray) -> _DualPoint:
        """The point at the multipliers ``lam`` (S, m).

        Forms the Gibbs rows and their log partitions, the dual value from
        them, and the rest through ``_point``. A row whose log partition sum
        is not finite raises ValueError, naming the row within the first
        problem that has one, coefficient rows first; only a dual value that
        is not finite sends it looking.
        """
        tilt = np.matmul(self.x_t, lam[:, :, None])[:, :, 0] / self.wb
        ln_zb, pb = _log_partition(self.log_qb - self.zb * tilt[:, :, None], 2)
        logits = self.ze_t * (lam / self.we)[:, None, :]
        np.subtract(self.log_qe_t, logits, out=logits)
        ln_ze, pe = _log_partition(logits, 1)
        add = np.add.reduce
        value = (
            np.matmul(lam[:, None, :], self.y_col)[:, 0, 0] + self.wb * add(ln_zb, axis=1)
            + self.we * add(ln_ze, axis=1) + self.offset
        )
        if not np.isfinite(value).all():  # as any non-finite log partition sum makes it
            for name, ln_z in (("coefficient", ln_zb), ("error", ln_ze)):
                bad = ~np.isfinite(ln_z)
                if bad.any():  # named within the first problem that has one
                    raise ValueError(f"non-finite partition sum in {name} row "
                                     f"{int(np.argwhere(bad)[0, 1])}")
        return self._point(value, pb, pe, tilt, ln_zb, ln_ze)

    def _point(self, value, pb, pe, tilt, ln_zb, ln_ze) -> _DualPoint:
        """The point of the weights ``pb`` (S, J, K) and ``pe`` (S, H, m): their means and residual.

        ``start`` and ``evaluate`` both return through it. An error row is
        reduced along the observation axis of ``pe``, which the point keeps
        as its ``(S, m, H)`` view.
        """
        add = np.add.reduce
        beta_hat = add(pb * self.zb, axis=2)
        eps_hat = add(pe * self.ze_t, axis=1)
        grad = self.y - np.matmul(self.x, beta_hat[:, :, None])[:, :, 0] - eps_hat
        return _DualPoint(
            value, grad, pb, pe.transpose(0, 2, 1), beta_hat, eps_hat, tilt, ln_zb, ln_ze
        )

    def curvature(self, pt: _DualPoint) -> tuple[np.ndarray, np.ndarray]:
        """The Hessian contributions at a point of this evaluator's problems.

        Returns them per coefficient (S, J) and per observation (S, m). Only
        a Newton direction reads them, so ``evaluate`` leaves them out.
        """
        add = np.add.reduce
        curv_beta = add(pt.pb * (self.zb - pt.beta_hat[:, :, None]) ** 2, axis=2) / self.wb
        dev = self.ze_t - pt.eps_hat[:, None, :]  # squared and weighted in place
        dev **= 2
        dev *= pt.pe.transpose(0, 2, 1)
        return curv_beta, add(dev, axis=1) / self.we


def _as_multipliers(multipliers, n_obs: int) -> np.ndarray:
    lam = np.asarray(multipliers, dtype=float).reshape(-1)
    if lam.size != n_obs:
        raise ValueError(f"expected {n_obs} multipliers, got {lam.size}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("multipliers must be finite")
    return lam


def _check_weights(signal_weight: float, error_weight: float) -> None:
    for name, w in (("signal_weight", signal_weight), ("error_weight", error_weight)):
        if not (w > 0.0 and math.isfinite(w)):
            raise ValueError(f"{name} must be a positive finite number")


# ---------------------------------------------------------------------------
# Newton iterations
# ---------------------------------------------------------------------------


def _woodbury(xt, vb, ve, u):
    """Solve (x diag(vb) x^T + diag(ve)) d = g through J-by-J systems, for a stack.

    The Hessian is a rank-J update of a diagonal, so the Woodbury identity
    reduces the solve to the coefficient dimension regardless of m. Takes
    the transposed regressors ``xt`` (S, J, m), row-major, and ``u = g / ve``;
    every ``vb`` is positive. Returns the solutions (S, m), or None when some
    problem's small system is not finite or is singular.
    """
    xf = xt.transpose(0, 2, 1)
    s, j = vb.shape
    diag = np.zeros((s, j, j))
    diag.reshape(s, -1)[:, :: j + 1] = 1.0 / vb
    cmat = diag + np.matmul(xt, xf / ve[:, :, None])
    rhs = np.matmul(xt, u[:, :, None])
    if not (np.isfinite(cmat).all() and np.isfinite(rhs).all()):
        return None
    try:
        w = np.linalg.solve(cmat, rhs)
    except np.linalg.LinAlgError:
        return None
    return u - np.matmul(xf, w)[:, :, 0] / ve


def _error_diagonal(ridge: bool, x, vb, ve) -> np.ndarray:
    """The error curvature a Newton attempt solves with, per problem of a stack.

    The plain attempt takes the curvature ``ve`` itself; the ridge retry
    adds ``_RIDGE_SCALE`` times the largest diagonal entry of the Hessian
    (1 where that is not positive) to every entry.
    """
    if not ridge:
        return ve
    diag = np.matmul(x * x, vb[:, :, None])[:, :, 0] + ve
    top = diag.max(axis=1)
    return ve + (_RIDGE_SCALE * np.where(top > 0.0, top, 1.0))[:, None]


def _newton_direction(ev: _DualEvaluator, grad, vb, ve):
    """Per problem, the descent direction: Newton, its ridge retry, or the negative gradient.

    A problem takes the plain Newton step when its error curvature is
    positive and the step solves to a finite ascent direction of the
    gradient, else the step with a relative ridge on the error curvature,
    else the negative gradient. Ordinary data takes one plain Woodbury solve
    of the whole stack; if some problem has a column without curvature or
    takes no plain step, each problem is solved alone, on its live columns,
    and one that takes the plain step gets the same bits either way. Takes
    the gradient and the curvatures ``vb`` and ``ve`` of ``ev``'s problems;
    returns the directions (S, m) and their dot products with the gradient.
    """
    # each least entry, NaN if any is (an empty array passes): what .all() of ``> 0.0`` says
    least = np.minimum.reduce
    if least(vb, axis=None, initial=np.inf) > 0.0 < least(ve, axis=None, initial=np.inf):
        e = _error_diagonal(False, ev.x, vb, ve)
        d = _woodbury(ev.xt, vb, e, grad / e)
        if d is not None and np.isfinite(d).all():
            ascent = _row_dots(grad, d)
            if least(ascent, axis=None) > 0.0:
                return -d, -ascent
    direction = -grad
    for i in range(len(grad)):
        one, live = slice(i, i + 1), vb[i] > 0.0
        for ridge in (False, True) if (ve[i] > 0.0).all() else (True,):
            e = _error_diagonal(ridge, ev.x[one], vb[one], ve[one])
            d = grad[one] / e
            if live.any():  # a problem without live columns keeps d = grad / e
                d = _woodbury(ev.xt[i][live][None], vb[one][:, live], e, d)
            if d is not None and np.isfinite(d).all() and _row_dots(grad[one], d)[0] > 0.0:
                direction[i] = -d[0]
                break
    return direction, _row_dots(grad, direction)


def _solve_multi(ev: _DualEvaluator, settings: SolverSettings):
    """Damped Newton with a ridge retry and a gradient fallback, for every problem of a stack.

    Each problem keeps its own direction kind, step, backtracks, iteration
    count and stop, and gets the bits it would get alone. A step is accepted
    on the Armijo condition or, where some trial fails it, on a flat dual
    value and a slope ``grad . d`` at most ``2 * _WOLFE_DELTA - 1`` times the
    start's (near the optimum Armijo's decrease is below one ulp of the
    value), halving it up to ``_MAX_BACKTRACKS`` times; a problem that finds
    none stops. The stack narrows to the running problems once per
    iteration; within one, every running problem is evaluated at each
    halving, and one that has accepted keeps its point and ignores the rest.
    Curvature is formed only where a Newton direction reads it. The solve
    starts from ``ev.start()``, the priors' own point, and ``evaluate``
    runs once per trial. Returns the multipliers (S, m), the final stacked
    ``_DualPoint``, the iteration counts (an integer array) and each
    problem's residual, the largest ``|grad|`` at its final point.
    """
    s = ev.y.shape[0]
    tol = settings.constraint_tolerance
    lam = np.zeros(ev.y.shape)
    pt = ev.start()
    iterations = np.zeros(s, dtype=int)
    residual = np.maximum.reduce(np.abs(pt.grad), axis=1)
    run = (residual > tol).nonzero()[0]
    # a running problem has moved on every iteration so far, so its count is the loop's
    for count in range(1, settings.max_iterations + 1):
        if not run.size:
            break
        whole = run.size == s
        ev_t, cur, lam_t = (ev, pt, lam) if whole else (ev.take(run), pt.take(run), lam[run])
        direction, slope = _newton_direction(ev_t, cur.grad, *ev_t.curvature(cur))
        looking = None  # every running problem, until the first of them accepts
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = lam_t + step * direction
            cand = ev_t.evaluate(trial)
            ok = cand.value <= cur.value + _ARMIJO_SLOPE * step * slope
            every = ok.all()  # reduced once; the Wolfe test's verdict only where it is needed
            if not every:
                flat = np.abs(cand.value - cur.value) <= _FLAT_VALUE * np.abs(cur.value)
                ok |= flat & (_row_dots(cand.grad, direction) <= (2 * _WOLFE_DELTA - 1) * slope)
            if looking is None:
                if whole and (every or ok.all()):  # the whole stack accepts at once
                    lam, pt = trial, cand
                    break
                looking = np.ones(run.size, dtype=bool)
            # a problem's row of ``cur`` is overwritten only once it has accepted
            ok &= looking
            if ok.any():
                if lam is lam_t:  # every trial starts from ``lam_t``: write to a copy
                    lam = lam.copy()
                lam[run[ok]] = trial[ok]
                pt.put(run[ok], cand, ok)
                looking ^= ok
                if not looking.any():
                    break
            step *= _BACKTRACK
        else:  # the problems still looking found no decrease, and stop
            run = run[~looking]
        iterations[run] = count
        if run.size == s:
            residual = moved = np.maximum.reduce(np.abs(pt.grad), axis=1)
        else:
            residual[run] = moved = np.maximum.reduce(np.abs(pt.grad[run]), axis=1)
        run = run[moved > tol]
    return lam, pt, iterations, residual


class _StackKernel:
    """One-observation solves for a stack of S problems, built once and reused.

    Built from the coefficient supports ``zb`` (J, K) and the error row's log
    prior weights ``log_qe_row`` (H,), which every problem of a stack
    shares; each solve brings the two objective weights and, per problem,
    its observation, coefficient prior and error support row. A problem's J
    coefficient rows and its error row are J+1 consecutive rows of one
    ``(S * (J+1), max(K, H))`` stack, so an iterate of the whole stack costs
    one set of numpy calls on 2-D arrays; a padding point has support 0 and
    prior weight 0, so it gets exactly zero weight. The buffers hold exactly
    the stack being solved, and are sized again when S changes; the weight
    rows are written again when the weights change.

    Points are ``(grad, p, means)``: the gradient as a list of S floats,
    the stacked row weights and the ``(S * (J+1), 1)`` row means.
    ``start``'s point at lam = 0 is the prior weights' own moments, equal to
    ``_DualEvaluator.evaluate``'s to rounding. ``at`` does ``evaluate``'s
    arithmetic, operation for operation, plus exact zeros from the padding,
    in place in one fresh logits buffer; every row is reduced along its last
    axis, and a problem's row means are dotted with its observation by
    ``matmul`` of ``(S, 1, J) @ (S, J, 1)``, the dot product ``evaluate``
    forms, with the scalar steps around it in Python floats, numpy's
    float64 operations. So a problem's points are bit-identical to
    ``evaluate``'s while ``max(K, H) < 8``, where numpy sums a row in
    sequence, and they do not depend on the other problems of the stack. A
    log partition sum is finite exactly when its row's maximum logit is,
    and a non-finite one makes the gradient NaN, so the rows are checked
    only then. ``curvature`` is formed only where a Newton step reads it,
    never at the final point. ``at`` keeps its tilt, row maxima and row sums
    as ``last``, and ``solve`` forms ``ln Z = log(total) + top`` from them in
    one call over all J+1 rows of its final point, the coefficient rows'
    ``ln_zb`` and the error row's ``ln_ze``.
    """

    def __init__(self, zb, log_qe_row):
        j, k = zb.shape
        h = log_qe_row.shape[0]
        self.shape = (j, k, h)
        # one problem's slab of J+1 rows of max(K, H) points: the supports
        # (the error row's left zero, for each solve to fill), the log prior
        # weights (the coefficient rows' left -inf, likewise), the start
        # weights (the error row's prior as the Gibbs form normalizes it), and
        # as one-point rows the regressor (1 for the error row) and the
        # objective weight (each solve's), for the tilt (x_r * lam) / weight_r
        width = max(k, h)
        z = np.zeros((j + 1, width))
        z[:j, :k] = zb
        log_q = np.full((j + 1, width), -np.inf)
        log_q[j, :h] = log_qe_row
        q = np.zeros((j + 1, width))
        shifted = np.exp(log_qe_row - np.maximum.reduce(log_qe_row))
        q[j, :h] = shifted / np.add.reduce(shifted)
        x_col = np.zeros((j + 1, 1))
        x_col[j] = 1.0
        self.slabs = (z, log_q, q, x_col, np.empty((j + 1, 1)))
        self.size = 0
        self.last = None  # the last ``at``'s tilt, row maxima and row sums

    def _resize(self, s: int) -> None:
        """Allocate the buffers for a stack of ``s`` problems, one copy of the slab each."""
        j = self.shape[0]
        buffers = [np.concatenate([slab] * s) for slab in self.slabs]
        self.z, self.log_q, self.q, self.x_col, self.w = buffers
        # (S, J+1, ·) views to load, and the regressors as (S, 1, J) rows, so
        # that x @ means is evaluate's dot product
        self.loads = [buffer.reshape(s, j + 1, -1) for buffer in buffers]
        self.x = self.loads[3][:, :j].transpose(0, 2, 1)
        self.size, self.weights = s, None  # the weights the weight rows hold

    def start(self, qb, log_qb, y0, x, ze, signal_weight: float, error_weight: float):
        """Load the stack and return its point at zero.

        Takes, per problem, the coefficient prior ``qb`` (S, J, K) and the
        logs ``log_qb`` the solve reads (a point of log -inf has weight zero,
        as in the Gibbs form), the observation ``y0`` (S,) with its
        regressors ``x`` (S, J), and its error support row ``ze`` (S, H); and
        the stack's two objective weights.
        """
        j, k, h = self.shape
        s = y0.shape[0]
        if s != self.size:
            self._resize(s)
        z3, log_q3, _, x_col3, w3 = self.loads
        weights = signal_weight, error_weight
        if weights != self.weights:
            w3[:, :j], w3[:, j] = self.weights = weights
        log_q3[:, :j, :k] = log_qb
        z3[:, j, :h] = ze
        x_col3[:, :j, 0] = x
        self.y0 = y0.tolist()
        p = self.q.copy()
        np.multiply(qb, log_qb > -np.inf, out=p.reshape(s, j + 1, -1)[:, :j, :k])
        return self._moments(p)

    def _moments(self, p):
        # The ufunc reductions are what .sum calls, minus its Python wrapper.
        means = np.add.reduce(p * self.z, axis=1, keepdims=True)
        j = self.shape[0]
        slabs = means.reshape(-1, j + 1)
        dots = np.matmul(self.x, slabs[:, :j, None]).tolist()
        errors = slabs[:, j].tolist()
        return [y - d - e for y, ((d,),), e in zip(self.y0, dots, errors)], p, means

    def curvature(self, p, means):
        """Per stacked row, the Hessian contribution ``var_r / weight_r`` at ``(p, means)``."""
        dev = self.z - means
        dev **= 2
        dev *= p
        return np.add.reduce(dev, axis=1, keepdims=True) / self.w

    def at(self, lam: np.ndarray):
        """The point at the multipliers ``lam``, one per stacked row, for the loaded stack."""
        tilt = self.x_col * lam
        tilt /= self.w
        logits = self.z * tilt
        np.subtract(self.log_q, logits, out=logits)
        top = np.maximum.reduce(logits, axis=1, keepdims=True)
        logits -= top
        np.exp(logits, out=logits)
        total = np.add.reduce(logits, axis=1, keepdims=True)
        logits /= total
        self.last = tilt, top, total
        point = self._moments(logits)
        if not all(map(math.isfinite, point[0])):
            bad = ~np.isfinite(top[:, 0])
            if bad.any():
                row = int(np.argmax(bad)) % (self.shape[0] + 1)
                where = f"coefficient row {row}" if row < self.shape[0] else "error row 0"
                raise ValueError(f"non-finite partition sum in {where}")
        return point

    def solve(self, qb, log_qb, y0, x, ze, signal_weight, error_weight, settings: SolverSettings):
        """Bracketed Newton for every problem of the stack, from lam = 0.

        Loads the stack and its weights as ``start`` does. The dual gradient
        is increasing in a problem's lone multiplier, so once values of
        opposite sign have been seen the root is bracketed and any Newton
        proposal escaping the bracket is replaced by its midpoint. Each
        problem keeps its own bracket, trust step, iteration count and stop;
        a problem that has stopped is evaluated again at its multiplier,
        which gives the same bits, until the last one stops. Returns the
        multipliers (S, 1), the final stacked point and the iteration counts
        (a list); the point's value is NaN, its curvature None, and its
        arrays are views of the last iterate. A problem that took no step
        keeps the prior's own point, whose tilt and log partitions are zero.
        """
        tol, cap = settings.constraint_tolerance, settings.max_iterations
        j, k, h = self.shape
        g0, p0, means0 = g, p, means = self.start(
            qb, log_qb, y0, x, ze, signal_weight, error_weight
        )
        s = len(g)
        x_sq = self.x**2
        # the multipliers as Python floats for the control, written to every
        # problem's rows of the column ``at`` reads once per iteration
        lam, lam_rows = [0.0] * s, np.zeros((s, j + 1, 1))
        lam_col = lam_rows.reshape(-1, 1)
        lo, hi, iterations = [-math.inf] * s, [math.inf] * s, [0] * s
        running = [i for i, gi in enumerate(g) if abs(gi) > tol]
        while running:
            curv = self.curvature(p, means).reshape(s, j + 1)
            hess = np.matmul(x_sq, curv[:, :j, None]).tolist()
            curv_e = curv[:, j].tolist()
            stepped = []
            for i in running:
                gi, li = g[i], lam[i]
                hs = hess[i][0][0] + curv_e[i]
                if gi < 0.0:
                    lo[i] = li
                else:
                    hi[i] = li
                cand = li - gi / hs if 0.0 < hs < math.inf else math.nan
                low, high = lo[i], hi[i]
                if -math.inf < low and high < math.inf:  # bracketed
                    if not low < cand < high:
                        cand = 0.5 * (low + high)
                else:
                    trust = 8.0 * (1.0 + abs(li))
                    if not math.isfinite(cand):
                        cand = li + (trust if gi < 0.0 else -trust)
                    else:
                        cand = min(max(cand, li - trust), li + trust)
                if cand == li:
                    continue  # bracket collapsed to machine resolution
                lam[i] = cand
                iterations[i] += 1
                stepped.append(i)
            if not stepped:
                break
            lam_rows[...] = np.array(lam)[:, None, None]
            g, p, means = self.at(lam_col)
            running = [i for i in stepped if iterations[i] < cap and abs(g[i]) > tol]
        stepped_any = p is not p0
        p, means = p.reshape(s, j + 1, -1), means.reshape(s, j + 1)
        if stepped_any:
            tilt, top, total = self.last
            tilt = tilt.reshape(s, j + 1)[:, :j]
            ln_z = (np.log(total) + top).reshape(s, j + 1)
            if 0 in iterations:
                idle = [i for i in range(s) if not iterations[i]]
                p0, means0 = p0.reshape(s, j + 1, -1), means0.reshape(s, j + 1)
                p[idle], means[idle], tilt[idle], ln_z[idle] = p0[idle], means0[idle], 0.0, 0.0
                for i in idle:
                    g[i] = g0[i]
        else:
            tilt, ln_z = np.zeros((s, j)), np.zeros((s, j + 1))
        pt = _DualPoint(
            math.nan, np.array(g)[:, None], p[:, :j, :k], p[:, j:, :h], means[:, :j],
            means[:, j:], tilt, ln_z[:, :j], ln_z[:, j:],
        )
        return lam_rows[:, 0], pt, iterations


class _Solved(NamedTuple):
    """A stack of S solves, as ``_solve_dual`` returns it; read by field name."""

    lam: np.ndarray  # (S, m) multipliers
    point: _DualPoint  # the final stacked point
    iterations: np.ndarray  # (S,) accepted Newton steps
    residual: np.ndarray  # (S,) largest absolute constraint residual
    converged: np.ndarray  # (S,) residual <= constraint_tolerance: the one verdict


def _solve_dual(y, x, zb, ze, qb, log_qb, qe, signal_weight, error_weight, settings):
    """Solve the weighted duals of a stack of S problems from a zero start.

    Takes, per problem, the data ``y`` (S, m) and ``x`` (S, m, J), the error
    supports ``ze`` (S, m, H; or S, 1, H), the coefficient prior weights
    ``qb`` (S, J, K), which only give each solve its start, and the
    logs ``log_qb`` the solve reads, normalized to rounding (so its log
    partitions are relative to them). The coefficient supports ``zb`` (J,
    K), the error prior weights ``qe`` (one row may be shared by every
    observation) and the two objective weights are the stack's. Problems of
    one observation (m = 1) are solved together by a ``_StackKernel``,
    problems of more by ``_solve_multi`` on one ``_DualEvaluator`` over the
    stack; either way a problem gets the bits it would get alone. Each
    thread keeps, for its last shared error row, the row's log prior, its
    start weights (``_error_start``, once m >= 2 needs them) and its kernel
    (once m = 1 needs it), reused while ``zb`` and ``qe`` hold the same
    values, whatever the weights, with the bits new ones would give; so a
    stream's blocks form the log and normalize the row once. A per-row
    ``qe`` leaves them be. The residual is the largest ``|grad|`` of each
    problem, its one entry at m = 1. Returns a ``_Solved``.
    """
    one = y.shape[1] == 1
    if qe.shape[0] == 1:  # one shared error row, as every m = 1 solve and stream block has
        key = (zb.shape, zb.tobytes(), qe.shape, qe.tobytes())
        last = getattr(_KERNELS, "last", None)
        if last is None or last[0] != key:
            log_qe = _log_priors(qe)
            log_qe.setflags(write=False)
            _KERNELS.last = last = key, log_qe, None, None
        if one:
            if last[3] is None:
                _KERNELS.last = last = (*last[:3], _StackKernel(zb, last[1][0]))
        elif last[2] is None:
            _KERNELS.last = last = (*last[:2], _error_start(last[1]), last[3])
        log_qe, qe_t, kernel = last[1:]
    else:
        log_qe = _log_priors(qe)
        qe_t = _error_start(log_qe)
    if one:
        lam, pt, iterations = kernel.solve(
            qb, log_qb, y[:, 0], x[:, 0], ze[:, 0], signal_weight, error_weight, settings
        )
        residual = np.abs(pt.grad[:, 0])
    else:
        ev = _DualEvaluator(y, x, zb, ze, qb, log_qb, log_qe, qe_t, signal_weight, error_weight)
        lam, pt, iterations, residual = _solve_multi(ev, settings)
    return _Solved(lam, pt, np.asarray(iterations), residual,
                   residual <= settings.constraint_tolerance)


def _stack_of_one(problem: GceProblem) -> tuple:
    """A problem's data, grid and prior as ``_solve_dual``'s first seven arguments, a stack of one.

    The one place a ``GceProblem`` is unpacked, for ``solve_gce`` and ``_evaluator``.
    """
    grid, prior = problem.supports, problem.prior
    return (problem.y[None], problem.x[None], grid.beta_support, _shared(grid.error_support)[None],
            prior.beta[None], _log_priors(prior.beta)[None], _shared(prior.error))


def _evaluator(problem: GceProblem, signal_weight: float, error_weight: float) -> _DualEvaluator:
    """The evaluator of a problem's stack of one (``_stack_of_one``)."""
    *arrays, qe = _stack_of_one(problem)
    log_qe = _log_priors(qe)
    return _DualEvaluator(*arrays, log_qe, _error_start(log_qe), signal_weight, error_weight)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def gibbs_weights(
    multipliers,
    problem: GceProblem,
    *,
    signal_weight: float = 1.0,
    error_weight: float = 1.0,
) -> JointDistribution:
    """Row weights implied by the given multipliers; the prior at zero.

    Coefficient row j gets weights proportional to
    ``q_jk * exp(-z_jk * sum_i x_ij * lam_i / signal_weight)`` and error row i
    to ``q_ih * exp(-z_ih * lam_i / error_weight)``, normalized per row.
    """
    _check_weights(signal_weight, error_weight)
    lam = _as_multipliers(multipliers, problem.n_obs)
    pt = _evaluator(problem, signal_weight, error_weight).evaluate(lam[None])
    return JointDistribution(pt.pb[0], pt.pe[0])


def dual_objective(multipliers, problem: GceProblem) -> tuple[float, np.ndarray]:
    """Value and gradient of the convex dual at the given multipliers.

    The gradient entry for observation i is the constraint residual
    ``y_i - (prediction_i + error_expectation_i)`` under the Gibbs weights, so
    a zero gradient certifies the fitted weights satisfy the constraints. The
    value is offset so that a uniform prior at zero multipliers scores
    J*log(K) + m*log(H).
    """
    lam = _as_multipliers(multipliers, problem.n_obs)
    pt = _evaluator(problem, 1.0, 1.0).evaluate(lam[None])
    return float(pt.value[0]), pt.grad[0]


def solve_gce(
    problem: GceProblem,
    settings: SolverSettings | None = None,
    *,
    signal_weight: float = 1.0,
    error_weight: float = 1.0,
) -> GceSolution:
    """Minimize KL divergence from the prior subject to the data constraints.

    Runs safeguarded Newton on the dual from a zero start: Woodbury-reduced
    Newton systems for m >= 2, with a relative ridge retry and a gradient
    fallback taken per problem where the plain step fails, and bracketed
    Newton/bisection for a single observation (the kernel the streaming
    updates of one observation use too), evaluated without the dual value.
    Non-convergence within the iteration cap is reported through
    ``diagnostics.converged`` rather than raised.

    With ``signal_weight``/``error_weight`` the minimized objective becomes
    ``signal_weight * KL(coefficient rows) + error_weight * KL(error rows)``;
    the weights rescale the objective without moving its minimizer when equal.
    """
    settings = settings if settings is not None else SolverSettings()
    _check_weights(signal_weight, error_weight)
    grid = problem.supports
    if signal_weight < 1.0:  # GceProblem checked x at weight 1
        _check_observations(problem.y, problem.x, grid.beta_support, grid.n_obs, signal_weight)
    solved = _solve_dual(*_stack_of_one(problem), signal_weight, error_weight, settings)
    lam, pt = solved.lam, solved.point
    pb, pe = _gibbs_rows(pt.pb[0]), _gibbs_rows(pt.pe[0])  # Gibbs rows pass every check
    distributions = _prechecked(JointDistribution, beta=pb, error=pe)
    objective = signal_weight * pt.kl()[0] + error_weight * pt.error_kl(lam, error_weight)[0]
    lam.setflags(write=False)
    diagnostics = SolverDiagnostics(
        solved.iterations.item(0), solved.residual.item(0), solved.converged.item(0)
    )
    beta_hat, eps_hat = pt.beta_hat[0].copy(), pt.eps_hat[0].copy()
    return GceSolution(distributions, lam[0], beta_hat, eps_hat, float(objective), diagnostics)
