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

The solver works on plain arrays (data, supports, prior weights), so the
streaming updates solve without building a ``GceProblem``. A single
constraint (m = 1: a one-observation fit or streaming step) has one path, a
kernel that stacks the coefficient rows and the lone error row into one array
and never forms the dual value, which only the multi-constraint line search
reads. It holds nothing of one observation between solves, so a stream
builds it once for all its steps and gets the bits a new kernel would give.
Its Newton iteration starts at lam = 0 from the prior weights' own moments
(the Gibbs weights there are the prior), with no exponential.

The same machinery also minimizes the reweighted objective
``signal_weight * KL(beta rows) + error_weight * KL(error rows)`` used by the
streaming updates; the plain problem is the 1/1 special case.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    ZERO_CLAMP,
    JointDistribution,
    SupportGrid,
    _integer,
    kl_divergence,
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

# Armijo line search constants for the multi-constraint Newton path.
_ARMIJO_SLOPE = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60

# Relative ridge added to the Hessian diagonal when the plain system fails.
_RIDGE_SCALE = 1e-10


class InfeasibleObservationError(ValueError):
    """Raised when observed values cannot be reproduced from the support hulls.

    ``indices`` lists the offending observations. ``boundary`` distinguishes
    values sitting exactly on the hull edge (reachable only by degenerate
    point masses, so still rejected) from values strictly outside it.
    """

    def __init__(self, indices, lo, hi, boundary: bool = False):
        self.indices = tuple(int(i) for i in indices)
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


@dataclass(frozen=True)
class SolverSettings:
    """Dual solver knobs: residual tolerance and iteration cap."""

    constraint_tolerance: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self) -> None:
        tol = self.constraint_tolerance
        if isinstance(tol, bool) or not (
            isinstance(tol, numbers.Real) and tol > 0.0 and math.isfinite(tol)
        ):
            raise ValueError(f"constraint_tolerance must be a positive finite number, got {tol!r}")
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
    hand side when the row weights range over the prior's support (support
    points carrying zero prior weight cannot be reached and do not count).
    """

    y: np.ndarray
    x: np.ndarray
    supports: SupportGrid
    prior: JointDistribution = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        y = np.array(self.y, dtype=float).reshape(-1)
        x = np.atleast_2d(np.array(self.x, dtype=float))
        _check_observations(y, x, self.supports.n_params, self.supports.n_obs)
        prior = self.prior if self.prior is not None else JointDistribution.uniform(self.supports)
        if not prior.matches_grid(self.supports):
            raise ValueError("prior rows do not match the support grid dimensions")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "prior", prior)
        grid = self.supports
        _check_hull(y, x, grid.beta_support, prior.beta, grid.error_support, prior.error)

    @property
    def n_obs(self) -> int:
        return int(self.y.size)

    @property
    def n_params(self) -> int:
        return int(self.x.shape[1])


def _check_observations(y: np.ndarray, x: np.ndarray, n_params: int, n_obs: int) -> None:
    """Reject data that is not finite or does not fit a grid of the given shape.

    ``y`` is 1-D and ``x`` at least 2-D; the grid needs one coefficient row
    (``n_params``) per column of ``x`` and one error row (``n_obs``) per
    observation.
    """
    if y.size < 1:
        raise ValueError("need at least one observation")
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise ValueError("y and x must be finite")
    if x.shape[0] != y.size:
        raise ValueError(f"x has {x.shape[0]} rows, y has {y.size} entries")
    if n_obs != y.size:
        raise ValueError(f"support grid covers {n_obs} observations, data has {y.size}")
    if n_params != x.shape[1]:
        raise ValueError(f"support grid covers {n_params} coefficients, x has {x.shape[1]} columns")


def _live_bounds(z: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row smallest and largest support point that carries prior weight."""
    if q.min() > 0.0:  # every point is live, and rows are increasing
        return z[:, 0], z[:, -1]
    return np.where(q > 0.0, z, np.inf).min(axis=1), np.where(q > 0.0, z, -np.inf).max(axis=1)


def _coefficient_hull(x, bmin, bmax) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``x``: the range of ``x_i . beta`` over the box [bmin, bmax].

    The J columns are summed along the observation axis, in sequence, so the
    bounds are the row sums' bits while J < 8.
    """
    xt = np.ascontiguousarray(x.T)
    at_min, at_max = xt * bmin[:, None], xt * bmax[:, None]
    add = np.add.reduce
    return add(np.minimum(at_min, at_max), axis=0), add(np.maximum(at_min, at_max), axis=0)


def _check_hull(y, x, zb, qb, ze, qe) -> None:
    """Raise InfeasibleObservationError unless every y_i lies strictly inside its hull.

    The hull of observation i is the range of ``x_i . beta + eps_i`` as each
    row's weights range over the support points (``zb``, ``ze``) that carry
    prior weight (``qb``, ``qe``); points without prior weight are
    unreachable at finite KL and do not count.
    """
    emin, emax = _live_bounds(ze, qe)
    lo, hi = _coefficient_hull(x, *_live_bounds(zb, qb))
    lo, hi = lo + emin, hi + emax
    if ((lo < y) & (y < hi)).all():
        return
    outside = (y < lo) | (y > hi)
    if outside.any():
        idx = np.flatnonzero(outside)
        raise InfeasibleObservationError(idx, lo[idx[0]], hi[idx[0]], boundary=False)
    idx = np.flatnonzero((y == lo) | (y == hi))
    raise InfeasibleObservationError(idx, lo[idx[0]], hi[idx[0]], boundary=True)


@dataclass(frozen=True)
class GceSolution:
    """Fitted weights plus the point estimates they imply.

    ``distributions`` holds the fitted weights as ``(J, K)`` and ``(m, H)``
    arrays. ``objective_value`` is the achieved (possibly reweighted) KL
    divergence from the prior. ``beta_hat`` and ``epsilon_hat`` are the
    expectations of the fitted rows over their support points.
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


@dataclass(frozen=True)
class _DualPoint:
    """Everything the iteration needs at one multiplier vector."""

    value: float  # NaN from the single-constraint path, which never reads it
    grad: np.ndarray
    pb: np.ndarray  # (J, K) coefficient row weights
    pe: np.ndarray  # (m, H) error row weights
    beta_hat: np.ndarray
    eps_hat: np.ndarray
    curv_beta: np.ndarray  # per-coefficient Hessian contribution
    curv_eps: np.ndarray  # per-observation Hessian contribution
    # The coefficient rows' Gibbs terms, p_jk = q_jk * exp(-z_jk * t_j) / Z_j,
    # so KL(p_j | q_j) = -t_j * beta_hat_j - ln Z_j; a stream step reads its
    # ledger entry off them, clamped at zero per row as kl_divergence is,
    # instead of a second KL pass (within 1.5e-15 of that pass at n = 3840).
    tilt: np.ndarray  # (J,) t = x^T lam / signal_weight
    ln_zb: np.ndarray  # (J,) ln Z_j, the coefficient rows' log partitions


def _log_partition(logits: np.ndarray, name: str, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log-sum-exp and the normalized row weights, from one exp.

    The support points of a row lie along ``axis``: 1 for ``(rows, points)``
    logits, 0 for ``(points, rows)``. Reducing a tall stack along its long
    axis (axis 0 of a ``(points, rows)`` array) costs a few vector passes
    instead of one short reduction per row. Either way numpy adds a row's
    points in sequence while there are fewer than 8, so both layouts give
    the same bits; from 8 points on, a row sum is pairwise and the two agree
    to the last few ulps. The weights come back in the layout of ``logits``.

    Entries of -inf (support points without prior weight) get zero weight; a
    row whose log partition sum is not finite raises ValueError.
    """
    top = logits.max(axis=axis, keepdims=True)
    shifted = np.exp(logits - top)
    total = np.add.reduce(shifted, axis=axis, keepdims=True)
    ln_z = (np.log(total) + top).reshape(-1)
    bad = ~np.isfinite(ln_z)
    if bad.any():
        raise ValueError(f"non-finite partition sum in {name} row {int(np.argmax(bad))}")
    return ln_z, shifted / total


def _log_priors(q: np.ndarray) -> np.ndarray:
    """log q, with -inf where the prior weight is below the clamp."""
    return np.where(q >= ZERO_CLAMP, np.log(np.maximum(q, ZERO_CLAMP)), -np.inf)


class _DualEvaluator:
    """Precomputed log-priors and supports for repeated dual evaluations.

    Takes the data ``y`` (m,) and ``x`` (m, J), the support arrays ``zb``
    (J, K) and ``ze`` (m, H), the log prior weights ``log_qb`` and ``log_qe``
    (``_log_priors`` of the weights; ``log_qe`` may be one row shared by every
    observation) and the two objective weights.

    The error side is stored once per solve as contiguous ``(H, m)`` arrays
    (a shared ``(1, H)`` log prior as ``(H, 1)``), so each of its per-row
    reductions runs along the long observation axis; ``evaluate`` hands back
    the error weights as the ``(m, H)`` view of that array. Rows of fewer
    than 8 points are summed in sequence in either layout, so every output
    is bit-identical to a row-major evaluation while K, H and J are below 8;
    wider rows agree to the last few ulps.

    The reported value is measured relative to uniform rows: it carries a
    constant offset of sum(log row sizes), so at zero multipliers with a
    uniform prior the value is J*log(K) + m*log(H), and at the optimum the
    achieved KL divergence equals that constant minus the minimal value.
    """

    def __init__(self, y, x, zb, ze, log_qb, log_qe, signal_weight: float, error_weight: float):
        self.y = y
        self.x = x
        self.zb = zb
        self.ze_t = np.ascontiguousarray(ze.T)
        self.log_qb = log_qb
        self.log_qe_t = np.ascontiguousarray(log_qe.T)
        self.wb = float(signal_weight)
        self.we = float(error_weight)
        j, k = self.zb.shape
        m, h = ze.shape
        self.offset = self.wb * j * math.log(k) + self.we * m * math.log(h)

    def evaluate(self, lam: np.ndarray) -> _DualPoint:
        add = np.add.reduce
        tilt = (self.x.T @ lam) / self.wb
        ln_zb, pb = _log_partition(self.log_qb - self.zb * tilt[:, None], "coefficient", 1)
        beta_hat = add(pb * self.zb, axis=1)
        curv_beta = add(pb * (self.zb - beta_hat[:, None]) ** 2, axis=1) / self.wb

        ze = self.ze_t
        ln_ze, pe = _log_partition(self.log_qe_t - ze * (lam / self.we), "error", 0)
        eps_hat = add(pe * ze, axis=0)
        curv_eps = add(pe * (ze - eps_hat) ** 2, axis=0) / self.we

        value = float(lam @ self.y + self.wb * ln_zb.sum() + self.we * ln_ze.sum() + self.offset)
        grad = self.y - self.x @ beta_hat - eps_hat
        return _DualPoint(
            value, grad, pb, pe.T, beta_hat, eps_hat, curv_beta, curv_eps, tilt, ln_zb
        )


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


def _normal_solve(x: np.ndarray, vb: np.ndarray, ve: np.ndarray, grad: np.ndarray):
    """Solve (x diag(vb) x^T + diag(ve)) d = grad through the J-by-J system.

    The Hessian is a rank-J update of a diagonal, so the Woodbury identity
    reduces the solve to the coefficient dimension regardless of m. Returns
    None when the small system is numerically unusable.
    """
    u = grad / ve
    active = vb > 0.0
    if not np.any(active):
        return u
    xa = x[:, active]
    cmat = np.diag(1.0 / vb[active]) + xa.T @ (xa / ve[:, None])
    rhs = xa.T @ u
    if not (np.all(np.isfinite(cmat)) and np.all(np.isfinite(rhs))):
        return None
    try:
        w = np.linalg.solve(cmat, rhs)
    except np.linalg.LinAlgError:
        return None
    return u - (xa @ w) / ve


def _solve_multi(ev: _DualEvaluator, settings: SolverSettings):
    """Damped Newton with a ridge retry and a gradient fallback.

    Returns the multipliers, the final ``_DualPoint`` and the iteration count.
    """
    lam = np.zeros(ev.y.size)
    pt = ev.evaluate(lam)
    tol = settings.constraint_tolerance
    iterations = 0
    while iterations < settings.max_iterations and np.max(np.abs(pt.grad)) > tol:
        candidates = []
        if np.all(pt.curv_eps > 0.0):
            candidates.append(pt.curv_eps)
        diag = (ev.x * ev.x) @ pt.curv_beta + pt.curv_eps
        scale = float(diag.max()) if diag.size and diag.max() > 0.0 else 1.0
        candidates.append(pt.curv_eps + _RIDGE_SCALE * scale)

        direction = None
        for ve in candidates:
            d = _normal_solve(ev.x, pt.curv_beta, ve, pt.grad)
            if d is not None and np.all(np.isfinite(d)) and float(pt.grad @ d) > 0.0:
                direction = -d
                break
        if direction is None:
            direction = -pt.grad

        slope = float(pt.grad @ direction)
        step = 1.0
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            trial = lam + step * direction
            cand = ev.evaluate(trial)
            if cand.value <= pt.value + _ARMIJO_SLOPE * step * slope:
                accepted = (trial, cand)
                break
            step *= _BACKTRACK
        if accepted is None:
            break  # no further decrease representable
        lam, pt = accepted
        iterations += 1
    return lam, pt, iterations


class _ScalarKernel:
    """Single-constraint solves on one stacked support, built once and reused.

    Built from the coefficient supports ``zb`` (J, K), the error row's log
    prior weights ``log_qe_row`` (H,) and the two objective weights; each
    solve brings its own observation, coefficient prior and error support
    row. The J coefficient rows and the error row live in one
    ``(J+1, max(K, H))`` stack, so an iterate costs one set of numpy calls
    instead of two; a padding point has support 0 and prior weight 0, so it
    gets exactly zero weight.

    Points are ``(grad, p, means, curv)``, stacked. ``start``'s point at
    lam = 0 is the prior weights' own moments, equal to
    ``_DualEvaluator.evaluate``'s to rounding. ``at`` does ``evaluate``'s
    arithmetic, operation for operation, plus exact zeros from the padding,
    so its points are bit-identical while ``max(K, H) < 8``, where numpy sums
    a row in sequence. A log partition sum is finite exactly when its row's
    maximum logit is, and a non-finite one makes the gradient NaN, so the
    rows are checked only then. ``at`` keeps its tilt, row maxima and row
    sums as ``last``, and ``solve`` forms ``ln Z`` from them once, for the
    coefficient rows of its final point (J logs).
    """

    def __init__(self, zb, log_qe_row, signal_weight: float, error_weight: float):
        j, k = zb.shape
        h = log_qe_row.shape[0]
        width = max(k, h)
        self.shape = (j, k, h)
        self.z = np.zeros((j + 1, width))
        self.z[:j, :k] = zb
        # numpy's Python-level constructors (full, ones) cost more than the
        # fills below, and a one-observation block builds a kernel per call
        self.log_q = np.empty((j + 1, width))
        self.log_q.fill(-np.inf)
        self.log_q[j, :h] = log_qe_row
        # the prior weights, with the error row's as the Gibbs form normalizes them
        self.q = np.zeros((j + 1, width))
        shifted = np.exp(log_qe_row - np.maximum.reduce(log_qe_row))
        self.q[j, :h] = shifted / np.add.reduce(shifted)
        # the tilt of row r is (x_r * lam) / weight_r, with x = 1 for the error row
        self.x_stack = np.zeros(j + 1)
        self.x_stack[j] = 1.0
        self.x = self.x_stack[None, :j]
        self.w = np.empty(j + 1)
        self.w[:j], self.w[j] = signal_weight, error_weight
        self.y0 = 0.0
        self.last = None  # the last ``at``'s tilt, row maxima and row sums

    def _moments(self, p):
        # The ufunc reductions are what .sum calls, minus its Python wrapper.
        # x @ means stays the (1, J) product that ``evaluate`` forms.
        add = np.add.reduce
        z = self.z
        means = add(p * z, axis=1)
        curv = add(p * (z - means[:, None]) ** 2, axis=1) / self.w
        j = self.shape[0]
        return self.y0 - (self.x @ means[:j])[0] - means[j], p, means, curv

    def start(self, qb, log_qb, y0, x_row, ze_row):
        """Load ``(y0, x_row)``, its error row ``ze_row`` and the prior ``qb``; the point at zero.

        ``log_qb`` is ``_log_priors(qb)``: weights below ZERO_CLAMP, where it
        is -inf, count as zero, as the Gibbs form counts them.
        """
        j, k, h = self.shape
        self.log_q[:j, :k] = log_qb
        self.z[j, :h] = ze_row
        self.x_stack[:j] = x_row
        self.y0 = y0
        p = self.q.copy()
        np.multiply(qb, log_qb > -np.inf, out=p[:j, :k])
        return self._moments(p)

    def at(self, lam: float):
        """The point at the multiplier ``lam`` for the loaded observation."""
        tilt = (self.x_stack * lam) / self.w
        logits = self.log_q - self.z * tilt[:, None]
        top = np.maximum.reduce(logits, axis=1, keepdims=True)
        shifted = np.exp(logits - top)
        total = np.add.reduce(shifted, axis=1, keepdims=True)
        self.last = tilt, top, total
        point = self._moments(shifted / total)
        if not math.isfinite(point[0]):
            bad = ~np.isfinite(top[:, 0])
            if bad.any():
                row = int(np.argmax(bad))
                where = f"coefficient row {row}" if row < self.shape[0] else "error row 0"
                raise ValueError(f"non-finite partition sum in {where}")
        return point

    def solve(self, qb, log_qb, y0, x_row, ze_row, settings: SolverSettings):
        """Bracketed Newton for one observation, loaded by ``start``, from lam = 0.

        The dual gradient is increasing in the lone multiplier, so once values
        of opposite sign have been seen the root is bracketed and any Newton
        proposal escaping the bracket is replaced by its midpoint. Returns
        what ``_solve_multi`` returns, the multipliers, the final point and
        the iteration count; the point's value is NaN. Without a step the
        point is the prior's own, whose tilt and log partitions are zero.
        """
        tol = settings.constraint_tolerance
        j, k, h = self.shape
        x_sq = x_row**2
        lam = 0.0
        g, p, means, curv = self.start(qb, log_qb, y0, x_row, ze_row)
        lo = hi = None
        iterations = 0
        while iterations < settings.max_iterations and abs(g) > tol:
            g = float(g)
            if g < 0.0:
                lo = lam
            else:
                hi = lam
            hess = float(x_sq @ curv[:j] + curv[j])
            cand = lam - g / hess if hess > 0.0 and math.isfinite(hess) else None
            if lo is not None and hi is not None:
                if cand is None or not (lo < cand < hi) or not math.isfinite(cand):
                    cand = 0.5 * (lo + hi)
            else:
                trust = 8.0 * (1.0 + abs(lam))
                if cand is None or not math.isfinite(cand):
                    cand = lam + (trust if g < 0.0 else -trust)
                else:
                    cand = min(max(cand, lam - trust), lam + trust)
            if cand == lam:
                break  # bracket collapsed to machine resolution
            lam = cand
            g, p, means, curv = self.at(lam)
            iterations += 1
        if iterations:
            tilt, top, total = self.last
            tilt, ln_zb = tilt[:j], np.log(total[:j, 0]) + top[:j, 0]
        else:
            tilt = ln_zb = np.zeros(j)
        pt = _DualPoint(
            math.nan, np.array([g]), p[:j, :k], p[j:, :h], means[:j], means[j:],
            curv[:j], curv[j:], tilt, ln_zb,
        )
        return np.array([lam]), pt, iterations


def _solve_dual(y, x, zb, ze, qb, log_qe, signal_weight, error_weight, settings, kernel=None):
    """Solve the weighted dual of one problem from a zero start.

    Takes the data ``y`` (m,) and ``x`` (m, J), the supports ``zb`` (J, K)
    and ``ze`` (m, H), the coefficient prior weights ``qb``, the error rows'
    log prior weights ``log_qe`` (one row may be shared by every
    observation) and the two objective weights. One observation goes through
    a ``_ScalarKernel``: ``kernel`` when given, built on ``zb``, ``log_qe``
    and these weights, else a new one; more go through ``_solve_multi``.
    Returns the multipliers, the final ``_DualPoint`` and the
    ``SolverDiagnostics``, whose verdict is decided here and nowhere else.
    """
    log_qb = _log_priors(qb)
    if y.size == 1:
        if kernel is None:
            kernel = _ScalarKernel(zb, log_qe[0], signal_weight, error_weight)
        lam, pt, iterations = kernel.solve(qb, log_qb, y[0], x[0], ze[0], settings)
    else:
        ev = _DualEvaluator(y, x, zb, ze, log_qb, log_qe, signal_weight, error_weight)
        lam, pt, iterations = _solve_multi(ev, settings)
    residual = float(np.abs(pt.grad).max())
    return lam, pt, SolverDiagnostics(
        iterations, residual, residual <= settings.constraint_tolerance
    )


def _evaluator(problem: GceProblem, signal_weight: float, error_weight: float) -> _DualEvaluator:
    """The evaluator for a problem's data, grid and prior."""
    grid, prior = problem.supports, problem.prior
    zb, ze = grid.beta_support, grid.error_support
    return _DualEvaluator(
        problem.y, problem.x, zb, ze, _log_priors(prior.beta), _log_priors(prior.error),
        signal_weight, error_weight,
    )


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
    pt = _evaluator(problem, signal_weight, error_weight).evaluate(lam)
    return JointDistribution(pt.pb, pt.pe)


def dual_objective(multipliers, problem: GceProblem) -> tuple[float, np.ndarray]:
    """Value and gradient of the convex dual at the given multipliers.

    The gradient entry for observation i is the constraint residual
    ``y_i - (prediction_i + error_expectation_i)`` under the Gibbs weights, so
    a zero gradient certifies the fitted weights satisfy the constraints. The
    value is offset so that a uniform prior at zero multipliers scores
    J*log(K) + m*log(H).
    """
    lam = _as_multipliers(multipliers, problem.n_obs)
    pt = _evaluator(problem, 1.0, 1.0).evaluate(lam)
    return pt.value, pt.grad


def solve_gce(
    problem: GceProblem,
    settings: SolverSettings | None = None,
    *,
    signal_weight: float = 1.0,
    error_weight: float = 1.0,
) -> GceSolution:
    """Minimize KL divergence from the prior subject to the data constraints.

    Runs safeguarded Newton on the dual from a zero start: Woodbury-reduced
    Newton systems with a relative ridge retry and a gradient fallback for
    m >= 2, bracketed Newton/bisection for a single observation (the kernel
    the streaming updates of one observation use too), evaluated without the
    dual value. Non-convergence within the iteration cap is reported through
    ``diagnostics.converged`` rather than raised.

    With ``signal_weight``/``error_weight`` the minimized objective becomes
    ``signal_weight * KL(coefficient rows) + error_weight * KL(error rows)``;
    the weights rescale the objective without moving its minimizer when equal.
    """
    settings = settings if settings is not None else SolverSettings()
    _check_weights(signal_weight, error_weight)
    grid, prior = problem.supports, problem.prior
    lam, pt, diagnostics = _solve_dual(
        problem.y, problem.x, grid.beta_support, grid.error_support, prior.beta,
        _log_priors(prior.error), signal_weight, error_weight, settings,
    )

    distributions = JointDistribution(pt.pb, pt.pe)
    objective = signal_weight * kl_divergence(
        distributions.beta, problem.prior.beta
    ).sum() + error_weight * kl_divergence(distributions.error, problem.prior.error).sum()
    lam.setflags(write=False)
    return GceSolution(
        distributions=distributions,
        multipliers=lam,
        beta_hat=pt.beta_hat.copy(),
        epsilon_hat=pt.eps_hat.copy(),
        objective_value=float(objective),
        diagnostics=diagnostics,
    )
