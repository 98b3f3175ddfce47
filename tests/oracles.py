"""Independent verification helpers used across the test suite.

Nothing in here calls into the solver internals: the grid oracle works on the
primal problem directly by eliminating one weight per row through the simplex
normalization and the per-observation means through the data constraints,
then brute-forcing the remaining free coordinates. The scalar bisection
oracle re-derives the one-constraint stationarity condition from scratch with
plain numpy exponentials (fine at test scale where nothing overflows). The
row-major dual oracle evaluates the weighted dual with every row reduced
along its own last axis, the plain ``(rows, points)`` arithmetic. The decimal
KL oracle forms the Gibbs rows at given multipliers and their KL divergence
from the prior in 50-digit ``decimal`` arithmetic.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from gcestream import GceProblem, JointDistribution, SupportGrid

_FEAS_TOL = 1e-12

# Problem shapes whose free dimension J*(K-1) + m*(H-2) stays at most 3, so a
# refinement grid at step 1e-3 is affordable; every individual size cap
# (m=3, J=2, K=3, H=3) is reached by some shape.
SMALL_STRUCTURES = (
    (1, 2, 1, 2),
    (1, 2, 2, 2),
    (1, 2, 3, 2),
    (1, 2, 1, 3),
    (1, 2, 2, 3),
    (1, 3, 1, 2),
    (1, 3, 2, 2),
    (1, 3, 3, 2),
    (1, 3, 1, 3),
    (2, 2, 1, 2),
    (2, 2, 2, 2),
    (2, 2, 3, 2),
    (2, 2, 1, 3),
)


@dataclass(frozen=True)
class OracleResult:
    beta_hat: np.ndarray
    objective: float
    free_coords: np.ndarray


def _mesh(axes) -> np.ndarray:
    if not axes:
        return np.zeros((1, 0))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _evaluate_free(problem: GceProblem, free: np.ndarray):
    """Objective and beta estimate at each free-coordinate vector.

    Returns (objective, beta_hat) with objective = +inf where the implied
    weights leave the simplex or the constraint-determined error weights go
    negative.
    """
    y = problem.y
    x = problem.x
    zb = problem.supports.beta_support
    ze = problem.supports.error_support
    qb = problem.prior.beta
    qe = problem.prior.error
    j_count, k_count = zb.shape
    m_count, h_count = ze.shape

    p_count = free.shape[0]
    d_beta = j_count * (k_count - 1)
    feasible = np.ones(p_count, dtype=bool)

    beta_free = free[:, :d_beta].reshape(p_count, j_count, k_count - 1)
    last = 1.0 - beta_free.sum(axis=2, keepdims=True)
    feasible &= (last >= -_FEAS_TOL).all(axis=(1, 2))
    pb = np.concatenate([beta_free, np.maximum(last, 0.0)], axis=2)
    beta_hat = np.einsum("pjk,jk->pj", pb, zb)

    targets = y[None, :] - beta_hat @ x.T  # (P, m) error means forced by the data
    pe = np.empty((p_count, m_count, h_count))
    if h_count == 2:
        for i in range(m_count):
            z1, z2 = ze[i]
            w1 = (z2 - targets[:, i]) / (z2 - z1)
            feasible &= (w1 >= -_FEAS_TOL) & (w1 <= 1.0 + _FEAS_TOL)
            w1 = np.clip(w1, 0.0, 1.0)
            pe[:, i, 0] = w1
            pe[:, i, 1] = 1.0 - w1
    elif h_count == 3:
        for i in range(m_count):
            z1, z2, z3 = ze[i]
            a = free[:, d_beta + i]
            w3 = (targets[:, i] - a * z1 - (1.0 - a) * z2) / (z3 - z2)
            w2 = 1.0 - a - w3
            feasible &= (w3 >= -_FEAS_TOL) & (w2 >= -_FEAS_TOL)
            pe[:, i, 0] = a
            pe[:, i, 1] = np.maximum(w2, 0.0)
            pe[:, i, 2] = np.maximum(w3, 0.0)
    else:
        raise ValueError("oracle supports error rows with 2 or 3 points only")

    objective = rel_entr(pb, qb[None]).sum(axis=(1, 2))
    objective += rel_entr(pe, qe[None]).sum(axis=(1, 2))
    objective = np.where(feasible, objective, np.inf)
    return objective, beta_hat


def _free_dimension(problem: GceProblem) -> int:
    j_count, k_count = problem.supports.beta_support.shape
    m_count, h_count = problem.supports.error_support.shape
    return j_count * (k_count - 1) + m_count * (h_count - 2)


def _best_on_axes(problem, axes, chunk):
    best_obj = np.inf
    best_free = None
    best_beta = None
    mesh = _mesh(axes)
    for piece in np.array_split(mesh, max(1, mesh.shape[0] // chunk)):
        obj, beta = _evaluate_free(problem, piece)
        k = int(np.argmin(obj))
        if obj[k] < best_obj:
            best_obj = float(obj[k])
            best_free = piece[k].copy()
            best_beta = beta[k].copy()
    return best_obj, best_free, best_beta


def grid_search_oracle(
    problem: GceProblem,
    *,
    coarse_step: float = 0.025,
    refine_step: float = 1e-3,
    window_cells: int = 2,
    chunk: int = 200_000,
) -> OracleResult:
    """Brute-force primal minimum over the eliminated free coordinates.

    One coarse exhaustive pass, then one local refinement pass at
    ``refine_step`` within ``window_cells`` coarse cells of the coarse
    argmin. The problem is convex in the free coordinates (the elimination
    map is affine), so the refinement window always contains the optimum.
    """
    dims = _free_dimension(problem)
    if dims == 0:
        obj, beta = _evaluate_free(problem, np.zeros((1, 0)))
        return OracleResult(beta[0], float(obj[0]), np.zeros(0))

    coarse_axis = np.arange(0.0, 1.0 + coarse_step / 2, coarse_step)
    best_obj, best_free, best_beta = _best_on_axes(problem, [coarse_axis] * dims, chunk)
    if best_free is None:
        raise ValueError("oracle found no feasible grid point; problem may be infeasible")

    axes = []
    for d in range(dims):
        lo = max(0.0, best_free[d] - window_cells * coarse_step)
        hi = min(1.0, best_free[d] + window_cells * coarse_step)
        axes.append(np.arange(lo, hi + refine_step / 2, refine_step))
    fine_obj, fine_free, fine_beta = _best_on_axes(problem, axes, chunk)
    if fine_obj <= best_obj:
        return OracleResult(fine_beta, fine_obj, fine_free)
    return OracleResult(best_beta, best_obj, best_free)


def random_feasible_objectives(problem: GceProblem, rng, draws: int = 200) -> np.ndarray:
    """KL objective values at random feasible points, for optimality bounds."""
    dims = _free_dimension(problem)
    free = rng.uniform(0.0, 1.0, size=(draws, dims))
    obj, _ = _evaluate_free(problem, free)
    return obj[np.isfinite(obj)]


# ---------------------------------------------------------------------------
# Random small problems
# ---------------------------------------------------------------------------


def random_small_problem(rng, structure=None, random_prior=False) -> GceProblem:
    """A feasible problem with at most 3 free coordinates after elimination.

    The response is built from random strictly interior distributions, so the
    strict-interior feasibility check always passes. Support ranges stay
    small (width at most 2) so the oracle's grid resolution translates into
    beta resolution well below the acceptance tolerance.
    """
    if structure is None:
        structure = SMALL_STRUCTURES[int(rng.integers(len(SMALL_STRUCTURES)))]
    j_count, k_count, m_count, h_count = structure

    beta_rows = []
    for _ in range(j_count):
        center = rng.uniform(-1.0, 1.0)
        half = rng.uniform(0.4, 1.0)
        beta_rows.append(np.linspace(center - half, center + half, k_count))
    zb = np.vstack(beta_rows)
    ze = np.vstack(
        [np.linspace(-h, h, h_count) for h in rng.uniform(0.5, 1.2, size=m_count)]
    )
    x = rng.uniform(-2.0, 2.0, size=(m_count, j_count))

    pb = np.vstack([rng.dirichlet(rng.uniform(1.5, 4.0, size=k_count)) for _ in range(j_count)])
    pe = np.vstack([rng.dirichlet(rng.uniform(1.5, 4.0, size=h_count)) for _ in range(m_count)])
    y = x @ (pb * zb).sum(axis=1) + (pe * ze).sum(axis=1)

    grid = SupportGrid(zb, ze)
    prior = None
    if random_prior:
        qb = np.vstack([rng.dirichlet(np.full(k_count, 3.0)) for _ in range(j_count)])
        qe = np.vstack([rng.dirichlet(np.full(h_count, 3.0)) for _ in range(m_count)])
        qb = np.clip(qb, 0.05, None)
        qe = np.clip(qe, 0.05, None)
        qb /= qb.sum(axis=1, keepdims=True)
        qe /= qe.sum(axis=1, keepdims=True)
        prior = JointDistribution(qb, qe)
    return GceProblem(y, x, grid, prior)


# ---------------------------------------------------------------------------
# Scalar-equation oracle for single-constraint updates
# ---------------------------------------------------------------------------


def scalar_residual_direct(
    lam: float, y0: float, x_row, zb, qb, ze_row, qe_row, wb: float = 1.0, we: float = 1.0
) -> float:
    """Constraint residual of the weighted one-observation problem at lam.

    Computed with plain exponentials from the stationarity conditions: the
    coefficient weights tilt by exp(-z * x * lam / wb) against their prior,
    the error weights by exp(-z * lam / we) against theirs.
    """
    x_row = np.asarray(x_row, dtype=float)
    prediction = 0.0
    for j in range(len(x_row)):
        w = np.asarray(qb[j]) * np.exp(-np.asarray(zb[j]) * x_row[j] * lam / wb)
        w = w / w.sum()
        prediction += x_row[j] * float(w @ np.asarray(zb[j]))
    we_row = np.asarray(qe_row) * np.exp(-np.asarray(ze_row) * lam / we)
    we_row = we_row / we_row.sum()
    prediction += float(we_row @ np.asarray(ze_row))
    return y0 - prediction


def bisect_scalar_multiplier(
    y0, x_row, zb, qb, ze_row, qe_row, wb: float = 1.0, we: float = 1.0, tol: float = 1e-10
) -> float:
    """Bisection on the scalar residual; expands the bracket until it flips."""

    def resid(lam):
        return scalar_residual_direct(lam, y0, x_row, zb, qb, ze_row, qe_row, wb, we)

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if resid(lo) * resid(hi) <= 0:
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise ValueError("could not bracket the scalar multiplier")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        r = resid(mid)
        if abs(r) <= tol:
            return mid
        # the residual is increasing in lam: negative residual means the
        # prediction overshoots, needing a larger multiplier
        if r < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Row-major dual evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualPoint:
    value: float
    grad: np.ndarray
    pb: np.ndarray
    pe: np.ndarray
    beta_hat: np.ndarray
    eps_hat: np.ndarray
    curv_beta: np.ndarray
    curv_eps: np.ndarray


def _row_major_log_partition(logits: np.ndarray, name: str):
    top = logits.max(axis=1, keepdims=True)
    shifted = np.exp(logits - top)
    total = shifted.sum(axis=1, keepdims=True)
    ln_z = np.log(total[:, 0]) + top[:, 0]
    bad = ~np.isfinite(ln_z)
    if bad.any():
        raise ValueError(f"non-finite partition sum in {name} row {int(np.argmax(bad))}")
    return ln_z, shifted / total


def row_major_dual_point(lam, y, x, zb, ze, log_qb, log_qe, wb=1.0, we=1.0) -> DualPoint:
    """The weighted dual at ``lam``, every row reduced along its last axis.

    ``zb`` is (J, K), ``ze`` (m, H), ``log_qb`` and ``log_qe`` the log prior
    weights (``log_qe`` may be one row shared by every observation, -inf
    where a point has no prior weight). The value carries the offset
    sum(log row sizes), so a uniform prior at zero scores J*log(K) +
    m*log(H). A row whose log partition sum is not finite raises ValueError
    naming the side and the first such row.
    """
    j, k = zb.shape
    m, h = ze.shape
    tilt = (x.T @ lam) / wb
    ln_zb, pb = _row_major_log_partition(log_qb - zb * tilt[:, None], "coefficient")
    beta_hat = (pb * zb).sum(axis=1)
    curv_beta = (pb * (zb - beta_hat[:, None]) ** 2).sum(axis=1) / wb
    ln_ze, pe = _row_major_log_partition(log_qe - ze * (lam / we)[:, None], "error")
    eps_hat = (pe * ze).sum(axis=1)
    curv_eps = (pe * (ze - eps_hat[:, None]) ** 2).sum(axis=1) / we
    offset = wb * j * math.log(k) + we * m * math.log(h)
    value = float(lam @ y + wb * ln_zb.sum() + we * ln_ze.sum() + offset)
    grad = y - x @ beta_hat - eps_hat
    return DualPoint(value, grad, pb, pe, beta_hat, eps_hat, curv_beta, curv_eps)


def finite_difference_gradient(fun, point: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for i in range(point.size):
        bump = np.zeros_like(point)
        bump[i] = step
        grad[i] = (fun(point + bump) - fun(point - bump)) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# 50-digit KL at given multipliers
# ---------------------------------------------------------------------------


def _decimal_row_kl(z, q, tilt) -> decimal.Decimal:
    """KL of the row proportional to ``q * exp(-z * tilt)`` from ``q``, in the current context.

    Points whose prior weight is below the clamp carry no weight, as in the solver.
    """
    live = [(decimal.Decimal(zk), decimal.Decimal(qk)) for zk, qk in zip(z, q) if qk >= 1e-300]
    weights = [qk * (-zk * tilt).exp() for zk, qk in live]
    total = sum(weights)
    return sum((w / total) * ((w / total) / qk).ln() for w, (_, qk) in zip(weights, live))


def decimal_kl(lam, problem: GceProblem, signal_weight=1.0, error_weight=1.0, digits=50) -> float:
    """``signal_weight * KL(beta rows) + error_weight * KL(error rows)`` at ``lam``, to ``digits``.

    The rows are the Gibbs rows of ``problem`` at the multipliers ``lam``:
    coefficient row j proportional to ``q_jk * exp(-z_jk * t_j)`` with
    ``t_j = sum_i x_ij * lam_i / signal_weight``, error row i to ``q_ih *
    exp(-z_ih * lam_i / error_weight)``. Every float converts to ``Decimal``
    exactly, and each KL is the plain sum of ``p * ln(p / q)`` over the live
    points, with no cancellation at ``digits`` digits; only the result is
    rounded to a float.
    """
    grid, prior = problem.supports, problem.prior
    error_support = np.broadcast_to(grid.error_support, (problem.n_obs, grid.n_error_points))
    error_prior = np.broadcast_to(prior.error, error_support.shape)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = decimal.Decimal
        lam_d = [d(v) for v in np.asarray(lam, dtype=float).tolist()]
        wb, we = d(signal_weight), d(error_weight)
        beta = sum(
            _decimal_row_kl(z, q, sum(d(xv) * lv for xv, lv in zip(col, lam_d)) / wb)
            for z, q, col in zip(grid.beta_support.tolist(), prior.beta.tolist(),
                                 problem.x.T.tolist())
        )
        error = sum(
            _decimal_row_kl(z, q, lv / we)
            for z, q, lv in zip(error_support.tolist(), error_prior.tolist(), lam_d)
        )
        return float(wb * beta + we * error)
