"""Streaming re-estimation: absorb observations by reweighting the last fit.

The batch stage solves an ordinary cross entropy regression with uniform
priors. Every later observation (or block of observations) is absorbed by a
small solve of the same family: the coefficient rows keep the previous fit as
their prior while the error rows start fresh from uniform weights over a
support row scaled to the incoming data. The update minimizes

    gamma * KL(coefficient rows | previous fit)
    + (1 - gamma) * KL(error rows | uniform)

subject to the block's consistency constraints. At gamma = 0.5 both terms
carry equal weight, which reproduces the plain joint objective.

States are immutable values. Each absorbed block appends one entry to the
entropy ledger, the KL divergence of the new coefficient weights from the
previous ones, a nonnegative account of how much information the block moved.
The entry comes from the solve's own Gibbs terms, not a second KL pass: row
j's weights are p_j proportional to q_j * exp(-z_j * t_j), so
KL(p_j | q_j) = -t_j * beta_hat_j - ln Z_j, clamped at zero per row as
``kl_divergence`` clamps it. It agrees with ``kl_divergence`` of the stored
states to 1.5e-15 on streams at n = 3840, and to 1.2e-14 relative where the
carried prior has underflowed.
Successive states share their logs, so absorbing a block costs the same
however long the stream has run. One block step, ``_absorb``, absorbs every
block: ``block_update`` calls it once, and ``run_stream`` calls it per block
on plain arrays, each block's error rows and hull bounds resolved before the
first solve, and builds one state, at the end. A one-observation block is
solved by the solver's single-constraint kernel, which ``run_stream`` builds
once per stream and ``block_update`` once per call.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    SupportGrid,
    _error_rows,
    _integer,
    _simplex_rows,
    _support_rows,
    expectation,
)
from .simulation import _check_error_scale, _scaled_error_support
from .solver import (
    GceProblem,
    GceSolution,
    InfeasibleObservationError,
    SolverSettings,
    _check_hull,
    _check_observations,
    _coefficient_hull,
    _log_priors,
    _ScalarKernel,
    _solve_dual,
    solve_gce,
)

__all__ = [
    "UpdateSettings",
    "StreamState",
    "StreamReport",
    "init_stream",
    "update_step",
    "block_update",
    "run_stream",
]

logger = logging.getLogger(__name__)

_APPEND_LOCK = threading.Lock()


def _low(values: Sequence[float], low: float = math.inf) -> float:
    """The smallest of ``low`` and ``values``, or NaN if a value is not finite.

    ``min`` alone keeps a leading NaN but drops a later one.
    """
    return min([low, *values]) if all(map(math.isfinite, values)) else math.nan


class _Log(Sequence):
    """An immutable view of the first ``len(self)`` entries of an append-only list.

    Successive stream states share one list, so ``extended`` appends in place
    in O(1); when a later state has appended already (a branch from an older
    state) it copies the prefix first, so no view ever sees its entries
    change. ``low`` is the smallest entry of a numeric log (NaN if an entry is
    not finite, infinity while it is empty), else None.
    """

    __slots__ = ("_items", "_size", "low")

    def __init__(self, items: list, low: float | None) -> None:
        self._items, self._size, self.low = items, len(items), low

    def extended(self, values) -> "_Log":
        with _APPEND_LOCK:
            items = self._items if len(self._items) == self._size else self._items[: self._size]
            items.extend(values)
            return _Log(items, None if self.low is None else _low(values, self.low))

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._items[: self._size][index])
        return self._items[range(self._size)[index]]

    def __iter__(self):
        return iter(self._items[: self._size])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a is b or a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class UpdateSettings:
    """Streaming knobs: prior stickiness and the inner solver settings.

    ``gamma`` must be a real number strictly inside (0, 1); the endpoints
    would freeze the coefficient weights entirely or ignore the carried prior.
    Every block of a stream is absorbed at the same ``gamma``. ``solver``
    must be a ``SolverSettings``.
    """

    gamma: float = 0.5
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        gamma = self.gamma
        if isinstance(gamma, bool) or not (isinstance(gamma, numbers.Real) and 0.0 < gamma < 1.0):
            raise ValueError(f"gamma must lie strictly in (0, 1), got {gamma!r}")
        if not isinstance(self.solver, SolverSettings):
            raise ValueError(f"solver must be a SolverSettings, got {self.solver!r}")


# settings are immutable, so an update without any shares one default
# instead of building and validating it on every step
_DEFAULT_SETTINGS = UpdateSettings()


@dataclass(frozen=True)
class StreamState:
    """Carried coefficient prior plus the running diagnostic logs.

    ``beta_prior`` is the ``(J, K)`` read-only array of carried coefficient
    weights, checked like a ``JointDistribution``'s rows but stored as given,
    so a state rebuilt from another state's prior carries the same bits.
    ``supports`` is the grid the stream started from: its coefficient rows
    hold for the whole stream, and its error rows are the batch's (incoming
    blocks supply their own). ``step_index``, a whole number, counts absorbed
    observations. The logs are read-only sequences that the update functions
    share between successive states instead of copying them. Every ledger
    entry must be a finite number no less than -1e-12.
    """

    beta_prior: np.ndarray
    supports: SupportGrid
    step_index: int
    epsilon_log: Sequence[float] = ()
    entropy_ledger: Sequence[float] = ()
    beta_trajectory: Sequence[np.ndarray] = ()
    converged_log: Sequence[bool] = ()

    def __post_init__(self) -> None:
        prior = _simplex_rows(self.beta_prior, "beta_prior", renormalize=False)
        if prior.shape != self.supports.beta_support.shape:
            raise ValueError("beta_prior rows do not match the support grid")
        step_index = _integer(self.step_index, "step_index")
        if step_index < 0:
            raise ValueError("step_index must be nonnegative")
        object.__setattr__(self, "beta_prior", prior)
        object.__setattr__(self, "step_index", step_index)
        # A _Log is kept as it is, so an update costs O(1), and a numeric one
        # carries its minimum for the ledger bound; other sequences are copied.
        logs = ("epsilon_log", "entropy_ledger", "beta_trajectory", "converged_log")
        for name, cast in zip(logs, (float, float, None, bool)):
            values = getattr(self, name)
            if not (isinstance(values, _Log) and (values.low is not None or cast is None)):
                items = list(values if cast is None else map(cast, values))
                values = _Log(items, None if cast is None else _low(items))
            object.__setattr__(self, name, values)
        if not self.entropy_ledger.low >= -1e-12:
            raise ValueError("entropy ledger entries must be finite and nonnegative")

    @classmethod
    def uniform_start(cls, supports: SupportGrid) -> "StreamState":
        """A state with uniform coefficient weights and nothing absorbed yet."""
        k = supports.n_beta_points
        prior = np.full((supports.n_params, k), 1.0 / k)
        start = expectation(prior, supports.beta_support)
        return cls(prior, supports, step_index=0, beta_trajectory=(start,))

    @property
    def beta_hat(self) -> np.ndarray:
        """Current point estimates: expectations of the carried weights."""
        out = expectation(self.beta_prior, self.supports.beta_support)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class StreamReport:
    """Everything a finished stream produced, in arrival order."""

    beta_hat: np.ndarray
    epsilon_hat: np.ndarray
    entropy_ledger: np.ndarray
    beta_trajectory: np.ndarray
    final_state: StreamState
    batch_solution: GceSolution | None
    skipped: tuple[int, ...]
    all_converged: bool


# ---------------------------------------------------------------------------
# The update kernel
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _uniform_error_prior(h: int) -> tuple[np.ndarray, np.ndarray]:
    """One uniform error row of ``h`` points and its log, shared by every block.

    Both are read-only ``(1, h)`` arrays; the row is renormalized as a
    ``JointDistribution`` would store it.
    """
    qe = np.full((1, h), 1.0 / h)
    qe /= qe.sum(axis=1)[:, None]
    log_qe = _log_priors(qe)
    qe.setflags(write=False)
    log_qe.setflags(write=False)
    return qe, log_qe


def _check_block(y, x, zb, error_rows):
    """Check observations and their error rows against the coefficient grid ``zb``.

    Returns ``y`` as a 1-D float array, ``x`` as a 2-D one and the error
    support rows, one per observation (a single row is shared by all), each
    checked as ``SupportGrid`` and ``GceProblem`` would check them. The hull
    is left to ``_absorb``, with bounds from ``_hull``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rows = _error_rows(error_rows)
    if rows.shape[0] == 1 and y.size > 1:
        rows = np.tile(rows, (y.size, 1))
    _check_observations(y, x, zb.shape[0], rows.shape[0])
    return y, x, rows


def _hull(x, zb, rows) -> tuple[np.ndarray, np.ndarray]:
    """Per observation, the range of ``x_i . beta + eps_i`` over the full supports."""
    lo, hi = _coefficient_hull(x, zb[:, 0], zb[:, -1])
    return lo + rows[:, 0], hi + rows[:, -1]


def _absorb(carried, zb, y, x, rows, hull, settings, step_index, kernel=None):
    """The one block step: absorb a checked block into the carried ``(J, K)`` prior.

    ``rows`` holds one error support row per observation, each with a uniform
    prior, and ``hull`` is the block's ``_hull``. The hull is checked before
    any solve and an infeasible block raises InfeasibleObservationError
    (indices local to the block). Returns the new prior (normalized Gibbs
    rows), the block's error estimates, its ledger entry, the new
    ``beta_hat`` and whether the solve converged. ``step_index`` only labels
    the underflow warning.

    The ledger entry is the KL divergence of the new prior from ``carried``,
    formed from the final point's tilt t and log partitions ln Z as
    ``sum_j max(-t_j * beta_hat_j - ln Z_j, 0)``, the same for both solve
    paths: the per-row clamp is ``kl_divergence``'s, and a one-observation
    solve that takes no Newton step has t = ln Z = 0, so its entry is 0. The
    entries stay within 1.5e-15 of ``kl_divergence(prior, carried)`` on
    streams at n = 3840 and within 1.2e-14 relative on an underflowed prior.
    ``kernel`` is a single-constraint kernel for one-observation blocks,
    built on ``zb``, the uniform error prior and gamma; without one the
    solve builds its own, with the same bits. Newton starts at the carried
    prior's moments.
    """
    qe, log_qe = _uniform_error_prior(rows.shape[1])
    if not (carried.min() > 0.0 and ((hull[0] < y) & (y < hull[1])).all()):
        # only live points count; the renormalized prior below is positive
        # exactly where the carried one is
        _check_hull(y, x, zb, carried, rows, qe)

    # the prior a JointDistribution would hold: renormalized rows
    qb = carried / carried.sum(axis=1)[:, None]
    gamma = settings.gamma
    _, pt, diagnostics = _solve_dual(
        y, x, zb, rows, qb, log_qe, gamma, 1.0 - gamma, settings.solver, kernel
    )

    prior = pt.pb / pt.pb.sum(axis=1)[:, None]
    if prior.min() <= 0.0:
        logger.warning(
            "carried prior underflowed to zero on some support points at step %d; "
            "those points are frozen out for the rest of the stream",
            step_index,
        )
    moved = float(np.add.reduce(np.maximum(-pt.tilt * pt.beta_hat - pt.ln_zb, 0.0)))
    return prior, pt.eps_hat, moved, pt.beta_hat, diagnostics.converged


# ---------------------------------------------------------------------------
# Stream construction and updates
# ---------------------------------------------------------------------------


def init_stream(
    batch: GceProblem, settings: UpdateSettings | None = None
) -> tuple[StreamState, GceSolution]:
    """Solve the opening batch and seed the carried prior with its weights.

    The batch problem must use a uniform prior: the stream's information
    account starts from zero. The batch's error weights are not carried;
    only the coefficient rows persist.
    """
    settings = settings if settings is not None else _DEFAULT_SETTINGS
    for weights in (batch.prior.beta, batch.prior.error):
        if np.max(np.abs(weights - 1.0 / weights.shape[1])) > 1e-12:
            raise ValueError("init_stream requires a uniform batch prior")

    solution = solve_gce(batch, settings.solver)
    state = StreamState(
        beta_prior=solution.distributions.beta,
        supports=batch.supports,
        step_index=batch.n_obs,
        epsilon_log=solution.epsilon_hat.tolist(),
        beta_trajectory=(solution.beta_hat,),
        converged_log=(solution.diagnostics.converged,),
    )
    return state, solution


def block_update(
    state: StreamState,
    y_block,
    x_block,
    error_support_rows,
    settings: UpdateSettings | None = None,
) -> StreamState:
    """Absorb a block of observations into the carried prior.

    Solves the block's constraints with the gamma-weighted objective: the
    coefficient prior is the carried one and the error rows are uniform over
    the supplied support rows (one row per observation, or one row shared by
    all). The block is checked once, as ``GceProblem`` and ``SupportGrid``
    would check it, by the same check ``run_stream`` makes of a whole stream;
    the carried prior is a ``StreamState`` invariant and is not checked
    again. The block step ``run_stream`` drives then checks the hull and
    solves on plain arrays (no problem or distribution objects, and the
    ledger entry comes from the solve's log partitions), trusting the
    block's full-support hull while every carried weight is positive; a
    block of one observation builds one single-constraint kernel for this
    call, whose Newton iteration starts at the carried prior's moments.
    Infeasible blocks raise InfeasibleObservationError (indices local to
    the block) and leave the caller's state untouched, so a stream can skip
    and log them. The new state keeps the stream's support grid.
    """
    settings = settings if settings is not None else _DEFAULT_SETTINGS
    zb = state.supports.beta_support
    y, x, rows = _check_block(y_block, x_block, zb, error_support_rows)
    prior, eps, moved, beta_hat, converged = _absorb(
        state.beta_prior, zb, y, x, rows, _hull(x, zb, rows), settings, state.step_index
    )
    return StreamState(
        beta_prior=prior,
        supports=state.supports,
        step_index=state.step_index + y.size,
        epsilon_log=state.epsilon_log.extended(eps.tolist()),
        entropy_ledger=state.entropy_ledger.extended((moved,)),
        beta_trajectory=state.beta_trajectory.extended((beta_hat,)),
        converged_log=state.converged_log.extended((converged,)),
    )


def update_step(
    state: StreamState,
    y_new: float,
    x_new,
    error_support_row,
    settings: UpdateSettings | None = None,
) -> StreamState:
    """Absorb a single observation; identical to a block of size one."""
    x_row = np.reshape(x_new, (1, -1))
    return block_update(state, [y_new], x_row, np.reshape(error_support_row, (1, -1)), settings)


# ---------------------------------------------------------------------------
# Whole-stream driver
# ---------------------------------------------------------------------------


def run_stream(
    y,
    x,
    batch_size: int,
    block_size: int = 1,
    settings: UpdateSettings | None = None,
    *,
    beta_support,
    error_support=None,
    error_points: int = 3,
    error_scale: str = "batch",
) -> StreamReport:
    """Batch-initialize on the first observations, then absorb the rest in order.

    ``beta_support`` is either one support row shared by every coefficient or
    a full (J, K) matrix. The error support row is taken from
    ``error_support`` when given, which must be one row, 1-D or of shape
    ``(1, H)`` (it is ``block_update`` that takes a row per observation),
    otherwise built as ``error_points`` equally spaced points spanning three
    sample standard deviations of the batch responses
    (``error_scale="batch"``, the default), of all responses (``"full"``), or
    of every response seen so far, recomputed before each block
    (``"cumulative"``). A sample of one value or with no spread gets a
    fixed half-width of ``3 * max(1, max|y|)`` over that sample instead; an
    empty one (``batch_size`` zero with ``"batch"`` or ``"cumulative"``) is an
    error. ``batch_size`` zero skips the batch stage and starts from uniform
    coefficient weights. The final block keeps whatever remainder is left
    when ``block_size`` does not divide the stream.

    Blocks containing infeasible observations are skipped and logged; their
    global indices are reported.

    The whole stream is checked before the batch solve, as ``block_update``
    checks a block, so bad data raises ``block_update``'s error before any
    work is done; every observation's error row, a cumulative stream's
    included, is built and checked then. On valid data the result is a left
    fold of ``block_update`` over the blocks, bit for bit, with the same
    skips and warnings, for every ``UpdateSettings``: each block goes
    through the same block step on carried arrays, with its hull bounds
    computed once for the stream, and one ``StreamState`` is built at the
    end. The stream builds one single-constraint kernel for its
    one-observation blocks, with Newton starting at the carried prior's
    moments.
    """
    settings = settings if settings is not None else _DEFAULT_SETTINGS
    batch_size = _integer(batch_size, "batch_size")
    block_size = _integer(block_size, "block_size")
    error_points = _integer(error_points, "error_points")
    y = np.asarray(y, dtype=float).reshape(-1)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = y.size
    if not 0 <= batch_size <= n:
        raise ValueError(f"batch_size must lie in [0, {n}], got {batch_size}")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    _check_error_scale(error_scale)
    if error_points < 2:
        raise ValueError(f"error_points must be at least 2, got {error_points}")

    beta = np.asarray(beta_support, dtype=float)
    if beta.ndim == 1:
        beta = np.tile(beta, (x.shape[1], 1))
    zb = _support_rows(beta, "beta_support")
    if error_support is not None:
        error_row = _error_rows(error_support)
        if error_row.shape[0] != 1:
            raise ValueError(f"error_support must be one row, got {error_row.shape[0]} rows")
    else:
        error_row = _scaled_error_support(y, batch_size, error_scale, error_points)
    y, x, rows = _check_block(y, x, zb, error_row)
    if error_support is None and error_scale == "cumulative":
        rows = rows.copy()  # each block scaled to the responses seen by its end
        for start in range(batch_size, n, block_size):
            stop = min(start + block_size, n)
            rows[start:stop] = _scaled_error_support(y, stop, error_scale, error_points)
        rows = _error_rows(rows)

    if batch_size >= 1:
        grid = SupportGrid(zb, rows[:batch_size])
        batch_problem = GceProblem(y[:batch_size], x[:batch_size], grid)
        state, batch_solution = init_stream(batch_problem, settings)
    else:
        state = StreamState.uniform_start(SupportGrid(zb, rows[:1]))
        batch_solution = None

    lo, hi = _hull(x, zb, rows)
    log_qe = _uniform_error_prior(rows.shape[1])[1]
    kernel = _ScalarKernel(zb, log_qe[0], settings.gamma, 1.0 - settings.gamma)
    carried, step = state.beta_prior, state.step_index
    epsilon_log, ledger = list(state.epsilon_log), list(state.entropy_ledger)
    trajectory, converged_log = list(state.beta_trajectory), list(state.converged_log)
    skipped: list[int] = []
    for ordinal, start in enumerate(range(batch_size, n, block_size)):
        stop = min(start + block_size, n)
        block = slice(start, stop)
        try:
            carried, eps, moved, beta_hat, converged = _absorb(
                carried, zb, y[block], x[block], rows[block], (lo[block], hi[block]),
                settings, step, kernel,
            )
        except InfeasibleObservationError as exc:
            skipped.extend(range(start, stop))
            logger.warning(
                "skipping block %d (observations %d..%d): %s (offending: %s)",
                ordinal, start, stop - 1, exc, [start + i for i in exc.indices],
            )
            continue
        step += stop - start
        epsilon_log.extend(eps.tolist())
        ledger.append(moved)
        trajectory.append(beta_hat)
        converged_log.append(converged)

    state = StreamState(
        beta_prior=carried,
        supports=state.supports,
        step_index=step,
        epsilon_log=epsilon_log,
        entropy_ledger=ledger,
        beta_trajectory=trajectory,
        converged_log=converged_log,
    )
    return StreamReport(
        beta_hat=state.beta_hat,
        epsilon_hat=np.array(state.epsilon_log),
        entropy_ledger=np.array(state.entropy_ledger),
        beta_trajectory=np.vstack(state.beta_trajectory),
        final_state=state,
        batch_solution=batch_solution,
        skipped=tuple(skipped),
        all_converged=all(state.converged_log),
    )
