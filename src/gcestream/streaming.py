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

States are immutable values. A state carries its coefficient prior as
weights, for its estimates, and as logs, which the next solve reads: the
solve tilts row j to p_j proportional to q_j * exp(-z_j * t_j), and the new
logs are log q_j - z_j * t_j - ln Z_j, with ln Z_j relative to the carried
row. The logs never underflow, as the KL projection never zeroes a weight, so
a point is dead (log -inf) only if its weight was below ``ZERO_CLAMP`` where
a state was built from weights, and each observation's hull is fixed for the
whole stream. Each block appends to the entropy ledger the KL divergence of
the new coefficient weights from the carried ones, a nonnegative account of
how much information the block moved, from the same terms: KL(p_j | q_j) =
-t_j * beta_hat_j - ln Z_j, clamped at zero per row as ``kl_divergence``
clamps it. Each log of a state is a view of an append-only array that
successive states share, so absorbing a block costs the same however long the
stream has run.

One block step, ``_absorb``, absorbs a stack of blocks, one per stream, by
one stacked solve; ``block_update`` calls it with a stack of one. Whole
streams are prepared one at a time (``_prepare_stream``: every check, error
row and hull test, and the batch fit), then folded (``_fold``) lane by lane:
a lane's streams share supports, settings and block size and advance in
rounds, one ``_absorb`` call per round and block size. Each stream's results
are its own alone, bit for bit, and its logs are stored once, in arrays its
final ``StreamState`` and ``StreamReport`` share. ``run_stream`` folds a
stack of one; ``experiments.run_experiment`` folds the streams of many cells.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    _SAFE_SUPPORT,
    ZERO_CLAMP,
    SupportGrid,
    _checked_row,
    _error_rows,
    _integer,
    _prechecked,
    _real,
    _shared,
    _simplex_rows,
    _support_rows,
    _uniform_row,
    expectation,
)
from .simulation import _check_error_scale, _scaled_error_support
from .solver import (
    GceProblem,
    GceSolution,
    SolverSettings,
    _check_hull,
    _check_observations,
    _grid_ends,
    _hull,
    _hull_error,
    _log_priors,
    _solve_dual,
    _Solved,
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

_MIN_GAMMA = 2.0**-53  # the least gamma, as the least 1 - gamma can be


def _check_ledger(entries: np.ndarray) -> None:
    """Raise unless every ledger entry is a finite number no less than -1e-12 (NaN fails)."""
    if not all(-1e-12 <= v < math.inf for v in entries.tolist()):
        raise ValueError("entropy ledger entries must be finite and nonnegative")


def _failure(exc: Exception) -> Exception:
    """``exc`` as a stored failure: its type and message, without traceback or chain.

    Their frames would keep their locals (a lane, a cell's plan) alive while it is held.
    """
    exc.__traceback__ = exc.__context__ = exc.__cause__ = None
    return exc


class _Log(Sequence):
    """A read-only view of the first ``size`` entries of an append-only array.

    Successive stream states share the array (1-D, or ``(n, J)`` for a
    trajectory) and ``filled``, a one-item list counting the entries written
    to it. ``extended`` writes into spare room, doubling the array when it is
    full, so an append costs O(1) amortized; it copies first when a later
    state has appended already (a branch from an older state) or there is no
    room (a folded stream's logs, its report's arrays), so no view ever sees
    its entries change. A read builds a read-only view (``np.asarray``):
    numeric entries read as Python scalars, a trajectory's as rows. A log
    holds no check of its own: its entries are checked where they are made.
    """

    __slots__ = ("_array", "_filled", "_size")

    def __init__(self, array: np.ndarray, size=None, filled=None) -> None:
        self._array, self._size = array, len(array) if size is None else size
        self._filled = [self._size] if filled is None else filled

    def extended(self, values) -> "_Log":
        n, size = self._size, self._size + len(values)
        with _APPEND_LOCK:
            array, filled = self._array, self._filled
            if filled[0] != n or len(array) < size:
                grown = np.empty((2 * size, *array.shape[1:]), dtype=array.dtype)
                grown[:n] = array[:n]
                array, filled = grown, [n]
            array[n:size] = values
            filled[0] = size
        return _Log(array, size, filled)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        view = self._array[: self._size]
        view.setflags(write=False)
        return np.asarray(view, dtype=dtype, copy=copy)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            entries = self.__array__()[index]
            return tuple(entries.tolist() if entries.ndim == 1 else entries)
        if self._array.ndim == 1:
            return self._array.item(range(self._size)[index])
        return self.__array__()[index]

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(np.array_equal, self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class UpdateSettings:
    """Streaming knobs: prior stickiness and the inner solver settings.

    ``gamma`` must be a real number strictly inside (0, 1); the endpoints
    would freeze the coefficient weights entirely or ignore the carried prior.
    It must also be at least ``2**-53``, as ``1 - gamma`` is: a solve divides
    by both, and near the smallest floats its first Newton step overflows.
    Every block of a stream is absorbed at the same ``gamma``. ``solver``
    must be a ``SolverSettings``.
    """

    gamma: float = 0.5
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        gamma = _real(self.gamma, "gamma", within=lambda g: 0.0 < g < 1.0,
                      must="lie strictly in (0, 1)")
        object.__setattr__(self, "gamma", gamma)
        if gamma < _MIN_GAMMA:
            raise ValueError(f"gamma must be at least 2**-53 (about 1.1e-16), got {gamma!r}")
        if not isinstance(self.solver, SolverSettings):
            raise ValueError(f"solver must be a SolverSettings, got {self.solver!r}")


# settings are immutable, so an update without any shares one default
# instead of building and validating it on every step
_DEFAULT_SETTINGS = UpdateSettings()


@dataclass(frozen=True)
class StreamState:
    """Carried coefficient prior plus the running diagnostic logs.

    ``beta_prior`` is the ``(J, K)`` read-only array of carried coefficient
    weights, checked like a ``JointDistribution``'s rows but stored as
    given; a stepped state's are the last solve's Gibbs rows. ``log_prior``
    holds their read-only logs to rounding, which the next solve reads: by
    default ``_log_priors(beta_prior)``, never NaN or +inf, and -inf only at
    a weight below ``ZERO_CLAMP``, a point dead for the rest of the stream.
    A stepped state's logs carry the stream's tilt and stay finite where its
    weights underflow: a rebuilt state continues bit for bit only with them.
    ``supports`` is the grid the stream started from: its coefficient rows
    hold for the whole stream, and its error rows are the batch's (incoming
    blocks supply their own). ``step_index``, a whole number, counts absorbed
    observations. Each log is a read-only sequence over an array that
    successive states share instead of copying (``_Log``): 1-D, or a row of
    J coefficients per entry for ``beta_trajectory``. Any other sequence is
    copied into one array, so trajectory rows must be J long. A folded
    stream's final state holds its ``StreamReport``'s arrays, and its first
    update copies them once. Every ledger entry must be a finite number no
    less than -1e-12.
    ``block_update`` builds its states from checked parts, checking only the new ledger entry.
    """

    beta_prior: np.ndarray
    supports: SupportGrid
    step_index: int
    epsilon_log: Sequence[float] = ()
    entropy_ledger: Sequence[float] = ()
    beta_trajectory: Sequence[np.ndarray] = ()
    converged_log: Sequence[bool] = ()
    log_prior: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        prior = _simplex_rows(self.beta_prior, "beta_prior", renormalize=False)
        if prior.shape != self.supports.beta_support.shape:
            raise ValueError("beta_prior rows do not match the support grid")
        log_prior = np.array(_log_priors(prior) if self.log_prior is None else self.log_prior,
                             dtype=float)
        if log_prior.shape != prior.shape or not (log_prior < np.inf).all() or (
                (log_prior == -np.inf) & (prior >= ZERO_CLAMP)).any():
            raise ValueError("log_prior must have beta_prior's shape, no NaN or +inf, and -inf "
                             "only where beta_prior is below ZERO_CLAMP")
        log_prior.setflags(write=False)
        object.__setattr__(self, "log_prior", log_prior)
        step_index = _integer(self.step_index, "step_index")
        if step_index < 0:
            raise ValueError("step_index must be nonnegative")
        object.__setattr__(self, "beta_prior", prior)
        object.__setattr__(self, "step_index", step_index)
        # a _Log of the right kind is kept as it is, so an update costs O(1)
        kinds = (float, ()), (float, ()), (float, prior.shape[:1]), (bool, ())
        logs = ("epsilon_log", "entropy_ledger", "beta_trajectory", "converged_log")
        for name, (dtype, row) in zip(logs, kinds):
            values = getattr(self, name)
            if not (isinstance(values, _Log) and values._array.dtype == dtype):
                array = np.array(values, dtype=dtype)
                values = _Log(array.reshape(0, *row) if array.size == 0 else array)
            if values._array.shape[1:] != row:
                raise ValueError(f"each {name} entry must have shape {row}")
            object.__setattr__(self, name, values)
        _check_ledger(np.asarray(self.entropy_ledger))

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
    """Everything a finished stream produced, in arrival order.

    ``epsilon_hat``, ``entropy_ledger`` and ``beta_trajectory`` are
    read-only views of ``final_state``'s log arrays, so the logs are stored
    once, and an update of ``final_state`` leaves them unchanged.
    ``batch_solution`` is the batch's ``GceSolution`` when the stream solved
    its batch itself, as ``run_stream`` does; else (no batch, or a batch fit
    solved elsewhere, as ``run_experiment``'s streams have) it is None.
    """

    beta_hat: np.ndarray
    epsilon_hat: np.ndarray
    entropy_ledger: np.ndarray
    beta_trajectory: np.ndarray
    final_state: StreamState
    batch_solution: GceSolution | None
    skipped: tuple[int, ...]
    all_converged: bool


# ---------------------------------------------------------------------------
# The block step
# ---------------------------------------------------------------------------


def _check_block(y, x, zb, rows, weight: float = 1.0):
    """Check observations and their error rows against the coefficient grid ``zb``.

    Takes float arrays: ``y`` 1-D, ``x`` 2-D and the error support ``rows``,
    one per observation or a single row, 1-D or ``(1, H)``, shared by all and
    checked once per value. Returns them with the rows, one per observation,
    checked as ``SupportGrid`` and ``GceProblem`` (at signal weight
    ``weight``) would check them. The hull is left to the caller.
    """
    one = rows.ndim == 1 or (rows.ndim == 2 and len(rows) == 1)
    rows = _checked_row(rows, "error_support") if one else _error_rows(rows)
    if rows.shape[0] == 1 and y.size > 1:
        rows = np.broadcast_to(rows, (y.size, rows.shape[1]))
    _check_observations(y, x, zb, rows.shape[0], weight)
    return y, x, rows


def _ordinary_step(y, x, zb, rows, log_carried, weight: float):
    """``y``, ``x`` and ``rows`` (``_check_block``'s arrays) as it returns them if scalar tests
    pass one observation, else None: |x_j| <= 2**510, max|x_j| * (widest span of ``zb``) <=
    2**510 * sqrt(weight), an error row passing ``_checked_row`` (else its error), every log
    weight above -inf and y strictly inside the full hull (``_coefficient_hull``'s bits)."""
    one = rows.ndim == 1 or (rows.ndim == 2 and len(rows) == 1)
    if not (one and y.size == 1 and x.shape == (1, len(zb))):
        return None
    rows = _checked_row(rows, "error_support")
    (y_new,), (x_new,), (row,) = y.tolist(), x.tolist(), rows.tolist()
    widest, first, last = _grid_ends(zb.tobytes(), zb.shape)
    lo = hi = -0.0  # the exact additive identity: each sum runs in sequence from x_0's term
    for v, a, b in zip(x_new, first, last):  # x_j's sign picks its ends; a NaN makes both NaN
        lo, hi = (lo + v * a, hi + v * b) if v >= 0.0 else (lo + v * b, hi + v * a)
    top = max(map(abs, x_new))  # a y or x_j that is not finite fails here or the hull test
    ordinary = (top <= _SAFE_SUPPORT and top * widest <= _SAFE_SUPPORT * math.sqrt(weight)
                and min(log_carried.ravel().tolist()) > -math.inf
                and lo + row[0] < y_new < hi + row[-1])
    return (y, x, rows) if ordinary else None


class _Absorbed(NamedTuple):
    """A stack of S absorbed blocks, as ``_absorb`` returns it; read by field name."""

    prior: np.ndarray  # (S, J, K) new priors: the solve's Gibbs rows
    log_prior: np.ndarray  # (S, J, K) their logs, the carried logs tilted by the block
    ledger: np.ndarray  # (S,) each block's ledger entry
    solved: _Solved  # the blocks' solve: its point holds their eps_hat and beta_hat


def _absorb(carried, log_carried, zb, y, x, rows, settings):
    """The one block step: absorb one checked block into each carried prior of a stack.

    ``carried`` holds S ``(J, K)`` priors as weights, ``log_carried`` as the
    logs the solve reads, and ``y`` (S, m), ``x`` (S, m, J) and ``rows`` (S,
    m, H) one block per prior, each error row with a uniform prior. The
    caller has checked each block's live hull, or trusts it. One
    ``_solve_dual`` solves the stack, from each carried prior's moments; its
    final point gives the new logs ``log_carried - z * t - ln Z`` (a dead
    point stays -inf, and no other dies) and the ledger entries
    (``_DualPoint.kl``), both from the same tilt ``t`` and log partitions.
    Every row is reduced along its last axis, so a block's results do not
    depend on the rest of the stack. Returns an ``_Absorbed``.
    """
    gamma = settings.gamma
    qe = _uniform_row(rows.shape[2], "error")
    solved = _solve_dual(
        y, x, zb, rows, carried, log_carried, qe, gamma, 1.0 - gamma, settings.solver
    )
    pt = solved.point
    log_prior = log_carried - zb * pt.tilt[:, :, None] - pt.ln_zb[:, :, None]
    return _Absorbed(pt.pb, log_prior, pt.kl(), solved)


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
    for weights in (batch.prior.beta, _shared(batch.prior.error)):
        if np.max(np.abs(weights - 1.0 / weights.shape[1])) > 1e-12:
            raise ValueError("init_stream requires a uniform batch prior")

    solution = solve_gce(batch, settings.solver)
    state = StreamState(
        beta_prior=solution.distributions.beta,
        supports=batch.supports,
        step_index=solution.epsilon_hat.size,
        epsilon_log=solution.epsilon_hat,
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
    the supplied support rows (one per observation, or one shared by all).
    The inputs are converted to float arrays once and checked once, as
    ``GceProblem`` and ``SupportGrid`` would check them, with the block's
    hull over the carried prior's live points, as in ``run_stream``'s fold:
    one observation on an all-live prior by scalar tests (``_ordinary_step``),
    any other block by the fold's array checks, with the same errors. The
    carried prior, a ``StreamState`` invariant, is not checked again; the
    new ledger entry is, before any log grows. Infeasible blocks raise
    InfeasibleObservationError (indices local to the block) and leave the
    caller's state untouched, so a stream can skip and log them.
    """
    settings = settings if settings is not None else _DEFAULT_SETTINGS
    zb, log_carried, gamma = state.supports.beta_support, state.log_prior, settings.gamma
    y = np.asarray(y_block, dtype=float).reshape(-1)
    x = np.atleast_2d(np.asarray(x_block, dtype=float))
    rows = np.asarray(error_support_rows, dtype=float)
    block = _ordinary_step(y, x, zb, rows, log_carried, gamma)
    if block is None:
        block = y, x, rows = _check_block(y, x, zb, rows, gamma)
        _check_hull(y, x, zb, log_carried, rows, _log_priors(_uniform_row(rows.shape[1], "error")))
    y, x, rows = block
    absorbed = _absorb(
        state.beta_prior[None], log_carried[None], zb, y[None], x[None], rows[None], settings
    )
    _check_ledger(absorbed.ledger)  # the one check of StreamState the new parts could fail
    prior, log_prior = np.ascontiguousarray(absorbed.prior[0]), absorbed.log_prior[0]
    prior.setflags(write=False)
    log_prior.setflags(write=False)
    return _prechecked(
        StreamState, beta_prior=prior, supports=state.supports,
        step_index=state.step_index + y.size,
        epsilon_log=state.epsilon_log.extended(absorbed.solved.point.eps_hat[0]),
        entropy_ledger=state.entropy_ledger.extended(absorbed.ledger),
        beta_trajectory=state.beta_trajectory.extended(absorbed.solved.point.beta_hat),
        converged_log=state.converged_log.extended(absorbed.solved.converged),
        log_prior=log_prior,
    )


def update_step(
    state: StreamState,
    y_new: float,
    x_new,
    error_support_row,
    settings: UpdateSettings | None = None,
) -> StreamState:
    """Absorb one observation; identical to a block of size one, its row checked once per value."""
    x_row = np.reshape(x_new, (1, -1))
    return block_update(state, [y_new], x_row, np.reshape(error_support_row, (1, -1)), settings)


# ---------------------------------------------------------------------------
# Whole streams: prepared one at a time, folded lane by lane
# ---------------------------------------------------------------------------


class _Fit(NamedTuple):
    """What is read again of a one-shot fit: a stream's start, or a score.

    ``beta`` holds the coefficient weights, renormalized as a ``GceSolution``'s are.
    """

    beta: np.ndarray  # (J, K)
    beta_hat: np.ndarray  # (J,)
    epsilon_hat: np.ndarray  # (m,)
    converged: bool


@dataclass(frozen=True)
class _Stream:
    """A stream ready to fold: checked data, its blocks and where its batch left it.

    Its blocks are ``block`` observations each from observation ``batch``
    on, the last keeping the remainder. ``rows`` holds every observation's
    error support row and ``inside`` whether it lies strictly inside its
    hull over the points live in ``fit``, the stream's live points for good.
    ``fit`` is its batch fit, or without a batch its uniform start, a fit of
    no observations. ``batch_solution`` is its report's.
    """

    y: np.ndarray  # (n,)
    x: np.ndarray  # (n, J)
    rows: np.ndarray  # (n, H)
    inside: np.ndarray  # (n,) bool
    settings: UpdateSettings
    batch: int
    block: int
    fit: _Fit
    grid: SupportGrid  # its final StreamState's
    batch_solution: GceSolution | None


def _prepare_stream(
    y,
    x,
    batch_size,
    block_size,
    settings,
    *,
    beta_support,
    error_support,
    error_points,
    error_scale,
    batch_fit: _Fit | None = None,
) -> _Stream:
    """Check a stream, resolve its error rows and hull tests, and fit its batch.

    Takes ``run_stream``'s arguments and makes all of its checks. With
    ``batch_fit``, the ``_Fit`` of this stream's own batch problem solved
    elsewhere (the uniform-prior problem on ``y[:batch_size]``,
    ``x[:batch_size]`` and the stream's grid), the stream starts from it
    instead of solving the batch again, and has no ``batch_solution``.
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
    y, x, rows = _check_block(y, x, zb, error_row, settings.gamma)
    if error_support is None and error_scale == "cumulative":
        rows = rows.copy()  # each block scaled to the responses seen by its end
        for start in range(batch_size, n, block_size):
            stop = min(start + block_size, n)
            rows[start:stop] = _scaled_error_support(y, stop, error_scale, error_points)
        rows = _error_rows(rows)

    # both checked above; a shared row stays one row
    grid = _prechecked(SupportGrid, beta_support=zb, error_support=rows[: max(batch_size, 1)])
    solution = None
    if batch_size < 1:  # StreamState.uniform_start's prior and estimates
        prior = np.full(zb.shape, 1.0 / zb.shape[1])
        batch_fit = _Fit(prior, expectation(prior, zb), np.empty(0), True)
    elif batch_fit is None:
        solution = solve_gce(GceProblem(y[:batch_size], x[:batch_size], grid), settings.solver)
        batch_fit = _Fit(solution.distributions.beta, solution.beta_hat, solution.epsilon_hat,
                         solution.diagnostics.converged)
    log_qe = _log_priors(_uniform_row(rows.shape[1], "error"))
    lo, hi = _hull(x, zb, _log_priors(batch_fit.beta), rows, log_qe)
    inside = (lo < y) & (y < hi)
    return _Stream(y, x, rows, inside, settings, batch_size, block_size, batch_fit, grid, solution)


def _fold(streams: Sequence[_Stream]) -> tuple[list, list[float]]:
    """Absorb every block of every stream, lane by lane, a round's blocks stacked by size.

    Streams that share the coefficient supports, the error row width, the
    settings and the block size form a ``_Lane``, which is built, run and
    reported before the next is built. A lane advances in rounds: in round t
    every stream with a t-th block absorbs it as ``block_update`` would (a
    block inside its stream's live hull trusted, any other skipped and
    logged), one ``_absorb`` call per block size.
    Each stream is bit for bit its fold alone; one that raises stops alone.

    Returns, per stream, its ``StreamReport`` or the exception that stopped
    it, stored by ``_failure``, and the seconds charged to it: an equal
    share of its lane's set-up (the first lane's includes grouping the
    streams) and of each stack it took part in (trust tests, skips and
    solve), and its report. The charges sum to the fold's wall time.
    """
    mark = time.perf_counter()
    outcomes: list = [None] * len(streams)
    seconds = [0.0] * len(streams)
    orders: dict = {}
    for i, stream in enumerate(streams):
        zb = stream.grid.beta_support
        key = (zb.tobytes(), zb.shape, stream.rows.shape[1], stream.settings, stream.block)
        orders.setdefault(key, []).append(i)
    for order in orders.values():
        mark = _Lane(streams, order, outcomes).run(mark, seconds)
    return outcomes, seconds


class _Lane:
    """Streams of one grouping key and block size ``g``, laid out round-major for ``_fold``.

    Streams are sorted by block count, then by the size of their last
    block, both descending: the streams with a block in round t are a
    prefix, those whose last block is shorter at its end, in runs of one
    size. Every block is gathered once, with whether it lies inside its
    live hulls: the whole blocks into one ``(·, g, ·)`` array per input,
    round after round, and each run of shorter ones apart. So a round reads
    each stack, its priors (weights and logs), trust tests and logs as
    slices; a stack with a stopped stream or an untrusted block uses index
    arrays. The logs are arrays written by slice, a row per stream:
    observation k's error estimate at column ``base - batch + k``, block t's
    ledger entry at t, its trajectory row and verdict at t + 1 (row 0 is the
    start's, as is verdict 0 after a batch).
    """

    def __init__(self, streams, order, outcomes):
        g = streams[order[0]].block
        # by -ceil(post / g), which is floor(-post / g), then by -post
        key = [(d // g, d) for d in (streams[i].batch - streams[i].y.size for i in order)]
        self.order = order = [i for _, i in sorted(zip(key, order))]
        self.streams = members = [streams[i] for i in order]
        first = members[0]
        self.zb, self.settings = first.grid.beta_support, first.settings
        self.g, self.outcomes = g, outcomes
        self.log_qe = _log_priors(_uniform_row(first.rows.shape[1], "error"))
        self.batch = batch = np.array([stream.batch for stream in members])
        post = np.array([stream.y.size for stream in members]) - batch
        self.count = count = -(-post // g)
        s, rounds = len(order), int(count.max())

        # the observations after each batch, end to end, to gather from
        data = [
            np.concatenate([getattr(stream, name)[stream.batch :] for stream in members])
            for name in ("y", "x", "rows", "inside")
        ]
        first_rows = post.cumsum() - post
        t = np.arange(rounds)[:, None]
        whole = t < post // g
        at = (first_rows + g * t)[whole][:, None] + np.arange(min(g, int(post.max())))
        y, x, rows, inside = (d[at] for d in data)
        inside = inside.all(axis=1)
        ends = whole.sum(axis=1).cumsum().tolist()
        self.stacks = [
            [(0, hi - lo, y[lo:hi], x[lo:hi], rows[lo:hi], inside[lo:hi])] if hi > lo else []
            for lo, hi in zip([0, *ends], ends)
        ]
        runs: dict = {}  # (round, size) -> positions
        for p in np.flatnonzero(post % g).tolist():
            runs.setdefault((int(count[p]) - 1, int(post[p] % g)), []).append(p)
        for (t, m), positions in runs.items():
            a, b = positions[0], positions[-1] + 1
            at = (first_rows[a:b] + t * g)[:, None] + np.arange(m)
            y, x, rows, inside = (d[at] for d in data)
            self.stacks[t].append((a, b, y, x, rows, inside.all(axis=1)))

        self.carried = np.stack([stream.fit.beta for stream in members])
        self.log_carried = _log_priors(self.carried)
        self.alive, self.seconds = np.ones(s, dtype=bool), np.zeros(s)
        self.base = base = int(batch.max())
        self.eps = np.zeros((s, base + int(post.max())))
        self.ledger = np.zeros((s, rounds))
        self.trajectory = np.zeros((s, rounds + 1, self.zb.shape[0]))
        self.converged = np.ones((s, rounds + 1), dtype=bool)
        for p, stream in enumerate(members):
            self.trajectory[p, 0] = stream.fit.beta_hat
            self.eps[p, base - stream.batch : base] = stream.fit.epsilon_hat
            self.converged[p, 0] = stream.fit.converged
        self.skipped: dict = {}  # position -> skipped rounds

    def run(self, mark: float, seconds: list) -> float:
        """Absorb every round and report every stream, charging ``seconds`` as ``_fold`` says.

        ``mark`` is the clock when the lane's set-up began; returns the clock at the end.
        """
        clock = time.perf_counter
        end = clock()
        self.seconds += (end - mark) / len(self.order)
        mark = end
        for t, stacks in enumerate(self.stacks):
            for stack in stacks:
                live, at, blocks = self.members(t, *stack)
                if len(blocks[0]):
                    self.absorb(t, at, *blocks)
                taking = self.seconds[live].size
                if taking:
                    end = clock()
                    self.seconds[live] += (end - mark) / taking
                    mark = end
        for p, i in enumerate(self.order):
            if self.outcomes[i] is None:
                try:
                    self.outcomes[i] = self.report(p)
                except Exception as exc:
                    self.outcomes[i] = _failure(exc)
            end = clock()
            seconds[i] = float(self.seconds[p]) + end - mark
            mark = end
        return mark

    def members(self, t, a, b, y, x, rows, inside):
        """The live streams of positions [a, b), those that absorb their block, and the blocks.

        Positions are a slice while every stream is live and its block
        trusted, else index arrays. An untrusted block is skipped and logged
        with the error its live hull raises: a stream's live points never
        change, so a block outside the hull its stream was prepared with is
        outside its hull at every round.
        """
        live = self.alive[a:b]
        keep = live & inside
        if keep.all():
            return slice(a, b), slice(a, b), (y, x, rows)
        for k in np.flatnonzero(live & ~inside).tolist():
            lo, hi = _hull(x[k], self.zb, self.log_carried[a + k], rows[k], self.log_qe)
            exc = _hull_error(y[k], lo, hi)
            self.skipped.setdefault(a + k, []).append(t)
            start = int(self.batch[a + k]) + t * self.g
            logger.warning(
                "skipping block %d (observations %d..%d): %s (offending: %s)",
                t, start, start + y.shape[1] - 1, exc, [start + i for i in exc.indices],
            )
        return a + np.flatnonzero(live), a + np.flatnonzero(keep), (y[keep], x[keep], rows[keep])

    def absorb(self, t, at, y, x, rows) -> None:
        """Absorb and log the round-t blocks of the positions ``at``.

        A stack that raises is absorbed again one stream at a time, and a
        stream that raises alone stops.
        """
        try:
            absorbed = _absorb(self.carried[at], self.log_carried[at], self.zb, y, x, rows,
                               self.settings)
        except Exception as exc:
            at = np.arange(self.alive.size)[at]
            if at.size == 1:
                self.alive[at], self.outcomes[self.order[at[0]]] = False, _failure(exc)
                return
            for k in range(at.size):
                self.absorb(t, at[k : k + 1], y[k : k + 1], x[k : k + 1], rows[k : k + 1])
            return
        column, m = self.base + t * self.g, y.shape[1]
        self.carried[at], self.log_carried[at] = absorbed.prior, absorbed.log_prior
        self.eps[at, column : column + m] = absorbed.solved.point.eps_hat
        self.ledger[at, t], self.converged[at, t + 1] = absorbed.ledger, absorbed.solved.converged
        self.trajectory[at, t + 1] = absorbed.solved.point.beta_hat

    def report(self, p) -> StreamReport:
        """The ``StreamReport`` of the stream at position ``p``, with its one ``StreamState``.

        The report's arrays are read-only views of the state's logs: views
        of the lane's arrays, or copies without the stream's skipped blocks.
        """
        stream = self.streams[p]
        count, batch, n, g = int(self.count[p]), stream.batch, stream.y.size, self.g
        logs = [
            self.eps[p, self.base - batch :][:n], self.ledger[p, :count],
            self.trajectory[p, : count + 1], self.converged[p, int(batch == 0) : count + 1],
        ]
        skipped = self.skipped.get(p, [])
        observations = [k for t in skipped for k in range(batch + t * g, min(batch + t * g + g, n))]
        if skipped:
            rows = np.add(skipped, 1)
            logs = [
                np.delete(logs[0], observations), np.delete(logs[1], skipped),
                np.delete(logs[2], rows, axis=0), np.delete(logs[3], rows - (batch == 0)),
            ]
        logs = [_Log(log) for log in logs]
        state = StreamState(self.carried[p], stream.grid, n - len(observations), *logs,
                            log_prior=self.log_carried[p])
        eps, ledger, trajectory, converged = map(np.asarray, logs)
        return StreamReport(state.beta_hat, eps, ledger, trajectory, state,
                            stream.batch_solution, tuple(observations), bool(converged.all()))


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
    work is done; every observation's error row (a cumulative stream's
    included) and hull test are resolved then. The stream is then folded as
    a stack of one (``_fold``): on valid data the result is a left fold of
    ``block_update`` over the blocks, bit for bit, with the same skips and
    warnings, for every ``UpdateSettings``, and one ``StreamState`` at the end.
    """
    stream = _prepare_stream(
        y, x, batch_size, block_size, settings, beta_support=beta_support,
        error_support=error_support, error_points=error_points, error_scale=error_scale,
    )
    (report,), _ = _fold([stream])
    if isinstance(report, Exception):
        raise report
    return report
