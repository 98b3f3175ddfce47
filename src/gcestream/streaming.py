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
block, and it runs over a stack: one block of m observations for each of S
streams, solved together by the solver's stacked kernel when m = 1 and by
its stacked Newton iteration otherwise. ``block_update`` calls it with a
stack of one. Whole streams are prepared one at a time (``_prepare_stream``:
every check, every observation's error row and full-support hull test, and
the batch fit) and then folded together (``_fold``): streams on the same
supports and settings advance in rounds, their blocks stacked by size into
one ``_absorb`` call per size and round, each stream carrying whether its
prior is positive and building one state, at the end. A stream's results are its
results alone, bit for bit. ``run_stream`` prepares one stream and folds a
stack of one; ``experiments.run_experiment`` folds the streams of many cells.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
import threading
import time
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
    _solve_dual,
    _StackKernel,
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

# The stacked kernel of the last block_update of each thread: a kernel keeps
# buffers but nothing of a problem between solves, so reusing it gives the
# bits a new one would, without building one for every update.
_BLOCK_KERNELS = threading.local()

_MIN_GAMMA = 2.0**-53  # the least gamma, as the least 1 - gamma can be


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
    It must also be at least ``2**-53``, as ``1 - gamma`` is: a solve divides
    by both, and near the smallest floats its first Newton step overflows.
    Every block of a stream is absorbed at the same ``gamma``. ``solver``
    must be a ``SolverSettings``.
    """

    gamma: float = 0.5
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        gamma = self.gamma
        if isinstance(gamma, bool) or not (isinstance(gamma, numbers.Real) and 0.0 < gamma < 1.0):
            raise ValueError(f"gamma must lie strictly in (0, 1), got {gamma!r}")
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
    is left to ``_absorb``, trusted where ``_inside`` says so.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rows = _error_rows(error_rows)
    if rows.shape[0] == 1 and y.size > 1:
        rows = np.tile(rows, (y.size, 1))
    _check_observations(y, x, zb.shape[0], rows.shape[0])
    return y, x, rows


def _inside(y, x, zb, rows) -> np.ndarray:
    """Whether each ``y_i`` lies strictly inside its ``x_i . beta + eps_i`` full-support hull."""
    lo, hi = _coefficient_hull(x, zb[:, 0], zb[:, -1])
    return (lo + rows[:, 0] < y) & (y < hi + rows[:, -1])


def _absorb(carried, zb, y, x, rows, settings, steps, kernel=None):
    """The one block step: absorb one checked block into each carried prior of a stack.

    ``carried`` holds S ``(J, K)`` priors, and ``y`` (S, m), ``x`` (S, m, J)
    and ``rows`` (S, m, H) one block per prior, with one error support row
    per observation, each with a uniform prior. The blocks are solved
    together: blocks of one observation by the solver's stacked kernel,
    wider ones by its stacked Newton iteration. The caller has checked each
    block's live hull, or trusts it. Returns the new priors (normalized Gibbs rows, (S, J, K)),
    the blocks' error estimates (S, m), and per block its ledger entry, its
    ``beta_hat`` (rows of an (S, J) array), whether its solve converged and
    whether its new prior is positive. ``steps`` only label the underflow
    warnings, one per prior.

    The ledger entry is the KL divergence of the new prior from the carried
    one, formed from the final point's tilt t and log partitions ln Z as
    ``sum_j max(-t_j * beta_hat_j - ln Z_j, 0)``, the same for both solve
    paths: the per-row clamp is ``kl_divergence``'s, and a one-observation
    solve that takes no Newton step has t = ln Z = 0, so its entry is 0. The
    entries stay within 1.5e-15 of ``kl_divergence(prior, carried)`` on
    streams at n = 3840 and within 1.2e-14 relative on an underflowed prior.
    ``kernel`` is a stacked kernel for one-observation blocks, built on
    ``zb``, the uniform error prior and gamma; without one the solve builds
    its own, with the same bits. Every row is reduced along its last axis,
    so a block's results do not depend on the rest of the stack. Newton
    starts at each carried prior's moments.
    """
    log_qe = _uniform_error_prior(rows.shape[2])[1]
    # the priors a JointDistribution would hold: renormalized rows
    add = np.add.reduce
    qb = carried / add(carried, axis=2, keepdims=True)
    gamma = settings.gamma
    _, pt, diagnostics = _solve_dual(
        y, x, zb, rows, qb, log_qe, gamma, 1.0 - gamma, settings.solver, kernel
    )

    prior = pt.pb / add(pt.pb, axis=2, keepdims=True)
    lowest = np.minimum.reduce(prior, axis=(1, 2)).tolist()
    for low, step in zip(lowest, steps):
        if low <= 0.0:
            logger.warning(
                "carried prior underflowed to zero on some support points at step %d; "
                "those points are frozen out for the rest of the stream",
                step,
            )
    moved = add(np.maximum(-pt.tilt * pt.beta_hat - pt.ln_zb, 0.0), axis=1).tolist()
    converged = [d.converged for d in diagnostics]
    return prior, pt.eps_hat, moved, pt.beta_hat, converged, [low > 0.0 for low in lowest]


# ---------------------------------------------------------------------------
# Stream construction and updates
# ---------------------------------------------------------------------------


def _batch_state(supports: SupportGrid, solution: GceSolution) -> StreamState:
    """The state after a batch fit: its coefficient weights, error estimates and verdict."""
    return StreamState(
        beta_prior=solution.distributions.beta,
        supports=supports,
        step_index=solution.epsilon_hat.size,
        epsilon_log=solution.epsilon_hat.tolist(),
        beta_trajectory=(solution.beta_hat,),
        converged_log=(solution.diagnostics.converged,),
    )


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
    return _batch_state(batch.supports, solution), solution


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
    again. The block's full-support hull is trusted while every carried
    weight is positive, else its live hull is checked; then the block step
    ``run_stream`` folds solves it, as a stack of one, on plain arrays (no
    problem or distribution objects, and the ledger entry comes from the
    solve's log partitions); a block of one observation is solved by the
    stacked kernel of the thread's last update when it has the same supports,
    error row width and gamma, else by a new one, whose Newton iteration
    starts at the carried prior's moments. Infeasible blocks raise InfeasibleObservationError
    (indices local to the block) and leave the caller's state untouched, so
    a stream can skip and log them. The new state keeps the stream's support
    grid.
    """
    settings = settings if settings is not None else _DEFAULT_SETTINGS
    zb = state.supports.beta_support
    y, x, rows = _check_block(y_block, x_block, zb, error_support_rows)
    carried = state.beta_prior
    if not (carried.min() > 0.0 and _inside(y, x, zb, rows).all()):
        # only live points count; the renormalized prior is positive exactly
        # where the carried one is
        _check_hull(y, x, zb, carried, rows, _uniform_error_prior(rows.shape[1])[0])
    h, gamma = rows.shape[1], settings.gamma
    last = getattr(_BLOCK_KERNELS, "last", None)
    if last is None or last[0] is not zb or last[1:3] != (h, gamma):
        kernel = _StackKernel(zb, _uniform_error_prior(h)[1][0], gamma, 1.0 - gamma)
        _BLOCK_KERNELS.last = last = (zb, h, gamma, kernel)
    prior, eps, moved, beta_hat, converged, _ = _absorb(
        carried[None], zb, y[None], x[None], rows[None], settings, (state.step_index,), last[3]
    )
    return StreamState(
        beta_prior=prior[0],
        supports=state.supports,
        step_index=state.step_index + y.size,
        epsilon_log=state.epsilon_log.extended(eps[0].tolist()),
        entropy_ledger=state.entropy_ledger.extended(moved),
        beta_trajectory=state.beta_trajectory.extended((beta_hat[0],)),
        converged_log=state.converged_log.extended(converged),
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
# Whole streams: prepared one at a time, folded together
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Stream:
    """A stream ready to fold: checked data, its blocks and the state after its batch.

    ``rows`` holds every observation's error support row and ``inside``
    whether it lies strictly inside its full-support hull, both resolved
    before the first solve.
    """

    y: np.ndarray  # (n,)
    x: np.ndarray  # (n, J)
    rows: np.ndarray  # (n, H)
    inside: list
    zb: np.ndarray  # (J, K)
    settings: UpdateSettings
    blocks: tuple  # (start, stop) of each block, in order
    state: StreamState
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
    batch_fit: GceSolution | None = None,
) -> _Stream:
    """Check a stream, resolve its error rows and hull tests, and fit its batch.

    Takes ``run_stream``'s arguments and makes all of its checks. With
    ``batch_fit``, the solution of this stream's own batch problem solved
    elsewhere (``solve_gce`` on ``y[:batch_size]``, ``x[:batch_size]`` and
    the stream's grid), the stream starts from it instead of solving the
    batch again.
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
    blocks = tuple(
        (start, min(start + block_size, n)) for start in range(batch_size, n, block_size)
    )
    if error_support is None and error_scale == "cumulative":
        rows = rows.copy()  # each block scaled to the responses seen by its end
        for start, stop in blocks:
            rows[start:stop] = _scaled_error_support(y, stop, error_scale, error_points)
        rows = _error_rows(rows)

    if batch_size >= 1:
        grid = SupportGrid(zb, rows[:batch_size])
        if batch_fit is None:
            batch = GceProblem(y[:batch_size], x[:batch_size], grid)
            state, batch_fit = init_stream(batch, settings)
        else:
            state = _batch_state(grid, batch_fit)
    else:
        state = StreamState.uniform_start(SupportGrid(zb, rows[:1]))
    inside = _inside(y, x, zb, rows).tolist()
    return _Stream(y, x, rows, inside, zb, settings, blocks, state, batch_fit)


def _fold(streams: Sequence[_Stream]) -> tuple[list, list[float]]:
    """Absorb every block of every stream, the blocks of a group's round stacked by size.

    Streams that share the coefficient supports, the error row width and
    the settings form a group with one stacked kernel. A group advances in
    rounds; in round r every stream of it that has an r-th block absorbs it,
    as ``block_update`` would: its full-support hull is trusted while its
    carried prior is positive, else its live hull is checked, and an
    infeasible block is skipped and logged. The blocks of the round are
    stacked by their number of observations, remainders included, and each
    stack is absorbed by one ``_absorb`` call. A stream's results do not
    depend on the other streams, so each is bit for bit its fold alone. A
    stream that raises stops, and only it: a stacked call that raises is
    made again one stream at a time.

    Returns, per stream, its ``StreamReport`` or the exception that stopped
    it, and the seconds charged to it. A stack's solve is shared equally by
    its members; the rest of a round is shared equally by the streams that
    took part, as are the group's set-up and its streams' reports. The
    charges sum to the fold's wall time.
    """
    outcomes: list = [None] * len(streams)
    seconds = [0.0] * len(streams)
    groups: dict = {}
    for i, stream in enumerate(streams):
        key = (stream.zb.shape, stream.zb.tobytes(), stream.rows.shape[1], stream.settings)
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        reports, charged = _fold_group([streams[i] for i in members])
        for i, report, dt in zip(members, reports, charged):
            outcomes[i], seconds[i] = report, dt
    return outcomes, seconds


def _fold_group(streams: Sequence[_Stream]) -> tuple[list, list[float]]:
    """``_fold`` for streams that share one stacked kernel."""
    clock = time.perf_counter
    t0 = clock()
    first = streams[0]
    zb, settings = first.zb, first.settings
    qe, log_qe = _uniform_error_prior(first.rows.shape[1])
    kernel = _StackKernel(zb, log_qe[0], settings.gamma, 1.0 - settings.gamma)
    carried = np.stack([stream.state.beta_prior for stream in streams])
    # every stream's observations, end to end, to gather a round's stack from
    offsets = np.cumsum([0] + [stream.y.size for stream in streams]).tolist()
    all_y = np.concatenate([stream.y for stream in streams])
    all_x = np.concatenate([stream.x for stream in streams])
    all_rows = np.concatenate([stream.rows for stream in streams])

    count = len(streams)
    outcomes: list = [None] * count
    seconds = [(clock() - t0) / count] * count
    positive = [bool(c.min() > 0.0) for c in carried]
    steps = [stream.state.step_index for stream in streams]
    eps_logs = [list(stream.state.epsilon_log) for stream in streams]
    ledgers = [list(stream.state.entropy_ledger) for stream in streams]
    trajectories = [list(stream.state.beta_trajectory) for stream in streams]
    converged_logs = [list(stream.state.converged_log) for stream in streams]
    skipped: list[list[int]] = [[] for _ in streams]

    def absorb(members, y, x, rows):
        """Absorb one block per member into ``carried``.

        A stack that raises is absorbed again one member at a time, and a
        member that raises alone stops.
        """
        pending = [(members, y, x, rows)]
        while pending:
            members, y, x, rows = pending.pop(0)
            try:
                prior, eps, moved, beta_hat, converged, pos = _absorb(
                    carried[members], zb, y, x, rows, settings, [steps[i] for i in members], kernel
                )
            except Exception as exc:
                if len(members) == 1:
                    outcomes[members[0]] = exc
                else:
                    pending += [
                        ([i], y[n : n + 1], x[n : n + 1], rows[n : n + 1])
                        for n, i in enumerate(members)
                    ]
                continue
            carried[members] = prior
            for n, (i, block_eps) in enumerate(zip(members, eps.tolist())):
                steps[i] += len(block_eps)
                eps_logs[i].extend(block_eps)
                ledgers[i].append(moved[n])
                trajectories[i].append(beta_hat[n])
                converged_logs[i].append(converged[n])
                positive[i] = pos[n]

    for ordinal in range(max(len(stream.blocks) for stream in streams)):
        t_round = clock()
        present: list[int] = []
        stacks: dict[int, list[int]] = {}  # the members of each block size's stack
        for i, stream in enumerate(streams):
            if outcomes[i] is not None or ordinal >= len(stream.blocks):
                continue
            present.append(i)
            start, stop = stream.blocks[ordinal]
            if not (positive[i] and all(stream.inside[start:stop])):
                try:
                    _check_hull(
                        stream.y[start:stop], stream.x[start:stop], zb, carried[i],
                        stream.rows[start:stop], qe,
                    )
                except InfeasibleObservationError as exc:
                    skipped[i].extend(range(start, stop))
                    logger.warning(
                        "skipping block %d (observations %d..%d): %s (offending: %s)",
                        ordinal, start, stop - 1, exc, [start + k for k in exc.indices],
                    )
                    continue
            stacks.setdefault(stop - start, []).append(i)
        solved = 0.0
        for m, members in stacks.items():
            t_stack = clock()
            starts = [offsets[i] + streams[i].blocks[ordinal][0] for i in members]
            at = np.add.outer(starts, range(m))  # the members' blocks as rows of all_y
            absorb(members, all_y[at], all_x[at], all_rows[at])
            dt = clock() - t_stack
            solved += dt
            for i in members:
                seconds[i] += dt / len(members)
        if present:
            share = (clock() - t_round - solved) / len(present)
            for i in present:
                seconds[i] += share

    for i, stream in enumerate(streams):
        t_report = clock()
        if outcomes[i] is None:
            try:
                outcomes[i] = _report(
                    stream, carried[i], steps[i], eps_logs[i], ledgers[i], trajectories[i],
                    converged_logs[i], skipped[i],
                )
            except Exception as exc:
                outcomes[i] = exc
        seconds[i] += clock() - t_report
    return outcomes, seconds


def _report(stream, carried, step, epsilon_log, ledger, trajectory, converged_log, skipped):
    """The ``StreamReport`` of a folded stream, with its one ``StreamState``."""
    state = StreamState(
        beta_prior=carried,
        supports=stream.state.supports,
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
        batch_solution=stream.batch_solution,
        skipped=tuple(skipped),
        all_converged=all(state.converged_log),
    )


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
    included, is built and checked then, and so is every observation's
    full-support hull test. The stream is then folded as a stack of one, the
    same fold that advances many streams together: on valid data the result
    is a left fold of ``block_update`` over the blocks, bit for bit, with the
    same skips and warnings, for every ``UpdateSettings``, with the
    full-support hull tested once for the stream, the prior's positivity
    carried from the step before, one stacked kernel for the stream's
    one-observation blocks and one ``StreamState`` built at the end.
    """
    stream = _prepare_stream(
        y, x, batch_size, block_size, settings, beta_support=beta_support,
        error_support=error_support, error_points=error_points, error_scale=error_scale,
    )
    (report,), _ = _fold([stream])
    if isinstance(report, Exception):
        raise report
    return report
