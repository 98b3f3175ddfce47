"""Speed-normalized timing for a machine whose speed changes while it runs.

On a shared machine the same code can run at half speed for seconds or
minutes while a neighbour is busy, which no number of repetitions inside one
run averages away. So the benchmark times a fixed calibration kernel (its own
code, never the package's) every ``TICK_INTERVAL_S`` of wall time, and reports
each interval scaled to a nominal machine on which the kernel takes
``NOMINAL_KERNEL_S``:

    normalized time = wall time * NOMINAL_KERNEL_S / kernel time nearby

The kernel time at a tick is the running median of five ticks around it, and
between two ticks it is the mean of the two. Time spent in the kernel itself
is never part of a normalized interval. Raw wall times are recorded next to
the normalized ones.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Kernel time on the nominal machine; normalized times are relative to it.
NOMINAL_KERNEL_S = 5e-3

#: Wall time between calibration ticks while a workload runs.
TICK_INTERVAL_S = 0.1

#: Ticks in the running median that gives the kernel time at each tick.
SMOOTHING = 5

_X = np.linspace(0.0, 1.0, 2048)
_Z = np.array([-100.0, -50.0, 0.0, 50.0, 100.0])
_ZB = np.tile(_Z, (4, 1))
_ZE = np.array([-3.0, 0.0, 3.0])
_XROW = np.array([1.0, 3.0, 7.0, 11.0])


@dataclass(frozen=True)
class _Row:
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("bad weights")
        object.__setattr__(self, "weights", w / w.sum())


def kernel() -> float:
    """Fixed work of the same kinds as the package's hot paths.

    Part one is small-array numpy calls and a 2048-long dot product; part two
    is a scalar Newton root-find on a 4x5 coefficient grid and a 3-point error
    grid, with one validated frozen row object per coefficient, like a g = 1
    update. Together they track the machine's speed for both the array-heavy
    one-shot fits and the interpreter-heavy single-arrival updates.
    """
    total = 0.0
    for i in range(150):
        row = _X[i : i + 5]
        total += float(np.exp(row - row.max()).sum())
        total += float(_X @ _X)
        total += sum(j * 0.5 for j in range(20))
    log_prior = np.log(np.full((4, 5), 0.2))
    for step in range(12):
        lam, y = 0.0, 10.0 + step % 7
        for _ in range(6):
            logits = log_prior - _ZB * (_XROW * lam)[:, None]
            pb = np.exp(logits - logits.max(axis=1, keepdims=True))
            pb /= pb.sum(axis=1, keepdims=True)
            le = -_ZE * lam
            pe = np.exp(le - le.max())
            pe /= pe.sum()
            mean_b, mean_e = pb @ _Z, pe @ _ZE
            grad = y - _XROW @ mean_b - mean_e
            hess = _XROW**2 @ (pb @ _Z**2 - mean_b**2) + pe @ _ZE**2 - mean_e**2
            lam -= grad / hess
        total += sum(float(r.weights[0]) for r in map(_Row, pb)) + lam
    return total


class SpeedClock:
    """Calibration ticks, and wall intervals converted to nominal time."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._smoothed: list[float] = []
        kernel()  # first calls pay for numpy's lazy set-up; keep that out of ticks

    def tick(self) -> None:
        """Time the kernel once; skipped if a tick is already running."""
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def ticking(self):
        """Tick at the start, every ``TICK_INTERVAL_S`` of wall time and at the end.

        The periodic ticks run from a SIGALRM handler, so they land inside
        long operations too (a simulate command has no hook of its own).
        Python runs the handler between bytecodes of the main thread, never
        inside a numpy call, and retries system calls the signal interrupts.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        try:
            self.tick()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.tick()

    def kernel_s(self) -> list[float]:
        """Kernel time of each tick, as the median of it and its two
        neighbours on each side, which damps the jitter of single ticks."""
        raw = [e - s for s, e in zip(self.starts, self.ends)]
        if len(self._smoothed) != len(raw):
            half = SMOOTHING // 2
            self._smoothed = [
                statistics.median(raw[max(0, j - half) : j + half + 1]) for j in range(len(raw))
            ]
        return self._smoothed

    def normalized(self, a: float, b: float, nominal: bool = True) -> float:
        """Nominal duration of the wall interval [a, b], ticks excluded.

        Gap j runs from the end of tick j to the start of tick j + 1 and is
        scaled by the mean kernel time of those two ticks. Time before the
        first tick or after the last is scaled by that tick alone. With
        ``nominal=False`` the result is the unscaled wall time, ticks excluded.
        """
        if not self.ends:
            raise ValueError("no calibration tick recorded")
        n = len(self.ends)
        ticks = self.kernel_s()

        def kernel_s(j: int) -> float:
            if not nominal:
                return NOMINAL_KERNEL_S
            if 0 <= j < n - 1:
                return 0.5 * (ticks[j] + ticks[j + 1])
            return ticks[max(j, 0)]

        total = max(0.0, min(b, self.starts[0]) - a) / kernel_s(-1)
        for j in range(max(bisect.bisect_right(self.ends, a) - 1, 0), n):
            lo = self.ends[j]
            if lo >= b:
                break
            hi = self.starts[j + 1] if j + 1 < n else b
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0.0:
                total += overlap / kernel_s(j)
        return total * NOMINAL_KERNEL_S
