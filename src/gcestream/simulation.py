"""Synthetic regression data for the Monte Carlo experiments.

Datasets follow a fixed linear protocol: regressors drawn i.i.d. uniform on an
interval, Gaussian noise, an optional common factor mixed into chosen columns
to dial multicollinearity from none (eta = 0) to perfect (eta = 1), and an
optional standardization of the regressors. The draw order (regressor matrix,
common factor, noise) is fixed so a seed pins the dataset bit for bit; the
counter-based Philox generator in use is recorded in the dataset metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .core import _integer

__all__ = [
    "DEFAULT_BETA_SUPPORT",
    "SimulationConfig",
    "Dataset",
    "generate_dataset",
    "apply_multicollinearity",
    "standardize_columns",
    "build_error_support",
    "save_dataset_csv",
    "load_dataset_csv",
]

#: Wide five-point support row used for every regression coefficient.
DEFAULT_BETA_SUPPORT = (-100.0, -50.0, 0.0, 50.0, 100.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Generating model: y = intercept + x @ true_beta + noise.

    ``eta`` mixes the shared factor into ``collinear_columns`` (all columns
    when None). ``standardize`` stores the regressors standardized column by
    column, with the generating coefficients transformed to match, so the
    stored components always reproduce ``y`` exactly. Every value must be
    finite, and ``noise_sd`` zero is accepted for noiseless fixtures.
    ``true_beta`` None derives the sign-alternating default (1, -2, 3, -4,
    ...) for the configured number of regressors.
    """

    n: int
    n_regressors: int = 3
    true_beta: tuple[float, ...] | None = None
    intercept: float = 1.0
    x_low: float = 0.0
    x_high: float = 20.0
    noise_sd: float = 1.0
    eta: float = 0.0
    collinear_columns: tuple[int, ...] | None = None
    standardize: bool = False
    beta_support: tuple[float, ...] = DEFAULT_BETA_SUPPORT
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "n_regressors", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n_regressors < 1:
            raise ValueError("n_regressors must be at least 1")
        if self.n < self.n_regressors + 1:
            raise ValueError(
                f"n must be at least n_regressors + 1 = {self.n_regressors + 1}, got {self.n}"
            )
        if self.true_beta is None:
            beta = tuple(
                float((j + 1) * (1 if j % 2 == 0 else -1)) for j in range(self.n_regressors)
            )
        else:
            beta = tuple(float(b) for b in self.true_beta)
        if len(beta) != self.n_regressors:
            raise ValueError(
                f"true_beta has {len(beta)} entries for {self.n_regressors} regressors"
            )
        for name in ("intercept", "x_low", "x_high", "noise_sd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not all(map(math.isfinite, beta)):
            raise ValueError(f"true_beta must be finite, got {beta!r}")
        if not self.x_low < self.x_high:
            raise ValueError("x_low must be smaller than x_high")
        if self.noise_sd < 0.0:
            raise ValueError("noise_sd must be nonnegative")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        if self.collinear_columns is not None:
            cols = tuple(
                _integer(c, f"collinear_columns[{i}]")
                for i, c in enumerate(self.collinear_columns)
            )
            if any(not 0 <= c < self.n_regressors for c in cols) or len(set(cols)) != len(cols):
                raise ValueError("collinear_columns must be distinct regressor indices")
            object.__setattr__(self, "collinear_columns", cols)
        support = tuple(float(z) for z in self.beta_support)
        if not all(map(math.isfinite, support)):
            raise ValueError(f"beta_support must be finite, got {support!r}")
        if len(support) < 2 or any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("beta_support must be strictly increasing with at least two points")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "true_beta", beta)
        object.__setattr__(self, "beta_support", support)


@dataclass(frozen=True)
class Dataset:
    """One generated sample plus the values that produced it.

    The stored pieces always satisfy
    ``y == intercept + x @ true_beta + residuals`` to within 1e-12 (checked at
    construction). When the regressors were standardized, ``true_beta`` and
    ``intercept`` are the transformed generating values and ``metadata``
    carries the column means/sds plus the raw originals.
    """

    y: np.ndarray
    x: np.ndarray
    true_beta: np.ndarray
    intercept: float
    residuals: np.ndarray
    metadata: Mapping[str, Any]

    def __post_init__(self) -> None:
        y = np.array(self.y, dtype=float).reshape(-1)
        x = np.atleast_2d(np.array(self.x, dtype=float))
        beta = np.array(self.true_beta, dtype=float).reshape(-1)
        resid = np.array(self.residuals, dtype=float).reshape(-1)
        if x.shape != (y.size, beta.size) or resid.size != y.size:
            raise ValueError("y, x, true_beta, residuals have inconsistent shapes")
        reconstruction = self.intercept + x @ beta + resid
        gap = float(np.max(np.abs(reconstruction - y))) if y.size else 0.0
        if not gap <= 1e-12:  # a NaN gap fails too
            raise ValueError(f"stored components miss y by {gap!r} (tolerance 1e-12)")
        for arr in (y, x, beta, resid):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "true_beta", beta)
        object.__setattr__(self, "residuals", resid)
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def n(self) -> int:
        return int(self.y.size)


def apply_multicollinearity(x_column, common_factor, eta: float) -> np.ndarray:
    """Mix a shared factor into one regressor column.

    Returns ``eta * common_factor + sqrt(1 - eta^2) * x_column``; eta zero
    leaves the column untouched and eta one replaces it by the factor.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    col = np.asarray(x_column, dtype=float)
    factor = np.asarray(common_factor, dtype=float)
    if col.shape != factor.shape:
        raise ValueError(f"column shape {col.shape} does not match factor shape {factor.shape}")
    return eta * factor + np.sqrt(1.0 - eta * eta) * col


def standardize_columns(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center and scale each column to unit sample variance.

    Returns ``(standardized, means, sds)`` with sds using the n-1 denominator,
    so estimates on the standardized scale can be mapped back. Columns with
    zero variance are rejected.
    """
    mat = np.atleast_2d(np.asarray(x, dtype=float))
    if mat.shape[0] < 2:
        raise ValueError("standardization needs at least two rows")
    means = mat.mean(axis=0)
    sds = mat.std(axis=0, ddof=1)
    flat = np.flatnonzero(sds == 0.0)
    if flat.size:
        raise ValueError(f"column {int(flat[0])} has zero variance and cannot be standardized")
    return (mat - means) / sds, means, sds


#: Samples an error support can be scaled to: the opening batch, every
#: response seen so far, or the whole response vector.
ERROR_SCALES = ("batch", "cumulative", "full")


def _sample_spread(v: np.ndarray) -> float | None:
    """The sample deviation of ``v``, or None when it is too flat to scale a row to.

    Values so large that their squared deviations overflow give an infinite
    deviation, without numpy's overflow warning; the callers name them.
    """
    with np.errstate(over="ignore"):
        s = float(v.std(ddof=1)) if v.size > 1 else 0.0
    # constants that are not exactly representable leave a few ulps of fake
    # spread, so judge the deviation relative to the magnitude of the values
    floor = 1e-12 * max(1.0, float(np.max(np.abs(v))))
    if not s > floor:  # NaN included
        return None
    return s


def build_error_support(values, n_points: int = 3) -> np.ndarray:
    """Equally spaced error support spanning three sample deviations.

    The row runs from -3*s to +3*s where s is the sample standard deviation
    (n-1 denominator) of ``values``; with the default three points that is
    exactly {-3s, 0, 3s}. Values too flat to scale to, or so large that 3s
    overflows, raise ValueError; the latter names the largest value.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size < 2:
        raise ValueError("need at least two values to scale an error support")
    if n_points < 2:
        raise ValueError("an error support needs at least two points")
    s = _sample_spread(v)
    if s is None:
        raise ValueError("values have zero spread; cannot scale an error support")
    if not math.isfinite(3.0 * s):
        i = int(np.argmax(np.abs(v)))
        raise ValueError(
            f"values[{i}] = {float(v[i])!r} is too large to scale an error support to; "
            "rescale the values"
        )
    return np.linspace(-3.0 * s, 3.0 * s, n_points)


def _check_error_scale(scale: str) -> None:
    """Reject an ``error_scale`` that is not one of ``ERROR_SCALES``."""
    if scale not in ERROR_SCALES:
        raise ValueError(
            f"error_scale must be one of {', '.join(map(repr, ERROR_SCALES))}, got {scale!r}"
        )


def _scaled_error_support(y: np.ndarray, stop: int, scale: str, n_points: int) -> np.ndarray:
    """The error support row for responses ``y`` under one ``error_scale``.

    ``"full"`` scales to all of ``y``, ``"batch"`` and ``"cumulative"`` to
    ``y[:stop]`` (the caller moves ``stop`` for a cumulative stream). A
    sample of one value, or one flatter than ``build_error_support``'s
    relative floor, gets the fixed half-width ``3 * max(1, max|y|)`` so
    one-row and constant inputs stay solvable; otherwise the row is
    ``build_error_support``'s three-sigma row. Responses so large that the
    half-width overflows raise ValueError naming the largest of them, before
    any row is built.
    """
    _check_error_scale(scale)
    if n_points < 2:
        raise ValueError(f"error_points must be at least 2, got {n_points}")
    sample = np.asarray(y if scale == "full" else y[:stop], dtype=float).reshape(-1)
    if sample.size == 0:
        raise ValueError(
            f"error_scale={scale!r} has no responses to scale an error support to; "
            "pass error_support explicitly or use error_scale='full'"
        )
    s = _sample_spread(sample)
    half = 3.0 * (s if s is not None else max(1.0, float(np.max(np.abs(sample)))))
    if not math.isfinite(half):
        i = int(np.argmax(np.abs(sample)))
        raise ValueError(
            f"response y[{i}] = {float(sample[i])!r} is too large to scale an "
            f"error_scale={scale!r} error support to; rescale y or pass error_support explicitly"
        )
    return np.linspace(-half, half, n_points)


def generate_dataset(config: SimulationConfig) -> Dataset:
    """Draw one dataset under the generating protocol.

    Draw order is regressor matrix, then common factor, then noise, all from
    one Philox stream keyed by ``config.seed``, so identical configs give
    bitwise-identical datasets.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    n, j = config.n, config.n_regressors
    x = rng.uniform(config.x_low, config.x_high, size=(n, j))
    common = rng.uniform(config.x_low, config.x_high, size=n)
    noise = rng.normal(0.0, config.noise_sd, size=n) if config.noise_sd > 0 else np.zeros(n)

    columns = (
        config.collinear_columns
        if config.collinear_columns is not None
        else tuple(range(j))
    )
    if config.eta > 0.0:
        for col in columns:
            x[:, col] = apply_multicollinearity(x[:, col], common, config.eta)

    beta = np.array(config.true_beta)
    y = config.intercept + x @ beta + noise
    metadata: dict[str, Any] = {
        "generator": "philox",
        "seed": config.seed,
        "eta": config.eta,
        "standardized": bool(config.standardize),
        "s_y": float(y.std(ddof=1)) if n >= 2 else None,
    }

    if config.standardize:
        x_std, means, sds = standardize_columns(x)
        beta_std = beta * sds
        intercept_std = float(config.intercept + beta @ means)
        residuals = y - (intercept_std + x_std @ beta_std)
        metadata.update(
            x_means=tuple(float(m) for m in means),
            x_sds=tuple(float(s) for s in sds),
            raw_true_beta=tuple(float(b) for b in beta),
            raw_intercept=float(config.intercept),
        )
        return Dataset(y, x_std, beta_std, intercept_std, residuals, metadata)

    return Dataset(y, x, beta, float(config.intercept), noise, metadata)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def save_dataset_csv(path, y, x) -> None:
    """Write ``y, x1..xJ`` rows; floats use shortest round-trip formatting."""
    yv = np.asarray(y, dtype=float).reshape(-1)
    xv = np.atleast_2d(np.asarray(x, dtype=float))
    if xv.shape[0] != yv.size:
        raise ValueError(f"x has {xv.shape[0]} rows, y has {yv.size} entries")
    header = "y," + ",".join(f"x{j + 1}" for j in range(xv.shape[1]))
    lines = [header]
    for yi, row in zip(yv, xv):
        lines.append(",".join(repr(float(v)) for v in (yi, *row)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``y, x1..xJ`` file back into ``(y, x)`` arrays.

    Malformed content is reported with the 1-based line number and the
    offending field so truncated or hand-edited files fail loudly.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    n_cols = len(header)
    expected = ["y"] + [f"x{j + 1}" for j in range(n_cols - 1)]
    if n_cols < 2 or header != expected:
        raise ValueError(
            f"{path}: line 1: expected header 'y,x1..xJ', found {lines[0]!r}"
        )
    ys: list[float] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != n_cols:
            raise ValueError(
                f"{path}: line {lineno}: expected {n_cols} fields, found {len(fields)}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if not all(np.isfinite(values)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        ys.append(values[0])
        rows.append(values[1:])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(ys), np.array(rows)
