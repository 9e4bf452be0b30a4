"""Linear degradation operators, observations, and guidance directions.

Operators map a flat signal in R^d to measurements in R^n and expose their
exact adjoint; `apply`/`adjoint` always satisfy <A x, y> = <x, A^T y>. Both
act on the last axis, so a ``(B, d)`` batch maps row by row, each row to
exactly the bytes it maps to alone. :func:`adjoint_residual` forms the
residual ``r = y - A x0_hat`` of an observation at a denoised estimate once
and returns ``(A^T r, ||r||, ||A^T r||)``, for one estimate or a batch; the
MPGD and codebook-matching directions are its first value. The DPS direction,
which pulls ``A^T r`` back through the Tweedie Jacobian, lives with the DPS
solver in :mod:`noisecomb.solvers`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .rng import NoiseStream

__all__ = [
    "LinearOperator",
    "Identity",
    "Mask",
    "Downsample",
    "CircularBlur",
    "Observation",
    "operator_from_config",
    "make_observation",
    "adjoint_residual",
    "mpgd_direction",
    "ddcm_direction",
]


class LinearOperator:
    """Base class; subclasses set ``d``, ``n`` and implement apply/adjoint on the last axis."""

    kind: str = "abstract"
    d: int
    n: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_input(self, v: np.ndarray, length: int, name: str) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[-1:] != (length,):
            raise ValueError(f"{self.kind}: {name} must have shape (..., {length}), got {v.shape}")
        return v


class Identity(LinearOperator):
    kind = "identity"

    def __init__(self, d: int):
        self.d = self.n = int(d)

    def apply(self, x):
        return self._check_input(x, self.d, "x")

    def adjoint(self, y):
        return self._check_input(y, self.n, "y")


class Mask(LinearOperator):
    """Keeps the listed coordinates; the adjoint scatters back with zeros."""

    kind = "mask"

    def __init__(self, d: int, indices):
        self.d = int(d)
        idx = np.asarray(indices)
        if idx.ndim != 1 or len(idx) == 0:
            raise ValueError("mask needs a nonempty 1-d index set")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"mask indices must be integers, got {idx.dtype} entries")
        if len(np.unique(idx)) != len(idx) or idx.min() < 0 or idx.max() >= d:
            raise ValueError("mask indices must be distinct and in [0, d)")
        self.indices = idx.astype(np.intp)
        self.n = len(idx)

    def apply(self, x):
        return self._check_input(x, self.d, "x")[..., self.indices]

    def adjoint(self, y):
        y = self._check_input(y, self.n, "y")
        out = np.zeros(y.shape[:-1] + (self.d,))
        out[..., self.indices] = y
        return out


class Downsample(LinearOperator):
    """Block averaging by an integer factor that divides d."""

    kind = "downsample"

    def __init__(self, d: int, factor: int):
        if isinstance(factor, bool) or not isinstance(factor, numbers.Integral):
            raise ValueError(f"downsample factor must be an integer, got {factor!r}")
        if factor < 1 or d % factor != 0:
            raise ValueError(f"factor {factor} must be >= 1 and divide d={d}")
        self.d = int(d)
        self.factor = int(factor)
        self.n = d // factor

    def apply(self, x):
        x = self._check_input(x, self.d, "x")
        return x.reshape(x.shape[:-1] + (self.n, self.factor)).mean(axis=-1)

    def adjoint(self, y):
        y = self._check_input(y, self.n, "y")
        return np.repeat(y / self.factor, self.factor, axis=-1)


class CircularBlur(LinearOperator):
    """Circular convolution with normalized taps: y_i = sum_j k_j x_{(i-j) mod d}."""

    kind = "circular_blur"

    def __init__(self, d: int, taps):
        taps = np.asarray(taps, dtype=np.float64)
        if taps.ndim != 1 or len(taps) == 0 or len(taps) > d:
            raise ValueError("taps must be a nonempty 1-d kernel no longer than d")
        with np.errstate(over="ignore"):
            s = taps.sum()
        if not np.isfinite(s):  # a non-finite tap, or a sum that overflows
            raise ValueError("kernel taps and their sum must be finite")
        if abs(s) < 1e-12:
            raise ValueError("kernel taps must not sum to zero")
        self.d = self.n = int(d)
        self.taps = taps / s

    def apply(self, x):
        x = self._check_input(x, self.d, "x")
        out = np.zeros(x.shape)
        for j, k in enumerate(self.taps):
            out += k * np.roll(x, j, axis=-1)
        return out

    def adjoint(self, y):
        y = self._check_input(y, self.n, "y")
        out = np.zeros(y.shape)
        for j, k in enumerate(self.taps):
            out += k * np.roll(y, -j, axis=-1)
        return out


def operator_from_config(spec: dict, d: int) -> LinearOperator:
    """Build an operator from its JSON description: ``kind`` and that kind's own field."""
    kind = spec.get("kind")

    def required(name=None):
        """``spec[name]``, where ``name`` is the only key ``spec`` may hold besides ``kind``."""
        known = sorted({"kind", name} - {None})
        unknown = ", ".join(repr(key) for key in sorted(set(spec) - set(known)))
        if unknown:
            known_keys = ", ".join(known)
            raise ValueError(f"operator {kind!r}: unknown key {unknown}; known keys: {known_keys}")
        if name is not None and name not in spec:
            raise ValueError(f"operator {kind!r}: missing required field {name!r}")
        return spec.get(name)

    if kind == "identity":
        required()
        return Identity(d)
    if kind == "mask":
        return Mask(d, required("indices"))
    if kind == "downsample":
        return Downsample(d, required("factor"))
    if kind == "circular_blur":
        return CircularBlur(d, required("taps"))
    raise ValueError(f"unknown operator kind {kind!r}")


@dataclass(frozen=True)
class Observation:
    """Measurement y = A x_0 + sigma_obs * z; solvers read only ``y`` and ``A``.

    A ``(B, n)`` ``y`` is a batch: one measurement per row of a batch of estimates.
    """

    y: np.ndarray
    operator: LinearOperator

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim not in (1, 2) or y.shape[-1] != self.operator.n:
            raise ValueError(f"y has shape {y.shape}, operator expects (..., {self.operator.n})")
        object.__setattr__(self, "y", y)


def make_observation(
    x0: np.ndarray, op: LinearOperator, sigma_obs: float, stream: NoiseStream
) -> Observation:
    """Synthesize an observation; deterministic given the noise stream."""
    if not 0 <= sigma_obs < np.inf:
        raise ValueError(f"sigma_obs must be finite and >= 0, got {sigma_obs}")
    y = op.apply(x0)
    if sigma_obs > 0:
        y = y + sigma_obs * stream.standard_normal(op.n)
    return Observation(y=y, operator=op)


def adjoint_residual(obs: Observation, x_tilde0: np.ndarray) -> tuple:
    """``(A^T r, ||r||, ||A^T r||)`` for the residual ``r = y - A x0_hat``, formed once.

    For a ``(B, d)`` batch of estimates against a batch observation, row i
    is row i's and the norms are ``(B,)`` arrays. Each norm is a stacked
    ``matmul`` that rounds like ``np.linalg.norm`` of its row. An operator
    whose ``A^T r`` does not take the estimate's shape breaks the last-axis
    contract of :class:`LinearOperator` and is refused. Every solver row reads
    the residual through here, so a residual or direction whose norm is not
    finite (a sum of squares that overflows, as with a ``sigma_obs`` of
    1e300, or a non-finite entry) is refused here.
    """
    x_tilde0 = np.asarray(x_tilde0, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = obs.y - obs.operator.apply(x_tilde0)
        c = obs.operator.adjoint(residual)
        if c.shape != x_tilde0.shape:
            raise ValueError(f"{obs.operator.kind}: A^T r has shape {c.shape}, not the estimate's "
                             f"{x_tilde0.shape}; apply and adjoint must act on the last axis")
        rr = (residual[..., None, :] @ residual[..., :, None])[..., 0, 0]
        cc = (c[..., None, :] @ c[..., :, None])[..., 0, 0]
        if not (np.isfinite(rr).all() and np.isfinite(cc).all()):
            raise ValueError("the norm of the residual or the direction is not finite")
    return c, np.sqrt(rr), np.sqrt(cc)


def mpgd_direction(obs: Observation, x_tilde0: np.ndarray) -> np.ndarray:
    """Adjoint-residual direction A^T (y - A x0_hat) on the denoised estimate.

    Scalar step-size prefactors are dropped: only the direction feeds the
    unit-norm combination. The first value of :func:`adjoint_residual`.
    """
    return adjoint_residual(obs, x_tilde0)[0]


def ddcm_direction(obs: Observation, x_tilde0: np.ndarray) -> np.ndarray:
    """Codebook-matching direction; identical to :func:`mpgd_direction`.

    For pure compression (A = I, y = x_0) this is the residual x_0 - x0_hat;
    the positive scale factor of the underlying score approximation is
    dropped because the combination step normalizes.
    """
    return mpgd_direction(obs, x_tilde0)
