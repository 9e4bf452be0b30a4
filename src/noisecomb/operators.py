"""Linear degradation operators, observations, and guidance directions.

Operators map a flat signal in R^d to measurements in R^n and expose their
exact adjoint; `apply`/`adjoint` always satisfy <A x, y> = <x, A^T y>.
The three direction constructors turn an observation and a current denoised
estimate into the d-dimensional guidance vector consumed by the combination
weights (DPS pulls the residual back through the Tweedie Jacobian; MPGD and
the codebook-matching rule use the plain adjoint residual, which coincide).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .diffusion import Step, tweedie_jacobian_apply
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
    "dps_direction",
    "mpgd_direction",
    "ddcm_direction",
]


class LinearOperator:
    """Base class; subclasses set ``d``, ``n`` and implement apply/adjoint."""

    kind: str = "abstract"
    d: int
    n: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_input(self, v: np.ndarray, length: int, name: str) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (length,):
            raise ValueError(f"{self.kind}: {name} must have shape ({length},), got {v.shape}")
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
        return self._check_input(x, self.d, "x")[self.indices]

    def adjoint(self, y):
        y = self._check_input(y, self.n, "y")
        out = np.zeros(self.d)
        out[self.indices] = y
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
        return x.reshape(self.n, self.factor).mean(axis=1)

    def adjoint(self, y):
        y = self._check_input(y, self.n, "y")
        return np.repeat(y / self.factor, self.factor)


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
        out = np.zeros(self.d)
        for j, k in enumerate(self.taps):
            out += k * np.roll(x, j)
        return out

    def adjoint(self, y):
        y = self._check_input(y, self.n, "y")
        out = np.zeros(self.d)
        for j, k in enumerate(self.taps):
            out += k * np.roll(y, -j)
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
    """Measurement y = A x_0 + sigma_obs * z; solvers read only ``y`` and ``A``."""

    y: np.ndarray
    operator: LinearOperator

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        if y.shape != (self.operator.n,):
            raise ValueError(f"y has shape {y.shape}, operator expects ({self.operator.n},)")
        object.__setattr__(self, "y", y)


def make_observation(
    x0: np.ndarray, op: LinearOperator, sigma_obs: float, stream: NoiseStream
) -> Observation:
    """Synthesize an observation; deterministic given the noise stream."""
    if sigma_obs < 0:
        raise ValueError("sigma_obs must be >= 0")
    y = op.apply(x0)
    if sigma_obs > 0:
        y = y + sigma_obs * stream.standard_normal(op.n)
    return Observation(y=y, operator=op)


def dps_direction(obs: Observation, step: Step) -> np.ndarray:
    """Likelihood-gradient direction: (1/sigma_t^2) J^T A^T (y - A x0_hat).

    Equals the ascent direction of the Gaussian log-likelihood of y given the
    Tweedie estimate ``x0_hat`` of the :class:`Step`'s state, with the Step
    schedule's sigma_t as the likelihood scale.
    """
    pulled = mpgd_direction(obs, step.x0_hat)
    jv = tweedie_jacobian_apply(step, pulled)
    return jv / step.schedule.sigma_at(step.t) ** 2


def mpgd_direction(obs: Observation, x_tilde0: np.ndarray) -> np.ndarray:
    """Adjoint-residual direction A^T (y - A x0_hat) on the denoised estimate.

    Scalar step-size prefactors are dropped: only the direction feeds the
    unit-norm combination. Every solver row computes it, so a residual or
    direction whose norm is not finite (a sum of squares that overflows, as
    with a ``sigma_obs`` of 1e300, or a non-finite entry) is refused here.
    """
    x_tilde0 = np.asarray(x_tilde0, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = obs.y - obs.operator.apply(x_tilde0)
        c = obs.operator.adjoint(residual)
        if not (math.isfinite(residual @ residual) and math.isfinite(c @ c)):
            raise ValueError("the norm of the residual or the direction is not finite")
    return c


def ddcm_direction(obs: Observation, x_tilde0: np.ndarray) -> np.ndarray:
    """Codebook-matching direction; identical to :func:`mpgd_direction`.

    For pure compression (A = I, y = x_0) this is the residual x_0 - x0_hat;
    the positive scale factor of the underlying score approximation is
    dropped because the combination step normalizes.
    """
    return mpgd_direction(obs, x_tilde0)
