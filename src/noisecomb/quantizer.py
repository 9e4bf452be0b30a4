"""Unit-norm weight quantization via L2 stick-breaking.

A nonnegative unit-norm weight vector gamma of length m is parameterized by
m-1 fractions u_i in [0, 1]: each stage takes a sqrt(u_i) slice of the
remaining stick, so any choice of fractions reconstructs to an exactly
unit-norm gamma and no renormalization is ever needed. Quantizing the
fractions on a per-stage grid therefore preserves the norm by construction.

Grids spend C bits per stage: code 0 is reserved for u = 0 and codes
1..2^C - 1 address the uniform values j / (2^C - 1), so the worked 2-bit grid
is {1/3, 2/3, 1}. C = 0 stores nothing; decoding then uses the implicit
equal-split fractions u_i = 1/(m - i + 1), i.e. gamma_i = 1/sqrt(m).

Three quantizers trade fidelity for cost, all evaluated on the alignment
objective <b, gamma> for descending nonnegative scores b:

* nearest-neighbor projection of the continuous optimum's fractions (O(m));
* stage-wise closed form, deriving each fraction from the continuous
  recursion before snapping it to the grid (O(m));
* an exact 1-D dynamic program over the grid (O(m * 2^C)), matched by the
  brute-force enumerator kept as an oracle and complexity foil.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "StickCode",
    "BudgetExceededError",
    "stick_forward",
    "stick_inverse",
    "fractions_from_scores",
    "decode_fractions",
    "decode_weights",
    "stick_objective",
    "quantize_nn",
    "quantize_stagewise",
    "quantize_dp",
    "quantize_greedy_exponential",
    "QUANTIZERS",
    "payload_bits",
    "bpp",
]


class BudgetExceededError(RuntimeError):
    """Brute-force search refused: the assignment space exceeds the budget."""


@dataclass(frozen=True)
class Grid:
    """Per-stage fraction grid consuming C bits per stored code; ``values`` is derived from C."""

    C: int
    values: np.ndarray = field(init=False)  # sorted j / (2^C - 1) in (0, 1]; empty at C == 0

    def __post_init__(self) -> None:
        if self.C < 0:
            raise ValueError(f"C must be >= 0, got {self.C}")
        L = (1 << self.C) - 1
        object.__setattr__(self, "values", np.arange(1, L + 1) / L if L else np.array([]))

    @property
    def levels(self) -> int:
        """Number of distinct codes per stage, reserved zero included."""
        return 1 << self.C

    def all_fractions(self) -> np.ndarray:
        """Fraction decoded by each code value, indexed by code."""
        if self.C == 0:
            return np.array([])
        return np.concatenate(([0.0], self.values))


@dataclass(frozen=True)
class StickCode:
    """m - 1 per-stage codes; empty at m = 1, all-zero placeholders at C = 0."""

    codes: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(int(c) for c in self.codes))

    @property
    def m(self) -> int:
        """Number of combined atoms: one more than the stored codes."""
        return len(self.codes) + 1


def stick_forward(u) -> np.ndarray:
    """Fractions u (length m-1) to weights gamma (length m), unit norm."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("u must be 1-d")
    if np.any((u < 0) | (u > 1)):
        raise ValueError("fractions must lie in [0, 1]")
    m = len(u) + 1
    gamma = np.empty(m)
    remaining = 1.0
    for i in range(m - 1):
        gamma[i] = remaining * np.sqrt(u[i])
        remaining *= np.sqrt(1.0 - u[i])
    gamma[m - 1] = remaining
    return gamma


def stick_inverse(gamma) -> np.ndarray:
    """Weights gamma (nonnegative, unit norm) to fractions u.

    The remaining stick at stage i equals the tail sum of squares, so it is
    evaluated as that all-positive sum rather than by subtracting from 1;
    this keeps the inverse well conditioned near exhaustion. Stages on an
    exhausted (all-zero) tail decode as u = 0.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.ndim != 1 or len(gamma) < 1:
        raise ValueError("gamma must be a nonempty 1-d vector")
    if np.any(gamma < -1e-12):
        raise ValueError("gamma must be nonnegative")
    sq = gamma * gamma
    if abs(sq.sum() - 1.0) > 1e-10:
        raise ValueError(f"gamma must have unit norm, got ||gamma||^2 = {sq.sum()}")
    m = len(gamma)
    tail = np.cumsum(sq[::-1])[::-1]  # tail[i] = sq[i] + sq[i+1] + ...
    u = np.zeros(m - 1)
    for i in range(m - 1):
        if tail[i] > 0.0:
            u[i] = min(sq[i] / tail[i], 1.0)
    return u


def fractions_from_scores(b) -> np.ndarray:
    """Fractions of the continuous optimum gamma* = b / ||b|| (b clamped >= 0)."""
    b = np.maximum(np.asarray(b, dtype=np.float64), 0.0)
    norm = np.linalg.norm(b)
    if norm == 0:
        raise ValueError("all scores are nonpositive; no continuous optimum")
    return stick_inverse(b / norm)


def decode_fractions(code: StickCode, grid: Grid) -> np.ndarray:
    """Per-stage fractions encoded by ``code`` (implicit equal split at C = 0)."""
    if grid.C == 0:
        return 1.0 / np.arange(code.m, 1, -1)
    fractions = grid.all_fractions()
    return fractions[np.asarray(code.codes, dtype=np.intp)] if code.m > 1 else np.array([])


def decode_weights(code: StickCode, grid: Grid) -> np.ndarray:
    """Reconstruct the unit-norm weights for a stick code."""
    return stick_forward(decode_fractions(code, grid))


def stick_objective(b, code: StickCode, grid: Grid) -> float:
    """Alignment value <b, gamma(code)>."""
    return float(np.dot(np.asarray(b, dtype=np.float64), decode_weights(code, grid)))


def _check_scores(b) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or len(b) < 1:
        raise ValueError("scores must be a nonempty 1-d vector")
    if not np.all(np.isfinite(b)):
        raise ValueError("scores must be finite")
    if np.any(np.diff(b) > 0):
        raise ValueError("scores must be sorted in descending order")
    return np.maximum(b, 0.0)


def _settled_code(b: np.ndarray, grid: Grid) -> StickCode | None:
    """The code all quantizers give at m = 1, at C = 0 and (equal split) for all-zero scores."""
    m = len(b)
    if m == 1 or grid.C == 0:
        return StickCode(codes=(0,) * (m - 1))
    if not np.any(b > 0):
        return quantize_nn(1.0 / np.arange(m, 1, -1), grid)
    return None


def quantize_nn(u_star, grid: Grid) -> StickCode:
    """Independent nearest-neighbor projection of each fraction onto the grid.

    Ties break toward the smaller code, hence toward the reserved zero.
    """
    u_star = np.asarray(u_star, dtype=np.float64)
    if np.any((u_star < -1e-12) | (u_star > 1 + 1e-12)):
        raise ValueError("fractions must lie in [0, 1]")
    m = len(u_star) + 1
    if grid.C == 0:
        return StickCode(codes=(0,) * (m - 1))
    fractions = grid.all_fractions()
    codes = tuple(int(np.argmin(np.abs(fractions - u))) for u in u_star)
    return StickCode(codes=codes)


def quantize_stagewise(b, grid: Grid) -> StickCode:
    """Stage-wise closed form with per-stage nearest-grid discretization.

    Walking from the tail, the continuously optimal fraction at stage i is
    b_i^2 / (b_i^2 + v^2), where v is the tail value of the continuous
    recursion (evaluated at its own optimal fractions); each fraction is then
    snapped to the nearest grid point. All-zero scores emit the deterministic
    equal split.
    """
    b = _check_scores(b)
    code = _settled_code(b, grid)
    if code is not None:
        return code
    m = len(b)
    fractions = grid.all_fractions()
    codes = [0] * (m - 1)
    v = b[m - 1]
    for i in range(m - 2, -1, -1):
        denom = b[i] * b[i] + v * v
        u_star = b[i] * b[i] / denom if denom > 0 else 0.0
        codes[i] = int(np.argmin(np.abs(fractions - u_star)))
        v = b[i] * np.sqrt(u_star) + v * np.sqrt(1.0 - u_star)
    return StickCode(codes=tuple(codes))


def quantize_dp(b, grid: Grid):
    """Exact discrete optimum of <b, gamma> over all grid assignments.

    Backward 1-D dynamic program: v_i = max_u b_i sqrt(u) + v_{i+1}
    sqrt(1 - u) over the grid (reserved zero included), O(m * 2^C).
    Returns ``(code, value)`` with the achieved objective v_1.
    """
    b = _check_scores(b)
    code = _settled_code(b, grid)
    if code is not None:
        return code, stick_objective(b, code, grid)
    m = len(b)
    fractions = grid.all_fractions()
    sqrt_u = np.sqrt(fractions)
    sqrt_1mu = np.sqrt(1.0 - fractions)
    codes = [0] * (m - 1)
    v = b[m - 1]
    for i in range(m - 2, -1, -1):
        vals = b[i] * sqrt_u + v * sqrt_1mu
        j = int(np.argmax(vals))  # first max: ties go to the smaller code
        codes[i] = j
        v = float(vals[j])
    return StickCode(codes=tuple(codes)), v


def quantize_greedy_exponential(b, grid: Grid, budget: int = 1_000_000):
    """Brute-force search over every joint code assignment.

    Reference oracle for :func:`quantize_dp` and the complexity foil: the
    assignment space has (2^C)^(m-1) elements, so the search refuses to run
    past ``budget`` and reports the offending cost.
    """
    b = _check_scores(b)
    code = _settled_code(b, grid)
    if code is not None:
        return code, stick_objective(b, code, grid)
    m = len(b)
    cost = grid.levels ** (m - 1)
    if cost > budget:
        raise BudgetExceededError(
            f"exhaustive search needs {cost} evaluations "
            f"({grid.levels}^{m - 1}) > budget {budget}"
        )
    fractions = grid.all_fractions()
    best_codes = None
    best_value = -np.inf
    for assignment in itertools.product(range(grid.levels), repeat=m - 1):
        gamma = stick_forward(fractions[list(assignment)])
        value = float(np.dot(b, gamma))
        if value > best_value:
            best_value = value
            best_codes = assignment
    return StickCode(codes=best_codes), best_value


# The codec's quantizers by name, each ``(b, grid) -> StickCode`` for descending
# nonnegative scores b, in bench-quant's row order. The exhaustive search is
# left out: it is the oracle and complexity foil, not a quantizer to ship.
QUANTIZERS = {
    "nn": lambda b, grid: quantize_nn(fractions_from_scores(b), grid),
    "stagewise": quantize_stagewise,
    "dp": lambda b, grid: quantize_dp(b, grid)[0],
}


def payload_bits(T: int, K: int, m: int, C: int) -> int:
    """Exact payload size: (T-1) * (m log2 K + C (m-1)) bits."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if C < 0:
        raise ValueError("C must be >= 0")
    if K < 1 or (K & (K - 1)) != 0:
        raise ValueError(f"K must be a power of two (integral index width), got {K}")
    log2_k = K.bit_length() - 1
    return (T - 1) * (log2_k * m + C * (m - 1))


def bpp(T: int, K: int, m: int, C: int, n_pixels_side: int) -> float:
    """Bits per pixel of a stream with the given parameters."""
    if n_pixels_side < 1:
        raise ValueError("n_pixels_side must be >= 1")
    return payload_bits(T, K, m, C) / float(n_pixels_side * n_pixels_side)
