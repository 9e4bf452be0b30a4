"""Optimal unit-norm combinations of codebook atoms.

Given a guidance direction c and a codebook matrix E of K standard-normal
atoms, the unit-norm weights maximizing <c, E gamma> are gamma* = E^T c /
||E^T c|| (Cauchy-Schwarz). The restricted variant keeps only the m atoms
with the largest signed inner products and renormalizes on that support,
clamping negative entries to zero so the weights stay in the nonnegative
orthant required by the stick-breaking quantizer; with m = 1 it reduces to
plain argmax selection of a single atom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateDirectionError",
    "TopMSelection",
    "atom_matrix",
    "inner_products",
    "optimal_weights",
    "top_m_weights",
    "synthesize_noise",
]

# Relative floor below which E^T c is considered numerically zero.
DEGENERATE_RTOL = 1e-12


class DegenerateDirectionError(ValueError):
    """The guidance direction has no usable projection onto the codebook."""


@dataclass(frozen=True)
class TopMSelection:
    """m distinct atom indices (by descending inner product) and their weights."""

    indices: np.ndarray  # (m,) intp
    weights: np.ndarray  # (m,) nonnegative, unit L2 norm

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.intp)
        w = np.asarray(self.weights, dtype=np.float64)
        if idx.shape != w.shape or idx.ndim != 1:
            raise ValueError("indices and weights must be matching 1-d arrays")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)


def atom_matrix(E) -> np.ndarray:
    """Validate a codebook: a (d, K) array of atom columns."""
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 2:
        raise ValueError(f"codebook matrix must be 2-d, got shape {E.shape}")
    return E


def inner_products(c: np.ndarray, E) -> np.ndarray:
    """b_i = <c, atom_i> for every atom."""
    atoms = atom_matrix(E)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (atoms.shape[0],):
        raise ValueError(f"direction shape {c.shape} != atom dimension ({atoms.shape[0]},)")
    return atoms.T @ c


def _degenerate_floor(c: np.ndarray, E) -> float:
    return DEGENERATE_RTOL * np.sqrt(np.size(E)) * float(np.linalg.norm(c))


def optimal_weights(c: np.ndarray, E) -> np.ndarray:
    """Unit-norm weights gamma* = E^T c / ||E^T c|| over the full codebook.

    Raises :class:`DegenerateDirectionError` when the projection is
    numerically zero; solvers then draw fresh noise, the codec a fixed record.
    """
    b = inner_products(c, E)
    norm = float(np.linalg.norm(b))
    if norm <= _degenerate_floor(c, E):
        raise DegenerateDirectionError("direction has negligible codebook projection")
    return b / norm


def top_m_weights(c: np.ndarray, E, m: int) -> TopMSelection:
    """Restrict the optimal combination to the top-m atoms by signed b_i.

    Indices are stored in descending-b order. Weights are the normalized
    restriction of b with negative entries clamped to zero (the optimum over
    the nonnegative orthant on that support); m = 1 degenerates to argmax
    selection with weight 1. All b_i <= 0 is a degenerate instance, and so is
    a top m whose norm underflows to 0 (inner products below about 1e-162).
    """
    b = inner_products(c, E)
    if not 1 <= m <= b.size:
        raise ValueError(f"m must be in [1, {b.size}], got {m}")
    if np.all(b <= 0) or np.linalg.norm(b) <= _degenerate_floor(c, E):
        raise DegenerateDirectionError("no atom has positive alignment with the direction")
    # stable sort so equal inner products resolve to the smaller index
    order = np.argsort(-b, kind="stable")[:m]
    b_sel = np.maximum(b[order], 0.0)
    norm = np.linalg.norm(b_sel)
    if norm == 0:  # the kept inner products underflow in the norm
        raise DegenerateDirectionError("the top-m inner products have zero norm")
    return TopMSelection(indices=order, weights=b_sel / norm)


def synthesize_noise(E, weights) -> np.ndarray:
    """Combine atoms into one noise vector.

    ``weights`` is either a length-K vector over the whole codebook or a
    :class:`TopMSelection`; the sparse form sums in stored index order so the
    result is reproducible bit-for-bit.
    """
    atoms = atom_matrix(E)
    if isinstance(weights, TopMSelection):
        out = np.zeros(atoms.shape[0])
        for idx, w in zip(weights.indices, weights.weights):
            out += w * atoms[:, idx]
        return out
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (atoms.shape[1],):
        raise ValueError(f"weights shape {w.shape} != atom count ({atoms.shape[1]},)")
    return atoms @ w
