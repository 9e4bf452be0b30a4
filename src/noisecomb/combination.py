"""Optimal unit-norm combinations of codebook atoms.

Given a guidance direction c and a codebook matrix E of K standard-normal
atoms, the unit-norm weights maximizing <c, E gamma> are gamma* = E^T c /
||E^T c|| (Cauchy-Schwarz). The restricted variant keeps only the m atoms
with the largest signed inner products and renormalizes on that support,
clamping negative entries to zero so the weights stay in the nonnegative
orthant required by the stick-breaking quantizer; with m = 1 it reduces to
plain argmax selection of a single atom.

Every function also takes a ``(B, d)`` batch of directions, one per row, and
gives each row exactly the bytes that row gives alone: the products and norms
are stacked ``matmul`` calls (one BLAS call per row), never one gemm over the
batch or an ``einsum`` row dot, which round differently. A single direction
with no usable projection raises :class:`DegenerateDirectionError`; in a
batch, that row's weights are all zero instead, so it combines no atom.
The single-direction branch stays because it pays (2-core x86_64 host): the
codec encoder's one direction per step takes 19-25 us in ``top_m_weights`` at
d=64, K=64, and 39-43 us lifted to a batch of one, while at the solve grid's
batch sizes the batch path beats per-row calls (B=4: 19 against 35 us).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateDirectionError",
    "TopMSelection",
    "inner_products",
    "row_norms",
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
    """m distinct atom indices (by descending inner product) and their weights.

    A batch selection holds ``(B, m)`` arrays, one selection per row.
    """

    indices: np.ndarray  # (m,) intp
    weights: np.ndarray  # (m,) nonnegative, unit L2 norm

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.intp)
        w = np.asarray(self.weights, dtype=np.float64)
        if idx.shape != w.shape or idx.ndim not in (1, 2):
            raise ValueError("indices and weights must be matching 1-d or 2-d arrays")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)


def _atom_matrix(E) -> np.ndarray:
    """Validate a codebook: a (d, K) array of atom columns."""
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 2:
        raise ValueError(f"codebook matrix must be 2-d, got shape {E.shape}")
    return E


def row_norms(a: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of ``a``; each rounds like ``np.linalg.norm`` of its row."""
    if a.ndim == 1:
        return np.sqrt(a @ a)
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _unit_rows(a: np.ndarray, norm: np.ndarray, degenerate) -> np.ndarray:
    """``a / norm`` row by row, with zero rows where ``degenerate`` (a single row has raised there)."""
    if a.ndim == 1:
        return a / norm
    return np.divide(a, norm[:, None], out=np.zeros_like(a), where=~degenerate[:, None])


def inner_products(c: np.ndarray, E) -> np.ndarray:
    """b_i = <c, atom_i> for every atom, per row of a batch of directions."""
    atoms = _atom_matrix(E)
    c = np.asarray(c, dtype=np.float64)
    if c.ndim not in (1, 2) or c.shape[-1] != atoms.shape[0]:
        raise ValueError(f"direction shape {c.shape} != atom dimension ({atoms.shape[0]},)")
    return (atoms.T @ c[..., None])[..., 0]


def _degenerate_floor(c: np.ndarray, E) -> np.ndarray:
    return DEGENERATE_RTOL * np.sqrt(np.size(E)) * row_norms(np.asarray(c, dtype=np.float64))


def optimal_weights(c: np.ndarray, E) -> np.ndarray:
    """Unit-norm weights gamma* = E^T c / ||E^T c|| over the full codebook.

    Raises :class:`DegenerateDirectionError` when the projection is
    numerically zero; solvers then draw fresh noise, the codec a fixed record.
    A batch gives that row zero weights.
    """
    b = inner_products(c, E)
    norm = row_norms(b)
    degenerate = norm <= _degenerate_floor(c, E)
    if b.ndim == 1 and degenerate:
        raise DegenerateDirectionError("direction has negligible codebook projection")
    return _unit_rows(b, norm, degenerate)


def top_m_weights(c: np.ndarray, E, m: int) -> TopMSelection:
    """Restrict the optimal combination to the top-m atoms by signed b_i.

    Indices are stored in descending-b order. Weights are the normalized
    restriction of b with negative entries clamped to zero (the optimum over
    the nonnegative orthant on that support); m = 1 degenerates to argmax
    selection with weight 1. All b_i <= 0 is a degenerate instance, and so is
    a top m whose norm underflows to 0 (inner products below about 1e-162).
    A batch gives such a row zero weights.
    """
    b = inner_products(c, E)
    if not 1 <= m <= b.shape[-1]:
        raise ValueError(f"m must be in [1, {b.shape[-1]}], got {m}")
    unaligned = np.all(b <= 0, axis=-1) | (row_norms(b) <= _degenerate_floor(c, E))
    if b.ndim == 1 and unaligned:
        raise DegenerateDirectionError("no atom has positive alignment with the direction")
    # stable sort so equal inner products resolve to the smaller index
    order = np.argsort(-b, axis=-1, kind="stable")[..., :m]
    b_sel = np.maximum(b[order] if b.ndim == 1 else np.take_along_axis(b, order, axis=-1), 0.0)
    norm = row_norms(b_sel)
    if b.ndim == 1 and norm == 0:  # the kept inner products underflow in the norm
        raise DegenerateDirectionError("the top-m inner products have zero norm")
    return TopMSelection(indices=order, weights=_unit_rows(b_sel, norm, unaligned | (norm == 0)))


def synthesize_noise(E, weights) -> np.ndarray:
    """Combine atoms into one noise vector, or one per row of batch weights.

    ``weights`` is either a length-K vector over the whole codebook or a
    :class:`TopMSelection`; the sparse form sums in stored index order so the
    result is reproducible bit-for-bit.
    """
    atoms = _atom_matrix(E)
    if isinstance(weights, TopMSelection):
        out = np.zeros(weights.weights.shape[:-1] + atoms.shape[:1]).T  # (d,), or (d, B) for a batch
        for w, idx in zip(weights.weights.T, weights.indices.T):  # the j-th atom of every row
            out += w * atoms[:, idx]
        return out.T
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] != atoms.shape[1]:
        raise ValueError(f"weights shape {w.shape} != atom count ({atoms.shape[1]},)")
    return (atoms @ w[..., None])[..., 0]
