import numpy as np
import pytest

from noisecomb.combination import (
    DegenerateDirectionError,
    inner_products,
    optimal_weights,
    synthesize_noise,
    top_m_weights,
)
from noisecomb.rng import Domain, StreamKey, build_codebook, derive_stream

RNG = np.random.default_rng(31415)


def _orthonormal_codebook(b_values):
    """Atoms = scaled orthonormal directions so inner products are exactly b."""
    K = len(b_values)
    E = np.zeros((K, K))
    for i, b in enumerate(b_values):
        E[i, i] = b
    c = np.ones(K)
    # with c = sum of unit axes and atom_i = b_i e_i, <c, atom_i> = b_i
    return c, E


def test_optimal_weights_single_atom():
    c = np.array([1.0, 2.0])
    E = np.array([[0.5], [1.0]])
    assert np.array_equal(optimal_weights(c, E), [1.0])


def test_optimal_weights_three_four_normalization():
    c, E = _orthonormal_codebook([3.0, 4.0])
    gamma = optimal_weights(c, E)
    assert np.allclose(gamma, [0.6, 0.8], rtol=0, atol=1e-15)


def test_optimal_weights_beats_random_unit_vectors():
    d, K = 16, 4
    c = RNG.normal(size=d)
    E = RNG.normal(size=(d, K))
    gamma_star = optimal_weights(c, E)
    best = float(c @ (E @ gamma_star))
    b = inner_products(c, E)
    assert best == pytest.approx(float(np.linalg.norm(b)), abs=1e-12)
    samples = RNG.normal(size=(10**5, K))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    values = samples @ b
    assert float(values.max()) <= best + 1e-9


def test_optimal_weights_scale_invariant():
    d, K = 12, 6
    c = RNG.normal(size=d)
    E = RNG.normal(size=(d, K))
    base = optimal_weights(c, E)
    for alpha in (1e-6, 0.5, 3.0, 1e6):
        assert np.allclose(optimal_weights(alpha * c, E), base, rtol=0, atol=1e-12)


def test_optimal_weights_degenerate_raises():
    E = RNG.normal(size=(8, 4))
    with pytest.raises(DegenerateDirectionError):
        optimal_weights(np.zeros(8), E)


def test_optimal_weights_unit_norm_property():
    for _ in range(200):
        d = int(RNG.integers(2, 40))
        K = int(RNG.integers(1, 20))
        c = RNG.normal(size=d)
        E = RNG.normal(size=(d, K))
        gamma = optimal_weights(c, E)
        assert abs(np.linalg.norm(gamma) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# top-m selection
# ---------------------------------------------------------------------------


def test_top_m_is_argmax_at_m1():
    for _ in range(200):
        d, K = 24, 16
        c = RNG.normal(size=d)
        E = RNG.normal(size=(d, K))
        b = inner_products(c, E)
        sel = top_m_weights(c, E, 1)
        assert sel.indices[0] == int(np.argmax(b))
        assert np.array_equal(sel.weights, [1.0])


def test_top_m_hand_example():
    c, E = _orthonormal_codebook([5.0, 3.0, 1.0, -2.0])
    sel = top_m_weights(c, E, 2)
    assert sel.indices.tolist() == [0, 1]
    assert np.allclose(sel.weights, np.array([5.0, 3.0]) / np.sqrt(34.0), atol=1e-15)


def test_top_m_full_support_equals_optimal_when_positive():
    c, E = _orthonormal_codebook([4.0, 2.0, 1.0])
    sel = top_m_weights(c, E, 3)
    gamma = optimal_weights(c, E)
    assert np.allclose(np.asarray(sel.weights), gamma[sel.indices], atol=1e-15)


def test_top_m_clamps_negative_tail():
    c, E = _orthonormal_codebook([3.0, -1.0])
    sel = top_m_weights(c, E, 2)
    assert sel.indices.tolist() == [0, 1]
    assert np.array_equal(sel.weights, [1.0, 0.0])


def test_top_m_all_nonpositive_degenerate():
    c, E = _orthonormal_codebook([-1.0, -2.0, -3.0])
    with pytest.raises(DegenerateDirectionError):
        top_m_weights(c, E, 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1, 2])
def test_top_m_underflowing_norm_is_degenerate(m):
    # all of b has norm 1, but the kept inner products (1e-170 and 0) square
    # to 0 in their norm; normalizing them gave the weights [inf] and a
    # divide-by-zero warning
    with pytest.raises(DegenerateDirectionError):
        top_m_weights(np.array([1.0, 0.0]), np.array([[-1.0, 1e-170], [0.0, 0.0]]), m)


def test_top_m_rejects_bad_m():
    E = RNG.normal(size=(8, 4))
    c = RNG.normal(size=8)
    with pytest.raises(ValueError):
        top_m_weights(c, E, 0)
    with pytest.raises(ValueError):
        top_m_weights(c, E, 5)


def test_top_m_tie_breaks_toward_smaller_index():
    c, E = _orthonormal_codebook([2.0, 2.0, 1.0])
    sel = top_m_weights(c, E, 1)
    assert sel.indices[0] == 0


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesize_one_hot_is_atom():
    cb = build_codebook(0, 3, 5, 12)
    gamma = np.zeros(5)
    gamma[0] = 1.0
    assert np.array_equal(synthesize_noise(cb, gamma), cb[:, 0])


def test_synthesize_triangle_inequality():
    cb = build_codebook(1, 2, 6, 32)
    gamma = optimal_weights(RNG.normal(size=32), cb)
    eps = synthesize_noise(cb, gamma)
    bound = np.sum(np.abs(gamma)) * np.max(np.linalg.norm(cb, axis=0))
    assert np.linalg.norm(eps) <= bound + 1e-12


def test_synthesize_selection_matches_dense():
    cb = build_codebook(5, 4, 8, 16)
    c = RNG.normal(size=16)
    sel = top_m_weights(c, cb, 3)
    dense = np.zeros(8)
    dense[sel.indices] = sel.weights
    assert np.allclose(synthesize_noise(cb, sel), cb @ dense, atol=1e-12)


def test_synthesized_noise_is_standard_normal_for_fixed_weights():
    # fixed unit weights, fresh codebooks per draw: coordinates of the
    # synthesized noise must be standard normal (5 sigma-ish bounds)
    d, K, n = 8, 2, 10**5
    gamma = np.array([1.0, 1.0]) / np.sqrt(2.0)
    stream = derive_stream(StreamKey(99, Domain.FRESH_NOISE, 0, 0))
    z = stream.standard_normal(n * K * d).reshape(n, d, K)
    eps = z @ gamma
    mean = eps.mean(axis=0)
    var = eps.var(axis=0)
    cov = np.cov(eps.T)
    off_diag = cov[~np.eye(d, dtype=bool)]
    assert np.all(np.abs(mean) <= 0.012)
    assert np.all((var >= 0.98) & (var <= 1.02))
    assert np.all(np.abs(off_diag) <= 0.02)


def test_projection_norm_dominates_single_atom_and_grows():
    # ||E^T c|| (combination value) must beat max_i <c, atom_i> (one-hot value)
    # for every K, and both grow with K
    d = 256
    c = RNG.normal(size=d)
    c /= np.linalg.norm(c)
    trials = 64
    mean_max, mean_norm = {}, {}
    for K in (4, 16, 64):
        max_vals, norm_vals = [], []
        for trial in range(trials):
            E = RNG.normal(size=(d, K))
            b = E.T @ c
            max_vals.append(b.max())
            norm_vals.append(np.linalg.norm(b))
        mean_max[K] = float(np.mean(max_vals))
        mean_norm[K] = float(np.mean(norm_vals))
        assert mean_norm[K] > mean_max[K]
    assert mean_norm[4] < mean_norm[16] < mean_norm[64]
    assert mean_max[4] < mean_max[16] < mean_max[64]
    # combination value scales ~sqrt(K); one-hot only ~sqrt(2 ln K)
    assert mean_norm[64] / mean_norm[4] > 3.0
    assert mean_max[64] / mean_max[4] < 2.5
