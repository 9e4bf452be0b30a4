import numpy as np
import pytest

from noisecomb.diffusion import GaussianMixturePrior, Schedule, step_at, tweedie_estimate
from noisecomb.operators import (
    CircularBlur,
    Downsample,
    Identity,
    Mask,
    Observation,
    adjoint_residual,
    ddcm_direction,
    make_observation,
    mpgd_direction,
    operator_from_config,
)
from noisecomb.rng import Domain, StreamKey, derive_stream
from noisecomb.solvers import dps_direction

RNG = np.random.default_rng(777)


def _operators(d=12):
    return [
        Identity(d),
        Mask(d, [0, 2, 5, 11]),
        Downsample(d, 3),
        CircularBlur(d, [0.5, 0.3, 0.2]),
        CircularBlur(d, [1.0, 2.0, 3.0, 4.0]),  # unnormalized taps get normalized
    ]


def test_identity_apply_adjoint():
    op = Identity(4)
    x = RNG.normal(size=4)
    assert np.array_equal(op.apply(x), x)
    assert np.array_equal(op.adjoint(x), x)


def test_mask_example():
    op = Mask(4, [0, 2])
    assert np.array_equal(op.apply(np.array([1.0, 2.0, 3.0, 4.0])), [1.0, 3.0])
    assert np.array_equal(op.adjoint(np.array([5.0, 6.0])), [5.0, 0.0, 6.0, 0.0])


def test_downsample_block_average():
    op = Downsample(6, 2)
    x = np.array([1.0, 3.0, 2.0, 4.0, 10.0, 0.0])
    assert np.array_equal(op.apply(x), [2.0, 3.0, 5.0])


def test_circular_blur_normalizes_and_wraps():
    op = CircularBlur(4, [2.0, 2.0])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    # y_i = 0.5 x_i + 0.5 x_{i-1} circularly
    assert np.allclose(op.apply(x), [0.5, 0.5, 0.0, 0.0])


@pytest.mark.parametrize("op_idx", range(5))
def test_adjoint_identity_randomized(op_idx):
    op = _operators()[op_idx]
    for _ in range(20):
        x = RNG.normal(size=op.d)
        y = RNG.normal(size=op.n)
        lhs = float(np.dot(op.apply(x), y))
        rhs = float(np.dot(x, op.adjoint(y)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("d", [12, 48])
@pytest.mark.parametrize("op_idx", range(5))
def test_apply_and_adjoint_act_on_the_last_axis(op_idx, d):
    # a (B, d) batch maps row by row, each row to exactly the bytes it maps to alone
    op = _operators(d)[op_idx]
    X = RNG.normal(size=(7, op.d))
    Y = RNG.normal(size=(7, op.n))
    assert op.apply(X).tobytes() == np.stack([op.apply(x) for x in X]).tobytes()
    assert op.adjoint(Y).tobytes() == np.stack([op.adjoint(y) for y in Y]).tobytes()
    with pytest.raises(ValueError):
        op.apply(np.zeros((7, op.d + 1)))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros((7, op.n + 1)))


def test_adjoint_residual_of_a_batch_matches_each_row():
    # one residual pass per batch: A^T r and both norms of each row are that
    # row's own, and the norms round like np.linalg.norm
    op = Mask(12, [0, 2, 5, 11])
    X = RNG.normal(size=(6, 12))
    Y = RNG.normal(size=(6, 4))
    c, rnorm, cnorm = adjoint_residual(Observation(y=Y, operator=op), X)
    for i in range(6):
        ci, ri, ni = adjoint_residual(Observation(y=Y[i], operator=op), X[i])
        assert c[i].tobytes() == ci.tobytes()
        assert rnorm[i] == ri == np.linalg.norm(Y[i] - op.apply(X[i]))
        assert cnorm[i] == ni == np.linalg.norm(ci)


def test_operator_dimension_errors():
    op = Mask(4, [1, 3])
    with pytest.raises(ValueError):
        op.apply(np.zeros(5))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(3))
    with pytest.raises(ValueError):
        Downsample(10, 3)
    with pytest.raises(ValueError):
        Mask(4, [0, 0])
    with pytest.raises(ValueError):
        Mask(4, [4])


def test_operator_from_config_round_trip():
    d = 12
    specs = [
        {"kind": "identity"},
        {"kind": "mask", "indices": [0, 2, 5]},
        {"kind": "downsample", "factor": 4},
        {"kind": "circular_blur", "taps": [0.6, 0.4]},
    ]
    for spec in specs:
        op = operator_from_config(spec, d)
        assert op.kind == spec["kind"]
    with pytest.raises(ValueError):
        operator_from_config({"kind": "fourier"}, d)


@pytest.mark.parametrize("kind, field", [("mask", "indices"), ("downsample", "factor"), ("circular_blur", "taps")])
def test_operator_from_config_names_a_missing_field(kind, field):
    with pytest.raises(ValueError, match=f"missing required field '{field}'"):
        operator_from_config({"kind": kind}, 12)


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------


def test_observation_noiseless():
    op = Downsample(8, 2)
    x0 = RNG.normal(size=8)
    stream = derive_stream(StreamKey(0, Domain.OBSERVATION_NOISE, 0, 0))
    obs = make_observation(x0, op, 0.0, stream)
    assert np.array_equal(obs.y, op.apply(x0))
    for bad in (-0.05, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma_obs"):
            make_observation(x0, op, bad, stream)


def test_observation_deterministic_per_key():
    op = Identity(6)
    x0 = RNG.normal(size=6)
    a = make_observation(x0, op, 0.05, derive_stream(StreamKey(9, Domain.OBSERVATION_NOISE, 0, 0)))
    b = make_observation(x0, op, 0.05, derive_stream(StreamKey(9, Domain.OBSERVATION_NOISE, 0, 0)))
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, op.apply(x0))


def test_observation_validates_shape():
    with pytest.raises(ValueError):
        Observation(y=np.zeros(3), operator=Identity(4))


# ---------------------------------------------------------------------------
# directions
# ---------------------------------------------------------------------------


def _mixture_prior():
    return GaussianMixturePrior(
        weights=np.array([0.5, 0.5]),
        means=np.array([[1.0, -1.0, 0.5, 0.0], [-1.0, 1.0, 0.0, -0.5]]),
        variances=np.full((2, 4), 0.6),
    )


def test_mpgd_direction_examples():
    op = Identity(3)
    obs = Observation(y=np.array([1.0, 2.0, 3.0]), operator=op)
    x_tilde = np.array([0.5, 2.0, 1.0])
    assert np.array_equal(mpgd_direction(obs, x_tilde), obs.y - x_tilde)

    op = Mask(2, [0])
    obs = Observation(y=np.array([3.0]), operator=op)
    assert np.array_equal(mpgd_direction(obs, np.array([1.0, 7.0])), [2.0, 0.0])


def test_direction_zero_when_consistent():
    op = Downsample(8, 2)
    x_tilde = RNG.normal(size=8)
    obs = Observation(y=op.apply(x_tilde), operator=op)
    assert np.allclose(mpgd_direction(obs, x_tilde), 0.0, atol=1e-15)


def test_ddcm_equals_mpgd_everywhere():
    for _ in range(50):
        op = Mask(6, sorted(RNG.choice(6, size=3, replace=False).tolist()))
        obs = Observation(y=RNG.normal(size=3), operator=op)
        x_tilde = RNG.normal(size=6)
        a = mpgd_direction(obs, x_tilde)
        b = ddcm_direction(obs, x_tilde)
        assert np.array_equal(a, b)


def test_ddcm_pure_compression_residual():
    obs = Observation(y=np.array([2.0]), operator=Identity(1))
    assert ddcm_direction(obs, np.array([0.5]))[0] == pytest.approx(1.5, abs=0)


def test_dps_direction_zero_cases():
    prior = _mixture_prior()
    sch = Schedule(30, 1e-4, 0.02)
    t = 15
    x_t = RNG.normal(size=4)
    step = step_at(prior, sch, x_t, t)
    op = Identity(4)
    obs = Observation(y=op.apply(step.x0_hat), operator=op)
    assert np.allclose(dps_direction(obs, step), 0.0, atol=1e-12)

    point_mass = GaussianMixturePrior.single(np.array([1.0, 0.0, 0.0, 0.0]), 1e-12 * np.ones(4))
    obs2 = Observation(y=np.array([5.0, 5.0, 5.0, 5.0]), operator=op)
    step = step_at(point_mass, sch, x_t, t)
    assert np.allclose(dps_direction(obs2, step), 0.0, atol=1e-6)


def test_dps_direction_matches_likelihood_gradient():
    # c must equal the downhill direction of L = ||y - A x0_hat||^2 / (2 sigma_t^2)
    prior = _mixture_prior()
    sch = Schedule(30, 1e-4, 0.02)
    op = Mask(4, [0, 2])
    for trial in range(10):
        t = int(RNG.integers(1, 31))
        x_t = RNG.normal(size=4)
        obs = Observation(y=RNG.normal(size=2), operator=op)

        def loss(v):
            r = obs.y - op.apply(tweedie_estimate(prior, sch, v, t))
            return 0.5 * float(r @ r) / sch.sigma_at(t) ** 2

        h = 1e-6
        fd = np.zeros(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[j] = (loss(x_t + e) - loss(x_t - e)) / (2 * h)
        c = dps_direction(obs, step_at(prior, sch, x_t, t))
        assert np.linalg.norm(c + fd) <= 1e-4 * max(np.linalg.norm(c), 1e-6)
