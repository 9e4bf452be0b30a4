import numpy as np
import pytest

from noisecomb.diffusion import (
    GaussianMixturePrior,
    Schedule,
    ddpm_mean,
    ddpm_step,
    fresh_noise,
    logsumexp,
    marginal_log_density,
    marginal_params,
    reverse_loop,
    score,
    step_at,
    tweedie_estimate,
    tweedie_jacobian,
    tweedie_jacobian_apply,
    unconditional_sample,
)

RNG = np.random.default_rng(20240811)

# independently computed via exp(sum(log(1 - beta_t))) at T=1000, linear 1e-4..0.02
ALPHA_BAR_T1000_GOLDEN = 4.035829765375676e-05


def _mixture_2d_full():
    covs = np.array(
        [
            [[0.8, 0.3], [0.3, 0.5]],
            [[1.2, -0.4], [-0.4, 0.9]],
            [[0.4, 0.0], [0.0, 1.5]],
        ]
    )
    means = np.array([[1.0, -1.0], [-2.0, 0.5], [0.0, 2.0]])
    return GaussianMixturePrior(
        weights=np.array([0.5, 0.3, 0.2]), means=means, covariances=covs
    )


def _mixture_4d_diag():
    means = np.array(
        [[1.0, 0.0, -1.0, 2.0], [-1.5, 0.5, 0.0, -0.5], [0.0, -2.0, 1.0, 0.0]]
    )
    variances = np.array(
        [[0.5, 1.0, 0.3, 0.8], [1.2, 0.4, 0.9, 0.6], [0.7, 0.7, 1.1, 0.2]]
    )
    return GaussianMixturePrior(
        weights=np.array([0.4, 0.35, 0.25]), means=means, variances=variances
    )


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_single_step():
    sch = Schedule(1, 0.02, 0.02)
    assert sch.alpha_bar.tolist() == [0.98]
    assert sch.sigma_at(1) == pytest.approx(np.sqrt(0.02), abs=0)


def test_schedule_golden_alpha_bar():
    sch = Schedule(1000, 1e-4, 0.02)
    # cross-check cumprod against an independent log-domain evaluation
    log_prod = np.sum(np.log1p(-np.linspace(1e-4, 0.02, 1000)))
    assert sch.alpha_bar_at(1000) == pytest.approx(np.exp(log_prod), rel=1e-12)
    assert sch.alpha_bar_at(1000) == pytest.approx(ALPHA_BAR_T1000_GOLDEN, rel=1e-12)


def test_schedule_monotone_and_consistent():
    sch = Schedule(500, 1e-4, 0.02)
    assert np.all(np.diff(sch.alpha_bar) < 0)
    assert np.all(sch.alpha_bar > 0) and np.all(sch.alpha_bar <= 1)
    assert np.allclose(sch.sigma**2, sch.beta, rtol=0, atol=1e-16)
    assert np.all((sch.beta > 0) & (sch.beta < 1))


def test_schedule_is_its_three_numbers():
    sch = Schedule(10)
    assert sch == Schedule(10, 1e-4, 0.02)
    assert hash(sch) == hash(Schedule(10, 1e-4, 0.02))
    for other in (Schedule(11), Schedule(10, 2e-4), Schedule(10, 1e-4, 0.03)):
        assert sch != other
    assert repr(sch) == "Schedule(T=10, beta_min=0.0001, beta_max=0.02)"


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Schedule(0, 1e-4, 0.02)
    with pytest.raises(ValueError):
        Schedule(10, 0.0, 0.02)
    with pytest.raises(ValueError):
        Schedule(10, 0.03, 0.02)
    with pytest.raises(ValueError):
        Schedule(10, 1e-4, 1.0)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginal_near_t0_limit():
    sch = Schedule(5, 1e-6, 1e-6)
    prior = _mixture_4d_diag()
    w, means, variances = marginal_params(prior, sch, 1)
    assert np.allclose(means, prior.means, rtol=0, atol=1e-5)
    assert np.allclose(variances, prior.variances, rtol=0, atol=1e-5)
    assert np.array_equal(w, prior.weights)


def test_marginal_unit_gaussian_variance_preserved_every_t():
    sch = Schedule(200, 1e-4, 0.05)
    prior = GaussianMixturePrior.single(np.zeros(3), np.ones(3))
    for t in range(1, 201):
        _, _, variances = marginal_params(prior, sch, t)
        assert np.all(np.abs(variances - 1.0) <= 1e-15)


def test_marginal_two_component_hand_example():
    # one step with beta = 0.75 makes alpha_bar exactly 0.25
    sch = Schedule(1, 0.75, 0.75)
    prior = GaussianMixturePrior(
        weights=np.array([0.6, 0.4]),
        means=np.array([[2.0], [-4.0]]),
        variances=np.array([[1.0], [2.0]]),
    )
    _, means, variances = marginal_params(prior, sch, 1)
    assert means == pytest.approx(np.array([[1.0], [-2.0]]), abs=1e-15)
    assert variances == pytest.approx(np.array([[1.0], [1.25]]), abs=1e-15)


def test_marginal_rejects_out_of_range_t():
    sch = Schedule(10, 1e-4, 0.02)
    prior = _mixture_4d_diag()
    with pytest.raises(ValueError):
        marginal_params(prior, sch, 0)
    with pytest.raises(ValueError):
        marginal_params(prior, sch, 11)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_score_unit_gaussian_is_minus_x():
    sch = Schedule(100, 1e-4, 0.02)
    prior = GaussianMixturePrior.single(np.zeros(5), np.ones(5))
    x = RNG.normal(size=5)
    for t in (1, 37, 100):
        assert np.allclose(score(prior, sch, x, t), -x, rtol=1e-13, atol=1e-13)


def test_score_near_point_mass():
    sch = Schedule(50, 1e-4, 0.02)
    eps = 1e-6
    mu = np.array([0.5, -1.0])
    prior = GaussianMixturePrior.single(mu, eps * np.ones(2))
    t = 20
    ab = sch.alpha_bar_at(t)
    x = np.array([1.0, 2.0])
    expected = -(x - np.sqrt(ab) * mu) / (1 - ab + ab * eps)
    assert np.allclose(score(prior, sch, x, t), expected, rtol=1e-10)


@pytest.mark.parametrize("prior_fn", [_mixture_2d_full, _mixture_4d_diag])
def test_score_matches_finite_differences(prior_fn):
    prior = prior_fn()
    sch = Schedule(100, 1e-4, 0.02)
    for _ in range(100):
        t = int(RNG.integers(1, 101))
        x = RNG.normal(size=prior.d) * 2.0
        exact = score(prior, sch, x, t)
        fd = _fd_gradient(lambda v: marginal_log_density(prior, sch, v, t), x)
        assert np.linalg.norm(fd - exact) <= 1e-5 * max(np.linalg.norm(exact), 1e-3)


def test_score_rejects_nonfinite_input():
    sch = Schedule(10, 1e-4, 0.02)
    prior = _mixture_4d_diag()
    with pytest.raises(ValueError):
        score(prior, sch, np.array([1.0, np.nan, 0.0, 0.0]), 5)


def test_logsumexp_bit_identical_to_scipy():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp
    from scipy.special import logsumexp as scipy_logsumexp

    shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6)
    values = st.one_of(
        st.floats(allow_nan=False, width=64),
        st.sampled_from([-np.inf, -700.0, -1.0, 0.0, 2.5]),  # repeats force ties
    )

    @given(shape=shapes, data=st.data(), keepdims=st.booleans())
    @settings(max_examples=300, deadline=None)
    def run(shape, data, keepdims):
        a = data.draw(hnp.arrays(np.float64, shape, elements=values))
        k = shape[-1]
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        a[..., i] = a[..., j]  # a tie along the reduced axis in every row
        got = logsumexp(a, axis=-1, keepdims=keepdims)
        want = scipy_logsumexp(a, axis=-1, keepdims=keepdims)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    run()


def _mixture_16d_full():
    rng = np.random.default_rng(16)
    d, k = 16, 3
    covs = np.empty((k, d, d))
    for j in range(k):
        A = rng.normal(size=(d, d)) / np.sqrt(d)
        covs[j] = A @ A.T + 0.3 * np.eye(d)
    return GaussianMixturePrior(
        weights=np.array([0.5, 0.3, 0.2]), means=rng.normal(size=(k, d)), covariances=covs
    )


@pytest.mark.parametrize("prior_kind", ["diagonal", "full"])
def test_step_at_rows_match_single_states(prior_kind):
    # the lockstep loop scores a (B, d) state once; each row must equal the
    # single-state Step byte for byte (the full prior takes the cho_solve path)
    from noisecomb.codec import build_registered_prior

    prior = build_registered_prior(4, 16) if prior_kind == "diagonal" else _mixture_16d_full()
    sch = Schedule(40, 1e-4, 0.02)
    for B in (1, 2, 4, 7):
        xs = RNG.normal(size=(B, prior.d))
        for t in (1, 17, 40):
            batched = step_at(prior, sch, xs, t)
            for r in range(B):
                one = step_at(prior, sch, xs[r], t)
                assert batched.x0_hat[r].tobytes() == one.x0_hat.tobytes()
                for rows, single in zip(batched.stats, one.stats):
                    assert rows[r].tobytes() == single.tobytes()


def test_score_batched_matches_pointwise():
    prior = _mixture_4d_diag()
    sch = Schedule(60, 1e-4, 0.02)
    xs = RNG.normal(size=(7, 4))
    batched = score(prior, sch, xs, 30)
    for r in range(7):
        assert np.allclose(batched[r], score(prior, sch, xs[r], 30), rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# Tweedie estimate and Jacobian
# ---------------------------------------------------------------------------


def _conjugate_posterior_mean(mu0, sigma0, sch, t, x):
    ab = sch.alpha_bar_at(t)
    C = ab * sigma0 + (1 - ab) * np.eye(len(mu0))
    return mu0 + np.sqrt(ab) * sigma0 @ np.linalg.solve(C, x - np.sqrt(ab) * mu0)


def test_tweedie_point_mass_collapses():
    sch = Schedule(40, 1e-4, 0.02)
    mu = np.array([1.0, -2.0, 0.5])
    prior = GaussianMixturePrior.single(mu, 1e-10 * np.ones(3))
    for t in (1, 20, 40):
        x = RNG.normal(size=3) * 3
        assert np.allclose(tweedie_estimate(prior, sch, x, t), mu, atol=1e-6)


def test_tweedie_matches_conjugate_gaussian():
    sch = Schedule(80, 1e-4, 0.03)
    sigma0 = np.array([[0.9, 0.2, 0.0], [0.2, 0.7, -0.1], [0.0, -0.1, 1.3]])
    mu0 = np.array([0.5, -0.5, 1.0])
    prior = GaussianMixturePrior.single(mu0, sigma0)
    for t in (1, 13, 47, 80):
        x = RNG.normal(size=3) * 2
        expected = _conjugate_posterior_mean(mu0, sigma0, sch, t, x)
        got = tweedie_estimate(prior, sch, x, t)
        assert np.linalg.norm(got - expected) <= 1e-8


def test_tweedie_no_noise_limit():
    sch = Schedule(100, 1e-8, 1e-8)
    prior = _mixture_4d_diag()
    x = RNG.normal(size=4)
    assert np.allclose(tweedie_estimate(prior, sch, x, 1), x, atol=1e-4)


def test_jacobian_single_gaussian_closed_form():
    sch = Schedule(60, 1e-4, 0.03)
    sigma0 = np.array([[0.9, 0.2], [0.2, 0.7]])
    prior = GaussianMixturePrior.single(np.array([0.3, -0.2]), sigma0)
    t = 25
    ab = sch.alpha_bar_at(t)
    expected = np.sqrt(ab) * sigma0 @ np.linalg.inv(ab * sigma0 + (1 - ab) * np.eye(2))
    for x in (np.zeros(2), np.array([3.0, -1.0])):
        got = tweedie_jacobian(prior, sch, x, t)
        assert np.allclose(got, expected, rtol=0, atol=1e-12)


def test_jacobian_point_mass_is_zero():
    sch = Schedule(30, 1e-4, 0.02)
    prior = GaussianMixturePrior.single(np.array([1.0, 2.0]), 1e-12 * np.ones(2))
    J = tweedie_jacobian(prior, sch, RNG.normal(size=2), 15)
    assert np.allclose(J, 0.0, atol=1e-9)


@pytest.mark.parametrize("prior_fn", [_mixture_2d_full, _mixture_4d_diag])
def test_jacobian_matches_finite_differences(prior_fn):
    prior = prior_fn()
    sch = Schedule(100, 1e-4, 0.02)
    for _ in range(10):
        t = int(RNG.integers(1, 101))
        x = RNG.normal(size=prior.d) * 1.5
        J = tweedie_jacobian(prior, sch, x, t)
        fd = np.zeros_like(J)
        h = 1e-5
        for j in range(prior.d):
            e = np.zeros(prior.d)
            e[j] = h
            fd[:, j] = (
                tweedie_estimate(prior, sch, x + e, t) - tweedie_estimate(prior, sch, x - e, t)
            ) / (2 * h)
        assert np.linalg.norm(fd - J) <= 1e-4 * max(np.linalg.norm(J), 1e-3)


@pytest.mark.parametrize("prior_fn", [_mixture_2d_full, _mixture_4d_diag])
def test_jacobian_apply_matches_dense(prior_fn):
    prior = prior_fn()
    sch = Schedule(50, 1e-4, 0.02)
    for t in (3, 27, 50):
        x = RNG.normal(size=prior.d)
        v = RNG.normal(size=prior.d)
        J = tweedie_jacobian(prior, sch, x, t)
        assert np.allclose(tweedie_jacobian_apply(step_at(prior, sch, x, t), v), J @ v, atol=1e-12)
        # J is symmetric, so apply doubles as the transposed product
        assert np.allclose(J, J.T, atol=1e-12)


# ---------------------------------------------------------------------------
# reverse updates
# ---------------------------------------------------------------------------


def test_ddpm_mean_zero_score():
    sch = Schedule(10, 0.01, 0.02)
    x = np.array([1.0, -2.0])
    got = ddpm_mean(sch, x, 5, np.zeros(2))
    assert np.allclose(got, x / np.sqrt(sch.alpha_at(5)), rtol=0, atol=1e-16)


def test_ddpm_mean_hand_value_1d():
    sch = Schedule(1, 0.02, 0.02)
    ab = sch.alpha_bar_at(1)
    # score chosen so the noise-prediction form equals 1
    s = np.array([-1.0 / np.sqrt(1 - ab)])
    got = ddpm_mean(sch, np.array([1.0]), 1, s)
    expected = (1.0 - 0.02 / np.sqrt(1 - ab)) / np.sqrt(0.98)
    assert got[0] == pytest.approx(expected, rel=1e-14)


def test_ddpm_mean_posterior_identity():
    prior = _mixture_4d_diag()
    sch = Schedule(100, 1e-4, 0.02)
    for t in (2, 41, 100):
        x = RNG.normal(size=4)
        s = score(prior, sch, x, t)
        x0_hat = tweedie_estimate(prior, sch, x, t)
        ab, ab_prev = sch.alpha_bar_at(t), sch.alpha_bar_prev(t)
        expected = (
            np.sqrt(ab_prev) * sch.beta_at(t) * x0_hat
            + np.sqrt(sch.alpha_at(t)) * (1 - ab_prev) * x
        ) / (1 - ab)
        got = ddpm_mean(sch, x, t, s)
        assert np.linalg.norm(got - expected) <= 1e-10 * max(np.linalg.norm(expected), 1.0)


def test_ddpm_step_final_ignores_noise():
    sch = Schedule(5, 1e-4, 0.02)
    prior = _mixture_4d_diag()
    x = RNG.normal(size=4)
    s = score(prior, sch, x, 1)
    a = ddpm_step(sch, x, 1, np.zeros(4), s)
    b = ddpm_step(sch, x, 1, np.full(4, 123.0), s)
    assert np.array_equal(a, b)


def test_ddpm_step_zero_noise_is_mean():
    sch = Schedule(5, 1e-4, 0.02)
    x = RNG.normal(size=3)
    s = RNG.normal(size=3)
    assert np.array_equal(ddpm_step(sch, x, 3, np.zeros(3), s), ddpm_mean(sch, x, 3, s))


def test_reverse_loop_rejects_noise_of_the_wrong_shape():
    prior = _mixture_4d_diag()
    sch = Schedule(3, 1e-4, 0.02)
    for bad in (0.5, np.zeros(1), np.zeros(5), np.zeros((1, 4))):
        with pytest.raises(ValueError, match="noise shape"):
            reverse_loop(prior, [(sch, 0, lambda step: bad, None)])


def test_ddpm_step_rejects_dimension_mismatch():
    sch = Schedule(5, 1e-4, 0.02)
    with pytest.raises(ValueError):
        ddpm_step(sch, np.zeros(3), 3, np.zeros(4), np.zeros(3))


# ---------------------------------------------------------------------------
# unconditional sampling
# ---------------------------------------------------------------------------


def _batched_unconditional(prior, sch, seeds):
    """``unconditional_sample`` over a seed batch: one lockstep loop, one row per seed."""

    return reverse_loop(prior, [(sch, seed, fresh_noise, None) for seed in seeds])


def test_unconditional_deterministic_per_seed():
    prior = _mixture_2d_full()
    sch = Schedule(25, 1e-4, 0.1)
    a = unconditional_sample(prior, sch, 11)
    b = unconditional_sample(prior, sch, 11)
    c = unconditional_sample(prior, sch, 12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batched_replica_matches_sampler():
    prior = _mixture_2d_full()
    sch = Schedule(25, 1e-4, 0.1)
    batch = _batched_unconditional(prior, sch, [4, 5, 6])
    for row, seed in zip(batch, (4, 5, 6)):
        assert np.array_equal(row, unconditional_sample(prior, sch, seed))


def test_each_step_names_its_rows_seed_and_schedule():
    prior = _mixture_2d_full()
    rows, seen = [], []
    for T in (6, 9):
        for seed in (3, 4, 5):
            sch = Schedule(T)

            def noise(step, row=len(rows)):
                seen.append((row, "noise", step.t, step.seed, step.schedule))
                return fresh_noise(step)

            def correct(step, x_next, row=len(rows)):
                seen.append((row, "correct", step.t, step.seed, step.schedule))
                return x_next

            rows.append((sch, seed, noise, correct))
    reverse_loop(prior, rows)
    for row, (sch, seed, _, _) in enumerate(rows):
        mine = [r[1:] for r in seen if r[0] == row]
        assert [t for hook, t, _, _ in mine if hook == "noise"] == list(range(sch.T, 1, -1))
        assert [t for hook, t, _, _ in mine if hook == "correct"] == list(range(sch.T, 0, -1))
        assert all(s == seed and step_sch == sch for _, _, s, step_sch in mine)
    batch = step_at(prior, Schedule(6), np.zeros((3, 2)), 6)
    assert batch.seed is None and batch.schedule == Schedule(6)


def test_rows_on_equal_schedules_share_one_scoring_per_step(monkeypatch):
    import noisecomb.diffusion

    prior = _mixture_2d_full()
    T, seeds = 10, (4, 5, 6)
    alone = [unconditional_sample(prior, Schedule(T), seed) for seed in seeds]
    calls = []
    real_step_at = noisecomb.diffusion.step_at
    monkeypatch.setattr(
        noisecomb.diffusion, "step_at", lambda *a, **k: calls.append(a[3]) or real_step_at(*a, **k)
    )
    rows = [
        (Schedule(T), seed, fresh_noise, None)
        for seed in seeds
    ]  # three separately built, equal schedules
    batch = reverse_loop(prior, rows)
    assert calls == list(range(T, 0, -1))
    for row, expected in zip(batch, alone):
        assert row.tobytes() == expected.tobytes()


def test_unconditional_point_mass_converges():
    mu = np.array([1.5, -0.75])
    prior = GaussianMixturePrior.single(mu, 1e-10 * np.ones(2))
    sch = Schedule(1000, 1e-4, 0.02)
    batch = _batched_unconditional(prior, sch, list(range(200)))
    tol = 0.05 * np.linalg.norm(mu) + 0.1
    assert np.all(np.abs(batch.mean(axis=0) - mu) <= tol)


def test_unconditional_unit_gaussian_variance():
    prior = GaussianMixturePrior.single(np.zeros(1), np.ones(1))
    sch = Schedule(50, 1e-4, 0.25)
    batch = _batched_unconditional(prior, sch, list(range(5000)))
    assert 0.9 <= float(batch.var()) <= 1.1


def test_full_covariance_path_at_d16():
    # exercise the non-diagonal branch at a larger dimension
    rng = np.random.default_rng(61)
    d, k = 16, 2
    covs = np.empty((k, d, d))
    for j in range(k):
        A = rng.normal(size=(d, d)) / np.sqrt(d)
        covs[j] = A @ A.T + 0.5 * np.eye(d)
    prior = GaussianMixturePrior(
        weights=np.array([0.6, 0.4]), means=rng.normal(size=(k, d)), covariances=covs
    )
    sch = Schedule(40, 1e-4, 0.02)
    x = rng.normal(size=d)
    t = 17
    exact = score(prior, sch, x, t)
    fd = _fd_gradient(lambda v: marginal_log_density(prior, sch, v, t), x)
    assert np.linalg.norm(fd - exact) <= 1e-5 * max(np.linalg.norm(exact), 1e-3)
    J = tweedie_jacobian(prior, sch, x, t)
    v = rng.normal(size=d)
    assert np.allclose(tweedie_jacobian_apply(step_at(prior, sch, x, t), v), J @ v, atol=1e-11)


def test_unconditional_bimodal_recovers_weights():
    prior = GaussianMixturePrior(
        weights=np.array([0.5, 0.5]),
        means=np.array([[3.0], [-3.0]]),
        variances=np.array([[1.0], [1.0]]),
    )
    sch = Schedule(50, 1e-4, 0.25)
    batch = _batched_unconditional(prior, sch, list(range(5000)))
    frac_positive = float(np.mean(batch > 0))
    assert abs(frac_positive - 0.5) <= 0.05
    # both modes present and centered near +-3
    assert abs(float(batch[batch > 0].mean()) - 3.0) <= 0.2
    assert abs(float(batch[batch < 0].mean()) + 3.0) <= 0.2
