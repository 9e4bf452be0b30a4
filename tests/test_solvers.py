import numpy as np
import pytest

from noisecomb.codec import build_registered_prior
from noisecomb.diffusion import (
    GaussianMixturePrior,
    Schedule,
    ddpm_step,
    fresh_noise,
    reverse_loop,
    score,
    tweedie_jacobian,
    tweedie_jacobian_apply,
    unconditional_sample,
)
from noisecomb.operators import (
    Identity,
    LinearOperator,
    Mask,
    Observation,
    dps_direction,
    make_observation,
    mpgd_direction,
)
from noisecomb.rng import Domain, StreamKey, build_codebook, derive_stream
from noisecomb.solvers import (
    BASELINE_SOLVERS,
    NCS_SOLVERS,
    SolverConfig,
    baseline_solve,
    ncs_solve,
    solve,
    solve_rows,
)


class ZeroOperator(LinearOperator):
    """Maps everything to zero; its adjoint is exactly zero, so every
    measurement direction degenerates and solvers must take the fallback."""

    kind = "zero"

    def __init__(self, d):
        self.d = d
        self.n = 1

    def apply(self, x):
        return np.zeros(1)

    def adjoint(self, y):
        return np.zeros(self.d)


def _toy_problem(seed=0, d=8, T=25, sigma=0.05, keep=None):
    prior = build_registered_prior(4, d)
    sch = Schedule(T, 1e-4, 0.02)
    x0 = prior.sample(1, derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))[0]
    op = Mask(d, keep if keep is not None else list(range(d // 2)))
    obs = make_observation(
        x0, op, sigma, derive_stream(StreamKey(seed, Domain.OBSERVATION_NOISE, 0, 0))
    )
    return prior, sch, x0, obs


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(solver="ALD")
    with pytest.raises(ValueError):
        SolverConfig(solver="DPS", K=8, m=9)


def test_family_dispatch_guards():
    prior, sch, _, obs = _toy_problem()
    with pytest.raises(ValueError):
        ncs_solve(prior, sch, obs, SolverConfig(solver="DPS"))
    with pytest.raises(ValueError):
        baseline_solve(prior, sch, obs, SolverConfig(solver="NCS-DPS"))


@pytest.mark.parametrize("solver", ["DPS", "MPGD", "DDCM", "NCS-DPS", "NCS-MPGD", "NCS-DDCM"])
def test_deterministic_per_config_seed(solver):
    prior, sch, _, obs = _toy_problem(seed=5)
    cfg = SolverConfig(solver=solver, K=16, seed=5)
    a = solve(prior, sch, obs, cfg)
    b = solve(prior, sch, obs, cfg)
    assert np.array_equal(a.x0, b.x0)
    assert a.degenerate_steps == b.degenerate_steps


def test_zero_guidance_baselines_reduce_to_unconditional():
    prior, sch, _, obs = _toy_problem(seed=3)
    uncond = unconditional_sample(prior, sch, 3)
    dps = baseline_solve(prior, sch, obs, SolverConfig(solver="DPS", seed=3, zeta=0.0))
    mpgd = baseline_solve(prior, sch, obs, SolverConfig(solver="MPGD", seed=3, lam=0.0))
    assert np.array_equal(dps.x0, uncond)
    assert np.array_equal(mpgd.x0, uncond)


def test_ddcm_k1_is_unconditional_with_codebook_noise():
    prior, sch, _, obs = _toy_problem(seed=9)
    got = baseline_solve(prior, sch, obs, SolverConfig(solver="DDCM", K=1, seed=9))
    # replay: same trajectory but noise drawn from the single-atom codebooks
    x = derive_stream(StreamKey(9, Domain.INIT_LATENT, 25, 0)).standard_normal(prior.d)
    for t in range(25, 0, -1):
        s = score(prior, sch, x, t)
        if t >= 2:
            noise = build_codebook(9, t, 1, prior.d)[:, 0]
        else:
            noise = np.zeros(prior.d)
        x = ddpm_step(sch, x, t, noise, s)
    assert np.array_equal(got.x0, x)


class TinyAdjointOperator(ZeroOperator):
    """Its adjoint is nonzero everywhere but so small that ||c||^2 underflows
    to 0: a direction with no usable length, degenerate like a zero one."""

    kind = "tiny"

    def adjoint(self, y):
        return np.full(self.d, 1e-170)


@pytest.mark.parametrize("operator", [ZeroOperator, TinyAdjointOperator])
def test_degenerate_directions_fall_back_to_plain_ddpm(operator):
    # a degenerate direction at every step leaves only the DDPM dynamics:
    # guidance lives purely in the noise term, so the fallback trajectory
    # must equal unconditional sampling bit for bit
    d = 6
    prior = build_registered_prior(2, d)
    sch = Schedule(15, 1e-4, 0.02)
    obs = Observation(y=np.zeros(1), operator=operator(d))
    uncond = unconditional_sample(prior, sch, 21)
    for solver in ("NCS-DPS", "NCS-MPGD", "NCS-DDCM", "DDCM"):
        res = solve(prior, sch, obs, SolverConfig(solver=solver, K=8, seed=21))
        assert res.degenerate_steps == 14  # every noisy step degenerated
        assert np.array_equal(res.x0, uncond)


@pytest.mark.parametrize("solver", ["DDCM", "NCS-DPS", "NCS-MPGD", "NCS-DDCM"])
def test_zero_direction_builds_no_codebook(monkeypatch, solver):
    # an all-zero direction is degenerate for any codebook, so its step draws
    # fresh noise without building one
    import noisecomb.solvers

    builds = []
    real = noisecomb.solvers.build_codebook
    monkeypatch.setattr(noisecomb.solvers, "build_codebook", lambda *a, **k: builds.append(a) or real(*a, **k))
    d = 6
    prior = build_registered_prior(2, d)
    sch = Schedule(15, 1e-4, 0.02)
    zero = Observation(y=np.zeros(1), operator=ZeroOperator(d))
    res = solve(prior, sch, zero, SolverConfig(solver=solver, K=8, seed=21))
    assert res.degenerate_steps == 14
    assert builds == []
    masked = Observation(y=np.ones(2), operator=Mask(d, [0, 1]))
    solve(prior, sch, masked, SolverConfig(solver=solver, K=8, seed=21))
    assert len(builds) == 14  # one per noisy step when the direction is not zero


_LOCKSTEP_SCHEDULES = (Schedule(7, 1e-4, 0.02), Schedule(12, 1e-4, 0.02))


def _lockstep_jobs(operator):
    """Jobs over two schedules (T = 7 and 12) and two seeds, each with its own
    observation: all six solvers at m in {None, 1, 3}, seed-major, then by T."""
    jobs = []
    for seed in (5, 6):
        prior, _, _, obs = _toy_problem(seed=seed)
        if operator == "zero":
            obs = Observation(y=np.zeros(1), operator=ZeroOperator(prior.d))
        for sch in _LOCKSTEP_SCHEDULES:
            for solver in BASELINE_SOLVERS + NCS_SOLVERS:
                for m in (None, 1, 3):
                    jobs.append((sch, obs, SolverConfig(solver=solver, K=8, m=m, seed=seed)))
    return prior, jobs


@pytest.mark.parametrize("operator", ["mask", "zero"])
def test_lockstep_rows_match_one_row_solves(operator):
    # each row of one lockstep call is its one-job solve, byte for byte
    prior, jobs = _lockstep_jobs(operator)
    rows = solve_rows(prior, jobs)
    assert len(rows) == len(jobs)
    for (sch, obs, config), row in zip(jobs, rows):
        alone = solve(prior, sch, obs, config)
        assert row.x0.tobytes() == alone.x0.tobytes(), (sch.T, config)
        assert row.degenerate_steps == alone.degenerate_steps, (sch.T, config)
    # per seed, the mask gives 8 distinct trajectories at T = 12 (NCS-MPGD and
    # NCS-DDCM coincide, and so do m = 1 and DDCM) and 7 at T = 7 (where
    # NCS-DPS at m = 1 also picks DDCM's atom at every step); the zero
    # operator leaves every solver at plain DDPM, one trajectory per seed and T
    degenerate = {row.degenerate_steps for row in rows}
    assert degenerate == ({0, 6, 11} if operator == "zero" else {0})
    assert len({row.x0.tobytes() for row in rows}) == (4 if operator == "zero" else 30)


def test_lockstep_job_order_changes_neither_builds_nor_bytes(monkeypatch):
    # solve_rows runs its rows in (seed, K) order, so jobs out of seed-major
    # order build each codebook once too, and give the same bytes in job order
    import noisecomb.solvers

    builds = []
    real = noisecomb.solvers.build_codebook
    monkeypatch.setattr(noisecomb.solvers, "build_codebook", lambda *a, **k: builds.append(a) or real(*a, **k))
    prior, jobs = _lockstep_jobs("mask")
    ordered = solve_rows(prior, jobs)
    # one build per seed and noisy step of the longest schedule
    assert len(builds) == len(set(builds)) == 2 * 11
    builds.clear()
    order = np.random.default_rng(3).permutation(len(jobs))
    shuffled = solve_rows(prior, [jobs[j] for j in order])
    assert len(builds) == len(set(builds)) == 2 * 11
    for j, row in zip(order, shuffled):
        assert row.x0.tobytes() == ordered[j].x0.tobytes()
        assert row.degenerate_steps == ordered[j].degenerate_steps


def test_self_consistent_first_step_degenerates():
    # y equal (bitwise) to the trajectory's own first Tweedie target makes the
    # first-step residual exactly zero
    d = 8
    prior = build_registered_prior(4, d)
    T = 12
    sch = Schedule(T, 1e-4, 0.02)
    from noisecomb.diffusion import tweedie_estimate

    x_T = derive_stream(StreamKey(6, Domain.INIT_LATENT, T, 0)).standard_normal(d)
    y = tweedie_estimate(prior, sch, x_T, T)
    obs = Observation(y=y, operator=Identity(d))
    res = ncs_solve(prior, sch, obs, SolverConfig(solver="NCS-MPGD", K=8, seed=6))
    assert res.degenerate_steps >= 1


def test_ncs_mpgd_and_ncs_ddcm_identical():
    prior, sch, _, obs = _toy_problem(seed=13)
    a = ncs_solve(prior, sch, obs, SolverConfig(solver="NCS-MPGD", K=16, seed=13))
    b = ncs_solve(prior, sch, obs, SolverConfig(solver="NCS-DDCM", K=16, seed=13))
    assert np.array_equal(a.x0, b.x0)


def test_ncs_ddcm_m1_equals_ddcm_baseline():
    prior, sch, _, obs = _toy_problem(seed=17)
    ncs = ncs_solve(prior, sch, obs, SolverConfig(solver="NCS-DDCM", K=16, m=1, seed=17))
    base = baseline_solve(prior, sch, obs, SolverConfig(solver="DDCM", K=16, seed=17))
    assert np.array_equal(ncs.x0, base.x0)


def test_restricted_support_interpolates():
    # m = K with all-positive scores equals the full combination
    d = 8
    prior = build_registered_prior(1, d)
    sch = Schedule(20, 1e-4, 0.02)
    x0 = prior.sample(1, derive_stream(StreamKey(8, Domain.PRIOR_SAMPLE, 0, 0)))[0]
    obs = make_observation(
        x0, Identity(d), 0.0, derive_stream(StreamKey(8, Domain.OBSERVATION_NOISE, 0, 0))
    )
    full = ncs_solve(prior, sch, obs, SolverConfig(solver="NCS-MPGD", K=2, seed=8))
    restricted = ncs_solve(prior, sch, obs, SolverConfig(solver="NCS-MPGD", K=2, m=2, seed=8))
    # differs only on steps where some inner product is negative; both stay finite
    assert np.all(np.isfinite(full.x0)) and np.all(np.isfinite(restricted.x0))


def test_solution_quality_mask_posterior():
    # 2-d unit-Gaussian prior, observe coordinate 0 = 3.0 with sigma 0.05:
    # reconstructions must concentrate near the analytic posterior mean
    prior = GaussianMixturePrior.single(np.zeros(2), np.ones(2))
    T = 50
    sch = Schedule(T, 1e-4, 0.05)
    obs = Observation(y=np.array([3.0]), operator=Mask(2, [0]))
    post_var = 1.0 / (1.0 + 1.0 / 0.05**2)
    post_mean = post_var * 3.0 / 0.05**2
    post_sd = np.sqrt(post_var)
    recs = []
    for seed in range(100):
        r = ncs_solve(prior, sch, obs, SolverConfig(solver="NCS-DPS", K=16, seed=seed))
        recs.append(r.x0[0])
    recs = np.array(recs)
    assert abs(recs.mean() - post_mean) <= 3 * post_sd
    assert np.median(np.abs(recs - post_mean)) <= 3 * post_sd
    # unobserved coordinate stays prior-like (roughly standard normal)
    assert abs(recs.mean() - 3.0) <= 3 * post_sd + abs(post_mean - 3.0)


def test_paired_trend_ncs_dps_beats_dps_small():
    # 40-seed paired comparison at T=20 (the full 200-seed version with the
    # sign test is in the acceptance suite)
    d = 16
    prior = build_registered_prior(4, d)
    sch = Schedule(20, 1e-4, 0.02)
    op = Mask(d, list(range(8)))
    errs = {"DPS": [], "NCS-DPS": []}
    for seed in range(40):
        x0 = prior.sample(1, derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))[0]
        obs = make_observation(
            x0, op, 0.05, derive_stream(StreamKey(seed, Domain.OBSERVATION_NOISE, 0, 0))
        )
        for solver in errs:
            r = solve(prior, sch, obs, SolverConfig(solver=solver, K=64, seed=seed))
            errs[solver].append(float(np.mean((r.x0 - x0) ** 2)))
    assert np.median(errs["NCS-DPS"]) <= np.median(errs["DPS"])


def _full_covariance_prior(d=4):
    gen = np.random.default_rng(5)
    covs = np.empty((2, d, d))
    for j in range(2):
        A = gen.normal(size=(d, d)) / np.sqrt(d)
        covs[j] = A @ A.T + 0.5 * np.eye(d)
    return GaussianMixturePrior(
        weights=np.array([0.6, 0.4]), means=gen.normal(size=(2, d)), covariances=covs
    )


@pytest.mark.parametrize("prior_kind", ["diagonal", "full"])
def test_solves_score_each_step_once(monkeypatch, prior_kind):
    import noisecomb.diffusion

    prior = build_registered_prior(4, 8) if prior_kind == "diagonal" else _full_covariance_prior()
    op = Mask(prior.d, list(range(prior.d // 2)))
    calls = []
    real = noisecomb.diffusion.logsumexp
    monkeypatch.setattr(noisecomb.diffusion, "logsumexp", lambda *a, **k: calls.append(1) or real(*a, **k))
    for seed in (0, 1):
        x0 = prior.sample(1, derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))[0]
        obs = make_observation(x0, op, 0.05, derive_stream(StreamKey(seed, Domain.OBSERVATION_NOISE, 0, 0)))
        for T in (5, 12):
            for solver in ("DPS", "NCS-DPS"):
                calls.clear()
                solve(prior, Schedule(T, 1e-4, 0.02), obs, SolverConfig(solver=solver, K=16, seed=seed))
                assert len(calls) == T, (solver, T, seed)


@pytest.mark.parametrize(
    "prior_kind,counted,expected", [("diagonal", "marginal_params", 12), ("full", "cho_factor", 36)]
)
def test_solve_rows_derive_the_marginal_once_per_step(monkeypatch, prior_kind, counted, expected):
    # the rows of one step share its Step's marginal: one marginal_params call
    # per step, and one cho_factor per step and component of a full prior;
    # DPS and NCS-DPS rows that derived it again made 35 and 105 calls
    import noisecomb.diffusion

    if prior_kind == "diagonal":
        prior = build_registered_prior(4, 8)
    else:
        gen = np.random.default_rng(7)
        A = gen.normal(size=(3, 4, 4)) / 2.0
        prior = GaussianMixturePrior(
            weights=np.array([0.5, 0.3, 0.2]),
            means=gen.normal(size=(3, 4)),
            covariances=A @ A.transpose(0, 2, 1) + 0.5 * np.eye(4),
        )
    obs = Observation(y=np.ones(2), operator=Mask(prior.d, [0, 1]))
    configs = [SolverConfig(solver=s, K=16, seed=3) for s in ("DPS", "NCS-DPS", "MPGD", "NCS-MPGD")]
    calls = []
    real = getattr(noisecomb.diffusion, counted)
    monkeypatch.setattr(noisecomb.diffusion, counted, lambda *a, **k: calls.append(1) or real(*a, **k))
    sch = Schedule(12, 1e-4, 0.02)
    solve_rows(prior, [(sch, obs, config) for config in configs])
    assert len(calls) == expected


@pytest.mark.parametrize("prior_kind", ["diagonal", "full"])
def test_loop_jacobian_product_matches_tweedie_jacobian_apply(prior_kind):
    # at every Step the loop hands its hooks, the products built from the Step's
    # mixture statistics match the dense Jacobian at the Step's state
    prior = build_registered_prior(4, 8) if prior_kind == "diagonal" else _full_covariance_prior()
    sch = Schedule(15, 1e-4, 0.02)
    obs = Observation(y=np.ones(2), operator=Mask(prior.d, [0, 1]))
    v = np.random.default_rng(9).normal(size=prior.d)
    steps = []

    def noise(step):
        steps.append(step)
        return fresh_noise(step)

    reverse_loop(prior, [(sch, 3, noise, None)])
    assert [step.t for step in steps] == list(range(15, 1, -1))
    for step in steps:
        J = tweedie_jacobian(prior, sch, step.x, step.t)
        assert np.allclose(tweedie_jacobian_apply(step, v), J @ v, atol=1e-12)
        pulled = mpgd_direction(obs, step.x0_hat)
        expected = J @ pulled / sch.sigma_at(step.t) ** 2
        assert np.allclose(dps_direction(obs, step), expected, atol=1e-12)
