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
    CircularBlur,
    Downsample,
    Identity,
    LinearOperator,
    Mask,
    Observation,
    adjoint_residual,
    make_observation,
    mpgd_direction,
)
from noisecomb.rng import Domain, StreamKey, build_codebook, derive_stream
from noisecomb.solvers import (
    BASELINE_SOLVERS,
    NCS_SOLVERS,
    SolverConfig,
    baseline_solve,
    dps_direction,
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
        return np.zeros(x.shape[:-1] + (1,))

    def adjoint(self, y):
        return np.zeros(y.shape[:-1] + (self.d,))


def _toy_problem(seed=0, d=8, T=25, sigma=0.05, keep=None):
    prior = build_registered_prior(4, d)
    sch = Schedule(T, 1e-4, 0.02)
    x0 = prior.sample(derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))
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


@pytest.mark.parametrize("solver", ["DPS", "MPGD", "DDCM", "NCS-DPS", "NCS-MPGD"])
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
        return np.full(y.shape[:-1] + (self.d,), 1e-170)


class SingleVectorOperator(ZeroOperator):
    """Written for single vectors: its adjoint drops the batch axis."""

    kind = "single_vector"

    def adjoint(self, y):
        return np.zeros(self.d)


def test_adjoint_off_the_last_axis_is_refused():
    # a (d,) adjoint for a (1, n) residual breaks the last-axis contract of
    # LinearOperator: it is refused, not reshaped to the estimate's shape
    d = 6
    op = SingleVectorOperator(d)
    with pytest.raises(ValueError, match="must act on the last axis"):
        adjoint_residual(Observation(y=np.zeros((1, 1)), operator=op), np.zeros((1, d)))
    prior = build_registered_prior(2, d)
    obs = Observation(y=np.zeros(1), operator=op)
    for solver in ("DPS", "MPGD", "NCS-DPS", "NCS-MPGD", "DDCM"):
        with pytest.raises(ValueError, match="must act on the last axis"):
            solve(prior, Schedule(5, 1e-4, 0.02), obs, SolverConfig(solver=solver, K=4, seed=0))


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
    for solver in ("NCS-DPS", "NCS-MPGD", "DDCM"):
        res = solve(prior, sch, obs, SolverConfig(solver=solver, K=8, seed=21))
        assert res.degenerate_steps == 14  # every noisy step degenerated
        assert np.array_equal(res.x0, uncond)


@pytest.mark.parametrize("solver", ["DDCM", "NCS-DPS", "NCS-MPGD"])
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
    observation: every solver at m in {None, 1, 3}, seed-major, then by T.
    Each seed's mask is its own operator object; the other operators are one
    object that both seeds' observations share."""
    jobs = []
    shared = {"downsample": Downsample(8, 2), "circular_blur": CircularBlur(8, [0.5, 0.3, 0.2])}
    for seed in (5, 6):
        prior, _, x0, obs = _toy_problem(seed=seed)
        if operator == "zero":
            obs = Observation(y=np.zeros(1), operator=ZeroOperator(prior.d))
        elif operator in shared:
            noise = derive_stream(StreamKey(seed, Domain.OBSERVATION_NOISE, 0, 0))
            obs = make_observation(x0, shared[operator], 0.05, noise)
        for sch in _LOCKSTEP_SCHEDULES:
            for solver in BASELINE_SOLVERS + NCS_SOLVERS:
                for m in (None, 1, 3):
                    jobs.append((sch, obs, SolverConfig(solver=solver, K=8, m=m, seed=seed)))
    return prior, jobs


@pytest.mark.parametrize("operator", ["mask", "zero", "downsample", "circular_blur"])
def test_lockstep_rows_match_one_row_solves(operator):
    # each row of one lockstep call is its one-job solve, byte for byte
    prior, jobs = _lockstep_jobs(operator)
    rows = solve_rows(prior, jobs)
    assert len(rows) == len(jobs)
    for (sch, obs, config), row in zip(jobs, rows):
        alone = solve(prior, sch, obs, config)
        assert row.x0.tobytes() == alone.x0.tobytes(), (sch.T, config)
        assert row.degenerate_steps == alone.degenerate_steps, (sch.T, config)
    # per seed, the mask gives 8 distinct trajectories at T = 12 (NCS-MPGD at
    # m = 1 and DDCM coincide) and 7 at T = 7 (where
    # NCS-DPS at m = 1 also picks DDCM's atom at every step); the zero
    # operator leaves every solver at plain DDPM, one trajectory per seed and T.
    # The downsample counts as the mask; under the blur, seed 5's NCS-DPS at
    # m = 1 and T = 7 leaves DDCM's atom once, which makes 31
    degenerate = {row.degenerate_steps for row in rows}
    assert degenerate == ({0, 6, 11} if operator == "zero" else {0})
    distinct = {"mask": 30, "zero": 4, "downsample": 30, "circular_blur": 31}[operator]
    assert len({row.x0.tobytes() for row in rows}) == distinct


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


def test_fresh_noise_runs_once_per_noisy_step_on_both_schedules(monkeypatch):
    # solve_rows calls fresh_noise once per noisy step, on every live Step
    # whole, and its rows stay in job order; the mask leaves no guided row
    # degenerate, so only the DPS and MPGD rows take its draws
    import noisecomb.solvers

    calls = []
    real = noisecomb.solvers.fresh_noise
    monkeypatch.setattr(
        noisecomb.solvers, "fresh_noise", lambda steps: calls.append(steps) or real(steps)
    )
    prior, jobs = _lockstep_jobs("mask")
    solve_rows(prior, jobs)
    assert [steps[0].t for steps in calls] == list(range(12, 1, -1))
    for steps in calls:
        assert [s.schedule.T for s in steps] == ([7, 12] if steps[0].t <= 7 else [12])
        for s in steps:
            rows = tuple(j for j, (sch, _, _) in enumerate(jobs) if sch == s.schedule)
            assert s.rows == rows
            # per schedule: every solver at three m, for seed 5 and then seed 6
            assert s.seeds == (5,) * 15 + (6,) * 15 == tuple(jobs[j][2].seed for j in rows)


def test_ncs_dps_directions_are_dps_directions_row_by_row(monkeypatch):
    # in a call that mixes every solver, each NCS-DPS row's direction is
    # dps_direction of its own observation at its own state; the rows share
    # one seed and differ in their combination rule, so each _combine call
    # takes one row, named by its rule
    import noisecomb.diffusion
    import noisecomb.solvers

    prior = build_registered_prior(4, 8)
    sch = Schedule(9, 1e-4, 0.02)
    own = {}  # rule -> (row, observation) of the NCS-DPS rows
    jobs = []
    for solver, m, keep in (("DPS", None, [0, 1]), ("NCS-DPS", None, [0, 2, 4]), ("MPGD", None, [1]),
                            ("NCS-MPGD", 2, [3, 5]), ("NCS-DPS", 3, [6, 7]), ("DDCM", None, [0])):
        x0 = prior.sample(derive_stream(StreamKey(len(jobs), Domain.PRIOR_SAMPLE, 0, 0)))
        obs = make_observation(x0, Mask(prior.d, keep), 0.05,
                               derive_stream(StreamKey(len(jobs), Domain.OBSERVATION_NOISE, 0, 0)))
        if solver == "NCS-DPS":
            own[m] = (len(jobs), obs)
        jobs.append((sch, obs, SolverConfig(solver=solver, K=8, m=m, seed=4)))
    events = []  # the Steps of the noise hook's Jacobian products, and the _combine calls that follow
    real_apply, real_combine = noisecomb.solvers.tweedie_jacobian_apply, noisecomb.solvers._combine
    monkeypatch.setattr(noisecomb.solvers, "tweedie_jacobian_apply",
                        lambda step, v: events.append(("step", step)) or real_apply(step, v))
    monkeypatch.setattr(noisecomb.solvers, "_combine",
                        lambda rule, E, c: events.append(("combine", rule, c.copy())) or real_combine(rule, E, c))
    solve_rows(prior, jobs)
    checked = 0
    for event in events:
        if event[0] == "step":
            step = event[1]
        elif event[1] in own:
            row, obs = own[event[1]]
            alone = noisecomb.diffusion.step_at(prior, sch, step.x[step.rows.index(row)], step.t)
            expected = dps_direction(obs, alone)
            assert event[2].shape == (1, prior.d)
            np.testing.assert_allclose(event[2][0], expected, rtol=1e-12, atol=1e-12 * np.linalg.norm(expected))
            checked += 1
    assert checked == 2 * (sch.T - 1)


def test_fresh_noise_runs_only_where_a_row_draws_it(monkeypatch):
    # with only guided rows, fresh_noise runs just for a degenerate row: never
    # when none degenerates, and once per noisy step, on every Step whole, for
    # a row whose every direction is zero
    import noisecomb.solvers

    calls = []
    real = noisecomb.solvers.fresh_noise
    monkeypatch.setattr(noisecomb.solvers, "fresh_noise", lambda steps: calls.append(steps) or real(steps))
    prior, sch, _, obs = _toy_problem(seed=2)
    jobs = [(sch, obs, SolverConfig(solver=solver, K=8, seed=2)) for solver in ("NCS-DPS", "NCS-MPGD", "DDCM")]
    rows = solve_rows(prior, jobs)
    assert calls == [] and [row.degenerate_steps for row in rows] == [0, 0, 0]
    zero = Observation(y=np.zeros(1), operator=ZeroOperator(prior.d))
    rows = solve_rows(prior, jobs + [(sch, zero, SolverConfig(solver="NCS-DPS", K=8, seed=3))])
    assert [row.degenerate_steps for row in rows] == [0, 0, 0, sch.T - 1]
    assert [steps[0].t for steps in calls] == list(range(sch.T, 1, -1))
    assert all(len(steps) == 1 and steps[0].rows == (0, 1, 2, 3) for steps in calls)


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


def test_ncs_mpgd_m1_equals_ddcm_baseline():
    prior, sch, _, obs = _toy_problem(seed=17)
    ncs = ncs_solve(prior, sch, obs, SolverConfig(solver="NCS-MPGD", K=16, m=1, seed=17))
    base = baseline_solve(prior, sch, obs, SolverConfig(solver="DDCM", K=16, seed=17))
    assert np.array_equal(ncs.x0, base.x0)


def test_restricted_support_interpolates():
    # m = K with all-positive scores equals the full combination
    d = 8
    prior = build_registered_prior(1, d)
    sch = Schedule(20, 1e-4, 0.02)
    x0 = prior.sample(derive_stream(StreamKey(8, Domain.PRIOR_SAMPLE, 0, 0)))
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
        x0 = prior.sample(derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))
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
        x0 = prior.sample(derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))
        obs = make_observation(x0, op, 0.05, derive_stream(StreamKey(seed, Domain.OBSERVATION_NOISE, 0, 0)))
        for T in (5, 12):
            for solver in ("DPS", "NCS-DPS"):
                calls.clear()
                solve(prior, Schedule(T, 1e-4, 0.02), obs, SolverConfig(solver=solver, K=16, seed=seed))
                assert len(calls) == T, (solver, T, seed)


def test_dps_step_forms_one_residual(monkeypatch):
    # DPS's shift takes A^T r and ||r|| from one residual: one Mask.apply per
    # step, t = 1 included; NCS-DPS forms one per noised step
    prior = build_registered_prior(4, 8)
    obs = Observation(y=np.ones(4), operator=Mask(prior.d, [0, 1, 2, 3]))
    calls = []
    real = Mask.apply
    monkeypatch.setattr(Mask, "apply", lambda self, x: calls.append(1) or real(self, x))
    for solver, expected in (("DPS", 5), ("NCS-DPS", 4)):
        calls.clear()
        solve(prior, Schedule(5, 1e-4, 0.02), obs, SolverConfig(solver=solver, K=8, seed=0))
        assert len(calls) == expected, solver


class UnreadOperator(ZeroOperator):
    """Refuses to be applied: the observation of a row that must not read it."""

    def apply(self, x):
        raise AssertionError("a zero-guidance row read its observation")


def test_mixed_step_forms_one_residual_per_step(monkeypatch):
    # the four solvers of the shipped grid on one operator: per step one
    # residual, for the guided rows at t >= 2 and the DPS and MPGD rows at
    # every t; DPS and MPGD rows with zero guidance read nothing and stay plain
    # DDPM, and guided rows never read at t = 1, so a T = 1 guided row is too
    prior = build_registered_prior(4, 8)
    sch, single = Schedule(5, 1e-4, 0.02), Schedule(1, 1e-4, 0.02)
    obs = Observation(y=np.ones(4), operator=Mask(prior.d, [0, 1, 2, 3]))
    unread = Observation(y=np.zeros(1), operator=UnreadOperator(prior.d))
    calls = []
    real = Mask.apply
    monkeypatch.setattr(Mask, "apply", lambda self, x: calls.append(len(x)) or real(self, x))
    jobs = [(sch, obs, SolverConfig(solver=s, K=8, seed=0)) for s in ("DPS", "NCS-DPS", "MPGD", "NCS-MPGD")]
    jobs += [(sch, unread, SolverConfig(solver="DPS", seed=1, zeta=0.0)),
             (sch, unread, SolverConfig(solver="MPGD", seed=1, lam=0.0))]
    jobs += [(single, unread, SolverConfig(solver=s, K=8, seed=2)) for s in ("NCS-DPS", "NCS-MPGD", "DDCM")]
    rows = solve_rows(prior, jobs)
    assert calls == [4, 4, 4, 4, 2]
    uncond = unconditional_sample(prior, sch, 1).tobytes()
    assert rows[4].x0.tobytes() == rows[5].x0.tobytes() == uncond
    uncond = unconditional_sample(prior, single, 2).tobytes()
    assert rows[6].x0.tobytes() == rows[7].x0.tobytes() == rows[8].x0.tobytes() == uncond


@pytest.mark.parametrize(
    "prior_kind,owner,counted,expected",
    [("diagonal", "noisecomb.diffusion", "marginal_params", 12), ("full", "numpy.linalg", "inv", 12)],
    ids=["diagonal-marginal_params-12", "full-inv-12"],
)
def test_solve_rows_derive_the_marginal_once_per_step(monkeypatch, prior_kind, owner, counted, expected):
    # the rows of one step share its Step's marginal: one marginal_params call
    # per step, and for a full prior one inversion of all its covariances per step;
    # DPS and NCS-DPS rows that derived it again made 35 calls
    import importlib

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
    module = importlib.import_module(owner)
    real = getattr(module, counted)
    monkeypatch.setattr(module, counted, lambda *a, **k: calls.append(1) or real(*a, **k))
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

    def noise(batch):
        steps.extend(batch)
        return fresh_noise(batch)

    reverse_loop(prior, [(sch, 3)], noise)
    assert [step.t for step in steps] == list(range(15, 1, -1))
    for step in steps:
        assert step.x.shape == (1, prior.d)
        J = tweedie_jacobian(prior, sch, step.x[0], step.t)
        assert np.allclose(tweedie_jacobian_apply(step, v[None]), J @ v, atol=1e-12)
        pulled = mpgd_direction(obs, step.x0_hat[0])
        expected = J @ pulled / sch.sigma_at(step.t) ** 2
        assert np.allclose(dps_direction(obs, step), expected, atol=1e-12)
