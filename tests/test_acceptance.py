"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import functools
import time

import numpy as np
from scipy.stats import binomtest

from noisecomb.codec import build_registered_prior, compress, decompress
from noisecomb.combination import inner_products, optimal_weights, top_m_weights
from noisecomb.combination import DegenerateDirectionError
from noisecomb.diffusion import (
    GaussianMixturePrior,
    Schedule,
    marginal_log_density,
    marginal_params,
    score,
    tweedie_estimate,
    tweedie_jacobian,
)
from noisecomb.operators import Downsample, Mask, Observation, ddcm_direction, make_observation, mpgd_direction
from noisecomb.quantizer import (
    Grid,
    bpp,
    decode_weights,
    fractions_from_scores,
    payload_bits,
    quantize_dp,
    quantize_greedy_exponential,
    quantize_nn,
    quantize_stagewise,
    stick_forward,
    stick_inverse,
    stick_objective,
)
from noisecomb.rng import Domain, StreamKey, derive_stream
from noisecomb.solvers import SolverConfig, solve


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}" + (f" ({detail})" if detail else ""))

        return run

    return wrap


@criterion(1, "unit-norm combination attains the Cauchy-Schwarz bound")
def test_criterion_01_cauchy_schwarz():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    banks = {}
    for K in (4, 16, 64):
        bank = rng.normal(size=(10**5, K))
        banks[K] = bank / np.linalg.norm(bank, axis=1, keepdims=True)
    worst_gap = 0.0
    for i in range(1000):
        d = (8, 32, 128)[i % 3]
        K = (4, 16, 64)[(i // 3) % 3]
        c = rng.normal(size=d)
        E = rng.normal(size=(d, K))
        gamma = optimal_weights(c, E)
        achieved = float(c @ (E @ gamma))
        b = inner_products(c, E)
        bound = float(np.linalg.norm(b))
        assert abs(achieved - bound) <= 1e-10 * max(bound, 1.0)
        sampled_best = float(np.max(banks[K] @ b))
        assert sampled_best <= achieved + 1e-9
        worst_gap = max(worst_gap, sampled_best - achieved)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    return f"1000 instances, max sampled excess {worst_gap:.2e}, {elapsed:.1f}s"


@criterion(2, "synthesized noise with fixed independent weights is standard normal")
def test_criterion_02_gaussianity():
    start = time.perf_counter()
    d, K, n = 8, 4, 10**5
    gamma = np.array([1.0, 2.0, 2.0, 1.0])
    gamma /= np.linalg.norm(gamma)
    stream = derive_stream(StreamKey(2024, Domain.FRESH_NOISE, 0, 0))
    atoms = stream.standard_normal(n * d * K).reshape(n, d, K)
    eps = atoms @ gamma
    mean = eps.mean(axis=0)
    var = eps.var(axis=0)
    cov = np.cov(eps.T)
    off = np.abs(cov[~np.eye(d, dtype=bool)])
    assert np.all(np.abs(mean) <= 0.012)
    assert np.all((var >= 0.985) & (var <= 1.015))
    assert np.all(off <= 0.015)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    return (
        f"max|mean|={np.abs(mean).max():.4f}, var in [{var.min():.4f},{var.max():.4f}], "
        f"max|offdiag|={off.max():.4f}, {elapsed:.1f}s"
    )


@criterion(3, "adjoint-residual and codebook-matching directions give identical weights")
def test_criterion_03_direction_equivalence():
    rng = np.random.default_rng(303)
    d, K = 16, 8
    for i in range(10**4):
        if i % 2 == 0:
            op = Mask(d, sorted(rng.choice(d, size=int(rng.integers(1, d)), replace=False).tolist()))
        else:
            op = Downsample(d, int(rng.choice([1, 2, 4, 8])))
        obs = Observation(y=rng.normal(size=op.n), operator=op)
        x_tilde = rng.normal(size=d)
        E = rng.normal(size=(d, K))
        gamma_a = optimal_weights(mpgd_direction(obs, x_tilde), E)
        gamma_b = optimal_weights(ddcm_direction(obs, x_tilde), E)
        assert np.array_equal(gamma_a, gamma_b)
    return "10^4 instances bitwise equal"


@criterion(4, "top-1 restriction reduces to argmax atom selection")
def test_criterion_04_ddcm_reduction():
    rng = np.random.default_rng(404)
    d, K = 24, 16
    degenerate = 0
    for _ in range(10**4):
        c = rng.normal(size=d)
        E = rng.normal(size=(d, K))
        b = E.T @ c
        try:
            sel = top_m_weights(c, E, 1)
        except DegenerateDirectionError:
            assert np.all(b <= 0)
            degenerate += 1
            continue
        assert sel.indices[0] == int(np.argmax(b))
        assert sel.weights[0] == 1.0
    assert degenerate <= 5
    return f"10^4 instances, {degenerate} degenerate (all-nonpositive) skipped"


@criterion(5, "stick-breaking reconstructions are unit norm and invertible")
def test_criterion_05_stick_breaking():
    rng = np.random.default_rng(505)
    worst_norm = 0.0
    worst_rt = 0.0
    for _ in range(10**5):
        m = int(rng.integers(2, 7))
        u = rng.random(m - 1)
        gamma = stick_forward(u)
        worst_norm = max(worst_norm, abs(float(np.sum(gamma * gamma)) - 1.0))
        back = stick_forward(stick_inverse(gamma))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - gamma))))
    assert worst_norm <= 1e-12
    assert worst_rt <= 1e-12
    grid = Grid(2)
    assert np.array_equal(grid.values, np.array([1, 2, 3]) / 3.0)
    return f"max |norm-1|={worst_norm:.2e}, max round-trip={worst_rt:.2e}, C=2 grid exact"


@criterion(6, "dynamic program is exhaustive-exact and dominates the O(m) quantizers")
def test_criterion_06_dp_exactness():
    rng = np.random.default_rng(606)
    for _ in range(10**3):
        m = int(rng.integers(2, 5))
        C = int(rng.integers(1, 4))
        b = np.sort(np.abs(rng.normal(size=m)))[::-1]
        grid = Grid(C)
        code_dp, val_dp = quantize_dp(b, grid)
        code_ex, _ = quantize_greedy_exponential(b, grid)
        # exact equality of the achieved objective under one shared evaluator
        # (the DP recursion accumulates in a different op order, so its raw
        # value may differ from the decoded objective in the last ulp)
        assert stick_objective(b, code_dp, grid) == stick_objective(b, code_ex, grid)
        assert abs(stick_objective(b, code_dp, grid) - val_dp) <= 1e-12
    for _ in range(10**4):
        m = int(rng.integers(2, 10))
        C = int(rng.integers(1, 7))
        b = np.sort(np.abs(rng.normal(size=m)))[::-1]
        if rng.random() < 0.15:
            b[-1] = 0.0
        grid = Grid(C)
        _, val_dp = quantize_dp(b, grid)
        val_sw = stick_objective(b, quantize_stagewise(b, grid), grid)
        val_nn = stick_objective(b, quantize_nn(fractions_from_scores(b), grid), grid)
        assert val_dp >= val_sw - 1e-12
        assert val_sw >= val_nn - 1e-12
    return "10^3 exhaustive matches exact, 10^4 dominance instances"


@criterion(7, "quantizer costs: near-linear dynamic program, exponential exhaustive search")
def test_criterion_07_complexity():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    grid4 = Grid(4)
    m_values = [2, 4, 8, 16, 32]
    batches = {
        m: [np.sort(np.abs(rng.normal(size=m)))[::-1] for _ in range(60)] for m in m_values
    }
    for m in m_values:  # warm caches and allocator before timing
        for b in batches[m][:10]:
            quantize_dp(b, grid4)

    def cpu_ns(work):
        # best of three CPU-time repeats: another process sharing the cores
        # does not count, and a preempted repeat is dropped
        times = []
        for _ in range(3):
            t0 = time.process_time_ns()
            work()
            times.append(time.process_time_ns() - t0)
        return min(times)

    times = [cpu_ns(lambda: [quantize_dp(b, grid4) for b in batches[m]]) for m in m_values]
    slope, _ = np.polyfit(np.log(m_values), np.log(times), 1)
    assert slope <= 1.3

    grid3 = Grid(3)
    greedy_times = []
    greedy_ms = [3, 4, 5, 6]
    for m in greedy_ms:
        b = np.sort(np.abs(rng.normal(size=m)))[::-1]
        greedy_times.append(cpu_ns(lambda: quantize_greedy_exponential(b, grid3, budget=10**6)))
    ratios = [greedy_times[i + 1] / greedy_times[i] for i in range(len(greedy_ms) - 1)]
    assert all(r > 5.0 for r in ratios)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    return f"dp fit exponent {slope:.2f}, exhaustive growth ratios {[f'{r:.1f}' for r in ratios]}, {elapsed:.1f}s"


@criterion(8, "payload length obeys the bit-budget law; published parameter sets check out")
def test_criterion_08_bpp_law():
    prior = build_registered_prior(2, 16)
    x0 = prior.sample(1, derive_stream(StreamKey(8, Domain.PRIOR_SAMPLE, 0, 0)))[0]
    matrix = [
        (T, K, m, C)
        for T in (1, 5, 12)
        for (K, m, C) in ((16, 1, 0), (16, 2, 3), (8, 3, 1), (64, 6, 2), (4, 2, 5), (32, 5, 0), (2, 1, 2))
    ][:20]
    assert len(matrix) == 20
    for T, K, m, C in matrix:
        sch = Schedule(T, 1e-4, 0.02)
        res = compress(x0, prior, sch, seed=8, K=K, m=m, C=C, n_side=4, prior_id=2)
        expected_bits = (T - 1) * (m * (K.bit_length() - 1) + C * (m - 1))
        assert res.stream.header.payload_bits == expected_bits
        assert res.stream.header.payload_bits == payload_bits(T, K, m, C)
    # figure parameter sets, evaluated from the formula (exact rationals)
    val_a = bpp(1000, 32768, 12, 8, 512)
    val_b = bpp(100, 32768, 2, 0, 512)
    assert val_a == 267732 / 262144  # = 1.0213165283203125
    assert abs(val_b - 0.011330) <= 1e-5
    assert val_b == 2970 / 262144
    return f"20-point matrix exact; configs evaluate to {val_a:.6f} and {val_b:.6f} bpp"


@criterion(9, "compression round trip is bit-exact, degenerate fallbacks included")
def test_criterion_09_codec_round_trip():
    cells = [
        (10, 16, 1, 0),
        (10, 16, 1, 4),
        (10, 16, 2, 0),
        (10, 16, 4, 3),
        (7, 8, 3, 1),
        (5, 64, 8, 2),
        (12, 4, 2, 5),
        (3, 1, 1, 0),
        (1, 16, 2, 3),
    ]
    prior = build_registered_prior(2, 24)
    x0 = prior.sample(1, derive_stream(StreamKey(9, Domain.PRIOR_SAMPLE, 0, 0)))[0]
    for T, K, m, C in cells:
        sch = Schedule(T, 1e-4, 0.02)
        res = compress(x0, prior, sch, seed=9, K=K, m=m, C=C, n_side=5, prior_id=2)
        assert np.array_equal(decompress(res.stream), res.reconstruction)
    # tiny codebook forces the deterministic fallback path on some steps
    p1 = build_registered_prior(1, 8)
    z0 = p1.sample(1, derive_stream(StreamKey(19, Domain.PRIOR_SAMPLE, 0, 0)))[0]
    sch = Schedule(40, 1e-4, 0.02)
    res = compress(z0, p1, sch, seed=19, K=2, m=2, C=2, n_side=3, prior_id=1)
    assert res.degenerate_steps >= 1
    assert np.array_equal(decompress(res.stream), res.reconstruction)
    return f"9-cell matrix + fallback cell ({res.degenerate_steps} degenerate steps) bit-exact"


@criterion(10, "analytic diffusion engine agrees with its oracles")
def test_criterion_10_diffusion():
    rng = np.random.default_rng(1010)
    prior = GaussianMixturePrior(
        weights=np.array([0.4, 0.35, 0.25]),
        means=np.array([[1.0, 0.0, -1.0, 2.0], [-1.5, 0.5, 0.0, -0.5], [0.0, -2.0, 1.0, 0.0]]),
        variances=np.array([[0.5, 1.0, 0.3, 0.8], [1.2, 0.4, 0.9, 0.6], [0.7, 0.7, 1.1, 0.2]]),
    )
    sch = Schedule(100, 1e-4, 0.02)
    # score vs central finite differences
    for _ in range(100):
        t = int(rng.integers(1, 101))
        x = rng.normal(size=4) * 2
        exact = score(prior, sch, x, t)
        fd = np.zeros(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-5
            fd[j] = (
                marginal_log_density(prior, sch, x + e, t)
                - marginal_log_density(prior, sch, x - e, t)
            ) / 2e-5
        assert np.linalg.norm(fd - exact) <= 1e-5 * max(np.linalg.norm(exact), 1e-3)
    # Tweedie vs conjugate-Gaussian posterior mean
    sigma0 = np.array([[0.9, 0.2, 0.0], [0.2, 0.7, -0.1], [0.0, -0.1, 1.3]])
    mu0 = np.array([0.5, -0.5, 1.0])
    single = GaussianMixturePrior.single(mu0, sigma0)
    for t in (1, 13, 47, 100):
        x = rng.normal(size=3) * 2
        ab = sch.alpha_bar_at(t)
        C = ab * sigma0 + (1 - ab) * np.eye(3)
        expected = mu0 + np.sqrt(ab) * sigma0 @ np.linalg.solve(C, x - np.sqrt(ab) * mu0)
        assert np.linalg.norm(tweedie_estimate(single, sch, x, t) - expected) <= 1e-8
    # Jacobian vs finite differences
    for _ in range(10):
        t = int(rng.integers(1, 101))
        x = rng.normal(size=4) * 1.5
        J = tweedie_jacobian(prior, sch, x, t)
        fd = np.zeros((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-5
            fd[:, j] = (
                tweedie_estimate(prior, sch, x + e, t) - tweedie_estimate(prior, sch, x - e, t)
            ) / 2e-5
        assert np.linalg.norm(fd - J) <= 1e-4 * max(np.linalg.norm(J), 1e-3)
    # variance preservation for the unit-Gaussian prior
    unit = GaussianMixturePrior.single(np.zeros(3), np.ones(3))
    for t in range(1, 101):
        _, _, variances = marginal_params(unit, sch, t)
        assert np.all(np.abs(variances - 1.0) <= 1e-15)
    return "score 1e-5, tweedie 1e-8, jacobian 1e-4, variance preservation exact"


@criterion(11, "noise-combination guidance beats gradient guidance at few steps")
def test_criterion_11_solver_trend():
    start = time.perf_counter()
    d, T, n_seeds = 16, 20, 200
    prior = build_registered_prior(4, d)
    sch = Schedule(T, 1e-4, 0.02)
    op = Mask(d, list(range(d // 2)))
    errs = {"DPS": [], "NCS-DPS": []}
    wins = 0
    for seed in range(n_seeds):
        x0 = prior.sample(1, derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))[0]
        obs = make_observation(
            x0, op, 0.05, derive_stream(StreamKey(seed, Domain.OBSERVATION_NOISE, 0, 0))
        )
        pair = {}
        for solver in errs:
            res = solve(prior, sch, obs, SolverConfig(solver=solver, K=64, seed=seed))
            pair[solver] = float(np.mean((res.x0 - x0) ** 2))
            errs[solver].append(pair[solver])
        wins += pair["NCS-DPS"] < pair["DPS"]
    med_base = float(np.median(errs["DPS"]))
    med_ncs = float(np.median(errs["NCS-DPS"]))
    p_value = binomtest(wins, n_seeds, alternative="greater").pvalue
    assert med_ncs <= med_base
    assert p_value < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    return (
        f"median mse {med_ncs:.4f} vs {med_base:.4f}, {wins}/{n_seeds} paired wins, "
        f"sign-test p={p_value:.1e}, {elapsed:.0f}s"
    )


@criterion(12, "fewer steps with richer combinations: >=8x faster within 2x error")
def test_criterion_12_compression_speed():
    d, K = 4096, 128
    prior = build_registered_prior(2, d)
    x0 = prior.sample(1, derive_stream(StreamKey(0, Domain.PRIOR_SAMPLE, 0, 0)))[0]

    def run(T, m, C):
        # CPU time of this process: another process sharing the cores does not count
        sch = Schedule(T, 1e-4, 0.02)
        t0 = time.process_time()
        res = compress(x0, prior, sch, seed=0, K=K, m=m, C=C, n_side=64, prior_id=2)
        return time.process_time() - t0, float(np.mean((res.reconstruction - x0) ** 2))

    run(10, 12, 8)  # warmup: page in code paths before timing
    # interleaved min-of-two: the host's throughput drifts across minutes, so
    # pair up the runs and keep each configuration's best pass
    slow_times, fast_times = [], []
    for _ in range(2):
        cpu, slow_mse = run(1000, 1, 0)
        slow_times.append(cpu)
        cpu, fast_mse = run(100, 12, 8)
        fast_times.append(cpu)
    slow_cpu, fast_cpu = min(slow_times), min(fast_times)
    assert slow_cpu / fast_cpu >= 8.0
    assert fast_mse <= 2.0 * slow_mse
    return (
        f"T=1000 {slow_cpu:.1f}s cpu mse {slow_mse:.4f}; T=100 {fast_cpu:.1f}s cpu mse {fast_mse:.4f}; "
        f"speed x{slow_cpu / fast_cpu:.1f}, mse x{fast_mse / slow_mse:.2f}"
    )
