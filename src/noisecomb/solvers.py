"""Guided reverse-diffusion solvers.

Two families share one stream layout so runs with equal seeds are paired:

* baselines (``DPS``, ``MPGD``, ``DDCM``) steer the trajectory through the
  mean term (gradient steps) or swap in a single selected codebook atom;
* combination variants (``NCS-DPS``, ``NCS-MPGD``, ``NCS-DDCM``) leave the
  DDPM mean untouched and put all guidance into the noise term, replacing
  the fresh Gaussian draw with the optimal unit-norm combination of codebook
  atoms aligned with the solver's measurement direction. This restriction is
  structural: the combination path has no code that modifies the mean.

Every solver is one row of :func:`~noisecomb.diffusion.reverse_loop`, built
per config by ``_row``: a noise policy, plus a mean hook for DPS and MPGD. DPS
and MPGD draw fresh keyed noise; DDCM and NCS-* share one guided noise rule
that takes the measurement direction and the step codebook, and differ only
in the weights (DDCM the argmax atom over all K, NCS-* the optimal or top-m
combination). Each row reads what it needs from the loop's
:class:`~noisecomb.diffusion.Step`: the Tweedie estimate for the measurement
direction and, for DPS and NCS-DPS, the statistics and marginal that
``tweedie_jacobian_apply`` takes. No solver scores a state itself.
:func:`solve_rows` runs several ``(schedule, obs, config)`` jobs as the rows
of one lockstep loop: the jobs on equal schedules share one scoring and one
DDPM update per step, and every schedule's rows step together, aligned by t.
Each row is bit-identical to its own :func:`solve`, which is the one-job case
(as are :func:`ncs_solve` and :func:`baseline_solve`).

A degenerate direction (zero, or with no usable codebook projection) makes
its step draw the keyed fresh noise of a plain DDPM step, ``fresh_noise(seed,
t, d)``. A zero direction (``||c|| == 0``) is degenerate for every codebook,
so its step builds none.

A codebook depends only on ``(seed, t, K, d)``, not on the solver or on T.
Within one :func:`solve_rows` call the rows keep the last codebook built,
read-only, and a row that names the same key reuses it; any other key drops
it and builds its own, so at most one codebook of ``K*d`` floats is alive. The
loop runs its noise hooks in job order, so jobs of one K ordered seed-major
build each key once: ``cli.cmd_solve`` orders its grid that way (990 builds
for the shipped d=16 grid). There is no process-wide cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combination import (
    DegenerateDirectionError,
    inner_products,
    optimal_weights,
    synthesize_noise,
    top_m_weights,
)
from .diffusion import (
    GaussianMixturePrior,
    Schedule,
    fresh_noise,
    reverse_loop,
    tweedie_jacobian_apply,
)
from .operators import Observation, dps_direction, mpgd_direction
from .rng import build_codebook

__all__ = [
    "BASELINE_SOLVERS",
    "NCS_SOLVERS",
    "SolverConfig",
    "SolveResult",
    "ncs_solve",
    "baseline_solve",
    "solve",
    "solve_rows",
]

BASELINE_SOLVERS = ("DPS", "MPGD", "DDCM")
NCS_SOLVERS = ("NCS-DPS", "NCS-MPGD", "NCS-DDCM")

# Recommended codebook sizes per task family. Guidance strength shrinks the
# usable noise subspace, so weakly constrained tasks get larger codebooks.
# Advisory defaults, not hard requirements; configs may name these instead of
# a number.
TASK_K_PRESETS = {
    "sr4": 512,
    "sr8": 64,
    "inpaint_box": 64,
    "inpaint_random": 512,
    "gaussian_deblur": 256,
    "motion_deblur": 512,
}


@dataclass(frozen=True)
class SolverConfig:
    solver: str
    K: int = 64
    m: int | None = None  # None: combine over the full codebook
    seed: int = 0
    zeta: float = 1.0  # DPS guidance scale (normalized by the residual norm)
    lam: float = 0.1  # MPGD step size, scaled by sqrt(alpha_bar_t)

    def __post_init__(self) -> None:
        if self.solver not in BASELINE_SOLVERS + NCS_SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.m is not None and not 1 <= self.m <= self.K:
            raise ValueError(f"m must be in [1, {self.K}], got {self.m}")


@dataclass(frozen=True)
class SolveResult:
    x0: np.ndarray
    degenerate_steps: int


def _row(prior, schedule, obs, config, codebook_at, tally):
    """The ``(noise, correct)`` pair of one loop row; it counts degenerate steps in ``tally[0]``.

    DPS and MPGD draw fresh noise and correct the mean at every step, t = 1
    included. DPS subtracts ``zeta_t * grad ||y - A x0_hat||^2`` from the DDPM
    update with the residual-normalized step ``zeta_t = zeta / ||y - A
    x0_hat||``; MPGD moves the Tweedie estimate by ``2 lam sqrt(alpha_bar) A^T
    r`` and folds the shift back through the posterior-mean coefficient. DDCM
    and NCS-* leave the mean alone and take the guided noise rule.
    """

    def fresh(step):
        return fresh_noise(config.seed, step.t, prior.d)

    def guided(step):
        if config.solver == "NCS-DPS":
            c = dps_direction(schedule, obs, step)
        else:
            c = mpgd_direction(obs, step.x0_hat)
        if np.linalg.norm(c) > 0:
            codebook = codebook_at(config.seed, step.t, config.K)
            try:
                if config.solver == "DDCM":
                    return codebook[:, int(np.argmax(inner_products(c, codebook)))]
                if config.m is None:
                    return synthesize_noise(codebook, optimal_weights(c, codebook))
                return synthesize_noise(codebook, top_m_weights(c, codebook, config.m))
            except DegenerateDirectionError:
                pass
        tally[0] += 1
        return fresh(step)

    def dps(step, x_next):
        rnorm = float(np.linalg.norm(obs.y - obs.operator.apply(step.x0_hat)))
        if rnorm > 0 and config.zeta != 0.0:
            pulled = mpgd_direction(obs, step.x0_hat)
            grad = -2.0 * tweedie_jacobian_apply(step, pulled)
            x_next = x_next - (config.zeta / rnorm) * grad
        return x_next

    def mpgd(step, x_next):
        if config.lam != 0.0:
            t = step.t
            ab, ab_prev = schedule.alpha_bar_at(t), schedule.alpha_bar_prev(t)
            pulled = mpgd_direction(obs, step.x0_hat)
            shift = 2.0 * config.lam * np.sqrt(ab) * pulled
            coef0 = np.sqrt(ab_prev) * schedule.beta_at(t) / (1.0 - ab)
            x_next = x_next + coef0 * shift
        return x_next

    if config.solver == "DPS":
        return fresh, dps
    if config.solver == "MPGD":
        return fresh, mpgd
    return guided, None


def solve_rows(prior: GaussianMixturePrior, jobs) -> list:
    """One :class:`SolveResult` per ``(schedule, obs, config)`` job, all in one ``reverse_loop``.

    Each job is one row of the loop: its solver's noise policy and mean hook
    against its own observation, keyed by its config's seed on its schedule;
    jobs on equal schedules are scored as one batch. Every result is
    bit-identical to ``solve(prior, schedule, obs, config)`` run alone. The
    rows keep the last codebook built, read-only, and build the next only when
    a row asks for another ``(seed, t, K, d)``; the previous one is dropped
    first, so at most one codebook is alive. Jobs ordered seed-major build
    each ``(seed, t, K, d)`` once.
    """
    last = (None, None)  # the key and read-only codebook of the latest build

    def codebook_at(seed, t, K):
        nonlocal last
        key = (seed, t, K, prior.d)
        if last[0] != key:
            last = (None, None)  # drop the previous codebook before the next is built
            codebook = build_codebook(*key)
            codebook.flags.writeable = False
            last = (key, codebook)
        return last[1]

    tallies = [[0] for _ in jobs]
    rows = [
        (schedule, config.seed, *_row(prior, schedule, obs, config, codebook_at, tally))
        for (schedule, obs, config), tally in zip(jobs, tallies)
    ]
    x0 = reverse_loop(prior, rows)
    return [SolveResult(x0=x, degenerate_steps=tally[0]) for x, tally in zip(x0, tallies)]


def ncs_solve(
    prior: GaussianMixturePrior, schedule: Schedule, obs: Observation, config: SolverConfig
) -> SolveResult:
    """Combination solvers: plain DDPM steps with guided noise (see ``_row``).

    The DDPM mean is left as it is. The one-job case of :func:`solve_rows`.
    """
    if config.solver not in NCS_SOLVERS:
        raise ValueError(f"ncs_solve requires a combination solver, got {config.solver!r}")
    return solve_rows(prior, [(schedule, obs, config)])[0]


def baseline_solve(
    prior: GaussianMixturePrior, schedule: Schedule, obs: Observation, config: SolverConfig
) -> SolveResult:
    """Reference solvers, guided through the mean term or one atom (see ``_row``).

    The one-job case of :func:`solve_rows`.
    """
    if config.solver not in BASELINE_SOLVERS:
        raise ValueError(f"baseline_solve requires a baseline solver, got {config.solver!r}")
    return solve_rows(prior, [(schedule, obs, config)])[0]


def solve(
    prior: GaussianMixturePrior, schedule: Schedule, obs: Observation, config: SolverConfig
) -> SolveResult:
    """Dispatch on the solver family."""
    if config.solver in NCS_SOLVERS:
        return ncs_solve(prior, schedule, obs, config)
    return baseline_solve(prior, schedule, obs, config)
