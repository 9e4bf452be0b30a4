"""Guided reverse-diffusion solvers.

Two families share one stream layout so runs with equal seeds are paired:

* baselines (``DPS``, ``MPGD``, ``DDCM``) steer the trajectory through the
  mean term (gradient steps) or swap in a single selected codebook atom;
* combination variants (``NCS-DPS``, ``NCS-MPGD``) leave the DDPM mean
  untouched and put all guidance into the noise term, replacing the fresh
  Gaussian draw with the optimal unit-norm combination of codebook atoms
  aligned with the solver's measurement direction. This restriction is
  structural: the combination path has no code that modifies the mean.
  DDCM's direction is MPGD's (:func:`~noisecomb.operators.ddcm_direction`),
  so ``NCS-MPGD`` is also the combination variant of DDCM, and the name
  ``NCS-DDCM`` is refused with a pointer to it.

Every solver is one row of :func:`~noisecomb.diffusion.reverse_loop`, whose
one noise hook and one shift hook :func:`solve_rows` supplies. Its rows stay
in job order, and each hook takes every batch
:class:`~noisecomb.diffusion.Step` whole: it computes what it must for the
rows that need it and picks each row's result through per-row masks, built
once per call. The noise hook gives DDCM and NCS-* their guided noise and every
other row ``fresh_noise``; the shift hook gives DPS and MPGD rows their mean
shifts and the others ``-0.0``, which leaves them as they are. Both hooks
read one guidance per Step, looking up each row's observation and config
through ``step.rows``: one residual per operator over the rows that read
their observation at t (guided rows at t >= 2, shifting rows at every t),
where the rows that share one operator object form one array batch, and one
stacked Jacobian product for the NCS-DPS directions and the DPS shifts
together. DDCM and NCS-* share the
guided rule, which takes the measurement direction and the step codebook
and differs only in the weights (DDCM the argmax atom over all K, NCS-* the
optimal or top-m combination). No solver scores a state itself. The jobs of
one :func:`solve_rows` call on equal schedules share one scoring and one
DDPM update per step, and every schedule's rows step together, aligned by
t. Each row is bit-identical to its own :func:`solve`, which is the one-job
case (as are :func:`ncs_solve` and :func:`baseline_solve`).

A degenerate direction (zero, or with no usable codebook projection) makes
its step draw the keyed fresh noise of a plain DDPM step: ``fresh_noise``,
which is also the whole noise policy of DPS and MPGD. A zero direction
(``||c|| == 0``) is degenerate for every codebook, so its step builds none.

A codebook depends only on ``(seed, t, K, d)``, not on the solver or on T.
The guided rule works through its rows seed by seed in ``(seed, K)`` order,
across all of its Steps: it drops the previous codebook, builds this key's
read-only codebook once and combines it with the directions of all of that
key's rows at once, so at most one codebook of ``K*d`` floats is alive and
each key is built once whatever the job order (990 builds for the shipped
d=16 grid). There is no process-wide cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combination import inner_products, optimal_weights, row_norms, synthesize_noise, top_m_weights
from .diffusion import (
    GaussianMixturePrior,
    Schedule,
    Step,
    fresh_noise,
    reverse_loop,
    tweedie_jacobian_apply,
)
from .operators import Observation, adjoint_residual, mpgd_direction
from .rng import build_codebook

__all__ = [
    "BASELINE_SOLVERS",
    "NCS_SOLVERS",
    "SolverConfig",
    "SolveResult",
    "dps_direction",
    "ncs_solve",
    "baseline_solve",
    "solve",
    "solve_rows",
]

BASELINE_SOLVERS = ("DPS", "MPGD", "DDCM")
NCS_SOLVERS = ("NCS-DPS", "NCS-MPGD")


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
            hint = "; NCS-DDCM is NCS-MPGD under a second name" if self.solver == "NCS-DDCM" else ""
            raise ValueError(f"unknown solver {self.solver!r}{hint}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.m is not None and not 1 <= self.m <= self.K:
            raise ValueError(f"m must be in [1, {self.K}], got {self.m}")
        if not (self.zeta >= 0 and self.lam >= 0):
            raise ValueError(f"zeta and lambda must be >= 0, got {self.zeta} and {self.lam}")


@dataclass(frozen=True)
class SolveResult:
    x0: np.ndarray
    degenerate_steps: int


def dps_direction(obs: Observation, step: Step) -> np.ndarray:
    """Likelihood-gradient direction: (1/sigma_t^2) J^T A^T (y - A x0_hat).

    Equals the ascent direction of the Gaussian log-likelihood of y given the
    Tweedie estimate ``x0_hat`` of the :class:`~noisecomb.diffusion.Step`'s
    state, with the Step schedule's sigma_t as the likelihood scale. A batch
    Step takes a batch observation, one measurement per row.
    """
    c = mpgd_direction(obs, step.x0_hat)
    return tweedie_jacobian_apply(step, c) / step.schedule.sigma_at(step.t) ** 2


def _combine(rule, codebook: np.ndarray, c: np.ndarray) -> tuple:
    """The codebook noise of the directions ``c`` under one rule, and the rows it serves.

    ``rule`` is ``"DDCM"`` (the argmax atom), ``None`` (the optimal combination)
    or the ``m`` of a top-m combination. A row whose weights are degenerate is
    not served. The directions and weights, like the codebook, are read-only.
    """
    c.flags.writeable = False
    if rule == "DDCM":
        return codebook[:, np.argmax(inner_products(c, codebook), axis=-1)].T, np.ones(len(c), dtype=bool)
    if rule is None:
        weights = optimal_weights(c, codebook)
        weights.flags.writeable = False
        return synthesize_noise(codebook, weights), weights.any(axis=-1)
    selection = top_m_weights(c, codebook, rule)
    return synthesize_noise(codebook, selection), selection.weights.any(axis=-1)


def solve_rows(prior: GaussianMixturePrior, jobs) -> list:
    """One :class:`SolveResult` per ``(schedule, obs, config)`` job, all in one ``reverse_loop``.

    Job j is row j of the loop, keyed by its config's seed on its schedule:
    its solver's noise policy and mean shift against its own observation,
    which the loop's two hooks pick per row; jobs on equal schedules are
    scored as one batch. Every result is bit-identical to ``solve(prior,
    schedule, obs, config)`` run alone, and the results come back in job
    order. DPS and MPGD draw fresh noise and shift the mean at every step,
    t = 1 included; the loop adds the shift to the DDPM update. DPS's shift
    is ``-zeta_t * grad ||y - A x0_hat||^2`` with the residual-normalized
    step ``zeta_t = zeta / ||y - A x0_hat||``, both from one residual; MPGD
    moves the Tweedie estimate by ``2 lam sqrt(alpha_bar) A^T r`` and folds
    that move through the posterior-mean coefficient. A zero ``zeta`` or
    ``lam`` leaves the row without a shift, and it reads no observation.
    DDCM and NCS-* leave the mean alone and take the guided noise rule; they
    read their observation at t >= 2 only, as the t = 1 step is noiseless.
    Per Step, one residual per operator and one Jacobian product serve both
    hooks: NCS-DPS and DPS pull the same ``A^T r`` back through the same J.
    """
    obs = [observation for _, observation, _ in jobs]
    configs = [config for _, _, config in jobs]
    solver = np.array([config.solver for config in configs], dtype=str)
    zeta, lam = (np.array([getattr(config, name) for config in configs]) for name in ("zeta", "lam"))
    guided = (solver != "DPS") & (solver != "MPGD")  # per row: it takes the guided noise rule
    ncs_dps = solver == "NCS-DPS"  # per row: its direction is pulled back through J
    dps, mpgd = (solver == "DPS") & (zeta > 0), (solver == "MPGD") & (lam > 0)  # per row: it shifts
    shifted = dps | mpgd
    degenerate = np.zeros(len(jobs), dtype=int)  # per row: the steps that drew fresh noise
    stacked = {}  # (a Step's rows, t >= 2) -> per operator, its reading rows' positions and observation
    memo = {}  # a Step's rows -> its guidance, from the noise hook to the shift hook of one step

    def guidance(step):
        """Per row of ``step``: its direction, the direction's norm and its mean shift.

        One residual per operator covers the rows that read their observation
        at t: guided rows at t >= 2, shifting rows at every t. A direction is
        ``A^T r``, pulled back through J for NCS-DPS by the one Jacobian
        product that also gives the DPS shifts. A row that reads nothing has a
        zero direction, and a row without a shift gets ``-0.0``, which leaves
        it as it is. The noise hook reads the directions of the guided rows.
        """
        if step.rows in memo:
            return memo[step.rows]
        at, t, schedule = list(step.rows), step.t, step.schedule
        key, reading = (step.rows, t >= 2), (shifted | guided if t >= 2 else shifted)[at]
        if key not in stacked:
            by_operator = {}
            for j in np.flatnonzero(reading).tolist():
                by_operator.setdefault(id(obs[at[j]].operator), []).append(j)
            stacked[key] = [
                (pos, Observation(np.array([obs[at[j]].y for j in pos]), obs[at[pos[0]]].operator))
                for pos in by_operator.values()
            ]
        c, rnorm, norm = np.zeros_like(step.x), np.zeros(len(at)), np.zeros(len(at))
        for pos, batch in stacked[key]:
            c[pos], rnorm[pos], norm[pos] = adjoint_residual(batch, step.x0_hat[pos])
        delta, on_dps, pull = np.full_like(step.x, -0.0), dps[at], ncs_dps[at] & reading
        if on_dps.any() or pull.any():
            jc = tweedie_jacobian_apply(step, c)
            c[pull] = jc[pull] / schedule.sigma_at(t) ** 2
            norm[pull] = row_norms(c[pull])
            live = on_dps & (rnorm > 0)
            delta[live] = (zeta[at][live] / rnorm[live])[:, None] * (2.0 * jc[live])
        on_mpgd = mpgd[at]
        if on_mpgd.any():
            ab, ab_prev = schedule.alpha_bar_at(t), schedule.alpha_bar_prev(t)
            coef0 = np.sqrt(ab_prev) * schedule.beta_at(t) / (1.0 - ab)
            delta[on_mpgd] = (coef0 * ((2.0 * lam[at] * np.sqrt(ab))[:, None] * c))[on_mpgd]
        memo[step.rows] = c, norm, delta
        return memo[step.rows]

    def noise(steps):
        """Each guided row's codebook noise, per ``(seed, K)`` one codebook for all of its rows,
        and the fresh noise of a plain DDPM step for every other row."""
        flat = np.array([i for step in steps for i in step.rows])  # the rows of all Steps, in order
        if not guided[flat].any():
            return fresh_noise(steps)
        c, norm = (np.concatenate(a) for a in zip(*(guidance(step)[:2] for step in steps)))
        out, fresh = np.empty_like(c), ~(guided[flat] & (norm > 0))  # fresh: the rows that draw fresh noise
        rules = {}  # (seed, K) -> rule -> positions in ``flat``
        for n in np.flatnonzero(~fresh).tolist():
            config = configs[flat[n]]
            rule = "DDCM" if config.solver == "DDCM" else config.m
            rules.setdefault((config.seed, config.K), {}).setdefault(rule, []).append(n)
        for (seed, K), by_rule in sorted(rules.items()):
            codebook = None  # drop the previous codebook before the next is built
            codebook = build_codebook(seed, steps[0].t, K, prior.d)
            codebook.flags.writeable = False
            for rule, pos in by_rule.items():
                out[pos], usable = _combine(rule, codebook, c[pos])
                fresh[pos] = ~usable
        if fresh.any():
            out[fresh] = np.concatenate(fresh_noise(steps))[fresh]
            degenerate[flat[fresh & guided[flat]]] += 1
        return np.split(out, np.cumsum([len(step.rows) for step in steps])[:-1])

    def shift(steps):
        """Each row's mean shift, from the guidance of this step, which is then dropped."""
        out = [guidance(step)[2] for step in steps]
        memo.clear()
        return out

    x0 = reverse_loop(prior, [(schedule, config.seed) for schedule, _, config in jobs], noise, shift)
    return [SolveResult(x0=x, degenerate_steps=n) for x, n in zip(x0, degenerate.tolist())]


def ncs_solve(
    prior: GaussianMixturePrior, schedule: Schedule, obs: Observation, config: SolverConfig
) -> SolveResult:
    """Combination solvers: plain DDPM steps with guided noise (see :func:`solve_rows`).

    The DDPM mean is left as it is. The one-job case of :func:`solve_rows`.
    """
    if config.solver not in NCS_SOLVERS:
        raise ValueError(f"ncs_solve requires a combination solver, got {config.solver!r}")
    return solve_rows(prior, [(schedule, obs, config)])[0]


def baseline_solve(
    prior: GaussianMixturePrior, schedule: Schedule, obs: Observation, config: SolverConfig
) -> SolveResult:
    """Reference solvers, guided through the mean term or one atom (see :func:`solve_rows`).

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
