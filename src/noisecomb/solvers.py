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
one noise hook and one shift hook :func:`solve_rows` dispatches to the
solver families itself. It sorts each schedule's rows by family, so every
family's rows lie side by side in every batch
:class:`~noisecomb.diffusion.Step`, and per step runs each family's hook
once on its slices of all Steps: ``fresh_noise`` for DPS and MPGD, one
guided noise rule for DDCM and NCS-*, and the DPS and MPGD mean shifts
(rows with no shift get ``-0.0``, which leaves them as they are). A hook
looks up each row's observation and config through ``step.rows``; the rows
of a Step that share one operator object form one array batch, so a step
forms one residual per operator, and one stacked Jacobian product per Step
for the DPS rows. DDCM and NCS-* share the guided rule, which takes the
measurement direction and the step codebook and differs only in the weights
(DDCM the argmax atom over all K, NCS-* the optimal or top-m combination).
No solver scores a state itself. The jobs of one :func:`solve_rows` call on
equal schedules share one scoring and one DDPM update per step, and every
schedule's rows step together, aligned by t. Each row is bit-identical to
its own :func:`solve`, which is the one-job case (as are :func:`ncs_solve`
and :func:`baseline_solve`).

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

from bisect import bisect_left
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
_ROW_ORDER = ("DPS", "MPGD", "NCS-DPS", "NCS-MPGD", "DDCM")  # solve_rows's row order

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


def _pull_back(step: Step, v: np.ndarray) -> np.ndarray:
    """(1/sigma_t^2) J^T v at each row of ``step``."""
    return tweedie_jacobian_apply(step, v) / step.schedule.sigma_at(step.t) ** 2


def dps_direction(obs: Observation, step: Step) -> np.ndarray:
    """Likelihood-gradient direction: (1/sigma_t^2) J^T A^T (y - A x0_hat).

    Equals the ascent direction of the Gaussian log-likelihood of y given the
    Tweedie estimate ``x0_hat`` of the :class:`~noisecomb.diffusion.Step`'s
    state, with the Step schedule's sigma_t as the likelihood scale. A batch
    Step takes a batch observation, one measurement per row.
    """
    return _pull_back(step, mpgd_direction(obs, step.x0_hat))


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

    Each job is one row of the loop, keyed by its config's seed on its
    schedule: its solver's noise policy and mean shift against its own
    observation, which the loop's two hooks dispatch to by the row's slot
    (see ``rank``); jobs on equal schedules are scored as one batch. Every
    result is bit-identical to ``solve(prior, schedule, obs, config)`` run
    alone, and the results come back in job order. DPS and MPGD draw fresh noise and
    shift the mean at every step, t = 1 included; the loop adds the shift to
    the DDPM update. DPS's shift is ``-zeta_t * grad ||y - A x0_hat||^2``
    with the residual-normalized step ``zeta_t = zeta / ||y - A x0_hat||``,
    both from one residual; MPGD moves the Tweedie estimate by ``2 lam
    sqrt(alpha_bar) A^T r`` and folds that move through the posterior-mean
    coefficient. A zero ``zeta`` or ``lam`` leaves the row without a shift.
    DDCM and NCS-* leave the mean alone and take the guided noise rule.
    """
    first = {}  # each schedule -> the first job on it
    for j, (schedule, _, _) in enumerate(jobs):
        first.setdefault(schedule, j)

    def slot(config):
        """``2 * place + (no shift)``, ``place`` the solver's in ``_ROW_ORDER``: DPS rows take slots
        0 and 1, MPGD rows 2 and 3, each with a shift in the even one, and the guided rows 5 to 9."""
        shift = {"DPS": config.zeta, "MPGD": config.lam}.get(config.solver, 0.0)
        return 2 * _ROW_ORDER.index(config.solver) + (not shift)

    def rank(j):
        """Row order: by schedule, then slot, then ``(seed, K)``. Each group's rows, and in each
        group's Step the rows of each slot, then lie side by side."""
        schedule, _, config = jobs[j]
        return first[schedule], slot(config), config.seed, config.K

    order = sorted(range(len(jobs)), key=rank)
    obs = [jobs[j][1] for j in order]
    configs = [jobs[j][2] for j in order]
    zeta, lam = (np.array([getattr(config, name) for config in configs]) for name in ("zeta", "lam"))
    slots = [slot(config) for config in configs]
    degenerate = np.zeros(len(jobs), dtype=int)  # per row: the steps that drew fresh noise
    stacked = {}  # a Step's rows -> per operator, its rows' positions and batch observation

    def residuals(step):
        """``adjoint_residual`` of each row of ``step`` against its own observation."""
        if step.rows not in stacked:
            by_operator = {}
            for j, i in enumerate(step.rows):
                by_operator.setdefault(id(obs[i].operator), []).append(j)
            stacked[step.rows] = [
                (pos, Observation(np.array([obs[step.rows[j]].y for j in pos]), obs[step.rows[pos[0]]].operator))
                for pos in by_operator.values()
            ]
        parts = stacked[step.rows]
        if len(parts) == 1:
            return adjoint_residual(parts[0][1], step.x0_hat)
        out = (np.empty_like(step.x), np.empty(len(step.rows)), np.empty(len(step.rows)))
        for pos, batch in parts:
            for whole, part in zip(out, adjoint_residual(batch, step.x0_hat[pos])):
                whole[pos] = part
        return out

    def directions(step):
        """Each row's guidance direction and its norm: ``A^T r``, pulled back through J for NCS-DPS."""
        c, _, norm = residuals(step)
        n_dps = sum(configs[i].solver == "NCS-DPS" for i in step.rows)  # in row order, they come first
        if n_dps:
            dps = slice(0, n_dps)
            c[dps] = _pull_back(step.take(dps), c[dps])
            norm[dps] = row_norms(c[dps])
        return c, norm

    def guided(steps):
        """Each row's codebook noise; per ``(seed, K)``, one codebook serves all of its rows."""
        c, norm = (np.concatenate(a) for a in zip(*map(directions, steps)))
        flat = [i for step in steps for i in step.rows]  # the rows of all Steps, in order
        ends = np.cumsum([len(step.rows) for step in steps])[:-1]
        noise, fresh = np.empty_like(c), ~(norm > 0)  # fresh: the rows that draw fresh noise
        rules = {}  # (seed, K) -> rule -> positions in ``flat``
        for n, i in enumerate(flat):
            config = configs[i]
            rule = "DDCM" if config.solver == "DDCM" else config.m
            rules.setdefault((config.seed, config.K), {}).setdefault(rule, []).append(n)
        for (seed, K), by_rule in sorted(rules.items()):
            live = {rule: [n for n in pos if not fresh[n]] for rule, pos in by_rule.items()}
            if any(live.values()):
                codebook = None  # drop the previous codebook before the next is built
                codebook = build_codebook(seed, steps[0].t, K, prior.d)
                codebook.flags.writeable = False
                for rule, pos in live.items():
                    if pos:
                        noise[pos], usable = _combine(rule, codebook, c[pos])
                        fresh[pos] = ~usable
        if fresh.any():  # the fresh noise of a plain DDPM step, drawn for just those rows
            picks = (np.flatnonzero(m).tolist() for m in np.split(fresh, ends))
            noise[fresh] = np.concatenate(fresh_noise([s.take(p) for s, p in zip(steps, picks) if p]))
            degenerate[np.array(flat)[fresh]] += 1
        return np.split(noise, ends)

    def dps(steps):
        out = []
        for step in steps:
            pulled, rnorm, _ = residuals(step)
            live = rnorm > 0
            scale = zeta[list(step.rows)] / np.where(live, rnorm, 1.0)
            shift = scale[:, None] * (2.0 * tweedie_jacobian_apply(step, pulled))
            out.append(np.where(live[:, None], shift, -0.0))  # adding -0.0 leaves a row as it is
        return out

    def mpgd(steps):
        out = []
        for step in steps:
            t, schedule = step.t, step.schedule
            ab, ab_prev = schedule.alpha_bar_at(t), schedule.alpha_bar_prev(t)
            shift = (2.0 * lam[list(step.rows)] * np.sqrt(ab))[:, None] * residuals(step)[0]
            coef0 = np.sqrt(ab_prev) * schedule.beta_at(t) / (1.0 - ab)
            out.append(coef0 * shift)
        return out

    def run(hooks, steps, out):
        """Call each ``(hook, lo, hi)`` once, on the rows of slots ``lo`` to ``hi - 1`` of every
        Step that holds some, and write its output to those rows of ``out``, one array per Step."""
        for hook, lo, hi in hooks:
            parts = []
            for n, step in enumerate(steps):
                a = step.rows[0]  # a group's Step holds the rows a, a + 1, ... in slot order
                pos = slice(*(bisect_left(slots, k, a, a + len(step.rows)) - a for k in (lo, hi)))
                if pos.start < pos.stop:
                    parts.append((n, pos))
            if parts:
                for (n, pos), part in zip(parts, hook([steps[n].take(pos) for n, pos in parts])):
                    out[n][pos] = part
        return out

    def noise(steps):  # fresh noise for DPS and MPGD (slots 0 to 3), the guided rule for the rest
        return run(((fresh_noise, 0, 4), (guided, 4, 10)), steps, [np.empty_like(s.x) for s in steps])

    def shift(steps):  # slots 0 and 2; adding -0.0 leaves a row with no shift as it is
        return run(((dps, 0, 1), (mpgd, 2, 3)), steps, [np.full_like(s.x, -0.0) for s in steps])

    rows = [(jobs[j][0], jobs[j][2].seed) for j in order]
    x0 = dict(zip(order, reverse_loop(prior, rows, noise, shift)))
    degenerate_steps = dict(zip(order, degenerate.tolist()))
    return [SolveResult(x0=x0[j], degenerate_steps=degenerate_steps[j]) for j in range(len(jobs))]


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
