"""Discrete variance-preserving diffusion with exact Gaussian-mixture scores.

The forward process follows the standard DDPM discretization: per-step noise
levels ``beta[t]``, ``alpha[t] = 1 - beta[t]``, ``alpha_bar[t]`` their running
product, and reverse-update stochasticity ``sigma[t] = sqrt(beta[t])``. With a
Gaussian-mixture data prior the time-t marginal is again a mixture, so the
score, the posterior mean (Tweedie estimate) and its Jacobian are all
available in closed form; no learned network is involved.

Convention: the canonical quantity is the true score ``s = grad log p_t``.
Where a noise-prediction form is needed it is ``eps_hat = -sqrt(1 -
alpha_bar[t]) * s``, which makes the Tweedie formula and the DDPM mean exact
simultaneously. Timesteps are 1-indexed (``t = 1 .. T``); the final ``t = 1``
reverse step adds no noise.

:func:`step_at` is the one place that scores a state: it returns the
:class:`Step` of that state, with its mixture statistics, Tweedie estimate and
time-t marginal. The Jacobian-vector product :func:`tweedie_jacobian_apply`
(and with it the DPS direction) takes a Step, so it reuses all three. Sampler,
solvers and codec all run :func:`reverse_loop` with one noise hook and an
optional mean-shift hook of their own. The loop advances a batch of rows in
lockstep, aligned by t, each row on its own schedule: per timestep it calls
``step_at`` once per schedule on the rows of that schedule in its ``(B, d)``
state, and then each hook once with the batch Steps of the live schedules,
which also name the rows and their seeds. A hook that treats rows
differently dispatches on those names itself; :func:`unconditional_sample`
and the codec are the one-row case.

A full-covariance prior scores through the precision matrices of its
marginal covariances, inverted with NumPy once per scoring. The ``(1 -
alpha_bar) I`` term keeps every eigenvalue of a marginal covariance at or
above ``beta_min``, so at every t its condition number is at most
``(lambda_max + 1) / beta_min``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import Domain, NoiseStream, StreamKey, derive_stream

__all__ = [
    "Schedule",
    "GaussianMixturePrior",
    "marginal_params",
    "marginal_log_density",
    "logsumexp",
    "score",
    "tweedie_estimate",
    "tweedie_jacobian",
    "tweedie_jacobian_apply",
    "ddpm_mean",
    "ddpm_step",
    "fresh_noise",
    "Step",
    "step_at",
    "reverse_loop",
    "unconditional_sample",
]

_LOG_2PI = np.log(2.0 * np.pi)


def logsumexp(a, axis: int = -1, keepdims: bool = False):
    """``log(sum(exp(a)))`` along ``axis`` in float64, bit-identical to SciPy 1.17's.

    The maxima are split out of the sum for precision: with ``n_max`` the
    number of entries equal to the maximum ``a_max`` and ``rest`` the sum of
    ``exp(a - a_max)`` over the others, the result is ``log1p(rest / n_max) +
    log(n_max) + a_max``. Where that is not finite (infinite or NaN inputs) the
    direct ``log(sum(exp(a)))`` is returned instead. The score's value thus
    depends on NumPy alone, not on SciPy's version of this function.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = a.max(axis=axis, keepdims=True)
    is_max = a == a_max
    n_max = is_max.sum(axis=axis, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(np.where(is_max, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        out = np.log1p(rest / n_max) + np.log(n_max) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    if not keepdims:
        out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class Schedule:
    """DDPM's linear beta ramp from ``beta_min`` at t=1 to ``beta_max`` at t=T.

    The three numbers are the schedule: equality, hash and repr go by them.
    ``beta``, ``alpha``, ``alpha_bar`` and ``sigma`` are derived on
    construction, indexed by ``t - 1``. Every ``alpha_bar`` must lie in (0, 1):
    at 1 (``1 - beta`` rounds to 1) or 0 (underflow) the reverse steps divide
    by zero.
    """

    T: int
    beta_min: float = 1e-4
    beta_max: float = 0.02
    beta: np.ndarray = field(init=False, compare=False, repr=False)
    alpha: np.ndarray = field(init=False, compare=False, repr=False)
    alpha_bar: np.ndarray = field(init=False, compare=False, repr=False)
    sigma: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        T, beta_min, beta_max = self.T, self.beta_min, self.beta_max
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        if not (0.0 < beta_min <= beta_max < 1.0):
            raise ValueError(f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
        beta = np.linspace(beta_min, beta_max, T, dtype=np.float64)  # [beta_min] at T = 1
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        if not (alpha_bar[0] < 1.0 and alpha_bar[-1] > 0.0):
            raise ValueError(f"alpha_bar leaves (0, 1): [{alpha_bar[0]}, {alpha_bar[-1]}]")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_bar", alpha_bar)
        object.__setattr__(self, "sigma", np.sqrt(beta))

    def _check(self, t: int) -> None:
        if not 1 <= t <= self.T:
            raise ValueError(f"timestep {t} outside [1, {self.T}]")

    def beta_at(self, t: int) -> float:
        self._check(t)
        return float(self.beta[t - 1])

    def alpha_at(self, t: int) -> float:
        self._check(t)
        return float(self.alpha[t - 1])

    def alpha_bar_at(self, t: int) -> float:
        self._check(t)
        return float(self.alpha_bar[t - 1])

    def alpha_bar_prev(self, t: int) -> float:
        self._check(t)
        return float(self.alpha_bar[t - 2]) if t >= 2 else 1.0

    def sigma_at(self, t: int) -> float:
        self._check(t)
        return float(self.sigma[t - 1])


build_schedule = Schedule  # benchmarks/worker.py imports this older name; src uses Schedule


@dataclass(frozen=True)
class GaussianMixturePrior:
    """Mixture of Gaussians with diagonal or full covariances.

    ``variances`` has shape (k, d) when diagonal; ``covariances`` has shape
    (k, d, d) otherwise. Exactly one of the two is set.
    """

    weights: np.ndarray  # (k,)
    means: np.ndarray  # (k, d)
    variances: np.ndarray | None = None
    covariances: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        if w.ndim != 1 or len(w) != len(mu):
            raise ValueError("weights and means must have matching component counts")
        if not (np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-12):  # NaN fails both
            raise ValueError("component weights must be positive and sum to 1 within 1e-12")
        if not np.isfinite(mu).all():
            raise ValueError("component means must be finite")
        if (self.variances is None) == (self.covariances is None):
            raise ValueError("exactly one of variances / covariances must be given")
        if self.variances is not None:
            v = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
            if v.shape != mu.shape:
                raise ValueError(f"variances shape {v.shape} != means shape {mu.shape}")
            if not np.all((v > 0) & np.isfinite(v)):
                raise ValueError("diagonal variances must be positive and finite")
            object.__setattr__(self, "variances", v)
        else:
            cov = np.asarray(self.covariances, dtype=np.float64)
            if cov.shape != (len(mu), self.d, self.d):
                raise ValueError(f"covariances must have shape (k, d, d), got {cov.shape}")
            if not np.isfinite(cov).all():
                raise ValueError("component covariances must be finite")
            for k in range(len(mu)):
                if not np.allclose(cov[k], cov[k].T, atol=1e-12):
                    raise ValueError(f"covariance {k} is not symmetric")
                try:
                    np.linalg.cholesky(cov[k])
                except np.linalg.LinAlgError as exc:
                    raise ValueError(f"covariance {k} is not positive-definite") from exc
            object.__setattr__(self, "covariances", cov)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def diagonal(self) -> bool:
        return self.variances is not None

    @classmethod
    def single(cls, mean, cov) -> "GaussianMixturePrior":
        """One-component prior; ``cov`` may be a scalar, a diagonal, or a matrix."""
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        cov = np.asarray(cov, dtype=np.float64)
        if cov.ndim == 0:
            cov = np.full_like(mean, float(cov))
        if cov.ndim == 1:
            return cls(weights=np.array([1.0]), means=mean[None], variances=cov[None])
        return cls(weights=np.array([1.0]), means=mean[None], covariances=cov[None])

    def sample(self, stream: NoiseStream) -> np.ndarray:
        """Draw one point from the mixture; deterministic given the stream.

        Each draw reads the stream on, so successive calls give successive points.
        """
        u = (stream.raw(1)[0] >> np.uint64(12)).astype(np.float64) * 2.0**-52
        k = int(np.searchsorted(np.cumsum(self.weights), u, side="right").clip(0, self.n_components - 1))
        z = stream.standard_normal(self.d)
        if self.diagonal:
            return self.means[k] + np.sqrt(self.variances[k]) * z
        return self.means[k] + np.linalg.cholesky(self.covariances[k]) @ z


def marginal_params(prior: GaussianMixturePrior, schedule: Schedule, t: int):
    """Component parameters of the time-t marginal mixture.

    Returns ``(weights, means, variances_or_covariances)`` in the prior's
    storage convention: means are scaled by ``sqrt(alpha_bar)`` and
    covariances shrink toward the identity as ``alpha_bar*Sigma + (1 -
    alpha_bar)*I``.
    """
    ab = schedule.alpha_bar_at(t)
    means = np.sqrt(ab) * prior.means
    if prior.diagonal:
        return prior.weights, means, ab * prior.variances + (1.0 - ab)
    eye = np.eye(prior.d)
    return prior.weights, means, ab * prior.covariances + (1.0 - ab) * eye


def _component_stats(prior, schedule, x, t):
    """Per-component log densities and score directions at x, and the time-t marginal.

    Returns ``(log_w_pdf, g, marginal)``: ``log_w_pdf[..., k]`` is ``log(w_k) +
    log N(x; m_k, C_k)``, ``g[..., k, :]`` is ``-C_k^{-1} (x - m_k)`` and
    ``marginal`` is the :class:`Step` field of that name.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("state contains non-finite entries")
    if x.shape[-1] != prior.d:
        raise ValueError(f"state dimension {x.shape[-1]} != prior dimension {prior.d}")
    w, means, covs = marginal_params(prior, schedule, t)
    diff = x[..., None, :] - means  # (..., k, d)
    if prior.diagonal:
        precisions = None
        g = -diff / covs
        quad = (diff * diff / covs).sum(axis=-1)
        logdet = np.log(covs).sum(axis=-1)
    else:
        precisions = np.linalg.inv(covs)
        g = -(precisions @ diff[..., None])[..., 0]
        quad = -(diff * g).sum(axis=-1)
        logdet = np.linalg.slogdet(covs)[1]
    log_w_pdf = np.log(w) - 0.5 * (quad + logdet + prior.d * _LOG_2PI)
    return log_w_pdf, g, (covs, precisions)


def marginal_log_density(prior: GaussianMixturePrior, schedule: Schedule, x, t: int):
    """Log density of the time-t marginal mixture at x (batchable)."""
    log_w_pdf, _, _ = _component_stats(prior, schedule, x, t)
    return logsumexp(log_w_pdf, axis=-1)


def score(prior: GaussianMixturePrior, schedule: Schedule, x, t: int) -> np.ndarray:
    """Gradient of the log marginal density at x (batchable over leading axes)."""
    return step_at(prior, schedule, x, t).stats[2]


def tweedie_estimate(prior: GaussianMixturePrior, schedule: Schedule, x_t, t: int) -> np.ndarray:
    """Posterior mean E[x_0 | x_t], via Tweedie's formula on the exact score."""
    return step_at(prior, schedule, x_t, t).x0_hat


def tweedie_jacobian(prior: GaussianMixturePrior, schedule: Schedule, x_t, t: int) -> np.ndarray:
    """Exact d-by-d Jacobian of the Tweedie estimate at a single point.

    Uses the log-density Hessian ``H = sum_k r_k g_k g_k^T - s s^T -
    sum_k r_k C_k^{-1}``, giving ``J = (I + (1 - alpha_bar) H) / sqrt(alpha_bar)``.
    J is symmetric.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.ndim != 1:
        raise ValueError("tweedie_jacobian expects a single state vector")
    step = step_at(prior, schedule, x_t, t)
    resp, g, s = step.stats
    covs, precisions = step.marginal
    ab = schedule.alpha_bar_at(t)
    H = np.einsum("k,kd,ke->de", resp, g, g) - np.outer(s, s)
    if prior.diagonal:
        H -= np.diag(resp @ (1.0 / covs))
    else:
        H -= np.einsum("k,kde->de", resp, precisions)
    return (np.eye(prior.d) + (1.0 - ab) * H) / np.sqrt(ab)


def tweedie_jacobian_apply(step: Step, v: np.ndarray) -> np.ndarray:
    """Product J @ v at ``step``'s state without materializing J (J^T v = J v).

    Built from the mixture statistics and the marginal the :class:`Step`
    already holds, so neither the state nor the marginal is computed again.
    ``v`` has the state's shape: one vector, or one per row of a batch Step.
    Each row of a batch rounds exactly like that row alone: the products are
    stacked ``matmul`` calls, one BLAS call per row.
    """
    v = np.asarray(v, dtype=np.float64)
    if step.x.ndim > 2 or v.shape != step.x.shape:
        raise ValueError("tweedie_jacobian_apply expects one vector per state row")
    resp, g, s = step.stats
    covs, precisions = step.marginal
    ab = step.schedule.alpha_bar_at(step.t)
    col = v[..., :, None]
    Hv = ((resp * (g @ col)[..., 0])[..., None, :] @ g)[..., 0, :] - s * (s[..., None, :] @ col)[..., 0]
    Pv = v[..., None, :] / covs if precisions is None else (precisions @ v[..., None, :, None])[..., 0]
    Hv -= np.einsum("...k,...kd->...d", resp, Pv)
    return (v + (1.0 - ab) * Hv) / np.sqrt(ab)


def ddpm_mean(schedule: Schedule, x_t, t: int, score_value) -> np.ndarray:
    """Reverse-step mean: ``(x_t - beta/sqrt(1-alpha_bar) * eps_hat)/sqrt(alpha)``."""
    beta = schedule.beta_at(t)
    ab = schedule.alpha_bar_at(t)
    eps_hat = -np.sqrt(1.0 - ab) * np.asarray(score_value, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    return (x_t - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(schedule.alpha_at(t))


def ddpm_step(schedule: Schedule, x_t, t: int, noise, score_value) -> np.ndarray:
    """One reverse step ``mean + sigma_t * noise``; the t=1 step is noiseless."""
    x_t = np.asarray(x_t, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != x_t.shape:
        raise ValueError(f"noise shape {noise.shape} != state shape {x_t.shape}")
    mean = ddpm_mean(schedule, x_t, t, score_value)
    if t == 1:
        return mean
    return mean + schedule.sigma_at(t) * noise


def fresh_noise(steps) -> list:
    """Plain DDPM's noise hook: per batch Step, the keyed fresh Gaussian draw of each row at t.

    A draw depends only on the row's seed and t, so rows with equal seeds,
    on any schedule, share one draw, made once per call.
    """
    draws = {}
    for step in steps:
        for seed in step.seeds:
            if seed not in draws:
                key = StreamKey(seed, Domain.FRESH_NOISE, step.t, 0)
                draws[seed] = derive_stream(key).standard_normal(step.x.shape[-1])
    return [np.array([draws[seed] for seed in step.seeds]) for step in steps]


@dataclass(frozen=True)
class Step:
    """A state ``x`` at timestep ``t`` of ``schedule``, scored once; built by :func:`step_at`.

    ``stats`` are the mixture statistics ``(resp, g, s)`` at ``x`` and
    ``x0_hat`` their Tweedie estimate. ``marginal`` is ``(C, P)`` at ``t``:
    the covariances of :func:`marginal_params` and, for a full prior, their
    inverses, the precision matrices (``None`` if diagonal). A batch Step that
    :func:`reverse_loop` hands its hooks holds ``(n, d)`` states, one per
    loop row: ``rows`` lists those rows' indices and ``seeds`` their seeds,
    in row order. :func:`step_at` leaves both ``None``. Hooks take a Step
    whole and pick the rows they treat differently by position in it.
    """

    t: int
    x: np.ndarray
    x0_hat: np.ndarray
    stats: tuple
    marginal: tuple
    schedule: Schedule
    rows: tuple | None = None
    seeds: tuple | None = None


def step_at(prior: GaussianMixturePrior, schedule: Schedule, x, t: int) -> Step:
    """The :class:`Step` of state ``x`` at timestep ``t``: ``x`` scored once.

    The Tweedie estimate is ``(x + (1 - alpha_bar) s) / sqrt(alpha_bar)`` on
    the score ``s`` of those mixture statistics. A state whose marginal log
    density is not finite, such as one whose distance to every component
    overflows, has no score and raises ``ValueError``.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # a distance that overflows gives density 0
        log_w_pdf, g, marginal = _component_stats(prior, schedule, x, t)
    log_density = logsumexp(log_w_pdf, axis=-1, keepdims=True)
    if not np.isfinite(log_density).all():
        raise ValueError("the marginal log density at the state is not finite")
    resp = np.exp(log_w_pdf - log_density)
    s = np.einsum("...k,...kd->...d", resp, g)
    ab = schedule.alpha_bar_at(t)
    return Step(t, x, (x + (1.0 - ab) * s) / np.sqrt(ab), (resp, g, s), marginal, schedule)


def reverse_loop(prior: GaussianMixturePrior, rows, noise, shift=None) -> np.ndarray:
    """The reverse process of every row, in lockstep, from its keyed N(0, I) latent down to x_0.

    ``rows`` lists ``(schedule, seed)``: the row's schedule and the seed that
    keys its latent. All rows share ``prior`` and one ``(B, d)`` state, row i
    in row i; the rows on one schedule value form its group. The loop runs
    t = max T..1, aligned by t: a group joins at its own T. Per t, one
    ``step_at`` scores the rows of each group whose T >= t, into one batch
    :class:`Step` per live group, in the order of the groups' first rows:
    2-d ``x`` and ``x0_hat``, the group's statistics, marginal and schedule,
    and its rows' indices and seeds. ``noise`` (at t >= 2; the t = 1 step is
    noiseless) and then the optional ``shift`` are called once each with the
    tuple of those Steps, and return one ``(n, d)`` array per Step.
    ``ddpm_step`` moves each group's rows with its noise, refusing a noise
    whose shape is not the Step's state's; then the loop adds each shift,
    refusing a row whose shift's sum of squares is not finite with
    ``ValueError``. Hooks only read their Steps: only the latent draw,
    ``ddpm_step`` and the shifts write the state. The step's Steps and
    statistics are dropped before the next scoring. Returns the state x_0,
    row i in row i. Every row is bit-identical to a run of that row alone,
    and a single row (B = 1) is the plain reverse loop.
    """
    d = prior.d
    groups, x = {}, np.zeros((len(rows), d))  # each schedule -> its row indices, in order
    for i, (schedule, seed) in enumerate(rows):
        groups.setdefault(schedule, []).append(i)
        x[i] = derive_stream(StreamKey(seed, Domain.INIT_LATENT, schedule.T, 0)).standard_normal(d)
    named = {sch: (np.array(idx), tuple(idx), tuple(rows[i][1] for i in idx)) for sch, idx in groups.items()}
    for t in range(max((schedule.T for schedule in groups), default=0), 0, -1):
        steps, indices = [], []
        for sch, (index, idx, seeds) in named.items():
            if sch.T >= t:  # x[index] is a copy of x_t, which the Step keeps: x moves on below
                s = step_at(prior, sch, x[index], t)
                steps.append(Step(t, s.x, s.x0_hat, s.stats, s.marginal, sch, idx, seeds))
                indices.append(index)
        steps = tuple(steps)
        eps = noise(steps) if t >= 2 else [np.zeros_like(step.x) for step in steps]
        for step, index, e in zip(steps, indices, eps, strict=True):
            x[index] = ddpm_step(step.schedule, step.x, t, e, step.stats[2])
        if shift is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused here
                for index, delta in zip(indices, shift(steps), strict=True):
                    if not np.isfinite(delta[:, None, :] @ delta[:, :, None]).all():
                        raise ValueError("the norm of a row's mean shift is not finite")
                    x[index] += delta
        del steps, step, s, eps, e  # free this step's statistics and noise before the next is scored
    return x


def unconditional_sample(
    prior: GaussianMixturePrior, schedule: Schedule, seed: int
) -> np.ndarray:
    """Plain DDPM sampling: the reverse loop with fresh keyed noise."""
    return reverse_loop(prior, [(schedule, seed)], fresh_noise)[0]
