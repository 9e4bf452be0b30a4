"""Command-line surface: sampling, solving, compression, and benchmarks.

Commands consume a JSON experiment config and emit CSV (metrics, benchmark
rows) or binary artifacts (bitstreams, reconstructions). All outputs are
reproducible byte-for-byte from config + seed; wall-clock columns are zero
unless the config opts in with ``"timing": true``.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 format error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from .codec import (
    Bitstream,
    FormatError,
    PriorRegistryError,
    build_registered_prior,
    compress,
    decompress,
    report_bpp,
)
from .diffusion import GaussianMixturePrior, build_schedule, unconditional_sample
from .operators import make_observation, operator_from_config
from .quantizer import (
    BudgetExceededError,
    fractions_from_scores,
    make_grid,
    quantize_dp,
    quantize_greedy_exponential,
    quantize_nn,
    quantize_stagewise,
    stick_objective,
)
from .rng import Domain, StreamKey, derive_stream
from .solvers import TASK_K_PRESETS, SolverConfig, solve

__all__ = [
    "ConfigError",
    "load_config",
    "prior_from_config",
    "mse",
    "psnr",
    "cmd_sample",
    "cmd_solve",
    "cmd_compress",
    "cmd_decompress",
    "cmd_bench_quant",
    "main",
]

METRIC_COLUMNS = [
    "seed",
    "solver",
    "task",
    "T",
    "K",
    "m",
    "mse",
    "psnr",
    "wall_ms",
    "degenerate_steps",
]


class ConfigError(ValueError):
    """The experiment config is missing fields or malformed."""


def _require(cfg: dict, field: str, where: str = "config"):
    if field not in cfg:
        raise ConfigError(f"{where}: missing required field {field!r}")
    return cfg[field]


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def prior_from_config(spec: dict) -> GaussianMixturePrior:
    """Inline mixture parameters or a registered preset id."""
    if not isinstance(spec, dict):
        raise ConfigError("prior: expected an object")
    if "preset_id" in spec:
        d = _require(spec, "d", "prior")
        return build_registered_prior(int(spec["preset_id"]), int(d))
    weights = np.asarray(_require(spec, "weights", "prior"), dtype=np.float64)
    means = np.asarray(_require(spec, "means", "prior"), dtype=np.float64)
    try:
        if "covariances" in spec:
            return GaussianMixturePrior(
                weights=weights,
                means=means,
                covariances=np.asarray(spec["covariances"], dtype=np.float64),
            )
        variances = np.asarray(_require(spec, "variances", "prior"), dtype=np.float64)
        return GaussianMixturePrior(weights=weights, means=means, variances=variances)
    except ValueError as exc:
        raise ConfigError(f"prior: {exc}") from exc


def _schedule_from_config(spec: dict, T: int):
    try:
        return build_schedule(
            T,
            beta_min=float(spec.get("beta_min", 1e-4)),
            beta_max=float(spec.get("beta_max", 0.02)),
            kind=spec.get("kind", "linear"),
        )
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def _resolve_k(value) -> int:
    """Codebook size: an integer, or a named task preset like 'inpaint_box'."""
    if isinstance(value, str):
        try:
            return TASK_K_PRESETS[value]
        except KeyError:
            raise ConfigError(
                f"K: unknown preset {value!r}; choose from {sorted(TASK_K_PRESETS)}"
            ) from None
    return int(value)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.mean((a - b) ** 2))


def psnr(mse_value: float, data_range: float = 2.0) -> float:
    if mse_value == 0:
        return float("inf")
    return float(10.0 * np.log10(data_range * data_range / mse_value))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _seeds(cfg: dict, seed_offset: int) -> list:
    seeds = _require(cfg, "seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds: must be a nonempty list")
    return [int(s) + seed_offset for s in seeds]


def _t_values(cfg: dict) -> list:
    ts = _require(cfg, "T")
    if isinstance(ts, int):
        ts = [ts]
    if not isinstance(ts, list) or not ts:
        raise ConfigError("T: must be an integer or nonempty list")
    return [int(t) for t in ts]


def cmd_sample(cfg: dict, out: str, seed_offset: int = 0) -> list:
    """Unconditional samples per (seed, T): moment summary CSV plus a dump."""
    prior = prior_from_config(_require(cfg, "prior"))
    schedule_spec = cfg.get("schedule", {})
    seeds = _seeds(cfg, seed_offset)
    results = [
        (T, seed, unconditional_sample(prior, _schedule_from_config(schedule_spec, T), seed))
        for T in _t_values(cfg)
        for seed in seeds
    ]
    results.sort(key=lambda r: (r[0], r[1]))
    rows = [
        (seed, T, float(x.mean()), float(x.var()), float(x.min()), float(x.max()))
        for T, seed, x in results
    ]
    _write_csv(out, ["seed", "T", "mean", "var", "min", "max"], rows)
    dump = cfg.get("dump")
    if dump:
        np.save(dump, np.stack([x for _, _, x in results]))
    return rows


def _solver_result(prior, schedule_spec, task, cfg, solver_name, T, seed, timing):
    schedule = _schedule_from_config(schedule_spec, T)
    d = prior.d
    x0 = prior.sample(1, derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))[0]
    try:
        op = operator_from_config(_require(task, "operator", "task"), d)
        config = SolverConfig(
            solver=solver_name,
            T=T,
            K=_resolve_k(cfg.get("K", 64)),
            m=cfg.get("m"),
            seed=seed,
            zeta=float(cfg.get("zeta", 1.0)),
            lam=float(cfg.get("lambda", 0.1)),
            fallback=cfg.get("fallback", "FreshNoise"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sigma_obs = float(task.get("sigma_obs", 0.05))
    obs = make_observation(
        x0, op, sigma_obs, derive_stream(StreamKey(seed, Domain.OBSERVATION_NOISE, 0, 0))
    )
    start = time.perf_counter() if timing else 0.0
    result = solve(prior, schedule, obs, config)
    wall_ms = (time.perf_counter() - start) * 1e3 if timing else 0.0
    err = mse(result.x0, x0)
    task_name = task.get("name", op.kind)
    return (
        seed,
        solver_name,
        task_name,
        T,
        config.K,
        config.m if config.m is not None else config.K,
        err,
        psnr(err, float(cfg.get("psnr_range", 2.0))),
        wall_ms,
        result.degenerate_steps,
    )


def cmd_solve(cfg: dict, out: str, seed_offset: int = 0) -> list:
    """Run the (solver x T x seed) grid against one task; write metric rows."""
    prior = prior_from_config(_require(cfg, "prior"))
    task = _require(cfg, "task")
    solvers = _require(cfg, "solvers")
    if not isinstance(solvers, list) or not solvers:
        raise ConfigError("solvers: must be a nonempty list")
    schedule_spec = cfg.get("schedule", {})
    seeds = _seeds(cfg, seed_offset)
    t_values = _t_values(cfg)
    timing = bool(cfg.get("timing", False))
    rows = [
        _solver_result(prior, schedule_spec, task, cfg, solver_name, T, seed, timing)
        for solver_name in solvers
        for T in t_values
        for seed in seeds
    ]
    rows.sort(key=lambda r: (r[1], r[2], r[3], r[0]))
    _write_csv(out, METRIC_COLUMNS, rows)
    return rows


def cmd_compress(cfg: dict, input_path: str, out: str, recon_path: str | None = None) -> dict:
    """Encode a raw float vector; print BPP and wall time."""
    x0 = np.load(input_path)
    if x0.ndim != 1:
        raise ConfigError(f"input signal must be 1-d, got shape {x0.shape}")
    prior_id = int(_require(cfg, "prior_id"))
    prior = build_registered_prior(prior_id, len(x0))
    T = int(_require(cfg, "T"))
    schedule = _schedule_from_config(cfg.get("schedule", {}), T)
    start = time.perf_counter()
    try:
        result = compress(
            x0,
            prior,
            schedule,
            seed=int(cfg.get("seed", 0)),
            K=_resolve_k(_require(cfg, "K")),
            m=int(_require(cfg, "m")),
            C=int(_require(cfg, "C")),
            n_side=int(cfg.get("n_side", max(1, round(np.sqrt(len(x0)))))),
            prior_id=prior_id,
            quantizer=cfg.get("quantizer", "dp"),
        )
    except (ValueError, BudgetExceededError) as exc:
        raise ConfigError(str(exc)) from exc
    wall_ms = (time.perf_counter() - start) * 1e3
    with open(out, "wb") as fh:
        fh.write(result.stream.to_bytes())
    if recon_path:
        np.save(recon_path, result.reconstruction)
    info = {
        "bpp": report_bpp(result.stream),
        "payload_bits": result.stream.payload_bit_length,
        "wall_ms": wall_ms,
        "degenerate_steps": result.degenerate_steps,
        "mse": mse(result.reconstruction, x0),
    }
    print(f"bpp={info['bpp']:.6f} payload_bits={info['payload_bits']} wall_ms={wall_ms:.1f}")
    return info


def cmd_decompress(input_path: str, out: str) -> dict:
    """Decode a bitstream file into a reconstruction vector."""
    with open(input_path, "rb") as fh:
        data = fh.read()
    stream = Bitstream.from_bytes(data)
    start = time.perf_counter()
    x = decompress(stream)
    wall_ms = (time.perf_counter() - start) * 1e3
    np.save(out, x)
    info = {"bpp": report_bpp(stream), "wall_ms": wall_ms}
    print(f"bpp={info['bpp']:.6f} wall_ms={wall_ms:.1f}")
    return info


def _bench_scores(seed: int, m: int, batch: int) -> list:
    """Shared random descending nonnegative score batches."""
    out = []
    for j in range(batch):
        stream = derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, j))
        b = np.sort(np.abs(stream.standard_normal(m)))[::-1]
        out.append(b)
    return out


def cmd_bench_quant(cfg: dict, out: str) -> list:
    """Time the quantizers on identical score batches; one CSV row per cell."""
    m_values = [int(v) for v in cfg.get("m_values", [2, 4, 8, 16, 32])]
    c_values = [int(v) for v in cfg.get("C_values", [3])]
    batch = int(cfg.get("batch", 64))
    seed = int(cfg.get("seed", 0))
    budget = int(cfg.get("budget", 1_000_000))
    rows = []
    for C in c_values:
        grid = make_grid(C)
        for m in m_values:
            scores = _bench_scores(seed, m, batch)
            methods = {
                "nn": lambda b: quantize_nn(fractions_from_scores(b), grid),
                "stagewise": lambda b: quantize_stagewise(b, grid),
                "dp": lambda b: quantize_dp(b, grid)[0],
            }
            if grid.levels ** (m - 1) <= budget:
                methods["greedy"] = lambda b: quantize_greedy_exponential(b, grid, budget)[0]
            for name, fn in methods.items():
                start = time.perf_counter_ns()
                codes = [fn(b) for b in scores]
                wall_ns = time.perf_counter_ns() - start
                objective = float(
                    np.mean([stick_objective(b, code, grid) for b, code in zip(scores, codes)])
                )
                rows.append((name, m, C, wall_ns, objective))
    _write_csv(out, ["method", "m", "C", "wall_ns", "objective"], rows)
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisecomb")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required)
        p.add_argument("--out", required=True)
        p.add_argument("--seed-offset", type=int, default=0)

    common(sub.add_parser("sample", help="unconditional samples + moment summaries"))
    common(sub.add_parser("solve", help="solver quality grid -> metric CSV"))

    p = sub.add_parser("compress", help="encode a raw float vector")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--recon", default=None, help="also dump the encoder-side reconstruction")

    p = sub.add_parser("decompress", help="decode a bitstream file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench-quant", help="quantizer time/quality benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sample":
            cmd_sample(load_config(args.config), args.out, args.seed_offset)
        elif args.command == "solve":
            cmd_solve(load_config(args.config), args.out, args.seed_offset)
        elif args.command == "compress":
            cmd_compress(load_config(args.config), args.input, args.out, args.recon)
        elif args.command == "decompress":
            cmd_decompress(args.input, args.out)
        elif args.command == "bench-quant":
            cmd_bench_quant(load_config(args.config), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, PriorRegistryError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
