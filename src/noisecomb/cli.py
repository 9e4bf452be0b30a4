"""Command-line surface: sampling, solving, compression, and benchmarks.

Commands consume a JSON experiment config and emit CSV (metrics, benchmark
rows) or binary artifacts (bitstreams, reconstructions). All outputs are
reproducible byte-for-byte from config + seed; the ``wall_ms`` column of a
solve CSV is always zero.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 format error.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import sys
import time
from dataclasses import replace

import numpy as np

from .codec import (
    HEADER_BYTES,
    MAX_C,
    MAX_D,
    MAX_ENCODE_WORK,
    Bitstream,
    CodecHeader,
    FormatError,
    build_registered_prior,
    compress,
    decompress,
    report_bpp,
)
from .diffusion import GaussianMixturePrior, Schedule, fresh_noise, reverse_loop
from .operators import make_observation, operator_from_config
from .quantizer import QUANTIZERS, Grid, quantize_greedy_exponential, stick_objective
from .rng import Domain, StreamKey, derive_stream
from .solvers import SolverConfig, solve_rows

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


# The keys each config object may hold; any other key is a config error, so a
# misspelt key cannot silently run with the default.
_SAMPLE_KEYS = {"prior", "schedule", "T", "seeds", "dump"}
_SOLVE_KEYS = {
    "prior", "schedule", "task", "solvers", "T", "K", "m", "zeta", "lambda", "seeds",
}
_PRESET_PRIOR_KEYS = {"preset_id", "d"}
_INLINE_PRIOR_KEYS = {"weights", "means", "variances", "covariances"}
_TASK_KEYS = {"name", "operator", "sigma_obs"}
_SCHEDULE_KEYS = {"beta_min", "beta_max"}
_COMPRESS_KEYS = {"prior_id", "schedule", "T", "K", "m", "C", "seed", "n_side", "quantizer"}
_BENCH_QUANT_KEYS = {"m_values", "C_values", "batch", "seed", "budget"}

# The most score vectors one bench-quant cell may draw: a larger batch is a
# config error, so no config can make the score batches grow without bound.
_MAX_BENCH_BATCH = 1 << 12

# The most quantizer work one bench-quant config may ask for: ``batch`` times the
# sum over its cells of the dynamic program's m * 2^C and, where it runs, the
# exhaustive search's (2^C)^(m - 1). A larger total is a config error, so no
# config runs without a time bound. configs/bench_quant.json asks for 391,680;
# the bound is some 50 s of exhaustive search on a 2-core x86_64 host.
_MAX_BENCH_WORK = 1 << 22

# The largest config file, in bytes: a larger one is a config error, found by
# reading one byte past the bound, so no config file is read without bound.
_MAX_CONFIG_BYTES = 1 << 22

# The most rows x components x dimensions one lockstep ``sample`` or ``solve``
# batch may hold: scoring keeps some 36 bytes per unit, so the bound is some
# 600 MiB. A larger batch is a config error, found before any seed is drawn.
# configs/solve_inpaint.json asks for 80 x 8 x 16 = 10,240.
_MAX_BATCH = 1 << 24


class ConfigError(ValueError):
    """The experiment config is missing fields or malformed."""


def _known_keys(cfg: dict, keys: set, where: str) -> None:
    unknown = sorted(set(cfg) - keys)
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise ConfigError(f"{where}: unknown key {names}; known keys: {', '.join(sorted(keys))}")


def _require(cfg: dict, field: str, where: str = "config"):
    if field not in cfg:
        raise ConfigError(f"{where}: missing required field {field!r}")
    return cfg[field]


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    return value


def _typed(kind, value, where: str, lo=None, hi=None):
    """``value`` read as ``kind`` within ``[lo, hi]``; the one reader of config scalars.

    An int is read with ``operator.index``, so ``5.7`` and ``"5"`` are refused
    rather than truncated or parsed; a float only from a finite number; a str
    only from a string. A bool is none of them.
    """
    try:
        if isinstance(value, bool) or (kind is not int and isinstance(value, str) != (kind is str)):
            raise TypeError
        out = operator.index(value) if kind is int else kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}") from None
    if kind is float and not np.isfinite(out):
        raise ConfigError(f"{where}: must be finite, got {out}")
    if (lo is not None and out < lo) or (hi is not None and out > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{where}: must be {bound}, got {out}")
    return out


def _int_list(values, where: str, lo: int, hi: int, offset: int = 0) -> list:
    """A nonempty list of integers, each plus ``offset`` within ``[lo, hi]``."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}: must be a nonempty list")
    return [_typed(int, v, where, lo - offset, hi - offset) + offset for v in values]


def load_config(path: str) -> dict:
    data = bytearray()
    with open(path, "rb") as fh:  # in chunks: one read of the bound would allocate all of it
        while len(data) <= _MAX_CONFIG_BYTES and (chunk := fh.read(1 << 16)):
            data += chunk
    if len(data) > _MAX_CONFIG_BYTES:
        raise ConfigError(f"{path}: larger than the config size bound of {_MAX_CONFIG_BYTES} bytes")
    try:
        cfg = json.loads(data)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8 text, or nested too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return _object(cfg, path)


def _registered_prior(prior_id, d) -> GaussianMixturePrior:
    """The registry prior a config names; an unknown id or a d above ``MAX_D`` is a config error."""
    prior_id = _typed(int, prior_id, "prior id")
    d = _typed(int, d, "d", 1)
    if d > MAX_D:
        raise ConfigError(f"d = {d} exceeds the dimension bound {MAX_D}")
    try:
        return build_registered_prior(prior_id, d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def prior_from_config(spec: dict) -> GaussianMixturePrior:
    """A registered preset ``{preset_id, d}`` or ``{weights, means, variances | covariances}``."""
    _object(spec, "prior")
    if "preset_id" in spec:
        _known_keys(spec, _PRESET_PRIOR_KEYS, "prior")
        return _registered_prior(spec["preset_id"], _require(spec, "d", "prior"))
    _known_keys(spec, _INLINE_PRIOR_KEYS, "prior")
    weights = _require(spec, "weights", "prior")
    means = _require(spec, "means", "prior")
    try:
        return GaussianMixturePrior(
            weights=weights,
            means=means,
            variances=spec.get("variances"),
            covariances=spec.get("covariances"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"prior: {exc}") from exc


def _schedule_from_config(spec: dict, T: int):
    _known_keys(_object(spec, "schedule"), _SCHEDULE_KEYS, "schedule")
    beta_min = _typed(float, spec.get("beta_min", 1e-4), "schedule: beta_min")
    beta_max = _typed(float, spec.get("beta_max", 0.02), "schedule: beta_max")
    try:
        return Schedule(T, beta_min, beta_max)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.mean((a - b) ** 2))


def psnr(mse_value: float) -> float:
    """PSNR in dB for data in [-1, 1], whose range is 2."""
    if mse_value == 0:
        return float("inf")
    return float(10.0 * np.log10(4.0 / mse_value))


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


def _seeds(cfg: dict, seed_offset: int = 0) -> list:
    return _int_list(_require(cfg, "seeds"), "seeds", 0, 2**64 - 1, seed_offset)


def _t_values(cfg: dict) -> list:
    ts = _require(cfg, "T")  # stream keys hold t in 16 bits
    return _int_list([ts] if isinstance(ts, int) else ts, "T", 1, 2**16 - 1)


def _check_batch(rows: int, prior: GaussianMixturePrior) -> None:
    """Refuse a lockstep batch whose rows x components x dimensions exceed ``_MAX_BATCH``."""
    size = rows * prior.n_components * prior.d
    if size > _MAX_BATCH:
        raise ConfigError(f"rows*k*d = {size} exceeds the batch bound {_MAX_BATCH}")


def cmd_sample(cfg: dict, out: str) -> list:
    """Unconditional samples per (seed, T): moment summary CSV plus a dump.

    The whole (T, seed) grid is one lockstep ``reverse_loop`` with one row
    per sample, run in CSV row order, ``fresh_noise`` as its noise hook and
    no mean shift; a check that fails inside it, such as a non-finite state,
    is a config error.
    """
    _known_keys(cfg, _SAMPLE_KEYS, "config")
    prior = prior_from_config(_require(cfg, "prior"))
    schedule_spec = cfg.get("schedule", {})
    seeds = _seeds(cfg)
    dump = cfg.get("dump")
    if dump is not None and not isinstance(dump, str):
        raise ConfigError(f"dump: expected a file name, got {dump!r}")
    t_values = _t_values(cfg)
    _check_batch(len(t_values) * len(seeds), prior)
    schedules = {T: _schedule_from_config(schedule_spec, T) for T in t_values}
    grid = [(T, seed) for T in sorted(t_values) for seed in sorted(seeds)]  # CSV row order
    try:
        samples = reverse_loop(prior, [(schedules[T], seed) for T, seed in grid], fresh_noise)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [
        (seed, T, float(x.mean()), float(x.var()), float(x.min()), float(x.max()))
        for (T, seed), x in zip(grid, samples)
    ]
    _write_csv(out, ["seed", "T", "mean", "var", "min", "max"], rows)
    if dump:
        np.save(dump, samples)
    return rows


def cmd_solve(cfg: dict, out: str, seed_offset: int = 0) -> list:
    """Run the (solver x T x seed) grid against one task; write metric rows.

    The whole config is read, and checked, before the first solve runs. Each
    seed's ground truth and observation are drawn once. The grid is one
    lockstep ``solve_rows`` call (see :mod:`noisecomb.solvers`); a check
    that fails inside it, such as a non-finite direction, is a config
    error. Every row's ``wall_ms`` is 0.0. Rows are sorted by ``(solver,
    task, T, seed)``, so the CSV does not depend on the run order.
    """
    _known_keys(cfg, _SOLVE_KEYS, "config")
    prior = prior_from_config(_require(cfg, "prior"))
    task = _object(_require(cfg, "task"), "task")
    _known_keys(task, _TASK_KEYS, "task")
    solvers = _require(cfg, "solvers")
    if not isinstance(solvers, list) or not solvers:
        raise ConfigError("solvers: must be a nonempty list")
    schedule_spec = cfg.get("schedule", {})
    seeds = _seeds(cfg, seed_offset)
    t_values = _t_values(cfg)
    schedules = {T: _schedule_from_config(schedule_spec, T) for T in t_values}
    sigma_obs = _typed(float, task.get("sigma_obs", 0.05), "task: sigma_obs", 0.0)
    m = cfg.get("m")
    K = _typed(int, cfg.get("K", 64), "K")
    work = max(t_values) * K * prior.d  # the codebook normals of the longest solve
    if work > MAX_ENCODE_WORK:
        raise ConfigError(f"max(T)*K*d = {work} exceeds the work bound {MAX_ENCODE_WORK}")
    _check_batch(len(seeds) * len(t_values) * len(solvers), prior)
    try:
        op_spec = _object(_require(task, "operator", "task"), "task: operator")
        op = operator_from_config(op_spec, prior.d)
        configs = [
            SolverConfig(
                solver=solver_name,
                K=K,
                m=None if m is None else _typed(int, m, "m"),
                zeta=_typed(float, cfg.get("zeta", 1.0), "zeta"),
                lam=_typed(float, cfg.get("lambda", 0.1), "lambda"),
            )
            for solver_name in solvers
        ]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    task_name = _typed(str, task.get("name", op.kind), "task: name")
    grid, jobs = [], []
    for seed in seeds:
        x0 = prior.sample(derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))
        noise = derive_stream(StreamKey(seed, Domain.OBSERVATION_NOISE, 0, 0))
        obs = make_observation(x0, op, sigma_obs, noise)
        for T in t_values:
            for config in configs:
                grid.append((seed, T, x0))
                jobs.append((schedules[T], obs, replace(config, seed=seed)))
    try:
        results = solve_rows(prior, jobs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = []
    for (seed, T, x0), (_, _, config), result in zip(grid, jobs, results):
        err = mse(result.x0, x0)
        m_used = config.m if config.m is not None else config.K
        rows.append((seed, config.solver, task_name, T, config.K, m_used, err,
                     psnr(err), 0.0, result.degenerate_steps))
    rows.sort(key=lambda r: (r[1], r[2], r[3], r[0]))
    _write_csv(out, METRIC_COLUMNS, rows)
    return rows


def _load_signal(path: str) -> np.ndarray:
    """The real array stored in the ``.npy`` file at ``path``; anything else is an I/O error.

    The file is mapped before it is copied, so a header that declares more
    data than the file holds is refused before anything is allocated for it.
    """
    try:
        x = np.array(np.lib.format.open_memmap(path, mode="r"))
        if x.dtype.kind not in "biuf":
            raise ValueError(f"dtype {x.dtype} is not real")
    except ValueError as exc:
        raise OSError(f"{path}: not a .npy array of real numbers: {exc}") from exc
    return x


def cmd_compress(cfg: dict, input_path: str, out: str, recon_path: str | None = None) -> dict:
    """Encode a raw float vector; print BPP and wall time."""
    _known_keys(cfg, _COMPRESS_KEYS, "config")
    x0 = _load_signal(input_path)
    if x0.ndim != 1:
        raise ConfigError(f"input signal must be 1-d, got shape {x0.shape}")
    prior_id = _typed(int, _require(cfg, "prior_id"), "prior_id")
    prior = _registered_prior(prior_id, len(x0))
    T = _typed(int, _require(cfg, "T"), "T")
    schedule = _schedule_from_config(cfg.get("schedule", {}), T)
    start = time.perf_counter()
    try:
        result = compress(
            x0,
            prior,
            schedule,
            seed=_typed(int, cfg.get("seed", 0), "seed"),
            K=_typed(int, _require(cfg, "K"), "K"),
            m=_typed(int, _require(cfg, "m"), "m"),
            C=_typed(int, _require(cfg, "C"), "C"),
            n_side=_typed(int, cfg.get("n_side", max(1, round(np.sqrt(len(x0))))), "n_side"),
            prior_id=prior_id,
            quantizer=_typed(str, cfg.get("quantizer", "dp"), "quantizer"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    wall_ms = (time.perf_counter() - start) * 1e3
    with open(out, "wb") as fh:
        fh.write(result.stream.to_bytes())
    if recon_path:
        np.save(recon_path, result.reconstruction)
    info = {
        "bpp": report_bpp(result.stream),
        "payload_bits": result.stream.header.payload_bits,
        "wall_ms": wall_ms,
        "degenerate_steps": result.degenerate_steps,
        "mse": mse(result.reconstruction, x0),
    }
    print(f"bpp={info['bpp']:.6f} payload_bits={info['payload_bits']} wall_ms={wall_ms:.1f}")
    return info


def cmd_decompress(input_path: str, out: str) -> dict:
    """Decode a bitstream file into a reconstruction vector.

    The file is read no further than one byte past the payload its header
    declares, so a file with trailing bytes is refused without reading them.
    """
    with open(input_path, "rb") as fh:
        data = fh.read(HEADER_BYTES)
        data += fh.read(-(-CodecHeader.unpack(data).payload_bits // 8) + 1)
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
    _known_keys(cfg, _BENCH_QUANT_KEYS, "config")
    m_values = _int_list(cfg.get("m_values", [2, 4, 8, 16, 32]), "m_values", 1, 255)
    c_values = _int_list(cfg.get("C_values", [3]), "C_values", 0, MAX_C)
    batch = _typed(int, cfg.get("batch", 64), "batch", 1, _MAX_BENCH_BATCH)
    seed = _typed(int, cfg.get("seed", 0), "seed", 0, 2**64 - 1)
    budget = _typed(int, cfg.get("budget", 1_000_000), "budget")
    for name, values in (("m_values", m_values), ("C_values", c_values)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{name}: repeats a value: {values}")
    cells = [(C, m, (1 << C) ** (m - 1)) for C in c_values for m in m_values]  # with the search's cost
    work = batch * sum((m << C) + (cost if cost <= budget else 0) for C, m, cost in cells)
    if work > _MAX_BENCH_WORK:
        raise ConfigError(f"bench-quant work {work} exceeds the work bound {_MAX_BENCH_WORK}")
    rows = []
    for C, m, cost in cells:
        grid = Grid(C)
        scores = _bench_scores(seed, m, batch)
        methods = dict(QUANTIZERS)
        if cost <= budget:
            methods["greedy"] = lambda b, grid: quantize_greedy_exponential(b, grid, budget)[0]
        for name, quantize in methods.items():
            start = time.perf_counter_ns()
            codes = [quantize(b, grid) for b in scores]
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

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        return p

    common(sub.add_parser("sample", help="unconditional samples + moment summaries"))
    p = common(sub.add_parser("solve", help="solver quality grid -> metric CSV"))
    p.add_argument("--seed-offset", type=int, default=0)

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
            cmd_sample(load_config(args.config), args.out)
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
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
