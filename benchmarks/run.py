"""Benchmark of noisecomb: codec encode/decode and the solve grid.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload codec-hd --seed 0 --seconds 20 --trace 0

Workloads are defined in ``benchmarks/workloads.json`` (parameters, why each
was chosen, which layers it stresses, computed kernel counts and the output
digests recorded for seed 0). Each run starts worker processes
(``worker.py``), one after another, with ``src`` on ``PYTHONPATH`` and BLAS /
OpenMP pinned to one thread:

* set-up probes, each timed from process start until it is ready for its
  first op; ``setup_s`` is the median over the probes and the timed workers;
* the timed worker(s): ``--trace 0`` runs untraced ops for ``--seconds`` (and
  at least the workload's ``min_ops``) and reports the end-to-end metrics;
  ``--trace 1`` runs a fixed number of ops, untraced and traced in
  alternating pairs, and reports per-layer metrics per traced op plus the
  tracing overhead (traced over untraced median op time, minus one).

Every op is checked (bit-exact decode, payload length, seed-0 digests, CSV
shape); an exception or a failed check counts the op as failed. Detail lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
with the run environment and every sample, goes to
``.bench_out/results/<workload>-seed<seed>-trace<0|1>.json``.

Without ``src/noisecomb`` and ``configs`` in the working directory the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
WORKER_TIMEOUT_S = 170.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not run here; no result is printed."""


def tail(values):
    """``(value, percentile)``: the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} samples cannot give a tail with 10 samples beyond it")
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_worker(root: Path, env: dict, args: list) -> tuple:
    """Start one worker; return ``(setup seconds, result dict or None)``.

    Set-up time runs from just before the process is started until it prints
    ``READY``. The worker is always waited for, and killed on timeout.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            proc.wait(timeout=WORKER_TIMEOUT_S)
            raise BenchError(f"worker {' '.join(args)} did not get ready (exit {proc.returncode})")
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def git_sha(root: Path):
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def environment(root: Path, versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "noisecomb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        **versions,
        "git_sha": git_sha(root),
        "src_sha256": digest.hexdigest(),
        "thread_env": THREAD_ENV,
    }


def merge_ops(results: list) -> list:
    """Join the per-process records of each op index into one op."""
    merged: dict = {}
    for res in results:
        for rec in res["ops"]:
            op = merged.setdefault(rec["i"], {"i": rec["i"], "ok": True, "errors": []})
            op["ok"] = op["ok"] and rec["ok"]
            if rec["error"]:
                op["errors"].append(rec["error"])
            for key in ("enc_s", "dec_s", "grid_s", "psnr", "traced", "solver_pass"):
                if key in rec:
                    op[key] = rec[key]
            op["seen"] = op.get("seen", 0) + 1
    ops = [merged[i] for i in sorted(merged)]
    for op in ops:
        if op.pop("seen") != len(results):
            op["ok"] = False
            op["errors"].append("op missing from one of the workload's processes")
    return ops


def op_seconds(op: dict) -> float:
    return op.get("grid_s", 0.0) + op.get("enc_s", 0.0) + op.get("dec_s", 0.0)


def time_metrics(spec: dict, ops: list, results: list, setups: list) -> tuple:
    """End-to-end metrics plus detail metrics, each ``(value, unit)``."""
    op_ms = [op_seconds(op) * 1e3 for op in ops]
    tail_ms, tail_pct = tail(op_ms)
    first = ops[: spec["min_ops"]]
    failed = sum(not op["ok"] for op in ops)
    metrics = {
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(res["peak_rss_mib"] for res in results), "MiB"),
        # failed ops carry no psnr; they already fail the run
        "psnr_db": (statistics.fmean([op["psnr"] for op in first if "psnr" in op] or [0.0]), "dB"),
        "ok_frac": ((len(ops) - failed) / len(ops), "frac"),
    }
    detail = {
        "op_tail_percentile": (tail_pct, "pct"),
        "op_samples": (len(ops), "count"),
        "failed_frac": (failed / len(ops), "frac"),
        "setup_samples": (len(setups), "count"),
    }
    if spec["roles"] == ["solve"]:
        parts = {"grid_s": ("grid_s", 1.0, "s")}
    else:
        parts = {"encode_ms": ("enc_s", 1e3, "ms"), "decode_ms": ("dec_s", 1e3, "ms")}
    for name, (key, scale, unit) in parts.items():
        values = [op[key] * scale for op in ops if key in op]
        if len(values) <= 10:  # failed ops left too few samples for a tail
            continue
        value, pct = tail(values)
        detail[f"{name}_p50"] = (statistics.median(values), unit)
        detail[f"{name}_tail"] = (value, unit)
        detail[f"{name}_tail_percentile"] = (pct, "pct")
    return metrics, detail


def trace_metrics(ops: list, results: list) -> tuple:
    """Per-layer metrics per traced op, plus the tracing overhead."""
    traced = [op for op in ops if op.get("traced") and "solver_pass" not in op]
    n = len(traced)
    stats: dict = {}
    builds = distinct = 0
    groups: dict = {}
    for res in results:
        tr = res["trace"]
        for name, s in tr["stats"].items():
            agg = stats.setdefault(name, {"calls": 0, "raised": 0, "self_s": 0.0, "work": 0})
            for key in agg:
                agg[key] += s[key]
        # distinct keys are counted per process: no cache outlives one
        builds += tr["codebook_builds"]
        distinct += tr["codebook_distinct"]
        for label, split in tr["groups"].items():
            g = groups.setdefault(label, {})
            for key, value in split.items():
                g[key] = g.get(key, 0.0) + value

    metrics = {}
    for name, s in stats.items():
        metrics[f"{name}.calls"] = (s["calls"] / n, "count")
        metrics[f"{name}.self_s"] = (s["self_s"] / n, "s")
    metrics["rng.ndtri.values"] = (stats["rng.ndtri"]["work"] / n, "count")
    metrics["rng.NoiseStream.raw.words"] = (stats["rng.NoiseStream.raw"]["work"] / n, "count")
    metrics["rng.build_codebook.distinct_frac"] = (distinct / builds if builds else 0.0, "frac")
    weights_calls = stats["combination.optimal_weights"]["calls"] + stats["combination.top_m_weights"]["calls"]
    weights_raised = stats["combination.optimal_weights"]["raised"] + stats["combination.top_m_weights"]["raised"]
    metrics["combination.degenerate_frac"] = (weights_raised / weights_calls if weights_calls else 0.0, "frac")

    def ratio(ncs, base):
        a, b = groups.get(ncs, {}).get("solve_s", 0.0), groups.get(base, {}).get("solve_s", 0.0)
        return a / b if b else 0.0

    metrics["solvers.ncs_dps_over_dps"] = (ratio("NCS-DPS", "DPS"), "ratio")
    metrics["solvers.ncs_mpgd_over_mpgd"] = (ratio("NCS-MPGD", "MPGD"), "ratio")
    ncs = [g for label, g in groups.items() if label.startswith("NCS-")]
    metrics["solvers.ncs.codebook_s"] = (sum(g["rng"] for g in ncs) / n, "s")
    metrics["solvers.ncs.combination_s"] = (sum(g["combination"] for g in ncs) / n, "s")

    untraced = [op_seconds(op) for op in ops if not op.get("traced")]
    overhead = statistics.median(op_seconds(op) for op in traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    detail = {
        "traced_ops": (n, "count"),
        "untraced_ops": (len(untraced), "count"),
        "traced_op_s_p50": (statistics.median(op_seconds(op) for op in traced), "s"),
        "untraced_op_s_p50": (statistics.median(untraced), "s"),
        "codebook_builds": (builds / n, "count"),
        "codebook_distinct": (distinct / n, "count"),
        "ndtri_bytes_computed": (16 * stats["rng.ndtri"]["work"] / n, "B"),
    }
    for label in sorted(groups):
        g = groups[label]
        for key, value in g.items():
            # solve_s comes from the solver-boundary passes
            divisor = len(ops) - n - len(untraced) if key == "solve_s" else n
            detail[f"split.{label}.{key}"] = (value / divisor, "s")
    return metrics, detail


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (root / "src" / "noisecomb" / "__init__.py").is_file() or not (root / "configs").is_dir():
        raise BenchError(f"{root} has no src/noisecomb and configs: run from a noisecomb checkout")
    spec = WORKLOADS[workload]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    mode = "trace" if trace else "time"
    try:
        common = ["--workload", workload, "--seed", str(seed), "--scratch", str(scratch)]
        setups = []
        for _ in range(spec["setup_probes"]):
            setups.append(run_worker(root, env, [*common, "--role", spec["roles"][0], "--mode", "setup"])[0])
        results = []
        io_path = scratch / "streams.npz"
        share = seconds / len(spec["roles"])
        for role in spec["roles"]:
            # the decoder replays every stream the encoder wrote, however long
            budget = 1e9 if role == "decode" else share
            setup_s, res = run_worker(
                root,
                env,
                [*common, "--role", role, "--mode", mode, "--seconds", repr(budget), "--io", str(io_path)],
            )
            if res is None:
                raise BenchError(f"{role} worker printed no result")
            setups.append(setup_s)
            results.append(res)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = merge_ops(results)
    if trace:
        metrics, detail = trace_metrics(ops, results)
    else:
        metrics, detail = time_metrics(spec, ops, results, setups)
    failed = sum(not op["ok"] for op in ops)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(root, results[0]["versions"]),
        "noisecomb_file": results[0]["noisecomb_file"],
        "setup_samples_s": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "ops": ops,
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
    }
    results_dir = out_root / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="noisecomb benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    try:
        record = run(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    for section in ("detail", "metrics"):
        for name, m in record[section].items():
            print(f"{section} {name} {m['value']!r} {m['unit']}")
    for op in record["ops"]:
        for err in op["errors"]:
            print(f"# op {op['i']} failed: {err.strip().splitlines()[-1]}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
