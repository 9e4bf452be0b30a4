"""One benchmark process: set up one role of a workload, then run its ops.

The launcher (``run.py``) starts this script with the checkout as working
directory and ``src`` on ``PYTHONPATH``. The worker sets up (imports, prior,
schedule, inputs), prints ``READY`` so the launcher can time set-up from
process start, runs its ops and prints one JSON result as its last line.

Roles:

* ``codec``: each op compresses one signal and decompresses the stream from
  its bytes, in this process;
* ``encode`` / ``decode``: the two halves of a codec op in two processes; the
  encoder writes its streams to ``--io`` and the decoder replays them;
* ``solve``: each op runs the whole solve grid through ``noisecomb.cli.main``.

Modes: ``setup`` stops after ``READY``; ``time`` runs untraced ops until
``--seconds`` have passed and at least the workload's ``min_ops`` are done;
``trace`` runs a fixed number of ops, untraced and traced in alternating
pairs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import noisecomb
import noisecomb.cli
import noisecomb.codec
from noisecomb.diffusion import build_schedule
from noisecomb.quantizer import payload_bits

from tracer import SOLVER_TARGETS, Tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
OP_CAP = 1000  # op indices are packed below this in solve seed offsets
SOLVER_PASSES = 3  # grids traced at the solver boundary only
LAYER_SPLIT = ("rng", "diffusion", "operators", "combination", "solvers")


def psnr_db(x: np.ndarray, ref: np.ndarray) -> float:
    """PSNR with data range 2, the CLI's convention."""
    return 10.0 * math.log10(4.0 / float(np.mean((x - ref) ** 2)))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CodecRole:
    """Inputs and ops of the codec workloads."""

    def __init__(self, spec: dict, seed: int, n_inputs: int):
        cfg = json.loads(Path(spec["config"]).read_text())
        self.cfg = cfg
        self.prior = noisecomb.codec.build_registered_prior(int(cfg["prior_id"]), int(spec["d"]))
        self.schedule = build_schedule(
            int(cfg["T"]), cfg["schedule"]["beta_min"], cfg["schedule"]["beta_max"]
        )
        if np.ptp(self.prior.weights) != 0:
            raise ValueError("inputs take components in turn, which needs equal weights")
        self.per_op_seed = spec["codec_seed"] == "per-op"
        self.seed = seed
        self.inputs = [self._signal(i) for i in range(n_inputs)]

    def _signal(self, i: int) -> np.ndarray:
        """A fresh prior sample drawn with the benchmark's own generator.

        Components are taken in turn rather than drawn: reconstruction quality
        differs by about 9 dB between the two components of prior 2, so a
        drawn mix would make ``psnr_db`` depend on the seed's luck. Prior 2
        has equal component weights, so taking them in turn samples the
        mixture without bias.
        """
        gen = np.random.default_rng([self.seed, i])
        p = self.prior
        k = i % p.n_components
        return p.means[k] + np.sqrt(p.variances[k]) * gen.standard_normal(p.d)

    def codec_seed(self, i: int) -> int:
        return (self.seed << 20) + i if self.per_op_seed else int(self.cfg["seed"])

    def encode(self, i: int):
        cfg = self.cfg
        start = time.perf_counter()
        # called through the module so that an installed tracer sees the call
        result = noisecomb.codec.compress(
            self.inputs[i],
            self.prior,
            self.schedule,
            seed=self.codec_seed(i),
            K=int(cfg["K"]),
            m=int(cfg["m"]),
            C=int(cfg["C"]),
            n_side=int(cfg["n_side"]),
            prior_id=int(cfg["prior_id"]),
            quantizer=cfg["quantizer"],
        )
        data = result.stream.to_bytes()
        elapsed = time.perf_counter() - start
        want = -(-payload_bits(int(cfg["T"]), int(cfg["K"]), int(cfg["m"]), int(cfg["C"])) // 8)
        if len(result.stream.payload) != want:
            raise AssertionError(f"payload is {len(result.stream.payload)} bytes, want {want}")
        return data, result.reconstruction, elapsed


def decode(data: bytes):
    start = time.perf_counter()
    x = noisecomb.codec.decompress(noisecomb.codec.Bitstream.from_bytes(data))
    return x, time.perf_counter() - start


def check_same_bits(decoded: np.ndarray, recon: np.ndarray) -> None:
    if decoded.dtype != recon.dtype or decoded.tobytes() != recon.tobytes():
        raise AssertionError("decoded signal differs from the encoder reconstruction")


def check_digest(kind: str, data: bytes, spec: dict, seed: int, i: int) -> None:
    """At the default seed, op 0 must reproduce the recorded digest."""
    if seed == 0 and i == 0 and sha256(data) != spec["seed0_sha256"][kind]:
        raise AssertionError(f"{kind} digest differs from the one recorded for seed 0")


def run_op(fn, i: int, tracer: Tracer | None) -> dict:
    """Run one op; any exception, failed check included, marks it failed."""
    rec = {"i": i, "traced": tracer is not None, "ok": True, "error": None}
    try:
        if tracer is None:
            rec.update(fn(i))
        else:
            with tracer:
                rec.update(fn(i))
    except Exception:
        rec["ok"] = False
        rec["error"] = traceback.format_exc(limit=3)
    return rec


def solve_csv_check(data: bytes, n_jobs: int) -> float:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if len(rows) != n_jobs:
        raise AssertionError(f"solve CSV has {len(rows)} rows, want {n_jobs}")
    values = [float(r["psnr"]) for r in rows]
    if not all(math.isfinite(v) for v in values):
        raise AssertionError("solve CSV has a non-finite psnr")
    return sum(values) / len(values)


def build_role(args, spec: dict):
    """Return ``(op function, op indices in run order)``."""
    n_trace = 2 * spec["trace_pairs"]
    n_inputs = n_trace if args.mode == "trace" else spec["input_cap"]
    seed = args.seed
    if args.role in ("codec", "encode"):
        codec = CodecRole(spec, seed, n_inputs)
        if args.role == "encode":
            streams = {}

            def op(i):
                data, recon, enc_s = codec.encode(i)
                check_digest("stream", data, spec, seed, i)
                streams[i] = (data, recon)
                return {"enc_s": enc_s, "psnr": psnr_db(recon, codec.inputs[i])}

            op.streams = streams
            return op, range(n_inputs)

        def op(i):
            data, recon, enc_s = codec.encode(i)
            check_digest("stream", data, spec, seed, i)
            decoded, dec_s = decode(data)
            check_same_bits(decoded, recon)
            return {"enc_s": enc_s, "dec_s": dec_s, "psnr": psnr_db(recon, codec.inputs[i])}

        return op, range(n_inputs)

    if args.role == "decode":
        with np.load(args.io) as f:
            blob, offsets, recons, indices = f["blob"], f["offsets"], f["recons"], f["indices"]
        streams = {
            int(i): (blob[offsets[j] : offsets[j + 1]].tobytes(), recons[j])
            for j, i in enumerate(indices)
        }

        def op(i):
            data, recon = streams[i]
            decoded, dec_s = decode(data)
            check_same_bits(decoded, recon)
            return {"dec_s": dec_s}

        return op, sorted(streams)

    cfg_path = spec["config"]
    cfg = json.loads(Path(cfg_path).read_text())
    stride = max(cfg["seeds"]) + 1
    n_jobs = len(cfg["solvers"]) * len(cfg["T"]) * len(cfg["seeds"])
    out = Path(args.scratch) / "grid.csv"

    def op(i):
        offset = stride * (seed * OP_CAP + i)
        start = time.perf_counter()
        rc = noisecomb.cli.main(["solve", "--config", cfg_path, "--out", str(out), "--seed-offset", str(offset)])
        grid_s = time.perf_counter() - start
        if rc != 0:
            raise AssertionError(f"noisecomb solve exited with {rc}")
        data = out.read_bytes()
        check_digest("csv", data, spec, seed, i)
        return {"grid_s": grid_s, "psnr": solve_csv_check(data, n_jobs)}

    return op, range(min(n_inputs, OP_CAP - SOLVER_PASSES))


def trace_summary(tracer: Tracer, pass_tracer: Tracer | None) -> dict:
    stats = {
        name: {"calls": s.calls, "raised": s.raised, "self_s": s.self_s, "work": s.work}
        for name, s in tracer.by_name().items()
    }
    keys = tracer.keys.get("rng.build_codebook", [])
    groups = {}
    for label in sorted({g for g, _ in tracer.stats if g}):
        groups[label] = {layer: tracer.group_self_s(label, layer) for layer in LAYER_SPLIT}
        if pass_tracer is not None:
            groups[label]["solve_s"] = pass_tracer.group_solve_s(label)
    return {
        "stats": stats,
        "codebook_builds": len(keys),
        "codebook_distinct": len(set(keys)),
        "groups": groups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--role", required=True, choices=["codec", "encode", "decode", "solve"])
    parser.add_argument("--mode", required=True, choices=["setup", "time", "trace"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--io", help="stream file written by encode and read by decode")
    parser.add_argument("--scratch", required=True, help="directory for per-run files")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    op, indices = build_role(args, spec)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    ops = []
    tracer = pass_tracer = None
    if args.mode == "time":
        start = time.perf_counter()
        for i in indices:
            if len(ops) >= spec["min_ops"] and time.perf_counter() - start >= args.seconds:
                break
            ops.append(run_op(op, i, None))
    else:
        tracer = Tracer()
        for i in indices:
            # untraced and traced ops alternate in pairs, so that each side
            # sees both mixture components of the codec inputs
            ops.append(run_op(op, i, tracer if i // 2 % 2 else None))
        if args.role == "solve":
            # solver-boundary spans only: wall time of paired solves with
            # negligible tracing cost, for the NCS-over-baseline ratios
            pass_tracer = Tracer(SOLVER_TARGETS)
            for i in range(len(indices), len(indices) + SOLVER_PASSES):
                ops.append(run_op(op, i, pass_tracer))
                ops[-1]["solver_pass"] = True

    if args.role == "encode":
        kept = sorted(op.streams)
        blobs = [op.streams[i][0] for i in kept]
        np.savez(
            args.io,
            blob=np.frombuffer(b"".join(blobs), dtype=np.uint8),
            offsets=np.cumsum([0] + [len(b) for b in blobs]),
            recons=np.array([op.streams[i][1] for i in kept]),
            indices=np.array(kept, dtype=np.int64),
        )
    result = {
        "role": args.role,
        "ops": ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "noisecomb_file": noisecomb.__file__,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["trace"] = trace_summary(tracer, pass_tracer)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
