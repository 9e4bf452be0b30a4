"""Tests of the benchmark itself.

Traced counts must equal their closed forms, tracing must not change a single
output byte, the launcher must print the result its ``BENCHMARK.json``
promises and refuse to run outside a checkout. Run from the repository root:

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "benchmarks"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import noisecomb  # noqa: E402
import noisecomb.cli  # noqa: E402
import noisecomb.codec  # noqa: E402
import noisecomb.rng  # noqa: E402
import run as bench_run  # noqa: E402
import worker  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = worker.WORKLOADS
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def codec_params(workload: str):
    cfg = json.loads((ROOT / WORKLOADS[workload]["config"]).read_text())
    return int(cfg["T"]), int(cfg["K"]), int(WORKLOADS[workload]["d"])


def codec_op(role: worker.CodecRole, tracer: Tracer | None):
    def op():
        data, recon, _ = role.encode(0)
        decoded, _ = worker.decode(data)
        return data, recon, decoded

    if tracer is None:
        return op()
    with tracer:
        return op()


def solve_grid(out: Path, tracer: Tracer | None) -> bytes:
    argv = ["solve", "--config", WORKLOADS["solve-grid"]["config"], "--out", str(out)]
    if tracer is None:
        assert noisecomb.cli.main(argv) == 0
    else:
        with tracer:
            assert noisecomb.cli.main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("workload", ["codec-hd", "codec-patch"])
def test_recorded_codec_counts_match_closed_forms(workload):
    T, K, d = codec_params(workload)
    computed = WORKLOADS[workload]["computed_per_op"]
    values = 2 * (T - 1) * K * d + 2 * d  # codebooks plus two initial latents
    assert computed["rng.ndtri.values"] == values
    assert computed["rng.NoiseStream.raw.words"] == values
    assert computed["rng.ndtri.bytes_computed"] == 16 * values
    assert computed["rng.build_codebook.calls"] == 2 * (T - 1)
    assert computed["rng.derive_stream.calls"] == 2 * (T - 1) * K + 2
    assert computed["diffusion.score.calls"] == 2 * T
    assert computed["quantizer.quantize_dp.calls"] == T - 1


def test_traced_codec_op_counts_and_bits():
    workload = "codec-patch"
    T, K, d = codec_params(workload)
    role = worker.CodecRole(WORKLOADS[workload], seed=0, n_inputs=1)
    plain = codec_op(role, None)
    tracer = Tracer()
    traced = codec_op(role, tracer)

    stats = tracer.by_name()
    assert stats["combination.top_m_weights"].raised == 0  # no fallback step
    assert stats["rng.build_codebook"].calls == 2 * (T - 1)
    assert stats["diffusion.score"].calls == 2 * T
    assert stats["quantizer.quantize_dp"].calls == T - 1
    assert stats["rng.derive_stream"].calls == 2 * (T - 1) * K + 2
    assert stats["rng.ndtri"].work == 2 * (T - 1) * K * d + 2 * d
    assert stats["rng.NoiseStream.raw"].work == stats["rng.ndtri"].work
    for name in ("codec.compress", "codec.decompress", "codec.Bitstream.from_bytes"):
        assert stats[name].calls == 1
    for s in stats.values():
        assert s.self_s <= s.total_s + 1e-9

    data, recon, decoded = traced
    assert data == plain[0]
    assert hashlib.sha256(data).hexdigest() == WORKLOADS[workload]["seed0_sha256"]["stream"]
    assert recon.tobytes() == plain[1].tobytes() == decoded.tobytes()


def test_traced_grid_counts_and_bytes(tmp_path):
    plain = solve_grid(tmp_path / "plain.csv", None)
    tracer = Tracer()
    traced = solve_grid(tmp_path / "traced.csv", tracer)

    assert traced == plain
    assert hashlib.sha256(plain).hexdigest() == WORKLOADS["solve-grid"]["seed0_sha256"]["csv"]
    stats = tracer.by_name()
    keys = tracer.keys["rng.build_codebook"]
    sharing = WORKLOADS["solve-grid"]["sharing"]
    assert stats["rng.build_codebook"].calls == len(keys) == 2360
    assert len(set(keys)) == 990
    assert sharing["codebook_builds_per_grid"] == 2360
    assert sharing["codebook_distinct_per_grid"] == 990
    assert sharing["codebook_distinct_frac"] == 990 / 2360
    computed = WORKLOADS["solve-grid"]["computed_per_op"]
    assert stats["rng.ndtri"].work == computed["rng.ndtri.values"]
    assert computed["rng.ndtri.values"] == sum(computed["rng.ndtri.values_by_use"].values())
    assert computed["rng.ndtri.bytes_computed"] == 16 * computed["rng.ndtri.values"]
    assert computed["rng.ndtri.values_by_use"]["codebooks"] == 2360 * 64 * 16
    assert stats["solvers.ncs_solve"].calls == computed["solvers.ncs_solve.calls"] == 40
    assert stats["solvers.baseline_solve"].calls == computed["solvers.baseline_solve.calls"] == 40
    assert stats["cli.cmd_solve"].calls == 1
    # every solve is attributed to its solver group, paired across families
    groups = {g for g, _ in tracer.stats if g}
    assert groups == {"DPS", "NCS-DPS", "MPGD", "NCS-MPGD"}


def test_tracer_replaces_every_binding_and_restores_it():
    holders = [m for n, m in sys.modules.items() if n == "noisecomb" or n.startswith("noisecomb.")]
    before = [(m, dict(vars(m))) for m in holders]
    original = noisecomb.rng.build_codebook
    raw = noisecomb.rng.NoiseStream.raw
    from_bytes = vars(noisecomb.codec.Bitstream)["from_bytes"]

    with Tracer():
        assert noisecomb.rng.build_codebook is not original
        assert noisecomb.codec.build_codebook is noisecomb.rng.build_codebook
        assert noisecomb.solvers.build_codebook is noisecomb.rng.build_codebook
        assert noisecomb.build_codebook is noisecomb.rng.build_codebook
        assert noisecomb.rng.NoiseStream.raw is not raw
        assert isinstance(vars(noisecomb.codec.Bitstream)["from_bytes"], classmethod)
        for m, _ in before:
            assert original not in [v for v in vars(m).values() if callable(v)]

    for m, attrs in before:
        assert all(vars(m)[k] is v for k, v in attrs.items())
    assert noisecomb.rng.NoiseStream.raw is raw
    assert vars(noisecomb.codec.Bitstream)["from_bytes"] is from_bytes


def test_tail_rule():
    value, pct = bench_run.tail(list(range(20, 0, -1)))
    assert (value, pct) == (10, 50.0)
    value, pct = bench_run.tail(list(range(100)))
    assert (value, pct) == (89, 90.0)
    with pytest.raises(bench_run.BenchError):
        bench_run.tail(list(range(10)))


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for target in TARGETS:
        assert {f"{target.name}.calls", f"{target.name}.self_s"} <= per_layer


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_metric(trace, section):
    proc = run_bench("codec-patch", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        metrics = result["metrics"]
        assert metrics["rng.build_codebook.calls"]["value"] == 198
        assert metrics["rng.build_codebook.distinct_frac"]["value"] == 1.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("codec-hd", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
