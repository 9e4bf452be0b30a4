"""Golden output digests of every reverse-diffusion path.

Each case hashes the float64 bytes of its output and its degenerate-step count
with SHA-256 (codec cases also hash the stream bytes and the decoder's output).
The table pins the sampler, all six solvers at m in {None, 1, 3} (plus an
operator whose directions are all degenerate, so every step draws fresh noise;
the ``-FreshNoise`` key suffix names that rule), codec cells
for the three codec quantizers, and the CSV bytes the ``sample`` and ``solve``
commands write (grids listed out of row order too, so the row sort is pinned),
so any change to the shared reverse loop or the CLI grids that moves a single
output bit fails here.

Like the RNG golden vectors, the digests cover the normals, which go through
``ndtri`` and ``log``; they are pinned on the platforms the suite runs on.
To print the table for the current code: ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from noisecomb.cli import cmd_sample, cmd_solve
from noisecomb.codec import Bitstream, build_registered_prior, compress, decompress
from noisecomb.diffusion import GaussianMixturePrior, Schedule, unconditional_sample
from noisecomb.operators import LinearOperator, Mask, make_observation
from noisecomb.quantizer import QUANTIZERS
from noisecomb.rng import Domain, StreamKey, derive_stream
from noisecomb.solvers import BASELINE_SOLVERS, NCS_SOLVERS, SolverConfig, solve


class ZeroOperator(LinearOperator):
    """Measures nothing, so every guidance direction is exactly zero."""

    kind = "zero"

    def __init__(self, d):
        self.d = d
        self.n = 1

    def apply(self, x):
        return np.zeros(1)

    def adjoint(self, y):
        return np.zeros(self.d)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _full_cov_prior() -> GaussianMixturePrior:
    a = np.array([[1.0, 0.3, 0.0, 0.1], [0.3, 0.8, 0.2, 0.0], [0.0, 0.2, 0.6, 0.1], [0.1, 0.0, 0.1, 0.5]])
    return GaussianMixturePrior(
        weights=np.array([0.3, 0.7]),
        means=np.array([[0.5, -0.2, 0.1, 0.0], [-0.4, 0.3, 0.0, 0.2]]),
        covariances=np.stack([a, 0.5 * a + 0.2 * np.eye(4)]),
    )


def _sample_case(kind: str, T: int) -> str:
    prior = build_registered_prior(4, 6) if kind == "diag" else _full_cov_prior()
    x = unconditional_sample(prior, Schedule(T, 1e-4, 0.02), 7)
    return _digest(x.tobytes())


def _solve_case(operator: str, solver: str, m) -> str:
    d, T, seed = 8, 12, 5
    prior = build_registered_prior(4, d)
    x0 = prior.sample(1, derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))[0]
    op = Mask(d, [0, 1, 2, 3]) if operator == "mask" else ZeroOperator(d)
    obs = make_observation(x0, op, 0.05, derive_stream(StreamKey(seed, Domain.OBSERVATION_NOISE, 0, 0)))
    cfg = SolverConfig(solver=solver, K=4, m=m, seed=seed)
    res = solve(prior, Schedule(T, 1e-4, 0.02), obs, cfg)
    return _digest(res.x0.tobytes(), res.degenerate_steps)


def _codec_case(quantizer: str, K: int, m: int, C: int) -> str:
    d, T, seed = 8, 9, 3
    prior = build_registered_prior(2, d)
    x0 = prior.sample(1, derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))[0]
    res = compress(
        x0, prior, Schedule(T, 1e-4, 0.02),
        seed=seed, K=K, m=m, C=C, n_side=3, prior_id=2, quantizer=quantizer,
    )
    decoded = decompress(res.stream)
    return _digest(res.stream.to_bytes(), res.reconstruction.tobytes(), decoded.tobytes(), res.degenerate_steps)


CLI_SAMPLE_CONFIG = {"prior": {"preset_id": 2, "d": 4}, "T": 8, "seeds": [0, 1, 2, 3]}
CLI_SOLVE_CONFIG = {
    "prior": {"preset_id": 4, "d": 8},
    "schedule": {"beta_min": 1e-4, "beta_max": 0.02},
    "task": {"name": "inpaint-half", "operator": {"kind": "mask", "indices": [0, 1, 2, 3]}, "sigma_obs": 0.05},
    "solvers": ["DPS", "NCS-DPS"],
    "T": [10, 20],
    "K": 16,
    "seeds": [0, 1, 2],
}
# The "-reordered" grids list T descending, seeds shuffled and solvers reversed,
# so their digests pin the row sort. The "-six-solvers" grids run every solver
# of a (seed, T) together; their digests were taken with each solve run on its
# own, so they pin the batched grid to the one-row solves.
CLI_SIX_SOLVERS_CONFIG = {
    **CLI_SOLVE_CONFIG,
    "solvers": ["NCS-DDCM", "DPS", "MPGD", "NCS-MPGD", "DDCM", "NCS-DPS"],
    "T": [12, 7],
    "K": 8,
    "seeds": [4, 1],
}
CLI_CONFIGS = {
    "sample": (cmd_sample, CLI_SAMPLE_CONFIG),
    "sample-reordered": (cmd_sample, {**CLI_SAMPLE_CONFIG, "T": [8, 3], "seeds": [3, 1, 2, 0]}),
    "solve": (cmd_solve, CLI_SOLVE_CONFIG),
    "solve-reordered": (
        cmd_solve,
        {**CLI_SOLVE_CONFIG, "solvers": ["NCS-DPS", "DPS"], "T": [20, 10], "seeds": [2, 0, 1]},
    ),
    "solve-six-solvers": (cmd_solve, CLI_SIX_SOLVERS_CONFIG),
    "solve-six-solvers-m2": (cmd_solve, {**CLI_SIX_SOLVERS_CONFIG, "m": 2}),
}


def _cli_case(name: str) -> str:
    command, cfg = CLI_CONFIGS[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.csv"
        command(cfg, str(out))
        return _digest(out.read_bytes())


SOLVERS = ("DPS", "MPGD", "DDCM", "NCS-DPS", "NCS-MPGD", "NCS-DDCM")
CODEC_CELLS = [
    (q, K, m, C)
    for q in ("dp", "stagewise", "nn")
    for K, m, C in ((16, 3, 2), (16, 3, 0), (16, 1, 3), (2, 2, 2), (2, 2, 0), (2, 1, 3))
]

CASES = {}
for _kind in ("diag", "full"):
    for _T in (1, 2, 15):
        CASES[f"sample-{_kind}-T{_T}"] = (_sample_case, (_kind, _T))
for _solver in SOLVERS:
    for _m in (None, 1, 3):
        CASES[f"solve-mask-{_solver}-m{_m}-FreshNoise"] = (_solve_case, ("mask", _solver, _m))
    CASES[f"solve-zero-{_solver}-FreshNoise"] = (_solve_case, ("zero", _solver, None))
for _q, _K, _m, _C in CODEC_CELLS:
    CASES[f"codec-{_q}-K{_K}-m{_m}-C{_C}"] = (_codec_case, (_q, _K, _m, _C))
for _name in CLI_CONFIGS:
    CASES[f"cli-{_name}"] = (_cli_case, (_name,))

GOLDEN = {
    "cli-sample": "3472239ed57c0bf22a08350e5fa0f5c57c2cce9416f4088b98f26999b3751422",
    "cli-sample-reordered": "43dc4132be496a7a263192cf892ff0240a0cf1fd3bcd6f7c2f42a9d2986bcd69",
    "cli-solve": "23aeda3ac91def705f414740acb6a6dfb20f48e9d44c675d18515dd813388e6a",
    "cli-solve-reordered": "23aeda3ac91def705f414740acb6a6dfb20f48e9d44c675d18515dd813388e6a",
    "cli-solve-six-solvers": "832e7aa1eaf82cd333df60af7a505afd6d22046b98e8e82cf509511c3ea8b7d0",
    "cli-solve-six-solvers-m2": "361d90be67015c7f7db2f78c8b4cd05e6cd19e0004674d0e6ccaec96db4c0946",
    "codec-dp-K16-m1-C3": "f1e79d1c5ea79b8e6d3d1e70ead993db0297ca0bbb65cb5e899f2ec6d4c12891",
    "codec-dp-K16-m3-C0": "5d9dc43be514a47ed95fd40530f7ff8d4bf45c25b8a376a07d4d6d41f8305f33",
    "codec-dp-K16-m3-C2": "eeda05a39a640f553d96055a3328a13abf4f89cd54a13ad5d024a505534957b4",
    "codec-dp-K2-m1-C3": "f60304a12c0b98ccd8f04a9aa758fb97af9c955e361790dd67cec098c478f0bb",
    "codec-dp-K2-m2-C0": "44663948277b8262daae0e79523944e99eff9ed97492b50baf83a3385220b039",
    "codec-dp-K2-m2-C2": "72ef5842d432f22ade263a19e2397044ded5c7a03278dab8de3290cf0992e993",
    "codec-nn-K16-m1-C3": "f1e79d1c5ea79b8e6d3d1e70ead993db0297ca0bbb65cb5e899f2ec6d4c12891",
    "codec-nn-K16-m3-C0": "5d9dc43be514a47ed95fd40530f7ff8d4bf45c25b8a376a07d4d6d41f8305f33",
    "codec-nn-K16-m3-C2": "64552c0c6b518f289852caf21fccf7aaa2781809a06240b0d2c98441be840884",
    "codec-nn-K2-m1-C3": "f60304a12c0b98ccd8f04a9aa758fb97af9c955e361790dd67cec098c478f0bb",
    "codec-nn-K2-m2-C0": "44663948277b8262daae0e79523944e99eff9ed97492b50baf83a3385220b039",
    "codec-nn-K2-m2-C2": "72ef5842d432f22ade263a19e2397044ded5c7a03278dab8de3290cf0992e993",
    "codec-stagewise-K16-m1-C3": "f1e79d1c5ea79b8e6d3d1e70ead993db0297ca0bbb65cb5e899f2ec6d4c12891",
    "codec-stagewise-K16-m3-C0": "5d9dc43be514a47ed95fd40530f7ff8d4bf45c25b8a376a07d4d6d41f8305f33",
    "codec-stagewise-K16-m3-C2": "64552c0c6b518f289852caf21fccf7aaa2781809a06240b0d2c98441be840884",
    "codec-stagewise-K2-m1-C3": "f60304a12c0b98ccd8f04a9aa758fb97af9c955e361790dd67cec098c478f0bb",
    "codec-stagewise-K2-m2-C0": "44663948277b8262daae0e79523944e99eff9ed97492b50baf83a3385220b039",
    "codec-stagewise-K2-m2-C2": "72ef5842d432f22ade263a19e2397044ded5c7a03278dab8de3290cf0992e993",
    "sample-diag-T1": "e61e458e53b4339396deea04183dd7824736da461bf90ff0d0ef083d73f4d173",
    "sample-diag-T15": "aa29ddf39a5f16b6de9e7ae6bfa5296b7528207241cff9f2fda833d98a7be6be",
    "sample-diag-T2": "33c9967c23566e15a9fec3913780608548b24102c0ac2d8506c6e9fafa4e6015",
    "sample-full-T1": "8e91a26dbb2feada5e6e83974f7af5af8114fff1acdfe37b7dd684207eed7ea5",
    "sample-full-T15": "f7f93e04748f89cb1185310dc3dc3234ec60227e64f64044aa44ccf172d85294",
    "sample-full-T2": "0daf4bb554ce0b162d9fa5ca33ad6f657f8b97bb24837f765a4e5e73363c5cf3",
    "solve-mask-DDCM-m1-FreshNoise": "d5cf1c02cea4d2dcba556089c2c573882871bc8185931deb645b069e3f80b324",
    "solve-mask-DDCM-m3-FreshNoise": "d5cf1c02cea4d2dcba556089c2c573882871bc8185931deb645b069e3f80b324",
    "solve-mask-DDCM-mNone-FreshNoise": "d5cf1c02cea4d2dcba556089c2c573882871bc8185931deb645b069e3f80b324",
    "solve-mask-DPS-m1-FreshNoise": "e5fd14a2fdc1ae9348814fdd74d3f28c935c5e60245de9598e884924e438d277",
    "solve-mask-DPS-m3-FreshNoise": "e5fd14a2fdc1ae9348814fdd74d3f28c935c5e60245de9598e884924e438d277",
    "solve-mask-DPS-mNone-FreshNoise": "e5fd14a2fdc1ae9348814fdd74d3f28c935c5e60245de9598e884924e438d277",
    "solve-mask-MPGD-m1-FreshNoise": "542da13a4c0db5a3eaa908fcce929c828b1bdd7d7da580a2aaf773816478d754",
    "solve-mask-MPGD-m3-FreshNoise": "542da13a4c0db5a3eaa908fcce929c828b1bdd7d7da580a2aaf773816478d754",
    "solve-mask-MPGD-mNone-FreshNoise": "542da13a4c0db5a3eaa908fcce929c828b1bdd7d7da580a2aaf773816478d754",
    "solve-mask-NCS-DDCM-m1-FreshNoise": "89b0dd530774fd48240c228a9867cc77d68cd383cb287feb85e8eb9ba5ad677c",
    "solve-mask-NCS-DDCM-m3-FreshNoise": "c9b63cae0c44959134adbd2bdf48f6df3e07098b27958bec83f6903474963fd3",
    "solve-mask-NCS-DDCM-mNone-FreshNoise": "7603eaba9fe54a10e466b8a78a536a4d58514950ca93ab911b7c9b2b6073128b",
    "solve-mask-NCS-DPS-m1-FreshNoise": "e83962731916d7d24615c65e918d87951a12ab4622840ce749c1a5ca31c86954",
    "solve-mask-NCS-DPS-m3-FreshNoise": "4e2d8e9f8b01fb0d4d45f8a6db01c2be2f457ea0915da26cd0677c762ed12a7a",
    "solve-mask-NCS-DPS-mNone-FreshNoise": "3b113c5fbfcd5ee29802806f2b6fdcce823b2934169ffc72e06a77a2ba5c1384",
    "solve-mask-NCS-MPGD-m1-FreshNoise": "89b0dd530774fd48240c228a9867cc77d68cd383cb287feb85e8eb9ba5ad677c",
    "solve-mask-NCS-MPGD-m3-FreshNoise": "c9b63cae0c44959134adbd2bdf48f6df3e07098b27958bec83f6903474963fd3",
    "solve-mask-NCS-MPGD-mNone-FreshNoise": "7603eaba9fe54a10e466b8a78a536a4d58514950ca93ab911b7c9b2b6073128b",
    "solve-zero-DDCM-FreshNoise": "8d9a55701b17672a48fc0dd32460ca403eb7bf3ba6c83c77d9383fce2fcd1514",
    "solve-zero-DPS-FreshNoise": "4029dfcd5093933a3ed144bcbfec61f00b2874baebd7fda3637da640054ead97",
    "solve-zero-MPGD-FreshNoise": "4029dfcd5093933a3ed144bcbfec61f00b2874baebd7fda3637da640054ead97",
    "solve-zero-NCS-DDCM-FreshNoise": "8d9a55701b17672a48fc0dd32460ca403eb7bf3ba6c83c77d9383fce2fcd1514",
    "solve-zero-NCS-DPS-FreshNoise": "8d9a55701b17672a48fc0dd32460ca403eb7bf3ba6c83c77d9383fce2fcd1514",
    "solve-zero-NCS-MPGD-FreshNoise": "8d9a55701b17672a48fc0dd32460ca403eb7bf3ba6c83c77d9383fce2fcd1514",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    fn, args = CASES[name]
    assert fn(*args) == GOLDEN[name]


def test_golden_table_covers_every_case():
    assert set(GOLDEN) == set(CASES)


def test_solve_cases_cover_every_solver():
    # a solver added to the package needs pinned digests here
    assert set(SOLVERS) == set(BASELINE_SOLVERS + NCS_SOLVERS)


def test_codec_cells_cover_every_codec_quantizer():
    # a quantizer added to the codec needs pinned digests here
    assert {q for q, *_ in CODEC_CELLS} == set(QUANTIZERS)


@pytest.mark.parametrize("workload", ["codec-hd", "codec-patch"])
def test_benchmark_codec_seed0_stream(workload, monkeypatch):
    # the benchmark marks a run's outputs incorrect when op 0 at seed 0 misses
    # the stream digest recorded in benchmarks/workloads.json; this re-encodes
    # that op with the benchmark worker's own inputs
    root = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)  # workload configs are named relative to the root
    monkeypatch.syspath_prepend(str(root / "benchmarks"))
    spec = importlib.util.spec_from_file_location("benchmark_worker", root / "benchmarks" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    workload_spec = worker.WORKLOADS[workload]
    data, recon, _ = worker.CodecRole(workload_spec, 0, 1).encode(0)
    assert hashlib.sha256(data).hexdigest() == workload_spec["seed0_sha256"]["stream"]
    assert decompress(Bitstream.from_bytes(data)).tobytes() == recon.tobytes()


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # only a traced benchmark run (--trace 1) installs the tracer; this resolves
    # and wraps every target it names, so a rename in src fails here, and runs nothing
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("benchmark_tracer", root / "benchmarks" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)  # its dataclasses look it up
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    functions = {t: getattr(sys.modules[t.owner], t.attr) for t in tracer.targets if "." not in t.attr}
    for target in set(tracer.targets) - set(functions):
        assert tracer_module._class_slots(sys.modules[target.owner], target.attr), target.name
    tracer.install()
    try:
        assert all(getattr(sys.modules[t.owner], t.attr) is not fn for t, fn in functions.items())
    finally:
        tracer.uninstall()
    assert all(getattr(sys.modules[t.owner], t.attr) is fn for t, fn in functions.items())
    assert not any(stat.calls for stat in tracer.stats.values())


if __name__ == "__main__":
    for _name in sorted(CASES):
        _fn, _args = CASES[_name]
        print(f'    "{_name}": "{_fn(*_args)}",')
