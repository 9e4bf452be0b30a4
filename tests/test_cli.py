import csv
import json
import time
import tracemalloc

import numpy as np
import pytest

from noisecomb.cli import (
    METRIC_COLUMNS,
    ConfigError,
    cmd_bench_quant,
    cmd_sample,
    cmd_solve,
    load_config,
    main,
    prior_from_config,
    psnr,
)
from noisecomb.codec import Bitstream, FormatError


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


NAN, INF = float("nan"), float("inf")  # written to JSON as NaN and Infinity

SOLVE_CONFIG = {
    "prior": {"preset_id": 4, "d": 8},
    "schedule": {"beta_min": 1e-4, "beta_max": 0.02},
    "task": {"name": "inpaint-half", "operator": {"kind": "mask", "indices": [0, 1, 2, 3]}, "sigma_obs": 0.05},
    "solvers": ["DPS", "NCS-DPS"],
    "T": [10, 20],
    "K": 16,
    "seeds": [0, 1, 2],
}


def test_psnr_convention():
    assert psnr(4.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert psnr(0.0) == float("inf")


def test_load_config_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"prior": \n !}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(p))


def test_cli_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    # the JSON parser recurses once per level and gives up long before 200,000
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000)
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_prior_from_config_errors_name_field():
    with pytest.raises(ConfigError, match="weights"):
        prior_from_config({"means": [[0.0]]})
    with pytest.raises(ConfigError, match="variances"):
        prior_from_config({"weights": [1.0], "means": [[0.0]]})
    with pytest.raises(ConfigError, match="d"):
        prior_from_config({"preset_id": 1})


def test_prior_from_config_inline():
    prior = prior_from_config(
        {"weights": [0.5, 0.5], "means": [[1.0], [-1.0]], "variances": [[0.2], [0.2]]}
    )
    assert prior.n_components == 2 and prior.d == 1


def test_cmd_sample_moments(tmp_path):
    cfg = {
        "prior": {"weights": [1.0], "means": [[0.0]], "variances": [[1.0]]},
        "schedule": {"beta_min": 1e-4, "beta_max": 0.05},
        "T": 10,
        "seeds": list(range(5000)),
    }
    out = tmp_path / "samples.csv"
    rows = cmd_sample(cfg, str(out))
    values = np.array([r[2] for r in rows])
    assert 0.9 <= values.var() <= 1.1
    assert len(_read_csv(out)) == 5001


def test_cmd_sample_deterministic_bytes(tmp_path):
    cfg = {
        "prior": {"preset_id": 2, "d": 4},
        "T": 8,
        "seeds": [0, 1, 2, 3],
    }
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cmd_sample(cfg, str(a))
    cmd_sample(cfg, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cmd_sample_dump_holds_the_samples_in_csv_row_order(tmp_path):
    from noisecomb.diffusion import Schedule, unconditional_sample

    prior = {"preset_id": 2, "d": 4}
    cfg = {"prior": prior, "T": [6, 3], "seeds": [5, 0], "dump": str(tmp_path / "x.npy")}
    rows = cmd_sample(cfg, str(tmp_path / "s.csv"))
    dumped = np.load(tmp_path / "x.npy")
    assert dumped.shape == (len(rows), 4)
    assert [(r[0], r[1]) for r in rows] == [(0, 3), (5, 3), (0, 6), (5, 6)]
    for (seed, T, *_), x in zip(rows, dumped):
        alone = unconditional_sample(prior_from_config(prior), Schedule(T), seed)
        assert x.tobytes() == alone.tobytes()


def test_cmd_sample_missing_prior_field(tmp_path):
    with pytest.raises(ConfigError, match="prior"):
        cmd_sample({"T": 5, "seeds": [1]}, str(tmp_path / "x.csv"))


def test_cmd_solve_grid_and_reproducibility(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    rows = cmd_solve(SOLVE_CONFIG, str(out_a))
    # 2 solvers x 2 T x 3 seeds
    assert len(rows) == 12
    header = _read_csv(out_a)[0]
    assert header == [
        "seed", "solver", "task", "T", "K", "m", "mse", "psnr", "wall_ms", "degenerate_steps",
    ]
    cmd_solve(SOLVE_CONFIG, str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    # timing disabled by default: wall_ms column is identically zero
    assert all(r[8] == "0.0" for r in _read_csv(out_a)[1:])


def test_cmd_solve_timing_fills_only_wall_ms(tmp_path):
    cfg = {**SOLVE_CONFIG, "T": [4], "seeds": [0, 1]}
    off = cmd_solve(cfg, str(tmp_path / "off.csv"))
    on = cmd_solve({**cfg, "timing": True}, str(tmp_path / "on.csv"))
    wall = METRIC_COLUMNS.index("wall_ms")
    assert all(row[wall] > 0 for row in on)
    assert [row[:wall] + row[wall + 1:] for row in on] == [row[:wall] + row[wall + 1:] for row in off]


def test_cmd_solve_seed_offset_changes_rows(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cmd_solve(SOLVE_CONFIG, str(a), seed_offset=0)
    cmd_solve(SOLVE_CONFIG, str(b), seed_offset=10)
    assert a.read_bytes() != b.read_bytes()


def test_cmd_solve_median_trend_small(tmp_path):
    cfg = dict(SOLVE_CONFIG)
    cfg["prior"] = {"preset_id": 4, "d": 16}
    cfg["task"] = {
        "name": "inpaint-half",
        "operator": {"kind": "mask", "indices": list(range(8))},
        "sigma_obs": 0.05,
    }
    cfg["T"] = [20]
    cfg["K"] = 64
    cfg["seeds"] = list(range(30))
    rows = cmd_solve(cfg, str(tmp_path / "trend.csv"))
    by_solver = {}
    for r in rows:
        by_solver.setdefault(r[1], []).append(r[6])
    assert np.median(by_solver["NCS-DPS"]) <= np.median(by_solver["DPS"])


def test_cli_end_to_end_compress_decompress(tmp_path, capsys):
    d = 16
    signal = np.linspace(-1, 1, d)
    sig_path = tmp_path / "x0.npy"
    np.save(sig_path, signal)
    cfg_path = _write_json(
        tmp_path / "codec.json",
        {"prior_id": 3, "T": 12, "K": 16, "m": 2, "C": 3, "seed": 5, "n_side": 4},
    )
    stream_path = tmp_path / "x0.ncsb"
    recon_path = tmp_path / "enc.npy"
    rc = main(
        [
            "compress",
            "--config", cfg_path,
            "--input", str(sig_path),
            "--out", str(stream_path),
            "--recon", str(recon_path),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "bpp=" in printed

    decoded_path = tmp_path / "dec.npy"
    rc = main(["decompress", "--input", str(stream_path), "--out", str(decoded_path)])
    assert rc == 0
    enc = np.load(recon_path)
    dec = np.load(decoded_path)
    assert np.array_equal(enc, dec)
    assert enc.tobytes() == dec.tobytes()

    # printed BPP matches the formula for these parameters
    from noisecomb.quantizer import bpp as bpp_fn

    expected = bpp_fn(12, 16, 2, 3, 4)
    assert f"bpp={expected:.6f}" in printed


def test_cli_exit_codes(tmp_path):
    # config error
    bad_cfg = _write_json(tmp_path / "bad.json", {"T": 5})
    assert main(["solve", "--config", bad_cfg, "--out", str(tmp_path / "o.csv")]) == 2
    # i/o error: missing input file
    cfg = _write_json(
        tmp_path / "codec.json",
        {"prior_id": 1, "T": 5, "K": 8, "m": 1, "C": 0, "seed": 0},
    )
    assert (
        main(
            [
                "compress",
                "--config", cfg,
                "--input", str(tmp_path / "missing.npy"),
                "--out", str(tmp_path / "s.bin"),
            ]
        )
        == 3
    )
    # format error: decompressing garbage
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"not a stream at all, definitely not")
    assert main(["decompress", "--input", str(garbage), "--out", str(tmp_path / "r.npy")]) == 4


def test_cli_nan_beta_header_is_a_format_error(tmp_path, capsys):
    import struct

    from noisecomb.codec import compress
    from noisecomb.diffusion import Schedule

    prior = prior_from_config({"preset_id": 1, "d": 8})
    res = compress(
        np.linspace(-1, 1, 8), prior, Schedule(6, 1e-4, 0.02),
        seed=0, K=8, m=2, C=2, n_side=3, prior_id=1,
    )
    blob = bytearray(res.stream.to_bytes())
    struct.pack_into(">d", blob, struct.calcsize(">4sBBQHIBBIH"), float("nan"))  # beta_min
    stream_path = tmp_path / "nan.ncsb"
    stream_path.write_bytes(bytes(blob))
    rc = main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")])
    assert rc == 4
    assert "format error" in capsys.readouterr().err


def _k16_m2_stream():
    from noisecomb.codec import compress
    from noisecomb.diffusion import Schedule

    prior = prior_from_config({"preset_id": 2, "d": 8})
    res = compress(
        np.linspace(-1, 1, 8), prior, Schedule(17, 1e-4, 0.02),
        seed=0, K=16, m=2, C=2, n_side=3, prior_id=2,
    )
    return bytearray(res.stream.to_bytes()), len(res.stream.payload)


def test_cli_duplicate_atom_is_a_format_error(tmp_path, capsys):
    blob, payload_len = _k16_m2_stream()
    blob[len(blob) - payload_len] = 0x00  # step T names atom 0 twice
    stream_path = tmp_path / "dup.ncsb"
    stream_path.write_bytes(bytes(blob))
    rc = main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")])
    assert rc == 4
    assert "more than once" in capsys.readouterr().err


def test_cli_huge_dimension_header_is_a_format_error(tmp_path, capsys):
    import struct

    blob, _ = _k16_m2_stream()
    struct.pack_into(">I", blob, struct.calcsize(">4sBBQHIBB"), 2**32 - 1)  # d
    stream_path = tmp_path / "huge.ncsb"
    stream_path.write_bytes(bytes(blob))
    rc = main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")])
    assert rc == 4
    assert "work bound" in capsys.readouterr().err
    assert not (tmp_path / "r.npy").exists()


def test_cli_greedy_quantizer_is_a_config_error(tmp_path, capsys):
    # the exhaustive search is bench-quant's oracle, not a codec quantizer
    cfg = {"prior_id": 2, "T": 5, "K": 16, "m": 8, "C": 4, "seed": 0, "quantizer": "greedy"}
    assert _compress_exit(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unknown quantizer" in err
    assert not (tmp_path / "s.bin").exists()


def _compress_exit(tmp_path, cfg):
    sig_path = tmp_path / "x0.npy"
    np.save(sig_path, np.linspace(-1, 1, 8))
    cfg_path = _write_json(tmp_path / "codec.json", cfg)
    return main(["compress", "--config", cfg_path, "--input", str(sig_path), "--out", str(tmp_path / "s.bin")])


def test_cli_k_not_power_of_two_is_a_config_error(tmp_path, capsys):
    assert _compress_exit(tmp_path, {"prior_id": 2, "T": 5, "K": 12, "m": 2, "C": 2, "seed": 0}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "power of two" in err


def test_cli_huge_code_width_config_is_a_config_error(tmp_path, capsys):
    assert _compress_exit(tmp_path, {"prior_id": 2, "T": 2, "K": 2, "m": 2, "C": 40, "seed": 0}) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "s.bin").exists()


def test_cli_huge_code_width_header_is_a_format_error(tmp_path, capsys):
    import struct

    # T=2, K=2, m=2, C=40, d=8: a 54-byte stream whose grid would hold 2^40 fractions
    header = struct.pack(">4sBBQHIBBIHddI", b"NCSB", 1, 1, 0, 2, 2, 2, 40, 8, 3, 1e-4, 0.02, 2)
    stream_path = tmp_path / "wide.ncsb"
    stream_path.write_bytes(header + bytes(6))
    rc = main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")])
    assert rc == 4
    assert "format error" in capsys.readouterr().err
    assert not (tmp_path / "r.npy").exists()


def test_cli_operator_missing_field_is_a_config_error(tmp_path, capsys):
    cfg = dict(SOLVE_CONFIG, task={"name": "no-indices", "operator": {"kind": "mask"}}, T=[4], seeds=[0])
    cfg_path = _write_json(tmp_path / "solve.json", cfg)
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "indices" in err


def test_shipped_configs_run(tmp_path):
    import pathlib

    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    solve_cfg = load_config(str(configs / "solve_inpaint.json"))
    solve_cfg["seeds"] = [0]  # smoke-sized
    solve_cfg["T"] = [10]
    assert len(cmd_solve(solve_cfg, str(tmp_path / "m.csv"))) == 4

    codec_cfg = load_config(str(configs / "codec.json"))
    codec_cfg["T"] = 8
    sig = tmp_path / "x.npy"
    np.save(sig, np.linspace(-1, 1, 64))
    assert (
        main(
            [
                "compress",
                "--config", _write_json(tmp_path / "cc.json", codec_cfg),
                "--input", str(sig),
                "--out", str(tmp_path / "x.ncsb"),
            ]
        )
        == 0
    )

    bench_cfg = load_config(str(configs / "bench_quant.json"))
    bench_cfg["m_values"] = [2, 3]
    bench_cfg["batch"] = 4
    assert cmd_bench_quant(bench_cfg, str(tmp_path / "b.csv"))


def test_shipped_solve_grid_builds_each_codebook_once_per_seed(tmp_path, monkeypatch):
    import hashlib
    import pathlib
    import sys
    import weakref

    import noisecomb.diffusion
    import noisecomb.rng
    import noisecomb.solvers

    builds, built, live, writeable, scorings = [], [], [], [], []
    real_build = noisecomb.rng.build_codebook

    def counting_build(*args, **kwargs):
        builds.append(args)
        codebook = real_build(*args, **kwargs)
        built.append(weakref.ref(codebook))
        live.append(sum(ref() is not None for ref in built))
        return codebook

    for name, module in list(sys.modules.items()):
        if (name == "noisecomb" or name.startswith("noisecomb.")) and vars(module).get("build_codebook") is real_build:
            monkeypatch.setattr(module, "build_codebook", counting_build)
    for name in ("optimal_weights", "top_m_weights", "synthesize_noise", "inner_products"):
        real = getattr(noisecomb.solvers, name)

        def recording(*args, _real=real, **kwargs):
            writeable.extend(a.flags.writeable for a in args if isinstance(a, np.ndarray) and a.ndim == 2)
            return _real(*args, **kwargs)

        monkeypatch.setattr(noisecomb.solvers, name, recording)
    real_step_at = noisecomb.diffusion.step_at
    monkeypatch.setattr(
        noisecomb.diffusion, "step_at", lambda *a, **k: scorings.append(a[1].T) or real_step_at(*a, **k)
    )

    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "solve_inpaint.json"
    out = tmp_path / "grid.csv"
    rows = cmd_solve(load_config(str(config)), str(out))
    assert len(rows) == 80
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "940da54d386c8c5c6f785ecd7b1ba33d7ac82735355988117bb6f939d6d546c2"
    # 990 distinct (seed, t, K, d) keys; without reuse the grid builds 2360
    assert len(builds) == len(set(builds)) == 990
    # one codebook alive at a time: each build finds the previous one dropped
    assert live == [1] * 990
    assert writeable and not any(writeable)
    # one scoring per step of each schedule, T = 100 and T = 20, for all 80 jobs
    assert sorted(scorings) == [20] * 20 + [100] * 100


def test_k_presets_resolve(tmp_path):
    cfg = dict(SOLVE_CONFIG)
    cfg["K"] = "inpaint_box"
    cfg["T"] = [8]
    cfg["seeds"] = [0]
    rows = cmd_solve(cfg, str(tmp_path / "k.csv"))
    assert all(r[4] == 64 for r in rows)
    cfg["K"] = "no_such_task"
    with pytest.raises(ConfigError, match="preset"):
        cmd_solve(cfg, str(tmp_path / "k2.csv"))


def test_bench_quant_objectives_reproducible(tmp_path):
    cfg = {"m_values": [2, 4], "C_values": [3], "batch": 8, "seed": 1, "budget": 10**4}
    rows_a = cmd_bench_quant(cfg, str(tmp_path / "a.csv"))
    rows_b = cmd_bench_quant(cfg, str(tmp_path / "b.csv"))
    strip = lambda rows: [(m, mm, c, obj) for m, mm, c, _, obj in rows]
    assert strip(rows_a) == strip(rows_b)


def test_cmd_bench_quant(tmp_path):
    cfg = {"m_values": [2, 3, 4], "C_values": [2, 3], "batch": 16, "seed": 0, "budget": 10**5}
    out = tmp_path / "bench.csv"
    rows = cmd_bench_quant(cfg, str(out))
    table = {}
    for method, m, C, wall_ns, objective in rows:
        table[(method, m, C)] = objective
        assert wall_ns >= 0
    for C in (2, 3):
        for m in (2, 3, 4):
            assert table[("dp", m, C)] >= table[("stagewise", m, C)] - 1e-12
            assert table[("stagewise", m, C)] >= table[("nn", m, C)] - 1e-12
            # exhaustive agrees with the dynamic program where it ran
            assert table[("greedy", m, C)] == pytest.approx(table[("dp", m, C)], abs=1e-12)
    header = _read_csv(out)[0]
    assert header == ["method", "m", "C", "wall_ns", "objective"]


def _run_config(tmp_path, command, cfg, input_path=None):
    argv = [command, "--config", _write_json(tmp_path / "cfg.json", cfg), "--out", str(tmp_path / "out")]
    if input_path is not None:
        argv += ["--input", str(input_path)]
    return main(argv)


def _tiny_solve(**fields):
    return {**SOLVE_CONFIG, "T": [4], "seeds": [0], **fields}


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("solve", _tiny_solve(seeds=["a"])),
        ("solve", _tiny_solve(task={"operator": "mask"})),
        ("solve", _tiny_solve(task={"operator": {"kind": "identity"}, "sigma_obs": "x"})),
        ("solve", _tiny_solve(psnr_range=0)),
        ("solve", _tiny_solve(psnr_range=-2.0)),
        ("solve", _tiny_solve(fallback="FirstAtom")),  # the option is gone
        ("solve", _tiny_solve(schedule={"kind": "cosine"})),
        ("solve", _tiny_solve(lamda=5.0)),  # misspelt "lambda"
        ("solve", _tiny_solve(timing="false")),  # a nonempty string is truthy
        ("solve", _tiny_solve(task={**SOLVE_CONFIG["task"], "sigma": 0.1})),
        ("sample", {"prior": {"preset_id": 1, "d": 4}, "T": 3, "seeds": [0], "solvers": ["DPS"]}),
        ("solve", _tiny_solve(schedule={"beta_mx": 0.05})),
        ("bench-quant", {"C_values": [2], "m_values": [2], "batch": 1, "budgett": 10}),
        ("bench-quant", {"C_values": [-1], "m_values": [2], "batch": 1}),
        ("bench-quant", {"C_values": [2], "m_values": [0], "batch": 1}),
        ("bench-quant", {"C_values": [2], "m_values": ["x"], "batch": 1}),
        ("bench-quant", {"C_values": [17], "m_values": [2], "batch": 1}),  # C > MAX_C
        ("bench-quant", {"C_values": [1], "m_values": [256], "batch": 1}),
        ("bench-quant", {"C_values": [2], "m_values": [2], "batch": 0}),
        ("sample", {"prior": {"preset_id": 1, "d": 4}, "T": 3, "seeds": [0],
                    "schedule": {"beta_min": 1e-17, "beta_max": 1e-17}}),  # alpha_bar = 1
        ("sample", {"prior": {"weights": [1.0], "means": [[0.0, 0.0]],
                              "covariances": [[[1.0, 0.5], [0.0, 1.0]]]}, "T": 3, "seeds": [0]}),
        ("sample", {"prior": {"weights": [1.0], "means": [[0.0, 0.0]],
                              "covariances": [[[1.0, 2.0], [2.0, 1.0]]]}, "T": 3, "seeds": [0]}),
        ("sample", {"prior": {"weights": [1.0], "means": [[0.0, 0.0]], "variances": [[1.0]]},
                    "T": 3, "seeds": [0]}),
        ("solve", _tiny_solve(schedule={"kind": "linear"})),  # the key is gone
        ("solve", _tiny_solve(T=[5.7])),
        ("solve", _tiny_solve(T=["5"])),
        ("solve", _tiny_solve(K=True)),
        ("solve", _tiny_solve(seeds=[True])),
        ("sample", {"prior": {"weights": [1.0], "means": [[NAN, 0.0]], "variances": [[1.0, 1.0]]},
                    "T": 3, "seeds": [0]}),
        ("sample", {"prior": {"weights": [1.0], "means": [[0.0, 0.0]], "variances": [[1.0, INF]]},
                    "T": 3, "seeds": [0]}),
        ("sample", {"prior": {"weights": [NAN], "means": [[0.0, 0.0]], "variances": [[1.0, 1.0]]},
                    "T": 3, "seeds": [0]}),
        ("solve", _tiny_solve(solvers=["NCS-DPS"], task={"operator": {"kind": "circular_blur", "taps": [NAN, 1.0]}})),
        ("solve", _tiny_solve(task={"operator": {"kind": "circular_blur", "taps": [1e308, 1e308]}})),
        ("solve", _tiny_solve(task={"operator": {"kind": "mask", "indices": [0.5]}})),
        ("solve", _tiny_solve(task={"operator": {"kind": "downsample", "factor": 2.0}})),
        ("solve", _tiny_solve(task={"operator": {"kind": "downsample", "factor": True}})),
        ("sample", {"prior": {"preset_id": 4, "d": 16, "variances": [[1.0]]}, "T": 3, "seeds": [0]}),
        ("sample", {"prior": {"weights": [1.0], "means": [[0.0, 0.0]], "variances": [[1.0, 1.0]],
                              "covariance": [[[1.0, 0.0], [0.0, 1.0]]]}, "T": 3, "seeds": [0]}),
        ("sample", {"prior": {"weights": [1.0], "means": [[0.0, 0.0]], "variances": [[1.0, 1.0]],
                              "covariances": [[[1.0, 0.0], [0.0, 1.0]]]}, "T": 3, "seeds": [0]}),
        ("solve", _tiny_solve(task={"operator": {"kind": "mask", "indices": [0, 1], "factor": 2}})),
        ("solve", _tiny_solve(task={"operator": {"kind": "identity", "indices": [0]}})),
        ("solve", _tiny_solve(T=[5], K=8, solvers=["DPS", "NCS-DPS", "MPGD", "NCS-MPGD", "DDCM"],
                              task={**SOLVE_CONFIG["task"], "sigma_obs": 1e300})),
        ("sample", {"prior": {"weights": [1.0], "means": [[1e300, 0.0]], "variances": [[1.0, 1.0]]},
                    "T": 3, "seeds": [0]}),
        *[
            ("solve", _tiny_solve(T=[5], K=8, solvers=[solver],
                                  task={**SOLVE_CONFIG["task"], "sigma_obs": 1e300}))
            for solver in ("DPS", "NCS-DPS", "MPGD", "NCS-MPGD", "DDCM")
        ],
        ("solve", _tiny_solve(T=[5], K=8, solvers=["DPS"], zeta=-1.0)),
        ("solve", _tiny_solve(T=[5], K=8, solvers=["MPGD"], **{"lambda": -5.0})),
        *[
            ("solve", _tiny_solve(T=[T], K=8, solvers=["MPGD"], **{"lambda": 1e308}))
            for T in (1, 5)
        ],
        ("solve", _tiny_solve(T=[1], K=8, solvers=["DPS"], zeta=1e308)),
    ],
    ids=[
        "seeds-not-int", "operator-not-object", "sigma-obs-not-float", "psnr-range-zero",
        "psnr-range-negative", "fallback-option-gone", "schedule-kind-not-linear",
        "unknown-key-lamda", "timing-not-bool", "unknown-task-key", "sample-unknown-key",
        "unknown-schedule-key", "bench-unknown-key", "bench-C-negative",
        "bench-m-zero", "bench-m-not-int", "bench-C-above-bound", "bench-m-above-255",
        "bench-batch-zero", "schedule-alpha-bar-one", "prior-covariance-not-symmetric",
        "prior-covariance-not-positive-definite", "prior-variances-shape",
        "schedule-kind-gone", "T-not-integral", "T-string", "K-bool", "seeds-bool",
        "prior-mean-nan", "prior-variance-inf", "prior-weight-nan",
        "blur-taps-nan", "blur-taps-sum-overflows", "mask-index-not-integer",
        "downsample-factor-float", "downsample-factor-bool",
        "preset-prior-unknown-key", "inline-prior-unknown-key", "prior-variances-and-covariances",
        "mask-operator-unknown-key", "identity-operator-unknown-key",
        "sigma-obs-huge", "prior-mean-huge",
        "sigma-obs-huge-DPS", "sigma-obs-huge-NCS-DPS", "sigma-obs-huge-MPGD",
        "sigma-obs-huge-NCS-MPGD", "sigma-obs-huge-DDCM",
        "zeta-negative", "lambda-negative", "lambda-huge-MPGD-T1", "lambda-huge-MPGD-T5",
        "zeta-huge-DPS-T1",
    ],
)
@pytest.mark.filterwarnings("error")  # a NumPy RuntimeWarning would print beside the message
def test_cli_ill_typed_config_value_is_a_config_error(tmp_path, capsys, command, cfg):
    assert _run_config(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,cfg,bound",
    [
        ("sample", {"prior": {"preset_id": 1, "d": 1 << 40}, "T": 3, "seeds": [0]}, "dimension bound"),
        ("solve", _tiny_solve(K=1 << 33), "work bound"),
    ],
    ids=["sample-preset-d-above-MAX_D", "solve-K-above-work-bound"],
)
def test_cli_config_above_size_bound_is_a_config_error(tmp_path, capsys, command, cfg, bound):
    # refused before any array of that size is allocated
    assert _run_config(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and bound in err
    assert not (tmp_path / "out").exists()


def test_cli_bench_quant_batch_above_bound_is_a_config_error(tmp_path, capsys, monkeypatch):
    # one more than the bound of 4096, refused before any score batch is built
    import noisecomb.cli

    built = []
    monkeypatch.setattr(noisecomb.cli, "_bench_scores", lambda *args: built.append(args) or [])
    cfg = {"m_values": [2], "C_values": [3], "batch": 4097}
    tracemalloc.start()
    try:
        rc = _run_config(tmp_path, "bench-quant", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err == "config error: batch: must be in [1, 4096], got 4097\n"
    assert built == [] and peak < 2**20
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cfg,message",
    [
        ({"m_values": [2, 4, 2], "C_values": [3], "batch": 1}, "m_values: repeats a value"),
        ({"m_values": [2], "C_values": [3, 3], "batch": 1}, "C_values: repeats a value"),
        ({"m_values": [9], "C_values": [4], "batch": 1, "budget": 10**12}, "work bound"),  # 16^8 assignments
        ({"m_values": [255], "C_values": [16], "batch": 2}, "work bound"),  # the dynamic program alone
    ],
    ids=["m-repeated", "C-repeated", "exhaustive-above-work-bound", "dp-above-work-bound"],
)
def test_cli_bench_quant_unbounded_config_is_a_config_error(tmp_path, capsys, monkeypatch, cfg, message):
    # refused before any score batch is built or any quantizer runs
    import noisecomb.cli

    built = []
    monkeypatch.setattr(noisecomb.cli, "_bench_scores", lambda *args: built.append(args) or [])
    assert _run_config(tmp_path, "bench-quant", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert built == []
    assert not (tmp_path / "out").exists()


def test_cli_config_above_file_size_bound_is_a_config_error(tmp_path, capsys):
    # a valid config padded past the 4 MiB bound is refused unparsed
    path = tmp_path / "padded.json"
    path.write_text(json.dumps(_tiny_solve()) + " " * (1 << 22))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config size bound" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_unknown_config_key_is_named(tmp_path, capsys):
    # a misspelt key must not run with the default it failed to set
    assert _run_config(tmp_path, "solve", _tiny_solve(lamda=5.0)) == 2
    assert "unknown key 'lamda'" in capsys.readouterr().err
    assert _run_config(tmp_path, "solve", _tiny_solve(task={**SOLVE_CONFIG["task"], "sigma": 0.1})) == 2
    assert "task: unknown key 'sigma'" in capsys.readouterr().err
    assert _run_config(tmp_path, "solve", _tiny_solve(prior={"preset_id": 4, "d": 8, "means": [[0.0]]})) == 2
    assert "prior: unknown key 'means'" in capsys.readouterr().err
    task = {**SOLVE_CONFIG["task"], "operator": {"kind": "mask", "indices": [0], "taps": [1.0]}}
    assert _run_config(tmp_path, "solve", _tiny_solve(task=task)) == 2
    assert "operator 'mask': unknown key 'taps'" in capsys.readouterr().err
    signal = tmp_path / "x0.npy"
    np.save(signal, np.linspace(-1, 1, 8))
    cfg = {"prior_id": 2, "T": 5, "K": 8, "m": 2, "C": 2, "seed": 0, "quantiser": "nn"}
    assert _run_config(tmp_path, "compress", cfg, signal) == 2
    assert "unknown key 'quantiser'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("field", ["zeta", "lambda", "sigma_obs", "beta_min", "psnr_range"])
def test_cli_non_finite_config_float_is_a_config_error(tmp_path, capsys, field, value):
    # json.load reads NaN and Infinity; no config float may be either
    if field == "sigma_obs":
        cfg = _tiny_solve(task={**SOLVE_CONFIG["task"], "sigma_obs": value})
    elif field == "beta_min":
        cfg = _tiny_solve(schedule={"beta_min": value, "beta_max": 0.02})
    else:
        cfg = _tiny_solve(**{field: value})
    assert _run_config(tmp_path, "solve", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["NaN", "Infinity", "-Infinity"])
def test_cli_non_finite_prior_covariance_is_a_config_error(tmp_path, capsys, value):
    prior = {"weights": [1.0], "means": [[0.0, 0.0]], "covariances": [[[1.0, 0.0], [0.0, value]]]}
    assert _run_config(tmp_path, "sample", {"prior": prior, "T": 3, "seeds": [0]}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "component covariances must be finite" in err
    assert not (tmp_path / "out").exists()


def test_cli_compress_input_not_an_npy_array_is_an_io_error(tmp_path, capsys):
    text = tmp_path / "x0.txt"
    text.write_text("0.1 0.2 0.3\n")
    cfg = {"prior_id": 1, "T": 3, "K": 2, "m": 1, "C": 0, "seed": 0}
    assert _run_config(tmp_path, "compress", cfg, text) == 3
    assert capsys.readouterr().err.startswith("i/o error:")


@pytest.mark.parametrize("count", [2**27, 2**40], ids=["1GiB", "8TiB"])
def test_cli_compress_input_declaring_more_data_than_it_holds_is_an_io_error(tmp_path, capsys, count):
    # a 144-byte .npy whose header declares ``count`` float64 values (1 GiB and
    # 8 TiB) is refused before anything is allocated for the values
    signal = tmp_path / "x0.npy"
    with open(signal, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False, "shape": (count,)})
        fh.write(bytes(16))
    assert signal.stat().st_size == 144
    cfg = {"prior_id": 2, "T": 3, "K": 2, "m": 1, "C": 0, "seed": 0}
    tracemalloc.start()
    try:
        rc = _run_config(tmp_path, "compress", cfg, signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert capsys.readouterr().err.startswith("i/o error:")
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


def test_cli_ncs_ddcm_is_a_config_error_naming_ncs_mpgd(tmp_path, capsys):
    assert _run_config(tmp_path, "solve", _tiny_solve(solvers=["DPS", "NCS-DDCM"])) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown solver 'NCS-DDCM'") and "NCS-MPGD" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_cli_compress_non_finite_input_is_a_config_error(tmp_path, capsys, bad):
    signal = tmp_path / "x0.npy"
    x0 = np.linspace(-1, 1, 8)
    x0[2] = bad
    np.save(signal, x0)
    cfg = {"prior_id": 2, "T": 5, "K": 8, "m": 2, "C": 2, "seed": 0}
    assert _run_config(tmp_path, "compress", cfg, signal) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "signal must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("sample", {"prior": {"preset_id": 99, "d": 8}, "T": 3, "seeds": [0]}),
        ("solve", _tiny_solve(prior={"preset_id": 99, "d": 8})),
        ("compress", {"prior_id": 99, "T": 3, "K": 2, "m": 1, "C": 0, "seed": 0}),
    ],
    ids=["sample", "solve", "compress"],
)
def test_cli_unregistered_prior_in_config_is_a_config_error(tmp_path, capsys, command, cfg):
    signal = tmp_path / "x0.npy"
    np.save(signal, np.linspace(-1, 1, 8))
    assert _run_config(tmp_path, command, cfg, signal if command == "compress" else None) == 2
    assert "config error: prior id 99 is not registered" in capsys.readouterr().err


def test_cli_unregistered_prior_in_stream_stays_a_format_error(tmp_path, capsys):
    import struct

    blob, _ = _k16_m2_stream()
    struct.pack_into(">I", blob, struct.calcsize(">4sBBQHIBBIHdd"), 99)  # prior_id
    stream_path = tmp_path / "rogue.ncsb"
    stream_path.write_bytes(bytes(blob))
    assert main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")]) == 4
    assert "format error: prior id 99 is not registered" in capsys.readouterr().err
    assert not (tmp_path / "r.npy").exists()


def test_cli_dimension_bound_header_is_a_format_error(tmp_path, capsys):
    import struct

    # T=1, K=1, m=1, C=0, d=2^29, prior 4: within the work bound, no payload; decoding would
    # build an 8-component prior of dimension 2^29 (about 64 GiB)
    header = struct.pack(">4sBBQHIBBIHddI", b"NCSB", 1, 1, 0, 1, 1, 1, 0, 1 << 29, 1, 1e-4, 0.02, 4)
    stream_path = tmp_path / "wide.ncsb"
    stream_path.write_bytes(header)
    rc = main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")])
    assert rc == 4
    assert "dimension bound" in capsys.readouterr().err
    assert not (tmp_path / "r.npy").exists()


def test_cli_decode_work_bound_header_is_a_format_error(tmp_path, capsys):
    import struct

    # T=65535, K=1, m=1, C=0, d=8192, prior 4 (k=8): T*K*d is within the encode work bound and
    # the payload is empty, but T*d*(k+m) is about 4.8e9, some 120 s of decoding
    header = struct.pack(">4sBBQHIBBIHddI", b"NCSB", 1, 1, 0, 65535, 1, 1, 0, 8192, 1, 1e-4, 0.02, 4)
    assert len(header) == 48
    start = time.process_time()
    with pytest.raises(FormatError, match="decode work bound"):
        Bitstream.from_bytes(header)
    stream_path = tmp_path / "long.ncsb"
    stream_path.write_bytes(header)
    rc = main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")])
    assert rc == 4
    assert "decode work bound" in capsys.readouterr().err
    assert time.process_time() - start < 0.5  # refused before any step runs
    assert not (tmp_path / "r.npy").exists()


def test_cli_compress_above_dimension_bound_is_a_config_error(tmp_path, capsys):
    signal = tmp_path / "x0.npy"
    np.save(signal, np.zeros((1 << 16) + 1))  # MAX_D + 1
    cfg = {"prior_id": 1, "T": 2, "K": 2, "m": 1, "C": 0, "seed": 0}
    assert _run_config(tmp_path, "compress", cfg, signal) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "dimension bound" in err
    assert not (tmp_path / "out").exists()


def test_cli_decompress_reads_no_further_than_its_payload(tmp_path, capsys):
    # 8 MiB of trailing bytes are refused after one byte past the payload is read
    blob, payload_len = _k16_m2_stream()
    stream_path = tmp_path / "trailing.ncsb"
    stream_path.write_bytes(bytes(blob) + bytes(8 << 20))
    tracemalloc.start()
    try:
        rc = main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4 and peak < 2**20
    assert f"payload must be {payload_len} bytes" in capsys.readouterr().err
    stream_path.write_bytes(bytes(blob[:-1]))  # a byte short
    assert main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")]) == 4
    assert not (tmp_path / "r.npy").exists()
    stream_path.write_bytes(bytes(blob))
    assert main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")]) == 0


def test_cli_decompress_fuzz_exits_only_with_documented_codes(tmp_path):
    import struct

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from noisecomb.codec import Bitstream, FormatError

    blob, payload_len = _k16_m2_stream()
    header_len = len(blob) - payload_len

    def edited(args):
        in_payload, edits = args
        out = bytearray(blob)
        start = header_len if in_payload else 0
        for pos, value in edits:
            out[start + pos % (len(out) - start)] = value
        return bytes(out)

    def with_betas(betas):
        out = bytearray(blob)
        struct.pack_into(">dd", out, struct.calcsize(">4sBBQHIBBIH"), *sorted(betas))
        return bytes(out)

    edits = st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), min_size=1, max_size=4)
    streams = st.one_of(
        st.tuples(st.booleans(), edits).map(edited),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(with_betas),
        st.binary(max_size=96),
        st.binary(min_size=42, max_size=64).map(lambda tail: b"NCSB\x01\x01" + tail),
    )
    stream_path = tmp_path / "fuzz.ncsb"

    @given(streams)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def run(data):
        try:
            h = Bitstream.from_bytes(data).header
            if h.T * h.K * h.d > 1 << 16:
                return  # decodes, but too slowly for a unit test
        except FormatError:
            pass
        stream_path.write_bytes(data)
        assert main(["decompress", "--input", str(stream_path), "--out", str(tmp_path / "r.npy")]) in (0, 3, 4)

    run()
