import json
import struct
from pathlib import Path

import numpy as np
import pytest

from noisecomb.codec import (
    _PRIORS,
    Bitstream,
    CodecHeader,
    FormatError,
    build_registered_prior,
    compress,
    decompress,
    report_bpp,
)
from noisecomb.diffusion import GaussianMixturePrior, Schedule
from noisecomb.quantizer import bpp, payload_bits
from noisecomb.rng import Domain, StreamKey, derive_stream

# (T, K, m, C) cells exercising m=1, C=0, single-bit grids, and K=1
PARAM_MATRIX = [
    (10, 16, 1, 0),
    (10, 16, 1, 4),  # m=1: code fields vanish regardless of C
    (10, 16, 2, 0),
    (10, 16, 4, 3),
    (7, 8, 3, 1),
    (5, 64, 8, 2),
    (12, 4, 2, 5),
    (3, 1, 1, 0),  # K=1: zero-width indices
    (1, 16, 2, 3),  # T=1: empty payload
]


def _signal(seed, d, prior_id=2):
    prior = build_registered_prior(prior_id, d)
    return prior, prior.sample(derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))


@pytest.mark.parametrize("T,K,m,C", PARAM_MATRIX)
def test_round_trip_bit_exact(T, K, m, C):
    d = 24
    prior, x0 = _signal(seed=3, d=d)
    sch = Schedule(T, 1e-4, 0.02)
    res = compress(x0, prior, sch, seed=3, K=K, m=m, C=C, n_side=5, prior_id=2)
    assert res.stream.header.payload_bits == payload_bits(T, K, m, C)
    assert len(res.stream.payload) == -(-payload_bits(T, K, m, C) // 8)
    decoded = decompress(res.stream)
    assert np.array_equal(decoded, res.reconstruction)


@pytest.mark.parametrize("T,K,m,C", PARAM_MATRIX)
def test_container_bytes_round_trip(T, K, m, C):
    prior, x0 = _signal(seed=11, d=16)
    sch = Schedule(T, 1e-4, 0.02)
    res = compress(x0, prior, sch, seed=11, K=K, m=m, C=C, n_side=4, prior_id=2)
    blob = res.stream.to_bytes()
    parsed = Bitstream.from_bytes(blob)
    assert parsed == res.stream
    assert np.array_equal(decompress(parsed), res.reconstruction)


def test_degenerate_fallback_steps_round_trip():
    # K=2 leaves ~25% probability per step that no atom aligns positively,
    # so the deterministic fallback path gets exercised and must still decode
    prior, x0 = _signal(seed=1, d=8, prior_id=1)
    sch = Schedule(40, 1e-4, 0.02)
    res = compress(x0, prior, sch, seed=1, K=2, m=2, C=2, n_side=3, prior_id=1)
    assert res.degenerate_steps >= 1
    assert np.array_equal(decompress(res.stream), res.reconstruction)


def test_split_codebook_builds_give_the_serial_stream(monkeypatch):
    import noisecomb.rng as rng

    prior, x0 = _signal(seed=5, d=512)
    sch = Schedule(5, 1e-4, 0.02)
    kw = dict(seed=5, K=64, m=4, C=4, n_side=4, prior_id=2)
    monkeypatch.setattr(rng, "_SPLIT_MIN_VALUES", 2**62)
    serial = compress(x0, prior, sch, **kw)
    # every build splits, the decoder's 4-atom builds included
    monkeypatch.setattr(rng, "_SPLIT_MIN_VALUES", 1)
    monkeypatch.setattr(rng, "_CPUS", 2)
    split = compress(x0, prior, sch, **kw)
    assert split.stream.to_bytes() == serial.stream.to_bytes()
    assert split.reconstruction.tobytes() == serial.reconstruction.tobytes()
    assert decompress(split.stream).tobytes() == split.reconstruction.tobytes()


def test_corrupting_one_bit_changes_output():
    prior, x0 = _signal(seed=7, d=16)
    sch = Schedule(12, 1e-4, 0.02)
    res = compress(x0, prior, sch, seed=7, K=16, m=2, C=3, n_side=4, prior_id=2)
    payload = bytearray(res.stream.payload)
    payload[0] ^= 0x80  # flip the very first index bit
    corrupted = Bitstream(header=res.stream.header, payload=bytes(payload))
    assert not np.array_equal(decompress(corrupted), res.reconstruction)


def test_encoder_quantizer_choice_changes_stream_not_format():
    prior, x0 = _signal(seed=6, d=16)
    sch = Schedule(10, 1e-4, 0.02)
    kw = dict(seed=6, K=16, m=4, C=3, n_side=4, prior_id=2)
    dp = compress(x0, prior, sch, quantizer="dp", **kw)
    nn = compress(x0, prior, sch, quantizer="nn", **kw)
    assert dp.stream.header == nn.stream.header
    assert len(dp.stream.payload) == len(nn.stream.payload)
    assert np.array_equal(decompress(nn.stream), nn.reconstruction)


def test_mse_decreases_with_m():
    d = 64
    prior = build_registered_prior(4, d)
    sch = Schedule(25, 1e-4, 0.02)
    medians = []
    for m in (1, 2, 4, 8):
        errs = []
        for seed in range(50):
            x0 = prior.sample(derive_stream(StreamKey(seed, Domain.PRIOR_SAMPLE, 0, 0)))
            res = compress(x0, prior, sch, seed=seed, K=16, m=m, C=3, n_side=8, prior_id=4)
            errs.append(float(np.mean((res.reconstruction - x0) ** 2)))
        medians.append(float(np.median(errs)))
    assert medians == sorted(medians, reverse=True)


def test_report_bpp_matches_formula():
    prior, x0 = _signal(seed=2, d=16)
    sch = Schedule(10, 1e-4, 0.02)
    res = compress(x0, prior, sch, seed=2, K=16, m=2, C=3, n_side=4, prior_id=2)
    assert report_bpp(res.stream) == bpp(10, 16, 2, 3, 4)
    assert report_bpp(res.stream) == res.stream.header.payload_bits / 16.0


def test_header_validation():
    with pytest.raises(ValueError):
        CodecHeader(seed=0, T=10, K=10, m=2, C=3, d=4, n_side=2, beta_min=1e-4, beta_max=0.02, prior_id=1)
    with pytest.raises(ValueError):
        CodecHeader(seed=0, T=10, K=16, m=0, C=3, d=4, n_side=2, beta_min=1e-4, beta_max=0.02, prior_id=1)
    with pytest.raises(ValueError):
        CodecHeader(seed=0, T=0, K=16, m=2, C=3, d=4, n_side=2, beta_min=1e-4, beta_max=0.02, prior_id=1)


def test_format_errors():
    prior, x0 = _signal(seed=4, d=8, prior_id=1)
    sch = Schedule(6, 1e-4, 0.02)
    res = compress(x0, prior, sch, seed=4, K=8, m=2, C=2, n_side=3, prior_id=1)
    blob = res.stream.to_bytes()

    with pytest.raises(FormatError):
        Bitstream.from_bytes(b"XXXX" + blob[4:])  # bad magic
    with pytest.raises(FormatError):
        Bitstream.from_bytes(bytes([blob[0], blob[1], blob[2], blob[3], 99]) + blob[5:])  # version
    with pytest.raises(FormatError):
        Bitstream.from_bytes(blob[:-1])  # truncated payload
    with pytest.raises(FormatError):
        Bitstream.from_bytes(blob + b"\x00")  # trailing garbage
    with pytest.raises(FormatError):
        Bitstream.from_bytes(blob[:10])  # truncated header


BETA_MIN_OFFSET = struct.calcsize(">4sBBQHIBBIH")  # beta_min, then beta_max, in the header


def _with_betas(blob: bytes, beta_min: float, beta_max: float) -> bytes:
    out = bytearray(blob)
    struct.pack_into(">dd", out, BETA_MIN_OFFSET, beta_min, beta_max)
    return bytes(out)


@pytest.mark.parametrize(
    "beta_min,beta_max",
    [(np.nan, 0.02), (1e-4, np.nan), (0.0, 0.02), (-1e-4, 0.02), (0.03, 0.02), (1e-4, 1.0)],
)
def test_header_rejects_bad_betas(beta_min, beta_max):
    with pytest.raises(ValueError):
        CodecHeader(
            seed=0, T=10, K=16, m=2, C=3, d=4, n_side=2,
            beta_min=beta_min, beta_max=beta_max, prior_id=1,
        )
    prior, x0 = _signal(seed=4, d=8, prior_id=1)
    res = compress(x0, prior, Schedule(6, 1e-4, 0.02), seed=4, K=8, m=2, C=2, n_side=3, prior_id=1)
    blob = res.stream.to_bytes()
    assert Bitstream.from_bytes(_with_betas(blob, 1e-4, 0.02)) == res.stream
    with pytest.raises(FormatError):
        Bitstream.from_bytes(_with_betas(blob, beta_min, beta_max))


def test_nonzero_padding_bits_rejected():
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "codec.json").read_text())
    prior, x0 = _signal(seed=0, d=64, prior_id=cfg["prior_id"])
    sch = Schedule(cfg["T"], cfg["schedule"]["beta_min"], cfg["schedule"]["beta_max"])
    res = compress(
        x0, prior, sch, seed=cfg["seed"], K=cfg["K"], m=cfg["m"], C=cfg["C"],
        n_side=cfg["n_side"], prior_id=cfg["prior_id"],
    )
    assert res.stream.header.payload_bits == 3564  # 4 padding bits in the last byte
    blob = res.stream.to_bytes()
    assert blob[-1] & 0x0F == 0
    for bit in range(4):
        flipped = blob[:-1] + bytes([blob[-1] ^ (1 << bit)])
        with pytest.raises(FormatError, match="padding"):
            Bitstream.from_bytes(flipped)
    # the lowest payload bit just above the padding is data, not padding
    data_flip = Bitstream.from_bytes(blob[:-1] + bytes([blob[-1] ^ 0x10]))
    assert data_flip.payload != res.stream.payload


def _k16_m2_stream():
    """A valid K=16, m=2 stream whose first payload byte holds step T's two indices."""
    prior, x0 = _signal(seed=2, d=8)
    res = compress(x0, prior, Schedule(17, 1e-4, 0.02), seed=2, K=16, m=2, C=0, n_side=3, prior_id=2)
    assert len(res.stream.payload) == 16
    return res.stream.to_bytes()


def test_duplicate_atom_in_a_step_is_a_format_error():
    blob = _k16_m2_stream()
    header_size = len(blob) - 16
    assert blob[header_size] >> 4 != blob[header_size] & 0x0F  # the encoder writes distinct atoms
    forged = Bitstream.from_bytes(blob[:header_size] + b"\x00" + blob[header_size + 1 :])
    with pytest.raises(FormatError, match="more than once"):
        decompress(forged)


def test_decode_work_bound_rejects_huge_dimension_before_decoding():
    from noisecomb.codec import MAX_ENCODE_WORK

    # the shipped d=4096 codec config fits under the bound
    CodecHeader(seed=0, T=100, K=64, m=4, C=4, d=4096, n_side=64, beta_min=1e-4, beta_max=0.02, prior_id=2)
    assert 100 * 64 * 4096 <= MAX_ENCODE_WORK
    with pytest.raises(ValueError, match="work bound"):
        CodecHeader(seed=0, T=2, K=64, m=1, C=0, d=MAX_ENCODE_WORK // 64, n_side=1,
                    beta_min=1e-4, beta_max=0.02, prior_id=1)
    blob = bytearray(_k16_m2_stream())
    struct.pack_into(">I", blob, struct.calcsize(">4sBBQHIBB"), 2**32 - 1)  # d
    with pytest.raises(FormatError, match="work bound"):
        Bitstream.from_bytes(bytes(blob))


def _code_width_40_stream() -> bytes:
    """54 bytes (T=2, K=2, m=2, C=40, d=8) whose decoder grid would hold 2^40 fractions."""
    header = struct.pack(">4sBBQHIBBIHddI", b"NCSB", 1, 1, 0, 2, 2, 2, 40, 8, 3, 1e-4, 0.02, 2)
    return header + bytes(6)  # 2 index bits + 40 code bits, zero-padded


def test_code_width_bound_rejects_huge_grid_before_decoding():
    from noisecomb.codec import MAX_C

    assert MAX_C == 16
    with pytest.raises(ValueError, match="C must be"):
        CodecHeader(seed=0, T=2, K=2, m=2, C=MAX_C + 1, d=8, n_side=3,
                    beta_min=1e-4, beta_max=0.02, prior_id=2)
    blob = _code_width_40_stream()
    assert len(blob) == 54
    with pytest.raises(FormatError, match="C must be"):
        Bitstream.from_bytes(blob)
    prior, x0 = _signal(seed=1, d=8)
    sch = Schedule(3, 1e-4, 0.02)
    with pytest.raises(ValueError, match="C must be"):
        compress(x0, prior, sch, seed=1, K=2, m=2, C=40, n_side=3, prior_id=2)
    # the bound itself still encodes and decodes
    res = compress(x0, prior, sch, seed=1, K=2, m=2, C=MAX_C, n_side=3, prior_id=2)
    assert np.array_equal(decompress(Bitstream.from_bytes(res.stream.to_bytes())), res.reconstruction)


def test_bit_reader_is_linear_and_matches_unpackbits():
    import time

    from noisecomb.codec import _BitReader

    widths = (0, 1, 2, 5, 9, 16, 31)  # 64 bits: one pattern per big-endian word
    payload = derive_stream(StreamKey(9, Domain.PRIOR_SAMPLE, 0, 0)).take_bytes(1 << 20)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8)).reshape(-1, 64)
    expected = np.empty((len(bits), len(widths)), dtype=np.int64)
    offset = 0
    for j, w in enumerate(widths):
        expected[:, j] = bits[:, offset : offset + w].astype(np.int64) @ (1 << np.arange(w - 1, -1, -1))
        offset += w
    reader = _BitReader(payload, 8 * len(payload))
    got = np.empty_like(expected)
    # linear reads take about a second here, reads quadratic in the payload size about a minute
    deadline = time.perf_counter() + 20.0
    for i in range(len(bits)):
        got[i] = [reader.read(w) for w in widths]
        if i % 1024 == 0:
            assert time.perf_counter() < deadline, f"only {i} of {len(bits)} words read in time"
    assert np.array_equal(got, expected)
    with pytest.raises(FormatError):
        reader.read(1)


def test_unknown_prior_id():
    # an unregistered prior id is refused with the other header fields, before any decoding
    prior, x0 = _signal(seed=4, d=8, prior_id=1)
    sch = Schedule(6, 1e-4, 0.02)
    res = compress(x0, prior, sch, seed=4, K=8, m=2, C=2, n_side=3, prior_id=1)
    blob = bytearray(res.stream.to_bytes())
    struct.pack_into(">I", blob, struct.calcsize(">4sBBQHIBBIHdd"), 999_999)  # prior_id
    with pytest.raises(FormatError, match="prior id 999999 is not registered"):
        Bitstream.from_bytes(bytes(blob))
    with pytest.raises(ValueError, match="not registered"):
        build_registered_prior(999_999, 8)


def test_decompress_identical_across_processes(tmp_path):
    # fresh-interpreter replay: no hidden global state may leak into decoding
    import os
    import subprocess
    import sys
    from pathlib import Path

    import noisecomb

    prior, x0 = _signal(seed=12, d=16)
    sch = Schedule(15, 1e-4, 0.02)
    res = compress(x0, prior, sch, seed=12, K=16, m=3, C=3, n_side=4, prior_id=2)
    blob_path = tmp_path / "stream.bin"
    blob_path.write_bytes(res.stream.to_bytes())
    out_path = tmp_path / "recon.npy"
    script = (
        "import numpy as np\n"
        "from noisecomb.codec import Bitstream, decompress\n"
        f"data = open({str(blob_path)!r}, 'rb').read()\n"
        f"np.save({str(out_path)!r}, decompress(Bitstream.from_bytes(data)))\n"
    )
    src = Path(noisecomb.__file__).resolve().parent.parent  # the package this suite imports
    subprocess.run([sys.executable, "-c", script], check=True, env={**os.environ, "PYTHONPATH": str(src)})
    fresh = np.load(out_path)
    assert fresh.tobytes() == res.reconstruction.tobytes()


def test_bit_packing_round_trip_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from noisecomb.codec import _BitReader, _BitWriter

    fields = st.lists(
        st.integers(0, 30).flatmap(
            lambda w: st.tuples(st.integers(0, max(0, (1 << w) - 1)), st.just(w))
        ),
        min_size=0,
        max_size=40,
    )

    @given(fields)
    @settings(max_examples=200, deadline=None)
    def run(items):
        writer = _BitWriter()
        for value, width in items:
            writer.write(value, width)
        data = writer.getvalue()
        nbits = sum(w for _, w in items)
        assert len(data) == -(-nbits // 8)
        reader = _BitReader(data, nbits)
        for value, width in items:
            assert reader.read(width) == value

    run()


def test_compress_validates_inputs():
    prior, x0 = _signal(seed=0, d=8, prior_id=1)
    sch = Schedule(5, 1e-4, 0.02)
    with pytest.raises(ValueError):
        compress(x0[:4], prior, sch, seed=0, K=8, m=2, C=2, n_side=3, prior_id=1)
    with pytest.raises(ValueError):
        compress(x0, prior, sch, seed=0, K=8, m=2, C=2, n_side=3, prior_id=1, quantizer="magic")
    with pytest.raises(ValueError):
        compress(x0, prior, sch, seed=0, K=12, m=2, C=2, n_side=3, prior_id=1)  # K not 2^j


def test_compress_rejects_prior_the_decoder_cannot_rebuild():
    # the decoder rebuilds the prior from prior_id alone, so any other prior
    # would give a stream whose decode differs from the reconstruction
    prior, x0 = _signal(seed=0, d=16, prior_id=2)
    sch = Schedule(10, 1e-4, 0.02)
    kw = dict(seed=0, K=16, m=2, C=2, n_side=4)
    with pytest.raises(ValueError, match="registered prior 1"):
        compress(x0, prior, sch, prior_id=1, **kw)
    with pytest.raises(ValueError, match="not registered"):
        compress(x0, prior, sch, prior_id=999_999, **kw)
    nudged = GaussianMixturePrior(weights=prior.weights, means=prior.means, variances=prior.variances * 1.01)
    with pytest.raises(ValueError, match="registered prior 2"):
        compress(x0, nudged, sch, prior_id=2, **kw)
    full = GaussianMixturePrior(
        weights=prior.weights, means=prior.means, covariances=np.stack([np.diag(v) for v in prior.variances])
    )
    with pytest.raises(ValueError, match="registered prior 2"):
        compress(x0, full, sch, prior_id=2, **kw)
    res = compress(x0, prior, sch, prior_id=2, **kw)
    assert np.array_equal(decompress(res.stream), res.reconstruction)


def test_dimension_bound_rejects_huge_prior_before_decoding():
    from noisecomb.codec import MAX_D

    assert MAX_D == 1 << 16
    # T=1, K=1, m=1, C=0: T*K*d = 2^29 meets the work bound and the payload is empty,
    # but decoding would build an 8-component prior of dimension 2^29 (about 64 GiB)
    blob = struct.pack(">4sBBQHIBBIHddI", b"NCSB", 1, 1, 0, 1, 1, 1, 0, 1 << 29, 1, 1e-4, 0.02, 4)
    assert len(blob) == 48
    with pytest.raises(FormatError, match="dimension bound"):
        Bitstream.from_bytes(blob)
    with pytest.raises(ValueError, match="dimension bound"):
        CodecHeader(seed=0, T=2, K=2, m=1, C=0, d=MAX_D + 1, n_side=1,
                    beta_min=1e-4, beta_max=0.02, prior_id=1)
    # the bound itself still encodes and decodes
    prior, x0 = _signal(seed=3, d=MAX_D, prior_id=1)
    res = compress(x0, prior, Schedule(2, 1e-4, 0.02), seed=3, K=2, m=1, C=0, n_side=256, prior_id=1)
    assert np.array_equal(decompress(Bitstream.from_bytes(res.stream.to_bytes())), res.reconstruction)


@pytest.mark.parametrize(
    "T,beta_min,beta_max",
    [(3, 1e-17, 1e-17), (3, 1e-17, 0.02), (300, 0.999999999, 0.999999999), (1100, 0.5, 0.5)],
)
def test_header_rejects_schedules_whose_alpha_bar_leaves_the_open_interval(T, beta_min, beta_max):
    # 1 - beta_min rounding to 1 (alpha_bar = 1) or alpha_bar underflowing to 0 makes the
    # reverse steps divide by zero: NaN states, or a ValueError from the score
    blob = struct.pack(">4sBBQHIBBIHddI", b"NCSB", 1, 1, 0, T, 1, 1, 0, 4, 2, beta_min, beta_max, 2)
    with pytest.raises(FormatError, match="alpha_bar"):
        Bitstream.from_bytes(blob)
    prior, x0 = _signal(seed=0, d=4)
    with pytest.raises(ValueError, match="alpha_bar"):
        compress(x0, prior, Schedule(T, beta_min, beta_max), seed=0, K=1, m=1, C=0,
                 n_side=2, prior_id=2)


def _fuzz_base_streams() -> list:
    """Small valid streams covering m = 1, m = K, C = 0 and every registered prior."""
    cells = [(6, 8, 2, 2, 8, 1), (5, 4, 4, 3, 4, 2), (4, 16, 1, 0, 16, 3), (3, 2, 2, 0, 6, 4)]
    out = []
    for T, K, m, C, d, prior_id in cells:
        prior, x0 = _signal(seed=T, d=d, prior_id=prior_id)
        res = compress(x0, prior, Schedule(T, 1e-4, 0.02), seed=T, K=K, m=m, C=C,
                       n_side=3, prior_id=prior_id)
        out.append(res.stream.to_bytes())
    return out


def test_decoder_fuzz_raises_only_documented_errors():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def mutate(args):
        blob, in_payload, edits, cut = args
        out = bytearray(blob)
        start = 48 if in_payload and len(out) > 48 else 0
        for pos, value in edits:
            out[start + pos % (len(out) - start)] = value
        return bytes(out[: len(out) + cut]) if cut < 0 else bytes(out) + bytes(cut)

    def with_betas(args):
        blob, betas = args
        return _with_betas(blob, *sorted(betas))

    bases = st.sampled_from(_fuzz_base_streams())
    mutated = st.tuples(
        bases,
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), min_size=1, max_size=4),
        st.sampled_from([0, 0, 0, 0, -1, 1, -9]),
    ).map(mutate)
    betas = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    streams = st.one_of(
        mutated,
        mutated,
        st.tuples(bases, betas).map(with_betas),
        st.binary(max_size=96),
        st.binary(min_size=42, max_size=64).map(lambda tail: b"NCSB\x01\x01" + tail),
    )

    @given(streams)
    @settings(max_examples=400, deadline=None)
    def run(data):
        try:
            stream = Bitstream.from_bytes(data)
        except FormatError:
            return
        h = stream.header
        if h.T * h.K * h.d <= 1 << 16:
            try:
                assert np.all(np.isfinite(decompress(stream)))
            except FormatError:
                pass

    run()


def _count_derive_stream(monkeypatch) -> list:
    """Record the key of every Philox re-key, the one way noisecomb draws random words."""
    import noisecomb.rng as rng

    keys, real = [], rng._rekey

    def counting(words, block=0):
        seed, packed = words
        keys.append(StreamKey(seed, Domain(packed >> 48), packed >> 32 & 0xFFFF, packed & 0xFFFFFFFF))
        return real(words, block)

    monkeypatch.setattr(rng, "_rekey", counting)
    return keys


@pytest.mark.parametrize("d", [1, 7, 64])
@pytest.mark.parametrize("prior_id", sorted(_PRIORS))
def test_registered_component_count_matches_the_built_prior(prior_id, d):
    # the header reads k from the registry, not from a prior it builds
    assert _PRIORS[prior_id][1] == build_registered_prior(prior_id, d).n_components


def test_parsing_a_header_draws_no_random_words(monkeypatch):
    # prior 4 draws its means from 8 streams; reading its header must not build it
    prior, x0 = _signal(seed=3, d=8, prior_id=4)
    res = compress(x0, prior, Schedule(5, 1e-4, 0.02), seed=3, K=8, m=2, C=2, n_side=3, prior_id=4)
    blob = res.stream.to_bytes()
    keys = _count_derive_stream(monkeypatch)
    assert Bitstream.from_bytes(blob).header.prior_id == 4
    assert keys == []


@pytest.mark.parametrize("T,K,m,C", PARAM_MATRIX)
def test_decoder_draws_only_the_named_atoms(monkeypatch, T, K, m, C):
    prior, x0 = _signal(seed=5, d=12)
    res = compress(x0, prior, Schedule(T, 1e-4, 0.02), seed=5, K=K, m=m, C=C, n_side=4, prior_id=2)
    keys = _count_derive_stream(monkeypatch)
    assert np.array_equal(decompress(res.stream), res.reconstruction)
    atoms = [k for k in keys if k.domain == Domain.CODEBOOK]
    assert len(atoms) == (T - 1) * m  # not (T - 1) * K
    assert len(keys) == len(atoms) + 1  # plus the initial latent


def _one_atom_stream(K: int, d: int, index: int) -> bytes:
    """A T=2, m=1, C=0, prior-1 stream whose single step names atom ``index``."""
    bits = K.bit_length() - 1
    nbytes = -(-bits // 8)
    header = struct.pack(">4sBBQHIBBIHddI", b"NCSB", 1, 1, 7, 2, K, 1, 0, d, 1, 1e-4, 0.02, 1)
    return header + (index << (8 * nbytes - bits)).to_bytes(nbytes, "big")


def test_decoder_memory_does_not_scale_with_codebook_size():
    import tracemalloc

    # T*K*d = 2^29 meets the work bound; a full codebook would be K*d*8 = 2 GiB
    K, d, m = 4096, 1 << 16, 1
    blob = _one_atom_stream(K, d, K - 1)
    assert len(blob) == 50
    stream = Bitstream.from_bytes(blob)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x = decompress(stream)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the prior, the latent and the score's arrays are about 11 d-vectors of 8 bytes
    assert peak <= 16 * m * d * 8
    assert np.all(np.isfinite(x))


def test_encoder_draws_every_codebook_into_one_pair_of_buffers():
    import tracemalloc

    # raw words and normals, K*d*8 bytes each, allocated once per encode; a new
    # codebook per step held beside the previous one peaked at 3.1 K*d*8
    K, d = 64, 1 << 14
    prior = build_registered_prior(1, d)
    x0 = np.linspace(-1.0, 1.0, d)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compress(x0, prior, Schedule(6, 1e-4, 0.02), seed=0, K=K, m=2, C=2, n_side=1, prior_id=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * K * d * 8


def test_decoder_stream_calls_do_not_scale_with_codebook_size(monkeypatch):
    # T*K*d = 2^29 meets the work bound; a full codebook would open 2^28 streams
    T, K, d, m = 2, 1 << 28, 1, 1
    blob = _one_atom_stream(K, d, K - 3)
    assert len(blob) == 52
    stream = Bitstream.from_bytes(blob)
    keys = _count_derive_stream(monkeypatch)
    x = decompress(stream)
    assert len(keys) == (T - 1) * m + 1
    assert StreamKey(7, Domain.CODEBOOK, 2, K - 3) in keys
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_compress_rejects_a_non_finite_signal(monkeypatch, bad):
    prior, x0 = _signal(seed=0, d=8)
    x0 = x0.copy()
    x0[3] = bad
    keys = _count_derive_stream(monkeypatch)
    with pytest.raises(ValueError, match="signal must be finite"):
        compress(x0, prior, Schedule(5, 1e-4, 0.02), seed=0, K=8, m=2, C=2, n_side=3, prior_id=2)
    assert keys == []  # refused before the first step
