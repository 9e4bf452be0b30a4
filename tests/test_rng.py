import multiprocessing
import os
import threading
import weakref

import numpy as np
import pytest

import noisecomb.rng as rng
from noisecomb.rng import (
    Domain,
    NoiseStream,
    StreamKey,
    build_codebook,
    derive_stream,
)

# Golden vectors frozen from the first implementation of the v1 recipe
# (Philox-4x64-10 keyed streams, inverse-CDF normals). Any change to the
# generator or the normal map must bump RNG_VERSION.
GOLDEN_KEY = StreamKey(0, Domain.CODEBOOK, 5, 3)
GOLDEN_BYTES_32 = bytes.fromhex(
    "0e30b455cc8849a2f472e2b17cf873f605b28932c6d58059ce469bcd99010283"
)
GOLDEN_RAW_4 = [
    1022515396009806242,
    17614390344533177334,
    410541367221387353,
    14863738927520481923,
]
GOLDEN_NORMALS_4 = [
    -1.5943335753228167,
    1.6941121596218065,
    -2.0092466351510767,
    0.8623949903547883,
]


def test_same_key_same_bytes():
    a = derive_stream(StreamKey(42, Domain.FRESH_NOISE, 7, 1)).take_bytes(1024)
    b = derive_stream(StreamKey(42, Domain.FRESH_NOISE, 7, 1)).take_bytes(1024)
    assert a == b


def test_distinct_substream_index_differs():
    a = derive_stream(StreamKey(42, Domain.CODEBOOK, 7, 1)).take_bytes(64)
    b = derive_stream(StreamKey(42, Domain.CODEBOOK, 7, 2)).take_bytes(64)
    assert a != b


@pytest.mark.parametrize(
    "other",
    [
        StreamKey(1, Domain.CODEBOOK, 5, 3),
        StreamKey(0, Domain.FRESH_NOISE, 5, 3),
        StreamKey(0, Domain.CODEBOOK, 6, 3),
        StreamKey(0, Domain.CODEBOOK, 5, 4),
    ],
)
def test_any_key_field_changes_stream(other):
    base = derive_stream(GOLDEN_KEY).take_bytes(64)
    assert derive_stream(other).take_bytes(64) != base


def test_golden_byte_vector():
    assert derive_stream(GOLDEN_KEY).take_bytes(32) == GOLDEN_BYTES_32


def test_golden_raw_and_normals():
    assert derive_stream(GOLDEN_KEY).raw(4).tolist() == GOLDEN_RAW_4
    got = derive_stream(GOLDEN_KEY).standard_normal(4)
    assert np.array_equal(got, np.array(GOLDEN_NORMALS_4))


def test_normals_match_documented_inverse_cdf_recipe():
    # independent re-derivation of the v1 normal map from the raw words
    from scipy.special import ndtri

    raws = np.array(GOLDEN_RAW_4, dtype=np.uint64)
    u = ((raws >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    assert np.array_equal(ndtri(u), np.array(GOLDEN_NORMALS_4))


def test_key_field_validation():
    with pytest.raises(ValueError):
        StreamKey(-1, Domain.CODEBOOK, 0, 0)
    with pytest.raises(ValueError):
        StreamKey(0, Domain.CODEBOOK, 2**16, 0)
    with pytest.raises(ValueError):
        StreamKey(0, Domain.CODEBOOK, 0, 2**32)


def test_stream_is_value_like():
    # a handle is its key and the count of words it has read: two handles on
    # one key that have read as many words, in any reads, read on alike
    s, c = derive_stream(GOLDEN_KEY), derive_stream(GOLDEN_KEY)
    assert s.raw(1).tolist() == GOLDEN_RAW_4[:1]
    assert s.raw(3).tolist() == GOLDEN_RAW_4[1:4]
    c.raw(2)
    c.raw(2)
    assert np.array_equal(c.raw(5), s.raw(5))


@pytest.mark.parametrize("position", [1, 2, 3, 5, 6, 7, 9, 14])
def test_reads_off_block_boundary_match_fresh_slice(position):
    # a read that starts inside a Philox block re-keys at that block and skips
    # the words already consumed from it
    fresh = derive_stream(GOLDEN_KEY).raw(position + 11)
    whole, stepped = derive_stream(GOLDEN_KEY), derive_stream(GOLDEN_KEY)
    assert np.array_equal(whole.raw(position), fresh[:position])
    for j in range(position):  # the same words, one read each
        assert stepped.raw(1)[0] == fresh[j]
    assert np.array_equal(stepped.raw(11), fresh[position:])
    assert np.array_equal(whole.raw(11), fresh[position:])  # reading one handle leaves the other alone


def test_handles_read_alternately_from_two_threads_match_serial():
    keys = [StreamKey(1, Domain.CODEBOOK, 0, 0), StreamKey(2, Domain.FRESH_NOISE, 3, 5)]
    turns = [threading.Semaphore(1), threading.Semaphore(0)]
    got, generators, errors = [[], []], [None, None], []

    def reader(j):
        stream = derive_stream(keys[j])
        for _ in range(6):
            if not turns[j].acquire(timeout=10):
                return
            try:
                got[j].append(stream.raw(3))
                generators[j] = rng._thread_philox()[0]
            except Exception as exc:
                errors.append(exc)
                return
            finally:
                turns[1 - j].release()

    threads = [threading.Thread(target=reader, args=(j,)) for j in (0, 1)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    assert not errors and not any(th.is_alive() for th in threads)
    assert generators[0] is not generators[1]
    for j in (0, 1):
        assert np.array_equal(np.concatenate(got[j]), derive_stream(keys[j]).raw(18))


def test_codebook_build_constructs_at_most_one_philox_per_thread(monkeypatch):
    made = []
    real = rng.Philox

    def counting(*args, **kwargs):
        made.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(rng, "Philox", counting)
    reference = build_codebook(3, 7, 64, 16)
    assert len(made) <= 1
    made.clear()
    built = {}
    worker = threading.Thread(target=lambda: built.update(cb=build_codebook(3, 7, 64, 16)))
    worker.start()
    worker.join()
    assert made == [worker.ident]
    assert np.array_equal(built["cb"], reference)


def test_sample_standard_normal_rejects_zero_dim():
    with pytest.raises(ValueError):
        derive_stream(GOLDEN_KEY).standard_normal(0)


def test_normal_moments_one_million_draws():
    # Monte Carlo bounds: ~5 sigma for the mean, ~7 sigma for the variance
    n, d = 10**6, 4
    stream = derive_stream(StreamKey(123, Domain.FRESH_NOISE, 0, 0))
    z = stream.standard_normal(n * d).reshape(n, d)
    assert np.all(np.abs(z.mean(axis=0)) <= 0.005)
    assert np.all((z.var(axis=0) >= 0.99) & (z.var(axis=0) <= 1.01))


def test_identical_stream_state_identical_vector():
    a, b = (derive_stream(StreamKey(9, Domain.INIT_LATENT, 3, 0)) for _ in range(2))
    a.raw(11)
    b.raw(11)
    assert np.array_equal(a.standard_normal(16), b.standard_normal(16))


def test_codebook_bit_reproducible():
    a = build_codebook(17, 9, 8, 32)
    b = build_codebook(17, 9, 8, 32)
    assert np.array_equal(a, b)
    assert a.shape == (32, 8)


def test_codebook_single_atom_matches_substream():
    cb = build_codebook(5, 2, 1, 24)
    direct = derive_stream(StreamKey(5, Domain.CODEBOOK, 2, 0)).standard_normal(24)
    assert np.array_equal(cb[:, 0], direct)


def test_codebook_atom_is_its_substream_output():
    cb = build_codebook(11, 4, 6, 40)
    for i in (0, 3, 5):
        direct = derive_stream(StreamKey(11, Domain.CODEBOOK, 4, i)).standard_normal(40)
        assert np.array_equal(cb[:, i], direct)


def test_codebook_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_codebook(0, 0, 0, 4)
    with pytest.raises(ValueError):
        build_codebook(0, 0, 4, 0)


def test_codebook_named_atoms_are_columns_of_the_full_codebook():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        K = draw(st.sampled_from([1, 2, 3, 8, 16, 64]))
        d = draw(st.integers(1, 40))
        indices = draw(st.lists(st.integers(0, K - 1), max_size=2 * K + 1))
        return draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 65535)), K, d, indices

    @given(cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def run(case, reverse):
        seed, t, K, d, indices = case
        if reverse:
            indices = indices[::-1]
        named = build_codebook(seed, t, K, d, indices)
        assert named.shape == (d, len(indices))
        assert named.tobytes() == build_codebook(seed, t, K, d)[:, indices].tobytes()

    run()
    full = build_codebook(2, 3, 8, 16)
    every_atom_reversed = list(range(8))[::-1]
    assert build_codebook(2, 3, 8, 16, every_atom_reversed).tobytes() == full[:, ::-1].tobytes()
    assert build_codebook(2, 3, 1, 16, [0]).tobytes() == build_codebook(2, 3, 1, 16).tobytes()


def test_codebook_into_caller_buffers_is_the_same_codebook():
    raws, normals = np.empty((8, 16), dtype=np.uint64), np.empty((8, 16))
    for t in (3, 4):
        into = build_codebook(2, t, 8, 16, buffers=(raws, normals))
        assert np.shares_memory(into, normals)
        assert into.tobytes() == build_codebook(2, t, 8, 16).tobytes()
    named = build_codebook(2, 3, 8, 16, [5, 1], buffers=(raws[:2], normals[:2]))
    assert named.tobytes() == build_codebook(2, 3, 8, 16)[:, [5, 1]].tobytes()
    for bad in ((raws[:7], normals[:7]), (raws, normals.astype(np.float32)), (normals, normals)):
        with pytest.raises(ValueError, match="buffers"):
            build_codebook(2, 3, 8, 16, buffers=bad)


@pytest.mark.parametrize("indices", [[8], [-1], [0, 3, 9], [2**32]])
def test_codebook_rejects_atom_indices_outside_the_codebook(indices):
    with pytest.raises(ValueError, match="atom indices"):
        build_codebook(0, 1, 8, 4, indices)


def test_codebook_rejects_out_of_range_key_fields(monkeypatch):
    # the per-atom loop builds no StreamKey, so build_codebook itself must
    # apply StreamKey's ranges, and before the first atom is drawn
    draws = []
    real = rng._rekey
    monkeypatch.setattr(rng, "_rekey", lambda *a: draws.append(a) or real(*a))
    cases = [
        ((2**64, 1, 8, 4), {}),
        ((-1, 1, 8, 4), {}),
        ((0, 2**16, 8, 4), {}),
        ((0, 1, 2**32 + 8, 4), {"indices": [2**32]}),
    ]
    for args, kwargs in cases:
        with pytest.raises(ValueError):
            build_codebook(*args, **kwargs)
    assert draws == []
    build_codebook(2**64 - 1, 2**16 - 1, 2**32 + 8, 4, indices=[2**32 - 1])
    assert len(draws) == 1


def test_codebook_checks_the_index_range_before_allocating():
    import tracemalloc

    # K = 2^33 atoms at d = 16 would be a 1 TiB array of raw words; the range
    # error comes first, with nothing of that size allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="sub-stream index out of range"):
            build_codebook(0, 1, 1 << 33, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_atom_norms_concentrate():
    d, K = 4096, 64
    cb = build_codebook(3, 1, K, d)
    norms = np.linalg.norm(cb, axis=0)
    root_d = np.sqrt(d)
    assert np.all(norms > 0.93 * root_d)
    assert np.all(norms < 1.07 * root_d)


def test_atom_cross_correlation_near_zero():
    d = 2048
    cb = build_codebook(8, 2, 6, d)
    for i in range(5):
        for j in range(i + 1, 6):
            r = np.corrcoef(cb[:, i], cb[:, j])[0, 1]
            assert abs(r) < 4 / np.sqrt(d)


def test_concurrent_codebook_builds_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(seed, t) for seed in (0, 1, 2) for t in (1, 2, 3, 4)]
    serial = [build_codebook(seed, t, 6, 64) for seed, t in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda j: build_codebook(j[0], j[1], 6, 64), jobs))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


@pytest.fixture
def split(monkeypatch):
    """Every build of two or more atoms splits with the helper thread, on any host."""
    monkeypatch.setattr(rng, "_SPLIT_MIN_VALUES", 1)
    monkeypatch.setattr(rng, "_CPUS", 2)


def test_concurrent_split_builds_share_one_helper(split, monkeypatch):
    import sys
    import time
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(seed, t) for seed in (0, 1, 2) for t in (1, 2, 3, 4)]
    expected = [
        np.stack([derive_stream(StreamKey(seed, Domain.CODEBOOK, t, i)).standard_normal(64) for i in range(6)], 1)
        for seed, t in jobs
    ]
    helpers = []

    def slow_helper(**kwargs):
        time.sleep(0.05)  # lets the other callers reach the helper check meanwhile
        helpers.append(ThreadPoolExecutor(**kwargs))
        return helpers[-1]

    # eight callers race to make the helper, and all of them share one
    monkeypatch.setattr(rng, "_helper", None)
    monkeypatch.setattr(rng, "ThreadPoolExecutor", slow_helper)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            built = list(pool.map(lambda j: build_codebook(j[0], j[1], 6, 64), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
        for helper in helpers:
            helper.shutdown()
    assert len(helpers) == 1
    for a, b in zip(expected, built):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("K", [1, 3, 5, 64])
def test_split_build_is_the_serial_build(monkeypatch, K):
    d = 24
    indices = [K - 1, 0, K // 2, 0, K - 1][::-1]  # odd count, repeats, reversed
    raws, normals = np.empty((K, d), dtype=np.uint64), np.empty((K, d))

    def builds():
        return [
            build_codebook(9, 4, K, d),
            build_codebook(9, 4, K, d, indices),
            build_codebook(9, 4, K, d, buffers=(raws, normals)).copy(),
        ]

    monkeypatch.setattr(rng, "_SPLIT_MIN_VALUES", 2**62)
    serial = builds()
    mapped_on = set()
    real = rng._normals
    monkeypatch.setattr(
        rng, "_normals", lambda *a: mapped_on.add(threading.current_thread().name) or real(*a)
    )
    monkeypatch.setattr(rng, "_SPLIT_MIN_VALUES", 1)
    monkeypatch.setattr(rng, "_CPUS", 2)
    split = builds()
    assert len(mapped_on) == 2  # the five-atom named build splits even at K=1
    for a, b in zip(serial, split):
        assert a.tobytes() == b.tobytes()
    assert split[1].tobytes() == serial[0][:, indices].tobytes()
    for i in range(K):
        direct = derive_stream(StreamKey(9, Domain.CODEBOOK, 4, i)).standard_normal(d)
        assert split[0][:, i].tobytes() == direct.tobytes()


def test_split_build_keeps_no_caller_buffer_alive(split):
    raws, normals = np.empty((8, 16), dtype=np.uint64), np.empty((8, 16))
    refs = [weakref.ref(raws), weakref.ref(normals)]
    codebook = build_codebook(2, 3, 8, 16, buffers=(raws, normals))
    del raws, normals, codebook
    assert all(ref() is None for ref in refs)


def test_split_builds_start_at_most_one_thread(split):
    before = threading.active_count()
    for t in range(50):
        build_codebook(1, t, 4, 8)
    assert threading.active_count() <= before + 1


def test_error_in_the_helpers_half_reaches_the_caller(split, monkeypatch):
    # the two halves map their rows in either order, so the helper's call is
    # told apart by its thread, not by its place in the call sequence
    caller, error = threading.get_ident(), RuntimeError("helper half failed")
    real = rng._normals

    def failing_off_caller(*args):
        if threading.get_ident() != caller:
            raise error
        return real(*args)

    monkeypatch.setattr(rng, "_normals", failing_off_caller)
    with pytest.raises(RuntimeError) as caught:
        build_codebook(1, 2, 6, 8)
    assert caught.value is error
    monkeypatch.setattr(rng, "_normals", real)
    column = derive_stream(StreamKey(1, Domain.CODEBOOK, 2, 5)).standard_normal(8)
    assert build_codebook(1, 2, 6, 8)[:, 5].tobytes() == column.tobytes()


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs thread affinity and two CPUs",
)
def test_helper_leaves_its_creators_cpu(monkeypatch):
    # a scheduler that does not balance threads leaves a new thread on its
    # creator's CPU; the helper moves off it
    allowed = os.sched_getaffinity(0)
    assert rng._current_cpu() in allowed
    monkeypatch.setattr(rng, "_helper", None)
    monkeypatch.setattr(rng, "_current_cpu", lambda: min(allowed))
    helper = rng._split_helper()
    try:
        assert helper.submit(os.sched_getaffinity, 0).result(timeout=30) == allowed - {min(allowed)}
    finally:
        helper.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_splits_with_its_own_helper(split):
    reference = build_codebook(4, 2, 8, 16).tobytes()  # the parent's helper now exists
    context = multiprocessing.get_context("fork")
    received, sent = context.Pipe(duplex=False)
    child = context.Process(target=lambda: sent.send_bytes(build_codebook(4, 2, 8, 16).tobytes()))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
    assert received.poll(0) and received.recv_bytes() == reference


def test_interleaved_streams_do_not_interact():
    a = NoiseStream(StreamKey(1, Domain.CODEBOOK, 0, 0))
    b = NoiseStream(StreamKey(2, Domain.CODEBOOK, 0, 0))
    interleaved_a, interleaved_b = [], []
    for _ in range(4):
        interleaved_a.append(a.raw(3))
        interleaved_b.append(b.raw(3))
    assert np.array_equal(
        np.concatenate(interleaved_a),
        derive_stream(StreamKey(1, Domain.CODEBOOK, 0, 0)).raw(12),
    )
    assert np.array_equal(
        np.concatenate(interleaved_b),
        derive_stream(StreamKey(2, Domain.CODEBOOK, 0, 0)).raw(12),
    )
