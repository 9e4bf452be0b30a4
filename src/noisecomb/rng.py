"""Deterministic, key-addressable random streams and noise codebooks.

Every stream is identified by a :class:`StreamKey` (seed, domain, timestep,
sub-stream index) and is backed by a counter-based Philox-4x64-10 generator,
so equal keys reproduce equal raw words and atoms of a codebook can be
generated independently, in any order, with identical results.

Version tag ``RNG_VERSION = 1`` pins the exact recipe:

* key words: ``(seed, domain << 48 | t << 32 | i)`` as two uint64,
* raw stream: the native Philox-4x64-10 output sequence,
* bytes: raw uint64 words serialized big-endian,
* standard normals: one raw word per normal, mapped through the inverse
  normal CDF as ``ndtri(((raw >> 12) + 0.5) * 2**-52)``.

Two private helpers hold the recipe, and both
:meth:`NoiseStream.standard_normal` and :func:`build_codebook` go through them.
``_rekey`` holds the Philox state recipe: it re-keys this thread's one Philox
generator through its ``.state`` (key words, counter block, empty output
buffer), setting the key and counter of one state dict that the thread
reuses. Because Philox is counter-based, that is exactly the word sequence
of a freshly keyed generator. ``_normals`` is the one normal map; it works in
place, with one float64 buffer beside the raw words. A :class:`NoiseStream` is
a key and a count of the words read so far, and owns no generator: each
read re-keys at block ``count // 4`` and discards the ``count % 4`` words
already consumed from it, so opening a handle costs no generator
construction, and handles read from several threads never share generator
state. :func:`build_codebook` re-keys once per atom with that atom's key
words, without building a key or a handle per atom; the key fields are range
checked once per call, exactly as :class:`StreamKey` checks them.

A large codebook build (``_SPLIT_MIN_VALUES`` normals or more) in a process
that may run on two or more CPUs is split across two threads: one
process-wide helper thread, made on the first such build, draws and maps the
upper half of the atom rows while the caller does the lower half. Both
kernels, Philox and ``ndtri``, release the GIL. Atoms are keyed one by one
and the normal map is element-wise, so the bytes do not depend on the split
or on the CPU count.

Raw words and bytes are integer arithmetic and identical on every platform.
The normals additionally depend on ``ndtri``, which evaluates ``log`` in its
tails; ``log`` is not guaranteed to be correctly rounded, so the golden
vectors in the test suite pin the normals only on the platforms they run on.
"""

from __future__ import annotations

import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = [
    "RNG_VERSION",
    "Domain",
    "StreamKey",
    "NoiseStream",
    "derive_stream",
    "build_codebook",
]

RNG_VERSION = 1

_PHILOX_BLOCK = 4  # raw uint64 outputs per counter increment


def _check_key_fields(seed: int, t: int, i: int) -> None:
    """The ranges that let ``(seed, domain, t, i)`` pack into two uint64 key words."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= t < 2**16:
        raise ValueError(f"timestep index out of range [0, 65535]: {t}")
    if not 0 <= i < 2**32:
        raise ValueError(f"sub-stream index out of range [0, 2^32): {i}")


class Domain(IntEnum):
    """Independent usage domains carved out of one master seed."""

    CODEBOOK = 0
    INIT_LATENT = 1
    FRESH_NOISE = 2
    PRIOR_SAMPLE = 3
    OBSERVATION_NOISE = 4


@dataclass(frozen=True)
class StreamKey:
    """Addresses one independent random stream.

    Distinct keys give statistically independent streams; equal keys give
    identical streams. ``t`` must fit in 16 bits and ``i`` in 32 bits so the
    key packs into one uint64 word alongside the domain.
    """

    seed: int
    domain: Domain
    t: int = 0
    i: int = 0
    _words: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_key_fields(self.seed, self.t, self.i)
        packed = (int(self.domain) << 48) | (self.t << 32) | self.i
        object.__setattr__(self, "_words", (int(self.seed), packed))


_local = threading.local()


def _thread_philox() -> tuple:
    """This thread's Philox generator and the one state dict that re-keys it, made on first use."""
    try:
        return _local.philox
    except AttributeError:
        _local.philox = Philox(key=0), {
            "bit_generator": "Philox",
            "state": {"counter": None, "key": None},
            "buffer": (0,) * _PHILOX_BLOCK,
            "buffer_pos": _PHILOX_BLOCK,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return _local.philox


def _rekey(words: tuple, block: int = 0) -> Philox:
    """This thread's Philox, keyed by the two key ``words``, next output at counter ``block``.

    A re-key sets the key and counter of the thread's one state dict and
    assigns it, so no dict is built per call.
    """
    bitgen, state = _thread_philox()
    keyed = state["state"]
    keyed["key"], keyed["counter"] = words, (block, 0, 0, 0)
    bitgen.state = state
    return bitgen


def _normals(raws: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The v1 normal map ``ndtri(((raw >> 12) + 0.5) * 2**-52)``; overwrites ``raws``.

    The normals go to ``out``, a float64 array of ``raws``' shape, when given.
    """
    u = np.empty(raws.shape) if out is None else out
    u[...] = np.right_shift(raws, np.uint64(12), out=raws)
    u += 0.5
    u *= 2.0**-52
    return ndtri(u, out=u)


def _draw_rows(raws: np.ndarray, normals: np.ndarray, seed: int, base: int, atoms) -> None:
    """Draw atom ``atoms[j]`` into row ``j`` of ``raws``, then map the rows into ``normals``."""
    for j, i in enumerate(atoms):
        raws[j] = _rekey((seed, base | i)).random_raw(raws.shape[1])
    _normals(raws, normals)


# A build of at least this many normals (atoms x d) splits its atom rows with
# one helper thread when the process may run on two or more CPUs (``_CPUS``,
# read once at import). Split over serial build time at K=64, median of 15
# interleaved rounds of min-of-n timings on a 2-core x86_64 host: 1.61 at d=64
# (2^12 values), 1.13 at 256, 0.96 at 512 (2^15, the crossover), 0.85 at 1024
# (2^16), 0.64 at 2048 and 0.57 at 4096. Splitting starts at 2^16, the
# smallest size that won in most rounds (11 of 15).
_SPLIT_MIN_VALUES = 1 << 16
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_helper = None
_helper_lock = threading.Lock()


def _current_cpu() -> int | None:
    """The CPU this thread runs on, read from Linux's ``/proc``; None where it cannot be read."""
    try:
        with open("/proc/thread-self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _avoid_cpu(cpu: int | None) -> None:
    """Keep this thread off ``cpu`` when another allowed CPU remains."""
    others = os.sched_getaffinity(0) - {cpu} if cpu is not None else None
    if others:
        try:
            os.sched_setaffinity(0, others)
        except OSError:
            pass


def _split_helper() -> ThreadPoolExecutor:
    """The process-wide one-thread executor that draws half of a split build, made on first use.

    A scheduler that does not balance threads across CPUs (a cpuset with load
    balancing off) leaves a new thread on its creator's CPU for good, where it
    would only take turns with the caller; so the helper leaves the CPU its
    creator runs on.
    """
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(
                max_workers=1,
                thread_name_prefix="noisecomb-codebook",
                initializer=_avoid_cpu,
                initargs=(_current_cpu(),),
            )
        return _helper


def _forget_helper() -> None:
    # a forked child inherits the executor but not its thread: it makes its own
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


class NoiseStream:
    """A handle on one keyed random stream, read from its start in order.

    It holds the key and the count of raw 64-bit words read so far; no
    generator state lives in the handle.
    """

    __slots__ = ("key", "_position")

    def __init__(self, key: StreamKey):
        self.key = key
        self._position = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        block, within = divmod(self._position, _PHILOX_BLOCK)
        out = _rekey(self.key._words, block).random_raw(within + n)[within:]
        self._position += n
        return out

    def take_bytes(self, n: int) -> bytes:
        """Next ``n`` bytes (big-endian serialization of whole raw words)."""
        words = self.raw(-(-n // 8))
        return words.astype(">u8").tobytes()[:n]

    def standard_normal(self, d: int) -> np.ndarray:
        """Draw ``d`` i.i.d. standard normals; one raw word per normal."""
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        return _normals(self.raw(d))


def derive_stream(key: StreamKey) -> NoiseStream:
    """Open the stream addressed by ``key`` at its start."""
    return NoiseStream(key)


def build_codebook(seed: int, t: int, K: int, d: int, indices=None, buffers=None) -> np.ndarray:
    """Timestep-``t`` codebook: ``K`` standard-normal atoms as columns of a ``(d, K)`` array.

    Column ``i`` is exactly the stream output for key ``StreamKey(seed,
    CODEBOOK, t, i)``, so the result does not depend on generation order and
    regeneration is bit-identical. Each atom re-keys the thread's Philox with
    that key's words directly; the key fields are checked once, before any
    allocation, with :class:`StreamKey`'s ranges. The normal map is applied to
    the raw words in vectorized calls; element-wise it is exactly the
    per-atom map.

    A build of two or more atoms and at least ``_SPLIT_MIN_VALUES`` normals
    (atoms x d), in a process that may run on two or more CPUs, is split: one
    process-wide helper thread draws and maps the upper half of the atom rows
    while the calling thread does the lower half, both in place in the same
    ``(n, d)`` arrays, and the call returns once both halves are done (an
    error in the helper's half is raised here). The split cannot change a
    bit: every atom is drawn from its own key, whichever thread draws it, and
    the normal map is element-wise, so mapping two halves is mapping the whole.

    With ``indices``, only the named atoms are drawn: the result is the
    ``(d, len(indices))`` array whose column ``j`` is exactly column
    ``indices[j]`` of the full codebook (any order, repeats allowed). An index
    outside ``[0, K)`` raises ``ValueError``.

    With ``buffers``, a caller-owned pair ``(raws, normals)`` of ``(n, d)``
    uint64 and float64 arrays, ``n`` the atom count, the build draws into them
    instead of allocating: the result is the view ``normals.T``, which the next
    build into the same pair overwrites. The values are the same.
    """
    if K < 1:
        raise ValueError(f"codebook size must be >= 1, got {K}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if indices is None:
        atoms, top = range(K), K - 1
    else:
        atoms = [operator.index(i) for i in indices]
        outside = [i for i in atoms if not 0 <= i < K]
        if outside:
            raise ValueError(f"atom indices must lie in [0, {K}), got {outside}")
        top = max(atoms, default=0)
    seed, t = operator.index(seed), operator.index(t)
    _check_key_fields(seed, t, top)
    n = len(atoms)
    if buffers is None:
        raws, normals = np.empty((n, d), dtype=np.uint64), np.empty((n, d))
    else:
        raws, normals = buffers
        if not (raws.dtype == np.uint64 and normals.dtype == np.float64
                and raws.shape == normals.shape == (n, d)):
            raise ValueError(f"buffers must be uint64 and float64 arrays of shape {(n, d)}")
    base = (int(Domain.CODEBOOK) << 48) | (t << 32)
    if n < 2 or n * d < _SPLIT_MIN_VALUES or _CPUS < 2:
        _draw_rows(raws, normals, seed, base, atoms)
        return normals.T
    # the helper's share reaches it through a list that it empties, so once
    # ``.result()`` returns, the executor's work item holds no caller buffer
    half = (n + 1) // 2
    upper = [(raws[half:], normals[half:], seed, base, atoms[half:])]
    done = _split_helper().submit(lambda: _draw_rows(*upper.pop()))
    try:
        _draw_rows(raws[:half], normals[:half], seed, base, atoms[:half])
    finally:
        done.result()
    return normals.T
