"""Generative compression: per-step atom indices plus stick-breaking codes.

A signal is encoded by running the reverse diffusion against it (observation
= the signal itself): each step selects the m codebook atoms best aligned
with the residual direction, quantizes their combination weights, records
``m`` index fields of log2(K) bits and ``m - 1`` code fields of C bits, and
steps the trajectory forward using the *quantized* weights, so the encoder's
reconstruction and the decoder's replay coincide bit for bit.

Container layout (all big-endian):

* header: magic ``NCSB``, format version u8, rng version u8, seed u64,
  T u16, K u32, m u8, C u8, d u32, n_side u16, beta_min f64, beta_max f64,
  prior_id u32;
* payload: for t = T..2, the index fields then the code fields, bit-packed
  MSB-first, final byte zero-padded (non-zero padding is rejected). Total
  payload bits are exactly ``(T - 1) * (m * log2(K) + C * (m - 1))``. The m
  indices of a step are distinct; a step naming an atom twice is rejected.
  Headers with ``C > MAX_C``, ``T * K * d > MAX_ENCODE_WORK``, ``d > MAX_D``,
  an unregistered ``prior_id`` or ``T * d * (k + m) > MAX_DECODE_WORK`` (k:
  the prior's component count) are rejected before decoding.

Encoder and decoder are two noise policies of one ``reverse_loop`` that share
one step synthesis, so the decoder replays the encoder by construction.

The decoder rebuilds prior, schedule, latents, and the named atoms of each
codebook from the header and payload alone: it reads a step's m indices
first and draws only those m atoms, so its per-step work and memory are
m * d, independent of K. Priors travel as ids into one fixed table, the
same in every process, mirroring how the generative model itself is shared.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass

import numpy as np

from .combination import DegenerateDirectionError, TopMSelection, synthesize_noise, top_m_weights
from .diffusion import GaussianMixturePrior, Schedule, reverse_loop
from .quantizer import QUANTIZERS, Grid, StickCode, bpp, decode_weights, payload_bits
from .rng import RNG_VERSION, Domain, StreamKey, build_codebook, derive_stream

__all__ = [
    "FORMAT_VERSION",
    "HEADER_BYTES",
    "MAX_C",
    "MAX_ENCODE_WORK",
    "MAX_DECODE_WORK",
    "MAX_D",
    "FormatError",
    "CodecHeader",
    "Bitstream",
    "CompressResult",
    "build_registered_prior",
    "compress",
    "decompress",
    "report_bpp",
]

FORMAT_VERSION = 1

# Largest code width C a header may declare: the decoder's stick grid holds
# 2^C fractions (512 KiB at C = 16). No shipped config or benchmark uses C > 8.
MAX_C = 16

# Largest T * K * d a header may declare, the encoder's work bound: encoding draws
# (T - 1) * K * d codebook normals, and a v1 decoder rejects what the encoder would
# refuse. Admits T=1000, K=128, d=4096 (524,288,000).
MAX_ENCODE_WORK = 1 << 29

# Largest T * d * (k + m) a header may declare, the decoder's work bound: each step
# scores the state against the prior's k components and draws the m named atoms,
# 25-35 ns per unit on a 2-core x86_64 host, so about a second. Admits T=1000,
# d=4096, k=2, m=4.
MAX_DECODE_WORK = 1 << 25

# Largest signal dimension d a header may declare: the decoder builds a prior of
# d-vectors (prior 4 holds 16 of them) before any work bound applies. The shipped
# configs and the benchmark use d <= 4096.
MAX_D = 1 << 16

_MAGIC = b"NCSB"
_HEADER_STRUCT = struct.Struct(">4sBBQHIBBIHddI")
HEADER_BYTES = _HEADER_STRUCT.size  # a stream's fixed-size header; its payload follows


class FormatError(ValueError):
    """The byte stream is not a valid container of a supported version."""


@dataclass(frozen=True)
class CodecHeader:
    """The header fields after magic and versions, in their packing order."""

    seed: int
    T: int
    K: int
    m: int
    C: int
    d: int
    n_side: int
    beta_min: float
    beta_max: float
    prior_id: int

    def __post_init__(self) -> None:
        if self.K < 1 or (self.K & (self.K - 1)) != 0:
            raise ValueError(f"K must be a power of two, got {self.K}")
        if not 1 <= self.m <= min(self.K, 255):
            raise ValueError(f"m must be in [1, min(K, 255)], got {self.m}")
        if not 0 <= self.C <= MAX_C:
            raise ValueError(f"C must be in [0, {MAX_C}], got {self.C}")
        if not 1 <= self.T <= 65535:
            raise ValueError(f"T must fit in [1, 65535], got {self.T}")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.T * self.K * self.d > MAX_ENCODE_WORK:
            work = self.T * self.K * self.d
            raise ValueError(f"T*K*d = {work} exceeds the encode work bound {MAX_ENCODE_WORK}")
        if self.d > MAX_D:
            raise ValueError(f"d = {self.d} exceeds the dimension bound {MAX_D}")
        if not 1 <= self.n_side <= 65535:
            raise ValueError(f"n_side must fit in [1, 65535], got {self.n_side}")
        Schedule(self.T, self.beta_min, self.beta_max)  # checks the betas and alpha_bar
        if self.prior_id not in _PRIORS:
            raise ValueError(f"prior id {self.prior_id} is not registered")
        _, k = _PRIORS[self.prior_id]
        work = self.T * self.d * (k + self.m)
        if work > MAX_DECODE_WORK:
            raise ValueError(f"T*d*(k+m) = {work} exceeds the decode work bound {MAX_DECODE_WORK}")

    @property
    def index_bits(self) -> int:
        return self.K.bit_length() - 1

    @property
    def payload_bits(self) -> int:
        return payload_bits(self.T, self.K, self.m, self.C)

    def pack(self) -> bytes:
        return _HEADER_STRUCT.pack(_MAGIC, FORMAT_VERSION, RNG_VERSION, *astuple(self))

    @classmethod
    def unpack(cls, data: bytes) -> "CodecHeader":
        if len(data) < _HEADER_STRUCT.size:
            raise FormatError(f"header needs {_HEADER_STRUCT.size} bytes, got {len(data)}")
        magic, version, rng_version, *fields = _HEADER_STRUCT.unpack_from(data)
        if magic != _MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")
        if rng_version != RNG_VERSION:
            raise FormatError(f"unsupported rng version {rng_version}")
        try:
            return cls(*fields)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc


class _BitWriter:
    """MSB-first bit packer; the final byte is zero-padded."""

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0
        self._out = bytearray()

    def write(self, value: int, width: int) -> None:
        if width == 0:
            return
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nbits += width
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        out = bytes(self._out)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


class _BitReader:
    """MSB-first bit unpacker; each read converts only the bytes its field spans."""

    def __init__(self, data: bytes, nbits: int):
        if len(data) * 8 < nbits:
            raise FormatError(f"payload holds {len(data) * 8} bits, need {nbits}")
        self._data = bytes(data)
        self._nbits = nbits
        self._pos = 0

    def read(self, width: int) -> int:
        if width == 0:
            return 0
        if self._pos + width > self._nbits:
            raise FormatError("read past end of payload")
        start, end = self._pos >> 3, (self._pos + width + 7) >> 3
        chunk = int.from_bytes(self._data[start:end], "big")
        self._pos += width
        return (chunk >> (8 * end - self._pos)) & ((1 << width) - 1)


@dataclass(frozen=True)
class Bitstream:
    header: CodecHeader
    payload: bytes

    def __post_init__(self) -> None:
        expected = -(-self.header.payload_bits // 8)
        if len(self.payload) != expected:
            raise FormatError(
                f"payload must be {expected} bytes for these parameters, got {len(self.payload)}"
            )
        pad = 8 * expected - self.header.payload_bits
        if pad and self.payload[-1] & ((1 << pad) - 1):
            raise FormatError(f"the {pad} padding bits of the last payload byte must be zero")

    def to_bytes(self) -> bytes:
        return self.header.pack() + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        return cls(header=CodecHeader.unpack(data), payload=data[_HEADER_STRUCT.size :])


@dataclass(frozen=True)
class CompressResult:
    stream: Bitstream
    reconstruction: np.ndarray
    degenerate_steps: int


# --------------------------------------------------------------------------
# prior table: decodable priors are fixed in code and addressed by id
# --------------------------------------------------------------------------

def _standard_normal_prior(d: int) -> GaussianMixturePrior:
    return GaussianMixturePrior.single(np.zeros(d), np.ones(d))


def _bimodal_prior(d: int) -> GaussianMixturePrior:
    means = np.vstack([np.full(d, 0.8), np.full(d, -0.8)])
    return GaussianMixturePrior(
        weights=np.array([0.5, 0.5]), means=means, variances=np.full((2, d), 0.25)
    )


def _anisotropic_prior(d: int) -> GaussianMixturePrior:
    v = np.linspace(0.25, 1.5, d) if d > 1 else np.array([1.0])
    return GaussianMixturePrior.single(np.zeros(d), v)


def _seeded_mixture_prior(d: int) -> GaussianMixturePrior:
    k = 8
    means = np.empty((k, d))
    for j in range(k):
        stream = derive_stream(StreamKey(4, Domain.PRIOR_SAMPLE, 0, j))
        means[j] = 0.9 * stream.standard_normal(d)
    return GaussianMixturePrior(
        weights=np.full(k, 1.0 / k), means=means, variances=np.full((k, d), 0.15)
    )


_PRIORS = {  # id -> (builder of the prior at dimension d, its component count)
    1: (_standard_normal_prior, 1),
    2: (_bimodal_prior, 2),
    3: (_anisotropic_prior, 1),
    4: (_seeded_mixture_prior, 8),
}


def build_registered_prior(prior_id: int, d: int) -> GaussianMixturePrior:
    if prior_id not in _PRIORS:
        raise ValueError(f"prior id {prior_id} is not registered")
    return _PRIORS[prior_id][0](d)


# --------------------------------------------------------------------------
# encode / decode
# --------------------------------------------------------------------------

def _step_noise(atoms, code: StickCode, grid) -> np.ndarray:
    """Noise of one coded step from its ``(d, m)`` atoms in stored index order.

    Summed in that order; shared by encoder and decoder.
    """
    selection = TopMSelection(indices=np.arange(atoms.shape[1]), weights=decode_weights(code, grid))
    return synthesize_noise(atoms, selection)


def _fallback_record(header: CodecHeader) -> tuple:
    """Deterministic record for a degenerate direction: the first m atoms.

    With stored codes the first stick fraction is 1 (top code ``2^C - 1``), so
    the first atom gets weight one; at C = 0 all codes are 0 and the implicit
    equal split combines the m atoms equally.
    """
    codes = ((1 << header.C) - 1,) + (0,) * (header.m - 2) if header.m > 1 else ()
    return list(range(header.m)), StickCode(codes=codes)


def compress(
    x0: np.ndarray,
    prior: GaussianMixturePrior,
    schedule: Schedule,
    *,
    seed: int,
    K: int,
    m: int,
    C: int,
    n_side: int,
    prior_id: int,
    quantizer: str = "dp",
) -> CompressResult:
    """Encode ``x0`` and return the stream plus the encoder-side reconstruction.

    ``prior`` must be the one the decoder rebuilds from ``prior_id``; any
    other raises ``ValueError``. The header carries the schedule's three numbers.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (prior.d,):
        raise ValueError(f"signal shape {x0.shape} != prior dimension ({prior.d},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("signal must be finite; it holds inf or NaN")
    if quantizer not in QUANTIZERS:
        raise ValueError(f"unknown quantizer {quantizer!r}; choose from {sorted(QUANTIZERS)}")
    header = CodecHeader(
        seed=seed,
        T=schedule.T,
        K=K,
        m=m,
        C=C,
        d=prior.d,
        n_side=n_side,
        beta_min=float(schedule.beta_min),
        beta_max=float(schedule.beta_max),
        prior_id=prior_id,
    )
    registered = build_registered_prior(prior_id, prior.d)
    fields = ("weights", "means", "variances", "covariances")
    if not all(np.array_equal(getattr(prior, f), getattr(registered, f)) for f in fields):
        raise ValueError(
            f"prior is not registered prior {prior_id} at d={prior.d}; "
            "the decoder could not rebuild it from the header"
        )
    quantize = QUANTIZERS[quantizer]
    grid = Grid(C)
    writer = _BitWriter()
    degenerate = 0
    # Every step draws its codebook into one (K, d) array of raw words allocated
    # here, so the encoder's heap does not grow and shrink by a codebook a step.
    buffer = np.empty((K, prior.d), dtype=np.uint64)

    def encode(steps):
        nonlocal degenerate
        (step,) = steps
        codebook = build_codebook(seed, step.t, K, prior.d, buffer=buffer)
        try:
            selection = top_m_weights(x0 - step.x0_hat[0], codebook, m)
            indices = selection.indices.tolist()
            # quantizers are scale-invariant in b, so the normalized clamped
            # weights stand in for the restricted inner products
            code = quantize(selection.weights, grid)
        except DegenerateDirectionError:
            degenerate += 1
            indices, code = _fallback_record(header)
        for idx in indices:
            writer.write(idx, header.index_bits)
        for value in code.codes:
            writer.write(value, C)
        return [_step_noise(codebook[:, indices], code, grid)[None]]

    x = reverse_loop(prior, [(schedule, seed)], encode)[0]
    stream = Bitstream(header=header, payload=writer.getvalue())
    return CompressResult(stream=stream, reconstruction=x, degenerate_steps=degenerate)


def decompress(stream: Bitstream) -> np.ndarray:
    """Replay the encoder's synthesis path; bit-identical to its reconstruction."""
    header = stream.header
    prior = build_registered_prior(header.prior_id, header.d)
    schedule = Schedule(header.T, header.beta_min, header.beta_max)
    grid = Grid(header.C)
    reader = _BitReader(stream.payload, header.payload_bits)

    def decode(steps):
        (step,) = steps
        indices = [reader.read(header.index_bits) for _ in range(header.m)]
        if len(set(indices)) != header.m:
            raise FormatError(f"step t={step.t} names an atom more than once: {indices}")
        code = StickCode(codes=tuple(reader.read(header.C) for _ in range(header.m - 1)))
        atoms = build_codebook(header.seed, step.t, header.K, header.d, indices)
        return [_step_noise(atoms, code, grid)[None]]

    return reverse_loop(prior, [(schedule, header.seed)], decode)[0]


def report_bpp(stream: Bitstream) -> float:
    """Bits per pixel implied by the header; equals payload bits / n_side^2."""
    h = stream.header
    return bpp(h.T, h.K, h.m, h.C, h.n_side)
