"""WAV file I/O and frame reshaping.

The reader returns mono float64 buffers scaled to [-1, 1]. It reads PCM
16-bit, PCM 24-bit and IEEE float-32, mono or stereo (stereo is downmixed
by channel averaging). The writer writes mono IEEE float-32 only.
Sample-rate conversion is deliberately not offered; the curation gates
measure bandwidth content, which resampling would alter.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

logger = logging.getLogger(__name__)

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# Codecs read_wav decodes: (format code, bits per sample) -> (container
# dtype, full scale). Each sample is placed in the top bytes of a 4-byte
# little-endian container, so an integer PCM sample reads as an int32 equal to
# the sample times 2^(32 - bits), and a float sample as itself.
CODECS = {
    (WAVE_FORMAT_PCM, 16): ("<i4", 2.0**31),
    (WAVE_FORMAT_PCM, 24): ("<i4", 2.0**31),
    (WAVE_FORMAT_IEEE_FLOAT, 32): ("<f4", 1.0),
}

# Frames read_wav reads and decodes at a time. Its two block buffers take at
# most 16 bytes a frame, so they stay in cache, and a read call is amortised
# over many frames.
READ_BLOCK_FRAMES = 32768

# The largest rate and length whose byte rate and RIFF size fit a WAV header's 32-bit fields.
MAX_WRITE_RATE = 0xFFFFFFFF // 4
MAX_WRITE_SAMPLES = (0xFFFFFFFF - 36) // 4


class WavError(Exception):
    """Raised for unreadable, malformed or unsupported WAV files."""


@dataclass
class AudioBuffer:
    """Mono sample sequence with its sample rate.

    ``samples`` is a 1-D float64 array. Ingested audio lies in [-1, 1];
    processed audio (e.g. enhancer output) may overshoot slightly and is
    clipped again on write. ``sample_rate`` is a positive integer of any
    integer type but bool, stored as an int, so that write_wav's header
    holds it as given.

    Validation allocates nothing the size of the samples: finiteness is
    checked with a min and a max reduction, through which a NaN propagates.
    """

    samples: np.ndarray
    sample_rate: int
    source: str | None = None

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"AudioBuffer must be mono (1-D), got shape {self.samples.shape}")
        rate = self.sample_rate
        if type(rate) is bool or not isinstance(rate, numbers.Integral) or rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {rate!r}")
        self.sample_rate = int(rate)
        if self.samples.size and not (np.isfinite(self.samples.min()) and np.isfinite(self.samples.max())):
            raise ValueError("AudioBuffer contains non-finite samples")

    def __len__(self) -> int:
        return int(self.samples.size)


def _read_exact(fh: BinaryIO, n: int, path: str) -> bytes:
    """The next n bytes of the file; a file that ends first is a WavError."""
    chunk = fh.read(n)
    if len(chunk) < n:
        raise WavError(f"{path}: read failed: file ended early")
    return chunk


def _chunk_spans(fh: BinaryIO, path: str) -> dict[bytes, tuple[int, int]]:
    """Offset and available size of each chunk body of an open RIFF/WAVE
    file (first occurrence wins), read one 8-byte chunk header at a time."""
    size = os.fstat(fh.fileno()).st_size
    if size < 12:
        raise WavError(f"{path}: file too short for a RIFF header")
    head = _read_exact(fh, 12, path)
    if head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise WavError(f"{path}: not a RIFF/WAVE file")
    spans: dict[bytes, tuple[int, int]] = {}
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        cid, body = struct.unpack("<4sI", _read_exact(fh, 8, path))
        available = min(body, size - pos - 8)
        # data chunk sizes in the wild are sometimes optimistic; a short
        # non-data chunk is a genuine header problem
        if available < body and cid != b"data":
            raise WavError(f"{path}: truncated {cid!r} chunk")
        spans.setdefault(cid, (pos + 8, available))
        pos += 8 + body + (body & 1)  # chunks are word-aligned
    return spans


def _decode(fh: BinaryIO, path: str) -> tuple[np.ndarray, int]:
    """The mono float64 samples and the sample rate of an open WAV file.

    The data chunk is read READ_BLOCK_FRAMES frames at a time into one
    reused byte buffer and widened into 4-byte containers. Each frame's
    channels are summed in float64 and divided by the full scale times the
    channel count: every codec and channel count takes the same steps.

    This equals scaling each sample and then averaging the channels bit for
    bit: an integer sample and a sum of two are exact in float64, and the
    full scale and the channel count are powers of two, which divide
    exactly, so only the sum of two float samples rounds, and it rounds the
    same way in both orders.
    """
    spans = _chunk_spans(fh, path)
    if b"fmt " not in spans:
        raise WavError(f"{path}: missing fmt chunk")
    if b"data" not in spans:
        raise WavError(f"{path}: missing data chunk")
    fmt, fmt_size = spans[b"fmt "]
    if fmt_size < 16:
        raise WavError(f"{path}: fmt chunk too short")
    fh.seek(fmt)
    header = _read_exact(fh, min(fmt_size, 40), path)
    code, channels, rate, _byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", header)
    if code == WAVE_FORMAT_EXTENSIBLE:
        if fmt_size < 40:
            raise WavError(f"{path}: extensible fmt chunk too short")
        (code,) = struct.unpack_from("<H", header, 24)  # first 2 bytes of the subformat GUID
    if channels not in (1, 2):
        raise WavError(f"{path}: unsupported channel count {channels} (mono/stereo only)")
    codec = CODECS.get((code, bits))
    if codec is None:
        raise WavError(f"{path}: unsupported codec (format code {code}, {bits}-bit)")
    container, scale = codec
    width = bits // 8
    frame_bytes = channels * width
    if block_align and block_align != frame_bytes:
        raise WavError(f"{path}: block alignment {block_align} inconsistent with format")

    data, size = spans[b"data"]
    frames = size // frame_bytes
    out = np.empty(frames)
    rows = min(frames, READ_BLOCK_FRAMES)
    raw = np.empty(rows * frame_bytes, dtype=np.uint8)
    wide = np.zeros((rows * channels, 4), dtype=np.uint8)
    # each sample's bytes move as one item, into the top of its container
    packed, tops = raw.view(f"V{width}"), wide[:, 4 - width :].view(f"V{width}")[:, 0]
    values = wide.view(container)[:, 0].reshape(rows, channels)
    step = 1.0 / (scale * channels)  # a power of two, so multiplying by it divides exactly
    fh.seek(data)
    with np.errstate(invalid="ignore"):  # a NaN or an inf - inf is rejected as non-finite
        for start in range(0, frames, READ_BLOCK_FRAMES):
            m = min(rows, frames - start)
            if fh.readinto(raw[: m * frame_bytes]) < m * frame_bytes:
                raise WavError(f"{path}: read failed: file ended early")
            tops[: m * channels] = packed[: m * channels]
            block = out[start : start + m]
            np.copyto(block, values[:m, 0])
            for c in range(1, channels):
                block += values[:m, c]
            block *= step
    return out, int(rate)


def read_wav(path: str | Path) -> AudioBuffer:
    """Decode a WAV file to a mono float64 AudioBuffer in [-1, 1].

    Integer PCM is scaled by 2^(bits-1); stereo is downmixed by
    averaging the two channels. Every file that cannot be read or decoded
    raises WavError naming its path.

    Working set: the float64 output plus one block of READ_BLOCK_FRAMES
    frames; never the file's bytes.
    """
    p = Path(path)
    if not p.is_file():
        raise WavError(f"{p}: file not found")
    try:
        with p.open("rb") as fh:
            samples, rate = _decode(fh, str(p))
    except OSError as exc:
        raise WavError(f"{p}: read failed: {exc}") from exc
    try:
        return AudioBuffer(samples=samples, sample_rate=rate, source=str(p))
    except ValueError as exc:  # non-finite samples, zero sample rate
        raise WavError(f"{p}: {exc}") from exc


def write_wav(path: str | Path, buf: AudioBuffer) -> None:
    """Encode an AudioBuffer as a mono IEEE float-32 WAV file.

    Samples outside [-1, 1] are clipped; the clip count is logged. The
    samples are copied once, into the float-32 payload. A rate or length
    beyond MAX_WRITE_RATE or MAX_WRITE_SAMPLES raises WavError naming the path.
    """
    p = Path(path)
    if buf.sample_rate > MAX_WRITE_RATE or len(buf) > MAX_WRITE_SAMPLES:
        raise WavError(f"{p}: {len(buf)} samples at {buf.sample_rate} Hz overflow the 32-bit "
                       "byte-rate or RIFF size field")
    x = buf.samples
    if x.size and (x.min() < -1.0 or x.max() > 1.0):
        n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
        logger.warning("%s: clipping %d sample(s) outside [-1, 1]", p, n_clipped)
        x = np.clip(x, -1.0, 1.0)

    payload = x.astype("<f4")
    # the fmt chunk's 16 bytes: format, channels, rate, byte rate, block align, bits
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + payload.nbytes, b"WAVE", b"fmt ", 16,
                         WAVE_FORMAT_IEEE_FLOAT, 1, buf.sample_rate, 4 * buf.sample_rate, 4, 32,
                         b"data", payload.nbytes)
    try:
        with p.open("wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise WavError(f"{p}: write failed: {exc}") from exc


def whole_positive(x: float, message: str, error: type[ValueError] = ValueError) -> int:
    """x as an integer; raises error(message) unless x is a whole positive number to within 1e-9."""
    if not math.isfinite(x) or abs(x - round(x)) > 1e-9 or round(x) < 1:
        raise error(message)
    return int(round(x))


def frame_len_samples(sample_rate: int, frame_seconds: float) -> int:
    """Samples per frame; the product sample_rate * frame_seconds must be integral."""
    flen = sample_rate * float(frame_seconds)  # a numpy float64 would warn on overflow
    return whole_positive(flen, f"frame length {frame_seconds} s at {sample_rate} Hz is not a "
                          f"whole positive number of samples ({flen})")


def frame_matrix(samples: np.ndarray, frame_len: int) -> np.ndarray:
    """Reshape a 1-D sequence into a (frame_count, frame_len) matrix, a view
    of the samples where possible.

    Row ``l`` holds samples [l*frame_len, (l+1)*frame_len). The trailing
    partial frame is discarded, never zero-padded, so the last frame's level
    statistics are not biased. Works for audio samples and for sample-wise
    mask sequences alike.
    """
    samples = np.asarray(samples)
    count = samples.size // frame_len
    return samples[: count * frame_len].reshape(count, frame_len)

