"""WAV file I/O and frame reshaping.

Readers return mono float64 buffers scaled to [-1, 1]. Supported codecs:
PCM 16-bit, PCM 24-bit and IEEE float-32, mono or stereo (stereo is
downmixed by channel averaging). Sample-rate conversion is deliberately
not offered; the curation gates measure bandwidth content, which
resampling would alter.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

WRITE_FORMATS = ("pcm16", "pcm24", "float32")


class WavError(Exception):
    """Raised for unreadable, malformed or unsupported WAV files."""


@dataclass
class AudioBuffer:
    """Mono sample sequence with its sample rate.

    ``samples`` is a 1-D float64 array. Ingested audio lies in [-1, 1];
    processed audio (e.g. enhancer output) may overshoot slightly and is
    clipped again on write.
    """

    samples: np.ndarray
    sample_rate: int
    source: str | None = None

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"AudioBuffer must be mono (1-D), got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.isfinite(self.samples).all():
            raise ValueError("AudioBuffer contains non-finite samples")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


@dataclass
class FrameGrid:
    """Frame-major view of a sample sequence.

    ``frames`` has shape (frame_len, frame_count); column ``l`` holds
    samples [l*frame_len, (l+1)*frame_len) of the source. A trailing
    partial frame is discarded, never zero-padded, so the last frame's
    level statistics are not biased.
    """

    frames: np.ndarray
    sample_rate: int

    @property
    def frame_len(self) -> int:
        return int(self.frames.shape[0])

    @property
    def frame_count(self) -> int:
        return int(self.frames.shape[1])


@dataclass
class SpeechMask:
    """Sample-wise binary speech decisions, one entry per audio sample."""

    decisions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.decisions = np.asarray(self.decisions, dtype=np.uint8)
        if self.decisions.ndim != 1:
            raise ValueError("SpeechMask decisions must be 1-D")
        if self.decisions.size and self.decisions.max() > 1:
            raise ValueError("SpeechMask decisions must be 0 or 1")

    def __len__(self) -> int:
        return int(self.decisions.size)


def _read_chunks(raw: bytes, path: str) -> dict[bytes, bytes]:
    """Split a RIFF/WAVE payload into its chunks (first occurrence wins)."""
    if len(raw) < 12:
        raise WavError(f"{path}: file too short for a RIFF header")
    if raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavError(f"{path}: not a RIFF/WAVE file")
    chunks: dict[bytes, bytes] = {}
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            # data chunk sizes in the wild are sometimes optimistic; a short
            # non-data chunk is a genuine header problem
            if cid != b"data":
                raise WavError(f"{path}: truncated {cid!r} chunk")
        chunks.setdefault(cid, body)
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def read_wav(path: str | Path) -> AudioBuffer:
    """Decode a WAV file to a mono float64 AudioBuffer in [-1, 1].

    Integer PCM is scaled by 2^(bits-1); stereo is downmixed by
    averaging the two channels.
    """
    p = Path(path)
    if not p.is_file():
        raise WavError(f"{p}: file not found")
    raw = p.read_bytes()
    chunks = _read_chunks(raw, str(p))
    if b"fmt " not in chunks:
        raise WavError(f"{p}: missing fmt chunk")
    if b"data" not in chunks:
        raise WavError(f"{p}: missing data chunk")
    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise WavError(f"{p}: fmt chunk too short")
    code, channels, rate, _byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if code == WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40:
            raise WavError(f"{p}: extensible fmt chunk too short")
        (code,) = struct.unpack_from("<H", fmt, 24)  # first 2 bytes of the subformat GUID
    if channels not in (1, 2):
        raise WavError(f"{p}: unsupported channel count {channels} (mono/stereo only)")

    data = chunks[b"data"]
    if code == WAVE_FORMAT_PCM and bits == 16:
        usable = len(data) - len(data) % (2 * channels)
        x = np.frombuffer(data[:usable], dtype="<i2").astype(np.float64) / 2.0**15
    elif code == WAVE_FORMAT_PCM and bits == 24:
        usable = len(data) - len(data) % (3 * channels)
        b = np.frombuffer(data[:usable], dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        vals = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        vals[vals >= 1 << 23] -= 1 << 24
        x = vals.astype(np.float64) / 2.0**23
    elif code == WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        usable = len(data) - len(data) % (4 * channels)
        x = np.frombuffer(data[:usable], dtype="<f4").astype(np.float64)
    else:
        raise WavError(f"{p}: unsupported codec (format code {code}, {bits}-bit)")
    if block_align and block_align != channels * bits // 8:
        raise WavError(f"{p}: block alignment {block_align} inconsistent with format")

    if channels == 2:
        x = x.reshape(-1, 2).mean(axis=1)
    if x.size and not np.isfinite(x).all():
        raise WavError(f"{p}: non-finite sample values")
    return AudioBuffer(samples=x, sample_rate=int(rate), source=str(p))


def write_wav(path: str | Path, buf: AudioBuffer, fmt: str = "float32") -> None:
    """Encode an AudioBuffer as a mono WAV file.

    Samples outside [-1, 1] are clipped; the clip count is logged.
    """
    if fmt not in WRITE_FORMATS:
        raise ValueError(f"unsupported write format {fmt!r}; expected one of {WRITE_FORMATS}")
    p = Path(path)
    x = buf.samples
    n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    if n_clipped:
        logger.warning("%s: clipping %d sample(s) outside [-1, 1]", p, n_clipped)
        x = np.clip(x, -1.0, 1.0)

    if fmt == "pcm16":
        q = np.clip(np.round(x * 2.0**15), -(1 << 15), (1 << 15) - 1).astype("<i2")
        payload = q.tobytes()
        bits, code = 16, WAVE_FORMAT_PCM
    elif fmt == "pcm24":
        q = np.clip(np.round(x * 2.0**23), -(1 << 23), (1 << 23) - 1).astype(np.int64)
        q = np.where(q < 0, q + (1 << 24), q).astype(np.uint32)
        b = np.empty((q.size, 3), dtype=np.uint8)
        b[:, 0] = q & 0xFF
        b[:, 1] = (q >> 8) & 0xFF
        b[:, 2] = (q >> 16) & 0xFF
        payload = b.tobytes()
        bits, code = 24, WAVE_FORMAT_PCM
    else:
        payload = x.astype("<f4").tobytes()
        bits, code = 32, WAVE_FORMAT_IEEE_FLOAT

    block_align = bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, code, 1, buf.sample_rate,
                        buf.sample_rate * block_align, block_align, bits),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    try:
        p.write_bytes(header + payload)
    except OSError as exc:
        raise WavError(f"{p}: write failed: {exc}") from exc


def frame_len_samples(sample_rate: int, frame_seconds: float) -> int:
    """Samples per frame; the product sample_rate * frame_seconds must be integral."""
    flen = sample_rate * frame_seconds
    if abs(flen - round(flen)) > 1e-9 or round(flen) < 1:
        raise ValueError(
            f"frame length {frame_seconds} s at {sample_rate} Hz is not a whole "
            f"positive number of samples ({flen})"
        )
    return int(round(flen))


def frame_matrix(samples: np.ndarray, frame_len: int) -> np.ndarray:
    """Reshape a 1-D sequence into a (frame_len, frame_count) matrix.

    The trailing partial frame is discarded. Works for audio samples and
    for sample-wise mask sequences alike.
    """
    samples = np.asarray(samples)
    count = samples.size // frame_len
    return samples[: count * frame_len].reshape(count, frame_len).T


def reshape_frames(buf: AudioBuffer, frame_seconds: float) -> FrameGrid:
    """Cut a buffer into fixed-length frames (trailing remainder dropped)."""
    flen = frame_len_samples(buf.sample_rate, frame_seconds)
    return FrameGrid(frames=frame_matrix(buf.samples, flen), sample_rate=buf.sample_rate)
