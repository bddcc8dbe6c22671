"""WAV file I/O and frame reshaping.

Readers return mono float64 buffers scaled to [-1, 1]. Supported codecs:
PCM 16-bit, PCM 24-bit and IEEE float-32, mono or stereo (stereo is
downmixed by channel averaging). Sample-rate conversion is deliberately
not offered; the curation gates measure bandwidth content, which
resampling would alter.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# Write format -> (format code, bits per sample, full scale). Integer PCM
# is scaled by 2^(bits-1); float samples are stored as they are.
CODECS = {
    "pcm16": (WAVE_FORMAT_PCM, 16, 2.0**15),
    "pcm24": (WAVE_FORMAT_PCM, 24, 2.0**23),
    "float32": (WAVE_FORMAT_IEEE_FLOAT, 32, 1.0),
}


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


def _chunk_spans(raw: bytes, path: str) -> dict[bytes, tuple[int, int]]:
    """Offset and available size of each chunk body of a RIFF/WAVE payload
    (first occurrence wins)."""
    if len(raw) < 12:
        raise WavError(f"{path}: file too short for a RIFF header")
    if raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavError(f"{path}: not a RIFF/WAVE file")
    spans: dict[bytes, tuple[int, int]] = {}
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        available = min(size, len(raw) - pos - 8)
        # data chunk sizes in the wild are sometimes optimistic; a short
        # non-data chunk is a genuine header problem
        if available < size and cid != b"data":
            raise WavError(f"{path}: truncated {cid!r} chunk")
        spans.setdefault(cid, (pos + 8, available))
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return spans


def read_wav(path: str | Path) -> AudioBuffer:
    """Decode a WAV file to a mono float64 AudioBuffer in [-1, 1].

    Integer PCM is scaled by 2^(bits-1); stereo is downmixed by
    averaging the two channels. Every malformed file raises WavError.
    """
    p = Path(path)
    if not p.is_file():
        raise WavError(f"{p}: file not found")
    raw = p.read_bytes()
    spans = _chunk_spans(raw, str(p))
    if b"fmt " not in spans:
        raise WavError(f"{p}: missing fmt chunk")
    if b"data" not in spans:
        raise WavError(f"{p}: missing data chunk")
    fmt, fmt_size = spans[b"fmt "]
    if fmt_size < 16:
        raise WavError(f"{p}: fmt chunk too short")
    code, channels, rate, _byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", raw, fmt)
    if code == WAVE_FORMAT_EXTENSIBLE:
        if fmt_size < 40:
            raise WavError(f"{p}: extensible fmt chunk too short")
        (code,) = struct.unpack_from("<H", raw, fmt + 24)  # first 2 bytes of the subformat GUID
    if channels not in (1, 2):
        raise WavError(f"{p}: unsupported channel count {channels} (mono/stereo only)")
    scale = next((s for c, b, s in CODECS.values() if (c, b) == (code, bits)), None)
    if scale is None:
        raise WavError(f"{p}: unsupported codec (format code {code}, {bits}-bit)")
    if block_align and block_align != channels * bits // 8:
        raise WavError(f"{p}: block alignment {block_align} inconsistent with format")

    data, size = spans[b"data"]
    width = bits // 8
    count = size // (width * channels) * channels
    if width == 3:  # widen to 4 bytes, sample in the top three; >> 8 sign-extends
        wide = np.zeros((count, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(raw, np.uint8, 3 * count, data).reshape(count, 3)
        values = wide.view("<i4")[:, 0] >> 8
    else:
        dtype = "<f4" if code == WAVE_FORMAT_IEEE_FLOAT else "<i2"
        values = np.frombuffer(raw, dtype, count, data)
    x = values.astype(np.float64)
    if scale != 1.0:
        x /= scale
    if channels == 2:
        x = x.reshape(-1, 2).mean(axis=1)
    try:
        return AudioBuffer(samples=x, sample_rate=int(rate), source=str(p))
    except ValueError as exc:  # non-finite samples, zero sample rate
        raise WavError(f"{p}: {exc}") from exc


def write_wav(path: str | Path, buf: AudioBuffer, fmt: str = "float32") -> None:
    """Encode an AudioBuffer as a mono WAV file in one of the CODECS.

    Samples outside [-1, 1] are clipped; the clip count is logged.
    """
    if fmt not in CODECS:
        raise ValueError(f"unsupported write format {fmt!r}; expected one of {tuple(CODECS)}")
    code, bits, scale = CODECS[fmt]
    p = Path(path)
    x = buf.samples
    n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    if n_clipped:
        logger.warning("%s: clipping %d sample(s) outside [-1, 1]", p, n_clipped)
        x = np.clip(x, -1.0, 1.0)

    block_align = bits // 8
    if code == WAVE_FORMAT_IEEE_FLOAT:
        payload = x.astype("<f4").tobytes()
    else:  # the low bytes of a little-endian int32 are the two's-complement sample
        q = np.clip(np.round(x * scale), -scale, scale - 1).astype("<i4")
        payload = q.view(np.uint8).reshape(-1, 4)[:, :block_align].tobytes()
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


def whole_positive(x: float, message: str, error: type[ValueError] = ValueError) -> int:
    """x as an integer; raises error(message) unless x is a whole positive number to within 1e-9."""
    if not math.isfinite(x) or abs(x - round(x)) > 1e-9 or round(x) < 1:
        raise error(message)
    return int(round(x))


def frame_len_samples(sample_rate: int, frame_seconds: float) -> int:
    """Samples per frame; the product sample_rate * frame_seconds must be integral."""
    flen = sample_rate * frame_seconds
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

