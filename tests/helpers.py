"""Shared constructors for synthetic test signals and corpora."""

from __future__ import annotations

import logging
import struct
from pathlib import Path

import numpy as np

import speechmine
from speechmine.audio_io import (
    WAVE_FORMAT_EXTENSIBLE,
    WAVE_FORMAT_IEEE_FLOAT,
    WAVE_FORMAT_PCM,
    AudioBuffer,
    WavError,
)
from speechmine.dsp import StftConfig
from speechmine.evalgen import synth_clean

SAMPLE_RATE = 48000

# First lines of a script that an external-command test runs in a child
# process: the child imports speechmine from where the tests found it.
SCRIPT_PREAMBLE = f"import sys\nsys.path.insert(0, {str(Path(speechmine.__file__).parents[1])!r})\n"


def burst_env(n: int, sample_rate: int, period_s: float, on_s: float, ramp_s: float) -> np.ndarray:
    """Periodic on/off envelope with raised-cosine ramps (keeps burst edges
    from spraying wideband leakage across the spectrum)."""
    t = np.arange(n)
    period = int(period_s * sample_rate)
    on = int(on_s * sample_rate)
    ramp = int(ramp_s * sample_rate)
    phase = t % period
    env = np.zeros(n)
    env[phase < on] = 1.0
    rise = phase < ramp
    env[rise] = 0.5 - 0.5 * np.cos(np.pi * phase[rise] / ramp)
    fall = (phase >= on - ramp) & (phase < on)
    env[fall] = 0.5 + 0.5 * np.cos(np.pi * (phase[fall] - (on - ramp)) / ramp)
    return env


def brickwall_lowpass(x: np.ndarray, cutoff_hz: float, sample_rate: int) -> np.ndarray:
    """Ideal low-pass via FFT bin zeroing (arbitrarily steep rolloff)."""
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, 1.0 / sample_rate)
    spec[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spec, n=x.size)


def white_noise(n: int, rms: float, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal(n)
    return x * (rms / np.sqrt(np.mean(np.square(x))))


# Distribution-shift corpus: files are frame-aligned at 1 s. A shift file is
# 16 s: frame 0 noise bed only, frame 1 quiet speech over the bed (level
# trimmed so this frame straddles the SNR gate under 10 dB vs 40 dB gate
# attenuation), frames 2..14 loud speech, frame 15 bed only. All shift files
# share one speech realization so a single trim constant centers every file.
SHIFT_SPEECH_SEED = 11
SHIFT_BED_DB = -45.0
SHIFT_QUIET_OFFSET_DB = -21.5


def build_shift_file(bed_seed: int, sample_rate: int = SAMPLE_RATE) -> AudioBuffer:
    rng = np.random.default_rng(bed_seed + 6000)
    n = 16 * sample_rate
    proxy = synth_clean(14.0, sample_rate, seed=SHIFT_SPEECH_SEED).samples.copy()
    loud_rms = np.sqrt(np.mean(np.square(proxy[sample_rate:])))
    quiet_target = loud_rms * 10.0 ** (SHIFT_QUIET_OFFSET_DB / 20.0)
    proxy[:sample_rate] *= quiet_target / np.sqrt(np.mean(np.square(proxy[:sample_rate])))
    sig = np.zeros(n)
    sig[sample_rate : 15 * sample_rate] = proxy
    bed = white_noise(n, loud_rms * 10.0 ** (SHIFT_BED_DB / 20.0), rng)
    return AudioBuffer(sig + bed, sample_rate)


def build_clean_file(seed: int, duration_s: float = 16.0,
                     sample_rate: int = SAMPLE_RATE) -> AudioBuffer:
    return synth_clean(duration_s, sample_rate, seed=seed)


def build_noise_file(seed: int, duration_s: float = 4.0,
                     sample_rate: int = SAMPLE_RATE) -> AudioBuffer:
    rng = np.random.default_rng(seed + 9000)
    return AudioBuffer(white_noise(int(duration_s * sample_rate), 10.0 ** (-30 / 20.0), rng),
                       sample_rate)


def make_segment(**overrides):
    """A structurally valid manifest record with overridable fields."""
    from speechmine.curation import CuratedSegment

    fields = dict(
        source_uri="/tmp/a.wav",
        round_id=0,
        start_sample=0,
        end_sample=12 * SAMPLE_RATE,
        sample_rate=SAMPLE_RATE,
        frame_rho=[50.0] * 12,
        frame_fc=[24000.0] * 12,
        config_hash="ab" * 32,
        enhancer_id='{"kind":"identity"}',
    )
    fields.update(overrides)
    return CuratedSegment(**fields)


# Reference kernels: the gather-index STFT, the per-hop overlap-add ISTFT and
# the np.where spectral gate, kept as they were before the strided, blocked
# rewrite. The production kernels must match them bit for bit.


def reference_stft(samples: np.ndarray, cfg: StftConfig) -> np.ndarray:
    n = len(samples)
    w = cfg.window_len
    if n < w:
        raise ValueError(f"buffer of {n} samples is shorter than one window ({w})")
    steps = (n - w) // cfg.hop + 1
    idx = np.arange(w)[None, :] + cfg.hop * np.arange(steps)[:, None]
    frames = samples[idx] * cfg.taper()[None, :]
    return np.fft.rfft(frames, axis=1).T


def reference_istft(values: np.ndarray, cfg: StftConfig) -> np.ndarray:
    w = cfg.window_len
    steps = values.shape[1]
    taper = cfg.taper()
    frames = np.fft.irfft(values.T, n=w, axis=1) * taper[None, :]

    out_len = (steps - 1) * cfg.hop + w
    out = np.zeros(out_len)
    norm = np.zeros(out_len)
    sq = taper * taper
    for t in range(steps):
        start = t * cfg.hop
        out[start : start + w] += frames[t]
        norm[start : start + w] += sq
    covered = norm > 1e-12
    out[covered] /= norm[covered]
    out[~covered] = 0.0
    return out


def reference_spectral_gate_enhance(buf: AudioBuffer, gate_threshold_db: float,
                                    attenuation_db: float, cfg: StftConfig) -> AudioBuffer:
    values = reference_stft(buf.samples, cfg)
    mag = np.abs(values)
    floor = np.percentile(mag, 10, axis=1, keepdims=True)
    gate = mag < floor * 10.0 ** (gate_threshold_db / 20.0)
    gain = 10.0 ** (-attenuation_db / 20.0)
    values = np.where(gate, values * gain, values)

    y = reference_istft(values, cfg)
    out = np.zeros(len(buf))
    n = min(len(buf), y.size)
    out[:n] = y[:n]
    return AudioBuffer(out, buf.sample_rate, source=buf.source)


# Reference WAV codec: the chunk-copying reader with one decode branch per
# codec and the writer with one encode branch per codec, kept as they were
# before the single CODECS table. The production codec must decode the same
# samples and write the same bytes.

_logger = logging.getLogger(__name__)

REFERENCE_WRITE_FORMATS = ("pcm16", "pcm24", "float32")


def reference_read_chunks(raw: bytes, path: str) -> dict[bytes, bytes]:
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


def reference_read_wav(path: str | Path) -> AudioBuffer:
    """Decode a WAV file to a mono float64 AudioBuffer in [-1, 1].

    Integer PCM is scaled by 2^(bits-1); stereo is downmixed by
    averaging the two channels.
    """
    p = Path(path)
    if not p.is_file():
        raise WavError(f"{p}: file not found")
    raw = p.read_bytes()
    chunks = reference_read_chunks(raw, str(p))
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


def reference_write_wav(path: str | Path, buf: AudioBuffer, fmt: str = "float32") -> None:
    """Encode an AudioBuffer as a mono WAV file.

    Samples outside [-1, 1] are clipped; the clip count is logged.
    """
    if fmt not in REFERENCE_WRITE_FORMATS:
        raise ValueError(f"unsupported write format {fmt!r}; expected one of {REFERENCE_WRITE_FORMATS}")
    p = Path(path)
    x = buf.samples
    n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    if n_clipped:
        _logger.warning("%s: clipping %d sample(s) outside [-1, 1]", p, n_clipped)
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
