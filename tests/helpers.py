"""Shared constructors for synthetic test signals and corpora."""

from __future__ import annotations

import logging
import math
import struct
import tracemalloc
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


def reference_rho_bin_counts(values, bin_width_db: float = 5.0) -> dict[str, int]:
    """The per-value loop that binned SNR estimates before the numpy
    binning; ``curation.round_totals`` must match its items, order
    included."""
    counts: dict[str, int] = {}
    for v in values:
        key = f"{math.floor(v / bin_width_db) * bin_width_db:g}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def traced_peak(call) -> int:
    """Peak bytes allocated during ``call()``, as traced by tracemalloc,
    which sees numpy's buffers. One untraced call first does any one-time
    setup."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Bytes a working-set bound allows beyond the buffers it names: small arrays,
# Python objects and allocator rounding.
SLACK = 64 * 1024


# Reference kernels: the gather-index STFT, the per-hop overlap-add ISTFT and
# the np.where spectral gate, kept as they were before the strided, blocked
# rewrite, and the VAD's window levels as they were before it called rms_db.
# The production kernels must match them bit for bit.


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
    """The gate on the signal zero-padded by P = hop * ceil((w - hop) / hop)
    at the start and P plus what ends the last frame on the last sample at
    the end, with the floor over the unpadded signal's frames, trimmed back
    to [P, P + n)."""
    n, w, hop = len(buf), cfg.window_len, cfg.hop
    lead = hop * -(-(w - hop) // hop)
    padded = np.concatenate([np.zeros(lead), buf.samples, np.zeros(lead + (w - n) % hop)])
    values = reference_stft(padded, cfg)
    mag = np.abs(values)
    first = lead // hop
    own = mag[:, first : first + (n - w) // hop + 1]
    floor = np.percentile(own, 10, axis=1, keepdims=True)
    gate = mag < floor * 10.0 ** (gate_threshold_db / 20.0)
    gain = 10.0 ** (-attenuation_db / 20.0)
    values = np.where(gate, values * gain, values)

    y = reference_istft(values, cfg)
    return AudioBuffer(y[lead : lead + n], buf.sample_rate, source=buf.source)


def reference_window_rms_db(samples: np.ndarray, win: int) -> np.ndarray:
    n = samples.size
    full = n // win
    levels = []
    if full:
        sq = np.square(samples[: full * win]).reshape(full, win)
        rms = np.sqrt(sq.mean(axis=1))
        levels.append(20.0 * np.log10(np.maximum(rms, 1e-10)))
    rem = n - full * win
    if rem or full == 0:
        tail = samples[full * win :]
        rms = np.sqrt(np.mean(np.square(tail))) if tail.size else 0.0
        levels.append(np.array([20.0 * np.log10(max(rms, 1e-10))]))
    return np.concatenate(levels)


# Reference pipeline: curate_file composed from the reference kernels above,
# with the VAD threshold, per-frame SNR estimates, the run rule and the
# tiling written as plain loops. A change that moves curated output on
# purpose changes this reference in the same diff.


def reference_level_db(x: np.ndarray) -> float:
    """RMS level in dB, the RMS floored at 1e-10 (-200 dB)."""
    return 20.0 * math.log10(max(math.sqrt(np.mean(np.square(x))), 1e-10))


def reference_cutoff(frame: np.ndarray, sample_rate: int, cfg: StftConfig) -> float:
    """The centre frequency of the highest bin whose mean log magnitude
    over the frame's STFT steps is within 35 dB of the strongest bin's, at
    most Nyquist; 0.0 for a frame at the silence floor."""
    avg_db = 20.0 * np.log10(np.maximum(np.abs(reference_stft(frame, cfg)), 1e-10)).mean(axis=1)
    peak = avg_db.max()
    if peak <= -200.0 + 1e-9:
        return 0.0
    top = max(b for b in range(avg_db.size) if avg_db[b] >= peak - 35.0)
    return min(top * (sample_rate / cfg.window_len), sample_rate / 2)


def reference_curate_file(buf: AudioBuffer, cfg) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """What curate_file computes for ``buf`` under ``cfg`` (a CurationConfig
    with an identity or spectral_gate enhancer and an always_on or energy
    VAD): each whole frame's SNR estimate; the cutoff of each frame in a
    run of SNR-passing frames at least one segment long, NaN elsewhere; and
    the (first, end) frame spans of the segments."""
    n, rate = len(buf), buf.sample_rate
    x = buf.samples
    if cfg.enhancer.kind == "identity" or n < cfg.stft.window_len:
        xhat = x.copy()
    else:
        params = {"gate_threshold_db": 20.0, "attenuation_db": 40.0, **cfg.enhancer.params}
        xhat = reference_spectral_gate_enhance(buf, params["gate_threshold_db"],
                                               params["attenuation_db"], cfg.stft).samples
    mask = np.ones(n)
    if cfg.vad.kind == "energy":
        win = max(1, int(round(min(rate * cfg.vad.window_seconds, n))))
        levels = reference_window_rms_db(xhat, win)
        threshold = max(np.percentile(levels, 10) + cfg.vad.relative_threshold_db,
                        cfg.vad.absolute_floor_db)
        for i, level in enumerate(levels):
            mask[i * win : (i + 1) * win] = level >= threshold

    flen, k = cfg.frame_len, cfg.frames_per_segment
    count = n // flen
    rho = np.full(count, -np.inf)
    for i in range(count):
        f = slice(i * flen, (i + 1) * flen)
        if mask[f].mean() >= 0.5:
            rho[i] = min(reference_level_db(xhat[f]) - reference_level_db(x[f] - xhat[f]),
                         cfg.rho_max_db)

    fc = np.full(count, np.nan)
    start = 0
    for i in range(count + 1):
        if i < count and rho[i] > cfg.snr_threshold_db:
            continue
        if i - start >= k:
            for j in range(start, i):
                fc[j] = reference_cutoff(xhat[j * flen : (j + 1) * flen], rate, cfg.stft)
        start = i + 1

    spans, run = [], 0
    for i in range(count):
        run = run + 1 if fc[i] >= cfg.min_bandwidth_hz else 0  # NaN: not in a scored run
        if run == k:
            spans.append((i + 1 - k, i + 1))
            run = 0
    return rho, fc, spans


# Reference WAV codec: the chunk-copying reader with one decode branch per
# codec and the writer with one encode branch per codec, kept as they were
# before the single CODECS table. The production codec must decode the same
# samples and write the same float-32 bytes; the writer keeps PCM16 and
# PCM24 to build input files for the production reader.

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


def reference_write_wav(path: str | Path, buf: AudioBuffer, fmt: str = "float32",
                        right: AudioBuffer | None = None) -> None:
    """Encode an AudioBuffer as a mono WAV file, or, given ``right`` (of the
    same length), as a stereo file with ``buf`` as the left channel.

    Samples outside [-1, 1] are clipped; the clip count is logged.
    """
    if fmt not in REFERENCE_WRITE_FORMATS:
        raise ValueError(f"unsupported write format {fmt!r}; expected one of {REFERENCE_WRITE_FORMATS}")
    p = Path(path)
    channels = 1 if right is None else 2
    x = buf.samples if right is None else np.column_stack((buf.samples, right.samples)).ravel()
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

    block_align = channels * bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, code, channels, buf.sample_rate,
                        buf.sample_rate * block_align, block_align, bits),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    try:
        p.write_bytes(header + payload)
    except OSError as exc:
        raise WavError(f"{p}: write failed: {exc}") from exc
