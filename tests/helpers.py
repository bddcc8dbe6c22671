"""Shared constructors for synthetic test signals and corpora."""

from __future__ import annotations

import numpy as np

from speechmine.audio_io import AudioBuffer
from speechmine.dsp import Spectrogram, StftConfig
from speechmine.evalgen import synth_clean

SAMPLE_RATE = 48000


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


def reference_stft(buf: AudioBuffer, cfg: StftConfig) -> Spectrogram:
    n = len(buf)
    w = cfg.window_len
    if n < w:
        raise ValueError(f"buffer of {n} samples is shorter than one window ({w})")
    steps = (n - w) // cfg.hop + 1
    idx = np.arange(w)[None, :] + cfg.hop * np.arange(steps)[:, None]
    frames = buf.samples[idx] * cfg.taper()[None, :]
    return Spectrogram(
        values=np.fft.rfft(frames, axis=1).T,
        sample_rate=buf.sample_rate,
        window_len=w,
        hop=cfg.hop,
    )


def reference_istft(spec: Spectrogram, cfg: StftConfig) -> AudioBuffer:
    w = cfg.window_len
    steps = spec.time_steps
    taper = cfg.taper()
    frames = np.fft.irfft(spec.values.T, n=w, axis=1) * taper[None, :]

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
    return AudioBuffer(samples=out, sample_rate=spec.sample_rate)


def reference_spectral_gate_enhance(buf: AudioBuffer, gate_threshold_db: float,
                                    attenuation_db: float, cfg: StftConfig) -> AudioBuffer:
    spec = reference_stft(buf, cfg)
    mag = np.abs(spec.values)
    floor = np.percentile(mag, 10, axis=1, keepdims=True)
    gate = mag < floor * 10.0 ** (gate_threshold_db / 20.0)
    gain = 10.0 ** (-attenuation_db / 20.0)
    spec.values = np.where(gate, spec.values * gain, spec.values)

    y = reference_istft(spec, cfg).samples
    out = np.zeros(len(buf))
    n = min(len(buf), y.size)
    out[:n] = y[:n]
    return AudioBuffer(out, buf.sample_rate, source=buf.source)
