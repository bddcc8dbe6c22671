"""Synthetic corpus generation and round-over-round evaluation.

The clean-speech proxy is a pitch-modulated pulse train with aspiration
noise and silent gaps: deterministic, full-band to near Nyquist, and free
of dataset licensing, which keeps the acceptance loop self-contained.
Noise injection draws the target SNR in dB from a Rayleigh distribution
and scales freshly generated noise to hit it exactly. Quality deltas
follow the metric-difference template Q(enhanced, clean) - Q(noisy,
clean), with a built-in segmental SNR and room for external metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .audio_io import AudioBuffer, frame_len_samples, frame_matrix
from .curation import DEFAULT_RHO_BIN_WIDTH_DB, CuratedSegment, RhoBins
from .curation import load_manifest  # noqa: F401  (bench/tracing.py wraps this name)
from .dsp import rms_db
from .enhance import check_external_command, run_exchange_command
from .schema import ConfigError

NOISE_KINDS = ("white", "pink", "babble_proxy")

SEGSNR_MIN_DB = -10.0
SEGSNR_MAX_DB = 35.0
SEGSNR_ENERGY_SCREEN_DB = -60.0
SEGSNR_FRAME_MS = 32.0


@dataclass(frozen=True)
class NoiseSpec:
    """Noise flavor, Rayleigh scale for the SNR draw (in dB), clip range
    and RNG seed."""

    noise_kind: str = "white"
    rayleigh_sigma: float = 15.0
    snr_clip: tuple[float, float] = (0.0, 60.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise_kind {self.noise_kind!r}; expected one of {NOISE_KINDS}")
        if not self.rayleigh_sigma > 0:
            raise ConfigError(f"rayleigh_sigma: must be positive, got {self.rayleigh_sigma}")
        lo, hi = self.snr_clip
        if not lo < hi:
            raise ConfigError(f"snr_clip: must satisfy min < max, got {self.snr_clip}")


@dataclass
class EvalTriple:
    """Clean / noisy / enhanced versions of one signal plus the true
    per-frame SNR of the mix."""

    clean: AudioBuffer
    noisy: AudioBuffer
    enhanced: AudioBuffer
    true_snr_db: np.ndarray

    def __post_init__(self) -> None:
        lens = {len(self.clean), len(self.noisy), len(self.enhanced)}
        rates = {self.clean.sample_rate, self.noisy.sample_rate, self.enhanced.sample_rate}
        if len(lens) != 1 or len(rates) != 1:
            raise ValueError(f"triple buffers disagree: lengths {lens}, rates {rates}")

    @classmethod
    def from_components(
        cls, clean: AudioBuffer, noisy: AudioBuffer, enhanced: AudioBuffer
    ) -> "EvalTriple":
        """The triple with the true SNR of each 1-s frame of the mix."""
        flen = frame_len_samples(clean.sample_rate, 1.0)
        noise = frame_matrix(noisy.samples - clean.samples, flen)
        ref = frame_matrix(clean.samples, flen)
        snr = rms_db(ref) - rms_db(noise)
        return cls(clean=clean, noisy=noisy, enhanced=enhanced, true_snr_db=snr)


def synth_clean(duration_seconds: float, sample_rate: int = 48000, seed: int = 0) -> AudioBuffer:
    """Deterministic speech-like proxy: voiced stretches of a wandering-
    pitch pulse train (90-250 Hz) with aspiration noise, separated by
    silent gaps, peak-normalized to -3 dBFS."""
    if duration_seconds <= 0:
        raise ValueError(f"duration must be positive, got {duration_seconds}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_seconds * sample_rate))
    x = np.zeros(n)
    voiced = np.zeros(n, dtype=bool)

    # voiced runs of 1.2-2.2 s with 0.25-0.45 s silent gaps: every 1-s frame
    # stays majority-voiced, while silence still covers well over a tenth of
    # the timeline (the energy VAD estimates its floor from that tail)
    start = 0
    f0 = rng.uniform(110.0, 220.0)
    while start < n:
        v_end = min(n, start + int(rng.uniform(1.2, 2.2) * sample_rate))
        # first pulse lands a few ms into the run, never on the exact first
        # sample (an overlap-add enhancer cannot reconstruct sample 0)
        pos = start + rng.uniform(0.002, 0.006) * sample_rate
        while pos < v_end:
            idx = int(round(pos))
            if idx < n:
                x[idx] += rng.uniform(0.8, 1.2)
            f0 = float(np.clip(f0 * np.exp(rng.normal(0.0, 0.02)), 90.0, 250.0))
            pos += sample_rate / f0
        voiced[start:v_end] = True
        start = v_end + int(rng.uniform(0.25, 0.45) * sample_rate)

    # gentle spectral tilt; keeps harmonics strong out to Nyquist
    x = np.convolve(x, np.array([1.0, 0.4, -0.25]))[:n]

    breath = rng.standard_normal(n)
    spec = np.fft.rfft(breath)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    spec *= np.clip(freqs / 1500.0, 0.1, 1.0)  # de-emphasize lows, keep it airy
    breath = np.fft.irfft(spec, n=n)
    breath /= max(np.max(np.abs(breath)), 1e-12)
    x += np.where(voiced, breath * 0.02, 0.0)

    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 10.0 ** (-3.0 / 20.0) / peak
    return AudioBuffer(x, sample_rate)


def _make_noise(kind: str, n: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    white = rng.standard_normal(n)
    if kind == "white":
        return white
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    if kind == "pink":
        spec[1:] /= np.sqrt(freqs[1:])
        spec[0] = 0.0
        return np.fft.irfft(spec, n=n)
    # babble_proxy: speech-band emphasis plus slow amplitude modulation
    shape = (freqs / (freqs + 150.0)) / (1.0 + (freqs / 2500.0) ** 2)
    spec *= shape
    out = np.fft.irfft(spec, n=n)
    t = np.arange(n) / sample_rate
    out *= 1.0 + 0.5 * np.sin(2.0 * np.pi * 3.7 * t + rng.uniform(0.0, 2.0 * np.pi))
    return out


def draw_target_snr(spec: NoiseSpec, rng: np.random.Generator) -> float:
    """One Rayleigh-distributed SNR draw in dB, clipped to the spec range."""
    raw = rng.rayleigh(spec.rayleigh_sigma)
    return float(np.clip(raw, *spec.snr_clip))


def inject_noise(clean: AudioBuffer, spec: NoiseSpec) -> tuple[AudioBuffer, float]:
    """Mix freshly generated noise into the clean signal at a Rayleigh-drawn
    SNR; the scaling is exact, so the realized clean-to-noise RMS ratio
    matches the draw."""
    rng = np.random.default_rng(spec.seed)
    target_snr_db = draw_target_snr(spec, rng)
    rms_clean = float(np.sqrt(np.mean(np.square(clean.samples))))
    if rms_clean < 1e-9:
        raise ValueError("cannot set an SNR against digital silence")
    noise = _make_noise(spec.noise_kind, len(clean), clean.sample_rate, rng)
    rms_noise = float(np.sqrt(np.mean(np.square(noise))))
    scale = rms_clean / (rms_noise * 10.0 ** (target_snr_db / 20.0))
    noisy = AudioBuffer(clean.samples + noise * scale, clean.sample_rate, source=clean.source)
    return noisy, target_snr_db


def segmental_snr(reference: AudioBuffer, degraded: AudioBuffer) -> float:
    """Mean per-frame SNR in dB over non-overlapping 32-ms frames, each
    clamped to [-10, 35], counting only frames whose reference level
    exceeds -60 dBFS."""
    if len(reference) != len(degraded):
        raise ValueError(
            f"length mismatch: reference {len(reference)} vs degraded {len(degraded)}"
        )
    flen = max(1, int(round(reference.sample_rate * SEGSNR_FRAME_MS / 1000.0)))
    ref = frame_matrix(reference.samples, flen)
    deg = frame_matrix(degraded.samples, flen)
    if len(ref) == 0:
        raise ValueError("signal shorter than one metric frame")
    ref_energy = np.sum(np.square(ref), axis=1)
    err_energy = np.sum(np.square(ref - deg), axis=1)
    level_db = 10.0 * np.log10(np.maximum(ref_energy / flen, 1e-20))
    keep = level_db > SEGSNR_ENERGY_SCREEN_DB
    if not keep.any():
        raise ValueError("no frame passes the reference energy screen")
    snr = 10.0 * np.log10(ref_energy[keep] / np.maximum(err_energy[keep], 1e-300))
    return float(np.mean(np.clip(snr, SEGSNR_MIN_DB, SEGSNR_MAX_DB)))


def _external_metric(command: str) -> Callable[[AudioBuffer, AudioBuffer], float]:
    def run(reference: AudioBuffer, degraded: AudioBuffer) -> float:
        stdout, _ = run_exchange_command(
            command, {"reference": reference, "degraded": degraded}, what="metric"
        )
        lines = stdout.strip().splitlines()
        if not lines:
            raise ValueError(f"external metric printed no score on stdout: {command}")
        return float(lines[-1])

    return run


def resolve_metric(metric_id: str) -> Callable[[AudioBuffer, AudioBuffer], float]:
    """``segmental_snr`` or ``external:{command}``; fn(reference, degraded) -> score."""
    if metric_id == "segmental_snr":
        return segmental_snr
    if metric_id.startswith("external:"):
        command = metric_id[len("external:") :]
        check_external_command(command, ("reference", "degraded"), "metric")
        return _external_metric(command)
    raise ConfigError(f"unknown metric {metric_id!r}")


def delta_quality(triple: EvalTriple, metric_id: str = "segmental_snr") -> float:
    """Q(enhanced, clean) - Q(noisy, clean) for the named metric."""
    metric = resolve_metric(metric_id)
    q_enhanced = metric(triple.clean, triple.enhanced)
    q_noisy = metric(triple.clean, triple.noisy)
    return float(q_enhanced - q_noisy)


def round_totals(
    segments: Iterable[CuratedSegment],
    bin_width_db: float = DEFAULT_RHO_BIN_WIDTH_DB,
) -> tuple[dict[int, float], dict[int, dict[str, int]]]:
    """Curated hours and binned per-frame SNR estimates, each keyed by round
    in ascending order, from one pass over the records.

    Only the per-round sums and bin counts are held, so the records can be a
    stream of any length. Each round's seconds are summed in record order.
    """
    seconds: dict[int, float] = {}
    bins: dict[int, RhoBins] = {}
    for seg in segments:
        rid = seg.round_id
        seconds[rid] = seconds.get(rid, 0.0) + seg.duration_seconds
        if rid not in bins:
            bins[rid] = RhoBins(bin_width_db)
        bins[rid].add(seg.frame_rho)
    hours = {rid: s / 3600.0 for rid, s in sorted(seconds.items())}
    return hours, {rid: bins[rid].counts() for rid in sorted(bins)}


def rho_histogram(
    segments: Iterable[CuratedSegment],
    bin_width_db: float = DEFAULT_RHO_BIN_WIDTH_DB,
) -> dict[int, dict[str, int]]:
    """Binned counts of per-frame SNR estimates, keyed by round."""
    return round_totals(segments, bin_width_db)[1]


def accepted_hours(segments: Iterable[CuratedSegment]) -> dict[int, float]:
    """Total curated duration in hours, keyed by round."""
    return round_totals(segments)[0]
