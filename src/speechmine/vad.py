"""Voice activity detection producing sample-wise masks.

Decisions are made per analysis window and replicated to every sample in
that window, so the mask is always shape-aligned with the audio it was
computed from. The energy detector thresholds window RMS against a
percentile noise floor; it stands in for a trained model, which can be
attached through the external adapter (same file-exchange protocol as
the enhancers, mask encoded as a float-32 WAV of 0/1 samples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .audio_io import AudioBuffer, SpeechMask
from .dsp import RMS_FLOOR
from .enhance import DEFAULT_TIMEOUT_S, run_exchange_command

VAD_KINDS = ("energy", "always_on", "external")

DEFAULT_WINDOW_SECONDS = 0.02
DEFAULT_RELATIVE_THRESHOLD_DB = 15.0
DEFAULT_ABSOLUTE_FLOOR_DB = -60.0


@dataclass(frozen=True)
class VadSpec:
    """Detector kind plus its windowing and threshold parameters."""

    kind: str = "energy"
    window_seconds: float = DEFAULT_WINDOW_SECONDS
    relative_threshold_db: float = DEFAULT_RELATIVE_THRESHOLD_DB
    absolute_floor_db: float = DEFAULT_ABSOLUTE_FLOOR_DB
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in VAD_KINDS:
            raise ValueError(f"unknown VAD kind {self.kind!r}; expected one of {VAD_KINDS}")
        if self.window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {self.window_seconds}")
        if self.kind == "external":
            cmd = self.params.get("command", "")
            if "{input}" not in cmd or "{output}" not in cmd:
                raise ValueError("external VAD command must contain {input} and {output}")

    def window_samples(self, sample_rate: int) -> int:
        return max(1, int(round(sample_rate * self.window_seconds)))


def _window_rms_db(samples: np.ndarray, win: int) -> np.ndarray:
    """RMS level in dB of consecutive windows; the trailing partial window
    is evaluated over its own samples."""
    n = samples.size
    full = n // win
    levels = []
    if full:
        sq = np.square(samples[: full * win]).reshape(full, win)
        rms = np.sqrt(sq.mean(axis=1))
        levels.append(20.0 * np.log10(np.maximum(rms, RMS_FLOOR)))
    rem = n - full * win
    if rem or full == 0:
        tail = samples[full * win :]
        rms = np.sqrt(np.mean(np.square(tail))) if tail.size else 0.0
        levels.append(np.array([20.0 * np.log10(max(rms, RMS_FLOOR))]))
    return np.concatenate(levels)


def energy_vad_windows(buf: AudioBuffer, spec: VadSpec) -> np.ndarray:
    """Per-window speech decisions (uint8): RMS must clear both the
    percentile noise floor plus the relative margin and the absolute floor."""
    win = spec.window_samples(buf.sample_rate)
    levels = _window_rms_db(buf.samples, win)
    noise_floor = np.percentile(levels, 10)
    threshold = max(noise_floor + spec.relative_threshold_db, spec.absolute_floor_db)
    return (levels >= threshold).astype(np.uint8)


def detect(buf: AudioBuffer, spec: VadSpec) -> SpeechMask:
    """Sample-wise speech mask, exactly as long as the input buffer."""
    n = len(buf)
    if spec.kind == "always_on":
        return SpeechMask(np.ones(n, dtype=np.uint8))
    if spec.kind == "external":
        out = run_exchange_command(
            buf,
            spec.params["command"],
            exchange_dir=spec.params.get("exchange_dir"),
            timeout_s=float(spec.params.get("timeout_s", DEFAULT_TIMEOUT_S)),
            what="VAD",
        )
        return SpeechMask((out.samples >= 0.5).astype(np.uint8))

    if n == 0:
        return SpeechMask(np.zeros(0, dtype=np.uint8))
    win = spec.window_samples(buf.sample_rate)
    decisions = energy_vad_windows(buf, spec)
    # one decision per window covers ceil(n / win) windows, so the repeat
    # always reaches n; the slice trims the tail window's replication
    return SpeechMask(np.repeat(decisions, win)[:n])
