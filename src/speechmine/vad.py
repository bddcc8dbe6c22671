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

from .audio_io import AudioBuffer
from .dsp import FLOOR_DB, rms_db
from .enhance import EXTERNAL_PARAMS, check_external_command, run_exchange_command
from .schema import check_params

# Every detector kind with the name and type of each parameter it takes
# besides the windowing and threshold fields.
VAD_PARAMS: dict[str, dict[str, type]] = {
    "energy": {},
    "always_on": {},
    "external": EXTERNAL_PARAMS,
}


@dataclass(frozen=True)
class VadSpec:
    """Detector kind, its windowing and threshold fields, and per-kind
    parameters typed by VAD_PARAMS."""

    kind: str = "energy"
    window_seconds: float = 0.02
    relative_threshold_db: float = 15.0
    absolute_floor_db: float = -60.0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in VAD_PARAMS:
            raise ValueError(f"unknown VAD kind {self.kind!r}; expected one of {tuple(VAD_PARAMS)}")
        check_params(self.params, VAD_PARAMS[self.kind], f"{self.kind} VAD")
        if self.window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {self.window_seconds}")
        if self.kind == "external":
            check_external_command(self.params.get("command", ""), ("input", "output"), "VAD")

    def window_samples(self, sample_rate: int) -> int:
        return max(1, int(round(sample_rate * self.window_seconds)))


def _window_rms_db(samples: np.ndarray, win: int) -> np.ndarray:
    """RMS level in dB of consecutive windows; the trailing partial window
    is evaluated over its own samples, and empty input is one floor level."""
    full = samples.size // win
    levels = [rms_db(samples[: full * win].reshape(full, win))] if full else []
    tail = samples[full * win :]
    if tail.size or not full:
        levels.append([rms_db(tail) if tail.size else FLOOR_DB])
    return np.concatenate(levels)


def energy_vad_windows(buf: AudioBuffer, spec: VadSpec) -> np.ndarray:
    """Per-window speech decisions (uint8): RMS must clear both the
    percentile noise floor plus the relative margin and the absolute floor."""
    win = spec.window_samples(buf.sample_rate)
    levels = _window_rms_db(buf.samples, win)
    noise_floor = np.percentile(levels, 10)
    threshold = max(noise_floor + spec.relative_threshold_db, spec.absolute_floor_db)
    return (levels >= threshold).astype(np.uint8)


def detect(buf: AudioBuffer, spec: VadSpec) -> np.ndarray:
    """Sample-wise speech mask: a uint8 array of 0/1, exactly as long as
    the input buffer."""
    n = len(buf)
    if spec.kind == "always_on":
        return np.ones(n, dtype=np.uint8)
    if spec.kind == "external":
        _, out = run_exchange_command(inputs={"input": buf}, what="VAD", **spec.params)
        return (out.samples >= 0.5).astype(np.uint8)

    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    win = spec.window_samples(buf.sample_rate)
    decisions = energy_vad_windows(buf, spec)
    # one decision per window covers ceil(n / win) windows, so the repeat
    # always reaches n; the slice trims the tail window's replication
    return np.repeat(decisions, win)[:n]
