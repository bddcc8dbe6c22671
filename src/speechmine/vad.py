"""Voice activity detection producing sample-wise masks.

Decisions are made per analysis window and replicated to every sample in
that window, so the mask is always shape-aligned with the audio it was
computed from. The energy detector thresholds window RMS against a
percentile noise floor; it stands in for a trained model, which can be
attached through the external adapter (same file-exchange protocol as
the enhancers, mask encoded as a float-32 WAV of 0/1 samples).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .audio_io import AudioBuffer, frame_matrix
from .dsp import FLOOR_DB, rms_db
from .enhance import EXTERNAL_PARAMS, check_external, check_returned, run_exchange_command
from .schema import check_fields, check_kind

logger = logging.getLogger(__name__)

# Every detector kind with the name and type of each parameter it takes
# besides the windowing and threshold fields.
VAD_PARAMS: dict[str, dict[str, type]] = {
    "energy": {},
    "always_on": {},
    "external": EXTERNAL_PARAMS,
}


# Samples whose window levels _window_rms_db takes at once: their squares
# stay small next to the signal.
_LEVEL_BLOCK_SAMPLES = 1 << 15


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
        check_fields(type(self), vars(self))
        check_kind(self.kind, self.params, VAD_PARAMS, "VAD")
        if self.window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {self.window_seconds}")
        if self.kind == "external":
            check_external(self.params, ("input", "output"), "VAD")

    def window_samples(self, sample_rate: int, n: float = float("inf")) -> int:
        """Samples in one window at ``sample_rate``, clamped before rounding
        to ``n``, the buffer's length: a window at least as long as the
        buffer is one window over all of it."""
        return max(1, int(round(min(sample_rate * self.window_seconds, n))))


def _window_rms_db(samples: np.ndarray, win: int) -> np.ndarray:
    """RMS level in dB of consecutive windows; the trailing partial window
    is evaluated over its own samples, and empty input is one floor level.

    Working set: the levels plus the squares of one block of whole windows,
    about _LEVEL_BLOCK_SAMPLES samples. Each level is a reduction over its
    own row, so the blocks give the levels of one call over all windows.
    """
    full = samples.size // win
    tail = samples[full * win :]
    levels = np.empty(full + bool(tail.size or not full))
    windows = frame_matrix(samples, win)
    rows = max(1, _LEVEL_BLOCK_SAMPLES // win)
    for b in range(0, full, rows):
        block = windows[b : b + rows]
        levels[b : b + len(block)] = rms_db(block)
    if levels.size > full:
        levels[full] = rms_db(tail) if tail.size else FLOOR_DB
    return levels


def energy_vad_windows(buf: AudioBuffer, spec: VadSpec) -> np.ndarray:
    """Per-window speech decisions (uint8): RMS must clear both the
    percentile noise floor plus the relative margin and the absolute floor.
    A buffer that is one window long is its own floor, which is logged."""
    win = spec.window_samples(buf.sample_rate, len(buf))
    levels = _window_rms_db(buf.samples, win)
    if levels.size == 1 and len(buf):
        logger.warning("%s: one VAD window spans all %d samples, so its level is its own noise floor",
                       buf.source, len(buf))
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
        out = run_exchange_command(inputs={"input": buf}, what="VAD", **spec.params)[1]
        return (check_returned(out, buf, "external VAD").samples >= 0.5).astype(np.uint8)

    win = spec.window_samples(buf.sample_rate, n)
    decisions = energy_vad_windows(buf, spec)
    # one decision per window covers ceil(n / win) windows, so the repeat
    # always reaches n; the slice trims the tail window's replication
    return np.repeat(decisions, win)[:n]
