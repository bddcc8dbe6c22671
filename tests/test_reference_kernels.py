"""Bit-exactness of the strided, blocked STFT/ISTFT, the in-place gate and
its single-select noise floor.

The production kernels must equal the reference kernels in helpers.py
exactly (np.array_equal), for hops that divide the window and hops that
do not, and for lengths around the frame-block boundary.
"""

import numpy as np
import pytest

from helpers import (
    reference_istft,
    reference_spectral_gate_enhance,
    reference_stft,
)
from speechmine.audio_io import AudioBuffer
from speechmine.dsp import _BLOCK_FRAMES, StftConfig, istft, stft
from speechmine.enhance import _floor_10th, spectral_gate_enhance

FS = 48000

CONFIGS = [(2048, 512), (2048, 600), (1024, 1024), (256, 64), (8, 3)]


def step_counts(window_len: int, hop: int) -> list[int]:
    """1 step, fewer steps than one block, an exact multiple of the block,
    one step more than a multiple, and the counts around istft's split of
    its normalisation into leading, interior and trailing rows: 2 and 3
    steps, and p - 1 ... p + 1, 2p - 1 and 2p steps for p = ceil(w/hop)
    window pieces."""
    p = -(-window_len // hop)
    counts = {1, 2, 3, 37, 2 * _BLOCK_FRAMES, 2 * _BLOCK_FRAMES + 1,
              max(p - 1, 1), p, p + 1, 2 * p - 1, 2 * p}
    return sorted(counts)


def signal(window_len: int, hop: int, steps: int) -> AudioBuffer:
    """Noise with a slow level swing plus a tone, long enough for ``steps``
    frames and a trailing partial hop the transform leaves uncovered."""
    rng = np.random.default_rng(window_len * 7919 + hop * 31 + steps)
    n = window_len + (steps - 1) * hop + (hop - 1)
    t = np.arange(n)
    level = 0.02 + 0.3 * (0.5 + 0.5 * np.sin(2 * np.pi * t / max(n, 2)))
    x = level * rng.standard_normal(n) + 0.1 * np.sin(2 * np.pi * 0.05 * t)
    return AudioBuffer(x, FS)


CASES = [
    pytest.param(w, hop, steps, id=f"w{w}-hop{hop}-steps{steps}")
    for w, hop in CONFIGS
    for steps in step_counts(w, hop)
]


@pytest.mark.parametrize("window_len,hop,steps", CASES)
class TestMatchesReference:
    def test_stft(self, window_len, hop, steps):
        cfg = StftConfig(window_len=window_len, hop=hop)
        x = signal(window_len, hop, steps).samples
        got = stft(x, cfg)
        want = reference_stft(x, cfg).T
        assert got.shape == want.shape == (steps, window_len // 2 + 1)
        assert np.array_equal(got, want)

    def test_istft(self, window_len, hop, steps):
        cfg = StftConfig(window_len=window_len, hop=hop)
        spec = reference_stft(signal(window_len, hop, steps).samples, cfg)
        rng = np.random.default_rng(steps)
        # a modified spectrogram (random per-cell gains), C-contiguous as
        # (bins, steps), so istft reads a transposed view rather than the
        # C-contiguous rows stft returns
        modified = np.ascontiguousarray(spec * rng.uniform(0.0, 1.0, spec.shape))
        got = istft(modified.T, cfg)
        want = reference_istft(modified, cfg)
        assert got.shape == want.shape == ((steps - 1) * hop + window_len,)
        assert np.array_equal(got, want)

    def test_spectral_gate(self, window_len, hop, steps):
        cfg = StftConfig(window_len=window_len, hop=hop)
        buf = signal(window_len, hop, steps)
        got = spectral_gate_enhance(buf, cfg, 12.0, 30.0).samples
        want = reference_spectral_gate_enhance(buf, 12.0, 30.0, cfg).samples
        assert np.array_equal(got, want)


def edge_signal(kind: str, window_len: int, hop: int) -> AudioBuffer:
    """Inputs whose floor sits at an extreme: digital silence (every floor
    0), silence for the first 90% of the frames (floor 0 in every bin,
    nothing below it) and a pure tone (floors far below the tone's bins)."""
    steps = 2 * _BLOCK_FRAMES + 1
    n = window_len + (steps - 1) * hop + (hop - 1)
    t = np.arange(n)
    if kind == "silence":
        return AudioBuffer(np.zeros(n), FS)
    if kind == "tone":
        return AudioBuffer(0.5 * np.sin(2 * np.pi * 0.05 * t), FS)
    x = np.random.default_rng(window_len + hop).standard_normal(n) * 0.1
    x[: int(0.9 * n)] = 0.0
    return AudioBuffer(x, FS)


@pytest.mark.parametrize("kind", ["silence", "late_onset", "tone"])
@pytest.mark.parametrize("window_len,hop", CONFIGS)
def test_spectral_gate_edge_inputs(window_len, hop, kind):
    cfg = StftConfig(window_len=window_len, hop=hop)
    buf = edge_signal(kind, window_len, hop)
    got = spectral_gate_enhance(buf, cfg, 12.0, 30.0).samples
    want = reference_spectral_gate_enhance(buf, 12.0, 30.0, cfg).samples
    assert np.array_equal(got, want)


def test_floor_equals_percentile_bytes():
    # Every step count up to 600 and three around a 3-min file's at the
    # default STFT; per count, uniform rows, rows rounded to quarters (many
    # ties), an all-zero row and an all-inf row (NaN by numpy's rule, from
    # inf - inf, at every n). The virtual index (n - 1) * 0.1 has every
    # fractional part on both sides of 0.5, so both of numpy's lerp forms
    # are exercised.
    rng = np.random.default_rng(15)
    for n in [*range(1, 601), 16871, 16872, 16873]:
        uniform = rng.uniform(0.0, 3.0, (3, n))
        mag = np.vstack([uniform, np.round(uniform * 4) / 4, np.zeros((1, n)), np.full((1, n), np.inf)])
        with np.errstate(invalid="ignore"):  # inf - inf in both
            want = np.percentile(mag, 10, axis=1)
            got = _floor_10th(mag.copy())
        assert got.tobytes() == want.tobytes(), f"n={n}"
