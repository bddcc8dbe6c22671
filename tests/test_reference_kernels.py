"""Bit-exactness of the strided, blocked STFT/ISTFT and the in-place gate.

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
from speechmine.enhance import spectral_gate_enhance

FS = 48000

CONFIGS = [(2048, 512), (2048, 600), (1024, 1024), (256, 64), (8, 3)]
# 1 step, fewer steps than one block, an exact multiple of the block, and
# one step more than a multiple
STEP_COUNTS = [1, 37, 2 * _BLOCK_FRAMES, 2 * _BLOCK_FRAMES + 1]


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
    for steps in STEP_COUNTS
]


@pytest.mark.parametrize("window_len,hop,steps", CASES)
class TestMatchesReference:
    def test_stft(self, window_len, hop, steps):
        cfg = StftConfig(window_len=window_len, hop=hop)
        x = signal(window_len, hop, steps).samples
        got = stft(x, cfg)
        want = reference_stft(x, cfg)
        assert got.shape == want.shape == (window_len // 2 + 1, steps)
        assert np.array_equal(got, want)

    def test_istft(self, window_len, hop, steps):
        cfg = StftConfig(window_len=window_len, hop=hop)
        spec = reference_stft(signal(window_len, hop, steps).samples, cfg)
        rng = np.random.default_rng(steps)
        # a modified spectrogram (random per-cell gains), C-contiguous as
        # (bins, steps) rather than the transposed layout stft returns
        modified = np.ascontiguousarray(spec * rng.uniform(0.0, 1.0, spec.shape))
        got = istft(modified, cfg)
        want = reference_istft(modified, cfg)
        assert got.shape == want.shape == ((steps - 1) * hop + window_len,)
        assert np.array_equal(got, want)

    def test_spectral_gate(self, window_len, hop, steps):
        cfg = StftConfig(window_len=window_len, hop=hop)
        buf = signal(window_len, hop, steps)
        got = spectral_gate_enhance(buf, 12.0, 30.0, cfg).samples
        want = reference_spectral_gate_enhance(buf, 12.0, 30.0, cfg).samples
        assert np.array_equal(got, want)
