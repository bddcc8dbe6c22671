"""Numeric kernels on plain arrays: RMS level in dB, STFT/ISTFT, per-frame
cutoff estimation."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Amplitude floor applied before any log: -200 dB, far below audibility but
# finite, so digital silence never propagates -inf.
RMS_FLOOR = 1e-10
FLOOR_DB = 20.0 * np.log10(RMS_FLOOR)

# A bin is inside a frame's band while its mean log magnitude stays within
# this many dB of the strongest bin's.
ROLLOFF_DB = 35.0

# Frames tapered and transformed per FFT call in stft/istft: enough to
# amortise the call, small enough that the block temporaries stay in cache.
_BLOCK_FRAMES = 64


def rms_db(samples: np.ndarray) -> float | np.ndarray:
    """Root-mean-square level in dB (0 dB == RMS of 1.0), floored at -200 dB,
    over the last axis: a float for 1-D input, one level per row for 2-D."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[-1] == 0:
        raise ValueError("rms_db of an empty sequence is undefined")
    rms = np.sqrt(np.mean(np.square(samples), axis=-1))
    levels = 20.0 * np.log10(np.maximum(rms, RMS_FLOOR))
    return float(levels) if levels.ndim == 0 else levels


@functools.cache
def _hann_periodic(n: int) -> np.ndarray:
    """The periodic Hann window of n samples, computed once per n and
    shared read-only by every transform."""
    taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    taper.flags.writeable = False
    return taper


@dataclass(frozen=True)
class StftConfig:
    """Analysis window length and hop, both in samples.

    The default periodic Hann window at hop = window_len/4 satisfies the
    constant-overlap-add property, which the inverse transform relies on.
    """

    window_len: int = 2048
    hop: int = 0  # 0 means window_len // 4
    window: str = "hann"

    def __post_init__(self) -> None:
        if self.window_len < 2:
            raise ValueError(f"window_len must be >= 2, got {self.window_len}")
        if self.hop == 0:
            object.__setattr__(self, "hop", self.window_len // 4)
        if not 0 < self.hop <= self.window_len:
            raise ValueError(f"hop must be in (0, window_len], got {self.hop}")
        if self.window != "hann":
            raise ValueError(f"unsupported window {self.window!r}")

    def taper(self) -> np.ndarray:
        return _hann_periodic(self.window_len)


def stft(samples: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Windowed short-time transform of a 1-D signal: complex coefficients
    of shape (window_len/2 + 1, steps), steps = floor((n - w)/hop) + 1, no
    padding.

    Frames are a strided view of the samples (no gathered copy). They are
    tapered and transformed _BLOCK_FRAMES at a time into one time-major
    complex array, whose transpose is returned.
    """
    n = len(samples)
    w = cfg.window_len
    if n < w:
        raise ValueError(f"signal of {n} samples is shorter than one window ({w})")
    steps = (n - w) // cfg.hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(samples, w)[:: cfg.hop]
    taper = cfg.taper()
    values = np.empty((steps, w // 2 + 1), dtype=np.complex128)
    for b in range(0, steps, _BLOCK_FRAMES):
        block = slice(b, b + _BLOCK_FRAMES)
        np.fft.rfft(frames[block] * taper, axis=1, out=values[block])
    return values.T


def _overlap_add(out: np.ndarray, frames: np.ndarray, first: int) -> None:
    """Add ``frames[t]`` at row ``first + t`` of ``out``, a (rows, hop) view
    of the output signal.

    Each frame is cut into ceil(w/hop) hop-long pieces (the last may be
    shorter), and piece j of every frame goes in with one strided slice-add.
    Pieces go in descending j, so every sample sums its frames in ascending
    time order, the order of a frame-by-frame loop.
    """
    count, w = frames.shape
    hop = out.shape[1]
    for j in range(-(-w // hop) - 1, -1, -1):
        piece = frames[:, j * hop : (j + 1) * hop]
        out[first + j : first + j + count, : piece.shape[1]] += piece


def istft(values: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Weighted overlap-add inverse of a (window_len/2 + 1, steps) complex
    array; output length = (steps - 1) * hop + window_len samples.

    Samples are normalized by the summed squared window, so an unmodified
    round trip reconstructs the signal exactly wherever the window
    coverage is non-degenerate (everywhere except a few edge samples).

    Frames are inverted and tapered _BLOCK_FRAMES at a time and overlap-added
    with ceil(w/hop) strided adds per block, for any hop in (0, window_len]
    and any memory layout of ``values``. Every sample sums its frames
    in ascending time order, so the result equals a frame-by-frame loop
    bit for bit.

    Working set: the output signal plus one block of frames. The summed
    squared window is built over at most ceil(w/hop) frames: hop-long rows
    that every frame's window covers sum the same squares in the same order,
    so one such row stands for all of them, and the partly covered rows at
    each end are the same as those of the short sum.
    """
    w = cfg.window_len
    hop = cfg.hop
    if values.shape[0] != w // 2 + 1:
        raise ValueError(f"expected {w // 2 + 1} bins, got {values.shape[0]}")
    steps = values.shape[1]
    taper = cfg.taper()
    pieces = -(-w // hop)
    rows = steps - 1 + pieces

    out = np.zeros((rows, hop))
    for b in range(0, steps, _BLOCK_FRAMES):
        block = np.fft.irfft(values[:, b : b + _BLOCK_FRAMES].T, n=w, axis=1)
        block *= taper
        _overlap_add(out, block, b)

    # rows [0, edge) and the last `edge` rows miss some frame; the rows
    # between are covered by every frame, each equal to norm[edge]
    frames = min(steps, pieces)
    norm = np.zeros((frames - 1 + pieces, hop))
    _overlap_add(norm, np.broadcast_to(taper * taper, (frames, w)), 0)
    edge = pieces - 1
    if steps > pieces:
        _normalise(out[:edge], norm[:edge])
        _normalise(out[edge:steps], norm[edge])
        _normalise(out[steps:], norm[pieces:])
    else:
        _normalise(out, norm)
    return out.reshape(-1)[: (steps - 1) * hop + w]


def _normalise(out: np.ndarray, norm: np.ndarray) -> None:
    """Divide ``out`` in place by ``norm`` (broadcast), zeroing samples
    whose summed squared window is degenerate."""
    covered = norm > 1e-12
    np.divide(out, norm, out=out, where=covered)
    np.copyto(out, 0.0, where=~covered)


def estimate_cutoff(frame: np.ndarray, sample_rate: int, cfg: StftConfig) -> float:
    """Spectral cutoff of one frame: the highest bin whose time-averaged log
    magnitude stays within ROLLOFF_DB of the strongest bin.

    Returns the bin's center frequency in Hz; a frame that is entirely at
    the silence floor yields 0.0.
    """
    mag = np.abs(stft(frame, cfg))
    np.maximum(mag, RMS_FLOOR, out=mag)
    np.log10(mag, out=mag)
    avg_db = 20.0 * mag.mean(axis=1)
    peak = float(avg_db.max())
    if peak <= FLOOR_DB + 1e-9:
        return 0.0
    passing = np.flatnonzero(avg_db >= peak - ROLLOFF_DB)
    return float(passing[-1] * (sample_rate / cfg.window_len))
