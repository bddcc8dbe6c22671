"""Numeric kernels: RMS level in dB, STFT/ISTFT, per-frame cutoff estimation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioBuffer

# Amplitude floor applied before any log: -200 dB, far below audibility but
# finite, so digital silence never propagates -inf.
RMS_FLOOR = 1e-10
FLOOR_DB = 20.0 * np.log10(RMS_FLOOR)

DEFAULT_ROLLOFF_DB = 35.0

# Frames tapered and transformed per FFT call in stft/istft: enough to
# amortise the call, small enough that the block temporaries stay in cache.
_BLOCK_FRAMES = 64


def rms_db(samples: np.ndarray) -> float:
    """Root-mean-square level in dB (0 dB == RMS of 1.0), floored at -200 dB."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("rms_db of an empty sequence is undefined")
    rms = np.sqrt(np.mean(np.square(samples)))
    return float(20.0 * np.log10(max(rms, RMS_FLOOR)))


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


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


@dataclass
class Spectrogram:
    """Complex STFT coefficients, shape (window_len/2 + 1, time_steps)."""

    values: np.ndarray = field(repr=False)
    sample_rate: int
    window_len: int
    hop: int

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.window_len

    @property
    def time_steps(self) -> int:
        return int(self.values.shape[1])


@dataclass
class BandwidthProfile:
    """Estimated spectral cutoff per analysis frame, in Hz."""

    cutoff_hz: np.ndarray


def stft(buf: AudioBuffer, cfg: StftConfig) -> Spectrogram:
    """Windowed short-time transform; frames = floor((n - w)/hop) + 1, no padding.

    Frames are a strided view of the samples (no gathered copy). They are
    tapered and transformed _BLOCK_FRAMES at a time into one time-major
    complex array, whose transpose is returned as ``values``.
    """
    n = len(buf)
    w = cfg.window_len
    if n < w:
        raise ValueError(f"buffer of {n} samples is shorter than one window ({w})")
    steps = (n - w) // cfg.hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(buf.samples, w)[:: cfg.hop]
    taper = cfg.taper()
    values = np.empty((steps, w // 2 + 1), dtype=np.complex128)
    for b in range(0, steps, _BLOCK_FRAMES):
        block = slice(b, b + _BLOCK_FRAMES)
        np.fft.rfft(frames[block] * taper, axis=1, out=values[block])
    return Spectrogram(
        values=values.T,
        sample_rate=buf.sample_rate,
        window_len=w,
        hop=cfg.hop,
    )


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


def istft(spec: Spectrogram, cfg: StftConfig) -> AudioBuffer:
    """Weighted overlap-add inverse; output length = (steps - 1) * hop + window_len.

    Samples are normalized by the summed squared window, so an unmodified
    round trip reconstructs the signal exactly wherever the window
    coverage is non-degenerate (everywhere except a few edge samples).

    Frames are inverted and tapered _BLOCK_FRAMES at a time and overlap-added
    with ceil(w/hop) strided adds per block, for any hop in (0, window_len]
    and any memory layout of ``spec.values``. Every sample sums its frames
    in ascending time order, so the result equals a frame-by-frame loop
    bit for bit.
    """
    if spec.window_len != cfg.window_len or spec.hop != cfg.hop:
        raise ValueError(
            f"spectrogram (window_len={spec.window_len}, hop={spec.hop}) does not "
            f"match config (window_len={cfg.window_len}, hop={cfg.hop})"
        )
    w = cfg.window_len
    hop = cfg.hop
    if spec.values.shape[0] != w // 2 + 1:
        raise ValueError(f"expected {w // 2 + 1} bins, got {spec.values.shape[0]}")
    steps = spec.time_steps
    taper = cfg.taper()
    pieces = -(-w // hop)
    rows = steps - 1 + pieces

    norm = np.zeros((rows, hop))
    _overlap_add(norm, np.broadcast_to(taper * taper, (steps, w)), 0)

    out = np.zeros((rows, hop))
    for b in range(0, steps, _BLOCK_FRAMES):
        block = np.fft.irfft(spec.values[:, b : b + _BLOCK_FRAMES].T, n=w, axis=1)
        block *= taper
        _overlap_add(out, block, b)

    out_len = (steps - 1) * hop + w
    out = out.reshape(-1)[:out_len]
    norm = norm.reshape(-1)[:out_len]
    covered = norm > 1e-12
    np.divide(out, norm, out=out, where=covered)
    out[~covered] = 0.0
    return AudioBuffer(samples=out, sample_rate=spec.sample_rate)


def _mean_log_magnitude(spec_values: np.ndarray) -> np.ndarray:
    """Per-bin log magnitude in dB, averaged over time steps."""
    mag = np.maximum(np.abs(spec_values), RMS_FLOOR)
    return 20.0 * np.log10(mag).mean(axis=1)


def estimate_cutoff(
    frame: np.ndarray,
    sample_rate: int,
    cfg: StftConfig,
    rolloff_db: float = DEFAULT_ROLLOFF_DB,
) -> float:
    """Spectral cutoff of one frame: the highest bin whose time-averaged log
    magnitude stays within ``rolloff_db`` of the strongest bin.

    Returns the bin's center frequency in Hz; a frame that is entirely at
    the silence floor yields 0.0.
    """
    buf = AudioBuffer(samples=np.asarray(frame, dtype=np.float64), sample_rate=sample_rate)
    spec = stft(buf, cfg)
    avg_db = _mean_log_magnitude(spec.values)
    peak = float(avg_db.max())
    if peak <= FLOOR_DB + 1e-9:
        return 0.0
    passing = np.flatnonzero(avg_db >= peak - rolloff_db)
    return float(passing[-1] * spec.bin_hz)


def bandwidth_profile(
    grid_frames: np.ndarray,
    sample_rate: int,
    cfg: StftConfig,
    rolloff_db: float = DEFAULT_ROLLOFF_DB,
) -> BandwidthProfile:
    """estimate_cutoff applied to every column of a frame matrix."""
    cutoffs = np.array(
        [
            estimate_cutoff(grid_frames[:, l], sample_rate, cfg, rolloff_db)
            for l in range(grid_frames.shape[1])
        ]
    )
    return BandwidthProfile(cutoff_hz=cutoffs)
