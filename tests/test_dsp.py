"""Numeric kernel tests: rms_db, STFT/ISTFT, cutoff estimation."""

import tracemalloc

import numpy as np
import pytest

from helpers import brickwall_lowpass
from speechmine.dsp import (
    StftConfig,
    estimate_cutoff,
    istft,
    rms_db,
    stft,
)

FS = 48000


class TestRmsDb:
    def test_constant_one_is_zero_db(self):
        level = rms_db(np.ones(1000))
        assert type(level) is float and level == 0.0

    def test_full_scale_sine(self):
        x = np.sin(2 * np.pi * 100 * np.arange(FS) / FS)  # whole periods
        assert rms_db(x) == pytest.approx(-3.0103, abs=1e-3)

    def test_silence_hits_floor(self):
        assert rms_db(np.zeros(100)) == -200.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rms_db(np.array([]))
        with pytest.raises(ValueError):
            rms_db(np.zeros((3, 0)))

    def test_one_level_per_row_equals_a_row_loop(self):
        rng = np.random.default_rng(4)
        for rows, cols in [(1, 1), (3, 7), (5, 960), (2, 48000), (0, 4)]:
            x = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-4, 0, (rows, 1))
            if rows > 1:
                x[1] = 0.0  # a silent row sits at the floor
            got = rms_db(x)
            assert got.shape == (rows,)
            assert np.array_equal(got, [rms_db(row) for row in x])

    def test_scale_covariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(rng.integers(10, 5000))
            c = float(10.0 ** rng.uniform(-3, 3))
            assert rms_db(c * x) == pytest.approx(
                rms_db(x) + 20 * np.log10(c), abs=1e-9
            )


class TestStft:
    def test_step_count(self):
        cfg = StftConfig()
        n = FS
        spec = stft(np.random.default_rng(0).standard_normal(n), cfg)
        assert spec.shape == ((n - cfg.window_len) // cfg.hop + 1, cfg.window_len // 2 + 1)

    @pytest.mark.parametrize("window_len,hop", [(2048, 512), (1024, 300), (8, 3)])
    def test_row_is_the_transform_of_one_tapered_frame(self, window_len, hop):
        cfg = StftConfig(window_len=window_len, hop=hop)
        x = np.random.default_rng(window_len + hop).standard_normal(window_len + 70 * hop + 1)
        spec = stft(x, cfg)
        assert spec.shape == (71, window_len // 2 + 1)
        assert spec.flags.c_contiguous
        for t in (0, 1, 63, 64, 70):
            frame = x[t * hop : t * hop + window_len] * cfg.taper()
            assert np.array_equal(spec[t], np.fft.rfft(frame))

    def test_dc_maps_to_bin_zero(self):
        cfg = StftConfig()
        mag = np.abs(stft(np.ones(4 * cfg.window_len), cfg))
        # DFT of a length-N periodic Hann window: N/2 at bin 0, -N/4 at bins +-1, 0 elsewhere
        assert (mag.argmax(axis=1) == 0).all()
        np.testing.assert_allclose(mag[:, 0], cfg.window_len / 2, rtol=1e-12)
        np.testing.assert_allclose(mag[:, 1], mag[:, 0] / 2, rtol=1e-12)
        assert (mag[:, 2:] < 1e-12 * mag[:, :1]).all()

    def test_tone_at_bin_center_dominates_that_bin(self):
        cfg = StftConfig()
        k = 100
        x = np.sin(2 * np.pi * (k * FS / cfg.window_len) * np.arange(FS) / FS)
        mag = np.abs(stft(x, cfg))
        assert (mag.argmax(axis=1) == k).all()

    def test_shorter_than_window_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            stft(np.zeros(100), StftConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(window_len=1024, hop=2048)
        with pytest.raises(ValueError):
            StftConfig(window="kaiser")


class TestIstft:
    def test_round_trip_interior(self):
        cfg = StftConfig()
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(FS) * 0.5
            y = istft(stft(x, cfg), cfg)
            w = cfg.window_len
            err = np.max(np.abs(y[w:-w] - x[: y.size][w:-w])) / np.max(np.abs(x))
            assert err < 1e-6

    def test_zero_spectrogram_gives_zeros(self):
        cfg = StftConfig()
        assert not istft(np.zeros((8, 1025), dtype=complex), cfg).any()

    def test_config_mismatch_rejected(self):
        # 1025 bins come from a 2048-sample window, not from 1024
        with pytest.raises(ValueError, match="expected 513 bins, got 1025"):
            istft(np.zeros((8, 1025), dtype=complex), StftConfig(window_len=1024))

    def test_pure_tone_round_trip(self):
        cfg = StftConfig()
        x = 0.7 * np.sin(2 * np.pi * 440 * np.arange(FS) / FS)
        y = istft(stft(x, cfg), cfg)
        w = cfg.window_len
        assert np.max(np.abs(y[w:-w] - x[: y.size][w:-w])) < 1e-6

    @pytest.mark.parametrize("hop", [512, 600])
    def test_peak_memory_bounded_by_output_size(self, hop):
        # The output and one block of frames, with the summed squared
        # window built over a few frames only: no second signal-long array.
        cfg = StftConfig(window_len=2048, hop=hop)
        values = stft(np.random.default_rng(4).standard_normal(20 * FS), cfg)
        out_bytes = ((len(values) - 1) * hop + cfg.window_len) * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            istft(values, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out_bytes


class TestEstimateCutoff:
    def test_brickwall_8k(self):
        cfg = StftConfig()
        rng = np.random.default_rng(7)
        bin_hz = FS / cfg.window_len
        lp = brickwall_lowpass(rng.standard_normal(FS), 8000, FS)
        assert estimate_cutoff(lp, FS, cfg) == pytest.approx(8000, abs=2 * bin_hz)

    def test_full_band_noise_reaches_nyquist(self):
        rng = np.random.default_rng(8)
        fc = estimate_cutoff(rng.standard_normal(FS), FS, StftConfig())
        assert fc >= 0.95 * FS / 2

    def test_silence_is_zero(self):
        assert estimate_cutoff(np.zeros(FS), FS, StftConfig()) == 0.0

    def test_monotone_under_lowpass(self):
        cfg = StftConfig()
        rng = np.random.default_rng(9)
        noise = rng.standard_normal(FS)
        bin_hz = FS / cfg.window_len
        prev = None
        for cutoff in (22000, 16000, 12000, 8000, 5000, 3000, 1500):
            est = estimate_cutoff(brickwall_lowpass(noise, cutoff, FS), FS, cfg)
            if prev is not None:
                assert est <= prev + 2 * bin_hz
            prev = est
