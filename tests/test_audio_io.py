"""WAV codec and framing tests."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmine.audio_io import (
    AudioBuffer,
    WavError,
    frame_len_samples,
    frame_matrix,
    read_wav,
    write_wav,
)


def make_wav_bytes(fmt_code, channels, rate, bits, payload):
    block = channels * bits // 8
    return b"".join(
        [
            b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
            b"fmt ", struct.pack("<IHHIIHH", 16, fmt_code, channels, rate, rate * block, block, bits),
            b"data", struct.pack("<I", len(payload)), payload,
        ]
    )


class TestReadWav:
    def test_pcm16_constant_scaling(self, tmp_path):
        payload = struct.pack("<4h", 16384, 16384, 16384, 16384)
        p = tmp_path / "c.wav"
        p.write_bytes(make_wav_bytes(1, 1, 48000, 16, payload))
        buf = read_wav(p)
        assert buf.sample_rate == 48000
        assert np.array_equal(buf.samples, np.full(4, 0.5))

    def test_stereo_downmix_average(self, tmp_path):
        left, right = round(0.2 * 2**15), round(0.4 * 2**15)
        payload = struct.pack("<6h", left, right, left, right, left, right)
        p = tmp_path / "st.wav"
        p.write_bytes(make_wav_bytes(1, 2, 44100, 16, payload))
        buf = read_wav(p)
        assert len(buf) == 3
        np.testing.assert_allclose(buf.samples, 0.3, atol=1e-4)

    def test_duration_sample_count(self, tmp_path):
        buf = AudioBuffer(np.zeros(3 * 44100), 44100)
        p = tmp_path / "d.wav"
        write_wav(p, buf, "pcm16")
        assert len(read_wav(p)) == 132300

    def test_pcm24_scaling(self, tmp_path):
        val = 1 << 22  # 0.5 in 24-bit
        raw = bytes([val & 0xFF, (val >> 8) & 0xFF, (val >> 16) & 0xFF]) * 3
        p = tmp_path / "p24.wav"
        p.write_bytes(make_wav_bytes(1, 1, 48000, 24, raw))
        np.testing.assert_allclose(read_wav(p).samples, 0.5)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(WavError, match="nope.wav"):
            read_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"RIFX" + b"\x00" * 40)
        with pytest.raises(WavError, match="RIFF"):
            read_wav(p)

    def test_unsupported_codec(self, tmp_path):
        p = tmp_path / "u8.wav"
        p.write_bytes(make_wav_bytes(1, 1, 8000, 8, b"\x80" * 16))
        with pytest.raises(WavError, match="unsupported codec"):
            read_wav(p)

    def test_zero_sample_rate_is_wav_error_naming_path(self, tmp_path):
        p = tmp_path / "rate0.wav"
        p.write_bytes(make_wav_bytes(1, 1, 0, 16, b"\x00" * 8))
        with pytest.raises(WavError, match="rate0.wav.*sample_rate"):
            read_wav(p)

    def test_too_many_channels(self, tmp_path):
        p = tmp_path / "quad.wav"
        p.write_bytes(make_wav_bytes(1, 4, 48000, 16, b"\x00" * 32))
        with pytest.raises(WavError, match="channel"):
            read_wav(p)


class TestWriteWav:
    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 4096).astype(np.float32).astype(np.float64)
        p = tmp_path / "f.wav"
        write_wav(p, AudioBuffer(x, 48000), "float32")
        assert np.max(np.abs(read_wav(p).samples - x)) == 0.0

    def test_pcm16_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.99, 0.99, 4096)
        p = tmp_path / "q.wav"
        write_wav(p, AudioBuffer(x, 48000), "pcm16")
        assert np.max(np.abs(read_wav(p).samples - x)) <= 2.0**-15

    def test_pcm24_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.99, 0.99, 4096)
        p = tmp_path / "q24.wav"
        write_wav(p, AudioBuffer(x, 48000), "pcm24")
        assert np.max(np.abs(read_wav(p).samples - x)) <= 2.0**-23

    def test_out_of_range_clipped_and_counted(self, tmp_path, caplog):
        x = np.array([0.0, 1.7, -2.0, 0.5])
        p = tmp_path / "clip.wav"
        with caplog.at_level("WARNING"):
            write_wav(p, AudioBuffer(x, 48000), "pcm16")
        assert "2 sample(s)" in caplog.text
        got = read_wav(p).samples
        assert got[1] == (2**15 - 1) / 2**15  # clipped to one step under full scale
        assert got[2] == -1.0

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(4), 48000), "mp3")


class TestBufferTypes:
    def test_rejects_stereo_array(self):
        with pytest.raises(ValueError, match="mono"):
            AudioBuffer(np.zeros((100, 2)), 48000)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            AudioBuffer(np.array([0.0, np.nan]), 48000)

    def test_duration(self):
        assert AudioBuffer(np.zeros(24000), 48000).duration == 0.5


class TestReshapeFrames:
    def test_ten_seconds_one_second_frames(self):
        frames = frame_matrix(np.zeros(10 * 48000), frame_len_samples(48000, 1.0))
        assert frames.shape == (10, 48000)

    def test_trailing_partial_discarded(self):
        x = np.arange(int(10.5 * 48000), dtype=np.float64) / 1e6
        frames = frame_matrix(x, frame_len_samples(48000, 1.0))
        assert len(frames) == 10
        np.testing.assert_array_equal(frames[9], x[9 * 48000 : 10 * 48000])

    def test_shorter_than_frame_gives_empty_grid(self):
        frames = frame_matrix(np.zeros(24000), frame_len_samples(48000, 1.0))
        assert frames.shape == (0, 48000)

    def test_non_integral_frame_rejected(self):
        with pytest.raises(ValueError, match="whole"):
            frame_len_samples(44100, 0.0001)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 20000), flen=st.integers(1, 4000))
    def test_rows_reconstruct_prefix(self, n, flen):
        x = np.arange(n, dtype=np.float64)
        mat = frame_matrix(x, flen)
        count = n // flen
        assert mat.shape == (count, flen)
        assert np.array_equal(mat.reshape(-1), x[: count * flen])
        assert count == 0 or np.shares_memory(mat, x)
