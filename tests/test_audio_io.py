"""WAV codec and framing tests."""

import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SLACK, reference_write_wav, traced_peak
from speechmine import audio_io
from speechmine.audio_io import (
    MAX_WRITE_RATE,
    MAX_WRITE_SAMPLES,
    READ_BLOCK_FRAMES,
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


def wav_with_fmt(fmt_body, payload=b"\x00" * 8):
    """A RIFF/WAVE file whose fmt chunk body is fmt_body, as given."""
    return b"".join(
        [
            b"RIFF", struct.pack("<I", 20 + len(fmt_body) + len(payload)), b"WAVE",
            b"fmt ", struct.pack("<I", len(fmt_body)), fmt_body,
            b"data", struct.pack("<I", len(payload)), payload,
        ]
    )


# (fmt chunk body, the reason read_wav gives after the path)
FMT_REJECTIONS = [
    pytest.param(struct.pack("<HHIIH", 1, 1, 48000, 96000, 2), "fmt chunk too short",
                 id="fmt-under-16-bytes"),
    pytest.param(struct.pack("<HHIIHH", 0xFFFE, 1, 48000, 96000, 2, 16),
                 "extensible fmt chunk too short", id="extensible-fmt-under-40-bytes"),
    pytest.param(struct.pack("<HHIIHH", 1, 1, 48000, 192000, 4, 16),
                 "block alignment 4 inconsistent with format", id="block-align-mismatch"),
]


class TestReadWav:
    @pytest.mark.parametrize("fmt_body, reason", FMT_REJECTIONS)
    def test_bad_fmt_chunk_is_wav_error_naming_path_and_reason(self, tmp_path, fmt_body, reason):
        p = tmp_path / "fmt.wav"
        p.write_bytes(wav_with_fmt(fmt_body))
        with pytest.raises(WavError, match=f"^{re.escape(str(p))}: {reason}$"):
            read_wav(p)

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
        reference_write_wav(p, buf, "pcm16")
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

    def test_read_failure_is_wav_error_naming_path(self, tmp_path, monkeypatch):
        p = tmp_path / "locked.wav"
        write_wav(p, AudioBuffer(np.zeros(10), 8000))

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "open", refuse)
        with pytest.raises(WavError, match="locked.wav: read failed: .*Permission denied"):
            read_wav(p)

    @pytest.mark.parametrize("where", ["chunk-header", "data"])
    def test_file_shorter_than_its_stat_size_is_wav_error(self, tmp_path, monkeypatch, where):
        # a file that shrinks while it is read: past its end lies either the
        # next chunk header the stat size promises or the data its header does
        extra = 1000
        raw = bytearray(make_wav_bytes(3, 1, 8000, 32, np.zeros(10, "<f4").tobytes()))
        if where == "data":
            raw[40:44] = struct.pack("<I", 40 + extra)
        p = tmp_path / "short.wav"
        p.write_bytes(raw)
        fstat = audio_io.os.fstat
        monkeypatch.setattr(audio_io.os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + extra))
        with pytest.raises(WavError, match="short.wav: read failed: file ended early"):
            read_wav(p)

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
        write_wav(p, AudioBuffer(x, 48000))
        assert np.max(np.abs(read_wav(p).samples - x)) == 0.0

    def test_pcm16_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.99, 0.99, 4096)
        p = tmp_path / "q.wav"
        reference_write_wav(p, AudioBuffer(x, 48000), "pcm16")
        assert np.max(np.abs(read_wav(p).samples - x)) <= 2.0**-15

    def test_pcm24_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.99, 0.99, 4096)
        p = tmp_path / "q24.wav"
        reference_write_wav(p, AudioBuffer(x, 48000), "pcm24")
        assert np.max(np.abs(read_wav(p).samples - x)) <= 2.0**-23

    def test_out_of_range_clipped_and_counted(self, tmp_path, caplog):
        x = np.array([0.0, 1.7, -2.0, 0.5])
        p = tmp_path / "clip.wav"
        with caplog.at_level("WARNING"):
            write_wav(p, AudioBuffer(x, 48000))
        assert "2 sample(s)" in caplog.text
        assert read_wav(p).samples.tolist() == [0.0, 1.0, -1.0, 0.5]

    def test_limits_are_the_largest_the_header_fields_hold(self, tmp_path):
        assert 4 * MAX_WRITE_RATE <= 0xFFFFFFFF < 4 * (MAX_WRITE_RATE + 1)
        assert 36 + 4 * MAX_WRITE_SAMPLES <= 0xFFFFFFFF < 36 + 4 * (MAX_WRITE_SAMPLES + 1)
        p = tmp_path / "edge.wav"
        write_wav(p, AudioBuffer(np.zeros(3), MAX_WRITE_RATE))
        assert read_wav(p).sample_rate == MAX_WRITE_RATE

    @pytest.mark.parametrize("rate, n", [
        (MAX_WRITE_RATE + 1, 3),
        (2_000_000_000, 3),
        (48000, MAX_WRITE_SAMPLES + 1),
    ], ids=["rate-one-past", "rate-2e9", "length-one-past"])
    def test_header_field_overflow_is_wav_error_naming_path(self, tmp_path, rate, n):
        # a zero-stride view stands for a buffer too long to allocate
        buf = AudioBuffer(np.zeros(1), rate)
        buf.samples = np.broadcast_to(np.float64(0.0), (n,))
        p = tmp_path / "big.wav"
        with pytest.raises(WavError, match=f"{p}: {n} samples at {rate} Hz overflow the 32-bit"):
            write_wav(p, buf)
        assert not p.exists()

    def test_missing_directory_is_wav_error_naming_path(self, tmp_path):
        p = tmp_path / "missing" / "a.wav"
        with pytest.raises(WavError, match=f"{re.escape(str(p))}: write failed"):
            write_wav(p, AudioBuffer(np.zeros(10), 8000))


class TestBufferTypes:
    def test_rejects_stereo_array(self):
        with pytest.raises(ValueError, match="mono"):
            AudioBuffer(np.zeros((100, 2)), 48000)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            AudioBuffer(np.array([0.0, np.nan]), 48000)

    # each built, then write_wav raised struct.error or wrote a 1-Hz file
    @pytest.mark.parametrize("rate", [48000.0, np.float64(48000), True, np.True_],
                             ids=["float", "float64", "bool", "numpy-bool"])
    def test_rejects_a_rate_that_is_not_an_integer(self, rate):
        with pytest.raises(ValueError, match="sample_rate"):
            AudioBuffer(np.zeros(4), rate)

    # the byte rate 4 * rate overflowed a narrow type: wrapped, or raised struct.error
    @pytest.mark.parametrize("rate", [np.uint16(48000), np.int16(16000), np.int64(48000)],
                             ids=["uint16", "int16", "int64"])
    def test_numpy_integer_rate_writes_its_rate_into_the_header(self, tmp_path, rate):
        p = tmp_path / "r.wav"
        write_wav(p, AudioBuffer(np.zeros(4), rate))
        assert struct.unpack("<II", p.read_bytes()[24:32]) == (int(rate), 4 * int(rate))
        assert read_wav(p).sample_rate == int(rate)


class TestWorkingSet:
    N = 2_000_000

    def test_read_holds_the_output_and_one_block(self, tmp_path):
        p = tmp_path / "long.wav"
        write_wav(p, AudioBuffer(np.random.default_rng(0).uniform(-1, 1, self.N), 48000))
        # a block is at most 16 bytes a frame: the raw bytes and their containers
        assert traced_peak(lambda: read_wav(p)) <= 8 * self.N + 16 * READ_BLOCK_FRAMES + SLACK

    def test_validation_allocates_nothing_sample_sized(self):
        x = np.random.default_rng(1).uniform(-1, 1, self.N)
        assert traced_peak(lambda: AudioBuffer(x, 48000)) <= SLACK


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
