"""The WAV codec against the reference codec in helpers.py.

Every generated file must decode to the same samples (np.array_equal), for
each codec, mono and stereo, and for the header layouts found in the wild,
at frame counts on both sides of the reader's block boundaries; every
buffer must encode to the same float-32 bytes. Mutated, truncated or
extended headers must load exactly as the reference loads them or raise
WavError, never anything else.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_WRITE_FORMATS, reference_read_wav, reference_write_wav
from speechmine.audio_io import (
    WAVE_FORMAT_EXTENSIBLE,
    WAVE_FORMAT_IEEE_FLOAT,
    WAVE_FORMAT_PCM,
    READ_BLOCK_FRAMES,
    AudioBuffer,
    WavError,
    read_wav,
    write_wav,
)

FS = 48000
FRAMES = 257

# codec name -> (format code, bits)
READ_CODECS = {
    "pcm16": (WAVE_FORMAT_PCM, 16),
    "pcm24": (WAVE_FORMAT_PCM, 24),
    "float32": (WAVE_FORMAT_IEEE_FLOAT, 32),
}
LAYOUTS = ["plain", "odd-data-size", "list-before-data", "odd-padded-chunk",
           "extensible", "optimistic-data-size", "list-after-data"]
B = READ_BLOCK_FRAMES


def chunk(cid: bytes, body: bytes) -> bytes:
    """A RIFF chunk, padded to an even length."""
    return cid + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def payload(codec: str, channels: int, seed: int, frames: int = FRAMES) -> bytes:
    """Interleaved samples covering the codec's extremes and random values."""
    rng = np.random.default_rng(seed)
    n = frames * channels
    if codec == "float32":
        x = rng.uniform(-1.0, 1.0, n).astype("<f4")
        x[:4] = [-1.0, 1.0, 0.0, -0.0][:n]
        return x.tobytes()
    bits = READ_CODECS[codec][1]
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    q = rng.integers(lo, hi + 1, n)
    q[:4] = [lo, hi, 0, -1][:n]
    return q.astype("<i4").view(np.uint8).reshape(n, 4)[:, : bits // 8].tobytes()


def wav_file(codec: str, channels: int, layout: str, seed: int = 0, frames: int = FRAMES) -> bytes:
    code, bits = READ_CODECS[codec]
    block = channels * bits // 8
    data = payload(codec, channels, seed, frames)
    fmt = struct.pack("<HHIIHH", code, channels, FS, FS * block, block, bits)
    before = after = b""
    declared = None
    if layout == "odd-data-size":
        data += b"\x7f"
    elif layout == "list-before-data":
        before = chunk(b"LIST", b"INFOISFT" + struct.pack("<I", 6) + b"test\x00\x00")
    elif layout == "odd-padded-chunk":
        before = chunk(b"junk", b"\x01\x02\x03\x04\x05")
    elif layout == "extensible":
        guid_tail = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = (struct.pack("<HHIIHH", WAVE_FORMAT_EXTENSIBLE, channels, FS, FS * block, block, bits)
               + struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", code) + guid_tail)
    elif layout == "optimistic-data-size":
        declared = len(data) + 1000
    elif layout == "list-after-data":
        after = chunk(b"LIST", b"INFOICMT" + struct.pack("<I", 5) + b"late\x00\x00")
    data_chunk = chunk(b"data", data)
    if declared is not None:
        data_chunk = b"data" + struct.pack("<I", declared) + data
    body = b"WAVE" + chunk(b"fmt ", fmt) + before + data_chunk + after
    return b"RIFF" + struct.pack("<I", len(body)) + body


def outcome(read, path):
    """(samples, rate) of a load, or the exception type it raised."""
    try:
        buf = read(path)
    except Exception as exc:
        return type(exc)
    return buf.samples, buf.sample_rate


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
@pytest.mark.parametrize("codec", list(READ_CODECS))
def test_decodes_as_reference(tmp_path, codec, channels, layout):
    p = tmp_path / "x.wav"
    p.write_bytes(wav_file(codec, channels, layout))
    want, got = reference_read_wav(p), read_wav(p)
    assert len(got) == FRAMES
    assert np.array_equal(got.samples, want.samples)
    assert got.sample_rate == want.sample_rate == FS
    assert got.source == want.source


@pytest.mark.parametrize("frames", [0, 1, B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
@pytest.mark.parametrize("codec", list(READ_CODECS))
def test_decodes_as_reference_across_blocks(tmp_path, codec, channels, layout, frames):
    p = tmp_path / "x.wav"
    p.write_bytes(wav_file(codec, channels, layout, seed=frames, frames=frames))
    want, got = reference_read_wav(p), read_wav(p)
    assert len(got) == frames
    assert np.array_equal(got.samples, want.samples)
    assert got.sample_rate == want.sample_rate == FS


@pytest.mark.parametrize("fmt", ["float32"])
def test_encodes_as_reference(tmp_path, fmt):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.2, 1.2, 1001)  # a share of samples is clipped
    x[:6] = [-1.0, 1.0, 0.0, -0.0, 1.0 - 2.0**-24, -1.0 + 2.0**-16]
    buf = AudioBuffer(x, 44100)
    write_wav(tmp_path / "new.wav", buf)
    reference_write_wav(tmp_path / "ref.wav", buf, fmt)
    assert (tmp_path / "new.wav").read_bytes() == (tmp_path / "ref.wav").read_bytes()


@pytest.mark.parametrize("fmt", REFERENCE_WRITE_FORMATS)
def test_reference_stereo_write_reads_as_the_mean_of_its_channels(tmp_path, fmt):
    rng = np.random.default_rng(4)
    left, right = (AudioBuffer(rng.uniform(-1.0, 1.0, 101), FS) for _ in range(2))
    reference_write_wav(tmp_path / "l.wav", left, fmt)
    reference_write_wav(tmp_path / "r.wav", right, fmt)
    reference_write_wav(tmp_path / "lr.wav", left, fmt, right)
    l, r, lr = (read_wav(tmp_path / f"{name}.wav").samples for name in ("l", "r", "lr"))
    assert np.array_equal(lr, (l + r) / 2)


@pytest.mark.parametrize("channels, first", [
    pytest.param(1, struct.pack("<I", 0x7F800001), id="signalling-nan"),
    pytest.param(2, struct.pack("<ff", np.inf, -np.inf), id="inf-minus-inf"),
])
def test_non_finite_float_samples_raise_wav_error_and_nothing_else(tmp_path, channels, first):
    # under the suite's warnings-as-errors, a RuntimeWarning from the cast or
    # the downmix would escape as itself instead of the WavError
    raw = bytearray(wav_file("float32", channels, "plain"))
    data = raw.index(b"data") + 8
    raw[data : data + len(first)] = first
    p = tmp_path / "x.wav"
    p.write_bytes(bytes(raw))
    with pytest.raises(WavError, match="non-finite"):
        read_wav(p)


@pytest.mark.parametrize("frame", [0, B - 1, B, 2 * B], ids=["first", "block-end", "block-start", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
def test_non_finite_sample_anywhere_raises_wav_error_naming_path(tmp_path, channels, bad, frame):
    raw = bytearray(wav_file("float32", channels, "plain", frames=2 * B + 1))
    at = raw.index(b"data") + 8 + 4 * channels * frame + 4 * (channels - 1)  # the last channel
    raw[at : at + 4] = struct.pack("<f", bad)
    p = tmp_path / "bad.wav"
    p.write_bytes(bytes(raw))
    with pytest.raises(WavError, match="bad.wav: .*non-finite"):
        read_wav(p)


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from([(c, ch, lay) for c in READ_CODECS for ch in (1, 2) for lay in LAYOUTS]),
    edits=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 255)), max_size=4),
    cut=st.one_of(st.none(), st.integers(0, 120)),
    extra=st.binary(max_size=40),
)
def test_mutated_header_loads_as_reference_or_raises_wav_error(tmp_path_factory, base, edits, cut, extra):
    raw = bytearray(wav_file(*base))
    for pos, value in edits:  # the fmt chunk and the chunk headers lie in the first 100 bytes
        raw[pos] = value
    if cut is not None:
        del raw[cut:]
    raw += extra
    p = tmp_path_factory.getbasetemp() / "mutated.wav"
    p.write_bytes(bytes(raw))
    want, got = outcome(reference_read_wav, p), outcome(read_wav, p)
    if isinstance(want, tuple):
        assert isinstance(got, tuple), got
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    else:
        assert got is WavError
