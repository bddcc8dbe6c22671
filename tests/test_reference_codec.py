"""The WAV codec against the reference codec in helpers.py.

Every generated file must decode to the same samples (np.array_equal) and
every buffer must encode to the same bytes, for each codec, mono and
stereo, and for the header layouts found in the wild. Mutated, truncated
or extended headers must load exactly as the reference loads them or
raise WavError, never anything else.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_read_wav, reference_write_wav
from speechmine.audio_io import (
    WAVE_FORMAT_EXTENSIBLE,
    WAVE_FORMAT_IEEE_FLOAT,
    WAVE_FORMAT_PCM,
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
           "extensible", "optimistic-data-size"]


def chunk(cid: bytes, body: bytes) -> bytes:
    """A RIFF chunk, padded to an even length."""
    return cid + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def payload(codec: str, channels: int, seed: int) -> bytes:
    """Interleaved samples covering the codec's extremes and random values."""
    rng = np.random.default_rng(seed)
    n = FRAMES * channels
    if codec == "float32":
        x = rng.uniform(-1.0, 1.0, n).astype("<f4")
        x[:4] = [-1.0, 1.0, 0.0, -0.0]
        return x.tobytes()
    bits = READ_CODECS[codec][1]
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    q = rng.integers(lo, hi + 1, n)
    q[:4] = [lo, hi, 0, -1]
    return q.astype("<i4").view(np.uint8).reshape(n, 4)[:, : bits // 8].tobytes()


def wav_file(codec: str, channels: int, layout: str, seed: int = 0) -> bytes:
    code, bits = READ_CODECS[codec]
    block = channels * bits // 8
    data = payload(codec, channels, seed)
    fmt = struct.pack("<HHIIHH", code, channels, FS, FS * block, block, bits)
    before = b""
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
    data_chunk = chunk(b"data", data)
    if declared is not None:
        data_chunk = b"data" + struct.pack("<I", declared) + data
    body = b"WAVE" + chunk(b"fmt ", fmt) + before + data_chunk
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


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
def test_encodes_as_reference(tmp_path, fmt):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.2, 1.2, 1001)  # a share of samples is clipped
    x[:6] = [-1.0, 1.0, 0.0, -0.0, 1.0 - 2.0**-24, -1.0 + 2.0**-16]
    buf = AudioBuffer(x, 44100)
    write_wav(tmp_path / "new.wav", buf, fmt)
    reference_write_wav(tmp_path / "ref.wav", buf, fmt)
    assert (tmp_path / "new.wav").read_bytes() == (tmp_path / "ref.wav").read_bytes()


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
