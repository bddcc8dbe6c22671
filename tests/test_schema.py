"""The typed JSON form of configs and manifest records: every malformed
config is a ConfigError (CLI exit 2), every malformed record is skipped
and counted, and every text that loads encodes back to the same hash."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_segment
from speechmine.cli import main
from speechmine.curation import ConfigError, CurationConfig, CuratedSegment, load_manifest
from speechmine.schema import canonical_json

FS = 48000

# (config dict, field the error must name). Each loaded, or failed with a
# TypeError or with a message about another field, before types were checked.
CONFIG_PROBES = [
    ({"segment_seconds": "12"}, "segment_seconds"),
    ({"snr_threshold_db": None}, "snr_threshold_db"),
    ({"min_bandwidth_hz": None}, "min_bandwidth_hz"),
    ({"enhancer": {"kind": "spectral_gate", "gate_threshold_db": "x"}}, "gate_threshold_db"),
    ({"enhancer": {"kind": "spectral_gate", "bogus": 1}}, "bogus"),
    ({"vad": {"kind": "energy", "bogus": 1}}, "bogus"),
    ({"round_id": 1.0}, "round_id"),
    ({"stft": {"window_len": 2048.0}}, "window_len"),
    ({"sample_rate": True}, "sample_rate"),
    ({"vad": {"kind": "energy", "window_seconds": True}}, "window_seconds"),
    ({"rho_max_db": math.inf}, "rho_max_db"),
    ({"enhancer": {"kind": "oracle", "reference_dir": 5}}, "reference_dir"),
    ({"enhancer": {"kind": "external", "command": ["run", "{input}", "{output}"]}}, "command"),
    ({"vad": {"kind": "external", "command": "vad {input} {output}", "timeout_s": "60"}}, "timeout_s"),
    ({"enhancer": {"kind": "external", "command": "run {input} {output}", "timeout_s": 0}}, "timeout_s"),
    ({"vad": {"kind": "external", "command": "vad {input} {output}", "timeout_s": -1}}, "timeout_s"),
    # subprocess cannot wait longer than 2**31 - 1 ms: each of these failed every file
    ({"enhancer": {"kind": "external", "command": "run {input} {output}", "timeout_s": 1e300}}, "timeout_s"),
    ({"enhancer": {"kind": "external", "command": "run {input} {output}", "timeout_s": 2147484}}, "timeout_s"),
    ({"vad": {"kind": "external", "command": "vad {input} {output}", "timeout_s": 1e300}}, "timeout_s"),
    ({"vad": {"kind": "external", "command": "vad {input} {output}", "timeout_s": 2147484}}, "timeout_s"),
]


@pytest.mark.parametrize(
    "data, field", CONFIG_PROBES,
    ids=[".".join(dict.fromkeys([next(iter(d)), f])) for d, f in CONFIG_PROBES],
)
def test_config_probe_is_a_config_error(data, field, tmp_path, capsys):
    with pytest.raises(ConfigError, match=field):
        CurationConfig.from_dict(data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    code = main(["curate", "--config", str(config), "--corpus", str(tmp_path / "*.wav"),
                 "--manifest", str(tmp_path / "m.jsonl")])
    assert code == 2
    assert field in capsys.readouterr().err


def _record(**overrides) -> str:
    base = json.loads(make_segment(end_sample=2 * FS, frame_rho=[50.0] * 2,
                                   frame_fc=[24000.0] * 2).to_json())
    base.update(overrides)
    return json.dumps(base)


# Each but the last was accepted before types were checked.
MANIFEST_PROBES = [
    pytest.param({"round_id": "x"}, id="round_id-str"),
    pytest.param({"round_id": True}, id="round_id-bool"),
    pytest.param({"frame_rho": [True, True]}, id="frame_rho-bools"),
    pytest.param({"sample_rate": 48000.5}, id="sample_rate-float"),
    pytest.param({"source_uri": 5}, id="source_uri-int"),
    pytest.param({"config_hash": 1}, id="config_hash-int"),
    # exported as a pair of empty WAVs
    pytest.param({"start_sample": -2 * FS, "end_sample": 0}, id="start_sample-negative"),
    # loaded, then overflowed the report's float hours
    pytest.param({"end_sample": 10**400}, id="end_sample-huge"),
    # terms beyond the float range whose sum is 0
    pytest.param({"frame_rho": [10**400, -(10**400)]}, id="frame_rho-huge"),
]


@pytest.mark.parametrize("overrides", MANIFEST_PROBES)
def test_manifest_probe_is_skipped_and_counted(overrides, tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(_record() + "\n" + _record(**overrides) + "\n")
    segments, skipped = load_manifest(path)
    assert (len(segments), skipped) == (1, 1)


def test_record_text_is_stable():
    # field order is the manifest format: old manifests must hash the same
    assert make_segment(end_sample=2 * FS, frame_rho=[50.0, 21.5], frame_fc=[24000.0] * 2).to_json() == (
        '{"source_uri": "/tmp/a.wav", "round_id": 0, "start_sample": 0, "end_sample": 96000, '
        '"sample_rate": 48000, "frame_rho": [50.0, 21.5], "frame_fc": [24000.0, 24000.0], '
        '"config_hash": "' + "ab" * 32 + '", "enhancer_id": "{\\"kind\\":\\"identity\\"}"}'
    )


# ------------------------------------------------------------ properties

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**62, max_value=2**70),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.one_of(st.text(max_size=3), st.integers()), st.integers(), max_size=2),
)


def _either(*valid):
    return st.one_of(st.sampled_from(valid), JUNK)


def _mutated(base, alternatives):
    """``base`` with up to three of the ``alternatives`` keys dropped or redrawn."""

    @st.composite
    def draw_one(draw):
        data = dict(base)
        for key in draw(st.lists(st.sampled_from(sorted(alternatives)), max_size=3, unique=True)):
            if key in data and draw(st.booleans()):
                del data[key]
            else:
                data[key] = draw(alternatives[key])
        return data

    return draw_one()


EXTERNAL = {"command": _either("run {input} {output}", "run {input}"),
            "exchange_dir": _either("/tmp"), "timeout_s": _either(5, 0.5), "bogus": JUNK}
BASE_CONFIG = CurationConfig().to_dict()
CONFIGS = _mutated(BASE_CONFIG, {
    "sample_rate": _either(48000, 44100, 16000),
    "segment_seconds": _either(12.0, 6, 2.5),
    "frame_seconds": _either(1.0, 0.5, 0.01),
    "snr_threshold_db": _either(20.0, -5),
    "min_bandwidth_hz": _either(20000.0, 0, 30000.0),
    "rho_max_db": _either(100.0, 80),
    "round_id": _either(0, 3, -1),
    "stft": st.one_of(JUNK, _mutated(BASE_CONFIG["stft"], {
        "window_len": _either(2048, 1024, 1), "hop": _either(0, 512, 4096),
        "window": _either("hann", "hamming"), "extra": JUNK})),
    "enhancer": st.one_of(JUNK, _mutated(BASE_CONFIG["enhancer"], {
        "kind": _either("identity", "spectral_gate", "oracle", "external", "wiener"),
        "gate_threshold_db": _either(15.0), "attenuation_db": _either(30.0, -1.0),
        "reference_dir": _either("clean"), **EXTERNAL})),
    "vad": st.one_of(JUNK, _mutated(BASE_CONFIG["vad"], {
        "kind": _either("energy", "always_on", "external", "webrtc"),
        "window_seconds": _either(0.02, 0), "relative_threshold_db": _either(15.0),
        "absolute_floor_db": _either(-60.0), **EXTERNAL})),
    "sample_rte": JUNK,
})


@settings(max_examples=400, deadline=None)
@given(data=CONFIGS)
def test_config_dicts_load_or_raise_config_error(data):
    try:
        cfg = CurationConfig.from_dict(data)
    except ConfigError:
        return
    again = CurationConfig.from_dict(json.loads(canonical_json(cfg.to_dict())))
    assert again.config_hash() == cfg.config_hash()


RECORDS = _mutated(json.loads(_record()), {
    "source_uri": _either("/tmp/b.wav"),
    "round_id": _either(0, 2, -1),
    "start_sample": _either(0, FS, 7),
    "end_sample": _either(2 * FS, 3 * FS, 10**400),
    "sample_rate": _either(FS, 0),
    "frame_rho": st.one_of(JUNK, st.lists(_either(50.0, 21, -1.0e9), max_size=3)),
    "frame_fc": st.one_of(JUNK, st.lists(_either(24000.0, 0, 30000.0), max_size=3)),
    "config_hash": _either("cd" * 32),
    "enhancer_id": _either('{"kind":"spectral_gate"}'),
    "extra": JUNK,
})
LINES = st.lists(
    st.one_of(
        RECORDS.map(lambda r: json.dumps(r).encode()),
        # surrogates encode to bytes that are not UTF-8
        st.text(alphabet=st.characters(blacklist_characters="\r\n"), max_size=20).map(
            lambda t: t.encode("utf-8", "surrogatepass")
        ),
        st.binary(max_size=20).filter(lambda b: b"\n" not in b and b"\r" not in b),
    ),
    max_size=6,
)


def _counted(line: bytes) -> bool:
    try:
        return bool(line.decode("utf-8").strip())
    except UnicodeDecodeError:
        return True


@settings(max_examples=300, deadline=None)
@given(lines=LINES)
def test_manifest_lines_load_or_are_skipped_and_counted(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        segments, skipped = load_manifest(path)
    assert len(segments) + skipped == sum(map(_counted, lines))
    for seg in segments:
        assert CuratedSegment.from_json(seg.to_json()) == seg
        assert math.isfinite(seg.duration_seconds)
