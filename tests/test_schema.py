"""The typed JSON form of configs and manifest records: every malformed
config is a ConfigError (CLI exit 2), every malformed record is skipped
and counted, and every text that loads encodes back to the same hash."""

import dataclasses
import json
import math
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_segment
from speechmine.cli import main
from speechmine.curation import ConfigError, CurationConfig, CuratedSegment, load_manifest
from speechmine.dsp import StftConfig
from speechmine.enhance import EnhancerSpec
from speechmine.schema import canonical_json, field_checks
from speechmine.vad import VadSpec

FS = 48000

# (config dict, field the error must name), each with its own id, so a new
# probe renames no other case. Each loaded, or failed with a TypeError or
# with a message about another field, before types were checked.
EXTERNAL_ENHANCER = {"kind": "external", "command": "run {input} {output}"}
EXTERNAL_VAD = {"kind": "external", "command": "vad {input} {output}"}
CONFIG_PROBES = [
    pytest.param({"segment_seconds": "12"}, "segment_seconds", id="segment_seconds"),
    pytest.param({"snr_threshold_db": None}, "snr_threshold_db", id="snr_threshold_db"),
    pytest.param({"min_bandwidth_hz": None}, "min_bandwidth_hz", id="min_bandwidth_hz"),
    pytest.param({"enhancer": {"kind": "spectral_gate", "gate_threshold_db": "x"}}, "gate_threshold_db",
                 id="enhancer.gate_threshold_db"),
    pytest.param({"enhancer": {"kind": "spectral_gate", "bogus": 1}}, "bogus", id="enhancer.bogus"),
    pytest.param({"vad": {"kind": "energy", "bogus": 1}}, "bogus", id="vad.bogus"),
    pytest.param({"round_id": 1.0}, "round_id", id="round_id"),
    pytest.param({"stft": {"window_len": 2048.0}}, "window_len", id="stft.window_len"),
    pytest.param({"sample_rate": True}, "sample_rate", id="sample_rate"),
    pytest.param({"vad": {"kind": "energy", "window_seconds": True}}, "window_seconds",
                 id="vad.window_seconds"),
    pytest.param({"rho_max_db": math.inf}, "rho_max_db", id="rho_max_db"),
    pytest.param({"enhancer": {"kind": "oracle", "reference_dir": 5}}, "reference_dir",
                 id="enhancer.reference_dir"),
    pytest.param({"enhancer": {"kind": "external", "command": ["run", "{input}", "{output}"]}}, "command",
                 id="enhancer.command"),
    pytest.param({"vad": {**EXTERNAL_VAD, "timeout_s": "60"}}, "timeout_s", id="vad.timeout_s-string"),
    pytest.param({"enhancer": {**EXTERNAL_ENHANCER, "timeout_s": 0.0}}, "timeout_s",
                 id="enhancer.timeout_s-zero"),
    pytest.param({"vad": {**EXTERNAL_VAD, "timeout_s": -1.0}}, "timeout_s", id="vad.timeout_s-negative"),
    # subprocess cannot wait longer than 2**31 - 1 ms: each of these failed every file
    pytest.param({"enhancer": {**EXTERNAL_ENHANCER, "timeout_s": 1e300}}, "timeout_s",
                 id="enhancer.timeout_s-1e300"),
    pytest.param({"enhancer": {**EXTERNAL_ENHANCER, "timeout_s": 2147484.0}}, "timeout_s",
                 id="enhancer.timeout_s-2147484"),
    pytest.param({"vad": {**EXTERNAL_VAD, "timeout_s": 1e300}}, "timeout_s", id="vad.timeout_s-1e300"),
    pytest.param({"vad": {**EXTERNAL_VAD, "timeout_s": 2147484.0}}, "timeout_s", id="vad.timeout_s-2147484"),
    # an integer beyond the float range, whose finiteness check overflowed
    pytest.param({"snr_threshold_db": 10**400}, "snr_threshold_db", id="snr_threshold_db-10**400"),
    # hop 1 holds for a window of 1, so only the window_len check rejects it
    pytest.param({"stft": {"window_len": 1, "hop": 1}}, "window_len", id="stft.window_len-1"),
    # its amplitude ratio overflows a float, which failed every file
    pytest.param({"enhancer": {"kind": "spectral_gate", "gate_threshold_db": 1e308}}, "gate_threshold_db",
                 id="enhancer.gate_threshold_db-1e308"),
    # an integer or -0.0 in a float field, each equal to a float written as another text
    pytest.param({"snr_threshold_db": 20}, "snr_threshold_db", id="snr_threshold_db-int"),
    pytest.param({"min_bandwidth_hz": -0.0}, "min_bandwidth_hz", id="min_bandwidth_hz-minus-0"),
    pytest.param({"vad": {**EXTERNAL_VAD, "timeout_s": 60}}, "timeout_s", id="vad.timeout_s-int"),
]


@pytest.mark.parametrize("data, field", CONFIG_PROBES)
def test_config_probe_is_a_config_error(data, field, tmp_path, capsys):
    with pytest.raises(ConfigError, match=field):
        CurationConfig.from_dict(data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    code = main(["curate", "--config", str(config), "--corpus", str(tmp_path / "*.wav"),
                 "--manifest", str(tmp_path / "m.jsonl")])
    assert code == 2
    assert field in capsys.readouterr().err


DEFAULT_HASH = "109f363a1e2abd73515818bfcaadb657a7daab9dc781dbd3215a9517719d890a"

# (construction, field the error must name): each built a config whose JSON
# does not decode or does not encode, or failed with another error
CONSTRUCTION_PROBES = [
    pytest.param(partial(CurationConfig, sample_rate=48e3), "sample_rate", id="sample_rate-48e3"),
    pytest.param(partial(CurationConfig, sample_rate=np.int64(48000)), "sample_rate",
                 id="sample_rate-int64"),
    pytest.param(partial(CurationConfig, round_id=True), "round_id", id="round_id-true"),
    pytest.param(partial(CurationConfig, rho_max_db=math.inf), "rho_max_db", id="rho_max_db-inf"),
    pytest.param(partial(VadSpec, window_seconds=math.nan), "window_seconds", id="vad.window_seconds-nan"),
    pytest.param(partial(VadSpec, relative_threshold_db=math.nan), "relative_threshold_db",
                 id="vad.relative_threshold_db-nan"),
    pytest.param(partial(CurationConfig, snr_threshold_db=np.float32(20)), "snr_threshold_db",
                 id="snr_threshold_db-float32"),
    pytest.param(partial(StftConfig, window_len=2048.5), "window_len", id="stft.window_len-2048.5"),
    pytest.param(partial(CurationConfig, stft={"window_len": 1024}), "stft", id="stft-dict"),
    pytest.param(partial(EnhancerSpec, ["spectral_gate"]), "kind", id="enhancer.kind-list"),
    # params that are not a dict, which raised AttributeError
    pytest.param(partial(EnhancerSpec, "identity", None), "params", id="enhancer.params-none"),
    pytest.param(partial(EnhancerSpec, "spectral_gate", [1]), "params", id="enhancer.params-list"),
    pytest.param(partial(VadSpec, params=[1]), "params", id="vad.params-list"),
    # each equals a config that JSON writes as another text, so hashed otherwise
    pytest.param(partial(CurationConfig, frame_seconds=1), "frame_seconds", id="frame_seconds-int"),
    pytest.param(partial(CurationConfig, min_bandwidth_hz=-0.0), "min_bandwidth_hz",
                 id="min_bandwidth_hz-minus-0"),
    pytest.param(partial(VadSpec, absolute_floor_db=np.float64(-0.0)), "absolute_floor_db",
                 id="vad.absolute_floor_db-float64-minus-0"),
    pytest.param(partial(EnhancerSpec, "spectral_gate", {"attenuation_db": 20}), "attenuation_db",
                 id="enhancer.attenuation_db-int"),
]


@pytest.mark.parametrize("build, field", CONSTRUCTION_PROBES)
def test_construction_probe_is_a_config_error(build, field):
    with pytest.raises(ConfigError, match=field):
        build()


@pytest.mark.parametrize("overrides, config_hash", [
    # a float subclass, which JSON writes as the float
    pytest.param({"snr_threshold_db": np.float64(20.0)}, DEFAULT_HASH, id="snr_threshold_db-float64"),
])
def test_accepted_construction_hashes_as_its_json(overrides, config_hash):
    cfg = CurationConfig(**overrides)
    assert cfg.config_hash() == config_hash
    assert CurationConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))).config_hash() == config_hash


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


def _line(**raw) -> str:
    """The text of ``_record()`` with each named field's value replaced by
    the given JSON text, or dropped if it is None; a name the record does
    not have is added."""
    fields = {k: json.dumps(v) for k, v in json.loads(_record()).items()}
    fields.update(raw)
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items() if v is not None) + "}"


I64 = 2**63
# (manifest line, whether it loads): the decisions of the decoder that read
# records before CuratedSegment.from_json checked them itself. The base
# record spans two frames of 48000 samples at 48 kHz.
RECORD_LINES = [
    pytest.param(_line(), True, id="base"),
    # a bool is not an integer or a number, though it would pass as one
    pytest.param(_line(round_id="true"), False, id="round_id-true"),
    pytest.param(_line(start_sample="false"), False, id="start_sample-false"),
    pytest.param(_line(frame_fc="[false, false]"), False, id="frame_fc-false"),
    # the signed 64-bit range
    pytest.param(_line(round_id=str(I64 - 1)), True, id="round_id-int64-max"),
    pytest.param(_line(round_id=str(I64)), False, id="round_id-int64-max-plus-1"),
    pytest.param(_line(round_id=str(-I64)), True, id="round_id-int64-min"),
    pytest.param(_line(round_id=str(-I64 - 1)), False, id="round_id-int64-min-minus-1"),
    pytest.param(_line(end_sample=str(I64 - 2)), True, id="end_sample-int64-even-max"),
    pytest.param(_line(end_sample=str(I64)), False, id="end_sample-2**63"),
    pytest.param(_line(sample_rate=str(I64 - 1)), True, id="sample_rate-int64-max"),
    pytest.param(_line(round_id="1.0"), False, id="round_id-float"),
    # integers beyond the float range
    pytest.param(_line(round_id=str(10**400)), False, id="round_id-10**400"),
    pytest.param(_line(frame_rho=f"[50.0, {10**400}]"), False, id="frame_rho-10**400"),
    pytest.param(_line(frame_fc=f"[{10**400}, 0]"), False, id="frame_fc-10**400"),
    pytest.param(_line(frame_rho=f"[{2**1024}, 50.0]"), False, id="frame_rho-2**1024"),
    pytest.param(_line(frame_rho=f"[{2**1000}, 50.0]"), True, id="frame_rho-2**1000"),
    # non-finite tokens, which json.loads accepts
    pytest.param(_line(frame_rho="[NaN, 50.0]"), False, id="frame_rho-NaN"),
    pytest.param(_line(frame_rho="[50.0, Infinity]"), False, id="frame_rho-Infinity"),
    pytest.param(_line(frame_fc="[-Infinity, 0]"), False, id="frame_fc-minus-Infinity"),
    pytest.param(_line(frame_rho="[1e400, 50.0]"), False, id="frame_rho-1e400"),
    pytest.param(_line(frame_fc="[24000.0, NaN]"), False, id="frame_fc-NaN"),
    pytest.param(_line(round_id="NaN"), False, id="round_id-NaN"),
    pytest.param(_line(frame_rho="[1e308, -1e308]"), True, id="frame_rho-1e308"),
    # integer-valued, empty and unequal frame lists
    pytest.param(_line(frame_rho="[50, 21]"), True, id="frame_rho-ints"),
    pytest.param(_line(frame_fc="[24000, 0]"), True, id="frame_fc-ints"),
    pytest.param(_line(frame_rho="[]", frame_fc="[]"), False, id="frames-empty"),
    pytest.param(_line(frame_rho="[50.0, 50.0, 50.0]"), False, id="frames-unequal"),
    pytest.param(_line(frame_rho="[[50.0], [50.0]]"), False, id="frame_rho-nested"),
    pytest.param(_line(frame_fc='"24000"'), False, id="frame_fc-string"),
    # the key set: json.loads keeps the last of duplicate keys
    pytest.param(_line(extra="1"), False, id="extra-key"),
    pytest.param(_line(config_hash=None), False, id="missing-key"),
    pytest.param(_line(config_hash=None, confighash='"ab"'), False, id="renamed-key"),
    pytest.param(_line()[:-1] + ', "round_id": 3}', True, id="duplicate-key"),
    pytest.param(_line()[:-1] + ', "round_id": "x"}', False, id="duplicate-key-bad-last"),
    pytest.param(_line(round_id='"x"')[:-1] + ', "round_id": 0}', True, id="duplicate-key-bad-first"),
    # not an object
    pytest.param("[]", False, id="list"),
    pytest.param('"record"', False, id="string"),
    pytest.param("5", False, id="number"),
    pytest.param("null", False, id="null"),
    pytest.param("{}", False, id="empty-object"),
    pytest.param(_line(source_uri="5"), False, id="source_uri-int"),
    pytest.param(_line(enhancer_id="null"), False, id="enhancer_id-null"),
    # record invariants
    pytest.param(_line(start_sample="100", end_sample=str(2 * FS + 100)), False, id="start-misaligned"),
    pytest.param(_line(start_sample=str(-2 * FS), end_sample="0"), False, id="start-negative"),
    pytest.param(_line(end_sample=str(2 * FS + 1)), False, id="span-not-divisible"),
    pytest.param(_line(end_sample="0"), False, id="span-empty"),
    pytest.param(_line(sample_rate="0"), False, id="rate-zero"),
    pytest.param(_line(frame_fc="[24000.5, 0]"), False, id="fc-above-nyquist"),
    pytest.param(_line(frame_fc="[-1.0, 0]"), False, id="fc-below-0"),
    pytest.param(_line(frame_fc="[-0.0, 24000]"), True, id="fc-minus-0"),
]


@pytest.mark.parametrize("line, accepted", RECORD_LINES)
def test_record_line_loads_or_is_skipped_as_locked(line, accepted, tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(line + "\n")
    segments, skipped = load_manifest(path)
    assert (len(segments), skipped) == ((1, 0) if accepted else (0, 1))
    if accepted:
        assert json.loads(segments[0].to_json()) == json.loads(line)


def test_record_text_is_stable():
    # field order is the manifest format: old manifests must hash the same
    assert make_segment(end_sample=2 * FS, frame_rho=[50.0, 21.5], frame_fc=[24000.0] * 2).to_json() == (
        '{"source_uri": "/tmp/a.wav", "round_id": 0, "start_sample": 0, "end_sample": 96000, '
        '"sample_rate": 48000, "frame_rho": [50.0, 21.5], "frame_fc": [24000.0, 24000.0], '
        '"config_hash": "' + "ab" * 32 + '", "enhancer_id": "{\\"kind\\":\\"identity\\"}"}'
    )


# for each annotation a record field has, values that are not of its JSON
# type: other JSON types, bools, and lists holding other than numbers
WRONG_TYPES = {
    "int": ["1", 1.0, True, None, [1]],
    "str": [1, 1.5, False, None, ["a"], {"a": "b"}],
    "list[float]": ["[50.0]", 50.0, None, [True, 50.0], [[50.0], 50.0], [None, 50.0], {"0": 50.0}],
}


@pytest.mark.parametrize("f", dataclasses.fields(CuratedSegment), ids=lambda f: f.name)
def test_record_field_of_a_wrong_json_type_is_skipped_and_counted(f, tmp_path, caplog):
    lines = [_record(**{f.name: value}) for value in WRONG_TYPES[f.type]]
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join([_record(), *lines]) + "\n")
    with caplog.at_level("WARNING"):
        segments, skipped = load_manifest(path)
    assert (len(segments), skipped) == (1, len(lines))
    assert sum(f"record.{f.name}: expected" in m for m in caplog.messages) == len(lines)


# one invariant violation each, of a record whose field types all hold
INVARIANT_VIOLATIONS = [
    pytest.param({"sample_rate": 0}, id="rate-zero"),
    pytest.param({"frame_rho": [50.0] * 3}, id="frames-unequal"),
    pytest.param({"frame_rho": [], "frame_fc": []}, id="frames-empty"),
    pytest.param({"start_sample": -2 * FS, "end_sample": 0}, id="start-negative"),
    pytest.param({"end_sample": 2 * FS + 1}, id="span-not-divisible"),
    pytest.param({"start_sample": 100, "end_sample": 2 * FS + 100}, id="start-misaligned"),
    pytest.param({"frame_rho": [50.0, math.nan]}, id="rho-NaN"),
    pytest.param({"frame_rho": [10**400, 50.0]}, id="rho-10**400"),
    pytest.param({"frame_fc": [24000.5, 0.0]}, id="fc-above-nyquist"),
]


@pytest.mark.parametrize("overrides", INVARIANT_VIOLATIONS)
def test_construction_and_from_json_reject_an_invariant_alike(overrides):
    fields = {**json.loads(_record()), **overrides}
    with pytest.raises(ValueError) as built:
        CuratedSegment(**fields)
    with pytest.raises(ValueError) as read:
        CuratedSegment.from_json(json.dumps(fields))
    assert type(read.value) is ValueError
    assert str(read.value) == str(built.value)


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


# values of each JSON type, of the types numpy gives, and some a config
# field takes
SCALARS = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(),
    st.sampled_from([48e3, 44100.0, 2048.0, 512.0, 12.0, 1.0, 0.5, 20.0, -60.0, 0.02]),
    st.sampled_from([48000, 16000, 2048, 1024, 512, 12, 1, 0]),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.text(max_size=3),
    st.sampled_from(["hann", "energy", "always_on", "identity", "spectral_gate"]),
)
CONFIG_PARTS = {"config": CurationConfig, "stft": StftConfig, "vad": VadSpec, "enhancer": EnhancerSpec}
SCALAR_FIELDS = [(part, name) for part, cls in CONFIG_PARTS.items()
                 for name, ok, *_ in field_checks(cls) if ok]


@st.composite
def scalar_overrides(draw):
    """Up to three scalar fields of the config and its parts, each drawn
    from SCALARS."""
    out = {part: {} for part in CONFIG_PARTS}
    for part, name in draw(st.lists(st.sampled_from(SCALAR_FIELDS), max_size=3, unique=True)):
        out[part][name] = draw(SCALARS)
    return out


def _overflow(**config):
    return {"config": config, "stft": {}, "vad": {}, "enhancer": {}}


@settings(max_examples=500, deadline=None)
# float64 arithmetic that overflows warns, where float arithmetic gives inf
@example(over=_overflow(frame_seconds=np.float64(1e308)))
@example(over=_overflow(segment_seconds=np.float64(1e308), frame_seconds=0.5))
@given(over=scalar_overrides())
def test_config_built_from_any_scalars_round_trips_or_names_a_field(over):
    try:
        cfg = CurationConfig(**over["config"], stft=StftConfig(**over["stft"]), vad=VadSpec(**over["vad"]),
                             enhancer=EnhancerSpec(**{"kind": "spectral_gate", **over["enhancer"]}))
    except ValueError as exc:
        assert any(name in str(exc) for _, name in SCALAR_FIELDS), exc
        return
    again = CurationConfig.from_dict(json.loads(json.dumps(cfg.to_dict(), allow_nan=False)))
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def _spellings(v):
    """v, then the values of other types or signs that equal it."""
    if type(v) not in (int, float):
        return [v]
    f = float(v)
    others = [f, np.float64(f), -f]  # -f equals v only at zero
    if f.is_integer():
        others.append(int(f))
    return [v, *(w for w in others if w == v)]


@st.composite
def respelled_overrides(draw):
    """Scalar overrides with spectral-gate parameters, and the same overrides
    with each value replaced by one that equals it."""
    over = draw(scalar_overrides())
    over["gate"] = draw(st.dictionaries(st.sampled_from(["gate_threshold_db", "attenuation_db"]), SCALARS,
                                        max_size=2))
    again = {part: {name: draw(st.sampled_from(_spellings(v))) for name, v in values.items()}
             for part, values in over.items()}
    return over, again


def _built(over):
    return CurationConfig(**over["config"], stft=StftConfig(**over["stft"]), vad=VadSpec(**over["vad"]),
                          enhancer=EnhancerSpec(**{"kind": "spectral_gate", **over["enhancer"]},
                                                params=over["gate"]))


def _respelled(**config):
    return tuple({"config": c, "stft": {}, "vad": {}, "enhancer": {}, "gate": {}} for c in (config, {
        name: {1.0: 1, 0.0: -0.0}[v] for name, v in config.items()}))


@settings(max_examples=500, deadline=None)
@example(pair=_respelled(frame_seconds=1.0))
@example(pair=_respelled(min_bandwidth_hz=0.0))
@given(pair=respelled_overrides())
def test_configs_that_build_equal_hash_equally(pair):
    try:
        a, b = map(_built, pair)
    except ValueError:
        return
    if a == b:
        assert a.config_hash() == b.config_hash()


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
