"""Curation engine tests: scoring, gates, segment extraction, rounds,
manifests and A/B export."""

import dataclasses
import hashlib
import json
import math
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    SLACK,
    brickwall_lowpass,
    make_segment,
    reference_istft,
    reference_rho_bin_counts,
    reference_stft,
    traced_peak,
    white_noise,
)
from speechmine import curation, dsp
from speechmine.audio_io import AudioBuffer, frame_matrix, read_wav, write_wav
from speechmine.cli import main
from speechmine.curation import (
    DEFAULT_RHO_BIN_WIDTH_DB,
    ConfigError,
    CurationConfig,
    CuratedSegment,
    ManifestReader,
    append_manifest,
    bandwidth_gate,
    curate_file,
    export_ab_pairs,
    extract_segments,
    filter_manifest,
    hash_config,
    load_config,
    load_manifest,
    load_round_configs,
    rho_hat,
    round_totals,
    run_round,
    score_file,
    snr_gate,
)
from speechmine.dsp import StftConfig, estimate_cutoff, rms_db
from speechmine.enhance import EnhancerSpec, enhance
from speechmine.evalgen import NoiseSpec, inject_noise, synth_clean
from speechmine.schema import all_finite, canonical_json, decode
from speechmine.vad import VadSpec, detect

FS = 48000
DATA = Path(__file__).parent / "data"


# every field set to a value other than its default
ALL_FIELDS_CONFIG = CurationConfig(
    sample_rate=44100, segment_seconds=6.0, frame_seconds=0.5, snr_threshold_db=25.0,
    min_bandwidth_hz=18000.0, rho_max_db=90.0, round_id=2,
    stft=StftConfig(window_len=1024, hop=256, window="hann"),
    enhancer=EnhancerSpec("spectral_gate", {"gate_threshold_db": 15.0, "attenuation_db": 30.0}),
    vad=VadSpec("energy", window_seconds=0.03, relative_threshold_db=12.0, absolute_floor_db=-55.0),
)


class TestRhoHat:
    def test_forty_db_example(self):
        xhat = np.full(1000, 0.1)
        x = xhat + 0.001
        assert rho_hat(x, xhat, np.ones(1000)) == pytest.approx(40.0, abs=1e-9)

    def test_vad_minority_scores_minus_infinity(self):
        rng = np.random.default_rng(0)
        v = np.zeros(1000)
        v[:400] = 1  # mean 0.4
        assert rho_hat(rng.standard_normal(1000), rng.standard_normal(1000), v) == -np.inf

    def test_zero_residual_clamps_to_rho_max(self):
        x = np.full(1000, 0.25)
        assert rho_hat(x, x.copy(), np.ones(1000)) == 100.0

    def test_custom_rho_max(self):
        x = np.full(1000, 0.25)
        assert rho_hat(x, x.copy(), np.ones(1000), rho_max_db=80.0) == 80.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            rho_hat(np.zeros(10), np.zeros(9), np.zeros(10))

    def test_exact_half_voiced_counts_as_speech(self):
        v = np.zeros(1000)
        v[:500] = 1
        assert rho_hat(np.full(1000, 0.2), np.full(1000, 0.1), v) != -np.inf

    @pytest.mark.parametrize("voiced", [0, 1, 499, 500, 501, 999, 1000])
    def test_uint8_mask_scores_as_its_float64_copy(self, voiced):
        rng = np.random.default_rng(voiced)
        x, xhat = rng.standard_normal(1000), rng.standard_normal(1000)
        v = np.zeros(1000, dtype=np.uint8)
        v[:voiced] = 1
        rho = rho_hat(x, xhat, v)
        assert (rho == -np.inf) == (voiced < 500)
        assert rho == rho_hat(x, xhat, v.astype(np.float64))

    def test_holds_no_copy_of_the_mask(self):
        # the residual and its square are the only frame-sized buffers
        n = 48000
        rng = np.random.default_rng(0)
        x, xhat = rng.standard_normal(n), rng.standard_normal(n)
        v = np.ones(n, dtype=np.uint8)
        assert traced_peak(lambda: rho_hat(x, xhat, v)) <= 2 * 8 * n + SLACK


class TestGates:
    def test_snr_gate_strict(self):
        rho = np.array([25.0, 20.0, 19.9, -np.inf])
        assert snr_gate(rho, 20.0).tolist() == [1, 0, 0, 0]

    def test_snr_gate_all_max(self):
        assert snr_gate(np.full(5, 100.0), 20.0).all()

    def test_snr_gate_empty(self):
        assert snr_gate(np.array([]), 20.0).size == 0

    def test_gates_return_their_comparisons_as_bool(self):
        assert snr_gate(np.array([25.0, 5.0]), 20.0).dtype == bool
        accept, cutoffs = bandwidth_gate(np.zeros((2, 2048)), FS, 0.0, StftConfig())
        assert (accept.dtype, cutoffs.dtype) == (bool, np.float64)

    def test_bandwidth_gate_full_band_accepts(self):
        rng = np.random.default_rng(1)
        frames = rng.standard_normal((3, FS)) * 0.1
        accept, cutoffs = bandwidth_gate(frames, FS, 20000.0, StftConfig())
        assert accept.all()
        assert (cutoffs >= 20000).all()

    def test_bandwidth_gate_lowpassed_rejects(self):
        rng = np.random.default_rng(2)
        frames = np.stack([brickwall_lowpass(rng.standard_normal(FS), 4000, FS) for _ in range(3)])
        accept, cutoffs = bandwidth_gate(frames, FS, 20000.0, StftConfig())
        assert not accept.any()
        assert (cutoffs < 5000).all()

    def test_bandwidth_gate_zero_threshold_accepts_nonsilent(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((2, FS))
        accept, _ = bandwidth_gate(frames, FS, 0.0, StftConfig())
        assert accept.all()


def brute_force_tiler(accept, k):
    """Slide a window one frame at a time; emit any all-ones window and jump
    past it. Equivalent to left-aligned tiling of maximal runs, but built
    from different machinery."""
    accept = np.asarray(accept, dtype=bool)
    out = []
    i = 0
    while i + k <= accept.size:
        if accept[i : i + k].all():
            out.append((i, i + k))
            i += k
        else:
            i += 1
    return out


class TestExtractSegments:
    def test_twelve_ones(self):
        assert extract_segments(np.ones(12), 12) == [(0, 12)]

    def test_greedy_blocks_with_tail_dropped(self):
        assert extract_segments(np.array([1, 1, 1, 1, 1, 0]), 2) == [(0, 2), (2, 4)]

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 500))
            accept = rng.random(n) < rng.uniform(0.2, 0.95)
            k = int(rng.choice([2, 12]))
            assert extract_segments(accept, k) == brute_force_tiler(accept, k)


class TestCuratedSegment:
    def test_valid_passes(self):
        make_segment()

    def test_misaligned_start_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            make_segment(start_sample=100, end_sample=12 * FS + 100)

    def test_span_not_divisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            make_segment(end_sample=12 * FS + 7)

    def test_fc_beyond_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            make_segment(frame_fc=[25000.0] * 12)

    def test_rho_fc_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            make_segment(frame_fc=[24000.0] * 11)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_segment(start_sample=-12 * FS, end_sample=0)

    def test_validate_against_config(self):
        cfg = CurationConfig()
        make_segment(config_hash=cfg.config_hash()).validate_against(cfg)
        with pytest.raises(ValueError, match="SNR threshold"):
            make_segment(frame_rho=[50.0] * 11 + [19.0]).validate_against(cfg)
        with pytest.raises(ValueError, match="bandwidth"):
            make_segment(frame_fc=[24000.0] * 11 + [12000.0]).validate_against(cfg)
        with pytest.raises(ValueError, match="configured duration"):
            make_segment(end_sample=24 * FS).validate_against(cfg)  # 12 frames of 2 s


class TestManifest:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        segments = [
            make_segment(
                source_uri=f"/tmp/file_{i}.wav",
                round_id=i % 3,
                start_sample=i * 12 * FS,
                end_sample=(i + 1) * 12 * FS,
                frame_rho=list(rng.uniform(21, 99, 12)),
                frame_fc=list(rng.uniform(20000, 24000, 12)),
            )
            for i in range(20)
        ]
        path = tmp_path / "m.jsonl"
        append_manifest(path, segments)
        loaded, skipped = load_manifest(path)
        assert skipped == 0
        assert loaded == segments  # dataclass equality covers every field bit-exactly

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        append_manifest(path, [make_segment()])
        with path.open("a") as fh:
            fh.write("not json at all\n")
            fh.write('{"source_uri": "missing fields"}\n')
        loaded, skipped = load_manifest(path)
        assert len(loaded) == 1
        assert skipped == 2

    def test_filter_min_rho(self, tmp_path):
        path = tmp_path / "m.jsonl"
        append_manifest(path, [make_segment(frame_rho=[50.0] * 12)])
        assert len(filter_manifest(load_manifest(path)[0], min_rho=45.0)) == 1
        assert len(filter_manifest(load_manifest(path)[0], min_rho=55.0)) == 0

    def test_filter_max_rho_keeps_boundary(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rho = [28.0] + [26.0] * 11
        append_manifest(path, [make_segment(frame_rho=rho)])
        assert len(filter_manifest(load_manifest(path)[0], max_rho=30.0)) == 1
        assert len(filter_manifest(load_manifest(path)[0], max_rho=27.0)) == 0

    def test_filter_matches_linear_scan(self, tmp_path):
        rng = np.random.default_rng(6)
        segments = [
            make_segment(
                start_sample=i * 12 * FS,
                end_sample=(i + 1) * 12 * FS,
                frame_rho=list(rng.uniform(21, 80, 12)),
            )
            for i in range(50)
        ]
        path = tmp_path / "m.jsonl"
        append_manifest(path, segments)
        for min_rho, max_rho in [(30.0, None), (None, 60.0), (25.0, 70.0)]:
            got = filter_manifest(load_manifest(path)[0], min_rho=min_rho, max_rho=max_rho)
            want = [
                s
                for s in segments
                if (min_rho is None or min(s.frame_rho) >= min_rho)
                and (max_rho is None or max(s.frame_rho) <= max_rho)
            ]
            assert got == want


# rho values on and around the bounds below, and the smallest of each sign
RHO = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 30.0, 50.0, 30, 50, 29, 51]),
    st.floats(-100.0, 100.0),
    st.integers(-100, 100),
)
BOUND = st.one_of(st.none(), st.sampled_from([-math.inf, math.inf, 0.0, -0.0, 5e-324, 30.0, 50.0]),
                  st.floats(-100.0, 100.0))
KEY = '"frame_rho": ['
SPELLINGS = {"standard": KEY, "compact": '"frame_rho":[', "spaced": '"frame_rho" : [',
             "escaped": '"frame\\u005frho": [', "escaped-first": '"\\u0066rame_rho": ['}
# frame_rho values as raw text, and the values written where json.loads
# fails on the line; it reads NaN and Infinity
RHO_TEXTS = {"[NaN]": None, "[1e400]": None, "[-1e400]": None, "[Infinity, 1.0]": None,
             "[-Infinity]": None, "[1.0, NaN, 99.0]": None, "[" + "9" * 400 + "]": None,
             "[-" + "9" * 400 + "]": None, "[true]": None, "[[1.0], 99.0]": None, "[]": None,
             '["60"]': None, "[99.0,": [99.0], "[1.0] ]": [1.0]}
SPELLING = st.sampled_from(list(SPELLINGS))
LINE_KIND = st.one_of(
    st.sampled_from(["record", "compact", "uri-holds-key", "uri-ends-in-name", "non-utf8", "truncated",
                     "blank"]),
    st.sampled_from([f"rho:{t}" for t in RHO_TEXTS]),
    st.tuples(SPELLING, SPELLING).map(lambda ab: "dup:{}:{}".format(*ab)),
    SPELLING.map(lambda a: f"only:{a}"),
)


def _manifest_line(kind, rho, other):
    """One manifest line of ``kind`` for a record of ``len(rho)`` frames,
    and the frame_rho values it holds: those ``json.loads`` keeps, or, for
    a line that does not parse, those written."""
    n = len(rho)
    seg = make_segment(start_sample=0, end_sample=n * 1000, frame_rho=[0.0] * n, frame_fc=[100.0] * n)
    rec = dict(vars(seg), frame_rho=rho)
    line = json.dumps(rec)
    if kind == "compact":
        line = json.dumps(rec, separators=(",", ":"))
    elif kind in ("uri-holds-key", "uri-ends-in-name"):
        uri = 'x"frame_rho": [1' if kind == "uri-holds-key" else 'x"frame_rho'
        line = json.dumps(dict(rec, source_uri=uri))
    elif kind == "non-utf8":
        return line.encode().replace(b"/tmp", b"/t\xffmp") + b"\n", rho
    elif kind == "truncated":
        line = line[:-3]
    elif kind == "blank":
        return b"  \n", None
    elif kind.startswith("rho:"):
        text = kind[4:]
        line = line.replace(KEY + json.dumps(rho)[1:], KEY + text[1:])
        rho = RHO_TEXTS[text] or json.loads(text)
    elif kind.startswith("dup:"):  # the later key's value is the one json.loads keeps
        first, second = kind.split(":")[1:]
        decoy = SPELLINGS[first] + json.dumps(other)[1:]
        line = "{" + decoy + ", " + line[1:].replace(KEY, SPELLINGS[second])
    elif kind.startswith("only:"):
        line = line.replace(KEY, SPELLINGS[kind[5:]])
    return line.encode() + b"\n", rho


def _out_of_bounds(values, lo, hi):
    """Whether a frame_rho holds a finite number below lo or above hi."""
    return isinstance(values, list) and any(
        type(v) in (int, float) and all_finite([v])
        and ((lo is not None and v < lo) or (hi is not None and v > hi))
        for v in values
    )


def _malformed(raw):
    """Whether a full read of the manifest line skips and counts it."""
    try:
        CuratedSegment.from_json(raw.decode("utf-8"))
    except (ValueError, TypeError, RecursionError):
        return not raw.isspace()
    return False


class TestBoundedRead:
    """ManifestReader with export-ab's bounds passes over lines it proves out
    of bounds without decoding them, and selects what a full read selects."""

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.tuples(LINE_KIND, st.lists(RHO, min_size=1, max_size=3),
                                 st.lists(RHO, min_size=1, max_size=3)), max_size=6),
        lo=BOUND,
        hi=BOUND,
    )
    # the key written twice: json.loads keeps the second value, however the
    # second key is spelled, so the scan must not judge the line by the first
    @example(lines=[(f"dup:standard:{b}", [40.0], [60.0]) for b in SPELLINGS], lo=None, hi=50.0)
    @example(lines=[(f"dup:standard:{b}", [40.0], [20.0]) for b in SPELLINGS], lo=30.0, hi=None)
    # values that are not finite leave the line to the decoder, which counts it
    @example(lines=[(f"rho:{t}", [1.0], [1.0]) for t in RHO_TEXTS], lo=None, hi=50.0)
    def test_selects_what_a_full_read_selects(self, tmp_path_factory, lines, lo, hi):
        built = [_manifest_line(*line) for line in lines]
        path = tmp_path_factory.getbasetemp() / "bounded.jsonl"
        path.write_bytes(b"".join(raw for raw, _ in built))
        reader = ManifestReader(path, lo, hi)
        got = filter_manifest(reader, lo, hi)
        full, skipped = load_manifest(path)
        assert [vars(s) for s in got] == [vars(s) for s in filter_manifest(full, lo, hi)]
        # only a malformed line whose frame_rho holds a finite value out of
        # bounds may go uncounted
        provable = sum(_out_of_bounds(rho, lo, hi) for raw, rho in built if _malformed(raw))
        assert skipped - provable <= reader.skipped <= skipped

    def test_line_torn_inside_frame_rho_is_decoded_warned_about_and_counted(self, tmp_path, caplog):
        # no "]" closes its values, so the scan cannot prove the line out of bounds
        raw, _ = _manifest_line("record", [50.0, 50.0], [0.0])
        path = tmp_path / "m.jsonl"
        path.write_bytes(raw + raw[: raw.index(b"50.0") + 3] + b"\n")
        reader = ManifestReader(path, 0.0, 100.0)
        with caplog.at_level("WARNING"):
            assert len(list(reader)) == 1
        assert reader.skipped == 1
        assert sum(":2: skipping malformed record" in m for m in caplog.messages) == 1


class TestConfig:
    def test_defaults_follow_published_operating_point(self):
        cfg = CurationConfig()
        assert cfg.segment_seconds == 12.0
        assert cfg.frame_seconds == 1.0
        assert cfg.snr_threshold_db == 20.0
        assert cfg.min_bandwidth_hz == 20000.0

    def test_negative_bandwidth_names_field(self):
        with pytest.raises(ConfigError, match="min_bandwidth_hz"):
            CurationConfig(min_bandwidth_hz=-1.0)

    def test_segment_not_multiple_of_frame(self):
        with pytest.raises(ConfigError, match="segment_seconds"):
            CurationConfig(segment_seconds=12.5)

    def test_frame_shorter_than_window(self):
        with pytest.raises(ConfigError, match="analysis window"):
            CurationConfig(frame_seconds=0.025)

    def test_nan_snr_threshold_rejected(self):
        with pytest.raises(ConfigError, match="snr_threshold_db"):
            CurationConfig(snr_threshold_db=float("nan"))

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CurationConfig().segment_seconds = 12.5

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            CurationConfig.from_dict({"sample_rte": 48000})

    def test_missing_field_defaults_and_logs(self, caplog):
        with caplog.at_level("INFO"):
            cfg = CurationConfig.from_dict({"sample_rate": 48000})
        assert cfg.snr_threshold_db == 20.0
        assert "snr_threshold_db" in caplog.text

    def test_load_config_round_trips_hash(self, tmp_path):
        cfg = CurationConfig(enhancer=EnhancerSpec("identity"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))
        again = load_config(p)
        assert again.config_hash() == cfg.config_hash()

    def test_hash_changes_with_any_field(self):
        base = CurationConfig().config_hash()
        assert CurationConfig(snr_threshold_db=21.0).config_hash() != base
        assert CurationConfig(vad=VadSpec(relative_threshold_db=16.0)).config_hash() != base

    def test_default_config_hash_is_golden(self):
        # manifests stamped by earlier versions must still match the default
        # config; a vad section without its thresholds takes the defaults
        golden = "109f363a1e2abd73515818bfcaadb657a7daab9dc781dbd3215a9517719d890a"
        assert CurationConfig().config_hash() == golden
        assert CurationConfig.from_dict({"vad": {"kind": "energy"}}).config_hash() == golden

    def test_all_fields_config_hash_is_golden(self):
        cfg = ALL_FIELDS_CONFIG
        golden = "095c55f1097e12f80db47012a0b7199e291a772dc3ed028d0e3c6312dce0facc"
        assert cfg.config_hash() == golden
        assert CurationConfig.from_dict(json.loads(canonical_json(cfg.to_dict()))).config_hash() == golden

    def test_bad_json_reported(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)


class TestCurateFile:
    def test_sample_rate_mismatch_is_hard_error(self):
        cfg = CurationConfig(enhancer=EnhancerSpec("identity"))
        with pytest.raises(ValueError, match="resampling"):
            curate_file(AudioBuffer(np.zeros(44100), 44100), cfg)

    def test_shorter_than_frame_yields_nothing(self):
        cfg = CurationConfig(enhancer=EnhancerSpec("identity"))
        segments = curate_file(AudioBuffer(np.zeros(FS // 2), FS), cfg)
        assert segments == []

    def test_identity_with_always_on_accepts_every_full_band_frame(self):
        # the documented degenerate case: zero residual means the score
        # clamps at its maximum, so any full-bandwidth frame passes
        cfg = CurationConfig(
            enhancer=EnhancerSpec("identity"), vad=VadSpec(kind="always_on")
        )
        buf = synth_clean(15.0, FS, seed=21)
        segments = curate_file(buf, cfg)
        assert [(s.start_sample, s.end_sample) for s in segments] == [(0, 12 * FS)]
        assert all(r == 100.0 for r in segments[0].frame_rho)

    def test_eleven_seconds_insufficient_for_twelve_second_segment(self):
        cfg = CurationConfig(enhancer=EnhancerSpec("identity"), vad=VadSpec(kind="always_on"))
        segments = curate_file(synth_clean(11.0, FS, seed=22), cfg)
        assert segments == []


class TestScoreFile:
    def test_oracle_scores_each_frame_at_its_true_snr(self, tmp_path):
        """The oracle enhancer returns the clean signal, so under the
        always_on VAD a frame's SNR estimate is its true SNR, the clean
        level minus the noise level, capped at rho_max_db."""
        clean = synth_clean(6.0, FS, seed=52)
        levels = frame_matrix(clean.samples, FS).std(axis=1)
        noise = np.concatenate([white_noise(FS, lvl * 10 ** (-snr / 20), np.random.default_rng(i))
                                for i, (lvl, snr) in enumerate(zip(levels, [10, 20, 35, 45, 60, 80]))])
        (tmp_path / "ref").mkdir()
        write_wav(tmp_path / "ref" / "mix.wav", clean)
        write_wav(tmp_path / "mix.wav", AudioBuffer(clean.samples + noise, FS))
        cfg = CurationConfig(rho_max_db=50.0, vad=VadSpec("always_on"),
                             enhancer=EnhancerSpec("oracle", {"reference_dir": str(tmp_path / "ref")}))
        noisy, clean = read_wav(tmp_path / "mix.wav"), read_wav(tmp_path / "ref" / "mix.wav")
        rho, _ = score_file(noisy, cfg)
        x, s = frame_matrix(noisy.samples, FS), frame_matrix(clean.samples, FS)
        true_snr = rms_db(s) - rms_db(x - s)
        assert rho.shape == (6,) and (true_snr > cfg.rho_max_db).sum() == 2
        assert np.all(np.abs(rho - np.minimum(true_snr, cfg.rho_max_db)) <= 1e-9), (rho, true_snr)


def frame_scores(buf, enhanced, cfg):
    """Per-frame SNR estimate and cutoff of every whole frame, scored on
    ``enhanced`` as curate_file scores them."""
    mask = detect(enhanced, cfg.vad)
    x, xhat, v = (frame_matrix(a, cfg.frame_len) for a in (buf.samples, enhanced.samples, mask))
    rho = np.array([rho_hat(*frames, cfg.rho_max_db) for frames in zip(x, xhat, v)])
    fc = np.array([estimate_cutoff(f, cfg.sample_rate, cfg.stft) for f in xhat])
    return rho, fc


def unpadded_gate(buf, cfg):
    """The spectral gate as it was before edge padding: floor over the
    frames of the signal itself, the overlap-add normalised where the first
    and last frames alone cover the edges, and the uncovered tail zero."""
    values = reference_stft(buf.samples, cfg)
    mag = np.abs(values)
    gate = mag < np.percentile(mag, 10, axis=1, keepdims=True) * 10.0  # default 20 dB
    values = np.where(gate, values * 0.01, values)  # default 40 dB
    y = reference_istft(values, cfg)
    return AudioBuffer(np.concatenate([y, np.zeros(len(buf) - y.size)]), buf.sample_rate)


class TestEdgeFrames:
    """A frame's decision does not depend on where it sits in the file: the
    spectral gate pads the signal so its edges are reconstructed like its
    interior."""

    CFG = CurationConfig()

    def test_speech_at_sample_zero_scores_like_the_interior(self):
        clean = synth_clean(8.0, FS, seed=0).samples
        onset = int(np.argmax(np.abs(clean) > 0.1 * np.abs(clean).max()))  # the first pulse
        noisy, _ = inject_noise(AudioBuffer(clean[onset:], FS), NoiseSpec(snr_clip=(30.0, 30.5), seed=3))
        enhanced = enhance(noisy, self.CFG.enhancer, self.CFG.stft)
        rho, _ = frame_scores(noisy, enhanced, self.CFG)
        assert abs(rho[0] - np.median(rho[1:])) < 3.0  # was 0 dB against about 24

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("copies", [2, 3, 6])
    def test_tiled_block_accepted_on_every_frame(self, seed, copies):
        # 0.6 s of speech, 0.4 s of pause, noise 40 dB below the speech
        block = np.concatenate([synth_clean(0.6, FS, seed=seed).samples, np.zeros(int(0.4 * FS))])
        block += white_noise(FS, 10 ** (-40 / 20) * np.sqrt(np.mean(block**2)), np.random.default_rng(seed))
        buf = AudioBuffer(np.tile(block, copies), FS)
        rho, fc = frame_scores(buf, enhance(buf, self.CFG.enhancer, self.CFG.stft), self.CFG)
        accept = (rho > self.CFG.snr_threshold_db) & (fc >= self.CFG.min_bandwidth_hz)
        assert accept.all(), rho

    @pytest.mark.parametrize("seconds", [6.0, 9.5])
    def test_only_the_edge_frames_score_differently(self, seconds):
        noisy, _ = inject_noise(synth_clean(seconds, FS, seed=5), NoiseSpec(snr_clip=(25.0, 25.5), seed=6))
        rho, fc = frame_scores(noisy, enhance(noisy, self.CFG.enhancer, self.CFG.stft), self.CFG)
        old_rho, old_fc = frame_scores(noisy, unpadded_gate(noisy, self.CFG.stft), self.CFG)
        assert np.array_equal(rho[1:-1], old_rho[1:-1])
        assert np.array_equal(fc[1:-1], old_fc[1:-1])


class TestFunnel:
    """curate_file scores the bandwidth only on runs of SNR-passing frames
    at least one segment long, and curates what scoring every frame would."""

    CFG = CurationConfig(segment_seconds=4.0)

    @staticmethod
    def noisy_file(seconds, silent_frames):
        """Speech over noise 35 dB below it, with the speech cut out of the
        frames ``silent_frames``, so the VAD fails them."""
        clean = synth_clean(seconds, FS, seed=8).samples
        noise = white_noise(clean.size, 10 ** (-35 / 20) * np.sqrt(np.mean(clean**2)),
                            np.random.default_rng(9))
        for f in silent_frames:
            clean[f * FS : (f + 1) * FS] = 0.0
        return AudioBuffer(clean + noise, FS)

    @staticmethod
    def frames_in_long_runs(passing, k):
        """How many frames lie in a run of passing frames at least k long."""
        total = run = 0
        for flag in [*passing, False]:
            if flag:
                run += 1
            else:
                total += run if run >= k else 0
                run = 0
        return total

    def scored_calls(self, monkeypatch, buf, cfg):
        calls = []
        estimate = dsp.estimate_cutoff
        monkeypatch.setattr(dsp, "estimate_cutoff", lambda *a: calls.append(1) or estimate(*a))
        segments = curate_file(buf, cfg)
        return len(calls), segments

    def test_cutoff_scored_only_in_runs_a_segment_long(self, monkeypatch):
        # SNR runs of 3, 2, 4 and 8 frames; with 4-frame segments the first two are too short
        buf = self.noisy_file(20.0, [3, 6, 11])
        rho, _ = frame_scores(buf, enhance(buf, self.CFG.enhancer, self.CFG.stft), self.CFG)
        passing = rho > self.CFG.snr_threshold_db
        expected = self.frames_in_long_runs(passing, self.CFG.frames_per_segment)
        assert 0 < expected < passing.sum()
        calls, segments = self.scored_calls(monkeypatch, buf, self.CFG)
        assert calls == expected
        assert len(segments) == 3

    def test_no_run_a_segment_long_scores_nothing(self, monkeypatch):
        buf = self.noisy_file(20.0, [3, 6, 13])
        cfg = dataclasses.replace(self.CFG, segment_seconds=7.0)
        rho, _ = frame_scores(buf, enhance(buf, cfg.enhancer, cfg.stft), cfg)
        assert (rho > cfg.snr_threshold_db).sum() > 0
        assert self.scored_calls(monkeypatch, buf, cfg) == (0, [])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_and_cutoffs_equal_scoring_every_frame(self, data):
        k = data.draw(st.integers(1, 5), label="k")
        n = data.draw(st.integers(0, 30), label="frames")
        s = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="s"), bool)
        b = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="b"), bool)
        rate = 8000
        cfg = CurationConfig(sample_rate=rate, segment_seconds=float(k), min_bandwidth_hz=2000.0,
                             enhancer=EnhancerSpec("identity"), vad=VadSpec("always_on"))
        rho = np.where(s, 20.0 + np.arange(1, n + 1), np.where(np.arange(n) % 2, -np.inf, 20.0))
        fc = np.where(b, 2000.0 + np.arange(n), 1999.0 - np.arange(n))
        # frame i holds the value i + 1 throughout, so a frame names its own row
        buf = AudioBuffer(np.repeat(np.arange(1.0, n + 1), rate), rate)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curation, "rho_hat", lambda x, xhat, v, rho_max: rho[int(x[0]) - 1])
            mp.setattr(dsp, "estimate_cutoff", lambda frame, sr, stft_cfg: fc[int(frame[0]) - 1])
            got = curate_file(buf, cfg)
        want = extract_segments(s & b, k)
        assert [(g.start_sample // rate, g.end_sample // rate) for g in got] == want
        assert [g.frame_fc for g in got] == [fc[a:e].tolist() for a, e in want]
        assert [g.frame_rho for g in got] == [rho[a:e].tolist() for a, e in want]


class TestRunRound:
    def _write_corpus(self, tmp_path, count=3, seconds=13.0):
        paths = []
        for i in range(count):
            p = tmp_path / f"f{i}.wav"
            write_wav(p, synth_clean(seconds, FS, seed=30 + i))
            paths.append(p)
        return paths

    def _config(self):
        return CurationConfig(enhancer=EnhancerSpec("identity"), vad=VadSpec(kind="always_on"))

    def test_segments_and_report(self, tmp_path):
        corpus = self._write_corpus(tmp_path)
        manifest = tmp_path / "m.jsonl"
        report = run_round(corpus, self._config(), manifest)
        assert report.files_processed == 3
        assert report.failures == []
        assert report.segment_count == 3
        assert report.curated_seconds == pytest.approx(36.0)
        segments, _ = load_manifest(manifest)
        assert len(segments) == 3
        assert sum(report.rho_histogram.values()) == 36
        assert (tmp_path / "m.jsonl.round0.report.json").is_file()

    def test_report_totals_are_round_totals_of_its_records(self, tmp_path):
        corpus = []
        for seed in (0, 3):
            noisy, _ = inject_noise(synth_clean(13.0, FS, seed=seed),
                                    NoiseSpec(snr_clip=(40.0, 40.5), seed=1))
            corpus.append(tmp_path / f"f{seed}.wav")
            write_wav(corpus[-1], noisy)
        corpus.insert(1, tmp_path / "missing.wav")
        manifest = tmp_path / "m.jsonl"
        append_manifest(manifest, [make_segment(round_id=5)])  # another round's record
        cfg = CurationConfig(segment_seconds=4.0, round_id=2)
        report = run_round(corpus, cfg, manifest)
        assert len(report.failures) == 1 and report.segment_count > 1
        seconds, hist = round_totals(load_manifest(manifest)[0])
        assert list(seconds) == list(hist) == [2, 5]
        assert report.curated_seconds.hex() == seconds[2].hex()
        assert list(report.rho_histogram.items()) == list(hist[2].items())
        assert len(hist[2]) > 1  # the estimates span more than one bin

    def test_unreadable_file_recorded_not_fatal(self, tmp_path):
        corpus = self._write_corpus(tmp_path, count=2)
        corpus.insert(1, tmp_path / "missing.wav")
        report = run_round(corpus, self._config(), tmp_path / "m.jsonl")
        assert report.files_processed == 3
        assert len(report.failures) == 1
        assert "missing.wav" in report.failures[0]["source"]
        assert report.segment_count == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = self._write_corpus(tmp_path, count=2)
        m1, m2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_round(corpus, self._config(), m1, jobs=2)
        run_round(corpus, self._config(), m2, jobs=1)
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("stored", [{}, {"config_hash": 5}], ids=["no-hash", "int-hash"])
    def test_report_storing_no_hash_is_passed_over_and_replaced(self, tmp_path, caplog, stored):
        manifest = tmp_path / "m.jsonl"
        report = tmp_path / "m.jsonl.round0.report.json"
        report.write_text(json.dumps(stored))
        with caplog.at_level("WARNING"):
            run_round([], self._config(), manifest)
        assert f"{report}: no round config:" in caplog.text
        assert json.loads(report.read_text())["config_hash"] == self._config().config_hash()

    def test_empty_corpus_valid_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        report = run_round([], self._config(), manifest)
        assert report.segment_count == 0
        assert manifest.read_text() == ""

    @pytest.mark.parametrize("golden, cfg", [
        pytest.param("109f363a1e2abd73515818bfcaadb657a7daab9dc781dbd3215a9517719d890a",
                     CurationConfig(), id="default"),
        pytest.param("095c55f1097e12f80db47012a0b7199e291a772dc3ed028d0e3c6312dce0facc",
                     ALL_FIELDS_CONFIG, id="all-fields"),
    ])
    def test_report_config_reloads_to_every_record_hash(self, tmp_path, golden, cfg):
        corpus = []
        for seed in (0, 3):  # at 40 dB, one of the two files yields a segment under each config
            noisy, _ = inject_noise(synth_clean(13.0, cfg.sample_rate, seed=seed),
                                    NoiseSpec(snr_clip=(40.0, 40.5), seed=1))
            corpus.append(tmp_path / f"f{seed}.wav")
            write_wav(corpus[-1], noisy)
        manifest = tmp_path / "m.jsonl"
        run_round(corpus, cfg, manifest)
        records, _ = load_manifest(manifest)
        assert records
        configs = load_round_configs(manifest, {seg.round_id for seg in records})
        assert configs == {golden: cfg}
        assert {seg.config_hash for seg in records} == {golden}

    @pytest.mark.parametrize("fail", ["write", "replace"])
    def test_failed_report_write_keeps_the_previous_report(self, tmp_path, monkeypatch, fail):
        corpus = self._write_corpus(tmp_path, count=1)
        manifest = tmp_path / "m.jsonl"
        run_round(corpus, self._config(), manifest)
        report_path = tmp_path / "m.jsonl.round0.report.json"
        before = report_path.read_text()
        manifest_before = manifest.read_bytes()
        real_write_text = Path.write_text

        def torn_write_text(path, text, *args, **kwargs):
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        if fail == "write":
            monkeypatch.setattr(Path, "write_text", torn_write_text)
        else:
            monkeypatch.setattr(curation.os, "replace", failing_replace)
        with pytest.raises(OSError):  # a rerun under the same config rewrites the report
            run_round(corpus, self._config(), manifest)
        monkeypatch.undo()
        assert report_path.read_text() == before
        assert manifest.read_bytes() == manifest_before
        assert json.loads(before)["config"] == self._config().to_dict()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "f0.wav", "m.jsonl", "m.jsonl.round0.report.json"]


class TestExportAbPairs:
    def _curated_manifest(self, tmp_path, enhancer, count=3):
        cfg = CurationConfig(enhancer=enhancer, vad=VadSpec(kind="always_on"))
        corpus = []
        for i in range(count):
            p = tmp_path / f"s{i}.wav"
            write_wav(p, synth_clean(13.0, FS, seed=40 + i))
            corpus.append(p)
        manifest = tmp_path / "m.jsonl"
        run_round(corpus, cfg, manifest)
        return manifest

    def test_pair_lengths_and_count(self, tmp_path):
        manifest = self._curated_manifest(tmp_path, EnhancerSpec("identity"))
        out = tmp_path / "ab"
        assert export_ab_pairs(load_manifest(manifest)[0], out, {}) == 3
        wavs = sorted(out.glob("*.wav"))
        assert len(wavs) == 6
        for w in wavs:
            assert len(read_wav(w)) == 12 * FS

    def test_identity_pairs_bit_identical(self, tmp_path):
        manifest = self._curated_manifest(tmp_path, EnhancerSpec("identity"), count=1)
        out = tmp_path / "ab"
        export_ab_pairs(load_manifest(manifest)[0], out, {})
        a = read_wav(next(out.glob("*_unprocessed.wav")))
        b = read_wav(next(out.glob("*_enhanced.wav")))
        assert np.array_equal(a.samples, b.samples)

    def test_oracle_pairs_return_reference_slice(self, tmp_path):
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        clean = synth_clean(13.0, FS, seed=50)
        noisy = AudioBuffer(
            clean.samples + white_noise(len(clean), 1e-4, np.random.default_rng(51)), FS
        )
        write_wav(tmp_path / "mix.wav", noisy)
        write_wav(ref_dir / "mix.wav", clean)
        cfg = CurationConfig(
            enhancer=EnhancerSpec("oracle", {"reference_dir": str(ref_dir)}),
            vad=VadSpec(kind="always_on"),
        )
        manifest = tmp_path / "m.jsonl"
        run_round([tmp_path / "mix.wav"], cfg, manifest)
        out = tmp_path / "ab"
        assert export_ab_pairs(load_manifest(manifest)[0], out, {}) == 1
        b = read_wav(next(out.glob("*_enhanced.wav")))
        ref = read_wav(ref_dir / "mix.wav")
        assert np.array_equal(b.samples, ref.samples[: 12 * FS])

    def test_each_source_read_once(self, tmp_path, monkeypatch):
        src = tmp_path / "long.wav"
        write_wav(src, synth_clean(37.0, FS, seed=60))
        manifest = tmp_path / "m.jsonl"
        append_manifest(manifest, [
            make_segment(source_uri=str(src), start_sample=k * 12 * FS,
                         end_sample=(k + 1) * 12 * FS)
            for k in range(3)
        ])
        reads = []

        def counting_read_wav(path):
            reads.append(str(path))
            return read_wav(path)

        monkeypatch.setattr(curation, "read_wav", counting_read_wav)
        assert export_ab_pairs(load_manifest(manifest)[0], tmp_path / "ab", {}) == 3
        assert reads == [str(src)]
        assert len(list((tmp_path / "ab").glob("*.wav"))) == 6

    def test_same_enhancer_in_any_key_order_enhanced_once(self, tmp_path, monkeypatch):
        src = tmp_path / "long.wav"
        write_wav(src, synth_clean(25.0, FS, seed=61))
        ids = ['{"kind":"spectral_gate","attenuation_db":12.0,"gate_threshold_db":6.0}',
               '{"gate_threshold_db":6.0,"kind":"spectral_gate","attenuation_db":12.0}']
        manifest = tmp_path / "m.jsonl"
        append_manifest(manifest, [
            make_segment(source_uri=str(src), start_sample=k * 12 * FS,
                         end_sample=(k + 1) * 12 * FS, enhancer_id=ids[k])
            for k in range(2)
        ])
        calls = []
        real_enhance = curation.enhance

        def counting_enhance(buf, spec, stft_cfg):
            calls.append(spec.identifier())
            return real_enhance(buf, spec, stft_cfg)

        monkeypatch.setattr(curation, "enhance", counting_enhance)
        assert export_ab_pairs(load_manifest(manifest)[0], tmp_path / "ab", {}) == 2
        assert calls == [decode(EnhancerSpec, json.loads(ids[0]), "enhancer_id").identifier()]

    def test_missing_source_skipped_with_count(self, tmp_path, caplog):
        segments = [make_segment(source_uri=str(tmp_path / "gone.wav"))]
        with caplog.at_level("WARNING"):
            assert export_ab_pairs(segments, tmp_path / "ab", {}) == 0
        assert "skipped 1" in caplog.text

    @pytest.mark.parametrize("bad", [
        pytest.param({"enhancer_id": '{"kind":"wiener"}'}, id="unknown-kind"),
        pytest.param({"enhancer_id": "{nope"}, id="not-json"),
        pytest.param({"start_sample": 12 * FS, "end_sample": 24 * FS}, id="past-source-end"),
        # another round, so that no check but the rate's can skip it
        pytest.param({"round_id": 1, "sample_rate": 16000, "end_sample": 12 * 16000,
                      "frame_fc": [8000.0] * 12}, id="other-sample-rate"),
    ])
    def test_bad_segment_skipped_others_exported(self, tmp_path, caplog, bad):
        src = tmp_path / "short.wav"
        write_wav(src, synth_clean(13.0, FS, seed=62))
        segments = [make_segment(source_uri=str(src)), make_segment(source_uri=str(src), **bad)]
        with caplog.at_level("WARNING"):
            assert export_ab_pairs(segments, tmp_path / "ab", {}) == 1
        assert "skipped 1" in caplog.text
        assert len(list((tmp_path / "ab").glob("*.wav"))) == 2

    def test_same_file_name_in_two_directories_keeps_both_pairs(self, tmp_path):
        sources = [tmp_path / "a" / "x.wav", tmp_path / "b" / "x.wav", tmp_path / "c" / "y.wav"]
        for seed, src in enumerate(sources, start=63):
            src.parent.mkdir()
            write_wav(src, synth_clean(13.0, FS, seed=seed))
        out = tmp_path / "ab"
        pairs = export_ab_pairs([make_segment(source_uri=str(src)) for src in sources], out, {})
        names = sorted(p.name for p in out.glob("*.wav"))
        assert pairs == len(names) // 2 == 3
        tags = [hashlib.sha256(str(src).encode("utf-8")).hexdigest()[:8] for src in sources[:2]]
        assert names == sorted(
            [f"x_{tags[0]}_r0_0_{side}.wav" for side in ("enhanced", "unprocessed")]
            + [f"x_{tags[1]}_r0_0_{side}.wav" for side in ("enhanced", "unprocessed")]
            + ["y_r0_0_enhanced.wav", "y_r0_0_unprocessed.wav"]  # a unique stem keeps its name
        )


    def test_one_segment_under_two_enhancers_keeps_both_pairs(self, tmp_path):
        src = tmp_path / "x.wav"
        write_wav(src, synth_clean(13.0, FS, seed=66))
        ids = ['{"kind":"identity"}', '{"kind":"spectral_gate"}']
        out = tmp_path / "ab"
        pairs = export_ab_pairs([make_segment(source_uri=str(src), enhancer_id=i) for i in ids], out, {})
        names = sorted(p.name for p in out.glob("*.wav"))
        assert pairs == len(names) // 2 == 2
        tags = [hashlib.sha256(decode(EnhancerSpec, json.loads(i), "e").identifier().encode("utf-8"))
                .hexdigest()[:8] for i in ids]
        assert names == sorted(f"x_r0_0_{tag}_{side}.wav" for tag in tags
                               for side in ("enhanced", "unprocessed"))

    def test_one_enhancer_under_two_stfts_writes_one_untagged_pair(self, tmp_path, caplog):
        src = tmp_path / "x.wav"
        write_wav(src, synth_clean(13.0, FS, seed=68))
        a = CurationConfig(enhancer=EnhancerSpec("spectral_gate"))
        b = dataclasses.replace(a, stft=StftConfig(window_len=1024, hop=256))
        segments = [make_segment(source_uri=str(src), config_hash=c.config_hash()) for c in (a, b)]
        out = tmp_path / "ab"
        with caplog.at_level("WARNING"):
            pairs = export_ab_pairs(segments, out, {c.config_hash(): c for c in (a, b)})
        assert pairs == 1
        assert sorted(p.name for p in out.glob("*.wav")) == ["x_r0_0_enhanced.wav", "x_r0_0_unprocessed.wav"]
        assert "pair x_r0_0 already written" in caplog.text

    def test_duplicate_record_written_once_and_counted(self, tmp_path, caplog):
        src = tmp_path / "x.wav"
        write_wav(src, synth_clean(13.0, FS, seed=67))
        seg = make_segment(source_uri=str(src))
        out = tmp_path / "ab"
        with caplog.at_level("WARNING"):
            assert export_ab_pairs([seg, seg], out, {}) == 1
        assert "skipped 1" in caplog.text
        assert sorted(p.name for p in out.glob("*.wav")) == ["x_r0_0_enhanced.wav", "x_r0_0_unprocessed.wav"]

    def test_source_whose_enhancement_fails_skipped_others_exported(self, tmp_path, caplog):
        x, y = tmp_path / "x.wav", tmp_path / "y.wav"
        for seed, src in enumerate((x, y), start=69):
            write_wav(src, synth_clean(13.0, FS, seed=seed))
        oracle = json.dumps({"kind": "oracle", "reference_dir": str(tmp_path / "no_refs")})
        segments = [make_segment(source_uri=str(x), enhancer_id=oracle), make_segment(source_uri=str(y))]
        out = tmp_path / "ab"
        with caplog.at_level("WARNING"):
            assert export_ab_pairs(segments, out, {}) == 1
        assert "enhancement failed: oracle reference not found" in caplog.text
        assert "skipped 1" in caplog.text
        assert sorted(p.name for p in out.glob("*.wav")) == ["y_r0_0_enhanced.wav", "y_r0_0_unprocessed.wav"]

    def test_peak_memory_holds_one_source(self, tmp_path):
        # Each source's buffer and enhancement are freed before the next
        # source is read, so three more sources of the same length add less
        # than half of one source's float64 samples to the traced peak.
        n = 30 * FS
        sources = []
        for i in range(4):
            sources.append(tmp_path / f"s{i}.wav")
            write_wav(sources[-1], AudioBuffer(white_noise(n, 0.1, np.random.default_rng(70 + i)), FS))
        segments = [make_segment(source_uri=str(src), enhancer_id='{"kind":"spectral_gate"}')
                    for src in sources]

        def peak(count):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert export_ab_pairs(segments[:count], tmp_path / f"ab{count}", {}) == count
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(4) - peak(1) < 0.5 * n * 8


@dataclasses.dataclass(frozen=True)
class GrownConfig(CurationConfig):
    """The config with one field added later, defaulting to the old behaviour."""

    later_field: int = 0


class TestOldRoundReports:
    """A manifest and round report written before GrownConfig's field existed
    (tests/data), over audio regenerated here from its seed."""

    def _old_round(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the records name their source "old.wav"
        noisy, _ = inject_noise(synth_clean(8.0, 16000, seed=5), NoiseSpec(snr_clip=(30.0, 30.5), seed=5))
        write_wav(tmp_path / "old.wav", noisy)
        for name in ("old.jsonl", "old.jsonl.round1.report.json"):
            shutil.copy(DATA / name, tmp_path / name)
        return tmp_path / "old.jsonl"

    def test_records_keep_their_config_when_the_schema_grows(self, tmp_path, monkeypatch):
        manifest = self._old_round(tmp_path, monkeypatch)
        hashes = {seg.config_hash for seg in load_manifest(manifest)[0]}
        assert main(["export-ab", "--manifest", str(manifest), "--out", "today"]) == 0
        monkeypatch.setattr(curation, "CurationConfig", GrownConfig)
        configs = load_round_configs(manifest, {1})
        assert set(configs) == hashes
        assert [(type(c), c.stft) for c in configs.values()] == [(GrownConfig, StftConfig(1024, 256))]
        assert main(["export-ab", "--manifest", str(manifest), "--out", "grown"]) == 0
        today = sorted((tmp_path / "today").iterdir())
        assert len(today) == 6
        assert [p.name for p in today] == sorted(p.name for p in (tmp_path / "grown").iterdir())
        for p in today:
            assert p.read_bytes() == (tmp_path / "grown" / p.name).read_bytes()

    def test_rerun_under_a_grown_schema_is_another_config(self, tmp_path, monkeypatch):
        manifest = self._old_round(tmp_path, monkeypatch)
        report = tmp_path / "old.jsonl.round1.report.json"
        before = manifest.read_bytes(), report.read_bytes()
        monkeypatch.setattr(curation, "CurationConfig", GrownConfig)
        grown = GrownConfig.from_dict(json.loads(report.read_text())["config"])
        with pytest.raises(ConfigError, match="already ran under config b1ef72ffc8eb"):
            run_round(["old.wav"], grown, manifest)
        assert (manifest.read_bytes(), report.read_bytes()) == before

    def test_rerun_over_a_report_this_version_cannot_decode_is_refused(self, tmp_path, monkeypatch):
        manifest = self._old_round(tmp_path, monkeypatch)
        report = tmp_path / "old.jsonl.round1.report.json"
        data = json.loads(report.read_text())
        data["config"]["later_field"] = 1  # a field this version does not know
        data["config_hash"] = hash_config(data["config"])
        report.write_text(json.dumps(data))
        before = manifest.read_bytes(), report.read_bytes()
        with pytest.raises(ConfigError, match=f"already ran under config {data['config_hash'][:12]}"):
            run_round(["old.wav"], CurationConfig(round_id=1), manifest)
        assert (manifest.read_bytes(), report.read_bytes()) == before

    def test_report_whose_config_was_edited_but_not_its_hash_is_passed_over(
            self, tmp_path, monkeypatch, caplog):
        manifest = self._old_round(tmp_path, monkeypatch)
        report = tmp_path / "old.jsonl.round1.report.json"
        data = json.loads(report.read_text())
        data["config"]["snr_threshold_db"] = 15.0
        report.write_text(json.dumps(data))
        with caplog.at_level("WARNING"):
            assert load_round_configs(manifest, {1}) == {}
        assert "is not the hash of the stored config" in caplog.text


class TestMetamorphic:
    """Curation reads level ratios only, so flipping the polarity or
    scaling by a power of two (exact in floating point) keeps the records."""

    # 18-dB mixes through a 6-dB gate: even at gain 2^-3 the quietest tenth of
    # the VAD windows sits above -75 dB, so the VAD's -60 dB floor never sets
    # its threshold, and every level is far above RMS_FLOOR
    CFG = CurationConfig(segment_seconds=4.0, snr_threshold_db=5.0,
                         enhancer=EnhancerSpec("spectral_gate", {"attenuation_db": 6.0}))

    @pytest.fixture(scope="class", params=[0, 1, 2])
    def curated(self, request):
        clean = synth_clean(20.0, FS, seed=request.param)
        noisy, _ = inject_noise(clean, NoiseSpec(snr_clip=(18.0, 18.5), seed=request.param))
        segments = curate_file(noisy, self.CFG)
        assert segments
        return noisy.samples, segments

    def test_polarity(self, curated):
        x, want = curated
        got = curate_file(AudioBuffer(-x, FS), self.CFG)
        assert [s.to_json() for s in got] == [s.to_json() for s in want]

    @pytest.mark.parametrize("k", [-3, 2])
    def test_power_of_two_gain(self, curated, k):
        x, want = curated
        got = curate_file(AudioBuffer(x * 2.0**k, FS), self.CFG)
        assert [(s.start_sample, s.end_sample, s.frame_fc) for s in got] == [
            (s.start_sample, s.end_sample, s.frame_fc) for s in want]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g.frame_rho, w.frame_rho, rtol=0, atol=1e-9)


def _rho_values(rng, width, n):
    """n values in random order: ties, values on and beside bin edges, signed
    zeros and subnormals, and pairs whose edges format to one ``:g`` key."""
    edges = rng.integers(-40, 40, 64) * width
    pool = np.concatenate([
        rng.uniform(-30.0, 110.0, 64),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, -0.0, 5e-324, -5e-324, -1.0e9, 100.00011, 100.00021, 1234567.5, 1234568.5],
        rng.uniform(1.0e12, 1.0e12 + 1.0e7, 16),
    ])
    return rng.choice(pool, n).tolist()


def rho_bin_counts(values, width=DEFAULT_RHO_BIN_WIDTH_DB, sizes=None):
    """Round 0's counts from round_totals fed the values in order, streamed
    as records of the given sizes; by default one record holds them all."""
    if sizes is None:
        sizes = [len(values)] if values else []
    assert sum(sizes) == len(values)
    ends = np.cumsum(sizes, dtype=int).tolist()
    records = (make_segment(end_sample=1000 * (e - a), frame_rho=values[a:e], frame_fc=[0.0] * (e - a))
               for a, e in zip([0, *ends], ends))
    return round_totals(records, width)[1].get(0, {})


class TestRhoBinCounts:
    def test_binned_by_lower_edge(self):
        # -1e9, the unvoiced score stored by older versions, is an ordinary value
        counts = rho_bin_counts([22.0, 22.0, -1.0e9, -3.0])
        assert counts == {"20": 2, "-1e+09": 1, "-5": 1}

    @pytest.mark.parametrize("width", [1e-4, 1e-9, 37.5, 1e6, 5.0])
    @pytest.mark.parametrize("n", [0, 1, 50, 16461])
    def test_items_and_order_equal_the_reference_loop(self, width, n):
        rng = np.random.default_rng([n, int(width * 1e9)])
        values = _rho_values(rng, width, n)
        want = reference_rho_bin_counts(values, width)
        assert list(rho_bin_counts(values, width).items()) == list(want.items())
        assert list(rho_bin_counts(values, width, [1] * n).items()) == list(want.items())

    @pytest.mark.parametrize("values, width, items", [
        pytest.param([-5e-324, 3.0, -0.0, 0.0], 5.0, [("0", 4)], id="signed-zero"),
        pytest.param([100.00021, 7.0, 100.00011, 100.0003], 1e-4, [("100", 3), ("7", 1)],
                     id="colliding-edges"),
    ])
    def test_one_key_per_formatted_edge(self, values, width, items):
        assert list(rho_bin_counts(values, width).items()) == items
        assert list(reference_rho_bin_counts(values, width).items()) == items

    def test_zero_edge_is_written_0_at_a_negative_width(self):
        # the CLI rejects such a width; the function still writes no "-0" key
        assert list(rho_bin_counts([3.0, -3.0, -0.0], -5.0).items()) == [("5", 1), ("0", 2)]

    def test_records_of_any_size_give_the_counts_of_one_record(self):
        rng = np.random.default_rng(7)
        values = _rho_values(rng, 1e-4, 24576)
        got = rho_bin_counts(values, 1e-4, [1, 12, 8187, 7, 8195, 8174])
        assert list(got.items()) == list(rho_bin_counts(values, 1e-4).items())
        assert list(got.items()) == list(reference_rho_bin_counts(values, 1e-4).items())

    def test_edge_beyond_the_float_range_fails_as_the_loop_does(self):
        with pytest.raises(OverflowError):
            reference_rho_bin_counts([50.0], 1e-310)
        with pytest.raises(OverflowError):
            rho_bin_counts([50.0], 1e-310)
