"""Tests of the benchmark's own logic: outcome rule, ground-truth quality
metrics, span self time, funnel ratios, trace installation and the host
speed factor."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import checks
import fixtures
import speed
import tracing

ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------ outcome rule


@pytest.mark.parametrize(
    "expected, actual, mismatches",
    [
        (["bad.wav"], ["bad.wav"], 0),  # exactly the planted input failed
        ([], ["good.wav"], 1),  # a valid input errored
        (["bad.wav"], [], 1),  # a planted input went through
        (["bad.wav"], ["good.wav"], 2),
        (["a.wav", "b.wav"], ["b.wav", "a.wav"], 0),
    ],
)
def test_outcome_mismatches(expected, actual, mismatches):
    assert checks.outcome_mismatches(expected, actual) == mismatches


# ------------------------------------------------------- precision, recall


def _curate_fixture(tmp_path: Path, frame_snr: list[float], planted=()) -> dict:
    cfg = fixtures.config({"kind": "identity"}, fixtures.SEGMENT_FRAMES)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return {
        "files": {"corpus/a.wav": {"seconds": float(len(frame_snr)), "frame_snr_db": frame_snr}},
        "expected_failures": list(planted),
    }


def _segment(start_frame: int) -> str:
    k = fixtures.SEGMENT_FRAMES
    return json.dumps({
        "source_uri": "corpus/a.wav", "round_id": 0,
        "start_sample": start_frame * fixtures.FRAME_LEN,
        "end_sample": (start_frame + k) * fixtures.FRAME_LEN,
        "sample_rate": fixtures.SAMPLE_RATE, "frame_rho": [30.0] * k, "frame_fc": [22000.0] * k,
        "config_hash": "0" * 64, "enhancer_id": '{"kind":"identity"}',
    })


def _write_round(manifest: Path, lines: list[str], failures: list[str]) -> None:
    manifest.write_text("".join(line + "\n" for line in lines))
    report = {"failures": [{"source": s, "error": "x"} for s in failures]}
    Path(f"{manifest}.round0.report.json").write_text(json.dumps(report))


def test_precision_recall_from_manifest(tmp_path):
    # 16 frames: 0-11 curated; frames 0-9 and 14-15 truly above 20 dB
    snr = [25.0] * 10 + [15.0, 19.0, 5.0, 5.0, 30.0, 40.0]
    truth = _curate_fixture(tmp_path, snr)
    _write_round(tmp_path / "m.jsonl", [_segment(0)], [])
    v = checks.check_curate(tmp_path, truth, tmp_path / "m.jsonl")
    assert v.problems == []
    assert v.precision == pytest.approx(10 / 12)
    assert v.recall == pytest.approx(10 / 12)
    assert (v.attempted, v.failed) == (1, 0)


def test_threshold_is_strict():
    assert checks.clean_frames({"a": [20.0, 20.5]}) == {("a", 1)}


def test_empty_bases_read_zero():
    assert checks.precision_recall(set(), {1}) == (0.0, 0.0)
    assert checks.precision_recall({1}, set()) == (0.0, 0.0)


def test_check_curate_flags_order_and_outcomes(tmp_path):
    truth = _curate_fixture(tmp_path, [30.0] * 30, planted=["corpus/z.wav"])
    _write_round(tmp_path / "m.jsonl", [_segment(12), _segment(0)], ["corpus/a.wav"])
    v = checks.check_curate(tmp_path, truth, tmp_path / "m.jsonl")
    assert (v.attempted, v.failed) == (2, 2)
    assert any("corpus order" in p for p in v.problems)
    assert any("planted" in p for p in v.problems)


def test_true_snr_matches_program_definition():
    from speechmine.audio_io import AudioBuffer
    from speechmine.evalgen import EvalTriple

    rng = np.random.default_rng(3)
    n = int(3.5 * fixtures.SAMPLE_RATE)
    clean, noisy = fixtures.mix(fixtures.speech_proxy(n, rng), fixtures.noise("pink", n, rng), [12.0], n)
    bufs = [AudioBuffer(x, fixtures.SAMPLE_RATE) for x in (clean, noisy, noisy)]
    expected = EvalTriple.from_components(*bufs).true_snr_db
    np.testing.assert_allclose(fixtures.frame_snr_db(clean, noisy), expected, rtol=1e-12)


# --------------------------------------------------------------- self time


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["leaf", 2.0, 3.5, 1, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 5.0, 0, 0], ["b", 3.0, 12.0, 0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_summary_labels_stft_by_parent():
    spans = [
        ["enhance.enhance", 0.0, 4.0, -1, 0],
        ["dsp.stft", 0.0, 1.0, 0, 0],
        ["dsp.estimate_cutoff", 5.0, 7.0, -1, 0],
        ["dsp.stft", 5.0, 6.5, 2, 0],
    ]
    summary = tracing.summarize(spans)
    assert summary["dsp.stft"]["self_s"] == pytest.approx(1.0)
    assert summary["dsp.stft@estimate_cutoff"]["s"] == pytest.approx(1.5)
    assert summary["enhance.enhance"]["self_s"] == pytest.approx(3.0)


# ----------------------------------------------------------- funnel ratios


class _Mask:
    def __init__(self, decisions):
        self.decisions = np.asarray(decisions)


def test_funnel_ratios_from_return_values():
    tracer = tracing.Tracer()
    obs = tracing.OBSERVERS
    detect = tracer.wrap(lambda d: _Mask(d), "vad.detect", obs["vad.detect"])
    gate = tracer.wrap(lambda r: (np.asarray(r) > 20).astype(np.uint8), "curation.snr_gate",
                       obs["curation.snr_gate"])
    bw = tracer.wrap(lambda a: (np.asarray(a), None), "curation.bandwidth_gate",
                     obs["curation.bandwidth_gate"])
    extract = tracer.wrap(lambda a, seg, fr: [(0, 2)], "curation.extract_segments",
                          obs["curation.extract_segments"])
    detect([1, 1, 0, 0])
    detect([1, 1, 1, 1])
    gate([30.0, 10.0, 25.0])
    bw([1, 0, 0, 0])
    assert extract(np.array([1, 1, 1, 0]), 2.0, 1.0) == [(0, 2)]
    m = tracing.layer_metrics(tracing.summarize(tracer.spans), {}, tracer.counters)
    assert m["vad.detect.speech_frac"] == pytest.approx(6 / 8)
    assert m["curation.snr_gate.pass_frac"] == pytest.approx(2 / 3)
    assert m["curation.bandwidth_gate.pass_frac"] == pytest.approx(1 / 4)
    assert m["curation.extract_segments.used_frac"] == pytest.approx(2 / 3)
    assert m["curation.rho_hat.calls"] == 0  # absent span reads 0


def test_observer_error_does_not_break_the_call():
    tracer = tracing.Tracer()
    f = tracer.wrap(lambda: 7, "curation.snr_gate", tracing.OBSERVERS["curation.bandwidth_gate"])
    assert f() == 7
    assert tracer.counters["curation.snr_gate.observe_errors"][0] == 1


def test_nested_peak_memory():
    tracer = tracing.Tracer(memory=True)
    inner = tracer.wrap(lambda: np.ones(2_000_000).sum(), "inner")
    outer = tracer.wrap(lambda: (np.ones(500_000).sum(), inner()), "outer")
    tracemalloc.start()
    try:
        outer()
    finally:
        tracemalloc.stop()
    peaks = {name: peak / 1e6 for name, _, _, _, peak in tracer.spans}
    assert peaks["inner"] >= 16.0
    assert peaks["outer"] >= peaks["inner"]


# --------------------------------------------------------------- install


def test_install_skips_missing_sites(monkeypatch):
    import speechmine.curation as curation

    monkeypatch.setattr(tracing, "SITES", [
        ("speechmine.curation", "snr_gate", "curation.snr_gate"),
        ("speechmine.curation", "no_such_function", "x"),
        ("speechmine.no_such_module", "f", "y"),
    ])
    monkeypatch.setattr(curation, "snr_gate", curation.snr_gate)  # restored afterwards
    tracer = tracing.Tracer()
    missing = tracing.install(tracer)
    assert missing == ["speechmine.curation.no_such_function", "speechmine.no_such_module.f"]
    curation.snr_gate(np.array([25.0, 5.0]), 20.0)
    assert tracer.spans[0][0] == "curation.snr_gate"
    assert tracer.counters["curation.snr_gate.pass"] == [1.0, 2.0]


def test_install_traces_the_names_callers_look_up(monkeypatch):
    import importlib

    from speechmine.audio_io import AudioBuffer
    from speechmine.curation import CurationConfig

    for module, attr, _ in tracing.SITES:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # restored after the test
    tracer = tracing.Tracer()
    assert tracing.install(tracer) == []
    curation = importlib.import_module("speechmine.curation")
    rng = np.random.default_rng(0)
    n = 13 * fixtures.SAMPLE_RATE
    _, noisy = fixtures.mix(fixtures.speech_proxy(n, rng), fixtures.noise("white", n, rng), [40.0], n)
    curation.curate_file(AudioBuffer(noisy, fixtures.SAMPLE_RATE), CurationConfig())
    summary = tracing.summarize(tracer.spans)
    calls = {label: int(s["calls"]) for label, s in summary.items()}
    assert calls["enhance.enhance"] == calls["dsp.stft"] == calls["dsp.istft"] == 1
    assert calls["dsp.estimate_cutoff"] == calls["dsp.stft@estimate_cutoff"] == 13
    assert calls["curation.rho_hat"] == 13
    by_index = tracer.spans
    parents = {by_index[p][0] for name, _, _, p, _ in by_index if name == "dsp.stft" and p >= 0}
    assert parents == {"enhance.enhance", "dsp.estimate_cutoff"}


# ------------------------------------------------------------ host speed


def test_speed_factor_uses_the_samples_around_each_child(monkeypatch):
    samples = iter([0.04, 0.06, 0.02])
    monkeypatch.setattr(speed.HostSpeed, "sample", lambda self, seconds: next(samples))
    host = speed.HostSpeed()
    assert host.factor(4.0) == pytest.approx(speed.KERNEL_REFERENCE_S / 0.05)
    assert host.factor(4.0) == pytest.approx(speed.KERNEL_REFERENCE_S / 0.04)


def test_speed_sample_fills_the_requested_time(monkeypatch):
    calls = []
    monkeypatch.setattr(speed.HostSpeed, "_kernel", lambda self: calls.append(1) or 0.03)
    host = speed.HostSpeed()
    calls.clear()
    assert host.sample(0.1) == pytest.approx(0.03)
    assert len(calls) == 4


# ----------------------------------------------------------- declarations


def test_benchmark_json_declares_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    computed = tracing.layer_metrics({}, {}, {})
    computed["trace.overhead_frac"] = 0.0
    assert names == set(computed)
