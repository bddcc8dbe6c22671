"""Subcommand behavior and exit codes."""

import json

import numpy as np
import pytest

from speechmine.audio_io import read_wav, write_wav
from speechmine.cli import main
from speechmine.curation import CurationConfig, load_manifest
from speechmine.enhance import EnhancerSpec
from speechmine.evalgen import synth_clean
from speechmine.vad import VadSpec

FS = 48000


def write_config(tmp_path, **overrides):
    cfg = CurationConfig(enhancer=EnhancerSpec("identity"), vad=VadSpec(kind="always_on"))
    data = cfg.to_dict()
    data.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return p


def write_corpus(tmp_path, count=3, seconds=13.0):
    d = tmp_path / "corpus"
    d.mkdir(exist_ok=True)
    for i in range(count):
        write_wav(d / f"f{i}.wav", synth_clean(seconds, FS, seed=60 + i), "float32")
    return d


class TestSynth:
    def test_writes_pairs_and_sidecar(self, tmp_path):
        out = tmp_path / "pairs"
        assert main(["synth", "--out", str(out), "--count", "5", "--duration", "2"]) == 0
        assert len(list(out.glob("*.wav"))) == 10
        meta = json.loads((out / "metadata.json").read_text())
        assert len(meta["files"]) == 5
        assert all("target_snr_db" in f for f in meta["files"])

    def test_fixed_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["synth", "--out", str(out), "--count", "2", "--duration", "1", "--seed", "3"])
        for name in ("clean_000.wav", "noisy_001.wav"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_duration_in_samples(self, tmp_path):
        out = tmp_path / "pairs"
        main(["synth", "--out", str(out), "--count", "1", "--duration", "4"])
        assert len(read_wav(out / "clean_000.wav")) == 4 * FS


class TestCurate:
    def test_happy_path(self, tmp_path):
        cfg = write_config(tmp_path)
        corpus = write_corpus(tmp_path)
        manifest = tmp_path / "m.jsonl"
        code = main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
                     "--manifest", str(manifest), "--jobs", "2"])
        assert code == 0
        segments, _ = load_manifest(manifest)
        assert len(segments) == 3

    def test_missing_snr_threshold_defaults(self, tmp_path, caplog):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["snr_threshold_db"]
        cfg.write_text(json.dumps(data))
        corpus = write_corpus(tmp_path, count=1)
        with caplog.at_level("INFO"):
            code = main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
                         "--manifest", str(tmp_path / "m.jsonl")])
        assert code == 0
        assert "snr_threshold_db" in caplog.text
        segments, _ = load_manifest(tmp_path / "m.jsonl")
        assert segments  # default 20 dB still accepts the clean proxy

    def test_negative_bandwidth_exits_2_naming_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, min_bandwidth_hz=-5.0)
        code = main(["curate", "--config", str(cfg), "--corpus", str(tmp_path / "*.wav"),
                     "--manifest", str(tmp_path / "m.jsonl")])
        assert code == 2
        assert "min_bandwidth_hz" in capsys.readouterr().err

    def test_no_matching_files_exits_3(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["curate", "--config", str(cfg), "--corpus", str(tmp_path / "nothing/*.wav"),
                     "--manifest", str(tmp_path / "m.jsonl")])
        assert code == 3

    def test_round_override_tags_records(self, tmp_path):
        cfg = write_config(tmp_path)
        corpus = write_corpus(tmp_path, count=1)
        manifest = tmp_path / "m.jsonl"
        main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
              "--manifest", str(manifest), "--round", "4"])
        segments, _ = load_manifest(manifest)
        assert all(s.round_id == 4 for s in segments)

    def test_per_file_failure_still_exits_0(self, tmp_path):
        cfg = write_config(tmp_path)
        corpus = write_corpus(tmp_path, count=2)
        (corpus / "bad.wav").write_bytes(b"not a wav")
        code = main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
                     "--manifest", str(tmp_path / "m.jsonl")])
        assert code == 0


class TestEvalReportExport:
    def test_eval_report(self, tmp_path):
        pairs = tmp_path / "pairs"
        main(["synth", "--out", str(pairs), "--count", "2", "--duration", "2", "--seed", "5"])
        enh = tmp_path / "enh.json"
        enh.write_text('{"kind": "identity"}')
        out = tmp_path / "eval.json"
        code = main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["files_evaluated"] == 2
        # identity enhancement leaves the noisy signal untouched
        assert report["mean_delta"] == 0.0

    def test_report_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        corpus = write_corpus(tmp_path, count=2)
        manifest = tmp_path / "m.jsonl"
        main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
              "--manifest", str(manifest)])
        out = tmp_path / "report"
        assert main(["report", str(manifest), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["accepted_hours"]["0"] == pytest.approx(2 * 12 / 3600)
        hours_csv = (out / "accepted_hours.csv").read_text().splitlines()
        assert hours_csv[0] == "round_id,hours"
        assert len(hours_csv) == 2
        assert (out / "rho_histogram.csv").read_text().startswith("round_id,bin,count")

    def test_export_ab_with_bounds(self, tmp_path):
        cfg = write_config(tmp_path)
        corpus = write_corpus(tmp_path, count=2)
        manifest = tmp_path / "m.jsonl"
        main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
              "--manifest", str(manifest)])
        out = tmp_path / "ab"
        assert main(["export-ab", "--manifest", str(manifest), "--out", str(out),
                     "--min-rho", "45"]) == 0
        assert len(list(out.glob("*.wav"))) == 4  # both identity segments score 100

    def test_export_ab_skips_a_bad_enhancer_id(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        corpus = write_corpus(tmp_path, count=1)
        manifest = tmp_path / "m.jsonl"
        main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
              "--manifest", str(manifest)])
        record = json.loads(manifest.read_text())
        record["enhancer_id"] = '{"kind":"wiener"}'
        with manifest.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        out = tmp_path / "ab"
        assert main(["export-ab", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert "exported 1 A/B pair(s)" in capsys.readouterr().out
        assert len(list(out.glob("*.wav"))) == 2

    def test_bad_enhancer_config_exits_2(self, tmp_path, capsys):
        enh = tmp_path / "enh.json"
        enh.write_text('{"no_kind": true}')
        pairs = tmp_path / "pairs"
        main(["synth", "--out", str(pairs), "--count", "1", "--duration", "1"])
        assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh)]) == 2
        assert "kind" in capsys.readouterr().err


# (metadata.json text, exit code, files_skipped when the run succeeds)
METADATA_PROBES = [
    pytest.param('{"files": [{"clean": 5, "noisy": "noisy_000.wav"}]}', 0, 1, id="clean-int"),
    pytest.param('{"files": [{"noisy": "noisy_000.wav"}]}', 0, 1, id="clean-missing"),
    pytest.param('{"files": 3}', 2, None, id="files-int"),
    pytest.param("[1, 2]", 2, None, id="top-level-list"),
    pytest.param("{nope", 2, None, id="not-json"),
]


@pytest.mark.parametrize("text, code, skipped", METADATA_PROBES)
def test_eval_bad_metadata(tmp_path, capsys, text, code, skipped):
    pairs = tmp_path / "pairs"
    main(["synth", "--out", str(pairs), "--count", "1", "--duration", "1"])
    (pairs / "metadata.json").write_text(text)
    enh = tmp_path / "enh.json"
    enh.write_text('{"kind": "identity"}')
    capsys.readouterr()
    assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh)]) == code
    out = capsys.readouterr()
    if code:
        assert "metadata.json" in out.err
    else:
        report = json.loads(out.out)
        assert (report["files_evaluated"], report["files_skipped"]) == (0, skipped)


def _garbage_noisy(pairs):
    (pairs / "noisy_000.wav").write_bytes(b"garbage")


def _short_clean(pairs):
    write_wav(pairs / "clean_000.wav", synth_clean(1.0, FS, seed=9), "float32")


@pytest.mark.parametrize("spoil", [
    pytest.param(_garbage_noisy, id="unreadable-noisy"),
    pytest.param(_short_clean, id="length-mismatch"),
])
def test_eval_skips_a_bad_pair_and_scores_the_rest(tmp_path, capsys, caplog, spoil):
    pairs = tmp_path / "pairs"
    main(["synth", "--out", str(pairs), "--count", "2", "--duration", "2"])
    spoil(pairs)
    enh = tmp_path / "enh.json"
    enh.write_text('{"kind": "identity"}')
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["files_evaluated"], report["files_skipped"]) == (1, 1)
    assert [f["noisy"] for f in report["per_file"]] == ["noisy_001.wav"]
    assert "skipping entry noisy_000.wav" in caplog.text


def test_eval_unknown_metric_fails_the_run(tmp_path, capsys):
    pairs = tmp_path / "pairs"
    main(["synth", "--out", str(pairs), "--count", "1", "--duration", "1"])
    enh = tmp_path / "enh.json"
    enh.write_text('{"kind": "identity"}')
    capsys.readouterr()
    assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh),
                 "--metric", "nope"]) == 2
    assert capsys.readouterr().out == ""


def test_unexpected_failure_exits_1(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    corpus = write_corpus(tmp_path, count=1)
    import speechmine.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli_mod, "run_round", boom)
    code = main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
                 "--manifest", str(tmp_path / "m.jsonl")])
    assert code == 1


# argv ({tmp} is the test directory) and environment of one user error each
USER_ERRORS = [
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/enh.json",
                  "--metric", "nope"], {}, id="unknown-metric"),
    pytest.param(["report", "{tmp}/missing.jsonl", "--out", "{tmp}/report"], {},
                 id="report-missing-manifest"),
    pytest.param(["export-ab", "--manifest", "{tmp}/missing.jsonl", "--out", "{tmp}/ab"], {},
                 id="export-missing-manifest"),
    pytest.param(["curate", "--config", "{tmp}/config.json", "--corpus", "{tmp}/corpus/*.wav",
                  "--manifest", "{tmp}/m.jsonl", "--jobs", "0"], {}, id="jobs-zero"),
    pytest.param(["synth", "--out", "{tmp}/more", "--count", "1", "--duration", "1"],
                 {"SECP_LOG": "bogus"}, id="unknown-log-level"),
]


@pytest.mark.parametrize("argv, env", USER_ERRORS)
def test_user_error_exits_2_with_one_line(tmp_path, capsys, caplog, monkeypatch, argv, env):
    main(["synth", "--out", str(tmp_path / "pairs"), "--count", "1", "--duration", "1"])
    (tmp_path / "enh.json").write_text('{"kind": "identity"}')
    write_config(tmp_path)
    write_corpus(tmp_path, count=1)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not [r for r in caplog.records if r.exc_info]
