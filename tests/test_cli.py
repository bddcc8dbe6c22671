"""Subcommand behavior and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import speechmine
from helpers import make_segment
from speechmine.audio_io import AudioBuffer, read_wav, write_wav
from speechmine.cli import build_parser, main
from speechmine.curation import CuratedSegment, CurationConfig, append_manifest, load_manifest
from speechmine.dsp import StftConfig
from speechmine.enhance import EnhancerSpec, enhance
from speechmine.evalgen import NOISE_KINDS, EvalTriple, NoiseSpec, delta_quality, inject_noise, synth_clean
from speechmine.schema import encode
from speechmine.vad import VadSpec

FS = 48000
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # nested past the JSON parser's recursion limit


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
        write_wav(d / f"f{i}.wav", synth_clean(seconds, FS, seed=60 + i))
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

    def test_defaults_are_the_library_defaults(self, capsys):
        parse = build_parser().parse_args
        args = parse(["synth", "--out", "x", "--count", "1"])
        noise = NoiseSpec()
        assert (args.noise_kind, args.rayleigh_sigma, (args.snr_min, args.snr_max)) == (
            noise.noise_kind, noise.rayleigh_sigma, noise.snr_clip)
        assert args.sample_rate == CurationConfig().sample_rate
        for kind in NOISE_KINDS:
            assert parse(["synth", "--out", "x", "--count", "1", "--noise-kind", kind]).noise_kind == kind
        with pytest.raises(SystemExit):
            parse(["synth", "--out", "x", "--count", "1", "--noise-kind", "brown"])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        pytest.param(["--count=-2"], "--count", id="count-negative"),
        pytest.param(["--count=0"], "--count", id="count-zero"),
        pytest.param(["--duration=-1"], "--duration", id="duration-negative"),
        pytest.param(["--duration=1e-6"], "--duration", id="duration-under-one-sample"),
        pytest.param(["--duration=nan"], "--duration", id="duration-nan"),
        pytest.param(["--sample-rate=0"], "--sample-rate", id="sample-rate-zero"),
        pytest.param(["--snr-min=10", "--snr-max=5"], "snr_clip", id="snr-min-above-max"),
        pytest.param(["--rayleigh-sigma=0"], "rayleigh_sigma", id="sigma-zero"),
        pytest.param(["--rayleigh-sigma=nan"], "rayleigh_sigma", id="sigma-nan"),
        pytest.param(["--rayleigh-sigma=inf"], "rayleigh_sigma", id="sigma-inf"),
        pytest.param(["--rayleigh-sigma=-inf"], "rayleigh_sigma", id="sigma-minus-inf"),
        pytest.param(["--snr-max=inf"], "snr_clip", id="snr-max-inf"),
        pytest.param(["--snr-min=-inf"], "snr_clip", id="snr-min-minus-inf"),
        pytest.param(["--snr-min=nan"], "snr_clip", id="snr-min-nan"),
        pytest.param(["--snr-max=nan"], "snr_clip", id="snr-max-nan"),
        pytest.param(["--rayleigh-sigma=inf", "--snr-max=inf"], "rayleigh_sigma", id="sigma-and-snr-max-inf"),
        pytest.param(["--seed=-1"], "--seed", id="seed-negative"),
        # a float-32 WAV's 32-bit byte-rate field holds 4 bytes per sample a second
        pytest.param(["--duration=0.000001", "--sample-rate=2000000000"], "--sample-rate",
                     id="sample-rate-beyond-byte-rate-field"),
        pytest.param(["--sample-rate=1073741824"], "--sample-rate", id="sample-rate-one-past-byte-rate-field"),
        # its 32-bit RIFF size field holds 36 bytes plus 4 bytes per sample
        pytest.param(["--duration=1073741815", "--sample-rate=1"], "--duration",
                     id="duration-one-past-riff-size-field"),
        pytest.param(["--duration=1e9"], "--duration", id="duration-beyond-riff-size-field"),
    ])
    def test_bad_flag_exits_2_with_one_line_and_writes_nothing(self, tmp_path, capsys, flags, named):
        out = tmp_path / "pairs"
        argv = ["synth", "--out", str(out), "--count", "1", "--duration", "1", *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}") and err.count("\n") == 1
        assert not out.exists()


class TestCurate:
    @pytest.mark.parametrize("cpus, jobs", [({0}, 1), ({0, 1}, 2)])
    def test_default_jobs_is_the_cpus_the_process_may_run_on(self, monkeypatch, cpus, jobs):
        # under taskset -c 0 the machine's CPU count started two workers on one core
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        args = build_parser().parse_args(["curate", "--config", "c.json", "--corpus", "*.wav",
                                          "--manifest", "m.jsonl"])
        assert args.jobs == jobs

    def test_integer_in_a_float_field_exits_2_with_one_line_and_writes_nothing(self, tmp_path, capsys):
        # 20 builds a config equal to 20.0's, which would be stamped with another hash
        cfg = write_config(tmp_path, snr_threshold_db=20)
        corpus = write_corpus(tmp_path, count=1)
        manifest = tmp_path / "out" / "m.jsonl"
        assert main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
                     "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "snr_threshold_db" in err and err.count("\n") == 1
        assert not manifest.parent.exists()

    def test_default_jobs_without_an_affinity_set_or_a_cpu_count_is_1(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        args = build_parser().parse_args(["curate", "--config", "c.json", "--corpus", "*.wav",
                                          "--manifest", "m.jsonl"])
        assert args.jobs == 1

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

    def test_second_config_in_one_round_exits_2_and_writes_nothing(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, count=1)
        manifest = tmp_path / "m.jsonl"
        report = tmp_path / "m.jsonl.round0.report.json"
        argv = ["curate", "--config", str(write_config(tmp_path)), "--corpus",
                str(corpus / "*.wav"), "--manifest", str(manifest)]
        assert main(argv) == 0
        before = manifest.read_bytes(), report.read_bytes()
        other = tmp_path / "other"
        other.mkdir()
        capsys.readouterr()
        assert main([*argv[:2], str(write_config(other, snr_threshold_db=30.0)), *argv[3:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert (manifest.read_bytes(), report.read_bytes()) == before
        assert main(argv) == 0  # a rerun under the first config proceeds
        assert len(load_manifest(manifest)[0]) == 2

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

    def test_export_ab_bounds_pass_over_the_writers_lines_undecoded(self, tmp_path, monkeypatch, capsys):
        # every record's first frame is below the bound, so the scan of the
        # line append_manifest wrote proves it out of bounds
        n = 5
        manifest = tmp_path / "m.jsonl"
        append_manifest(manifest, [
            make_segment(source_uri=str(tmp_path / "missing.wav"), start_sample=i * 12 * FS,
                         end_sample=(i + 1) * 12 * FS, frame_rho=[10.0] + [60.0] * 11)
            for i in range(n)
        ])
        from_json = CuratedSegment.from_json.__func__
        decoded = []
        monkeypatch.setattr(CuratedSegment, "from_json",
                            classmethod(lambda cls, line: decoded.append(line) or from_json(cls, line)))
        assert main(["export-ab", "--manifest", str(manifest), "--out", str(tmp_path / "a"),
                     "--min-rho", "50"]) == 0
        assert "exported 0 A/B pair(s)" in capsys.readouterr().out
        assert decoded == []
        assert main(["export-ab", "--manifest", str(manifest), "--out", str(tmp_path / "b")]) == 0
        assert len(decoded) == n

    def test_export_ab_tags_sources_whose_paths_are_not_utf8(self, tmp_path):
        cfg = write_config(tmp_path)
        name = os.fsdecode(b"x\xff.wav")  # the byte 0xff surrogate-escaped
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            write_wav(tmp_path / d / name, synth_clean(13.0, FS, seed=60))
        manifest = tmp_path / "m.jsonl"
        assert main(["curate", "--config", str(cfg), "--corpus", str(tmp_path / "*" / "*.wav"),
                     "--manifest", str(manifest)]) == 0
        out = tmp_path / "ab"
        assert main(["export-ab", "--manifest", str(manifest), "--out", str(out)]) == 0
        tags = {hashlib.sha256(os.fsencode(str(tmp_path / d / name))).hexdigest()[:8] for d in "ab"}
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{Path(name).stem}_{tag}_r0_0_{side}.wav"
            for tag in tags for side in ("enhanced", "unprocessed"))

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

    def _one_record_round(self, tmp_path):
        """A one-record manifest of a curated 13-s file and its first record."""
        cfg = write_config(tmp_path)
        corpus = write_corpus(tmp_path, count=1)
        manifest = tmp_path / "m.jsonl"
        assert main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
                     "--manifest", str(manifest)]) == 0
        return manifest, json.loads(manifest.read_text())

    @pytest.mark.parametrize("argv", [
        pytest.param(["report", "{manifest}", "--out", "{tmp}/out"], id="report"),
        pytest.param(["export-ab", "--manifest", "{manifest}", "--out", "{tmp}/out"], id="export-ab"),
        # the line has no frame_rho the bounded scan can read, so it is still decoded
        pytest.param(["export-ab", "--manifest", "{manifest}", "--out", "{tmp}/out", "--min-rho", "0"],
                     id="export-ab-min-rho"),
    ])
    def test_manifest_line_nested_too_deep_is_skipped_and_counted(self, tmp_path, caplog, argv):
        manifest, _ = self._one_record_round(tmp_path)
        with manifest.open("a") as fh:
            fh.write(DEEP_JSON + "\n")
        with caplog.at_level("WARNING"):
            assert main([a.format(manifest=manifest, tmp=tmp_path) for a in argv]) == 0
        assert f"{manifest}: skipped 1 malformed record(s)" in caplog.messages
        if argv[0] == "report":
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["accepted_hours"] == {"0": pytest.approx(12 / 3600)}
        else:
            assert len(list((tmp_path / "out").glob("*.wav"))) == 2

    def test_export_ab_skips_an_enhancer_id_nested_too_deep(self, tmp_path, capsys):
        manifest, record = self._one_record_round(tmp_path)
        # a hash with no round report, so the enhancer is read from enhancer_id
        record.update(enhancer_id=DEEP_JSON, config_hash="cd" * 32, round_id=1)
        with manifest.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        assert main(["export-ab", "--manifest", str(manifest), "--out", str(tmp_path / "ab")]) == 0
        assert "exported 1 A/B pair(s)" in capsys.readouterr().out

    def test_curate_passes_over_a_round_report_nested_too_deep(self, tmp_path, caplog):
        cfg = write_config(tmp_path)
        corpus = write_corpus(tmp_path, count=1)
        report = tmp_path / "m.jsonl.round0.report.json"
        report.write_text(DEEP_JSON)
        with caplog.at_level("WARNING"):
            assert main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
                         "--manifest", str(tmp_path / "m.jsonl")]) == 0
        assert any(m.startswith(f"{report}: no round config:") for m in caplog.messages)
        assert json.loads(report.read_text())["segment_count"] == 1

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
    pytest.param(DEEP_JSON, 2, None, id="nested-too-deep"),
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


def _garbage_noisy(pairs, monkeypatch):
    (pairs / "noisy_000.wav").write_bytes(b"garbage")


def _short_clean(pairs, monkeypatch):
    write_wav(pairs / "clean_000.wav", synth_clean(1.0, FS, seed=9))


def _noisy_read_fails(pairs, monkeypatch):
    open_path = Path.open

    def refuse_noisy_000(self, *args, **kwargs):  # chmod cannot block a read by root
        if self == pairs / "noisy_000.wav":
            raise PermissionError(13, "Permission denied", str(self))
        return open_path(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refuse_noisy_000)


@pytest.mark.parametrize("spoil", [
    pytest.param(_garbage_noisy, id="unreadable-noisy"),
    pytest.param(_short_clean, id="length-mismatch"),
    pytest.param(_noisy_read_fails, id="noisy-read-fails"),
])
def test_eval_skips_a_bad_pair_and_scores_the_rest(tmp_path, capsys, caplog, monkeypatch, spoil):
    pairs = tmp_path / "pairs"
    main(["synth", "--out", str(pairs), "--count", "2", "--duration", "2"])
    spoil(pairs, monkeypatch)
    enh = tmp_path / "enh.json"
    enh.write_text('{"kind": "identity"}')
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["files_evaluated"], report["files_skipped"]) == (1, 1)
    assert [f["noisy"] for f in report["per_file"]] == ["noisy_001.wav"]
    assert "skipping entry noisy_000.wav" in caplog.text


def _commands_that_cannot_start(tmp_path):
    """A missing program and a program file without the execute bit."""
    script = tmp_path / "not_executable.sh"
    script.write_text("#!/bin/sh\nexit 0\n")
    script.chmod(0o644)
    return [str(tmp_path / "nonexistent" / "prog"), str(script)]


@pytest.mark.parametrize("which", [0, 1], ids=["missing", "not-executable"])
@pytest.mark.parametrize("side", ["enhancer", "metric"])
def test_eval_skips_every_entry_whose_external_command_cannot_start(
        tmp_path, capsys, caplog, monkeypatch, side, which):
    pairs = tmp_path / "pairs"
    main(["synth", "--out", str(pairs), "--count", "2", "--duration", "1"])
    exchange = tmp_path / "exchange"
    exchange.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(exchange))  # the metric's exchange directory
    prog = _commands_that_cannot_start(tmp_path)[which]
    enh = tmp_path / "enh.json"
    metric = "segmental_snr"
    if side == "enhancer":
        enh.write_text(json.dumps({"kind": "external", "command": f"{prog} {{input}} {{output}}",
                                   "exchange_dir": str(exchange)}))
    else:
        enh.write_text('{"kind": "identity"}')
        metric = f"external:{prog} {{reference}} {{degraded}}"
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh),
                     "--metric", metric]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["files_evaluated"], report["files_skipped"]) == (0, 2)
    assert caplog.text.count(f"external {side} could not start") == 2
    assert list(exchange.iterdir()) == []


def test_eval_skips_every_entry_whose_exchange_dir_cannot_be_made(tmp_path, capsys, caplog):
    pairs = tmp_path / "pairs"
    main(["synth", "--out", str(pairs), "--count", "2", "--duration", "1"])
    (tmp_path / "afile").write_text("")
    enh = tmp_path / "enh.json"
    enh.write_text(json.dumps({"kind": "external", "command": "cp {input} {output}",
                               "exchange_dir": str(tmp_path / "afile" / "sub")}))
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["files_evaluated"], report["files_skipped"]) == (0, 2)
    assert caplog.text.count("external enhancer could not start") == 2


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("score", ["nan", "inf"])
def test_eval_skips_every_entry_whose_external_metric_is_not_finite(tmp_path, caplog, score):
    pairs = tmp_path / "pairs"
    main(["synth", "--out", str(pairs), "--count", "2", "--duration", "1"])
    enh = tmp_path / "enh.json"
    enh.write_text('{"kind": "identity"}')
    out = tmp_path / "eval.json"
    with caplog.at_level("WARNING"):
        assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh), "--out", str(out),
                     "--metric", f'external:sh -c "echo {score}" {{reference}} {{degraded}}']) == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert (report["files_evaluated"], report["files_skipped"], report["mean_delta"]) == (0, 2, None)
    assert caplog.text.count("non-finite score") == 2


# an enhancer command template that no call could fill
UNFILLABLE_ENHANCER = {"kind": "external", "command": 'sh -c "cp $0 $1; : ${HOME}" {input} {output}'}


def test_curate_with_an_enhancer_command_no_call_could_fill_fails_at_load(tmp_path, capsys):
    cfg = write_config(tmp_path, enhancer=UNFILLABLE_ENHANCER)
    corpus = write_corpus(tmp_path, count=1)
    assert main(["curate", "--config", str(cfg), "--corpus", str(corpus / "*.wav"),
                 "--manifest", str(tmp_path / "m.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("m.jsonl*"))


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


# argv ({tmp} is the test directory), environment and a fragment of the
# one-line message, of one user error each
USER_ERRORS = [
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/enh.json",
                  "--metric", "nope"], {}, "unknown metric 'nope'", id="unknown-metric"),
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/enh.json",
                  "--metric", 'external:awk "{{print 1}}" {{reference}} {{degraded}}'], {},
                 "unknown placeholder(s) ['print 1']", id="metric-braces-no-placeholder"),
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/enh.json",
                  "--metric", "external:cp"], {}, "must contain {reference} and {degraded}",
                 id="metric-without-placeholders"),
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/enh.json",
                  "--metric", 'external:python3 -c "x {{reference}} {{degraded}}'], {},
                 "No closing quotation", id="metric-unclosed-quote"),
    # eval never reads a metric's {output} file, so naming one skipped every entry
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/enh.json",
                  "--metric", "external:cp {{reference}} {{degraded}} {{output}}"], {},
                 "unknown placeholder(s) ['output']", id="metric-with-output"),
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/unfillable.json"],
                 {}, "unknown placeholder(s) ['HOME']", id="enhancer-shell-variable"),
    pytest.param(["report", "{tmp}/missing.jsonl", "--out", "{tmp}/report"], {},
                 "manifest not found", id="report-missing-manifest"),
    pytest.param(["export-ab", "--manifest", "{tmp}/missing.jsonl", "--out", "{tmp}/ab"], {},
                 "manifest not found", id="export-missing-manifest"),
    pytest.param(["curate", "--config", "{tmp}/config.json", "--corpus", "{tmp}/corpus/*.wav",
                  "--manifest", "{tmp}/m.jsonl", "--jobs", "0"], {}, "--jobs: must be at least 1",
                 id="jobs-zero"),
    pytest.param(["synth", "--out", "{tmp}/more", "--count", "1", "--duration", "1"],
                 {"SECP_LOG": "bogus"}, "unknown log level 'bogus'", id="unknown-log-level"),
    pytest.param(["curate", "--config", "{tmp}/deep.json", "--corpus", "{tmp}/corpus/*.wav",
                  "--manifest", "{tmp}/m.jsonl"], {}, "JSON nested too deeply",
                 id="curate-config-nested-too-deep"),
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/deep.json"], {},
                 "JSON nested too deeply", id="eval-enhancer-config-nested-too-deep"),
    pytest.param(["curate", "--config", "{tmp}/missing.json", "--corpus", "{tmp}/corpus/*.wav",
                  "--manifest", "{tmp}/m.jsonl"], {}, "config file not found", id="config-missing"),
    pytest.param(["curate", "--config", "{tmp}/latin1.json", "--corpus", "{tmp}/corpus/*.wav",
                  "--manifest", "{tmp}/m.jsonl"], {}, "'utf-8' codec can't decode",
                 id="config-not-utf-8"),
]


@pytest.mark.parametrize("argv, env, says", USER_ERRORS)
def test_user_error_exits_2_with_one_line(tmp_path, capsys, caplog, monkeypatch, argv, env, says):
    main(["synth", "--out", str(tmp_path / "pairs"), "--count", "1", "--duration", "1"])
    (tmp_path / "enh.json").write_text('{"kind": "identity"}')
    (tmp_path / "unfillable.json").write_text(json.dumps(UNFILLABLE_ENHANCER))
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    (tmp_path / "latin1.json").write_bytes('{"round_id": "\u00e9"}'.encode("latin-1"))
    write_config(tmp_path)
    write_corpus(tmp_path, count=1)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert says in err
    assert not [r for r in caplog.records if r.exc_info]


@pytest.mark.parametrize("width", ["0", "nan", "-5", "inf"])
def test_report_bin_width_must_be_finite_positive(tmp_path, capsys, width):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("")
    assert main(["report", str(manifest), "--out", str(tmp_path / "r"), f"--bin-width={width}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --bin-width") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_report_bin_width_too_small_for_an_estimate_exits_2(tmp_path, capsys):
    # 50 dB over 1e-320 dB is beyond the float range, so no bin edge exists
    manifest = tmp_path / "m.jsonl"
    append_manifest(manifest, [make_segment()])
    assert main(["report", str(manifest), "--out", str(tmp_path / "r"), "--bin-width", "1e-320"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --bin-width") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag", ["--min-rho", "--max-rho"])
def test_export_ab_rho_bound_must_not_be_nan(tmp_path, capsys, flag):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("")
    out = tmp_path / "ab"
    assert main(["export-ab", "--manifest", str(manifest), "--out", str(out), f"{flag}=nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}") and err.count("\n") == 1
    assert not out.exists()


def test_export_ab_min_rho_above_max_rho_exits_2_and_writes_nothing(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    append_manifest(manifest, [make_segment(frame_rho=[50.0] * 12)])
    out = tmp_path / "ab"
    assert main(["export-ab", "--manifest", str(manifest), "--out", str(out),
                 "--min-rho", "60", "--max-rho", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --min-rho") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_report_with_a_missing_manifest_exits_2_and_writes_nothing(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    append_manifest(manifest, [make_segment()])
    out = tmp_path / "rep"
    assert main(["report", str(manifest), str(tmp_path / "missing.jsonl"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: manifest not found") and err.count("\n") == 1
    assert not out.exists()


# argv ({tmp} is the test directory) naming an output location that cannot
# be made: afile is a regular file, adir a directory
OUTPUT_LOCATION_ERRORS = [
    pytest.param(["report", "{tmp}/m.jsonl", "--out", "{tmp}/afile"], id="report-out-a-file"),
    pytest.param(["export-ab", "--manifest", "{tmp}/m.jsonl", "--out", "{tmp}/afile"],
                 id="export-ab-out-a-file"),
    pytest.param(["synth", "--out", "{tmp}/afile", "--count", "1", "--duration", "1"],
                 id="synth-out-a-file"),
    pytest.param(["curate", "--config", "{tmp}/config.json", "--corpus", "{tmp}/corpus/*.wav",
                  "--manifest", "{tmp}/afile/m.jsonl"], id="curate-manifest-under-a-file"),
    pytest.param(["curate", "--config", "{tmp}/config.json", "--corpus", "{tmp}/corpus/*.wav",
                  "--manifest", "{tmp}/adir"], id="curate-manifest-a-directory"),
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/enh.json",
                  "--out", "{tmp}/afile/eval.json"], id="eval-out-under-a-file"),
    pytest.param(["eval", "--pairs", "{tmp}/pairs", "--enhancer-config", "{tmp}/enh.json",
                  "--out", "{tmp}/adir"], id="eval-out-a-directory"),
]


@pytest.mark.parametrize("argv", OUTPUT_LOCATION_ERRORS)
def test_output_location_that_cannot_be_made_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    main(["synth", "--out", str(tmp_path / "pairs"), "--count", "1", "--duration", "1"])
    (tmp_path / "enh.json").write_text('{"kind": "identity"}')
    write_config(tmp_path)
    write_corpus(tmp_path, count=1)
    append_manifest(tmp_path / "m.jsonl", [make_segment(source_uri=str(tmp_path / "corpus" / "f0.wav"))])
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before


def test_eval_makes_the_directory_of_its_out(tmp_path):
    main(["synth", "--out", str(tmp_path / "pairs"), "--count", "1", "--duration", "1"])
    (tmp_path / "enh.json").write_text('{"kind": "identity"}')
    out = tmp_path / "new" / "eval.json"
    assert main(["eval", "--pairs", str(tmp_path / "pairs"), "--enhancer-config",
                 str(tmp_path / "enh.json"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["files_evaluated"] == 1


@pytest.mark.parametrize("argv, code, err", [
    pytest.param(["report", "{tmp}/m.jsonl", "--out", "{tmp}/rep"], 0, "", id="ok"),
    pytest.param(["report", "{tmp}/missing.jsonl", "--out", "{tmp}/rep"], 2,
                 "config error: manifest not found", id="config-error"),
])
def test_python_m_speechmine_runs_the_cli(tmp_path, argv, code, err):
    append_manifest(tmp_path / "m.jsonl", [make_segment()])
    src = str(Path(speechmine.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "speechmine", *(a.format(tmp=tmp_path) for a in argv)],
                          env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert proc.stderr.startswith(err)
    assert (tmp_path / "rep" / "report.json").is_file() == (code == 0)


# Rounds 0-2 over two manifests, with lines that are skipped and counted
# (not JSON, a bad field, a second document, a bad UTF-8 byte, a JSON list)
# and lines that are passed over (blank, whitespace only). Every record
# holds a tie-breaking special: -0.0 and -5e-324 bin as "0", 100.00011 and
# 100.00021 share the key "100" at --bin-width 1e-4.
SPECIAL_RHO = [-0.0, -5e-324, 100.00011, 100.00021, -1.0e9]


def _report_manifests(tmp_path):
    rng = np.random.default_rng(16)

    def records(rounds, count):
        lines = []
        for i in range(count):
            rate = (48000, 16000, 44100)[i % 3]
            flen = rate // (1, 2, 4)[i % 3]
            rho = rng.uniform(-20.0, 105.0, 12).tolist()
            rho[i % 12] = SPECIAL_RHO[i % len(SPECIAL_RHO)]
            seg = make_segment(round_id=rounds[i % len(rounds)], sample_rate=rate,
                               start_sample=i * 12 * flen, end_sample=(i + 1) * 12 * flen,
                               frame_rho=rho, frame_fc=[rate / 2] * 12)
            lines.append(seg.to_json().encode() + b"\n")
        return lines

    first = records([0, 1], 40)
    first[3:3] = [b"not json\n", b"\n", b'{"source_uri": "x"}\n']
    first[20:20] = [first[0][:-1] + b" {}\n", b"\x0c \n", b"\xff\xfe\n"]
    second = records([2, 1], 30)
    second[10:10] = [b"[1, 2]\n"]
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path, lines in zip(paths, (first, second)):
        path.write_bytes(b"".join(lines))
    return paths


# SHA-256 of the report files of _report_manifests, as written before the
# manifests were streamed and binned with numpy
REPORT_SHA256 = {
    "5.0": {
        "accepted_hours.csv": "15be86f7f6bed1e229dece7e07d465e36371ad60fc8ca1f1fa3e0935d82e57b8",
        "report.json": "bb65915f22e4a452bfc9fd339cf1c080602e5fce49c7ef74d0b632a833738f9d",
        "rho_histogram.csv": "0976983c62b9a9cc12a7bf34258e674b0b76a0b74238907ecdcba5a24bd61762",
    },
    "0.0001": {
        "accepted_hours.csv": "15be86f7f6bed1e229dece7e07d465e36371ad60fc8ca1f1fa3e0935d82e57b8",
        "report.json": "451652ff77547b806d346df1935a4c489a975319f8fb37a625cd63bb4ade939b",
        "rho_histogram.csv": "87482f6b32c6dead6b44906a62a0b858c8e9e8b70ffe1b01ec9df7da2a5092ed",
    },
}


@pytest.mark.parametrize("width", sorted(REPORT_SHA256))
def test_report_files_are_unchanged(tmp_path, caplog, width):
    paths = _report_manifests(tmp_path)
    out = tmp_path / "rep"
    with caplog.at_level("WARNING"):
        assert main(["report", *map(str, paths), "--out", str(out), f"--bin-width={width}"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == REPORT_SHA256[width]
    summaries = [r.getMessage() for r in caplog.records if "malformed record(s)" in r.getMessage()]
    assert summaries == [f"{paths[0]}: skipped 4 malformed record(s)",
                         f"{paths[1]}: skipped 1 malformed record(s)"]


def _traced_peak(argv):
    """Bytes the call allocated at its peak, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    """report and export-ab hold no list of the manifest's records: four
    times the records keep the traced peak within 10%."""

    N = 1500  # 750 records a round: each round's SNR buffer fills before the end

    def _manifest(self, path, count):
        """count records over rounds 0 and 1, none of which reach --min-rho 60."""
        rng = np.random.default_rng(count)
        segments = []
        for i in range(count):
            rho = rng.uniform(21.0, 99.0, 12)
            rho[0] = 30.0
            segments.append(make_segment(round_id=i % 2, start_sample=i * 12 * FS,
                                         end_sample=(i + 1) * 12 * FS, frame_rho=rho.tolist()))
        append_manifest(path, segments)
        return path

    def test_report_peak_does_not_grow_with_the_manifest(self, tmp_path):
        peaks = []
        for count in (50, self.N, 4 * self.N):  # the first run only warms up
            manifest = self._manifest(tmp_path / f"m{count}.jsonl", count)
            peaks.append(_traced_peak(["report", str(manifest), "--out", str(tmp_path / f"r{count}")]))
        assert peaks[2] <= 1.1 * peaks[1]

    def test_export_ab_peak_does_not_grow_with_the_manifest(self, tmp_path):
        rate, flen = 1000, 100
        src = tmp_path / "src.wav"
        write_wav(src, AudioBuffer(np.sin(np.arange(3 * 12 * flen) / 7.0) * 0.5, rate))
        peaks = []
        for count in (50, self.N, 4 * self.N):
            manifest = self._manifest(tmp_path / f"m{count}.jsonl", count)
            append_manifest(manifest, [
                make_segment(source_uri=str(src), sample_rate=rate, start_sample=k * 12 * flen,
                             end_sample=(k + 1) * 12 * flen, frame_rho=[70.0] * 12,
                             frame_fc=[rate / 2] * 12)
                for k in range(3)
            ])
            out = tmp_path / f"ab{count}"
            peaks.append(_traced_peak(["export-ab", "--manifest", str(manifest), "--out", str(out),
                                       "--min-rho", "60"]))
            assert len(list(out.glob("*.wav"))) == 6
        assert peaks[2] <= 1.1 * peaks[1]


# A round with a non-default STFT: a 12-s spectral-gate mix at 30 dB SNR
# curates 3 four-second segments, the whole file, under a 1024-sample window.
STFT_1024 = CurationConfig(segment_seconds=4.0, stft=StftConfig(window_len=1024))


class TestExportRoundConfig:
    def _round(self, tmp_path):
        noisy, _ = inject_noise(synth_clean(12.0, FS, seed=0), NoiseSpec(snr_clip=(30.0, 30.5), seed=1))
        src = tmp_path / "corpus" / "mix.wav"
        src.parent.mkdir()
        write_wav(src, noisy)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(STFT_1024.to_dict()))
        manifest = tmp_path / "m.jsonl"
        assert main(["curate", "--config", str(cfg_path), "--corpus", str(src),
                     "--manifest", str(manifest)]) == 0
        segments, _ = load_manifest(manifest)
        assert len(segments) == 3
        return manifest, segments, read_wav(src)

    def _exported(self, out, segments, buf, stft_cfg):
        """Whether every exported enhanced side equals, as float32, the
        enhancement of its source under stft_cfg."""
        enhanced = enhance(buf, STFT_1024.enhancer, stft_cfg).samples.astype(np.float32)
        return all(
            np.array_equal(read_wav(out / f"mix_r0_{seg.start_sample}_enhanced.wav").samples,
                           enhanced[seg.start_sample:seg.end_sample])
            for seg in segments
        )

    def test_enhanced_side_is_the_scored_enhancement(self, tmp_path):
        manifest, segments, buf = self._round(tmp_path)
        out = tmp_path / "ab"
        assert main(["export-ab", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert self._exported(out, segments, buf, STFT_1024.stft)
        assert not self._exported(out, segments, buf, StftConfig())

    @pytest.mark.parametrize("spoil", [
        pytest.param(lambda p: p.unlink(), id="missing"),
        pytest.param(lambda p: p.write_text(p.read_text()[:200]), id="torn"),
        pytest.param(lambda p: p.write_text('{"round_id": 0, "failures": []}'), id="no-config"),
        pytest.param(lambda p: p.write_text(DEEP_JSON), id="nested-too-deep"),
    ])
    def test_report_without_config_falls_back_logged_once(self, tmp_path, caplog, spoil):
        manifest, segments, buf = self._round(tmp_path)
        spoil(tmp_path / "m.jsonl.round0.report.json")
        out = tmp_path / "ab"
        with caplog.at_level("WARNING"):
            assert main(["export-ab", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert self._exported(out, segments, buf, StftConfig())
        fallback = [r.getMessage() for r in caplog.records if "no round config;" in r.getMessage()]
        assert fallback == ["3 segment(s) have no round config; their enhancer_id and the "
                            "default STFT were used"]

    def test_override_config_replaces_enhancer_and_stft(self, tmp_path):
        manifest, segments, buf = self._round(tmp_path)
        override = tmp_path / "override.json"
        # neither the round's STFT nor the fallback's default one
        override.write_text(json.dumps(CurationConfig(stft=StftConfig(window_len=512)).to_dict()))
        out = tmp_path / "ab"
        assert main(["export-ab", "--manifest", str(manifest), "--out", str(out),
                     "--enhancer-config", str(override)]) == 0
        assert self._exported(out, segments, buf, StftConfig(window_len=512))
        assert not self._exported(out, segments, buf, StftConfig())


# eval's deltas on a fixed corpus, committed from a run: seed 6 draws a
# 33.6-dB mix whose frames reach the metric's 35-dB clamp, so a change of the
# clamp moves them too
EVAL_LOCK_DELTAS = {"noisy_000.wav": -14.63891852088835, "noisy_001.wav": -14.76415294161065,
                    "noisy_002.wav": -4.138147499468243}


def test_eval_report_is_locked(tmp_path, capsys):
    pairs = tmp_path / "pairs"
    main(["synth", "--out", str(pairs), "--count", "3", "--duration", "3", "--seed", "6"])
    enh = tmp_path / "enh.json"
    enh.write_text('{"kind": "spectral_gate"}')
    capsys.readouterr()
    assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh)]) == 0
    report = json.loads(capsys.readouterr().out)
    per_file, mean = report.pop("per_file"), report.pop("mean_delta")
    assert report == {"metric": "segmental_snr", "enhancer": '{"kind":"spectral_gate"}',
                      "stft": {"window_len": 2048, "hop": 512, "window": "hann"},
                      "files_evaluated": 3, "files_skipped": 0}
    assert [f["noisy"] for f in per_file] == list(EVAL_LOCK_DELTAS)
    for f in per_file:
        assert abs(f["delta"] - EVAL_LOCK_DELTAS[f["noisy"]]) <= 1e-9, f
    assert abs(mean - sum(EVAL_LOCK_DELTAS.values()) / 3) <= 1e-9


class TestEvalConfig:
    @pytest.mark.parametrize("data, used, unused", [
        pytest.param(STFT_1024.to_dict(), STFT_1024.stft, StftConfig(), id="config-1024"),
        pytest.param({"kind": "spectral_gate"}, StftConfig(), STFT_1024.stft, id="bare-spec"),
        pytest.param({"stft": {"window_len": 1024}}, StftConfig(window_len=1024), StftConfig(),
                     id="config-without-enhancer"),
    ])
    def test_config_stft_is_used(self, tmp_path, capsys, data, used, unused):
        pairs = tmp_path / "pairs"
        main(["synth", "--out", str(pairs), "--count", "1", "--duration", "3", "--seed", "2"])
        enh = tmp_path / "enh.json"
        enh.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stft"] == encode(used) != encode(unused)
        got = report["per_file"][0]["delta"]
        clean, noisy = read_wav(pairs / "clean_000.wav"), read_wav(pairs / "noisy_000.wav")
        spec = EnhancerSpec("spectral_gate")

        def delta(cfg):
            return delta_quality(EvalTriple.from_components(clean, noisy, enhance(noisy, spec, cfg)))

        assert got == delta(used)
        assert got != delta(unused)

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs"
        main(["synth", "--out", str(pairs), "--count", "1", "--duration", "1"])
        enh = tmp_path / "enh.json"
        enh.write_text(json.dumps({**STFT_1024.to_dict(), "stfft": 1}))
        capsys.readouterr()
        assert main(["eval", "--pairs", str(pairs), "--enhancer-config", str(enh)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "stfft" in captured.err
