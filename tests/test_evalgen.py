"""Synthetic generation, noise injection and quality-delta tests."""

import numpy as np
import pytest

from helpers import make_segment, white_noise
from speechmine.audio_io import AudioBuffer, frame_matrix
from speechmine.curation import ManifestReader, append_manifest
from speechmine.dsp import StftConfig, estimate_cutoff, rms_db
from speechmine.evalgen import (
    EvalTriple,
    NoiseSpec,
    accepted_hours,
    delta_quality,
    draw_target_snr,
    inject_noise,
    rho_histogram,
    segmental_snr,
    synth_clean,
)

FS = 48000


class TestSynthClean:
    def test_deterministic(self):
        a = synth_clean(5.0, FS, seed=9)
        b = synth_clean(5.0, FS, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_length(self):
        assert len(synth_clean(10.0, FS, seed=0)) == 480_000

    def test_peak_at_most_minus_three_dbfs(self):
        buf = synth_clean(8.0, FS, seed=1)
        assert np.max(np.abs(buf.samples)) <= 10 ** (-3.0 / 20) + 1e-12

    def test_voiced_frame_is_full_band(self):
        buf = synth_clean(6.0, FS, seed=2)
        frames = frame_matrix(buf.samples, FS)
        cutoffs = [estimate_cutoff(frame, FS, StftConfig()) for frame in frames]
        assert min(cutoffs) >= 0.9 * FS / 2

    def test_contains_silent_gaps(self):
        buf = synth_clean(10.0, FS, seed=3)
        win = np.convolve(np.abs(buf.samples), np.ones(480) / 480, mode="same")
        assert (win < 1e-6).mean() > 0.05

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            synth_clean(0.0, FS)


class TestNoiseSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="noise_kind"):
            NoiseSpec(noise_kind="brown")

    def test_bad_clip(self):
        with pytest.raises(ValueError, match="snr_clip"):
            NoiseSpec(snr_clip=(10.0, 10.0))

    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            NoiseSpec(rayleigh_sigma=0.0)


class TestInjectNoise:
    def test_forced_target_gives_exact_ratio(self):
        clean = synth_clean(2.0, FS, seed=4)
        spec = NoiseSpec(snr_clip=(20.0, 20.0 + 1e-9), seed=5)
        noisy, target = inject_noise(clean, spec)
        lo, hi = spec.snr_clip
        assert lo <= target <= hi
        realized = rms_db(clean.samples) - rms_db(noisy.samples - clean.samples)
        assert realized == pytest.approx(target, abs=1e-9)

    def test_same_seed_identical(self):
        clean = synth_clean(1.0, FS, seed=6)
        a, ta = inject_noise(clean, NoiseSpec(seed=7))
        b, tb = inject_noise(clean, NoiseSpec(seed=7))
        assert ta == tb
        assert np.array_equal(a.samples, b.samples)

    def test_silence_rejected(self):
        with pytest.raises(ValueError, match="silence"):
            inject_noise(AudioBuffer(np.zeros(FS), FS), NoiseSpec(seed=0))

    @pytest.mark.parametrize("kind", ["white", "pink", "babble_proxy"])
    def test_all_kinds_hit_target(self, kind):
        clean = synth_clean(1.0, FS, seed=8)
        noisy, target = inject_noise(clean, NoiseSpec(noise_kind=kind, seed=9))
        realized = rms_db(clean.samples) - rms_db(noisy.samples - clean.samples)
        assert realized == pytest.approx(target, abs=0.01)

    def test_rayleigh_mean_rough(self):
        rng = np.random.default_rng(10)
        spec = NoiseSpec(rayleigh_sigma=15.0, snr_clip=(0.0, 1e9))
        draws = np.array([draw_target_snr(spec, rng) for _ in range(1000)])
        assert draws.mean() == pytest.approx(15.0 * np.sqrt(np.pi / 2), rel=0.05)


class TestSegmentalSnr:
    def test_identical_hits_upper_clamp(self):
        buf = synth_clean(1.0, FS, seed=11)
        assert segmental_snr(buf, buf) == 35.0

    def test_inverted_signal_closed_form(self):
        buf = synth_clean(1.0, FS, seed=12)
        inverted = AudioBuffer(-buf.samples, FS)
        # error energy is 4x the reference on every counted frame
        assert segmental_snr(buf, inverted) == pytest.approx(10 * np.log10(0.25), abs=0.01)

    def test_per_frame_ten_db_noise(self):
        rng = np.random.default_rng(13)
        ref = synth_clean(2.0, FS, seed=14)
        flen = int(FS * 0.032)
        deg = ref.samples.copy()
        count = len(ref) // flen
        for i in range(count):
            seg = slice(i * flen, (i + 1) * flen)
            ref_e = np.sum(ref.samples[seg] ** 2)
            if ref_e == 0:
                continue
            noise = rng.standard_normal(flen)
            noise *= np.sqrt(ref_e / np.sum(noise**2) / 10.0)  # frame SNR exactly 10 dB
            deg[seg] += noise
        got = segmental_snr(ref, AudioBuffer(deg, FS))
        assert got == pytest.approx(10.0, abs=0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            segmental_snr(AudioBuffer(np.zeros(100), FS), AudioBuffer(np.zeros(99), FS))

    def test_signal_shorter_than_one_frame_rejected(self):
        short = AudioBuffer(np.ones(int(FS * 0.032) - 1), FS)
        with pytest.raises(ValueError, match="shorter than one metric frame"):
            segmental_snr(short, short)

    def test_silent_reference_rejected(self):
        silent = AudioBuffer(np.zeros(FS), FS)
        with pytest.raises(ValueError, match="screen"):
            segmental_snr(silent, silent)


class TestDeltaQuality:
    def _triple(self, seed=15, snr=(10.0, 10.0 + 1e-9)):
        clean = synth_clean(2.0, FS, seed=seed)
        noisy, _ = inject_noise(clean, NoiseSpec(snr_clip=snr, seed=seed + 1))
        return clean, noisy

    def test_enhanced_equals_noisy_gives_zero(self):
        clean, noisy = self._triple()
        triple = EvalTriple.from_components(clean, noisy, noisy)
        assert delta_quality(triple) == 0.0

    def test_enhanced_equals_clean_is_positive(self):
        clean, noisy = self._triple()
        triple = EvalTriple.from_components(clean, noisy, clean)
        assert delta_quality(triple) > 0.0

    def test_unknown_metric_rejected(self):
        clean, noisy = self._triple()
        triple = EvalTriple.from_components(clean, noisy, noisy)
        with pytest.raises(ValueError, match="unknown metric"):
            delta_quality(triple, "pesq")

    def test_external_metric_command(self):
        clean, noisy = self._triple()
        triple = EvalTriple.from_components(clean, noisy, clean)
        metric = 'external:python3 -c "print(4.5)" {reference} {degraded}'
        assert delta_quality(triple, metric) == 0.0

    def test_external_metric_literal_braces_are_no_placeholder(self):
        # the program gets the text {output}, so no output file is looked for
        clean, noisy = self._triple()
        triple = EvalTriple.from_components(clean, noisy, clean)
        metric = """external:python3 -c "print(4.5) or '{{output}}'" {reference} {degraded}"""
        assert delta_quality(triple, metric) == 0.0

    def test_external_metric_without_score_names_it(self):
        clean, noisy = self._triple()
        triple = EvalTriple.from_components(clean, noisy, clean)
        with pytest.raises(ValueError, match="no score"):
            delta_quality(triple, 'external:python3 -c "pass" {reference} {degraded}')

    def test_triple_length_mismatch_rejected(self):
        clean, noisy = self._triple()
        short = AudioBuffer(clean.samples[:-1], FS)
        with pytest.raises(ValueError, match="disagree"):
            EvalTriple(clean, noisy, short)

    def test_components_of_different_lengths_rejected_before_framing(self):
        clean = synth_clean(1.0, FS, seed=15)
        noisy = synth_clean(2.0, FS, seed=15)
        with pytest.raises(ValueError, match=r"triple buffers disagree: lengths \{(48000, 96000|96000, 48000)\}"):
            EvalTriple.from_components(clean, noisy, noisy)

    def test_true_snr_per_frame(self):
        clean = synth_clean(3.0, FS, seed=16)
        noise = white_noise(len(clean), np.sqrt(np.mean(clean.samples**2)) / 10, np.random.default_rng(17))
        noisy = AudioBuffer(clean.samples + noise, FS)
        triple = EvalTriple.from_components(clean, noisy, noisy)
        frames = frame_matrix(clean.samples, FS)
        nframes = frame_matrix(noise, FS)
        want = [rms_db(frame) - rms_db(nframe) for frame, nframe in zip(frames, nframes)]
        assert np.array_equal(triple.true_snr_db, want)


class TestManifestReports:
    def test_single_segment_histogram(self, tmp_path):
        path = tmp_path / "m.jsonl"
        append_manifest(path, [make_segment(frame_rho=[22.0] * 12)])
        hist = rho_histogram(ManifestReader(path))
        assert hist == {0: {"20": 12}}

    def test_two_rounds_labeled(self, tmp_path):
        path = tmp_path / "m.jsonl"
        append_manifest(path, [
            make_segment(round_id=1, frame_rho=[31.0] * 12),
            make_segment(round_id=2, frame_rho=[52.0] * 12),
        ])
        hist = rho_histogram(ManifestReader(path))
        assert set(hist) == {1, 2}
        assert hist[1] == {"30": 12}
        assert hist[2] == {"50": 12}

    def test_histogram_matches_linear_count(self, tmp_path):
        rng = np.random.default_rng(18)
        segments = [
            make_segment(
                round_id=int(rng.integers(0, 3)),
                start_sample=i * 12 * FS,
                end_sample=(i + 1) * 12 * FS,
                frame_rho=list(rng.uniform(20.5, 99, 12)),
            )
            for i in range(40)
        ]
        path = tmp_path / "m.jsonl"
        append_manifest(path, segments)
        hist = rho_histogram(ManifestReader(path))
        for rid in set(s.round_id for s in segments):
            values = [r for s in segments if s.round_id == rid for r in s.frame_rho]
            for key, count in hist[rid].items():
                edge = float(key)
                want = sum(1 for v in values if edge <= v < edge + 5)
                assert count == want
            assert sum(hist[rid].values()) == len(values)

    def test_accepted_hours_exact(self, tmp_path):
        path = tmp_path / "m.jsonl"
        append_manifest(
            path,
            [
                make_segment(start_sample=i * 12 * FS, end_sample=(i + 1) * 12 * FS)
                for i in range(300)
            ],
        )
        assert accepted_hours(ManifestReader(path)) == {0: 1.0}

    def test_accepted_hours_empty(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert accepted_hours(ManifestReader(path)) == {}

    def test_accepted_hours_mixed_rounds_matches_scan(self, tmp_path):
        rng = np.random.default_rng(19)
        segments = [
            make_segment(
                round_id=int(rng.integers(0, 4)),
                start_sample=i * 12 * FS,
                end_sample=(i + 1) * 12 * FS,
            )
            for i in range(25)
        ]
        path = tmp_path / "m.jsonl"
        append_manifest(path, segments)
        got = accepted_hours(ManifestReader(path))
        for rid, hours in got.items():
            want = sum(12.0 for s in segments if s.round_id == rid) / 3600.0
            assert hours == pytest.approx(want, abs=1e-12)
