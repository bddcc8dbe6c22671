"""Enhancer backend tests: identity, spectral gate, oracle, external."""

import json
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import SCRIPT_PREAMBLE, burst_env
from speechmine.audio_io import AudioBuffer, read_wav, write_wav
from speechmine.dsp import StftConfig, stft
from speechmine.enhance import (
    MAX_TIMEOUT_S,
    EnhancerError,
    EnhancerSpec,
    enhance,
    spectral_gate_enhance,
)
from speechmine.schema import ConfigError, decode

FS = 48000


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


class TestEnhancerSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            EnhancerSpec("wiener")

    def test_negative_attenuation_rejected(self):
        with pytest.raises(ValueError, match="attenuation"):
            EnhancerSpec("spectral_gate", {"attenuation_db": -3.0})

    def test_numpy_gate_threshold_whose_ratio_overflows_rejected(self):
        # a numpy float's power overflows to inf with a warning, where a float's raises
        with pytest.raises(ValueError, match="gate_threshold_db"):
            EnhancerSpec("spectral_gate", {"gate_threshold_db": np.float64(1e308)})

    def test_gate_threshold_whose_ratio_overflows_rejected(self):
        # 10 ** (1e308 / 20) failed every file with OverflowError; 300 dB still gates
        with pytest.raises(ValueError, match="gate_threshold_db"):
            EnhancerSpec("spectral_gate", {"gate_threshold_db": 1e308})
        spec = EnhancerSpec("spectral_gate", {"gate_threshold_db": 300.0})
        x = np.random.default_rng(0).normal(0, 0.1, 3 * FS)
        y = enhance(AudioBuffer(x, FS), spec, StftConfig()).samples
        assert len(y) == len(x) and np.isfinite(y).all()

    def test_gate_threshold_whose_limit_overflows_gates_every_cell_silently(self):
        # floor x 10 ** (6165 / 20) overflows to inf, which gates every cell
        spec = EnhancerSpec("spectral_gate", {"gate_threshold_db": 6165.0})
        x = np.random.default_rng(0).normal(0, 0.1, FS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = enhance(AudioBuffer(x, FS), spec, StftConfig()).samples
        np.testing.assert_allclose(y, 0.01 * x, rtol=0, atol=1e-12)

    def test_oracle_requires_reference_dir(self):
        with pytest.raises(ValueError, match="reference_dir"):
            EnhancerSpec("oracle")

    def test_external_requires_placeholders(self):
        with pytest.raises(ValueError, match="placeholder|{input}"):
            EnhancerSpec("external", {"command": "denoise in out"})

    @pytest.mark.parametrize("command", [
        pytest.param('sh -c "cp $0 $1; : ${HOME}" {input} {output}', id="shell-variable"),
        pytest.param('awk "{print 1}" {input} {output}', id="awk-program"),
        pytest.param("denoise {input} {output} {input.real}", id="attribute"),
        pytest.param("denoise {} {input} {output}", id="positional"),
        pytest.param("denoise {input!r} {output}", id="conversion"),
        pytest.param("denoise {input:>40} {output}", id="format-spec"),
        pytest.param('denoise "{input} {output}', id="unclosed-quote"),
        pytest.param("denoise {input} {output", id="unclosed-brace"),
        pytest.param("denoise {input} {output} }", id="lone-brace"),
    ])
    def test_external_command_no_call_could_fill_rejected(self, command):
        with pytest.raises(ConfigError, match="external enhancer command"):
            EnhancerSpec("external", {"command": command})

    def test_identifier_round_trip(self):
        spec = EnhancerSpec("spectral_gate", {"gate_threshold_db": 12.0, "attenuation_db": 30.0})
        again = decode(EnhancerSpec, json.loads(spec.identifier()), "enhancer")
        assert again == spec


class TestIdentity:
    def test_bit_identical(self):
        rng = np.random.default_rng(0)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, 12345), FS)
        out = enhance(buf, EnhancerSpec("identity"), StftConfig())
        assert np.array_equal(out.samples, buf.samples)
        assert out.samples is not buf.samples

    def test_deterministic(self):
        buf = AudioBuffer(np.linspace(-0.1, 0.1, 5000), FS)
        a = enhance(buf, EnhancerSpec("identity"), StftConfig())
        b = enhance(buf, EnhancerSpec("identity"), StftConfig())
        assert np.array_equal(a.samples, b.samples)


class TestSpectralGate:
    def test_silence_stays_silent(self):
        out = spectral_gate_enhance(AudioBuffer(np.zeros(FS), FS), StftConfig())
        assert not out.samples.any()

    def test_zero_attenuation_is_noop_within_roundtrip_error(self):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(FS) * 0.2
        out = spectral_gate_enhance(AudioBuffer(x, FS), cfg, 20.0, 0.0)
        assert np.max(np.abs(out.samples - x)) < 1e-9  # edges included

    def test_short_buffer_returned_unchanged_with_warning(self, caplog):
        x = np.linspace(0, 0.1, 500)
        with caplog.at_level("WARNING"):
            out = spectral_gate_enhance(AudioBuffer(x, FS), StftConfig())
        assert np.array_equal(out.samples, x)
        assert "shorter" in caplog.text

    def test_burst_tone_kept_noise_floor_gated(self):
        # Steady content defines its own percentile floor, so the probe tone
        # ducks on and off; its on-air level must survive while the hiss
        # between bursts drops by at least the gate margin.
        cfg = StftConfig()
        rng = np.random.default_rng(2)
        n = 4 * FS
        k = 200
        env = burst_env(n, FS, period_s=1.0, on_s=0.5, ramp_s=0.01)
        tone = np.sin(2 * np.pi * (k * FS / cfg.window_len) * np.arange(n) / FS) * env
        tone *= 10 ** (-6 / 20) / rms(tone[env == 1.0])
        noise = rng.standard_normal(n)
        noise *= 10 ** (-60 / 20) / rms(noise)
        mix = AudioBuffer(tone + noise, FS)
        out = spectral_gate_enhance(mix, cfg, 20.0, 40.0)

        margin = int(0.1 * FS)
        on_core = np.zeros(n, bool)
        off_core = np.zeros(n, bool)
        for p in range(4):
            on_core[p * FS + margin : p * FS + FS // 2 - margin] = True
            off_core[p * FS + FS // 2 + margin : (p + 1) * FS - margin] = True
        tone_change = 20 * np.log10(rms(out.samples[on_core]) / rms(mix.samples[on_core]))
        assert abs(tone_change) < 1.0
        off_change = 20 * np.log10(rms(out.samples[off_core]) / rms(mix.samples[off_core]))
        assert off_change <= -25.0

        # the tone's own bin, measured on full-level frames
        s_in, s_out = stft(mix.samples, cfg)[:, k], stft(out.samples, cfg)[:, k]
        rows = np.abs(s_in) > 0.9 * np.abs(s_in).max()
        bin_change = 20 * np.log10(np.abs(s_out)[rows].mean() / np.abs(s_in)[rows].mean())
        assert abs(bin_change) < 1.0

    def test_residual_avoids_speech_cells(self):
        # Sparse harmonic bursts + hiss: what the gate removes must sit in
        # time-frequency cells the harmonics do not occupy.
        cfg = StftConfig()
        rng = np.random.default_rng(3)
        n = 4 * FS
        t = np.arange(n)
        harm = sum(
            np.sin(2 * np.pi * 220.0 * j * t / FS + 0.7 * j) / np.sqrt(j) for j in range(1, 21)
        )
        clean = harm * burst_env(n, FS, period_s=1.0, on_s=0.6, ramp_s=0.02)
        clean *= 0.5 / np.max(np.abs(clean))
        hiss = rng.standard_normal(n)
        hiss *= 10 ** (-40 / 20) * rms(clean) / rms(hiss)
        mix = AudioBuffer(clean + hiss, FS)
        out = spectral_gate_enhance(mix, cfg, 20.0, 40.0)

        cov = ((n - cfg.window_len) // cfg.hop) * cfg.hop + cfg.window_len
        resid = (mix.samples - out.samples)[:cov]
        res_energy = np.abs(stft(resid, cfg)) ** 2
        clean_mag = np.abs(stft(clean[:cov], cfg))
        hiss_mag = np.abs(stft(hiss[:cov], cfg))
        speech_cells = clean_mag > 3 * np.median(hiss_mag)
        assert res_energy[speech_cells].sum() / res_energy.sum() < 0.15

        # hiss in the silent stretches is essentially fully removed
        margin = int(0.1 * FS)
        off_core = np.zeros(cov, bool)
        for p in range(cov // FS):
            off_core[p * FS + int(0.6 * FS) + margin : min((p + 1) * FS - margin, cov)] = True
        assert np.mean(resid[off_core] ** 2) / np.mean(hiss[:cov][off_core] ** 2) > 0.9

    def test_peak_memory_bounded_by_spectrum_size(self):
        # The floor takes a block of bins at a time and the gate a block of
        # frames, in place in the one complex spectrum, and the spectrum is
        # freed before the padded output exists: the traced peak is the
        # spectrum, the inverse transform's output (a quarter of the
        # spectrum at hop = w/4) and block temporaries, under 1.5x the
        # spectrum's bytes.
        cfg = StftConfig()
        n = 20 * FS
        buf = AudioBuffer(np.random.default_rng(3).standard_normal(n) * 0.1, FS)
        steps = (n - cfg.window_len) // cfg.hop + 1
        spectrum_bytes = steps * (cfg.window_len // 2 + 1) * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            spectral_gate_enhance(buf, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * spectrum_bytes


class TestOracle:
    def test_returns_reference_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        clean = rng.uniform(-0.4, 0.4, FS).astype(np.float32).astype(np.float64)
        noisy = clean + rng.standard_normal(FS).astype(np.float32) * 0.01
        (tmp_path / "ref").mkdir()
        write_wav(tmp_path / "ref" / "a.wav", AudioBuffer(clean, FS))
        write_wav(tmp_path / "a.wav", AudioBuffer(noisy, FS))
        buf = read_wav(tmp_path / "a.wav")
        out = enhance(buf, EnhancerSpec("oracle", {"reference_dir": str(tmp_path / "ref")}), StftConfig())
        assert np.array_equal(out.samples, clean)

    def test_missing_reference_reported(self, tmp_path):
        (tmp_path / "ref").mkdir()
        buf = AudioBuffer(np.zeros(100), FS, source=str(tmp_path / "b.wav"))
        with pytest.raises(EnhancerError, match="reference not found"):
            enhance(buf, EnhancerSpec("oracle", {"reference_dir": str(tmp_path / "ref")}), StftConfig())

    def test_reference_at_another_rate_reported(self, tmp_path):
        (tmp_path / "ref").mkdir()
        write_wav(tmp_path / "ref" / "a.wav", AudioBuffer(np.zeros(100), FS // 2))
        buf = AudioBuffer(np.zeros(100), FS, source=str(tmp_path / "a.wav"))
        with pytest.raises(EnhancerError, match="expected 48000 Hz, got 24000 from .*ref/a.wav"):
            enhance(buf, EnhancerSpec("oracle", {"reference_dir": str(tmp_path / "ref")}), StftConfig())

    def test_sourceless_buffer_rejected(self, tmp_path):
        buf = AudioBuffer(np.zeros(100), FS)
        with pytest.raises(EnhancerError, match="source"):
            enhance(buf, EnhancerSpec("oracle", {"reference_dir": str(tmp_path)}), StftConfig())


class TestExternal:
    def test_copy_command_round_trips(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.5, 0.5, 10000).astype(np.float32).astype(np.float64)
        spec = EnhancerSpec(
            "external",
            {
                "command": 'python3 -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])" {input} {output}',
                "exchange_dir": str(tmp_path),
            },
        )
        out = enhance(AudioBuffer(x, FS), spec, StftConfig())
        assert np.array_equal(out.samples, x)

    def test_literal_braces_reach_the_program(self, tmp_path):
        x = np.linspace(-0.5, 0.5, 1000).astype(np.float32).astype(np.float64)
        spec = EnhancerSpec(
            "external",
            {"command": 'python3 -c "import shutil,sys; assert {{}} == {{}}; '
                        'shutil.copy(sys.argv[1], sys.argv[2])" {input} {output}',
             "exchange_dir": str(tmp_path)},
        )
        assert np.array_equal(enhance(AudioBuffer(x, FS), spec, StftConfig()).samples, x)

    def test_files_left_beside_the_output_go_with_the_call(self, tmp_path):
        exchange = tmp_path / "exchange"
        spec = EnhancerSpec(
            "external",
            {"command": 'python3 -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2]); '
                        "open(sys.argv[2] + '.log', 'w').write('done')\" {input} {output}",
             "exchange_dir": str(exchange)},
        )
        enhance(AudioBuffer(np.zeros(1000), FS), spec, StftConfig())
        assert list(exchange.iterdir()) == []

    def test_concurrent_calls_into_one_exchange_dir_get_their_own_outputs(self, tmp_path):
        # each child sleeps before it copies, so every input is written before any is read
        exchange = tmp_path / "exchange"
        spec = EnhancerSpec(
            "external",
            {"command": 'python3 -c "import shutil,sys,time; time.sleep(0.5); '
                        'shutil.copy(sys.argv[1], sys.argv[2])" {input} {output}',
             "exchange_dir": str(exchange)},
        )
        bufs = [AudioBuffer(np.full(1000, (k + 1) / 8), FS) for k in range(4)]
        with ThreadPoolExecutor(max_workers=len(bufs)) as pool:
            futures = [pool.submit(enhance, buf, spec, StftConfig()) for buf in bufs]
            outs = [f.result(timeout=60) for f in futures]
        for buf, out in zip(bufs, outs):
            assert np.array_equal(out.samples, buf.samples)
        assert list(exchange.iterdir()) == []

    def test_no_output_file_reported(self, tmp_path):
        spec = EnhancerSpec(
            "external",
            {"command": 'python3 -c "pass" {input} {output}', "exchange_dir": str(tmp_path)},
        )
        with pytest.raises(EnhancerError, match="produced no output file"):
            enhance(AudioBuffer(np.zeros(1000), FS), spec, StftConfig())

    def test_output_at_another_rate_names_both_rates(self, tmp_path):
        script = tmp_path / "half_rate.py"
        script.write_text(
            SCRIPT_PREAMBLE +
            "from speechmine.audio_io import AudioBuffer, read_wav, write_wav\n"
            "buf = read_wav(sys.argv[1])\n"
            "write_wav(sys.argv[2], AudioBuffer(buf.samples, buf.sample_rate // 2))\n"
        )
        spec = EnhancerSpec(
            "external",
            {"command": f"python3 {script} {{input}} {{output}}", "exchange_dir": str(tmp_path)},
        )
        with pytest.raises(EnhancerError, match="expected 48000 Hz, got 24000"):
            enhance(AudioBuffer(np.zeros(1000), FS), spec, StftConfig())

    def test_nonzero_exit_reported_with_code(self, tmp_path):
        spec = EnhancerSpec(
            "external",
            {"command": 'python3 -c "import sys; sys.exit(3)" {input} {output}',
             "exchange_dir": str(tmp_path)},
        )
        with pytest.raises(EnhancerError, match="exited 3"):
            enhance(AudioBuffer(np.zeros(1000), FS), spec, StftConfig())

    def test_wrong_length_output_names_both_lengths(self, tmp_path):
        script = tmp_path / "half.py"
        script.write_text(
            SCRIPT_PREAMBLE +
            "from speechmine.audio_io import AudioBuffer, read_wav, write_wav\n"
            "buf = read_wav(sys.argv[1])\n"
            "write_wav(sys.argv[2], AudioBuffer(buf.samples[: len(buf) // 2], buf.sample_rate))\n"
        )
        spec = EnhancerSpec(
            "external",
            {"command": f"python3 {script} {{input}} {{output}}", "exchange_dir": str(tmp_path)},
        )
        with pytest.raises(EnhancerError, match="expected 1000 samples, got 500"):
            enhance(AudioBuffer(np.zeros(1000), FS), spec, StftConfig())

    def test_timeout_reported(self, tmp_path):
        spec = EnhancerSpec(
            "external",
            {"command": 'python3 -c "import time; time.sleep(5)" {input} {output}',
             "exchange_dir": str(tmp_path), "timeout_s": 0.5},
        )
        with pytest.raises(EnhancerError, match="timed out"):
            enhance(AudioBuffer(np.zeros(1000), FS), spec, StftConfig())

    def test_longest_accepted_timeout_runs_and_one_ms_more_is_rejected(self, tmp_path):
        params = {"command": 'python3 -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])" '
                             "{input} {output}",
                  "exchange_dir": str(tmp_path), "timeout_s": MAX_TIMEOUT_S}
        x = np.linspace(-0.5, 0.5, 1000).astype(np.float32).astype(np.float64)
        assert np.array_equal(enhance(AudioBuffer(x, FS), EnhancerSpec("external", params),
                                      StftConfig()).samples, x)
        with pytest.raises(ConfigError, match="timeout_s"):
            EnhancerSpec("external", {**params, "timeout_s": MAX_TIMEOUT_S + 0.001})


class TestLengthContract:
    @pytest.mark.parametrize("n", [100, 2047, 2048, 2049, 5000, 48000])
    def test_all_in_process_backends_preserve_length(self, n, tmp_path):
        rng = np.random.default_rng(n)
        x = rng.uniform(-0.3, 0.3, n).astype(np.float32).astype(np.float64)
        write_wav(tmp_path / "src.wav", AudioBuffer(x, FS))
        (tmp_path / "ref").mkdir()
        write_wav(tmp_path / "ref" / "src.wav", AudioBuffer(x, FS))
        buf = read_wav(tmp_path / "src.wav")
        specs = [
            EnhancerSpec("identity"),
            EnhancerSpec("spectral_gate"),
            EnhancerSpec("oracle", {"reference_dir": str(tmp_path / "ref")}),
        ]
        for spec in specs:
            assert len(enhance(buf, spec, StftConfig())) == n
