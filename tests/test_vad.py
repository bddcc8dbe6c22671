"""Energy VAD and mask-shape tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SCRIPT_PREAMBLE, reference_window_rms_db
from speechmine.audio_io import AudioBuffer
from speechmine.vad import VadSpec, _window_rms_db, detect, energy_vad_windows

FS = 48000


def tone(level_db, seconds, freq=440.0):
    x = np.sin(2 * np.pi * freq * np.arange(int(seconds * FS)) / FS)
    return x * 10 ** (level_db / 20) * np.sqrt(2)


class TestSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            VadSpec(kind="webrtc")

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            VadSpec(window_seconds=0)

    def test_external_requires_placeholders(self):
        with pytest.raises(ValueError, match="{input}"):
            VadSpec(kind="external", params={"command": "vad a b"})


class TestDetect:
    def test_silence_all_zero(self):
        mask = detect(AudioBuffer(np.zeros(FS), FS), VadSpec())
        assert not mask.any()

    def test_always_on_all_one(self):
        mask = detect(AudioBuffer(np.zeros(12345), FS), VadSpec(kind="always_on"))
        assert mask.all()

    def test_loud_then_quiet_second(self):
        x = np.concatenate([tone(-6, 1.0), tone(-80, 1.0)])
        mask = detect(AudioBuffer(x, FS), VadSpec())
        assert mask[:FS].all()
        assert not mask[FS:].any()

    def test_constant_level_has_no_speech(self):
        # flat signal: the floor equals the signal level, nothing clears it
        x = np.full(2 * FS, 10 ** (-20 / 20))
        decisions = energy_vad_windows(AudioBuffer(x, FS), VadSpec())
        assert not decisions.any()

    def test_alternating_loud_quiet(self):
        parts = []
        for _ in range(3):
            parts.append(tone(-10, 1.0))
            parts.append(tone(-70, 1.0))
        mask = detect(AudioBuffer(np.concatenate(parts), FS), VadSpec())
        m = mask.reshape(6, FS)
        assert m[0::2].all() and not m[1::2].any()

    def test_buffer_shorter_than_window_gets_own_decision(self):
        spec = VadSpec()
        short = AudioBuffer(np.full(100, 0.5), FS)  # one partial window
        decisions = energy_vad_windows(short, spec)
        assert decisions.shape == (1,)
        mask = detect(short, spec)
        assert len(mask) == 100

    def test_external_kind(self, tmp_path):
        # graded outputs are thresholded at 0.5
        script = tmp_path / "graded.py"
        script.write_text(
            SCRIPT_PREAMBLE +
            "import numpy as np\n"
            "from speechmine.audio_io import AudioBuffer, read_wav, write_wav\n"
            "buf = read_wav(sys.argv[1])\n"
            "levels = np.resize([0.0, 0.3, 0.5, 0.7, 1.0], len(buf))\n"
            "write_wav(sys.argv[2], AudioBuffer(levels, buf.sample_rate), 'float32')\n"
        )
        spec = VadSpec(kind="external", params={
            "command": f"python3 {script} {{input}} {{output}}",
            "exchange_dir": str(tmp_path),
        })
        mask = detect(AudioBuffer(np.zeros(5000), FS), spec)
        assert mask.dtype == np.uint8
        assert mask.tolist() == [0, 0, 1, 1, 1] * 1000


WIN = VadSpec().window_samples(FS)


class TestWindowLevels:
    """The window levels, taken with dsp.rms_db, equal the VAD's own level
    loop that came before, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, WIN - 1, WIN, 7 * WIN, 7 * WIN + 13, 180 * FS])
    def test_equal_to_reference(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-0.5, 0.5, n)
        x[: n // 3] *= 1e-4
        x[n // 3 : n // 3 + 2 * WIN] = 0.0  # digital silence reaches the floor
        want = reference_window_rms_db(x, WIN)
        assert np.array_equal(_window_rms_db(x, WIN), want)
        assert np.array_equal(energy_vad_windows(AudioBuffer(x, FS), VadSpec()),
                              want >= max(np.percentile(want, 10) + 15.0, -60.0))


class TestMaskInvariants:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 200_000))
    def test_mask_length_matches_input(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-0.5, 0.5, n)
        x[: n // 2] *= 1e-3  # a quiet half sets the floor, so the loud half is speech
        mask = detect(AudioBuffer(x, FS), VadSpec())
        assert mask.shape == (n,)
        assert mask.dtype == np.uint8
        assert set(np.unique(mask).tolist()) <= {0, 1}

    def test_within_window_constancy(self):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, int(3.73 * FS)), FS)
        spec = VadSpec()
        win = spec.window_samples(FS)
        mask = detect(buf, spec)
        for start in range(0, len(mask) - win, win):
            chunk = mask[start : start + win]
            assert (chunk == chunk[0]).all()

    def test_amplifying_a_window_never_flips_on_to_off(self):
        rng = np.random.default_rng(2)
        spec = VadSpec()
        win = spec.window_samples(FS)
        x = np.concatenate([tone(-12, 1.0), tone(-75, 1.0)])  # floor from quiet half
        base = energy_vad_windows(AudioBuffer(x, FS), spec)
        target = 10  # a loud (above-floor) window
        assert base[target] == 1
        for gain in (2.0, 5.0, 20.0):
            y = x.copy()
            y[target * win : (target + 1) * win] *= gain
            boosted = energy_vad_windows(AudioBuffer(y, FS), spec)
            assert boosted[target] == 1
