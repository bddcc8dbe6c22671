"""score_file and curate_file against reference_curate_file (helpers.py),
frame by frame, over the config space: sample rates, STFT windows and hops
that need not divide the window, frame and segment lengths, SNR and
bandwidth thresholds, the identity and spectral_gate enhancers and the
always_on and energy VADs, on noisy synthetic speech with gains, silent and
low-passed stretches, and lengths below one window, frame and segment.
"""

from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import brickwall_lowpass, reference_curate_file
from speechmine.audio_io import AudioBuffer
from speechmine.curation import CurationConfig, curate_file, score_file
from speechmine.dsp import StftConfig
from speechmine.enhance import EnhancerSpec
from speechmine.evalgen import NOISE_KINDS, NoiseSpec, inject_noise, synth_clean
from speechmine.vad import VadSpec

TOLERANCE_DB = 1e-9


class Case(NamedTuple):
    """One drawn config and the signal it curates."""

    cfg: CurationConfig
    samples: int  # signal length
    seed: int
    noise: NoiseSpec
    gain_db: float
    silent: tuple[float, float]  # the stretch zeroed: its start and length over the signal's
    lowpassed: tuple[float, float, float]  # the stretch low-passed, and its cutoff over Nyquist


@st.composite
def cases(draw) -> Case:
    rate = 4 * draw(st.integers(2000, 12000), label="rate / 4")  # a quarter second is whole samples
    frame_seconds = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]), label="frame_seconds")
    flen = int(rate * frame_seconds)
    k = draw(st.integers(1, 4), label="frames per segment")
    window = draw(st.integers(256, min(2048, flen)), label="window_len")
    hop = draw(st.one_of(st.just(0), st.integers(max(1, window // 6), window)), label="hop")
    rho_max = draw(st.floats(20.0, 120.0), label="rho_max_db")
    # one case in six at rho_max_db itself, which an identity enhancer's voiced frames score
    at_max = draw(st.integers(0, 5), label="threshold at rho_max_db") == 0
    threshold = rho_max if at_max else draw(st.floats(-10.0, 40.0).map(lambda v: v + 0.0), label="snr_threshold_db")
    bandwidth = draw(st.one_of(
        st.floats(0.0, rate / 2),
        st.integers(0, window // 2).map(lambda b: b * (rate / window)),  # a bin centre exactly
    ), label="min_bandwidth_hz")
    if draw(st.booleans(), label="spectral_gate"):
        enhancer = EnhancerSpec("spectral_gate", {
            "gate_threshold_db": draw(st.floats(-10.0, 40.0).map(lambda v: v + 0.0), label="gate_threshold_db"),
            "attenuation_db": draw(st.floats(0.0, 80.0), label="attenuation_db"),
        })
    else:
        enhancer = EnhancerSpec("identity")
    # shorter than one window, one frame or one segment, or (five cases in eight) a segment or more
    length_class = draw(st.integers(0, 7), label="length class")
    shorter = [(1, window - 1), (window, flen - 1), (flen, k * flen - 1)]
    lo, hi = shorter[length_class] if length_class < 3 else (k * flen, (k + 2) * flen)
    n = draw(st.integers(lo, max(lo, hi)), label="samples")
    if draw(st.booleans(), label="energy VAD"):
        # windows of a few ms, up to three signals long, and one no buffer has samples for
        window_class = draw(st.integers(0, 3), label="VAD window class")
        vad_window = 1e20 if window_class == 3 else draw(
            st.floats(0.001, 0.1) if window_class < 2 else st.floats(0.1, 3.0 * n / rate + 0.2),
            label="vad window_seconds")
        vad = VadSpec(
            "energy",
            window_seconds=vad_window,
            relative_threshold_db=draw(st.floats(0.0, 30.0), label="relative_threshold_db"),
            absolute_floor_db=draw(st.floats(-100.0, -20.0), label="absolute_floor_db"),
        )
    else:
        vad = VadSpec("always_on")
    cfg = CurationConfig(
        sample_rate=rate, frame_seconds=frame_seconds, segment_seconds=k * frame_seconds,
        snr_threshold_db=threshold, min_bandwidth_hz=bandwidth, rho_max_db=rho_max,
        stft=StftConfig(window_len=window, hop=hop), enhancer=enhancer, vad=vad,
    )
    stretch = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.3))  # start and length over the signal
    return Case(
        cfg=cfg,
        samples=n,
        seed=draw(st.integers(0, 2**16), label="speech seed"),
        noise=NoiseSpec(noise_kind=draw(st.sampled_from(NOISE_KINDS), label="noise kind"),
                        rayleigh_sigma=draw(st.floats(5.0, 40.0), label="rayleigh_sigma"),
                        seed=draw(st.integers(0, 2**16), label="noise seed")),
        gain_db=draw(st.floats(-60.0, 10.0), label="gain_db"),
        silent=draw(stretch, label="silent stretch"),
        lowpassed=(*draw(stretch, label="low-passed stretch"),
                   draw(st.floats(0.05, 1.0), label="low-pass cutoff / Nyquist")),
    )


def signal(case: Case) -> AudioBuffer:
    """Noisy synthetic speech at the case's gain, with its silent and
    low-passed stretches."""
    rate, n = case.cfg.sample_rate, case.samples
    noisy, _ = inject_noise(synth_clean(n / rate, rate, seed=case.seed), case.noise)
    x = noisy.samples * 10.0 ** (case.gain_db / 20.0)
    start, length, cutoff = case.lowpassed
    low = slice(int(start * n), int((start + length) * n))
    if x[low].size > 1:
        x[low] = brickwall_lowpass(x[low], cutoff * rate / 2, rate)
    start, length = case.silent
    x[int(start * n) : int((start + length) * n)] = 0.0
    return AudioBuffer(x, rate)


def assert_db_close(got: np.ndarray, want: np.ndarray) -> None:
    """Equal within TOLERANCE_DB, -inf only where the other is -inf."""
    assert got.shape == want.shape
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = ~np.isneginf(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= TOLERANCE_DB), (got, want)


def _case(rate=16000, window=512, hop=0, threshold=20.0, bandwidth=0.0,
          enhancer=EnhancerSpec("identity"), vad=VadSpec("always_on")):
    """A fixed case, 5 s of speech 40 dB over white noise in 2-s segments,
    for the examples every run tries first."""
    return Case(
        cfg=CurationConfig(sample_rate=rate, frame_seconds=1.0, segment_seconds=2.0,
                           snr_threshold_db=threshold, min_bandwidth_hz=bandwidth,
                           stft=StftConfig(window_len=window, hop=hop), enhancer=enhancer, vad=vad),
        samples=5 * rate, seed=3, noise=NoiseSpec(snr_clip=(40.0, 40.5), seed=4),
        gain_db=0.0, silent=(0.0, 0.0), lowpassed=(0.0, 0.0, 1.0),
    )


@settings(max_examples=40, deadline=None)
@given(case=cases())
# a threshold at rho_max_db (100), which an identity enhancer's every voiced frame scores
@example(case=_case(threshold=100.0))
# the default gate, at a hop that does not divide the window, against the default bandwidth
@example(case=_case(rate=48000, window=2048, hop=600, enhancer=EnhancerSpec("spectral_gate"),
                    vad=VadSpec(), bandwidth=20000.0))
# an energy VAD whose window is longer than any signal
@example(case=_case(enhancer=EnhancerSpec("spectral_gate"), vad=VadSpec(window_seconds=1e20)))
# a window that is not a power of two, at whose top bin the rate over the window rounds up
@example(case=_case(rate=11360, window=598, hop=149))
def test_scores_and_segments_equal_the_reference(case):
    buf, cfg = signal(case), case.cfg
    want_rho, want_fc, want_spans = reference_curate_file(buf, cfg)

    rho, runs = score_file(buf, cfg)
    assert_db_close(rho, want_rho)
    fc = np.full(rho.size, np.nan)
    for first, passing, cutoffs in runs:
        assert passing.shape == cutoffs.shape
        fc[first : first + cutoffs.size] = cutoffs
    assert np.array_equal(fc, want_fc, equal_nan=True)

    segments = curate_file(buf, cfg)
    flen = cfg.frame_len
    assert [(s.start_sample, s.end_sample) for s in segments] == [(a * flen, e * flen) for a, e in want_spans]
    assert [s.frame_fc for s in segments] == [want_fc[a:e].tolist() for a, e in want_spans]
    for seg, (a, e) in zip(segments, want_spans):
        assert_db_close(np.array(seg.frame_rho), want_rho[a:e])
