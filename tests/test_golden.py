"""A lock on what a curation round writes.

A small seeded corpus is built here from ``synth_clean`` and
``inject_noise`` and written with the reference WAV writer, then curated
by ``run_round``, one round per case. Every record must match the
committed golden file: spans, cutoffs, config hash and enhancer identifier
exactly, and the per-frame SNR estimates within ``RHO_TOL_DB``, because
FFT rounding may differ across CPUs. The cases cover the three sample
rates, the PCM16, PCM24 and float-32 codecs, mono and stereo, the spectral
gate at its default window and at 1024, the oracle and identity
enhancers, and the energy and always-on VADs.

A change that moves a record fails here. If the move is meant, rewrite the
golden file with ``PYTHONPATH=src python tests/regen_golden.py`` and say
why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from helpers import brickwall_lowpass, reference_write_wav
from speechmine.audio_io import AudioBuffer
from speechmine.curation import CurationConfig, run_round
from speechmine.evalgen import NoiseSpec, inject_noise, synth_clean

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_curation.json"
RHO_TOL_DB = 1e-9

SECONDS = 20
# speech level per 2-s block: the quiet blocks fail the SNR gate, so ρ-runs
# start at 0, 6 and 14 s and the tiling is left-aligned to each run
BLOCK_GAINS_DB = [0, 0, -18, 0, 0, 0, -18, 0, 0, 0]
# seconds 14-17 are low-passed to this share of Nyquist, above the bandwidth
# gate's share, so those frames pass with lower cutoffs than the rest
LOWPASS = slice(14, 17)
LOWPASS_SHARE = 0.85
MIN_BANDWIDTH_SHARE = 0.75
SNR_DB = (30.0, 31.0)
NOISE_KINDS = ("white", "pink", "babble_proxy")

# name: (sample rate, codec, channels, enhancer, STFT window or None for the default, VAD)
ORACLE = {"kind": "oracle", "reference_dir": "clean"}
CASES = {
    "gate-48k-pcm16-mono": (48000, "pcm16", 1, {"kind": "spectral_gate"}, None, "energy"),
    "gate1024-44k-pcm24-stereo": (44100, "pcm24", 2, {"kind": "spectral_gate"}, 1024, "energy"),
    "oracle-16k-float32-stereo": (16000, "float32", 2, ORACLE, 1024, "always_on"),
    "identity-48k-float32-mono": (48000, "float32", 1, {"kind": "identity"}, None, "always_on"),
    "gate-16k-pcm16-stereo": (16000, "pcm16", 2, {"kind": "spectral_gate"}, None, "always_on"),
    "oracle-44k-pcm24-mono": (44100, "pcm24", 1, ORACLE, 1024, "energy"),
}


def write_case(root: Path, name: str, seed: int) -> CurationConfig:
    """Write the case's noisy file ``{name}.wav`` and its clean reference
    ``clean/{name}.wav`` under ``root``; return the case's config, whose
    paths are relative to ``root``."""
    rate, codec, channels, enhancer, window, vad = CASES[name]
    x = synth_clean(SECONDS, rate, seed=seed).samples
    x = x * np.repeat(10.0 ** (np.array(BLOCK_GAINS_DB) / 20.0), 2 * rate)
    lo = slice(LOWPASS.start * rate, LOWPASS.stop * rate)
    x[lo] = brickwall_lowpass(x[lo], LOWPASS_SHARE * rate / 2, rate)
    clean = AudioBuffer(x, rate)
    kind = NOISE_KINDS[seed % len(NOISE_KINDS)]
    left, _ = inject_noise(clean, NoiseSpec(noise_kind=kind, snr_clip=SNR_DB, seed=seed))
    right, _ = inject_noise(clean, NoiseSpec(noise_kind=kind, snr_clip=SNR_DB, seed=seed + 100))
    (root / "clean").mkdir(exist_ok=True)
    reference_write_wav(root / "clean" / f"{name}.wav", clean)
    reference_write_wav(root / f"{name}.wav", left, codec, right if channels == 2 else None)
    cfg = {"sample_rate": rate, "segment_seconds": 4.0,
           "min_bandwidth_hz": MIN_BANDWIDTH_SHARE * rate / 2,
           "enhancer": enhancer, "vad": {"kind": vad}}
    if window is not None:
        cfg["stft"] = {"window_len": window, "hop": window // 2}
    return CurationConfig.from_dict(cfg)


def curate_corpus(root: Path) -> dict[str, list[dict]]:
    """Each case's manifest records, as JSON objects, from one round per
    case run in ``root`` on relative paths, so nothing depends on where
    ``root`` is."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        out = {}
        for seed, name in enumerate(CASES):
            cfg = write_case(root, name, seed)
            report = run_round([f"{name}.wav"], cfg, f"{name}.jsonl")
            assert not report.failures, report.failures
            lines = Path(f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
            out[name] = [json.loads(line) for line in lines]
        return out
    finally:
        os.chdir(cwd)


def _without_rho(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "frame_rho"} for r in records]


def test_curated_records_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = curate_corpus(tmp_path)
    assert list(got) == list(golden)
    for name, want in golden.items():
        assert _without_rho(got[name]) == _without_rho(want), name
        for g, w in zip(got[name], want):
            assert len(g["frame_rho"]) == len(w["frame_rho"])
            assert np.allclose(g["frame_rho"], w["frame_rho"], rtol=0.0, atol=RHO_TOL_DB), (name, g, w)


def test_golden_file_has_segments_of_every_case():
    # a lock on empty output would hold for every change
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert all(golden[name] for name in CASES)
