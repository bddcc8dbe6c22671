"""The public API, pinned: a change to the names ``speechmine`` exports or to
the signatures below must edit this file, so it shows in the diff."""

import inspect

import speechmine

ALL = [
    "AudioBuffer", "ConfigError", "CurationConfig", "CuratedSegment", "EnhancerError",
    "EnhancerSpec", "EvalTriple", "ManifestReader", "NoiseSpec", "RoundReport", "StftConfig",
    "VadSpec", "WavError", "accepted_hours", "curate_file", "delta_quality", "detect",
    "energy_vad_windows", "enhance", "estimate_cutoff", "export_ab_pairs", "extract_segments",
    "filter_manifest", "inject_noise", "istft", "load_config", "load_manifest",
    "read_wav", "rho_hat", "rho_histogram", "rms_db", "run_round", "segmental_snr",
    "spectral_gate_enhance", "stft", "synth_clean", "write_wav",
]

SIGNATURES = {
    "export_ab_pairs": "(segments: 'Sequence[CuratedSegment]', out_dir: 'str | Path', "
                       "configs: 'Mapping[str, CurationConfig]') -> 'int'",
    "enhance": "(buf: 'AudioBuffer', spec: 'EnhancerSpec', stft_cfg: 'StftConfig') -> 'AudioBuffer'",
    "rms_db": "(samples: 'np.ndarray') -> 'float | np.ndarray'",
    "run_round": "(corpus: 'Sequence[str | Path]', cfg: 'CurationConfig', "
                 "manifest_out: 'str | Path', jobs: 'int' = 1) -> 'RoundReport'",
    "spectral_gate_enhance": "(buf: 'AudioBuffer', cfg: 'StftConfig', gate_threshold_db: 'float' = 20.0, "
                             "attenuation_db: 'float' = 40.0) -> 'AudioBuffer'",
    "write_wav": "(path: 'str | Path', buf: 'AudioBuffer') -> 'None'",
}


def test_all_is_pinned():
    assert speechmine.__all__ == ALL
    assert all(hasattr(speechmine, name) for name in ALL)


def test_signatures_are_pinned():
    got = {name: str(inspect.signature(getattr(speechmine, name))) for name in SIGNATURES}
    assert got == SIGNATURES
