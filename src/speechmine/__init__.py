"""speechmine: batch curation of high-SNR, full-bandwidth speech segments.

The pipeline enhances each file, runs a VAD on the enhanced signal,
scores fixed-length frames with a residual-based SNR estimate, gates on
SNR and spectral bandwidth, and exports contiguous accepted stretches as
fixed-duration segments with per-frame metadata. A synthetic-corpus
generator and an evaluation harness support round-over-round comparison.
"""

from .audio_io import AudioBuffer, WavError, read_wav, write_wav
from .curation import (
    ConfigError,
    CurationConfig,
    CuratedSegment,
    NEG_INF_DB,
    RoundReport,
    curate_file,
    export_ab_pairs,
    extract_segments,
    filter_manifest,
    load_config,
    load_manifest,
    rho_hat,
    run_round,
)
from .dsp import StftConfig, estimate_cutoff, istft, rms_db, stft
from .enhance import EnhancerError, EnhancerSpec, enhance, spectral_gate_enhance
from .evalgen import (
    EvalTriple,
    NoiseSpec,
    accepted_hours,
    delta_quality,
    inject_noise,
    load_manifests,
    register_metric,
    rho_histogram,
    segmental_snr,
    synth_clean,
)
from .vad import VadSpec, detect, energy_vad_windows

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "ConfigError",
    "CurationConfig",
    "CuratedSegment",
    "EnhancerError",
    "EnhancerSpec",
    "EvalTriple",
    "NEG_INF_DB",
    "NoiseSpec",
    "RoundReport",
    "StftConfig",
    "VadSpec",
    "WavError",
    "accepted_hours",
    "curate_file",
    "delta_quality",
    "detect",
    "energy_vad_windows",
    "enhance",
    "estimate_cutoff",
    "export_ab_pairs",
    "extract_segments",
    "filter_manifest",
    "inject_noise",
    "istft",
    "load_config",
    "load_manifest",
    "load_manifests",
    "read_wav",
    "register_metric",
    "rho_hat",
    "rho_histogram",
    "rms_db",
    "run_round",
    "segmental_snr",
    "spectral_gate_enhance",
    "stft",
    "synth_clean",
    "write_wav",
]
