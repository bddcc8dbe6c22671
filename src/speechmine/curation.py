"""Curation engine: per-frame SNR scoring, gating, segment extraction and
round orchestration.

Each file is enhanced, the VAD runs on the enhanced signal, and all three
sequences are cut into fixed frames. A frame's SNR estimate is the
enhanced level minus the residual (input minus enhanced) level, on the
assumption that the enhancer removed only noise. Frames must clear both
the SNR gate and the bandwidth gate; runs of accepted frames are tiled
into fixed-duration segments whose metadata is appended to a JSONL
manifest, one round at a time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .audio_io import AudioBuffer, FrameGrid, frame_len_samples, frame_matrix, read_wav, write_wav
from .dsp import StftConfig, bandwidth_profile, rms_db
from .enhance import EnhancerSpec, enhance
from .vad import (
    DEFAULT_ABSOLUTE_FLOOR_DB,
    DEFAULT_RELATIVE_THRESHOLD_DB,
    DEFAULT_WINDOW_SECONDS,
    VadSpec,
    detect,
)

logger = logging.getLogger(__name__)

# Stored stand-in for the -inf score of frames the VAD rejected: orders
# below any real dB value and survives text serialization.
NEG_INF_DB = -1.0e9

DEFAULT_RHO_BIN_WIDTH_DB = 5.0

MANIFEST_FIELDS = (
    "source_uri",
    "round_id",
    "start_sample",
    "end_sample",
    "sample_rate",
    "frame_rho",
    "frame_fc",
    "config_hash",
    "enhancer_id",
)


class ConfigError(Exception):
    """Invalid pipeline configuration; the message names the offending field."""


@dataclass
class CurationConfig:
    """Every pipeline parameter. The config file is the single source of
    truth; its hash is stamped onto every manifest record."""

    sample_rate: int = 48000
    segment_seconds: float = 12.0
    frame_seconds: float = 1.0
    snr_threshold_db: float = 20.0
    min_bandwidth_hz: float = 20000.0
    rho_max_db: float = 100.0
    round_id: int = 0
    stft: StftConfig = field(default_factory=StftConfig)
    enhancer: EnhancerSpec = field(default_factory=lambda: EnhancerSpec("spectral_gate"))
    vad: VadSpec = field(default_factory=VadSpec)

    def validate(self) -> None:
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise ConfigError(f"sample_rate: must be a positive integer, got {self.sample_rate}")
        try:
            flen = frame_len_samples(self.sample_rate, self.frame_seconds)
        except ValueError as exc:
            raise ConfigError(f"frame_seconds: {exc}") from exc
        ratio = self.segment_seconds / self.frame_seconds
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"segment_seconds: {self.segment_seconds} is not a positive integer "
                f"multiple of frame_seconds {self.frame_seconds}"
            )
        if not math.isfinite(self.snr_threshold_db):
            raise ConfigError(f"snr_threshold_db: must be finite, got {self.snr_threshold_db}")
        if not 0 <= self.min_bandwidth_hz <= self.sample_rate / 2:
            raise ConfigError(
                f"min_bandwidth_hz: {self.min_bandwidth_hz} outside [0, {self.sample_rate / 2}]"
            )
        if self.round_id < 0 or int(self.round_id) != self.round_id:
            raise ConfigError(f"round_id: must be a non-negative integer, got {self.round_id}")
        if flen < self.stft.window_len:
            raise ConfigError(
                f"frame_seconds: frame of {flen} samples is shorter than the "
                f"analysis window ({self.stft.window_len})"
            )

    @property
    def frame_len(self) -> int:
        return frame_len_samples(self.sample_rate, self.frame_seconds)

    @property
    def frames_per_segment(self) -> int:
        return int(round(self.segment_seconds / self.frame_seconds))

    def to_dict(self) -> dict[str, Any]:
        return {
            "sample_rate": self.sample_rate,
            "segment_seconds": self.segment_seconds,
            "frame_seconds": self.frame_seconds,
            "snr_threshold_db": self.snr_threshold_db,
            "min_bandwidth_hz": self.min_bandwidth_hz,
            "rho_max_db": self.rho_max_db,
            "round_id": self.round_id,
            "stft": {
                "window_len": self.stft.window_len,
                "hop": self.stft.hop,
                "window": self.stft.window,
            },
            "enhancer": {"kind": self.enhancer.kind, **self.enhancer.params},
            "vad": {
                "kind": self.vad.kind,
                "window_seconds": self.vad.window_seconds,
                "relative_threshold_db": self.vad.relative_threshold_db,
                "absolute_floor_db": self.vad.absolute_floor_db,
                **self.vad.params,
            },
        }

    def canonical_text(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CurationConfig":
        data = dict(data)
        kwargs: dict[str, Any] = {}
        for f in dataclasses.fields(cls):
            if f.name in ("stft", "enhancer", "vad"):
                continue
            if f.name in data:
                kwargs[f.name] = data.pop(f.name)
            else:
                default = f.default if f.default is not dataclasses.MISSING else None
                logger.info("config field %s missing, defaulting to %r", f.name, default)
        try:
            if "stft" in data:
                kwargs["stft"] = StftConfig(**data.pop("stft"))
            if "enhancer" in data:
                enh = dict(data.pop("enhancer"))
                kwargs["enhancer"] = EnhancerSpec(kind=enh.pop("kind"), params=enh)
            if "vad" in data:
                vd = dict(data.pop("vad"))
                kwargs["vad"] = VadSpec(
                    kind=vd.pop("kind", "energy"),
                    window_seconds=vd.pop("window_seconds", DEFAULT_WINDOW_SECONDS),
                    relative_threshold_db=vd.pop("relative_threshold_db", DEFAULT_RELATIVE_THRESHOLD_DB),
                    absolute_floor_db=vd.pop("absolute_floor_db", DEFAULT_ABSOLUTE_FLOOR_DB),
                    params=vd,
                )
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc
        if data:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(data))}")
        try:
            cfg = cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg


def load_config(path: str | Path) -> CurationConfig:
    """Parse and validate a JSON config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: top-level config must be a JSON object")
    return CurationConfig.from_dict(data)


@dataclass
class CuratedSegment:
    """One accepted fixed-duration block with its per-frame metadata.

    This is the manifest record; every field round-trips bit-exactly
    through JSON.
    """

    source_uri: str
    round_id: int
    start_sample: int
    end_sample: int
    sample_rate: int
    frame_rho: list[float]
    frame_fc: list[float]
    config_hash: str
    enhancer_id: str

    @property
    def frame_len(self) -> int:
        return (self.end_sample - self.start_sample) // len(self.frame_rho)

    @property
    def duration_seconds(self) -> float:
        return (self.end_sample - self.start_sample) / self.sample_rate

    def validate(self) -> None:
        """Structural invariants checkable without the original config."""
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not self.frame_rho or len(self.frame_rho) != len(self.frame_fc):
            raise ValueError(
                f"frame_rho ({len(self.frame_rho)}) and frame_fc ({len(self.frame_fc)}) "
                "must be equal-length and non-empty"
            )
        span = self.end_sample - self.start_sample
        if span <= 0 or span % len(self.frame_rho):
            raise ValueError(f"segment span {span} not divisible into {len(self.frame_rho)} frames")
        if self.start_sample % self.frame_len:
            raise ValueError(
                f"start_sample {self.start_sample} not aligned to frame length {self.frame_len}"
            )
        if not all(math.isfinite(v) or v == NEG_INF_DB for v in self.frame_rho):
            raise ValueError("frame_rho contains non-finite values")
        if not all(math.isfinite(v) and 0 <= v <= self.sample_rate / 2 for v in self.frame_fc):
            raise ValueError("frame_fc values outside [0, Nyquist]")

    def validate_against(self, cfg: CurationConfig) -> None:
        """Gate invariants, checkable only with the producing config."""
        self.validate()
        if self.end_sample - self.start_sample != cfg.frames_per_segment * cfg.frame_len:
            raise ValueError("segment span does not equal the configured duration")
        if not all(r > cfg.snr_threshold_db for r in self.frame_rho):
            raise ValueError("frame_rho at or below the SNR threshold")
        if not all(fc >= cfg.min_bandwidth_hz for fc in self.frame_fc):
            raise ValueError("frame_fc below the bandwidth threshold")

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in MANIFEST_FIELDS})

    @classmethod
    def from_json(cls, line: str) -> "CuratedSegment":
        obj = json.loads(line)
        if not isinstance(obj, dict) or set(obj) != set(MANIFEST_FIELDS):
            raise ValueError("manifest record does not carry exactly the expected fields")
        seg = cls(**obj)
        seg.validate()
        return seg


def rho_hat(
    x_frame: np.ndarray,
    xhat_frame: np.ndarray,
    v_frame: np.ndarray,
    rho_max_db: float = 100.0,
) -> float:
    """Residual-based SNR estimate for one frame, in dB.

    Enhanced level minus residual level when the frame is at least half
    speech; the sentinel otherwise. A vanishing residual (identity-like
    enhancement) is capped at rho_max_db to keep manifests numeric.
    """
    x_frame = np.asarray(x_frame, dtype=np.float64)
    xhat_frame = np.asarray(xhat_frame, dtype=np.float64)
    v_frame = np.asarray(v_frame, dtype=np.float64)
    if not x_frame.shape == xhat_frame.shape == v_frame.shape:
        raise ValueError(
            f"frame length mismatch: x {x_frame.shape}, xhat {xhat_frame.shape}, "
            f"v {v_frame.shape}"
        )
    if v_frame.mean() < 0.5:
        return NEG_INF_DB
    rho = rms_db(xhat_frame) - rms_db(x_frame - xhat_frame)
    return float(min(rho, rho_max_db))


def snr_gate(rho: np.ndarray, threshold_db: float) -> np.ndarray:
    """Frame passes iff its SNR estimate strictly exceeds the threshold."""
    return (np.asarray(rho) > threshold_db).astype(np.uint8)


def bandwidth_gate(
    xhat_grid: FrameGrid,
    min_bandwidth_hz: float,
    cfg: StftConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Frame passes iff its estimated cutoff reaches min_bandwidth_hz
    (inclusive). Returns (acceptance, cutoff_hz) so the cutoffs can be
    stored as segment metadata."""
    profile = bandwidth_profile(xhat_grid.frames, xhat_grid.sample_rate, cfg)
    accept = (profile.cutoff_hz >= min_bandwidth_hz).astype(np.uint8)
    return accept, profile.cutoff_hz


def combine(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry-wise AND of the two gate vectors."""
    s = np.asarray(s)
    b = np.asarray(b)
    if s.shape != b.shape:
        raise ValueError(f"acceptance vector length mismatch: {s.shape} vs {b.shape}")
    return (s.astype(bool) & b.astype(bool)).astype(np.uint8)


def extract_segments(
    accept: np.ndarray,
    segment_seconds: float,
    frame_seconds: float,
) -> list[tuple[int, int]]:
    """Tile every maximal run of accepted frames with non-overlapping
    blocks of segment_seconds/frame_seconds frames, left-aligned to the
    run's first frame. Leftover frames shorter than a block are unused.
    """
    ratio = segment_seconds / frame_seconds
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError(
            f"segment_seconds {segment_seconds} must be a positive integer multiple "
            f"of frame_seconds {frame_seconds}"
        )
    k = int(round(ratio))
    accept = np.asarray(accept).astype(bool)
    blocks: list[tuple[int, int]] = []
    run_start: int | None = None
    for i, flag in enumerate(accept.tolist() + [False]):  # sentinel closes the last run
        if flag and run_start is None:
            run_start = i
        elif not flag and run_start is not None:
            for s in range(run_start, i - k + 1, k):
                blocks.append((s, s + k))
            run_start = None
    return blocks


@dataclass
class FileResult:
    """Outcome of curating one corpus entry."""

    source: str
    segments: list[CuratedSegment]
    error: str | None = None


@dataclass
class RoundReport:
    """Aggregate statistics for one corpus pass."""

    round_id: int
    config_hash: str
    files_processed: int
    failures: list[dict[str, str]]
    segment_count: int
    curated_seconds: float
    rho_histogram: dict[str, int]
    generated_at: str

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def rho_bin_counts(
    values: Iterable[float],
    bin_width_db: float = DEFAULT_RHO_BIN_WIDTH_DB,
) -> dict[str, int]:
    """Bin SNR estimates by lower edge; sentinel values get their own bin."""
    counts: dict[str, int] = {}
    for v in values:
        if v <= NEG_INF_DB / 2:
            key = "neg_inf"
        else:
            key = f"{math.floor(v / bin_width_db) * bin_width_db:g}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def curate_file(
    buf: AudioBuffer,
    cfg: CurationConfig,
) -> tuple[list[CuratedSegment], AudioBuffer]:
    """Run the full per-file pipeline; returns the accepted segments and
    the enhanced signal (for optional export)."""
    if buf.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"sample rate {buf.sample_rate} does not match configured "
            f"{cfg.sample_rate}; resampling is out of scope"
        )
    enhanced = enhance(buf, cfg.enhancer, cfg.stft)
    mask = detect(enhanced, cfg.vad)

    flen = cfg.frame_len
    x = frame_matrix(buf.samples, flen)
    xhat = frame_matrix(enhanced.samples, flen)
    v = frame_matrix(mask.decisions, flen)
    frame_count = x.shape[1]
    if frame_count == 0:
        return [], enhanced

    rho = np.array(
        [rho_hat(x[:, l], xhat[:, l], v[:, l], cfg.rho_max_db) for l in range(frame_count)]
    )
    s = snr_gate(rho, cfg.snr_threshold_db)
    b, cutoffs = bandwidth_gate(
        FrameGrid(frames=xhat, sample_rate=cfg.sample_rate), cfg.min_bandwidth_hz, cfg.stft
    )
    a = combine(s, b)
    blocks = extract_segments(a, cfg.segment_seconds, cfg.frame_seconds)

    config_hash = cfg.config_hash()
    enhancer_id = cfg.enhancer.identifier()
    segments = []
    for f_start, f_end in blocks:
        seg = CuratedSegment(
            source_uri=buf.source or "<memory>",
            round_id=cfg.round_id,
            start_sample=f_start * flen,
            end_sample=f_end * flen,
            sample_rate=cfg.sample_rate,
            frame_rho=[float(r) for r in rho[f_start:f_end]],
            frame_fc=[float(c) for c in cutoffs[f_start:f_end]],
            config_hash=config_hash,
            enhancer_id=enhancer_id,
        )
        seg.validate_against(cfg)
        segments.append(seg)
    return segments, enhanced


def append_manifest(path: str | Path, segments: Sequence[CuratedSegment]) -> None:
    """Append validated records to a JSONL manifest."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a", encoding="utf-8") as fh:
        for seg in segments:
            seg.validate()
            fh.write(seg.to_json() + "\n")


def load_manifest(path: str | Path) -> tuple[list[CuratedSegment], int]:
    """Read a JSONL manifest; malformed records are skipped and counted."""
    segments: list[CuratedSegment] = []
    skipped = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                segments.append(CuratedSegment.from_json(line))
            except (ValueError, TypeError) as exc:
                skipped += 1
                logger.warning("%s:%d: skipping malformed record: %s", path, lineno, exc)
    return segments, skipped


def _curate_one(source: str, cfg: CurationConfig) -> FileResult:
    try:
        buf = read_wav(source)
        segments, _ = curate_file(buf, cfg)
        return FileResult(source=source, segments=segments)
    except Exception as exc:  # per-file isolation: one bad file never kills a round
        logger.error("curation failed for %s: %s", source, exc)
        return FileResult(source=source, segments=[], error=str(exc))


def run_round(
    corpus: Sequence[str | Path],
    cfg: CurationConfig,
    manifest_out: str | Path,
    jobs: int = 1,
    report_out: str | Path | None = None,
) -> RoundReport:
    """Curate every corpus file, append segments to the manifest and write
    a round report next to it.

    Records are written in corpus order by a single writer, so a rerun
    with identical inputs produces byte-identical manifest records.
    """
    cfg.validate()
    sources = [str(p) for p in corpus]
    if jobs > 1 and sources:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda s: _curate_one(s, cfg), sources))
    else:
        results = [_curate_one(s, cfg) for s in sources]

    all_segments: list[CuratedSegment] = []
    failures: list[dict[str, str]] = []
    for res in results:
        if res.error is not None:
            failures.append({"source": res.source, "error": res.error})
        all_segments.extend(res.segments)
    append_manifest(manifest_out, all_segments)

    rho_values = [r for seg in all_segments for r in seg.frame_rho]
    report = RoundReport(
        round_id=cfg.round_id,
        config_hash=cfg.config_hash(),
        files_processed=len(sources),
        failures=failures,
        segment_count=len(all_segments),
        curated_seconds=float(sum(seg.duration_seconds for seg in all_segments)),
        rho_histogram=rho_bin_counts(rho_values),
        generated_at=datetime.now(timezone.utc).isoformat(),
    )
    report_path = (
        Path(report_out)
        if report_out is not None
        else Path(str(manifest_out) + f".round{cfg.round_id}.report.json")
    )
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    return report


def filter_manifest(
    manifest: str | Path,
    min_rho: float | None = None,
    max_rho: float | None = None,
) -> list[CuratedSegment]:
    """Select segments by bounds on their per-frame SNR estimates.

    min_rho keeps segments whose weakest frame reaches the bound;
    max_rho keeps segments whose strongest frame stays at or under it.
    """
    segments, skipped = load_manifest(manifest)
    if skipped:
        logger.warning("%s: skipped %d malformed record(s)", manifest, skipped)
    kept = []
    for seg in segments:
        if min_rho is not None and min(seg.frame_rho) < min_rho:
            continue
        if max_rho is not None and max(seg.frame_rho) > max_rho:
            continue
        kept.append(seg)
    return kept


def export_ab_pairs(
    segments_or_manifest: Sequence[CuratedSegment] | str | Path,
    out_dir: str | Path,
    enhancer: EnhancerSpec | None = None,
    stft_cfg: StftConfig | None = None,
) -> int:
    """Write one unprocessed/enhanced WAV pair per segment for A/B listening.

    The enhanced side re-runs the enhancer recorded in each segment (or an
    explicit override) over the whole source file, then slices the exact
    segment. Segments are grouped by source: each source is read once and
    enhanced once per distinct enhancer, and only the current source's
    buffers are held. Segments whose source is unreadable are skipped and
    counted.
    """
    if isinstance(segments_or_manifest, (str, Path)):
        segments, _ = load_manifest(segments_or_manifest)
    else:
        segments = list(segments_or_manifest)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    by_source: dict[str, list[CuratedSegment]] = {}
    for seg in segments:
        by_source.setdefault(seg.source_uri, []).append(seg)

    pairs = 0
    skipped = 0
    for source_uri, group in by_source.items():
        try:
            buf = read_wav(source_uri)
        except Exception as exc:
            skipped += len(group)
            logger.warning("skipping %d segment(s) of %s: %s", len(group), source_uri, exc)
            continue
        # canonical enhancer identifier -> (spec, segments), in order of first appearance
        by_enhancer: dict[str, tuple[EnhancerSpec, list[CuratedSegment]]] = {}
        for seg in group:
            spec = enhancer if enhancer is not None else EnhancerSpec.from_identifier(seg.enhancer_id)
            by_enhancer.setdefault(spec.identifier(), (spec, []))[1].append(seg)
        for spec, same in by_enhancer.values():
            try:
                enhanced = enhance(buf, spec, stft_cfg)
            except Exception as exc:
                skipped += len(same)
                logger.warning("skipping %d segment(s) of %s: enhancement failed: %s",
                               len(same), source_uri, exc)
                continue
            for seg in same:
                stem = f"{Path(source_uri).stem}_r{seg.round_id}_{seg.start_sample}"
                sl = slice(seg.start_sample, seg.end_sample)
                write_wav(out / f"{stem}_unprocessed.wav",
                          AudioBuffer(buf.samples[sl], buf.sample_rate), "float32")
                write_wav(out / f"{stem}_enhanced.wav",
                          AudioBuffer(enhanced.samples[sl], buf.sample_rate), "float32")
                pairs += 1
    if skipped:
        logger.warning("export skipped %d segment(s)", skipped)
    return pairs
