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

import hashlib
import json
import logging
import math
import os
import uuid
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .audio_io import AudioBuffer, frame_len_samples, frame_matrix, read_wav, whole_positive, write_wav
from . import dsp
from .dsp import StftConfig, rms_db
from .enhance import EnhancerSpec, enhance
from .schema import ConfigError, decode, encode, load_json
from .vad import VadSpec, detect

logger = logging.getLogger(__name__)

DEFAULT_RHO_BIN_WIDTH_DB = 5.0
RHO_BIN_CHUNK = 8192  # values binned per numpy pass: bounds the buffer, never changes the counts

_JSON_WS = " \t\n\r"  # what json.loads skips around a document
_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class CurationConfig:
    """Every pipeline parameter, checked when built. The config file is the
    single source of truth; its hash is stamped onto every manifest record."""

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

    def __post_init__(self) -> None:
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise ConfigError(f"sample_rate: must be a positive integer, got {self.sample_rate}")
        try:
            flen = frame_len_samples(self.sample_rate, self.frame_seconds)
        except ValueError as exc:
            raise ConfigError(f"frame_seconds: {exc}") from exc
        whole_positive(self.segment_seconds / self.frame_seconds,
                       f"segment_seconds: {self.segment_seconds} is not a positive integer "
                       f"multiple of frame_seconds {self.frame_seconds}", ConfigError)
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
        return encode(self)

    def canonical_text(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CurationConfig":
        return decode(cls, data, "config")


def load_config(path: str | Path) -> CurationConfig:
    """Parse and validate a JSON config file."""
    return CurationConfig.from_dict(load_json(path))


@dataclass
class CuratedSegment:
    """One accepted fixed-duration block with its per-frame metadata.

    This is the manifest record; every field round-trips bit-exactly
    through JSON. Invariants checkable without the config are checked when built.
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

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not self.frame_rho or len(self.frame_rho) != len(self.frame_fc):
            raise ValueError(
                f"frame_rho ({len(self.frame_rho)}) and frame_fc ({len(self.frame_fc)}) "
                "must be equal-length and non-empty"
            )
        if self.start_sample < 0:
            raise ValueError(f"start_sample {self.start_sample} is negative")
        span = self.end_sample - self.start_sample
        if span <= 0 or span % len(self.frame_rho):
            raise ValueError(f"segment span {span} not divisible into {len(self.frame_rho)} frames")
        if self.start_sample % self.frame_len:
            raise ValueError(
                f"start_sample {self.start_sample} not aligned to frame length {self.frame_len}"
            )
        if not all(map(math.isfinite, self.frame_rho)):
            raise ValueError("frame_rho contains non-finite values")
        fc = self.frame_fc
        if not (all(map(math.isfinite, fc)) and 0 <= min(fc) and max(fc) <= self.sample_rate / 2):
            raise ValueError("frame_fc values outside [0, Nyquist]")

    def validate_against(self, cfg: CurationConfig) -> None:
        """Gate invariants, checkable only with the producing config."""
        if self.end_sample - self.start_sample != cfg.frames_per_segment * cfg.frame_len:
            raise ValueError("segment span does not equal the configured duration")
        if not all(r > cfg.snr_threshold_db for r in self.frame_rho):
            raise ValueError("frame_rho at or below the SNR threshold")
        if not all(fc >= cfg.min_bandwidth_hz for fc in self.frame_fc):
            raise ValueError("frame_fc below the bandwidth threshold")

    def to_json(self) -> str:
        return json.dumps(encode(self))

    @classmethod
    def from_json(cls, line: str) -> "CuratedSegment":
        """The record of one manifest line, parsed as ``json.loads`` parses it:
        JSON whitespace around one document, nothing else."""
        text = line.strip(_JSON_WS)
        obj, end = _DECODER.raw_decode(text)
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
        return decode(cls, obj, "record")


def rho_hat(
    x_frame: np.ndarray,
    xhat_frame: np.ndarray,
    v_frame: np.ndarray,
    rho_max_db: float = 100.0,
) -> float:
    """Residual-based SNR estimate for one frame, in dB.

    Enhanced level minus residual level when the frame is at least half
    speech; -inf otherwise, so an unvoiced frame fails every finite SNR
    threshold. Both levels are floored at -200 dB, so a voiced score is
    finite; a vanishing residual (identity-like enhancement) is capped at
    rho_max_db.
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
        return -math.inf
    rho = rms_db(xhat_frame) - rms_db(x_frame - xhat_frame)
    return float(min(rho, rho_max_db))


def snr_gate(rho: np.ndarray, threshold_db: float) -> np.ndarray:
    """Frame passes iff its SNR estimate strictly exceeds the threshold."""
    return (np.asarray(rho) > threshold_db).astype(np.uint8)


def bandwidth_gate(
    xhat_frames: np.ndarray,
    sample_rate: int,
    min_bandwidth_hz: float,
    cfg: StftConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Frame (row of the frame matrix) passes iff its estimated cutoff
    reaches min_bandwidth_hz (inclusive). Returns (acceptance, cutoff_hz)
    so the cutoffs can be stored as segment metadata."""
    # looked up on dsp at each call, so a wrapper set on dsp.estimate_cutoff sees every call
    cutoff_hz = np.array([dsp.estimate_cutoff(frame, sample_rate, cfg) for frame in xhat_frames])
    return (cutoff_hz >= min_bandwidth_hz).astype(np.uint8), cutoff_hz


def extract_segments(accept: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Tile every maximal run of accepted frames with non-overlapping
    blocks of k frames, left-aligned to the run's first frame. Leftover
    frames shorter than a block are unused.
    """
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
class RoundReport:
    """Aggregate statistics for one corpus pass and the config that ran it."""

    round_id: int
    config_hash: str
    config: CurationConfig
    files_processed: int
    failures: list[dict[str, str]]
    segment_count: int
    curated_seconds: float
    rho_histogram: dict[str, int]
    generated_at: str

    def to_json(self) -> str:
        return json.dumps(encode(self), indent=2, sort_keys=True)


def round_report_path(manifest: str | Path, round_id: int) -> Path:
    """Where a round's report file sits next to its manifest."""
    return Path(f"{manifest}.round{round_id}.report.json")


def _write_text_atomic(path: Path, text: str) -> None:
    """Replace a file's text in one step: a failure leaves the old file or
    the new one, never part of one, and no temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_round_configs(manifest: str | Path, round_ids: Iterable[int]) -> dict[str, CurationConfig]:
    """``{config_hash: config}`` from the report files of the given rounds of
    a manifest. A missing report file is passed over; one that does not
    decode is logged and passed over."""
    configs = (_report_config(round_report_path(manifest, r)) for r in sorted(set(round_ids)))
    return {cfg.config_hash(): cfg for cfg in configs if cfg is not None}


def _report_config(path: Path) -> CurationConfig | None:
    """The config in a round report file, or None when there is no such file
    or it does not decode (logged)."""
    if not path.is_file():
        return None
    try:
        return CurationConfig.from_dict(load_json(path, "round report")["config"])
    except (ConfigError, KeyError, TypeError) as exc:
        logger.warning("%s: no round config: %s", path, exc)
        return None


class RhoBins:
    """Counts of SNR estimates by lower bin edge, fed in batches of any size;
    ``counts()`` is ``rho_bin_counts`` of every value added so far, in order.

    Values are binned RHO_BIN_CHUNK at a time, so at most that many wait in
    the buffer whatever the total.
    """

    def __init__(self, bin_width_db: float = DEFAULT_RHO_BIN_WIDTH_DB) -> None:
        self.bin_width_db = bin_width_db
        self._counts: dict[str, int] = {}
        self._pending: list[float] = []

    def add(self, values: Iterable[float]) -> None:
        it = iter(values)
        while True:
            self._pending.extend(islice(it, RHO_BIN_CHUNK - len(self._pending)))
            if len(self._pending) < RHO_BIN_CHUNK:
                return
            self._flush()

    def counts(self) -> dict[str, int]:
        self._flush()
        return self._counts

    def _flush(self) -> None:
        if not self._pending:
            return
        w = self.bin_width_db
        with np.errstate(over="ignore"):  # float arithmetic, as in Python
            q = np.floor(np.array(self._pending, dtype=np.float64) / w)
            # + 0.0 makes the edge of -0.0, or of a v / w that rounds to -0.0, the edge 0.0
            edges = q * w + 0.0
        self._pending.clear()
        if np.isinf(q).any():  # v / w overflowed: no bin edge exists
            raise OverflowError(f"an SNR estimate over bin width {w} is beyond the float range")
        edges, first, count = np.unique(edges, return_index=True, return_counts=True)
        order = np.argsort(first)
        for edge, n in zip(edges[order].tolist(), count[order].tolist()):
            key = f"{edge:g}"
            self._counts[key] = self._counts.get(key, 0) + n


def rho_bin_counts(
    values: Iterable[float],
    bin_width_db: float = DEFAULT_RHO_BIN_WIDTH_DB,
) -> dict[str, int]:
    """Bin SNR estimates by lower edge: ``floor(v / w) * w`` formatted with
    ``:g``, ``-0`` written ``0``.

    Keys appear in the order their first value appears. Edges that format
    to the same key share it and their counts add up: at w = 1e-4, 100.00011
    and 100.00021 both count under ``"100"``, placed where the first of them
    appeared.
    """
    bins = RhoBins(bin_width_db)
    bins.add(values)
    return bins.counts()


def curate_file(buf: AudioBuffer, cfg: CurationConfig) -> list[CuratedSegment]:
    """Run the full per-file pipeline; returns the accepted segments."""
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
    v = frame_matrix(mask, flen)
    if len(x) == 0:
        return []

    rho = np.array([rho_hat(*frames, cfg.rho_max_db) for frames in zip(x, xhat, v)])
    s = snr_gate(rho, cfg.snr_threshold_db)
    b, cutoffs = bandwidth_gate(xhat, cfg.sample_rate, cfg.min_bandwidth_hz, cfg.stft)
    # both gates return equal-length 0/1 uint8 vectors
    blocks = extract_segments(s & b, cfg.frames_per_segment)

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
    return segments


def append_manifest(path: str | Path, segments: Sequence[CuratedSegment]) -> None:
    """Append records to a JSONL manifest."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a", encoding="utf-8") as fh:
        for seg in segments:
            fh.write(seg.to_json() + "\n")


class ManifestReader:
    """The valid records of a JSONL manifest, streamed in file order.

    A missing manifest is a ConfigError when the reader is made. Each pass
    reads the file once and holds one line at a time. A malformed line is
    skipped with a warning and counted in ``skipped``; a pass that skipped
    any logs one summary line for the manifest.
    """

    def __init__(self, path: str | Path) -> None:
        if not Path(path).is_file():
            raise ConfigError(f"manifest not found: {Path(path)}")
        self.path = path
        self.skipped = 0

    def __iter__(self) -> Iterator[CuratedSegment]:
        self.skipped = 0
        with open(self.path, "rb") as fh:  # decoded per line, so a bad byte costs one record
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                    if line.isspace():
                        continue
                    seg = CuratedSegment.from_json(line)
                except (ValueError, TypeError) as exc:
                    self.skipped += 1
                    logger.warning("%s:%d: skipping malformed record: %s", self.path, lineno, exc)
                    continue
                yield seg
        if self.skipped:
            logger.warning("%s: skipped %d malformed record(s)", self.path, self.skipped)


def load_manifest(path: str | Path) -> tuple[list[CuratedSegment], int]:
    """Every valid record of a JSONL manifest, in file order, and the count
    of malformed records skipped; a missing manifest is a ConfigError."""
    reader = ManifestReader(path)
    return list(reader), reader.skipped


def _curate_one(source: str, cfg: CurationConfig) -> tuple[list[CuratedSegment], str | None]:
    """The file's segments and, if it failed, the error message."""
    try:
        return curate_file(read_wav(source), cfg), None
    except Exception as exc:  # per-file isolation: one bad file never kills a round
        logger.error("curation failed for %s: %s", source, exc)
        return [], str(exc)


def run_round(
    corpus: Sequence[str | Path],
    cfg: CurationConfig,
    manifest_out: str | Path,
    jobs: int = 1,
) -> RoundReport:
    """Curate every corpus file, write a round report, which holds the
    config, at ``{manifest}.round{round_id}.report.json``, then append the
    segments to the manifest.

    ``jobs`` (at least 1) threads curate the files; a single writer appends
    the records in corpus order, so a rerun gives byte-identical records.

    A round whose report already holds a different config is a ConfigError,
    raised before anything is written: its report would be replaced, and
    export could no longer find the config of the first run's records.
    """
    report_path = round_report_path(manifest_out, cfg.round_id)
    previous = _report_config(report_path)
    if previous is not None and previous.config_hash() != cfg.config_hash():
        raise ConfigError(
            f"{report_path}: round {cfg.round_id} already ran under config "
            f"{previous.config_hash()[:12]}, not {cfg.config_hash()[:12]}; "
            "give the round another round_id or manifest"
        )
    sources = [str(p) for p in corpus]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(lambda s: _curate_one(s, cfg), sources))

    all_segments: list[CuratedSegment] = []
    failures: list[dict[str, str]] = []
    for source, (segments, error) in zip(sources, results):
        if error is not None:
            failures.append({"source": source, "error": error})
        all_segments.extend(segments)

    report = RoundReport(
        round_id=cfg.round_id,
        config_hash=cfg.config_hash(),
        config=cfg,
        files_processed=len(sources),
        failures=failures,
        segment_count=len(all_segments),
        curated_seconds=float(sum(seg.duration_seconds for seg in all_segments)),
        rho_histogram=rho_bin_counts(r for seg in all_segments for r in seg.frame_rho),
        generated_at=datetime.now(timezone.utc).isoformat(),
    )
    # the report goes first, so every appended record's config_hash is in one
    _write_text_atomic(report_path, report.to_json() + "\n")
    append_manifest(manifest_out, all_segments)
    return report


def filter_manifest(
    segments: Iterable[CuratedSegment],
    min_rho: float | None = None,
    max_rho: float | None = None,
) -> list[CuratedSegment]:
    """Select segments by bounds on their per-frame SNR estimates.

    min_rho keeps segments whose weakest frame reaches the bound;
    max_rho keeps segments whose strongest frame stays at or under it.
    """
    return [
        seg
        for seg in segments
        if (min_rho is None or min(seg.frame_rho) >= min_rho)
        and (max_rho is None or max(seg.frame_rho) <= max_rho)
    ]


def export_ab_pairs(
    segments: Sequence[CuratedSegment],
    out_dir: str | Path,
    configs: Mapping[str, CurationConfig],
) -> int:
    """Write one unprocessed/enhanced WAV pair per segment for A/B listening.

    The enhanced side re-runs an enhancer and STFT over the whole source
    file, then slices the exact segment. They are taken from
    ``configs[seg.config_hash]``, the config of the round that scored the
    segment, or, for a hash not in ``configs``, from the segment's
    ``enhancer_id`` with the default StftConfig(). Segments that take the
    second path are counted and logged once. Segments are grouped by source:
    each source is read once and enhanced once per distinct enhancer and
    STFT, and only the current source's buffers are held. A segment whose
    source is unreadable, that ends past its source, whose enhancer
    identifier does not decode, whose enhancement fails or whose pair is
    already written is skipped and counted.

    Files are named ``{stem}_r{round}_{start}_{side}.wav``. Sources that
    share a stem use ``{stem}_{tag}``, and different enhancers that share
    one source's ``r{round}_{start}`` add ``_{tag}`` after the start; a tag
    is the first 8 hex digits of sha256(source_uri or enhancer identifier).
    One enhancer under two STFTs at the same name writes its first pair.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    by_source: dict[str, list[CuratedSegment]] = {}
    for seg in segments:
        by_source.setdefault(seg.source_uri, []).append(seg)
    stem_count = Counter(Path(source_uri).stem for source_uri in by_source)

    pairs = 0
    skipped = 0
    fallback = 0
    for source_uri, group in by_source.items():
        stem = Path(source_uri).stem
        if stem_count[stem] > 1:
            stem += "_" + hashlib.sha256(source_uri.encode("utf-8")).hexdigest()[:8]
        try:
            buf = read_wav(source_uri)
        except Exception as exc:
            skipped += len(group)
            logger.warning("skipping %d segment(s) of %s: %s", len(group), source_uri, exc)
            continue
        # (canonical enhancer identifier, STFT) -> (config, segments), in order of first appearance
        by_enhancer: dict[tuple[str, StftConfig], tuple[CurationConfig, list[CuratedSegment]]] = {}
        for seg in group:
            try:
                if seg.end_sample > len(buf):
                    raise ValueError(f"ends at sample {seg.end_sample}, past the source's {len(buf)}")
                cfg = configs.get(seg.config_hash)
                if cfg is None:
                    spec = decode(EnhancerSpec, json.loads(seg.enhancer_id), "enhancer_id")
                    cfg = CurationConfig(enhancer=spec)
                    fallback += 1
            except ValueError as exc:  # also ConfigError and JSONDecodeError
                skipped += 1
                logger.warning("skipping segment of %s at sample %d: %s",
                               source_uri, seg.start_sample, exc)
                continue
            key = (cfg.enhancer.identifier(), cfg.stft)
            by_enhancer.setdefault(key, (cfg, []))[1].append(seg)
        enhancers_at = Counter(key for _, same in by_enhancer.values()
                               for key in {(seg.round_id, seg.start_sample) for seg in same})
        written: set[str] = set()
        for (eid, _), (cfg, same) in by_enhancer.items():
            try:
                enhanced = enhance(buf, cfg.enhancer, cfg.stft)
            except Exception as exc:
                skipped += len(same)
                logger.warning("skipping %d segment(s) of %s: enhancement failed: %s",
                               len(same), source_uri, exc)
                continue
            for seg in same:
                name = f"{stem}_r{seg.round_id}_{seg.start_sample}"
                if enhancers_at[seg.round_id, seg.start_sample] > 1:
                    name += "_" + hashlib.sha256(eid.encode("utf-8")).hexdigest()[:8]
                if name in written:
                    skipped += 1
                    logger.warning("skipping segment of %s: pair %s already written", source_uri, name)
                    continue
                written.add(name)
                sl = slice(seg.start_sample, seg.end_sample)
                write_wav(out / f"{name}_unprocessed.wav",
                          AudioBuffer(buf.samples[sl], buf.sample_rate), "float32")
                write_wav(out / f"{name}_enhanced.wav",
                          AudioBuffer(enhanced.samples[sl], buf.sample_rate), "float32")
                pairs += 1
            del enhanced  # before the next enhancement of this source is made
        del buf  # before the next source is read
    if fallback:
        logger.warning("%d segment(s) have no round config; their enhancer_id and the "
                       "default STFT were used", fallback)
    if skipped:
        logger.warning("export skipped %d segment(s)", skipped)
    return pairs
