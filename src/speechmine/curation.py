"""Curation engine: per-frame SNR scoring, gating, segment extraction and
round orchestration.

A file is curated in two steps. Step 1, score_file, scores its frames:
the file is enhanced, the VAD runs on the enhanced signal, and all three
sequences are cut into fixed frames. A frame's SNR estimate is the
enhanced level minus the residual (input minus enhanced) level, on the
assumption that the enhancer removed only noise. Frames must clear both
the SNR gate and the bandwidth gate, in that order, so the bandwidth is
scored only on runs of SNR-passing frames long enough for a segment, the
only frames that can still be curated. Step 2, curate_file, tiles each
run's frames that pass into fixed-duration segments and builds their
records. The records are appended to a JSONL manifest, one round at a
time.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import uuid
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .audio_io import AudioBuffer, frame_len_samples, frame_matrix, read_wav, whole_positive, write_wav
from . import dsp
from .dsp import StftConfig, rms_db
from .enhance import EnhancerSpec, enhance
from .schema import ConfigError, all_finite, canonical_json, check_fields, decode, encode, load_json, mismatch
from .vad import VadSpec, detect

logger = logging.getLogger(__name__)

DEFAULT_RHO_BIN_WIDTH_DB = 5.0


@dataclass(frozen=True)
class CurationConfig:
    """Every pipeline parameter, checked when built: each field's JSON type
    by ``schema.check_fields``, then the ranges. The config file is the
    single source of truth; its hash is stamped onto every manifest record.
    A field added later must default to the old behaviour, so that an old
    round report decodes to the config its records ran under."""

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
        check_fields(type(self), vars(self))
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate: must be positive, got {self.sample_rate}")
        try:
            flen = frame_len_samples(self.sample_rate, self.frame_seconds)
        except ValueError as exc:
            raise ConfigError(f"frame_seconds: {exc}") from exc
        whole_positive(float(self.segment_seconds) / float(self.frame_seconds),
                       f"segment_seconds: {self.segment_seconds} is not a positive integer "
                       f"multiple of frame_seconds {self.frame_seconds}", ConfigError)
        if not 0 <= self.min_bandwidth_hz <= self.sample_rate / 2:
            raise ConfigError(
                f"min_bandwidth_hz: {self.min_bandwidth_hz} outside [0, {self.sample_rate / 2}]"
            )
        if self.round_id < 0:
            raise ConfigError(f"round_id: must be non-negative, got {self.round_id}")
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

    def config_hash(self) -> str:
        return hash_config(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CurationConfig":
        return decode(cls, data, "config")


def hash_config(data: dict[str, Any]) -> str:
    """The config_hash of a config's JSON object: the SHA-256 of its canonical text."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def load_config(path: str | Path) -> CurationConfig:
    """Parse and validate a JSON config file."""
    return CurationConfig.from_dict(load_json(path))


@dataclass
class CuratedSegment:
    """One accepted fixed-duration block with its per-frame metadata.

    This is the manifest record; every field round-trips bit-exactly
    through JSON, as the JSON type its annotation gives in ``schema``. The
    invariants checkable without the config are checked by one method,
    ``_check_invariants``, whether a record is built directly or read by
    ``from_json``. ``validate_against`` checks the rest on records from
    outside; curate_file builds its records to hold them.
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
    def duration_seconds(self) -> float:
        return (self.end_sample - self.start_sample) / self.sample_rate

    def __post_init__(self) -> None:
        self._check_invariants()

    def _check_invariants(self) -> None:
        """Raise ValueError unless the record holds the invariants checkable
        without its config. The values may be any real numbers, so a record
        built from numpy scalars is checked like one read from a manifest."""
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        n = len(self.frame_rho)
        if not n or n != len(self.frame_fc):
            raise ValueError(
                f"frame_rho ({n}) and frame_fc ({len(self.frame_fc)}) must be equal-length and non-empty"
            )
        if self.start_sample < 0:
            raise ValueError(f"start_sample {self.start_sample} is negative")
        span = self.end_sample - self.start_sample
        if span <= 0 or span % n:
            raise ValueError(f"segment span {span} not divisible into {n} frames")
        if self.start_sample % (span // n):
            raise ValueError(f"start_sample {self.start_sample} not aligned to frame length {span // n}")
        if not all_finite(self.frame_rho):
            raise ValueError("frame_rho contains non-finite values")
        fc = self.frame_fc
        if not (all_finite(fc) and 0 <= min(fc) and max(fc) <= self.sample_rate / 2):
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
        """The record of one manifest line, parsed by ``json.loads``.

        The line must be a JSON object with exactly the record's keys. Each
        value is checked, in declaration order, by ``schema.check_fields``
        with the check its field's annotation gives: an integer in the
        signed 64-bit range, a string, or a list of numbers, never a bool.
        The record is built from the object without ``__init__``, and
        ``_check_invariants`` then checks it as ``__post_init__`` does.
        A line that fails raises ValueError, a ConfigError naming the field
        for a wrong key or type; a line nested past the parser's recursion
        limit raises RecursionError.
        """
        data = json.loads(line)
        if type(data) is not dict or len(data) != len(_RECORD_KEYS):
            raise _record_keys_error(data)
        try:
            check_fields(cls, data, "record.")
        except KeyError:  # as many keys as the record has, so one missing means one unknown
            raise _record_keys_error(data) from None
        seg = object.__new__(cls)
        seg.__dict__ = data  # the parsed object is the record's attributes, keys and types checked
        seg._check_invariants()
        return seg


_RECORD_KEYS = frozenset(f.name for f in fields(CuratedSegment))  # the keys of a manifest line


def _record_keys_error(data: Any) -> ConfigError:
    """Why a parsed manifest line is not an object with the record's keys."""
    if type(data) is not dict:
        return mismatch("record", "a JSON object", data)
    missing = _RECORD_KEYS - data.keys()
    if missing:
        return ConfigError(f"record: missing field(s) {', '.join(sorted(missing))}")
    return ConfigError(f"unknown record field(s): {', '.join(sorted(data.keys() - _RECORD_KEYS))}")


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
    v_frame = np.asarray(v_frame)
    if not x_frame.shape == xhat_frame.shape == v_frame.shape:
        raise ValueError(
            f"frame length mismatch: x {x_frame.shape}, xhat {xhat_frame.shape}, "
            f"v {v_frame.shape}"
        )
    if v_frame.mean(dtype=np.float64) < 0.5:
        return -math.inf
    rho = rms_db(xhat_frame) - rms_db(x_frame - xhat_frame)
    return float(min(rho, rho_max_db))


def snr_gate(rho: np.ndarray, threshold_db: float) -> np.ndarray:
    """Frame passes (True) iff its SNR estimate strictly exceeds the threshold."""
    return np.asarray(rho) > threshold_db


def bandwidth_gate(
    xhat_frames: np.ndarray,
    sample_rate: int,
    min_bandwidth_hz: float,
    cfg: StftConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Frame (row of the frame matrix) passes iff its estimated cutoff
    reaches min_bandwidth_hz (inclusive). Returns (acceptance, cutoff_hz),
    a bool and a float array, so the cutoffs can be stored as segment
    metadata.

    score_file, step 1 of curation, calls it last, once per run of
    SNR-passing frames long enough for a segment, so only frames that can
    still be curated are scored; curate_file, step 2, tiles the frames
    that pass."""
    # looked up on dsp at each call, so a wrapper set on dsp.estimate_cutoff sees every call
    cutoff_hz = np.array([dsp.estimate_cutoff(frame, sample_rate, cfg) for frame in xhat_frames])
    return cutoff_hz >= min_bandwidth_hz, cutoff_hz


def _accepted_runs(accept: np.ndarray, k: int) -> list[tuple[int, int]]:
    """The ``(start, end)`` frame spans of every maximal run of True in a
    bool array that is at least k frames long, in order."""
    flags = np.concatenate(([False], accept, [False]))
    edges = np.flatnonzero(flags[1:] != flags[:-1])
    return [(a, e) for a, e in zip(edges[::2].tolist(), edges[1::2].tolist()) if e - a >= k]


def extract_segments(accept: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Tile every maximal run of accepted frames with non-overlapping
    blocks of k frames, left-aligned to the run's first frame. Leftover
    frames shorter than a block are unused. A frame is accepted where
    ``accept`` is truthy.
    """
    runs = _accepted_runs(np.asarray(accept, dtype=bool), k)
    return [(s, s + k) for a, e in runs for s in range(a, e - k + 1, k)]


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


def _read_round_report(path: Path) -> dict[str, Any] | None:
    """A round report's parsed object, its config not decoded. None for a
    missing report; None, logged, for one that does not parse or is not an
    object storing a string config_hash: no record can be matched to it."""
    if not path.is_file():
        return None
    try:
        report = load_json(path, "round report")
        if type(report) is not dict or type(report.get("config_hash")) is not str:
            raise mismatch("round report", "an object with a string config_hash", report)
    except ConfigError as exc:
        logger.warning("%s: no round config: %s", path, exc)
        return None
    return report


def load_round_configs(manifest: str | Path, round_ids: Iterable[int]) -> dict[str, CurationConfig]:
    """``{config_hash: config}`` from the report files of the given rounds of
    a manifest, keyed by the hash each report stores, which its records
    carry. A report ``_read_round_report`` passes over is passed over; one
    whose hash is not the hash_config of its config, or whose config does
    not decode, is logged and passed over."""
    configs: dict[str, CurationConfig] = {}
    for path in (round_report_path(manifest, r) for r in sorted(set(round_ids))):
        report = _read_round_report(path)
        if report is None:
            continue
        stored, data = report["config_hash"], report.get("config")
        try:
            if stored != hash_config(data):
                raise ConfigError(f"config_hash {stored!r} is not the hash of the stored config")
            configs[stored] = CurationConfig.from_dict(data)
        except ConfigError as exc:
            logger.warning("%s: no round config: %s", path, exc)
    return configs


def round_totals(
    segments: Iterable[CuratedSegment],
    bin_width_db: float = DEFAULT_RHO_BIN_WIDTH_DB,
) -> tuple[dict[int, float], dict[int, dict[str, int]]]:
    """Curated seconds and binned per-frame SNR estimates, each keyed by
    round in ascending order, from one pass over the records.

    An estimate v counts under its lower bin edge ``floor(v / w) * w``,
    formatted with ``:g`` and ``-0`` written ``0``. Keys appear in the order
    their first value was seen. Edges that format to the same key share it
    and their counts add up: at w = 1e-4, 100.00011 and 100.00021 both count
    under ``"100"``, placed where the first of them was seen.

    Only the per-round sums and one count per distinct bin are held, so the
    records can be a stream of any length. Each round's seconds are summed
    in record order.
    """
    w = bin_width_db
    seconds: dict[int, float] = {}
    counts: dict[int, dict[int, int]] = {}  # round -> bin index -> count
    for seg in segments:
        rid = seg.round_id
        seconds[rid] = seconds.get(rid, 0.0) + seg.duration_seconds
        by_bin = counts.setdefault(rid, {})
        try:
            for v in seg.frame_rho:
                q = math.floor(v / w)
                by_bin[q] = by_bin.get(q, 0) + 1
        except OverflowError:  # v / w is infinite: no bin edge exists
            raise OverflowError(
                f"an SNR estimate over bin width {w} is beyond the float range") from None
    hist: dict[int, dict[str, int]] = {}
    for rid in sorted(counts):
        keyed = hist[rid] = {}
        for q, n in counts[rid].items():
            key = f"{q * w + 0.0:g}"  # + 0.0: at a negative width, zero's edge q * w is -0.0
            keyed[key] = keyed.get(key, 0) + n
    return dict(sorted(seconds.items())), hist


def score_file(
    buf: AudioBuffer, cfg: CurationConfig,
) -> tuple[np.ndarray, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Step 1 of curation: score a file's frames. Returns ``(rho, runs)``.

    The file is enhanced, the VAD runs on the enhanced signal, and every
    whole frame gets an SNR estimate (rho_hat) in ``rho``, -inf where the
    frame is less than half speech. Each maximal run of SNR-passing frames
    at least one segment long is then scored by the bandwidth gate, and
    ``runs`` holds ``(first_frame, passing, cutoffs)`` for each of them in
    order: the run's bandwidth decisions and cutoffs, one per frame.

    A frame outside these runs can never be in a segment, so scoring only
    the runs gives the segments and cutoffs that scoring every frame gives.
    """
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

    rho = np.array([rho_hat(*frames, cfg.rho_max_db) for frames in zip(x, xhat, v)])
    runs = _accepted_runs(snr_gate(rho, cfg.snr_threshold_db), cfg.frames_per_segment)
    return rho, [(a, *bandwidth_gate(xhat[a:e], cfg.sample_rate, cfg.min_bandwidth_hz, cfg.stft))
                 for a, e in runs]


def curate_file(buf: AudioBuffer, cfg: CurationConfig) -> list[CuratedSegment]:
    """Run the full per-file pipeline; returns the accepted segments.

    Step 1, ``score_file``, scores the file's frames. Step 2, here, tiles
    the frames of each scored run that pass the bandwidth gate into
    segments (extract_segments) and builds each segment's record from the
    run's SNR estimates and cutoffs.

    The records hold ``validate_against(cfg)`` by construction, so it is not
    called: every frame passed both gates, and a record spans k frames of
    cfg.frame_len samples. ``__post_init__`` checks what needs no config.
    """
    rho, runs = score_file(buf, cfg)
    flen = cfg.frame_len
    config_hash = cfg.config_hash()
    enhancer_id = cfg.enhancer.identifier()
    return [
        CuratedSegment(
            source_uri=buf.source or "<memory>",
            round_id=cfg.round_id,
            start_sample=(a + f0) * flen,
            end_sample=(a + f1) * flen,
            sample_rate=cfg.sample_rate,
            frame_rho=rho[a + f0 : a + f1].tolist(),
            frame_fc=cutoffs[f0:f1].tolist(),
            config_hash=config_hash,
            enhancer_id=enhancer_id,
        )
        for a, passing, cutoffs in runs
        for f0, f1 in extract_segments(passing, cfg.frames_per_segment)  # run frames, not file frames
    ]


def append_manifest(path: str | Path, segments: Sequence[CuratedSegment]) -> None:
    """Append records to a JSONL manifest."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a", encoding="utf-8") as fh:
        for seg in segments:
            fh.write(seg.to_json() + "\n")


_RHO_NAME = json.dumps("frame_rho").encode()
# a \u escape of one of the letters of frame_rho, which could spell the name another way
_ESCAPED_NAME_LETTER = re.compile(rb"\\u00(?:5[fF]|6[1568dDfF]|72)")


def _rho_key() -> bytes:
    """The text to_json writes before a record's frame_rho values, read off
    a line it writes: the field's name up to the list's opening bracket."""
    line = CuratedSegment("", 0, 0, 1, 1, [0.0], [0.0], "", "").to_json()
    start = line.index(_RHO_NAME.decode())
    return line[start : line.index("[", start) + 1].encode()


_RHO_KEY = _rho_key()


def _rho_out_of_bounds(raw: bytes, lo: float, hi: float) -> bool:
    """Whether a raw manifest line provably holds a frame_rho value, a
    finite number, below ``lo`` or above ``hi``; read without decoding it.

    The proof needs the name "frame_rho" to occur exactly once in the line,
    as the key to_json writes, with none of its letters escaped, so no other
    key of the line can decode to the same name and replace its value. The
    values are then read one at a time, up to the first ``]``, by ``float``.
    For a JSON number that is the value ``json.loads`` gives, rounded to a
    float; rounding keeps order, so a value out of the (float) bounds after
    rounding was out of them before. A value that is not a number, or not
    finite, ends the scan undecided; so does a line of any other shape.
    """
    if raw.count(_RHO_NAME) != 1 or _ESCAPED_NAME_LETTER.search(raw):
        return False
    start = raw.find(_RHO_NAME)
    if not raw.startswith(_RHO_KEY, start):
        return False
    start += len(_RHO_KEY)
    end = raw.find(b"]", start)
    if end < 0:
        return False
    for token in raw[start:end].split(b","):
        try:
            r = float(token)
        except ValueError:
            return False
        if not lo <= r <= hi:
            return math.isfinite(r)
    return False


class ManifestReader:
    """The valid records of a JSONL manifest, streamed in file order.

    A missing manifest is a ConfigError when the reader is made. Each pass
    reads the file once and holds one line at a time. A malformed line is
    skipped with a warning and counted in ``skipped``; a pass that skipped
    any logs one summary line for the manifest.

    ``min_rho`` and ``max_rho`` (compared as floats) push
    ``filter_manifest``'s bounds into the read: a line that
    ``_rho_out_of_bounds`` proves out of bounds is passed over undecoded,
    and neither warned about nor counted, whether or not it is a valid
    record, since no such line could be selected. Every other line is read
    as without bounds, so the reader still yields records out of bounds,
    and ``filter_manifest`` stays the one exact selection.
    """

    def __init__(
        self,
        path: str | Path,
        min_rho: float | None = None,
        max_rho: float | None = None,
    ) -> None:
        if not Path(path).is_file():
            raise ConfigError(f"manifest not found: {Path(path)}")
        self.path = path
        self.skipped = 0
        self._bounds = None if min_rho is None and max_rho is None else (
            -math.inf if min_rho is None else float(min_rho),
            math.inf if max_rho is None else float(max_rho),
        )

    def __iter__(self) -> Iterator[CuratedSegment]:
        self.skipped = 0
        bounds = self._bounds
        with open(self.path, "rb") as fh:  # decoded per line, so a bad byte costs one record
            for lineno, raw in enumerate(fh, start=1):
                if bounds is not None and _rho_out_of_bounds(raw, *bounds):
                    continue
                try:
                    line = raw.decode("utf-8")
                    if line.isspace():
                        continue
                    seg = CuratedSegment.from_json(line)
                except (ValueError, TypeError, RecursionError) as exc:
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

    A round whose report already stores another config_hash is a
    ConfigError, raised before anything is written: its report would be
    replaced, and export could no longer find the config of the first run's
    records. The stored hash is compared as it is, so a report whose config
    this version cannot decode is refused too.
    """
    report_path = round_report_path(manifest_out, cfg.round_id)
    previous = _read_round_report(report_path)
    if previous is not None and previous["config_hash"] != cfg.config_hash():
        raise ConfigError(
            f"{report_path}: round {cfg.round_id} already ran under config "
            f"{previous['config_hash'][:12]}, not {cfg.config_hash()[:12]}; "
            "give the round another round_id or manifest"
        )
    sources = [str(p) for p in corpus]
    all_segments: list[CuratedSegment] = []
    failures: list[dict[str, str]] = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for source, (segments, error) in zip(sources, pool.map(lambda s: _curate_one(s, cfg), sources)):
            if error is not None:
                failures.append({"source": source, "error": error})
            all_segments.extend(segments)

    seconds, hist = round_totals(all_segments)
    report = RoundReport(
        round_id=cfg.round_id,
        config_hash=cfg.config_hash(),
        config=cfg,
        files_processed=len(sources),
        failures=failures,
        segment_count=len(all_segments),
        curated_seconds=seconds.get(cfg.round_id, 0.0),
        rho_histogram=hist.get(cfg.round_id, {}),
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


def _name_tag(name: str) -> str:
    """The first 8 hex digits of the SHA-256 of a name's file-system bytes
    (``os.fsencode``): on a UTF-8 file system, its UTF-8 bytes where it has
    them, and the original bytes of a path that did not decode."""
    return hashlib.sha256(os.fsencode(name)).hexdigest()[:8]


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
    source is unreadable, whose sample rate is not its source's, that ends
    past its source, whose enhancer identifier does not decode, whose
    enhancement fails or whose pair is already written is skipped and
    counted.

    Files are named ``{stem}_r{round}_{start}_{side}.wav``. Sources that
    share a stem use ``{stem}_{tag}``, and different enhancers that share
    one source's ``r{round}_{start}`` add ``_{tag}`` after the start; a tag
    is ``_name_tag`` of the source_uri or the enhancer identifier.
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
            stem += "_" + _name_tag(source_uri)
        try:
            buf = read_wav(source_uri)
        except Exception as exc:
            skipped += len(group)
            logger.warning("skipping %d segment(s) of %s: %s", len(group), source_uri, exc)
            continue
        # (canonical enhancer identifier, STFT) -> (config, segments), in order of first appearance
        by_enhancer: dict[tuple[str, StftConfig], tuple[CurationConfig, list[CuratedSegment]]] = {}
        eids_at: dict[tuple[int, int], set[str]] = {}  # (round, start) -> enhancer identifiers
        for seg in group:
            try:
                if seg.sample_rate != buf.sample_rate:
                    raise ValueError(f"recorded at {seg.sample_rate} Hz, but its source is at "
                                     f"{buf.sample_rate} Hz")
                if seg.end_sample > len(buf):
                    raise ValueError(f"ends at sample {seg.end_sample}, past the source's {len(buf)}")
                cfg = configs.get(seg.config_hash)
                if cfg is None:
                    spec = decode(EnhancerSpec, json.loads(seg.enhancer_id), "enhancer_id")
                    cfg = CurationConfig(enhancer=spec)
                    fallback += 1
            except (ValueError, RecursionError) as exc:  # also ConfigError and JSONDecodeError
                skipped += 1
                logger.warning("skipping segment of %s at sample %d: %s",
                               source_uri, seg.start_sample, exc)
                continue
            eid = cfg.enhancer.identifier()
            by_enhancer.setdefault((eid, cfg.stft), (cfg, []))[1].append(seg)
            eids_at.setdefault((seg.round_id, seg.start_sample), set()).add(eid)
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
                if len(eids_at[seg.round_id, seg.start_sample]) > 1:
                    name += "_" + _name_tag(eid)
                if name in written:
                    skipped += 1
                    logger.warning("skipping segment of %s: pair %s already written", source_uri, name)
                    continue
                written.add(name)
                sl = slice(seg.start_sample, seg.end_sample)
                write_wav(out / f"{name}_unprocessed.wav",
                          AudioBuffer(buf.samples[sl], buf.sample_rate))
                write_wav(out / f"{name}_enhanced.wav",
                          AudioBuffer(enhanced.samples[sl], buf.sample_rate))
                pairs += 1
            del enhanced  # before the next enhancement of this source is made
        del buf  # before the next source is read
    if fallback:
        logger.warning("%d segment(s) have no round config; their enhancer_id and the "
                       "default STFT were used", fallback)
    if skipped:
        logger.warning("export skipped %d segment(s)", skipped)
    return pairs
