"""Output checks and ground-truth quality metrics.

Each check returns a ``Verdict``: the problems found (any problem fails
the run), the inputs attempted and how many of them ended other than
expected, precision and recall against the fixture's ground truth, and
the SHA-256 of the run's main output.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from fixtures import FRAME_LEN, SEGMENT_FRAMES, SNR_THRESHOLD_DB, wav_sample_count


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    precision: float = 0.0
    recall: float = 0.0
    sha256: str = ""


def outcome_mismatches(expected_failures, actual_failures) -> int:
    """Inputs whose outcome differs from the expected one: a valid input
    that failed, or a planted bad input that did not."""
    return len(set(expected_failures) ^ set(actual_failures))


def precision_recall(selected: set, relevant: set) -> tuple[float, float]:
    """Share of the selected items that are relevant, and share of the
    relevant items that were selected (0 when the base is empty)."""
    hits = len(selected & relevant)
    return (
        hits / len(selected) if selected else 0.0,
        hits / len(relevant) if relevant else 0.0,
    )


def clean_frames(frame_snr: dict[str, list[float]], threshold_db: float = SNR_THRESHOLD_DB) -> set:
    """(source, frame index) of every whole frame whose true SNR is above
    the threshold."""
    return {(src, i) for src, snrs in frame_snr.items() for i, v in enumerate(snrs) if v > threshold_db}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_curate(fixture: Path, truth: dict, manifest: Path) -> Verdict:
    """Check one curate round's manifest and round report against the
    fixture: every record valid under the config, records in corpus order
    and inside their file, and exactly the planted inputs failed."""
    from speechmine.curation import CuratedSegment, load_config

    v = Verdict()
    files = truth["files"]
    planted = truth["expected_failures"]
    order = {src: i for i, src in enumerate(sorted([*files, *planted]))}
    v.attempted = len(order)
    if not manifest.is_file():
        v.problems.append(f"no manifest written at {manifest}")
        v.failed = v.attempted
        return v
    v.sha256 = sha256(manifest)
    cfg = load_config(fixture / "config.json")

    curated = set()
    last = (-1, -1)
    for lineno, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), start=1):
        try:
            seg = CuratedSegment.from_json(line)
            seg.validate_against(cfg)
        except (ValueError, TypeError) as exc:
            v.problems.append(f"manifest line {lineno}: {exc}")
            continue
        if seg.source_uri not in files:
            v.problems.append(f"manifest line {lineno}: record for unexpected source {seg.source_uri}")
            continue
        key = (order[seg.source_uri], seg.start_sample)
        if key <= last:
            v.problems.append(f"manifest line {lineno}: record out of corpus order")
        last = key
        first, end = seg.start_sample // FRAME_LEN, seg.end_sample // FRAME_LEN
        if end > len(files[seg.source_uri]["frame_snr_db"]):
            v.problems.append(f"manifest line {lineno}: segment runs past the end of its file")
        curated.update((seg.source_uri, f) for f in range(first, end))

    report_path = Path(f"{manifest}.round{cfg.round_id}.report.json")
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        failed_sources = [f["source"] for f in report["failures"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        v.problems.append(f"round report unreadable: {exc}")
        failed_sources = list(order)
    v.failed = outcome_mismatches(planted, failed_sources)
    if v.failed:
        v.problems.append(f"failed inputs {sorted(failed_sources)} != planted {sorted(planted)}")

    frame_snr = {src: f["frame_snr_db"] for src, f in files.items()}
    v.precision, v.recall = precision_recall(curated, clean_frames(frame_snr))
    return v


_PAIR = re.compile(r"^(?P<stem>.+)_r(?P<round>\d+)_(?P<start>\d+)_(?P<side>unprocessed|enhanced)\.wav$")


def check_review(truth: dict, report_dir: Path, ab_dir: Path) -> Verdict:
    """Check the report's per-round hours and histogram totals against the
    fixture manifest, and that export-ab wrote one pair of segment-length
    WAVs per selected segment and nothing else."""
    v = Verdict()
    rounds = sorted(truth["round_seconds"])
    selected = {(Path(src).stem, rnd, frame * FRAME_LEN) for src, rnd, frame in truth["selected"]}
    v.attempted = len(rounds) + len(selected)

    bad_rounds = len(rounds)
    try:
        report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
        v.sha256 = sha256(report_dir / "report.json")
        bad_rounds = 0
        for rid in rounds:
            hours = report["accepted_hours"].get(rid)
            frames = sum(report["rho_histogram"].get(rid, {}).values())
            expect = truth["round_seconds"][rid] / 3600.0
            if hours is None or not math.isclose(hours, expect, rel_tol=1e-9):
                v.problems.append(f"round {rid}: report says {hours} h, fixture holds {expect} h")
                bad_rounds += 1
            elif frames != truth["round_frames"][rid]:
                v.problems.append(f"round {rid}: histogram counts {frames} frames, fixture {truth['round_frames'][rid]}")
                bad_rounds += 1
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        v.problems.append(f"report unreadable: {exc}")

    sides: dict[tuple, set] = {}
    for p in sorted(ab_dir.glob("*")) if ab_dir.is_dir() else []:
        m = _PAIR.match(p.name)
        if m is None:
            v.problems.append(f"unexpected export file {p.name}")
            continue
        key = (m["stem"], int(m["round"]), int(m["start"]))
        if wav_sample_count(p) != SEGMENT_FRAMES * FRAME_LEN:
            v.problems.append(f"{p.name}: not one segment long")
            continue
        sides.setdefault(key, set()).add(m["side"])
    exported = {k for k, s in sides.items() if s == {"unprocessed", "enhanced"}}
    missing, extra = selected - exported, exported - selected
    if missing or extra:
        v.problems.append(f"export-ab: {len(missing)} selected pair(s) missing, {len(extra)} unselected written")
    v.failed = bad_rounds + len(missing) + len(extra)
    v.precision, v.recall = precision_recall(exported, selected)
    return v
