"""Command-line entry point.

Subcommands: curate, synth, eval, report, export-ab. All pipeline
parameters come from the config file, which keeps the config hash stamped
into manifests meaningful: curate's flags select paths, and --jobs sets the
number of worker threads, which changes no output. Other subcommands' flags
may change their own outputs, never a manifest: synth's flags set the
corpus it writes, eval's --metric the score, report's --bin-width the
histogram bins, export-ab's --min-rho and --max-rho the segments it
exports (applied as the manifest is read: a line whose frame_rho values,
scanned before the line is decoded, prove it out of bounds is passed over,
and not reported even if malformed), and --enhancer-config the enhancer
and STFT of eval and export-ab.
Each command makes its output location (--out, curate's --manifest) before
it does any work; report makes it once every manifest has been read.
Set SECP_LOG to change the log level. Exit codes: 0 success, 2 bad user
input (a file, a flag, an output location or SECP_LOG; one line, no
traceback), 3 empty corpus, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob
import itertools
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import evalgen
from .audio_io import MAX_WRITE_RATE, MAX_WRITE_SAMPLES, WavError, read_wav, write_wav
from .curation import (
    DEFAULT_RHO_BIN_WIDTH_DB,
    ConfigError,
    CurationConfig,
    ManifestReader,
    export_ab_pairs,
    filter_manifest,
    load_config,
    load_round_configs,
    round_totals,
    run_round,
)
from .enhance import EnhancerError, EnhancerSpec, enhance
from .evalgen import NOISE_KINDS, EvalTriple, NoiseSpec, delta_quality, inject_noise, synth_clean
from .schema import decode, encode, load_json

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_EMPTY_CORPUS = 3


def _enhancement_from_file(path: str) -> CurationConfig:
    """A bare enhancer spec (an object with a top-level ``kind``) under the
    default config, so with the default STFT, or else a pipeline config,
    checked whole."""
    data = load_json(path)
    if isinstance(data, dict) and "kind" in data:
        return CurationConfig(enhancer=decode(EnhancerSpec, data, f"{path}: enhancer"))
    return CurationConfig.from_dict(data)


def _make_dir(path: str | Path, flag: str) -> Path:
    """Make an output directory and its parents; one that cannot be made is
    a ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot make directory {out}: {exc}") from exc
    return out


def _make_parent(path: str | Path, flag: str) -> None:
    """Make an output file's directory; a path that is a directory, or whose
    directory cannot be made, is a ConfigError."""
    if Path(path).is_dir():
        raise ConfigError(f"{flag}: {path} is a directory")
    _make_dir(Path(path).parent, flag)


def cmd_curate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be at least 1, got {args.jobs}")
    files = sorted(p for p in glob.glob(args.corpus, recursive=True) if Path(p).is_file())
    if not files:
        print(f"no files matched corpus pattern {args.corpus!r}", file=sys.stderr)
        return EXIT_EMPTY_CORPUS
    _make_parent(args.manifest, "--manifest")
    report = run_round(files, cfg, args.manifest, jobs=args.jobs)
    print(
        f"round {report.round_id}: {report.files_processed} file(s), "
        f"{len(report.failures)} failure(s), {report.segment_count} segment(s), "
        f"{report.curated_seconds:.1f} s curated -> {args.manifest}"
    )
    for failure in report.failures:
        print(f"  failed: {failure['source']}: {failure['error']}", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ConfigError(f"--count: must be at least 1, got {args.count}")
    if not 1 <= args.sample_rate <= MAX_WRITE_RATE:
        raise ConfigError(f"--sample-rate: must be in [1, {MAX_WRITE_RATE}], got {args.sample_rate}")
    samples = round(args.duration * args.sample_rate) if math.isfinite(args.duration) else 0
    if not 1 <= samples <= MAX_WRITE_SAMPLES:
        raise ConfigError(f"--duration: must be 1 to {MAX_WRITE_SAMPLES} samples long, got {args.duration}")
    if args.seed < 0:
        raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
    noise = NoiseSpec(
        noise_kind=args.noise_kind,
        rayleigh_sigma=args.rayleigh_sigma,
        snr_clip=(args.snr_min, args.snr_max),
        seed=args.seed + 100_000,
    )
    out = _make_dir(args.out, "--out")
    entries = []
    for i in range(args.count):
        clean = synth_clean(args.duration, args.sample_rate, seed=args.seed + i)
        noisy, target = inject_noise(clean, dataclasses.replace(noise, seed=noise.seed + i))
        clean_name = f"clean_{i:03d}.wav"
        noisy_name = f"noisy_{i:03d}.wav"
        write_wav(out / clean_name, clean)
        write_wav(out / noisy_name, noisy)
        entries.append(
            {
                "clean": clean_name,
                "noisy": noisy_name,
                "target_snr_db": target,
                "seed": args.seed + i,
            }
        )
    meta = {
        "sample_rate": args.sample_rate,
        "duration_seconds": args.duration,
        "noise_kind": args.noise_kind,
        "rayleigh_sigma": args.rayleigh_sigma,
        "snr_clip": [args.snr_min, args.snr_max],
        "seed": args.seed,
        "files": entries,
    }
    (out / "metadata.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.count} clean/noisy pair(s) to {out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    pairs = Path(args.pairs)
    meta_path = pairs / "metadata.json"
    meta = load_json(meta_path, "pair metadata")
    files = meta.get("files") if isinstance(meta, dict) else None
    if not isinstance(files, list):
        raise ConfigError(f"{meta_path}: expected an object holding a files list")
    cfg = _enhancement_from_file(args.enhancer_config)
    evalgen.resolve_metric(args.metric)  # an unknown metric fails the run, not every entry
    if args.out:
        _make_parent(args.out, "--out")

    per_file = []
    skipped = 0
    for entry in files:
        names = [entry.get(k) for k in ("clean", "noisy")] if isinstance(entry, dict) else []
        paths = [pairs / name for name in names if isinstance(name, str)]
        if len(paths) != 2 or not all(p.is_file() for p in paths):
            skipped += 1
            logger.warning("skipping unpaired entry %s", entry)
            continue
        clean_path, noisy_path = paths
        try:
            clean = read_wav(clean_path)
            noisy = read_wav(noisy_path)
            triple = EvalTriple(clean, noisy, enhance(noisy, cfg.enhancer, cfg.stft))
            delta = delta_quality(triple, args.metric)
        except (WavError, EnhancerError, ValueError) as exc:
            skipped += 1
            logger.warning("skipping entry %s: %s", entry["noisy"], exc)
            continue
        per_file.append(
            {"noisy": entry["noisy"], "target_snr_db": entry.get("target_snr_db"), "delta": delta}
        )
    report = {
        "metric": args.metric,
        "enhancer": cfg.enhancer.identifier(),
        "stft": encode(cfg.stft),
        "files_evaluated": len(per_file),
        "files_skipped": skipped,
        "mean_delta": (sum(f["delta"] for f in per_file) / len(per_file)) if per_file else None,
        "per_file": per_file,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote evaluation report to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    """Curated hours and SNR histograms per round. The manifests are read
    once, as one stream, holding only the per-round sums and counts; the
    output directory is made only after every manifest has been read."""
    if not (math.isfinite(args.bin_width) and args.bin_width > 0):
        raise ConfigError(f"--bin-width: must be a finite positive number, got {args.bin_width}")
    readers = [ManifestReader(path) for path in args.manifests]
    try:
        seconds, hist = round_totals(itertools.chain.from_iterable(readers), args.bin_width)
    except OverflowError as exc:  # a width so small that some estimate has no bin edge
        raise ConfigError(f"--bin-width: {exc}") from exc
    hours = {rid: s / 3600.0 for rid, s in seconds.items()}
    out = _make_dir(args.out, "--out")
    report = {
        "accepted_hours": {str(r): h for r, h in hours.items()},
        "rho_histogram": {str(r): counts for r, counts in hist.items()},
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    with (out / "accepted_hours.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round_id", "hours"])
        for rid, h in hours.items():
            writer.writerow([rid, f"{h:.6f}"])
    with (out / "rho_histogram.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round_id", "bin", "count"])
        for rid, counts in hist.items():
            for bin_key, count in sorted(counts.items(), key=lambda kv: float(kv[0])):
                writer.writerow([rid, bin_key, count])
    print(f"wrote report.json, accepted_hours.csv, rho_histogram.csv to {out}")
    return EXIT_OK


def cmd_export_ab(args: argparse.Namespace) -> int:
    for flag, bound in (("--min-rho", args.min_rho), ("--max-rho", args.max_rho)):
        if bound is not None and math.isnan(bound):
            raise ConfigError(f"{flag}: must be a number, got {bound}")
    if args.min_rho is not None and args.max_rho is not None and args.min_rho > args.max_rho:
        raise ConfigError(f"--min-rho {args.min_rho} is above --max-rho {args.max_rho}; "
                          "no segment could be selected")
    reader = ManifestReader(args.manifest, args.min_rho, args.max_rho)
    override = _enhancement_from_file(args.enhancer_config) if args.enhancer_config else None
    _make_dir(args.out, "--out")
    # filtered as it is read: only the selected records are held
    segments = filter_manifest(reader, min_rho=args.min_rho, max_rho=args.max_rho)
    if override is not None:
        configs = {seg.config_hash: override for seg in segments}
    else:
        configs = load_round_configs(args.manifest, {seg.round_id for seg in segments})
    pairs = export_ab_pairs(segments, args.out, configs)
    print(f"exported {pairs} A/B pair(s) to {args.out}")
    return EXIT_OK


def _usable_cpus() -> int:
    """The CPUs this process may run on: its CPU affinity set where the OS
    has one, so a process pinned to one core defaults to one worker."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechmine",
        description="Mine high-SNR, full-bandwidth speech segments from audio corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="run one curation round over a corpus")
    p.add_argument("--config", required=True, help="pipeline config (JSON)")
    p.add_argument("--corpus", required=True, help="glob pattern of input WAV files")
    p.add_argument("--manifest", required=True, help="JSONL manifest to append to")
    p.add_argument("--jobs", type=int, default=_usable_cpus(),
                   help="parallel file workers (default: the CPUs this process may run on)")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("synth", help="generate a synthetic clean/noisy corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, required=True, help="number of pairs")
    p.add_argument("--duration", type=float, default=20.0, help="seconds per file")
    p.add_argument("--sample-rate", type=int, default=CurationConfig.sample_rate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-kind", choices=NOISE_KINDS, default=NoiseSpec.noise_kind)
    p.add_argument("--rayleigh-sigma", type=float, default=NoiseSpec.rayleigh_sigma)
    p.add_argument("--snr-min", type=float, default=NoiseSpec.snr_clip[0])
    p.add_argument("--snr-max", type=float, default=NoiseSpec.snr_clip[1])
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score an enhancer on a clean/noisy pair corpus")
    p.add_argument("--pairs", required=True, help="directory produced by synth")
    p.add_argument("--enhancer-config", required=True,
                   help="enhancer spec or pipeline config; a config's STFT is used too")
    p.add_argument("--metric", default="segmental_snr")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="cross-round curated-hours and score histograms")
    p.add_argument("manifests", nargs="+", help="manifest files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bin-width", type=float, default=DEFAULT_RHO_BIN_WIDTH_DB)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export-ab", help="export unprocessed/enhanced segment pairs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--min-rho", type=float, default=None,
                   help="keep segments whose weakest frame reaches this bound")
    p.add_argument("--max-rho", type=float, default=None,
                   help="keep segments whose strongest frame stays at or under this bound")
    p.add_argument("--enhancer-config", default=None,
                   help="enhancer spec or pipeline config; a config's STFT is used too "
                        "(default: each round's config)")
    p.set_defaults(func=cmd_export_ab)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("SECP_LOG", "INFO")
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ConfigError(f"SECP_LOG: unknown log level {level!r}")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        logger.exception("unexpected failure")
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
