"""Command-line entry point.

Subcommands: curate, synth, eval, report, export-ab. All pipeline
parameters come from the config file, which keeps the config hash stamped
into manifests meaningful; flags select paths and the subcommand, with two
exceptions on curate: --round replaces the config's round_id, which is part
of the hashed config, and --jobs sets the number of worker threads, which
changes no output. Set SECP_LOG to change the log level. Exit codes: 0 success,
2 bad user input (a file, a flag or SECP_LOG; one line, no traceback),
3 empty corpus, 1 unexpected failure.
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
from .audio_io import WavError, read_wav, write_wav
from .curation import (
    DEFAULT_RHO_BIN_WIDTH_DB,
    ConfigError,
    CurationConfig,
    ManifestReader,
    export_ab_pairs,
    filter_manifest,
    load_config,
    load_round_configs,
    run_round,
)
from .enhance import EnhancerError, EnhancerSpec, enhance
from .evalgen import EvalTriple, NoiseSpec, delta_quality, inject_noise, synth_clean
from .schema import decode, encode, load_json

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_EMPTY_CORPUS = 3


def _enhancement_from_file(path: str) -> CurationConfig:
    """A pipeline config (one with an ``enhancer`` key), checked whole, or a
    bare enhancer spec under the default config, so with the default STFT."""
    data = load_json(path)
    if isinstance(data, dict) and "enhancer" in data:
        return CurationConfig.from_dict(data)
    return CurationConfig(enhancer=decode(EnhancerSpec, data, f"{path}: enhancer"))


def cmd_curate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.round is not None:
        cfg = dataclasses.replace(cfg, round_id=args.round)
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be at least 1, got {args.jobs}")
    files = sorted(p for p in glob.glob(args.corpus, recursive=True) if Path(p).is_file())
    if not files:
        print(f"no files matched corpus pattern {args.corpus!r}", file=sys.stderr)
        return EXIT_EMPTY_CORPUS
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
    if args.sample_rate < 1:
        raise ConfigError(f"--sample-rate: must be positive, got {args.sample_rate}")
    if not (math.isfinite(args.duration) and round(args.duration * args.sample_rate) >= 1):
        raise ConfigError(f"--duration: must be at least one sample long, got {args.duration}")
    noise = NoiseSpec(
        noise_kind=args.noise_kind,
        rayleigh_sigma=args.rayleigh_sigma,
        snr_clip=(args.snr_min, args.snr_max),
        seed=args.seed + 100_000,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(args.count):
        clean = synth_clean(args.duration, args.sample_rate, seed=args.seed + i)
        noisy, target = inject_noise(clean, dataclasses.replace(noise, seed=noise.seed + i))
        clean_name = f"clean_{i:03d}.wav"
        noisy_name = f"noisy_{i:03d}.wav"
        write_wav(out / clean_name, clean, "float32")
        write_wav(out / noisy_name, noisy, "float32")
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
            triple = EvalTriple.from_components(clean, noisy, enhance(noisy, cfg.enhancer, cfg.stft))
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
        hours, hist = evalgen.round_totals(itertools.chain.from_iterable(readers), args.bin_width)
    except OverflowError as exc:  # a width so small that some estimate has no bin edge
        raise ConfigError(f"--bin-width: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    # filtered as it is read: only the selected records are held
    segments = filter_manifest(
        ManifestReader(args.manifest), min_rho=args.min_rho, max_rho=args.max_rho
    )
    if args.enhancer_config:
        override = _enhancement_from_file(args.enhancer_config)
        configs = {seg.config_hash: override for seg in segments}
    else:
        configs = load_round_configs(args.manifest, {seg.round_id for seg in segments})
    pairs = export_ab_pairs(segments, args.out, configs)
    print(f"exported {pairs} A/B pair(s) to {args.out}")
    return EXIT_OK


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
    p.add_argument("--round", type=int, default=None, help="override the config round_id")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel file workers (default: logical CPUs)")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("synth", help="generate a synthetic clean/noisy corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, required=True, help="number of pairs")
    p.add_argument("--duration", type=float, default=20.0, help="seconds per file")
    p.add_argument("--sample-rate", type=int, default=48000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-kind", choices=["white", "pink", "babble_proxy"], default="white")
    p.add_argument("--rayleigh-sigma", type=float, default=15.0)
    p.add_argument("--snr-min", type=float, default=0.0)
    p.add_argument("--snr-max", type=float, default=60.0)
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
