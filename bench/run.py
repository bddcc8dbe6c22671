"""Benchmark of the speechmine CLI on seeded synthetic corpora.

Run from the root of a checkout:

    python3 bench/run.py --workload curate_long --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --compare --seeds 10 --sets 2

A run builds (or reuses) the workload's fixture for the seed, then starts
a fresh process per repetition, on the one core the run pins itself to,
that imports the CLI, loads the config and calls ``speechmine.cli.main``
with ``--jobs 1``. Every repetition's outputs are checked against the
fixture's ground truth, and its times are scaled to the reference host
speed (``speed.py``). The last line of standard output is one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); every metric is a median over the run's repetitions. A failed check prints the object with
``"correct": false`` and exits 1; a checkout without the program exits 2
without printing one.

``--compare`` runs every workload on ``--seeds`` seeds, ``--sets`` times,
alternating the workload order, and checks the spread within each set and
the drift between sets against the bounds in BENCHMARK.json.

See bench/README.md for the metrics, the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import fixtures  # noqa: E402
import tracing  # noqa: E402
from speed import HostSpeed  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".benchwork"
MIN_REPS = 3
SETUP_SPAWNS = 8
CHILD_TIMEOUT_S = 150
MIN_COVERAGE = 0.9  # share of a traced curate call inside named layer spans
WORKLOADS = ("curate_long", "curate_oracle_many", "review")


class BenchError(Exception):
    """The program could not be run or a child process failed."""


# ---------------------------------------------------------------- children


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", SECP_LOG="WARNING")
    return env


def cli_calls(workload: str, out: Path) -> list[list[str]]:
    if workload == "review":
        return [
            ["report", "review.jsonl", "--out", str(out / "report")],
            ["export-ab", "--manifest", "review.jsonl", "--out", str(out / "ab"),
             "--min-rho", str(fixtures.REVIEW_MIN_RHO)],
        ]
    return [["curate", "--config", "config.json", "--corpus", "corpus/*.wav",
             "--manifest", str(out / "manifest.jsonl"), "--jobs", "1"]]


def run_child(fixture: Path, rep: Path, calls: list[list[str]], trace: str | None = None) -> dict:
    """Run one child in the fixture directory; return its result with
    ``setup_s`` (spawn until the CLI is ready) and ``wall_s`` (all calls)."""
    rep.mkdir(parents=True)
    job = {"config": "config.json", "calls": calls, "trace": trace, "out": str(rep / "result.json")}
    with (rep / "stderr.log").open("wb") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=fixture, env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = (rep / "stderr.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"child exited {proc.returncode}:\n{tail}")
    result = json.loads((rep / "result.json").read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise BenchError(f"imported speechmine from {result['module']}, not from this checkout")
    bad = [c for c in result["calls"] if c["rc"] != 0]
    if bad:
        tail = (rep / "stderr.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"CLI call {bad[0]['argv']} exited {bad[0]['rc']}:\n{tail}")
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = sum(c["wall_s"] for c in result["calls"])
    return result


class Run:
    """Repetitions of one workload on one fixture, checked as they finish."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.fixture, self.truth = fixtures.fixture(WORK / "fixtures", workload, seed)
        os.sync()  # write back the new corpus now, not while a repetition is timed
        self.outdir = WORK / "runs" / str(os.getpid())
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.count = 0
        self.verdicts: list[checks.Verdict] = []
        self.speed = HostSpeed()

    def child(self, trace: str | None = None, setup_only: bool = False) -> dict:
        self.count += 1
        rep = self.outdir / f"rep{self.count}"
        try:
            result = run_child(self.fixture, rep, [] if setup_only else cli_calls(self.workload, rep), trace)
            result["speed"] = self.speed.factor(result["wall_s"] + result["setup_s"])
            if not setup_only:
                self.verdicts.append(self.check(rep))
            return result
        finally:
            shutil.rmtree(rep, ignore_errors=True)

    def check(self, rep: Path) -> checks.Verdict:
        if self.workload == "review":
            return checks.check_review(self.truth, rep / "report", rep / "ab")
        return checks.check_curate(self.fixture, self.truth, rep / "manifest.jsonl")

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def outcome(self) -> tuple[list[str], int, int]:
        """Problems, inputs attempted and inputs failed over all repetitions."""
        problems = [p for v in self.verdicts for p in v.problems]
        if len({v.sha256 for v in self.verdicts}) > 1:
            problems.append("main output differs between repetitions of one seed")
        return problems, sum(v.attempted for v in self.verdicts), sum(v.failed for v in self.verdicts)


# ---------------------------------------------------------------- measuring


def describe(name: str, values: list[float]) -> str:
    """Median, quartiles and sample count of one metric's samples."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{name}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}"


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    run.child(setup_only=True)  # untimed: compiles bytecode, warms the file cache
    children = [run.child(setup_only=True) for _ in range(SETUP_SPAWNS)]
    timed = []
    start = time.monotonic()
    while len(timed) < MIN_REPS or time.monotonic() - start < seconds:
        timed.append(run.child())
    children += timed
    setups = [c["setup_s"] * c["speed"] for c in children]
    walls = [c["wall_s"] * c["speed"] for c in timed]
    rss = [c["maxrss_kb"] / 1024.0 for c in timed]
    for name, values in (
        ("setup_s", setups), ("wall_s", walls), ("peak_rss_mb", rss),
        ("measured setup_s", [c["setup_s"] for c in children]),
        ("measured wall_s", [c["wall_s"] for c in timed]),
        ("host speed factor", [c["speed"] for c in children]),
    ):
        print(describe(name, values))
    verdict = run.verdicts[0]
    _, attempted, failed = run.outcome()
    wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "rtf": wall / fixtures.input_seconds(run.truth),
        "peak_rss_mb": statistics.median(rss),
        "precision": verdict.precision,
        "recall": verdict.recall,
        "ok_frac": 1.0 - failed / attempted,
    }


def median_summary(summaries: list[dict]) -> dict[str, dict[str, float]]:
    labels = {label for s in summaries for label in s}
    return {
        label: {
            f: statistics.median(s.get(label, {}).get(f, 0.0) for s in summaries)
            for f in ("calls", "s", "self_s", "peak_mb")
        }
        for label in labels
    }


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    run.child(setup_only=True)
    memory = run.child(trace="memory")
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        r = run.child()
        plain.append(r["wall_s"] * r["speed"])
        traced.append(run.child(trace="time"))
    summaries = [tracing.summarize(t["spans"], t["speed"]) for t in traced]
    metrics = tracing.layer_metrics(
        median_summary(summaries), tracing.summarize(memory["spans"]), traced[0]["counters"]
    )
    traced_wall = statistics.median(t["wall_s"] * t["speed"] for t in traced)
    metrics["trace.overhead_frac"] = traced_wall / statistics.median(plain) - 1.0
    print(describe("traced wall_s", [t["wall_s"] * t["speed"] for t in traced]))
    print(describe("untraced wall_s", plain))
    if traced[0].get("missing_sites"):
        print("trace sites not found:", ", ".join(traced[0]["missing_sites"]))
    return metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "speechmine" / "__init__.py").is_file():
        print(f"no speechmine package under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = declared_metrics(bool(args.trace))
    # The children inherit this: the program and the HostSpeed kernel
    # share one core, so the kernel sees the load the program sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed)
    try:
        values = per_layer(run, args.seconds) if args.trace else end_to_end(run, args.seconds)
    except BenchError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()
    problems, attempted, failed = run.outcome()
    if args.trace and args.workload != "review" and values["trace.coverage_frac"] < MIN_COVERAGE:
        problems.append(f"layer spans cover {values['trace.coverage_frac']:.3f} of the CLI call, "
                        f"below {MIN_COVERAGE}")
    if set(values) != set(units):
        problems.append(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    print(f"output sha256 {args.workload} seed {args.seed}: {run.verdicts[0].sha256}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }))
    return 1 if problems else 0


# ---------------------------------------------------------------- comparing


def spreads(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def compare(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    results: dict = {}
    ok = True
    for k in range(args.sets):
        for i in range(args.seeds):
            seed = args.first_seed + k * args.seeds + i
            for w in WORKLOADS if (i + k) % 2 == 0 else WORKLOADS[::-1]:
                started = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=900,
                )
                took = time.monotonic() - started
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"set {k} {w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    ok = False
                    continue
                out = json.loads(lines[-1])
                print(f"set {k} {w} seed {seed} ({took:.0f} s): "
                      + " ".join(f"{n}={m['value']:.6g}" for n, m in out["metrics"].items()), flush=True)
                for n, m in out["metrics"].items():
                    results.setdefault(w, {}).setdefault(n, [[] for _ in range(args.sets)])[k].append(m["value"])
    print()
    for w in WORKLOADS:
        for m in metrics:
            sets = results.get(w, {}).get(m["name"])
            if not sets or any(len(s) < 2 for s in sets):
                continue
            stats = [spreads(s) for s in sets]
            line = f"{w:20s} {m['name']:12s}"
            for values, (q2, q1, q3, spread) in zip(sets, stats):
                line += f" | median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)} spread {spread:.4f}"
                if spread > m["bound"]:
                    line += " SPREAD>BOUND"
                    ok = False
            if len(stats) > 1:
                first, second = stats[0][0], stats[-1][0]
                drift = (second - first) / first * (1 if m["better"] == "lower" else -1)
                line += f" | drift {drift:+.4f} (bound {m['bound']})"
                if drift > m["bound"]:
                    line += " DRIFT>BOUND"
                    ok = False
            print(line)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", action="store_true", help="two-set steadiness check")
    parser.add_argument("--seeds", type=int, default=10, help="seeds per set (--compare)")
    parser.add_argument("--sets", type=int, default=2, help="number of sets (--compare)")
    parser.add_argument("--first-seed", type=int, default=1, help="first seed (--compare)")
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
