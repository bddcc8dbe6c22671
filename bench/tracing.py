"""Spans around the program's public functions, recorded from outside.

``install`` replaces each function at the name its caller looks up (the
module global the calling module resolves at call time) with a wrapper
that records a span: name, start, end, parent and, with tracemalloc on,
the peak of traced memory within the span. A site whose module or
attribute no longer exists is skipped, so a later refactor loses spans,
not the run.

``layer_metrics`` turns the spans and counters of one traced CLI run into
the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from typing import Any, Callable

import numpy as np

# (module, attribute the caller looks up, span name). ``speechmine.enhance``
# as an attribute of the package is the re-exported function, so modules
# are always taken from importlib, never from package attributes.
SITES = [
    ("speechmine.cli", "main", "cli.main"),
    ("speechmine.cli", "run_round", "curation.run_round"),
    ("speechmine.cli", "filter_manifest", "curation.filter_manifest"),
    ("speechmine.cli", "export_ab_pairs", "curation.export_ab_pairs"),
    ("speechmine.evalgen", "accepted_hours", "evalgen.accepted_hours"),
    ("speechmine.evalgen", "rho_histogram", "evalgen.rho_histogram"),
    ("speechmine.evalgen", "load_manifest", "curation.load_manifest"),
    ("speechmine.curation", "load_manifest", "curation.load_manifest"),
    ("speechmine.curation", "read_wav", "audio_io.read_wav"),
    ("speechmine.curation", "write_wav", "audio_io.write_wav"),
    ("speechmine.curation", "curate_file", "curation.curate_file"),
    ("speechmine.curation", "enhance", "enhance.enhance"),
    ("speechmine.curation", "detect", "vad.detect"),
    ("speechmine.curation", "rho_hat", "curation.rho_hat"),
    ("speechmine.curation", "snr_gate", "curation.snr_gate"),
    ("speechmine.curation", "bandwidth_gate", "curation.bandwidth_gate"),
    ("speechmine.curation", "extract_segments", "curation.extract_segments"),
    ("speechmine.curation", "append_manifest", "curation.append_manifest"),
    ("speechmine.enhance", "stft", "dsp.stft"),
    ("speechmine.enhance", "istft", "dsp.istft"),
    ("speechmine.enhance", "read_wav", "audio_io.read_wav"),  # oracle references
    ("speechmine.dsp", "estimate_cutoff", "dsp.estimate_cutoff"),
    ("speechmine.dsp", "stft", "dsp.stft"),  # called by estimate_cutoff
]

# Spans that orchestrate: time in their own code is not attributed to a
# layer's work when measuring trace coverage.
ORCHESTRATION = ("cli.main", "curation.run_round")


# ------------------------------------------------------------- recording


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        # [name, start, end, parent index or -1, peak bytes above the start]
        self.spans: list[list[Any]] = []
        self.counters: dict[str, list[float]] = {}  # name -> [numerator, denominator]
        self._stack: list[int] = []
        self._base: dict[int, int] = {}
        self._peak: dict[int, int] = {}

    def count(self, name: str, num: float, den: float = 0.0) -> None:
        c = self.counters.setdefault(name, [0.0, 0.0])
        c[0] += float(num)
        c[1] += float(den)

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                self._peak[parent] = max(self._peak[parent], peak)
            tracemalloc.reset_peak()
            self._base[idx] = self._peak[idx] = current
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            peak = max(self._peak.pop(idx), tracemalloc.get_traced_memory()[1])
            self.spans[idx][4] = peak - self._base.pop(idx)
            if self._stack:
                parent = self._stack[-1]
                self._peak[parent] = max(self._peak[parent], peak)

    def wrap(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None:
                try:
                    observe(self, args, result)
                except (TypeError, ValueError, AttributeError, IndexError):
                    self.count(f"{name}.observe_errors", 1)
            return result

        return traced


def _frac(values) -> tuple[float, float]:
    v = np.asarray(values)
    return float(np.count_nonzero(v)), float(v.size)


# Funnel counters, read from the wrapped function's arguments and result.
OBSERVERS: dict[str, Callable] = {
    "vad.detect": lambda t, a, r: t.count("vad.detect.speech", *_frac(getattr(r, "decisions", r))),
    "curation.snr_gate": lambda t, a, r: t.count("curation.snr_gate.pass", *_frac(r)),
    "curation.bandwidth_gate": lambda t, a, r: t.count("curation.bandwidth_gate.pass", *_frac(r[0])),
    "curation.extract_segments": lambda t, a, r: t.count(
        "curation.extract_segments.used", sum(e - s for s, e in r), _frac(a[0])[0]
    ),
    "curation.load_manifest": lambda t, a, r: t.count("curation.load_manifest.records", len(r[0])),
}


def install(tracer: Tracer) -> list[str]:
    """Patch every site that exists; return the sites that were missing."""
    missing = []
    for module_name, attr, span in SITES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, span, OBSERVERS.get(span)))
    return missing


# ------------------------------------------------------------ aggregation


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, [])):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list[Any]], speed: float = 1.0) -> dict[str, dict[str, float]]:
    """Per span label: calls, inclusive seconds, self seconds, peak MB,
    with seconds multiplied by ``speed``. A dsp.stft span under
    dsp.estimate_cutoff is labelled ``dsp.stft@estimate_cutoff``, apart
    from the enhancer's transforms."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, peak) in enumerate(spans):
        if name == "dsp.stft" and parent >= 0 and spans[parent][0] == "dsp.estimate_cutoff":
            name = "dsp.stft@estimate_cutoff"
        s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_mb": 0.0})
        s["calls"] += 1
        s["s"] += (end - start) * speed
        s["self_s"] += selfs[i] * speed
        s["peak_mb"] = max(s["peak_mb"], peak / 1e6)
    return out


def ratio(counters: dict[str, list[float]], name: str) -> float:
    num, den = counters.get(name, (0.0, 0.0))
    return num / den if den else 0.0


def coverage(summary: dict[str, dict[str, float]]) -> float:
    """Share of the CLI call's time spent inside named layer spans, that
    is outside the own code of the orchestrating spans."""
    total = summary.get("cli.main", {}).get("s", 0.0)
    if not total:
        return 0.0
    orchestration = sum(summary.get(n, {}).get("self_s", 0.0) for n in ORCHESTRATION)
    return 1.0 - orchestration / total


# Per-layer metric -> (span label, field) or a counter ratio. Memory
# fields come from the tracemalloc run, everything else from timing runs.
PER_LAYER: dict[str, tuple[str, str]] = {
    "dsp.stft.self_s": ("dsp.stft", "self_s"),
    "dsp.istft.self_s": ("dsp.istft", "self_s"),
    "enhance.enhance.self_s": ("enhance.enhance", "self_s"),
    "enhance.enhance.calls": ("enhance.enhance", "calls"),
    "enhance.enhance.peak_mb": ("enhance.enhance", "peak_mb"),
    "dsp.estimate_cutoff.s": ("dsp.estimate_cutoff", "s"),
    "dsp.estimate_cutoff.calls": ("dsp.estimate_cutoff", "calls"),
    "dsp.estimate_cutoff.stft_s": ("dsp.stft@estimate_cutoff", "s"),
    "curation.bandwidth_gate.self_s": ("curation.bandwidth_gate", "self_s"),
    "curation.bandwidth_gate.peak_mb": ("curation.bandwidth_gate", "peak_mb"),
    "vad.detect.s": ("vad.detect", "s"),
    "vad.detect.peak_mb": ("vad.detect", "peak_mb"),
    "audio_io.read_wav.self_s": ("audio_io.read_wav", "self_s"),
    "audio_io.read_wav.calls": ("audio_io.read_wav", "calls"),
    "audio_io.write_wav.self_s": ("audio_io.write_wav", "self_s"),
    "curation.rho_hat.s": ("curation.rho_hat", "s"),
    "curation.rho_hat.calls": ("curation.rho_hat", "calls"),
    "curation.extract_segments.s": ("curation.extract_segments", "s"),
    "curation.curate_file.self_s": ("curation.curate_file", "self_s"),
    "curation.append_manifest.s": ("curation.append_manifest", "s"),
    "curation.run_round.self_s": ("curation.run_round", "self_s"),
    "curation.load_manifest.s": ("curation.load_manifest", "s"),
    "evalgen.accepted_hours.s": ("evalgen.accepted_hours", "s"),
    "evalgen.rho_histogram.s": ("evalgen.rho_histogram", "s"),
    "curation.export_ab_pairs.self_s": ("curation.export_ab_pairs", "self_s"),
    "curation.export_ab_pairs.peak_mb": ("curation.export_ab_pairs", "peak_mb"),
    "cli.main.self_s": ("cli.main", "self_s"),
}

FUNNELS = {
    "vad.detect.speech_frac": "vad.detect.speech",
    "curation.snr_gate.pass_frac": "curation.snr_gate.pass",
    "curation.bandwidth_gate.pass_frac": "curation.bandwidth_gate.pass",
    "curation.extract_segments.used_frac": "curation.extract_segments.used",
}


def layer_metrics(
    timing: dict[str, dict[str, float]],
    memory: dict[str, dict[str, float]],
    counters: dict[str, list[float]],
) -> dict[str, float]:
    """Per-layer metrics from a timing summary, a memory summary and the
    funnel counters of the same workload. Absent spans read 0."""
    out = {}
    for metric, (label, field) in PER_LAYER.items():
        source = memory if field == "peak_mb" else timing
        out[metric] = float(source.get(label, {}).get(field, 0.0))
    for metric, counter in FUNNELS.items():
        out[metric] = ratio(counters, counter)
    out["curation.load_manifest.records"] = counters.get("curation.load_manifest.records", [0.0])[0]
    out["trace.coverage_frac"] = coverage(timing)
    return out
