"""One benchmark repetition in a fresh process.

Usage: python3 child.py JOB_JSON

The job names a config file, the CLI argument lists to run and a result
path. The child imports the CLI and loads the config (this is what a user
pays on every call), stamps the ready time on the system-wide monotonic
clock, runs each CLI call through ``speechmine.cli.main`` and writes the
per-call wall times, its own peak RSS and, when traced, its spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    import speechmine
    import speechmine.cli as cli
    from speechmine.curation import load_config

    load_config(job["config"])
    ready = time.monotonic()
    result = {"ready": ready, "module": speechmine.__file__, "calls": []}

    tracer = None
    if job.get("trace"):
        import tracemalloc

        import tracing

        tracer = tracing.Tracer(memory=job["trace"] == "memory")
        result["missing_sites"] = tracing.install(tracer)
        if tracer.memory:
            tracemalloc.start()

    for argv in job.get("calls", []):
        start = time.perf_counter()
        rc = cli.main(argv)  # module attribute: the traced wrapper when installed
        result["calls"].append({"argv": argv, "rc": rc, "wall_s": time.perf_counter() - start})

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
