"""Host speed, measured between benchmark children.

On a shared 2-vCPU Xeon VM (2.1 GHz) the same CLI call ran up to 1.8x
slower from one second to the next, and per-run medians of the same
workload moved by a third over a few minutes. ``HostSpeed`` times a
fixed kernel of the benchmark's own in the parent process, on the core
the children run on, just before and just after each child. A child's
seconds times its ``factor`` are seconds at the reference speed, which
is what the benchmark reports. The kernel does not depend on the
program under test, so a change to the program moves the reported
seconds by as much as it moves the measured ones.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Mean time of one kernel on the 2-vCPU Xeon VM above at its usual speed
# (numpy 2.x); it only sets the scale of the reported seconds.
KERNEL_REFERENCE_S = 0.045
# Kernel time per second of child time. A short kernel reads the host's
# speed with more noise than a long child averages out.
KERNEL_SHARE = 0.25
KERNEL_MIN_S = 0.1


class HostSpeed:
    """Speed of the host relative to the reference, from a kernel that
    mixes the kinds of work the program does: FFTs over frames, a fresh
    64-MB array (page faults), JSON parsing and an interpreted loop."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._frames = rng.standard_normal((512, 2048))
        self._records = [
            json.dumps({"rho": rng.uniform(20, 80, 12).tolist(), "source": f"src_{i}.wav"})
            for i in range(900)
        ]
        self._last = self.sample(KERNEL_MIN_S)

    def _kernel(self) -> float:
        start = time.perf_counter()
        np.fft.irfft(np.fft.rfft(self._frames, axis=1), axis=1)
        fresh = np.empty(8_000_000)
        fresh.fill(2.0)
        fresh *= fresh
        del fresh
        sum(sum(json.loads(r)["rho"]) for r in self._records)
        total = 0
        for i in range(100_000):
            total += i * i
        return time.perf_counter() - start

    def sample(self, seconds: float) -> float:
        """Mean kernel time over repetitions that fill ``seconds``."""
        times = [self._kernel()]
        while sum(times) < seconds:
            times.append(self._kernel())
        return statistics.fmean(times)

    def factor(self, child_s: float) -> float:
        """Speed factor over the interval since the previous call, which
        a child of ``child_s`` seconds filled: the reference time over
        the mean of the samples just before and just after it."""
        before, self._last = self._last, self.sample(max(KERNEL_MIN_S, KERNEL_SHARE * child_s))
        return KERNEL_REFERENCE_S / ((before + self._last) / 2.0)
