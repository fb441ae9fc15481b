"""Machine-speed calibration for the benchmark's timings.

The benchmark shares a small machine whose speed swings by tens of percent
for seconds at a time, on each CPU independently. While it measures, a
``Sampler`` thread times a fixed kernel on each CPU in turn, ten times a
second. The kernel mixes what rroc spends its time on (Python objects and
dicts, JSON encoding, small numpy sorts and prefix sums) and does not touch
rroc, so no change to the program moves it. Its CPU time, not its wall time,
is sampled, so waiting for the measured process does not count.

A measured interval is reported in reference seconds:
``raw * REF_UNIT_S / mean kernel time`` over the samples taken during the
interval (widened by ``MARGIN_S``), the time it would have taken at the
speed where one kernel takes ``REF_UNIT_S``. The sampler uses about 5% of
each CPU, the same for every commit measured.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
from statistics import mean

import numpy as np

# One kernel on an idle 2-vCPU x86-64 VM, CPython 3.11, numpy 2.4.
REF_UNIT_S = 0.005
# Seconds between kernels; CPUs take turns.
PERIOD_S = 0.1
# Samples this close to a measured interval count for it.
MARGIN_S = 0.5

_DATA = np.random.default_rng(0).normal(size=2000)


def kernel() -> int:
    rows = [{"over": i * 0.5, "under": -i * 0.25, "n_over": i} for i in range(1500)]
    text = json.dumps(rows)
    total = 0
    for row in rows:
        total += row["n_over"] % 7
    a = _DATA
    for _ in range(40):
        a = np.cumsum(np.sort(-a)) / a.size
    return total + len(text)


class Sampler:
    """Background thread sampling the kernel's CPU time on every CPU in turn."""

    def __init__(self):
        self._starts: list = []
        self._times: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Sampler":
        kernel()  # first call pays one-time costs
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        turn = 0
        while not self._stop.wait(PERIOD_S):
            # Pins this thread only; the measured processes stay unpinned.
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            start, cpu0 = time.perf_counter(), time.thread_time()
            kernel()
            self._times.append(time.thread_time() - cpu0)
            self._starts.append(start)

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to reference seconds for work done between start and end."""
        lo = bisect.bisect_left(self._starts, start - MARGIN_S)
        hi = bisect.bisect_right(self._starts, end + MARGIN_S)
        if hi <= lo:
            raise RuntimeError("no calibration sample near a measured interval")
        return REF_UNIT_S / mean(self._times[lo:hi])
