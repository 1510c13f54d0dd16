"""Machine-speed sampling for the end-to-end timings.

On shared 2-vCPU virtual machines each vCPU can switch between a fast
and a slow mode every few seconds (pure-Python code runs about 1.8x
longer in the slow one, independently on the two vCPUs), and the share
of time spent slow drifts from almost none to most over tens of minutes.
On such a host that drift moved a paper-tables pass between 47 s and
81 s, beyond any bound a regression check could use, while a program
change moves only the program's own time.

So a timed pass pins itself to one vCPU and runs a sampler thread on it
that times a fixed calibration kernel every ``INTERVAL_S``.  The mean
sample over the kernel's duration in the fast mode is the slowdown of an
interval (1.0 = never slow): of the whole pass for its throughput, of
each row's own interval (at least ``MIN_WINDOW_S``, looking back from
its end) for its latency.  ``run.py`` divides timings by it, giving
seconds of the host in its fast mode, and prints the raw figures
alongside.  The sampler costs the pass 1-2% of its wall time.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List, Tuple

#: Duration of :func:`kernel` on the reference host in its fast mode.
REF_KERNEL_S = 0.0003
INTERVAL_S = 0.05
#: Shortest interval a slowdown is averaged over (about 20 samples).
MIN_WINDOW_S = 1.0


def kernel(n: int = 1500) -> int:
    """Fixed pure-Python work small enough to stay cache-resident: integer
    arithmetic and a short dict, so the program's memory traffic between
    samples does not change what a sample costs."""
    x = 12345
    counts = {}
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 15
        counts[k] = counts.get(k, 0) + 1
    return len(counts)


class SpeedSampler:
    """Context manager: pin to one vCPU and sample its speed meanwhile."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (end, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        # Thread CPU time, not wall time: when the main thread runs without
        # the GIL (native code) the two share the vCPU, and wall time would
        # count the main thread's slices as slowness.
        # The untimed first call re-warms what the main thread evicted.
        cpu = time.thread_time
        while not self._stop.is_set():
            kernel()
            c0 = cpu()
            kernel()
            self.samples.append((time.perf_counter(), cpu() - c0))
            self._stop.wait(INTERVAL_S)

    def __enter__(self) -> "SpeedSampler":
        # Affinity set here is inherited by the sampler thread, so both
        # share the vCPU whose speed the timings depend on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float = float("-inf"),
                 end: float = float("inf")) -> float:
        """Mean slowdown over ``[start, end]`` (``perf_counter`` times)."""
        start = min(start, end - MIN_WINDOW_S)
        window = [d for t, d in self.samples if start <= t <= end]
        return statistics.fmean(window or [d for _, d in self.samples]) \
            / REF_KERNEL_S
