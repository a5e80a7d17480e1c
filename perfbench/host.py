"""Host speed reference: a fixed kernel timed alongside the workload.

The benchmark runs on shared hosts whose speed drifts by up to half
over periods of seconds to minutes (other tenants on the same cores),
and a whole 30 s run can fall in a slow period.  Medians over slices
and runs cannot remove that, so the closed-loop timings and the set-up
times are scaled to a nominal host speed.  Between requests the
benchmark times a fixed reference kernel -- interpreted Python plus a
numpy ``unique`` over a boolean matrix, the same mix as the engine's
work -- and multiplies each request's time by ``REFERENCE_SECONDS`` over
the mean time of the probes just before and just after it, so that
bursts of contention shorter than a slice are scaled out too.
On a host where the kernel takes ``REFERENCE_SECONDS`` the scaled times
equal wall-clock times.  The kernel is part of the benchmark, not of the
program, so the scale means the same on every commit.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Nominal time of one reference kernel; scaled times are wall-clock
#: times on a host where the kernel takes exactly this long.
REFERENCE_SECONDS = 0.004
#: Set-ups are scaled by this many kernel runs taken right before them.
SETUP_PROBES = 3


class HostSpeed:
    """Times the reference kernel and turns wall-clock times into scaled ones."""

    def __init__(self, every: float = 0.0) -> None:
        rng = np.random.default_rng(0)
        self._claims = rng.random((2000, 32)) < 0.4
        #: Probe at most this often between requests (0: after each one).
        self.every = every
        #: perf_counter at the start of each probe, and its time in seconds.
        self.starts: list[float] = []
        self.times: list[float] = []
        self._next = 0.0

    def _kernel(self) -> int:
        total = 0
        for i in range(3000):
            total += i * i
        return total + len(np.unique(self._claims, axis=0))

    def probe(self) -> float:
        """Run the kernel once; return its time in seconds."""
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.times.append(took)
        return took

    def maybe_probe(self) -> None:
        """Probe if ``every`` seconds have passed since the last probe."""
        now = time.perf_counter()
        if now >= self._next:
            self.probe()
            self._next = now + self.every

    def scale_around(self, start: float, end: float) -> float:
        """Scale factor for work done in [start, end): from the last probe
        that started before it and the first that started after it."""
        after = bisect.bisect_left(self.starts, end)
        before = bisect.bisect_left(self.starts, start) - 1
        times = [self.times[i] for i in (before, after) if 0 <= i < len(self.times)]
        return REFERENCE_SECONDS / statistics.mean(times) if times else 1.0

    def scale_now(self) -> float:
        """Scale factor from ``SETUP_PROBES`` fresh probes."""
        times = [self.probe() for _ in range(SETUP_PROBES)]
        return REFERENCE_SECONDS / statistics.median(times)
