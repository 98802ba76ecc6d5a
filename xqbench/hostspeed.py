"""Host-speed kernel: a fixed pure-Python job timed beside the ops.

A shared 2-core host changes speed by up to half within minutes, in
``thread_time`` as much as in wall time.  Every timing the benchmark
reports is therefore divided by this kernel's running median, taken
close in time to the op, and multiplied by :data:`REFERENCE_KERNEL_S`:
the result is in *reference-host units*, the time the op would take on a
host where the kernel takes exactly ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import List, Sequence, Tuple

#: the kernel's duration on the reference host, in seconds.  It is a
#: definition, not a measurement: it fixes the unit of every scaled time.
REFERENCE_KERNEL_S = 0.0003

#: seconds of kernel samples on either side of an op that set its scale.
WINDOW_S = 1.0

#: wall time between two kernel samples during a run.
SAMPLE_EVERY_S = 0.01

#: most samples taken at one op boundary.
MAX_CATCH_UP = 20

#: samples in a burst, before or after a set-up.
BURST = 10

_WORDS = tuple(f"w{i:02d}" for i in range(64))


def kernel() -> int:
    """Fixed interpreter-bound work shaped like the engine's: string
    building, dict probes, attribute-free function calls, a keyed sort."""
    table = {}
    total = 0
    for i in range(350):
        key = _WORDS[i % 61] + _WORDS[i % 7]
        table[key] = table.get(key, 0) + i
        total += len(key)
    ranked = sorted(table.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    return total + len(",".join(key for key, _ in ranked))


def time_kernel() -> Tuple[float, float]:
    """Run the kernel once; returns ``(midpoint, seconds)``."""
    started = time.perf_counter()
    kernel()
    ended = time.perf_counter()
    return (started + ended) / 2.0, ended - started


class Speedometer:
    """Kernel samples over a run, and the scale factor they imply."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(time_kernel())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Catch up to one sample per :data:`SAMPLE_EVERY_S` since the last
        one (at most :data:`MAX_CATCH_UP`), so long ops get as many
        samples around them as short ones."""
        due = int((time.perf_counter() - self._last) / SAMPLE_EVERY_S)
        for _ in range(min(due, MAX_CATCH_UP)):
            self.sample()

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def factors(self, instants: Sequence[float]) -> List[float]:
        """Reference-host scale factor for an op at each instant.

        The factor is ``REFERENCE_KERNEL_S`` over the median kernel time
        within :data:`WINDOW_S` of the instant (the nearest sample when
        none falls inside the window).
        """
        if not self.samples:
            raise ValueError("no kernel samples taken")
        ordered = sorted(self.samples)
        mids = [mid for mid, _ in ordered]
        durations = [seconds for _, seconds in ordered]
        result = []
        for instant in instants:
            lo = bisect.bisect_left(mids, instant - WINDOW_S)
            hi = bisect.bisect_right(mids, instant + WINDOW_S)
            if lo >= hi:
                nearest = min(bisect.bisect_left(mids, instant), len(mids) - 1)
                lo, hi = nearest, nearest + 1
            result.append(REFERENCE_KERNEL_S / statistics.median(durations[lo:hi]))
        return result

    def raw_median(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)

    def raw_spread(self) -> float:
        """Interquartile range over median of the raw kernel times."""
        values = [seconds for _, seconds in self.samples]
        if len(values) < 4:
            return 0.0
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)


def pin_to_fastest_cpu() -> int:
    """Pin this process, and the workers it forks later, to the CPU on
    which the kernel runs fastest right now; returns that CPU."""
    timings = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = statistics.median(time_kernel()[1] for _ in range(2 * BURST))
    fastest = min(timings, key=timings.get)
    os.sched_setaffinity(0, {fastest})
    return fastest
