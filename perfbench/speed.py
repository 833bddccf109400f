"""The host's speed, sampled next to every interval the benchmark times.

The benchmark runs on virtual machines whose speed drifts: on the 2-vCPU
reference machine, the same interpreter-bound code runs at one speed for
seconds or minutes and then up to twice as slow, with no steal time, on
both vCPUs at once.  A run, or a whole set of runs, can fall in either
state, so no statistic taken inside one run can remove it.  What does is
a probe of the machine's speed taken next to the program: a fixed
pure-Python loop, run by the same thread right before and after each timed
interval.  The program's time over the probe's stayed within ~9% while the
program's own time moved by 66% (``README.md``, *Steadiness*).

``Probe.scale(t0, t1)`` turns an interval measured on the wall clock into
seconds at the reference speed: its length times ``REFERENCE_S`` over the
probe's trimmed mean time within ``PAD_S`` of the interval.  The probe is
the benchmark's own code, so a change to the program moves the program's
time and not the probe's.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

REFERENCE_S = 0.00033   # the probe's median time on the reference machine under load
PAD_S = 1.0             # probes this close to an interval count for it
TRIM = 0.1              # share of probes dropped at each end before the mean
BURST = 5               # probes taken together before and after a long interval

_MASK = (1 << 64) - 1
_TABLE = [(i * 0x9E3779B97F4A7C15) & _MASK for i in range(256)]
_DATA = bytes(range(256)) * 4


def probe() -> int:
    """A fixed piece of interpreter-bound work: table lookups, shifts and
    dict updates, like the program's per-byte and per-node loops."""
    crc, table = 0, _TABLE
    for b in _DATA:
        crc = ((crc << 8) & _MASK) ^ table[((crc >> 56) ^ b) & 0xFF]
    counts: dict[int, int] = {}
    for i in range(300):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return crc ^ counts[0]


class Probe:
    """Probe times taken by the caller between the intervals it times."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds), in time order

    def sample(self, n: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(n):
            t0 = clock()
            probe()
            t1 = clock()
            self.samples.append(((t0 + t1) / 2, t1 - t0))

    def median_s(self) -> float:
        return float(np.median([seconds for _, seconds in self.samples]))

    def factor(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the trimmed mean probe time near [t0, t1]."""
        samples = self.samples
        lo = bisect.bisect_left(samples, (t0 - PAD_S,))
        hi = bisect.bisect_right(samples, (t1 + PAD_S, math.inf))
        took = np.sort([seconds for _, seconds in samples[lo:hi]])
        if len(took) == 0:
            raise RuntimeError("no speed probe near a timed interval")
        cut = int(len(took) * TRIM)
        return REFERENCE_S / float(took[cut:len(took) - cut].mean())

    def scale(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] at the reference speed."""
        return (t1 - t0) * self.factor(t0, t1)
