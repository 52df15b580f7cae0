"""Host speed probe: a fixed reference kernel, timed all through a run.

On a shared host the speed of unchanged code drifts by tens of percent from
one minute to the next, as other tenants load the machine, and a whole run
can fall in a slow spell.  The probe times a small kernel that belongs to
the benchmark, not to the program, between the program's commands, about
every ``every_s`` seconds.  The time-weighted mean of its timings over
``REFERENCE_S``, the kernel's time on the unloaded host, is the host's
slowdown over the same stretch of time in which the commands were timed;
the benchmark divides its times by it, so a time is reported as it would
read at the unloaded host's speed.  The timings as measured go to the run
record beside the reported values.

The kernel is exact rational arithmetic in pure Python, the work of the
program's exact route; on this kind of host the program's numpy work slows
in step with it.  The slowest twentieth of timings are left out of the
mean: one timing is a few milliseconds, and a pause of the process that
falls into it would count for the whole interval it stands for.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import List, Tuple

# Kernel time, in seconds, on an unloaded 2-vCPU KVM guest (Python 3.11).
# It only sets the scale of the reported times; comparing two commits on
# one host does not depend on it.
REFERENCE_S = 0.0035
FRACTION_TERMS = 1000
TRIM = 0.05
# Most kernel timings taken at once after a long command: a command runs
# without interruption, so the stretch it covers is sampled at its end.
MAX_BURST = 10


class SpeedProbe:
    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.samples: List[Tuple[float, float]] = []  # (weight in s, kernel time in s)
        self.kernel()  # untimed: first-call costs
        self._last = time.perf_counter()

    def kernel(self) -> None:
        total = Fraction(0)
        for k in range(1, FRACTION_TERMS):
            total += Fraction(1, k * k)

    def maybe_sample(self) -> float:
        """Time the kernel once per ``every_s`` passed since the last call that did.

        Each timing stands for its share of the time passed.  Returns the
        seconds spent, so the caller can take them off its own clock.
        """
        start = time.perf_counter()
        gap = start - self._last
        if gap < self.every_s:
            return 0.0
        count = min(MAX_BURST, int(gap // self.every_s))
        for _ in range(count):
            t0 = time.perf_counter()
            self.kernel()
            self.samples.append((gap / count, time.perf_counter() - t0))
        self._last = time.perf_counter()
        return self._last - start

    def slowdown(self) -> float:
        """Time-weighted mean kernel time, slowest TRIM left out, over REFERENCE_S."""
        kept = sorted(self.samples, key=lambda s: s[1])
        kept = kept[:max(1, math.ceil(len(kept) * (1 - TRIM)))]
        weight = sum(w for w, _ in kept)
        return sum(w * t for w, t in kept) / weight / REFERENCE_S
