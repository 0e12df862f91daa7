"""The host's speed, sampled with a fixed reference loop on a timer.

The benchmark's host is a few virtual CPUs shared with other tenants.  Its
speed switches between a fast state and one nearly twice as slow, often
within a second, and the program's CPU time slows with it, so the raw time
of an item says as much about the neighbours as about the program.

While a run measures, a wall-clock timer interrupts the program every
``PROBE_EVERY`` seconds, and the handler times a fixed piece of pure-Python
work that does not touch the program -- Fraction, int, float and complex
arithmetic, big integers, lists and dicts, the mix the program runs on -- with
the garbage collector off, so that the program's garbage is not collected
on the probe's clock.  An interval of program work is then the sum of its
stretches between probes, each rescaled to the speed at which the
reference loop takes ``REFERENCE_SECONDS``:

    stretch * REFERENCE_SECONDS / (mean time of the probes either side)

and the probes' own time is left out.  A program that gets slower still
reads slower: the reference loop is the same on every commit.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

# Close to the reference loop's time in the host's fast state (Python 3.11,
# 2 vCPUs of a shared x86-64 host); rescaled times read as seconds at the
# speed where the loop takes this long.
REFERENCE_SECONDS = 0.001
PROBE_EVERY = 0.025


# Two odd integers of about 6000 bits for the reference loop's big-integer part.
_BIG_A = (1 << 5999) + 0x5DEECE66D * 0x9E3779B97F4A7C15
_BIG_B = (1 << 5999) // 3 * 2 + 0xB7E151628AED2A6B


def reference_work() -> int:
    """About 1 ms of work.  Under the host's contention its interpreted
    part slows more than the program does, and its big-integer part, whose
    time is spent in C, less; in this mix the whole slows about as much as
    the workloads do."""
    total = Fraction(0)
    for i in range(1, 140):
        total += Fraction(i % 7 - 3, i % 12 + 1)
    acc, table = 0.0, {}
    z = complex(0.3, 0.4)
    for i in range(1100):
        acc += (i * 0.5) ** 0.5
        z = z * z + 0.1 if abs(z) < 2 else complex(0.3, 0.4)
        table[i % 97] = table.get(i % 97, 0) + i * i
    rows = [[i * j for j in range(12)] for i in range(28)]
    big = 0
    for i in range(2):
        big += (_BIG_A * (_BIG_B + i)) % (_BIG_B - i) + gcd(_BIG_A + i, _BIG_B)
    return total.denominator + int(acc) + sum(map(sum, rows)) + len(table) + big % 7


class SpeedProbe:
    """Probes on a timer between ``start()`` and ``stop()``, and once at each."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self._busy = False
        self._previous = None

    def probe(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.starts.append(t0)
        self.ends.append(t1)
        self.seconds.append(t1 - t0)

    def start(self) -> None:
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def scale(self, start: float, end: float) -> float:
        """The program's time in ``[start, end]`` at the reference speed.

        Needs a probe that ended by ``start`` and one that started at or
        after ``end``; the probes inside the interval are left out."""
        first = bisect_right(self.ends, start)  # probes from here on end after start
        last = bisect_left(self.starts, end)  # the first probe at or after end
        if first == 0 or last == len(self.starts):
            raise ValueError("no probe on one side of the interval")
        total = 0.0
        for j in range(first, last + 1):
            stretch = min(self.starts[j], end) - max(self.ends[j - 1], start)
            total += stretch * 2 / (self.seconds[j - 1] + self.seconds[j])
        return total * REFERENCE_SECONDS
