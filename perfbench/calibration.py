"""A fixed kernel that measures how fast this machine is running now.

On a shared box the same Python code runs up to ~1.6x slower for tens of
seconds at a time while neighbours are busy, so two runs of the same
commit can differ by more than any regression worth catching.  The
benchmark therefore runs this kernel next to the program (before and
after each operation, or every quarter second of short operations) and
reports end-to-end times *speed-normalized*: each measured duration is
multiplied by ``NOMINAL_S / kernel time``, the kernel time being the mean
of the runs that bracket it.  On an undisturbed run of the reference box
the factor is about 1, so the figures read as seconds on that box.

The kernel is plain Python (string formatting, dict updates, a sort),
the same kind of work as the program, and the benchmark never changes it
between commits: a change to the program cannot move it.
"""

from __future__ import annotations

import time
from typing import List, Sequence

#: Roughly the kernel's time on the reference box (2-CPU Xeon at 2.1 GHz,
#: Python 3.11.7) when nothing else competes for it.
NOMINAL_S = 0.045


def kernel() -> float:
    """Run the kernel once; returns its duration in seconds."""
    start = time.perf_counter()
    table = {}
    for index in range(80000):
        key = "k%d" % (index * 7919 % 3001)
        table[key] = table.get(key, 0) + index
    sorted(table.items())
    return time.perf_counter() - start


class Calibration:
    """Kernel times along a run, and the factor for each measured interval."""

    def __init__(self) -> None:
        self.times: List[float] = []

    def sample(self) -> int:
        """Run the kernel; returns its index."""
        self.times.append(kernel())
        return len(self.times) - 1

    def factor(self, before: int, after: int) -> float:
        """``NOMINAL_S`` over the mean kernel time of samples ``before``
        and ``after`` (the ones bracketing an interval)."""
        return NOMINAL_S / ((self.times[before] + self.times[after]) / 2)

    def normalize(self, durations: Sequence[float], brackets: Sequence[tuple]) -> List[float]:
        return [
            duration * self.factor(before, after)
            for duration, (before, after) in zip(durations, brackets)
        ]
