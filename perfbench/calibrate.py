"""Machine-speed reference for the benchmark's timings.

The machine this benchmark was built on shares its cores with other
tenants, and its speed drifts: a fixed pure-Python loop timed in 1-second
blocks over 100 seconds took from 7.1 to 11.4 ms, and stayed near one
level or the other for tens of seconds.  Raw round times inherit that
drift, which is larger than any bound a regression check can use.

So the benchmark times a fixed reference task between measurements and
scales each measurement by how fast the machine was around it: the
median of the reference samples within two measurements either side.
The task touches no ibx code, so a change to ibx moves the scaled times
just as it moves the raw ones; only the machine's drift divides out.
Every run also reports its raw times beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List

# Seconds the reference task took on the reference machine, at its faster
# level.  Scaled times read as times on that machine.
REFERENCE_S = 0.0060


def _task() -> int:
    """Interpreter work: integer arithmetic, and building then indexing
    small tuples, the way the package builds states, pieces and arcs.
    (A numpy pass tracked the machine's drift worse than this does.)"""
    acc = 0
    for i in range(20000):
        acc += (i * i) % 13
    items = [(i, (i, i + 1)) for i in range(10000)]
    index = {key: value for key, value in items}
    return acc + len(index)


def sample() -> float:
    """Seconds the reference task takes now: the median of three runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _task()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class Clock:
    """Raw durations, with a reference sample before each and after the last."""

    WINDOW = 2

    def __init__(self) -> None:
        self.raws: List[float] = []
        self.speeds: List[float] = []

    def measure(self, fn: Callable[[], float]) -> float:
        """fn() returns a raw duration in seconds; it is recorded and returned."""
        if not self.speeds:
            self.speeds.append(sample())
        raw = fn()
        self.raws.append(raw)
        self.speeds.append(sample())
        return raw

    def scaled(self) -> List[float]:
        """Every duration as reference time, in order of measurement."""
        w = self.WINDOW
        return [
            raw * REFERENCE_S / statistics.median(self.speeds[max(0, i - w): i + w + 2])
            for i, raw in enumerate(self.raws)
        ]
