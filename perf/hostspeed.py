"""Host speed: a fixed reference loop, timed between units of a workload's work.

The speed of a small shared VM drifts by 15-40% over minutes (``README.md``,
"Host noise"), so raw pass times of unchanged code spread wider than any
useful bound.  Every timing the benchmark reports is therefore given at a
fixed *reference speed*: after each unit of work (a case, a dispatch, a
campaign) the meter times one run of :func:`reference_loop`, and the unit's
host seconds are scaled by ``REFERENCE_TICK_S / t``, where ``t`` is the
median tick among the unit's nearest neighbours.  A host that runs 20%
slower stretches the unit and the ticks around it alike, so the scaled time
stays put, while a program that does 20% more work still reads 20% slower.

The loop is pure interpreter work on preallocated containers: it allocates
no object the garbage collector tracks, so the program's heap cannot change
its speed, and it lives here, outside the program, so no program change can.
"""

from __future__ import annotations

# Bound before the program is imported: the sanitizer wraps ``time.*``.
from time import perf_counter  # isort: skip

import statistics
from typing import List

#: Host seconds of one :func:`reference_loop` at the reference speed: the
#: median tick measured while the benchmark ran on an x86-64 VM with
#: 2 vCPUs (Intel Xeon) and Python 3.11.7.
REFERENCE_TICK_S = 0.0015

#: Ticks on each side of a unit whose median sets its speed.
WINDOW = 2

_TABLE = list(range(256))
_KEYS = {key: key for key in range(64)}


def reference_loop() -> int:
    """A fixed amount of interpreter work (about 1.5 ms); returns a checksum."""
    table, keys = _TABLE, _KEYS
    acc = 0
    for i in range(5000):
        j = (i * 40503) & 255
        acc = (acc + table[j] * 31 + keys[j & 63]) & 0xFFFFF
        table[j] = acc & 1023
        keys[j & 63] = acc >> 10
    return acc


reference_loop()  # specialise the loop's bytecode before any tick is timed


def sample(count: int) -> List[float]:
    """Host seconds of ``count`` reference loops, one each."""
    ticks = []
    for _ in range(count):
        start = perf_counter()
        reference_loop()
        ticks.append(perf_counter() - start)
    return ticks


class HostMeter:
    """Splits a stretch of work into units and scales each by the local host speed.

    :meth:`start` begins a unit; :meth:`tick` ends it with a reference tick
    and begins the next; :meth:`stop` ends the last one without a tick.
    With ``reference=False`` (traced runs, whose sampler would charge the
    loop to the benchmark) no loop runs and every unit keeps its host
    seconds.
    """

    def __init__(self, reference: bool = True):
        self.reference = reference
        #: Host seconds of each unit, the reference ticks excluded.
        self.units: List[float] = []
        #: Host seconds of each reference tick; tick ``i`` ended unit ``i``.
        self.ticks: List[float] = []
        self._mark = 0.0

    def start(self) -> None:
        """Begin a unit (time since the last tick is not counted)."""
        self._mark = perf_counter()

    def tick(self) -> None:
        """End the current unit, time one reference loop, begin the next unit."""
        now = perf_counter()
        self.units.append(now - self._mark)
        if self.reference:
            reference_loop()
        self._mark = perf_counter()
        self.ticks.append(self._mark - now)

    def stop(self) -> None:
        """End the current unit without a tick."""
        self.units.append(perf_counter() - self._mark)

    def factors(self) -> List[float]:
        """Per unit: reference speed over the host speed around it."""
        if not (self.reference and self.ticks):
            return [1.0] * len(self.units)
        last = len(self.ticks) - 1
        return [
            REFERENCE_TICK_S
            / statistics.median(self.ticks[max(0, min(i, last) - WINDOW): i + WINDOW + 1])
            for i in range(len(self.units))
        ]

    def scaled(self) -> List[float]:
        """Seconds of each unit at the reference speed."""
        return [unit * factor for unit, factor in zip(self.units, self.factors())]
