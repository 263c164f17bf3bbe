"""Host-speed calibration.

The benchmark runs on shared hosts whose virtual CPUs each switch, every
few seconds and independently of one another, between two speeds about a
factor 1.7 apart (on the reference host a probe takes 7 ms or 12 ms).
That would swamp any change worth measuring.  So a run keeps itself and
every process it starts on one CPU (:func:`pin`), and every timed unit of
work (a chunk of a grid repetition, a block of fleet requests, a set-up)
is bracketed by :func:`probe`, a fixed loop of interpreter and small-array
work that does not use the program under test, run on that same CPU.  The
unit's times are rescaled to a CPU that runs the probe in
:data:`NOMINAL_PROBE_S`:

    normalized time = measured time × NOMINAL_PROBE_S / probe time

A slow spell stretches the probe and the workload alike and cancels out;
a change to the program moves only the workload.  Raw wall times are
printed beside every normalized metric.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: the probe's time on the reference host (2-core Intel Xeon VM, Python
#: 3.11, numpy 2.4) in a quiet spell; it only sets the scale
NOMINAL_PROBE_S = 0.007


def pin() -> "set[int]":
    """Restrict this process, and every process it starts from now on, to
    the last CPU it may use; returns the CPU set it had before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def _probe_once() -> float:
    values = np.arange(12.0)
    table: dict[int, float] = {}
    total = 0.0
    t0 = time.perf_counter()
    for i in range(800):
        shifted = np.roll(values, 1)
        total += float(shifted[i % 12]) * 1.0001
        table[i % 64] = total
        total -= table.get((i + 7) % 64, 0.0) * 1e-9
    return time.perf_counter() - t0


def probe(repeat: int = 2) -> float:
    """The probe's best time out of ``repeat`` runs."""
    return min(_probe_once() for _ in range(repeat))


class Speed:
    """Brackets timed units with probes and turns their times nominal."""

    def __init__(self) -> None:
        self._last = probe()
        self.factors: list[float] = []

    def close_unit(self) -> float:
        """Probe again and return the factor for the unit that just ended
        (the mean of the probes before and after it)."""
        now = probe()
        factor = NOMINAL_PROBE_S / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return factor

    def reset(self) -> None:
        """Start a new unit after untimed work."""
        self._last = probe()
