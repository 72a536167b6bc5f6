"""Machine-speed probe for a shared, unpinned machine.

The speed this process gets from the machine drifts by up to a factor of
two over minutes when other work shares the host, which would swamp any
difference between two versions of qheis.  The probe times a fixed unit
of work of the kinds qheis spends its time on (small and big-integer
rationals, tuple-keyed dicts, a small SVD) next to the tasks.  A task's wall time is then
reported in reference seconds: wall time times REFERENCE_S over the
duration of the nearest probe units, i.e. the time the task would have
taken on a machine that runs one unit in REFERENCE_S.  The raw wall times
stay in the run record.

The unit is benchmark code that no change to qheis can alter.  The
runner binds itself and its children to one CPU, so the probe measures the
CPU that runs the tasks.  Tasks that are child processes follow the speed
of process start-up, which this unit does not; for them the runner passes
a unit that starts a reference interpreter.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

#: iterations of the small-rational part of the unit
UNIT_ITERATIONS = 75
#: the nominal duration of one unit (it takes 1.5 to 3 ms on the Xeon the
#: benchmark was tuned on); reported times are scaled to it
REFERENCE_S = 0.002
#: the probe runs before a task when this long has passed since it last ran
EVERY_S = 0.1
#: each task is scaled by the median of this many nearest probe units
NEAREST = 5
#: units run and dropped when a probe starts
WARM_UNITS = 3


_MATRIX = np.fromfunction(lambda i, j: 1.0 / (1.0 + i + 2.0 * j), (48, 48))


def unit() -> float:
    """Wall time of one unit of reference work: small rationals in dicts,
    big-integer rationals, tuple-keyed dict churn and a small SVD, the four
    kinds of work the workloads spend their time on."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, UNIT_ITERATIONS + 1):
        f = Fraction(i, i + 1) + Fraction(i + 2, 2 * i + 3)
        d = {j: f * j for j in range(3)}
        acc += d[2].numerator % 7
    big = Fraction(1)
    for n in range(1, 60):
        big = big * Fraction(2**n + 1, 2**n) + Fraction(1, 3**n)
    table = {}
    for i in range(400):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, ()) + (i,)
    np.linalg.svd(_MATRIX, compute_uv=False)
    return time.perf_counter() - t0


class SpeedProbe:
    """Probe units timed next to the tasks.  ``unit`` runs one unit and
    returns its wall time; ``reference_s`` is its nominal duration, and
    it runs when ``every_s`` has passed since it last ran."""

    def __init__(self, unit=unit, reference_s: float = REFERENCE_S, every_s: float = EVERY_S):
        self.unit = unit
        self.reference_s = reference_s
        self.every_s = every_s
        self.times = []
        self.units = []
        # the first units of a process run cold and slow; they are not kept
        for _ in range(WARM_UNITS):
            unit()

    def sample(self) -> float:
        self.times.append(time.perf_counter())
        self.units.append(self.unit())
        return self.units[-1]

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def scale(self, t: float) -> float:
        """reference_s over the median unit time of the probes nearest to t."""
        i = bisect.bisect(self.times, t)
        window = range(max(0, i - NEAREST), min(len(self.times), i + NEAREST))
        nearest = sorted(window, key=lambda j: abs(self.times[j] - t))[:NEAREST]
        return self.reference_s / statistics.median(self.units[j] for j in nearest)

    def median_unit(self) -> float:
        return statistics.median(self.units)
