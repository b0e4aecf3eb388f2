"""Machine-speed calibration for the benchmark's timings.

The speed of identical work on a shared host drifts by 20-40% within a
minute, and changes within a second (measured on a shared 2-vCPU x86-64 VM:
six runs of one cli-sweep seed took from 0.86x to 1.31x of their median op
time).  A fixed exact-rational loop, independent of formalpde, drifts with
it.  So every measurement the benchmark reports is bracketed by two runs of
that loop, timed with the same wall clock, and scaled to the speed at which
the loop takes ``CAL_REF_S``:
``scaled = measured * CAL_REF_S / mean of the two loop times``.  The result
is still wall seconds, of a machine running at that reference speed; the raw
wall times are printed next to it.  On those six runs, bracketing every op
cut the spread of one op's time between runs from 22% to 7%; one loop per
quarter second of ops left 12%.
"""

from __future__ import annotations

import time
from fractions import Fraction

CAL_REF_S = 0.0065  # about the loop's time on that VM at a typical speed
CAL_ITERS = 2350


def calibration_s() -> float:
    """Wall seconds of a fixed loop of Fraction additions (gcd-bound, like rref)."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CAL_ITERS):
        total += Fraction(i % 89 + 1, i % 97 + 1)
    return time.perf_counter() - start


class Speed:
    """Measurements, each bracketed by calibration runs, scaled to the
    reference speed."""

    def __init__(self):
        self.cals = [calibration_s()]
        self.raw: list[float] = []

    def add(self, seconds: float) -> None:
        """Record one measurement and calibrate again."""
        self.raw.append(seconds)
        self.cals.append(calibration_s())

    def scaled(self) -> list[float]:
        """Each measurement times CAL_REF_S over the mean of its two bracketing runs."""
        return [raw * 2 * CAL_REF_S / (before + after)
                for raw, before, after in zip(self.raw, self.cals, self.cals[1:])]
