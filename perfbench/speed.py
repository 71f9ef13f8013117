"""Machine-speed probe: scale wall times to one nominal machine speed.

On the shared two-core machines this benchmark was written on, the speed of
the same Python code swings by up to 2x within seconds, and CPU time tracks
wall time, so the swing is not preemption and no statistic of raw wall time
over a run is steady.  A fixed snippet of exact arithmetic (the probe) is
timed on entry, on exit and every PROBE_INTERVAL_S from a SIGALRM handler
while the measured work runs.  The work's wall time, less the time spent in
probes, is then scaled by NOMINAL_PROBE_S / (mean probe time): it reads as
seconds on a machine where the probe takes NOMINAL_PROBE_S.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
NOMINAL_PROBE_S = 0.001
_ZERO = Fraction(0)


def _probe_work() -> dict:
    acc: dict = {}
    for i in range(300):
        key = i % 17
        acc[key] = acc.get(key, _ZERO) + Fraction(i % 11 - 5, i % 6 + 1)
    return acc


class SpeedProbe:
    """Context manager timing the probe around and during a block of work."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.inside_s = 0.0
        self._previous = None

    def _probe(self) -> float:
        start = time.perf_counter()
        _probe_work()
        seconds = time.perf_counter() - start
        self.probes.append(seconds)
        return seconds

    def _tick(self, signum, frame) -> None:
        self.inside_s += self._probe()

    def __enter__(self) -> "SpeedProbe":
        _probe_work()  # warm-up: the first run in a fresh process is slower
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scaled(self, wall_s: float) -> float:
        """wall_s, measured inside the block, at the nominal machine speed."""
        return (wall_s - self.inside_s) * NOMINAL_PROBE_S / statistics.fmean(self.probes)
