"""A clock that counts host time at a fixed host speed.

The benchmark runs on a shared host.  There a fixed pure-Python loop
runs up to 2x slower for stretches of seconds to minutes, at a level
that drifts, as other tenants load the processor cores it shares.  Wall
time then measures the neighbours as much as the program, and no
statistic over whole runs (median, fastest) removes it.

``HostClock`` measures the host's speed while the program runs.  A
``SIGALRM`` interval timer interrupts the program every ``PERIOD``
seconds; the handler times ``calibration_loop``, a fixed loop of
interpreter work.  Between two such samples the host is taken to run at
the speed the earlier one measured, and each stretch of wall time is
rescaled by ``REFERENCE_S / sample``: a second at half speed counts as
half a second.  The calibration itself is left out of the program's
time; it costs about 1% of the run.

``REFERENCE_S`` is the loop's time on an idle host of the machine the
benchmark was sized on (a 2-vCPU Xeon KVM guest), so clock seconds read
as seconds on that host.  The constant only sets the scale; both sides
of a comparison use it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import List, Tuple

#: Seconds between calibration samples.
PERIOD = 0.02
#: Events pushed and popped per calibration sample (about 0.25 ms).
ROUNDS = 250
#: ``calibration_loop()`` seconds on an idle reference host, measured
#: inside a running replay.
REFERENCE_S = 2.0e-4

_COUNTS = dict.fromkeys(range(64), 0)


def calibration_loop(rounds: int = ROUNDS) -> None:
    """Fixed interpreter work like a simulator's: an event heap of tuples
    and dict updates.  The tuples die before it returns, and collection
    is off meanwhile, so the program's collections do not move."""
    collecting = gc.isenabled()
    gc.disable()
    heap = []
    counts = _COUNTS
    for i in range(rounds):
        heapq.heappush(heap, ((i * 7919) % 1000, i, counts))
        counts[i & 63] = (counts[i & 63] + 1) & 0xFFFF
    while heap:
        heapq.heappop(heap)
    if collecting:
        gc.enable()


class HostClock:
    """Wall time since the clock started, calibration left out, and the
    same time rescaled to the reference host speed (see the module
    docstring).  Use it as a context manager.
    """

    def __init__(self, sampling: bool = True) -> None:
        #: Without sampling the clock reads plain wall time.
        self.sampling = sampling
        #: ``time.monotonic()`` when the clock started.
        self.started_at = 0.0
        self._base = 0.0
        self._calibrating = False
        #: ``(raw seconds since start, calibration seconds)`` per sample.
        self.samples: List[Tuple[float, float]] = []

    def __enter__(self) -> "HostClock":
        self.started_at = self._base = time.monotonic()
        if not self.sampling:
            return self
        self._calibrate()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *_exc) -> None:
        if not self.sampling:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, _signum, _frame) -> None:
        if not self._calibrating:
            self._calibrate()

    def _calibrate(self) -> None:
        self._calibrating = True
        began = time.monotonic()
        calibration_loop()
        took = time.monotonic() - began
        self.samples.append((began - self._base, took))
        self._base += took
        self._calibrating = False

    def raw(self) -> float:
        """Wall seconds since the clock started, calibration left out."""
        return time.monotonic() - self._base

    def scaled(self, begin: float, end: float) -> float:
        """Reference-speed seconds between two raw readings."""
        return scaled(self.samples, begin, end)


def scaled(samples: List[Tuple[float, float]], begin: float, end: float) -> float:
    """Reference-speed seconds between raw readings ``begin`` and ``end``.

    Sample ``k`` sets the speed from its own start to the next sample's;
    the first also covers what came before it (a negative ``begin``
    reaches back before the clock started), the last what comes after.
    Without samples it is plain wall time.
    """
    if not samples:
        return end - begin
    total = 0.0
    for k, (start, took) in enumerate(samples):
        lo = begin if k == 0 else max(begin, start)
        hi = end if k + 1 == len(samples) else min(end, samples[k + 1][0])
        if hi > lo:
            total += (hi - lo) * REFERENCE_S / took
    return total
