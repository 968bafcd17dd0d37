"""Host-speed sampling for normalizing measured times.

On a shared host the speed of one CPU drifts by up to 2x over seconds to
minutes, and CPU time drifts with it. Medians of raw wall time over 30 to
60 s runs still spread by 20-35% from run to run.  So while a pass runs, a
SIGALRM handler times a short fixed pure-Python burst every INTERVAL_S
seconds.  The burst builds and hashes small frozen dataclasses, looks them up in a
dict and sorts tiny tuples: the kind of work beliefrev does.  A measured time is then rescaled to the host speed at which
one burst takes REFERENCE_S seconds:

    normalized = measured * REFERENCE_S / median(bursts timed meanwhile)

The time spent in the handler is subtracted from the measured time first.
Bursts are also timed between jobs, and in-job bursts are skipped while a
process pool runs.  A slowdown of beliefrev itself shows in full; a
slowdown of the whole host largely cancels out.
"""

from __future__ import annotations

import gc
import signal
import statistics
import threading
import time
from dataclasses import dataclass

# Nominal duration of one burst: roughly its median inside a worker running
# beliefrev on a 2-core x86-64 host with Python 3.11, so that normalized times
# read close to raw ones.  Changing it rescales every normalized time, so it
# stays fixed.
REFERENCE_S = 0.005
INTERVAL_S = 0.2


@dataclass(frozen=True)
class _Cell:  # hashed and compared like beliefrev's frozen WorldSet and RankedState
    a: int
    b: int


def burst_s() -> float:
    """Seconds one reference burst takes now, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        cache: dict = {}
        total = 0
        for i in range(2500):
            key = (_Cell(i & 63, (i >> 6) & 7), i & 3)
            hit = cache.get(key)
            if hit is None:
                hit = cache[key] = tuple(sorted((i & 5, i & 9, i & 3)))
            total += sum(x for x in hit if x & 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalize(seconds: float, bursts: list[float]) -> float:
    """``seconds`` rescaled to the host speed at which a burst takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(bursts)


class Sampler:
    """Times a burst every INTERVAL_S seconds of wall time while active.

    Only for the main thread of a process that uses no SIGALRM of its own.
    ``spent`` is the total time the handler took, to subtract from
    intervals measured meanwhile.  Bursts are skipped while other threads
    run, so ``sample`` between timed intervals keeps some bursts coming.
    """

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        # A second thread means a --jobs process pool is running: its
        # workers occupy the CPUs, so a burst now would time the contention.
        if threading.active_count() > 1:
            return
        start = time.perf_counter()
        self.bursts.append(burst_s())
        self.spent += time.perf_counter() - start

    def sample(self, count: int) -> None:
        """Time ``count`` bursts now; call only while the timer is off."""
        self.bursts += [burst_s() for _ in range(count)]

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
