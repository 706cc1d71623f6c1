"""How fast the CPU is running right now, measured with a fixed pure-Python kernel.

On a shared virtual machine the speed of a core swings by 30% within a
second and drifts by up to 2x over minutes, so two runs of the same code can
differ by more than any useful regression bound.  Each worker therefore
times a fixed kernel, written here and independent of nilenv, every
``SAMPLE_EVERY_S`` from a SIGALRM handler while it sets up and runs.

The kernel is a BFS closure over a 343x343 Cayley-style table with big-int
masks, the shape of nilenv's hot loops.  Its working set (about 1 MB) matters:
over fourteen back-to-back repetitions of ``verify``, the repetition time
followed this kernel's median duration with exponent 0.94 (0.61 with a
128x128 table, under 0.45 for a recursive evaluator or a tuple-composition
kernel, and no relation at all with a 1000x1000 table).  The match is not
exact for every workload or period; README.md gives the spreads it left.

``factor()`` is the median sample divided by ``REFERENCE_S``; dividing a
measured time by it gives the time at the reference speed.  ``clock()`` is
``perf_counter`` minus the time spent sampling, so timed regions exclude it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.05
# the kernel's median duration on an Intel Xeon 2-vCPU virtual machine with
# Python 3.11, in a fast period
REFERENCE_S = 0.0021

_N = 343
_TABLE: list[list[int]] = []


def kernel() -> int:
    table = _TABLE
    total = 0
    for g in range(40, 52):
        gens = (g, (g * 5 + 1) % _N)
        seen = 1
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gens:
                    y = table[x][s]
                    if not seen >> y & 1:
                        seen |= 1 << y
                        nxt.append(y)
            frontier = nxt
        total += seen.bit_count()
    return total


class Speed:
    """Kernel samples for one worker process."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False
        started = time.perf_counter()
        if not _TABLE:
            _TABLE.extend([(a * 97 + b * 31 + (a * b) % 7) % _N for b in range(_N)] for a in range(_N))
        # building the table is the benchmark's cost, not the measured code's
        self.sampling_s = time.perf_counter() - started

    def sample(self) -> None:
        """Time the kernel once, unless a sample is already running.

        The kernel frees everything it allocates, and the cyclic collector is
        paused while it runs, so sampling does not move the collections of the
        code being measured (which would make its peak memory wander).
        """
        if self._busy:  # a slow sample outlived the sampling period
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        kernel()
        took = time.perf_counter() - started
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.sampling_s += took
        self._busy = False

    def sample_all(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def reset(self) -> None:
        """Forget the samples so far; the clock keeps excluding their time."""
        self.samples = []

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.sampling_s

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def factor(self) -> float:
        """Current slowness relative to the reference speed (above 1 means slower)."""
        return statistics.median(self.samples) / REFERENCE_S
