"""Reference kernels that track the speed of a shared machine.

On a virtual machine shared with other tenants the same code runs up to
1.6x slower for seconds to minutes at a time, and Python-bound code slows
more than code that streams large arrays.  Run-to-run spreads of raw times
then reach 20-45 %.  The benchmark therefore times two fixed kernels of its
own every 250 ms -- one Python-bound, one streaming an 8 MB array -- and
scales each op's latency (less the sampling time inside it) by
``NOMINAL_NS / median kernel time`` over the kernel samples within
``WINDOW_NS`` of the op.  Interleaved this way the
ratio of an op's time to its kernel's stays within a few percent while raw
times drift by tens of percent.  Latencies are thus reported at the speed
where the kernels take ``NOMINAL_NS``.

The kernels never call crbplan, so a change to the package can affect them
only through the machine state they share; the garbage collector is off
while they run, and the Python kernel is timed on its second, warm run.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

#: Sample the kernels this often.
INTERVAL_NS = 250_000_000
#: Normalize an op by the kernel samples taken this close to it.
WINDOW_NS = 1_000_000_000
#: Kernel times on an unloaded 2-vCPU Xeon VM (2.1 GHz, Python 3.11,
#: numpy 2.4): the speed at which normalized latencies are reported.
NOMINAL_NS = {"python": 170_000, "numpy": 4_200_000}

_A = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 3.0], [4.0, 0.0, 1.0]])
_B = np.ones(3)
_V = np.linspace(0.0, 1.0, 1_000_000)


def _python_kernel() -> float:
    total = 0.0
    for i in range(20):
        total += float(np.linalg.solve(_A, _B)[0]) + abs(float(np.linalg.det(_A)))
        row = {"i": i, "total": total, "cells": [total] * 8}
        total += sum(row["cells"]) * 1e-12
    return total


def _numpy_kernel() -> float:
    return float((np.sqrt(_V * 2.0 + 1.0) > 1.2).sum())


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


class SpeedProbe:
    """Kernel samples over time, and the scale factor they imply."""

    def __init__(self) -> None:
        self._times: dict[str, list[int]] = {kind: [] for kind in _KERNELS}
        self._durations: dict[str, list[int]] = {kind: [] for kind in _KERNELS}
        #: Total time spent sampling; the harness subtracts the part that
        #: falls inside an op from that op's latency.
        self.spent_ns = 0
        self._busy = False

    @contextmanager
    def sampling(self):
        """Sample every ``INTERVAL_NS`` from a SIGALRM handler, also inside
        long ops, so that an op of several seconds is scaled by samples
        taken while it ran."""
        interval = INTERVAL_NS / 1e9
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def sample(self) -> None:
        if self._busy:  # the timer fired while a sample was being taken
            return
        self._busy = True
        begin = perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _python_kernel()
            for kind, kernel in _KERNELS.items():
                start = perf_counter_ns()
                kernel()
                self._times[kind].append(start)
                self._durations[kind].append(perf_counter_ns() - start)
        finally:
            if enabled:
                gc.enable()
            self.spent_ns += perf_counter_ns() - begin
            self._busy = False

    def scale(self, kind: str, start_ns: int, end_ns: int) -> float:
        """``NOMINAL_NS / measured kernel time`` around ``[start_ns, end_ns]``."""
        times, durations = self._times[kind], self._durations[kind]
        lo = bisect.bisect_left(times, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(times, end_ns + WINDOW_NS)
        window = durations[lo:hi] or [durations[min(lo, len(durations) - 1)]]
        return NOMINAL_NS[kind] / statistics.median(window)
