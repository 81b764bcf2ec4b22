"""Host-speed calibration: timings at a reference host speed.

The benchmark runs on a few cores of a shared host whose other tenants
slow it down: a fixed loop here runs at one of two speeds about 1.7x
apart, switching within milliseconds, and the share of slow time drifts
over minutes. CPU time tracks wall time throughout (the guest sees no
steal), so neither clock can tell a slower program from a slower host.
This module runs a fixed calibration loop -- plain Python, the same in
every run and on every commit, and no code of the program -- between
the measured operations, and scales each operation's time by how slowly
the loop ran around it::

    reported = measured * REFERENCE_NS / (median loop time near it)

so a time reads as it would on a host where the loop takes
``REFERENCE_NS``. A program change moves the reported time as it moves
the measured one; a slow spell of the host slows the loop as well and
mostly cancels. The loop runs with the garbage collector off, so the
program's heap cannot slow it.

Numpy is imported only when factors are computed, so a set-up can be
sampled from before numpy and the program are imported.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from array import array

clock = time.perf_counter_ns
#: Times the loop: the thread's CPU time, which runs at the host's speed
#: but does not count waits for other threads of this process (the
#: serve-open client's receiver) or for a core.
thread_clock = time.thread_time_ns

#: The calibration loop's time on the reference host (a 2-core shared
#: x86 container at its fast speed), which every reported time assumes.
REFERENCE_NS = 70_000
#: Default gap between two calibration loops during a timed phase.
INTERVAL_NS = 2_000_000
#: Gap between two calibration loops while a set-up is sampled.
SAMPLE_INTERVAL_S = 0.005
#: An operation is scaled by the loops run during it and the first one
#: after it, plus this many more on either side.
NEIGHBOURS = 2


class _Point:
    __slots__ = ("x", "key")

    def __init__(self, x, key):
        self.x = x
        self.key = key


def _loop(rounds: int = 48) -> float:
    """The calibration work: tuple keys, dict traffic, attribute access,
    calls and float arithmetic -- the interpreter work the program does."""
    table: dict = {}
    acc = 0.0
    for i in range(rounds):
        key = (i & 15, (i * 7) & 7, "k")
        point = _Point(i, key)
        table[key] = table.get(key, 0) + point.x
        acc += math.log1p(i) * 0.5 + hash(point.key) % 7
        acc += sum([j * 2 for j in range(6)]) + len(str(i))
    return acc


class HostSpeed:
    """Calibration loops interleaved with a run's operations."""

    def __init__(self, interval_ns: int = INTERVAL_NS):
        self.interval_ns = interval_ns
        #: end time and duration (ns) of every calibration loop
        self.at = array("q")
        self.took = array("q")
        #: wall time spent calibrating so far (ns)
        self.spent_ns = 0
        self._last = 0

    def probe(self) -> None:
        start = clock()
        enabled = gc.isenabled()
        gc.disable()
        t0 = thread_clock()
        _loop()
        took = thread_clock() - t0
        if enabled:
            gc.enable()
        self._last = clock()
        self.at.append(self._last)
        self.took.append(took)
        self.spent_ns += self._last - start

    def tick(self) -> None:
        """Call between operations: probes once ``interval_ns`` passed."""
        if clock() - self._last >= self.interval_ns:
            self.probe()

    def start_sampling(self) -> None:
        """Probe every ``SAMPLE_INTERVAL_S`` from a timer signal, in
        whatever the main thread is doing, until ``stop_sampling``: for
        a set-up, which has no operation boundaries to tick at. Child
        processes do not inherit the timer."""
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factors(self, starts, ends):
        """Per operation from ``starts`` to ``ends`` (ns): ``REFERENCE_NS``
        over the mean time of the loops run during it and the first one
        after it, widened by ``NEIGHBOURS`` loops on either side."""
        import numpy as np

        if not self.took:
            raise RuntimeError("no calibration loop ran")
        at = np.frombuffer(self.at, dtype=np.int64)
        total = np.concatenate(([0], np.cumsum(np.frombuffer(self.took, dtype=np.int64))))
        lo = np.searchsorted(at, np.asarray(starts, dtype=np.int64)) - NEIGHBOURS
        hi = np.searchsorted(at, np.asarray(ends, dtype=np.int64)) + NEIGHBOURS + 1
        lo = np.clip(lo, 0, len(at) - 1)
        hi = np.clip(hi, lo + 1, len(at))
        return REFERENCE_NS * (hi - lo) / (total[hi] - total[lo])

    def factor(self, start: int | None = None, end: int | None = None) -> float:
        """``REFERENCE_NS`` over the median loop time in ``[start, end]``
        (all loops if the window holds none)."""
        if not self.took:
            raise RuntimeError("no calibration loop ran")
        chosen = [
            took
            for at, took in zip(self.at, self.took)
            if (start is None or at >= start) and (end is None or at <= end)
        ]
        return REFERENCE_NS / statistics.median(chosen or self.took)
