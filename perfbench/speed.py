"""The machine's speed, sampled while the program runs.

The benchmark runs on shared machines whose speed drifts by tens of percent
from one second to the next and stays put over a few milliseconds.  A wall
time measured there reads the machine as much as the program.  So while ops
run, a timer signal interrupts the process every ``INTERVAL_S``, runs a
fixed pure-Python kernel once to bring it into the caches and times its
second run (a kernel timed cold would read the program's own cache misses
as machine speed).  The garbage collector is off while the kernel runs: the
kernel's objects all die by reference count, and a collection it set off
would time the program's heap instead of the machine.

The kernel's time is a covariate of the op's: an op's time is reported at
reference speed as its wall time, less the sampler's own time inside it,
times ``(REFERENCE_KERNEL_S / k) ** ELASTICITY``, where ``k`` is the median
kernel time around the op.  ``ELASTICITY`` is the slope of log op time
against log kernel time over the machine's slow and fast stretches, fitted
on the reference machine; the kernel swings more than the program does
(slopes of 0.50 to 0.79 on the four workloads), so dividing by the kernel
time outright would overcorrect.  The kernel never changes with the
program, so a faster program still reads faster.

Everything runs in the benchmark's one process and thread; the signal handler
runs between the program's bytecodes.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.025
# the kernel's median time on the reference machine (2 vCPU shared VM,
# Intel Xeon, Python 3.11.7); it only sets the scale of the reported seconds
REFERENCE_KERNEL_S = 0.0003
ELASTICITY = 0.6
NEAREST = 9  # samples that set the speed of an interval shorter than a few


WIDE = (1 << 1000) - 1


class _Cell:
    """A set of variables as an int bitmask with a cached size, in the
    program's own style."""

    __slots__ = ("mask", "_size")

    def __init__(self, mask: int):
        self.mask = mask
        self._size = None

    def __or__(self, other: "_Cell") -> "_Cell":
        return _Cell(self.mask | other.mask)

    def __len__(self) -> int:
        if self._size is None:
            self._size = self.mask.bit_count()
        return self._size


def kernel() -> int:
    """A fixed mix of what the program does most: small objects with slots,
    method calls, bit operations on 1000-bit ints, set and dict updates and
    list appends."""
    acc, seen, table, out = 0, set(), {}, []
    prev = _Cell(WIDE >> 500)
    for i in range(120):
        mask = (i * 2654435761) & 0xFFFFFFFF
        cell = _Cell((WIDE >> (i % 700)) ^ (mask << (i % 900)))
        joined = prev | cell
        acc += len(joined) - len(cell)
        seen.add(joined.mask & 0xFFFF)
        table[i & 63] = table.get(i & 63, 0) + (mask & 7)
        out.append(joined)
        prev = cell
    return acc + len(seen) + len(table) + len(out)


class SpeedMeter:
    """Samples in time order: when each began, the warm kernel's time and
    the whole sample's time."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent: list[float] = []
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            warm = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.starts.append(start)
            self.times.append(end - warm)
            self.spent.append(end - start)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def calibrate(self, count: int) -> None:
        """``count`` samples now, with the timer stopped (around a child
        process, whose run the timer cannot see)."""
        for _ in range(count):
            self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def sampler_time_in(self, a: float, b: float) -> float:
        """Seconds the samples themselves took within [a, b]."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        return sum(self.spent[lo:hi])

    def factor(self, a: float, b: float) -> float:
        """How much slower than the reference the machine ran the program
        over [a, b]: the median kernel time of the samples in it, or of the
        ``NEAREST`` samples closest to it when it holds fewer, over the
        reference, to the power ``ELASTICITY``."""
        if not self.times:
            raise ValueError("no speed samples")
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        while hi - lo < min(NEAREST, len(self.times)):
            if lo > 0 and (hi == len(self.times) or a - self.starts[lo - 1] <= self.starts[hi] - b):
                lo -= 1
            else:
                hi += 1
        return (statistics.median(self.times[lo:hi]) / REFERENCE_KERNEL_S) ** ELASTICITY

    def reference_seconds(self, a: float, b: float) -> float:
        """The time from ``a`` to ``b`` at reference speed."""
        return (b - a - self.sampler_time_in(a, b)) / self.factor(a, b)
