"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on small shared hosts whose speed drifts by 10-30% over
seconds to minutes, as neighbours load the same cores and caches.  Raw times
of fixed inputs then spread as much from run to run, and longer runs do not
narrow that, because the drift is slower than a run.  The probe measures the
host's speed next to every query instead.

An interval timer (SIGALRM, every INTERVAL_S of wall time) runs a fixed
pure-Python kernel in the main thread, so no thread or process is added.  A
time measured over [t0, t1] is first stripped of the probe's own time inside
it, then multiplied by

    REFERENCE_KERNEL_S / median(kernel durations sampled in [t0 - PAD_S, t1 + PAD_S])

i.e. it is stated at the speed at which the kernel takes REFERENCE_KERNEL_S.
Program changes show in full: the kernel is the benchmark's own code.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

INTERVAL_S = 0.02
PAD_S = 0.25
# Close to the kernel's median on the 2-core host (Python 3.11.7) the
# benchmark was written on, so scaled times read like raw ones there.
REFERENCE_KERNEL_S = 0.0005

_TABLE = {f"k{i}": i for i in range(64)}
_KEYS = tuple(_TABLE)
_TEXT = "p ∧ (q → ¬r) ∨ s " * 8
_LONG_TEXT = _TEXT * 128
_BITS = (1 << 65536) // 3


def kernel() -> int:
    """Fixed work of the kinds the workloads do.

    Bytecode dispatch and dict lookups, slicing and UTF-8 encoding of short
    and of 2-16k-character strings, and bit operations on 8 KiB ints, so that
    the probe slows down with the host whether neighbours contend for the core
    or for its caches.  It makes no GC-tracked objects, so it never sets off a
    collection of the program's objects.
    """
    acc = 0
    for i in range(400):
        acc += _TABLE[_KEYS[i & 63]]
        acc += len(_TEXT[: (i & 127) + 1].encode("utf-8")) + (acc ^ i) % 7
    for i in range(8):
        acc += len(_LONG_TEXT[: 2048 * (i + 1)].encode("utf-8"))
        acc += ((_BITS >> i) ^ _BITS).bit_length()
    return acc


class SpeedProbe:
    """Context manager: samples the kernel while active; scale() afterwards."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0  # seconds spent in the probe so far

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that states a time measured over [t0, t1] at the reference speed."""
        lo, hi = bisect_left(self.at, t0 - PAD_S), bisect_right(self.at, t1 + PAD_S)
        return REFERENCE_KERNEL_S / median(self.took[lo:hi] or self.took)
