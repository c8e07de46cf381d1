"""A fixed reference kernel that gauges how fast the machine runs now.

On a shared host the same Python code runs up to twice as fast in one
minute as in the next, in CPU time as much as in wall time, because other
tenants share the cores and their caches; the speed also moves within a
second.  The benchmark therefore times this kernel while each timed call
runs: once before it, once after it, and every ``INTERVAL`` seconds in
between from a ``SIGALRM`` handler.  The call's time, less the kernel runs
inside it, is scaled by ``REF_SECONDS / median kernel time``: the result
is what the call would take on a machine where the kernel takes
``REF_SECONDS``.  The kernel is the benchmark's own code, so no change to
dyadicops can move it; it mixes the work dyadicops does (``Fraction``
arithmetic, float loops and powers, dict and list access, small objects
and calls) so that a slow phase slows both alike.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# about the kernel's median time inside ops on the 2-vCPU host the baseline
# was measured on; it only sets the scale of the reported times
REF_SECONDS = 0.0002
# 10 ms between samples costs about 2% of a call and gives a 0.1 s call
# ten samples
INTERVAL = 0.01


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def add(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a + other.a, self.b + other.b)


def _kernel() -> tuple:
    total = Fraction(0)
    for i in range(1, 10):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(300):
        table[i & 255] = acc
        acc += i * 0.5 - table.get((i * 7) & 255, 0.0)
    xs = [((i * 7919) % 1000) / 500.0 - 1.0 for i in range(60)]
    powers = [sum(abs(x) ** p for x in xs) for p in (1.5, 2.0, 3.0)]
    pair = _Pair(0, 0.0)
    for i in range(150):
        pair = pair.add(_Pair(i, i * 0.5))
    return total, acc, powers, pair.a


def _time_kernel() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Gauge:
    """Times the body of a ``with`` block and samples the kernel during it.

    Only the main thread may use it, and only one at a time: it owns
    ``SIGALRM`` while the block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds of kernel runs inside the block
        self.elapsed = 0.0

    def _tick(self, signum, frame) -> None:
        took = _time_kernel()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Gauge":
        self.samples.append(_time_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_time_kernel())

    @property
    def raw(self) -> float:
        """Seconds the block took, less the kernel runs inside it."""
        return self.elapsed - self.spent

    @property
    def scaled(self) -> float:
        """``raw`` on a machine where the kernel takes ``REF_SECONDS``."""
        return self.raw * REF_SECONDS / statistics.median(self.samples)
