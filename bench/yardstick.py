"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

The benchmark host is shared: the same code runs up to twice as fast or
slow from one minute to the next.  The runner times this yardstick every
INTERVAL_S between operations and multiplies each operation's time by
speed_factor(), REFERENCE_S over the median yardstick time around that
operation, which reports it at one reference speed.  The yardstick mimics
the package's inner loops (frozen dataclass symbols with a validating
__post_init__, XOR folds, GF(2) elimination on int rows, byte keys in a
Counter) so that it slows down with the machine much as the package does.
It never changes with the package, and it runs with the garbage collector
off, so the package's heap does not reach it: a faster package reads
faster, a faster machine does not.  The match is not exact (wide big-int
work and the tails slow down somewhat less than the yardstick), which is
what remains of the run-to-run spread.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass

REFERENCE_S = 0.004  # yardstick time that scaled figures are reported at
INTERVAL_S = 0.25  # least time between two yardsticks
SPAN_S = 1.0  # yardsticks this close to an operation set its speed factor
MIN_NEAR = 3  # ... and at least this many of the nearest ones


@dataclass(frozen=True)
class _Bits:
    width: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(self.value)


def _work(rounds: int = 400) -> int:
    rng = random.Random(12345)
    table: Counter = Counter()
    for i in range(rounds):
        symbols = tuple(_Bits(8, rng.getrandbits(8)) for _ in range(6))
        acc = _Bits(8, 0)
        for j, s in enumerate(symbols):
            if (i >> j) & 1:
                acc = _Bits(8, acc.value ^ s.value)
        pivots: dict[int, int] = {}
        for s in symbols:
            r = s.value
            for p, row in pivots.items():
                if r & p:
                    r ^= row
            if r:
                pivots[1 << (r.bit_length() - 1)] = r
        table[acc.value.to_bytes(2, "little") + bytes([len(pivots)])] += 1
    return len(table)


def yardstick() -> float:
    """Seconds one fixed round of work takes now.  The cyclic garbage
    collector is off meanwhile, so the time does not depend on the package's
    heap or GC settings; the yardstick's objects form no cycles and are freed
    by reference counting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(times: list[float], seconds: list[float], at: float) -> float:
    """REFERENCE_S over the median of the yardsticks (start times in
    ascending order, durations) within SPAN_S of time `at`, or of the
    MIN_NEAR nearest ones if fewer."""
    lo = bisect.bisect_left(times, at - SPAN_S)
    hi = bisect.bisect_right(times, at + SPAN_S)
    if hi - lo < MIN_NEAR:
        lo = max(0, min(bisect.bisect(times, at) - MIN_NEAR // 2, len(times) - MIN_NEAR))
        hi = lo + MIN_NEAR
    return REFERENCE_S / statistics.median(seconds[lo:hi])
