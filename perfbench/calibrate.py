"""A gauge of the machine's speed, so that pass times can be scaled to a
machine of fixed speed.

A shared machine runs the same code 20-40 % slower in some phases than in
others, for seconds to minutes at a time.  The gauge is a fixed kernel that
does not touch the library: exact ``Fraction`` arithmetic on multi-word
integers, the kind of work the library spends its time on, so a slow phase
slows it about as much as it slows the library, while a change to the
library cannot change it.  An operation's scaled time is its time times
``REFERENCE_S`` over the gauge read around it, that is, its time on a machine
on which the gauge reads ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

#: what the gauge reads on a machine of reference speed, in seconds (about
#: its fastest reading on a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11)
REFERENCE_S = 0.010
#: kernel runs per gauge; the gauge is the fastest of them
RUNS = 3


def kernel() -> None:
    """An alternating sum of fractions with growing denominators, then
    q-weighted convolution sums with q = 3/2 kept in a dict."""
    x = Fraction(0)
    for i in range(1, 900):
        x += Fraction((-1) ** i * (i + 3), i * i + 1)
    q = Fraction(3, 2)
    memo = {0: Fraction(1)}
    for n in range(1, 90):
        memo[n] = sum(q**k * memo[n - 1 - k] for k in range(min(n, 12))) / (n + 1)


def gauge() -> float:
    """Seconds of the fastest of ``RUNS`` kernel runs.  The cyclic garbage
    collector is off meanwhile, so that the objects the library keeps alive
    (its caches) cannot slow the gauge; the kernel makes no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(RUNS):
            t0 = time.perf_counter_ns()
            kernel()
            best = min(best, (time.perf_counter_ns() - t0) / 1e9)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(seconds: float, gauge_s: float) -> float:
    """``seconds`` measured while the gauge read ``gauge_s``, as seconds on
    the reference machine."""
    return seconds * REFERENCE_S / gauge_s
