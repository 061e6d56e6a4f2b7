"""The yardstick that the end-to-end timings are scaled by.

The shared machine the benchmark runs on changes speed by up to 1.8x, in
phases from well under a second to several minutes, and a phase often
covers a whole run.  No statistic of raw times taken within one run removes
that.  So an untraced run also times a fixed pure-Python kernel, which
imports nothing from the program, every SAMPLE_INTERVAL seconds between its
requests and around each set-up, and scales the times it reports by
REF_SECONDS over the mean kernel time: request times by the samples taken
between requests, set-up times by those taken around the set-ups.  The result is given in
reference seconds: seconds on a machine on which one kernel run takes
REF_SECONDS.  Means on both sides make the ratio hold however the slow
phases are mixed into the run.

The kernel mixes what the program spends its time on: small-integer
arithmetic modulo a prime, tuple building and hashing, dict and list lookups
in a table larger than the first-level caches, and `Fraction` arithmetic.
A change to the program cannot move the kernel time, so a program that gets
slower reads slower whatever the machine is doing.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_SECONDS = 0.0005
# Seconds of requests between two kernel runs: about 2% of the run is spent
# in the kernel.
SAMPLE_INTERVAL = 0.025
_TABLE = [(i * 7919) % 65521 for i in range(1 << 12)]


def kernel() -> int:
    """About half a millisecond of mixed interpreter work, always the same."""
    counts = {}
    acc = 0
    idx = 12345
    for i in range(700):
        key = (i % 7, i % 5, i % 3)
        counts[key] = counts.get(key, 0) + 1
        idx = (idx * 1103515245 + 12345) & 0xFFF
        acc = (acc + _TABLE[idx] * key[0]) % 10007
    f = Fraction(0)
    for i in range(1, 20):
        f = f * Fraction(i % 5 + 1, 3) + Fraction(1, i)
    return acc + len(counts) + f.denominator % 7


def sample() -> float:
    """Seconds of one kernel run, after a run that warms the caches."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Reference seconds per second, from the kernel samples of a run."""
    return REF_SECONDS / statistics.fmean(samples)
