#!/usr/bin/env python3
"""Time the exact per-size extremes kernel on G(n, 1/2) for n = 16, 18,
..., 24 (seed 0): discrepancy._build_extremes, which every exact
discrepancy, jumbledness and bound query reads. One line per n gives a
digest of the slots (the first 16 hex digits of the sha256 of their
repr) and the best of REPEAT wall times in seconds, so two trees can be
compared line by line: equal digests, then the times.

    python3 scripts/extremes_timings.py
"""

import hashlib
import sys
import time
from fractions import Fraction

from fullsub import gen_gnp
from fullsub.discrepancy import _build_extremes

NS = range(16, 25, 2)
REPEAT = 5


def main() -> int:
    print(f"{'n':>3} {'slots':<16} {'seconds':>9}")
    for n in NS:
        g = gen_gnp(n, Fraction(1, 2), seed=0)
        best = float("inf")
        for _ in range(REPEAT):
            start = time.perf_counter()
            slots = _build_extremes(g)
            best = min(best, time.perf_counter() - start)
        digest = hashlib.sha256(repr(slots).encode()).hexdigest()[:16]
        print(f"{n:>3} {digest:<16} {best:>9.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
