#!/usr/bin/env python3
"""Time exact theta on G(n, 1/2) for n = 16, 18, ..., 24 (seed 0,
p = 1/3) with the cap lifted to n. One line per n gives a digest of
theta (the first 16 hex digits of the sha256 of its "num/den" string)
and the best of REPEAT wall times in seconds, so two trees can be
compared line by line: equal digests, then the times.

    python3 scripts/theta_timings.py
"""

import hashlib
import sys
import time
from fractions import Fraction

from fullsub import full_infection_probability_exact, gen_gnp

NS = range(16, 25, 2)
P = Fraction(1, 3)
REPEAT = 5


def main() -> int:
    print(f"{'n':>3} {'theta':<16} {'seconds':>9}")
    for n in NS:
        g = gen_gnp(n, Fraction(1, 2), seed=0)
        best = float("inf")
        for _ in range(REPEAT):
            start = time.perf_counter()
            theta = full_infection_probability_exact(g, P, cap=n)
            best = min(best, time.perf_counter() - start)
        digest = hashlib.sha256(str(theta).encode()).hexdigest()[:16]
        print(f"{n:>3} {digest:<16} {best:>9.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
