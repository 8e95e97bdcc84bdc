#!/usr/bin/env python3
"""Time the calls of a dense sweep cell on G(n, 1/2) for n = 1000 and
5000 (seed 0): gen_gnp, greedy_full, full_two_thirds and half_full,
each on the graph gen_gnp drew. One line per call gives a digest of its
output (the first 16 hex digits of the sha256 of the sorted witness, or
of the packed adjacency matrix for gen_gnp) and the best of --repeat
wall times in seconds, so two trees can be compared line by line: equal
digests, then the times.

    python3 scripts/dense_cell_timings.py
    python3 scripts/dense_cell_timings.py --n 1000,2000 --repeat 9
"""

import argparse
import hashlib
import sys
import time
from fractions import Fraction

import numpy as np

from fullsub import full_two_thirds, gen_gnp, greedy_full, half_full

HALF = Fraction(1, 2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", default="1000,5000",
                    help="comma-separated orders (default: 1000,5000)")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timed runs per call; the best is printed (default: 5)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"{'n':>5} {'call':<16} {'digest':<16} {'seconds':>9}")
    for n in map(int, args.n.split(",")):
        g = gen_gnp(n, HALF, seed=0)
        calls = (("gen_gnp", lambda: gen_gnp(n, HALF, seed=0)),
                 ("greedy_full", lambda: greedy_full(g)),
                 ("full_two_thirds", lambda: full_two_thirds(g)),
                 ("half_full", lambda: half_full(g)))
        for name, call in calls:
            best = float("inf")
            for _ in range(args.repeat):
                start = time.perf_counter()
                out = call()
                best = min(best, time.perf_counter() - start)
            data = (np.packbits(out.matrix).tobytes() if name == "gen_gnp"
                    else str(sorted(out.vertices)).encode())
            digest = hashlib.sha256(data).hexdigest()[:16]
            print(f"{n:>5} {name:<16} {digest:<16} {best:>9.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
