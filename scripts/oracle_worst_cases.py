#!/usr/bin/env python3
"""Time the exact oracle on its fixed list of slow cases: G(n, 1/2) for
n = 24, 28, 32 (seeds 0 and 1, full and co-full), the co-full G(40, 1/2)
and full G(48, 1/2) at seed 1, and the r = 1 multipartite construction
at N = 24 and N = 30. Each runs oracle_largest_full at p = density with
the cap lifted to n. One line per case gives the size, a digest of the
witness (the first 16 hex digits of the sha256 of its sorted vertex
list) and the seconds taken. Cases with more than --max-n vertices are
skipped; G(48, 1/2) alone takes about 45 s on a 2-vCPU Xeon virtual
machine.

    python3 scripts/oracle_worst_cases.py
    python3 scripts/oracle_worst_cases.py --max-n 48
"""

import argparse
import hashlib
import sys
import time
from fractions import Fraction

from fullsub import density, gen_gnp, gen_multipartite_planted, oracle_largest_full

HALF = Fraction(1, 2)


def cases():
    """(label, mode, graph builder) in the order they run."""
    out = [(f"gnp{n}-seed{seed}", mode, lambda n=n, seed=seed: gen_gnp(n, HALF, seed))
           for n in (24, 28, 32) for seed in (0, 1) for mode in ("full", "cofull")]
    out += [("gnp40-seed1", "cofull", lambda: gen_gnp(40, HALF, 1)),
            ("gnp48-seed1", "full", lambda: gen_gnp(48, HALF, 1))]
    out += [(f"multipartite-r1-N{2 * k}", "full",
             lambda k=k: gen_multipartite_planted(k, 1)[0]) for k in (12, 15)]
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=32,
                    help="skip cases with more vertices (default: 32)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"{'case':<22} {'mode':<6} {'n':>3} {'size':>4} {'witness':<16} {'seconds':>8}")
    for label, mode, build in cases():
        g = build()
        if g.n > args.max_n:
            continue
        start = time.perf_counter()
        res = oracle_largest_full(g, density(g), mode, cap=g.n)
        secs = time.perf_counter() - start
        digest = hashlib.sha256(str(sorted(res.vertices)).encode()).hexdigest()[:16]
        print(f"{label:<22} {mode:<6} {g.n:>3} {res.size:>4} {digest:<16} {secs:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
