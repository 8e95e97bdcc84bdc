#!/usr/bin/env python3
"""Time the exact oracle on its fixed list of slow cases: G(n, 1/2) for
n = 24, 28, 32 (seeds 0 and 1, full and co-full), the co-full G(40, 1/2)
and full G(48, 1/2) at seed 1, and the r = 1 multipartite construction
at N = 24 and N = 30. Each runs oracle_largest_full at p = density with
the cap lifted to n, and each G(n, 1/2) graph also gets a g row:
largest_full_or_cofull, the joint search of both sides. Every case
builds its graph afresh, so no row reuses a search that an earlier row
kept on its graph. One line per case gives the size, a digest of the
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

from fullsub import (density, gen_gnp, gen_multipartite_planted, largest_full_or_cofull,
                     oracle_largest_full)

HALF = Fraction(1, 2)


def cases():
    """(label, mode, graph builder) in the order they run."""
    out = [(f"gnp{n}-seed{seed}", mode, lambda n=n, seed=seed: gen_gnp(n, HALF, seed))
           for n in (24, 28, 32) for seed in (0, 1) for mode in ("full", "cofull", "g")]
    out += [(f"gnp{n}-seed1", m, lambda n=n: gen_gnp(n, HALF, 1))
            for n, mode in ((40, "cofull"), (48, "full")) for m in (mode, "g")]
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
        if mode == "g":
            witness = largest_full_or_cofull(g, cap=g.n).witness
        else:
            witness = oracle_largest_full(g, density(g), mode, cap=g.n).vertices
        secs = time.perf_counter() - start
        digest = hashlib.sha256(str(sorted(witness)).encode()).hexdigest()[:16]
        print(f"{label:<22} {mode:<6} {g.n:>3} {len(witness):>4} {digest:<16} {secs:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
