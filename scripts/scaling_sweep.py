#!/usr/bin/env python3
"""Witness-size scaling on G(n, p): run the guaranteed finders over a
seeded grid, write the sweep CSV, and print size / n^(2/3) ratios so
the two-thirds scaling is visible at a glance.

    python3 scripts/scaling_sweep.py --out runs/scaling.csv
    python3 scripts/scaling_sweep.py --n-grid 200,400,800 --seeds 0,1,2
"""

import argparse
import sys
from fractions import Fraction

from fullsub import PreconditionError, SweepConfig, rows_to_csv, run_sweep, summarize, write_csv


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-grid", default="200,500,1000,2000,5000",
                    help="comma-separated graph orders")
    ap.add_argument("--p", default="1/2", help="edge probability")
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--algos", default="greedy,two-thirds,half-full")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--timings", action="store_true")
    ap.add_argument("--out", help="CSV path (default: stdout)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    config = SweepConfig(
        n_grid=tuple(int(tok) for tok in args.n_grid.split(",")),
        p_grid=(Fraction(args.p),),
        seeds=tuple(int(tok) for tok in args.seeds.split(",")),
        algorithms=tuple(args.algos.split(",")),
        timings=args.timings,
        threads=args.threads,
    )
    try:
        rows = run_sweep(config)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        write_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(rows_to_csv(rows))

    print()
    print(summarize(rows))
    print()
    print(f"{'algorithm':>12} {'n':>6} {'mean size':>10} {'size/n^(2/3)':>13}")
    for algo in config.algorithms:
        for n in config.n_grid:
            sizes = [r.witness_size for r in rows
                     if r.algorithm == algo and r.n == n]
            mean = sum(sizes) / len(sizes)
            print(f"{algo:>12} {n:>6} {mean:>10.1f} {mean / n ** (2 / 3):>13.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
