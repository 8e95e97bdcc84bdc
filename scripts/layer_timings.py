#!/usr/bin/env python3
"""Time each layer of fullsub on one table of fixed cases, a row per case.

Layers: gen (gen_gnp on G(n, 1/2), seed 0, for each --n order); dense
(greedy_full, full_two_thirds and half_full on those graphs); io
(write_edge_list's text and the CLI's read of its file, on those graphs
and on a union of cycles on 20000 vertices held as masks); percolate (a
300-trial Monte Carlo pass at seed 0 on G(1000, 1/110) at p = 5/16, 2/5
and 1/2, G(1000, 1/20) at p = 2/5, G(2000, 1/2) and the greedy adversary
at n = 400 (1602 vertices) at p = 1/2, and the cycles at p = 1/2; and
bootstrap_percolate on G(1000, 1/110) from trial 0's start at 5/16,
every graph at seed 0, whatever the options); extremes
(discrepancy._build_extremes on G(n, 1/2), n = 16, 18, ..., 24); theta
(exact theta on the same graphs at p = 1/3); oracle (oracle_largest_full
at p = density, full and co-full, and the joint g search of
largest_full_or_cofull, on G(n, 1/2) for n = 24, 28, 32 at seeds 0 and 1
and at seed 1 co-full n = 40 and full n = 48, and full on the r = 1
multipartite construction at N = 24, 30). Caps are lifted to n.

A row gives layer, case, n, size (witness members, graph edges, text
characters, successful trials, finally infected vertices or table slots;
- for theta), a digest (the first 16 hex digits of the sha256 of the
packed matrix, the sorted witness, the text, the successes with the
first failing trial and its sorted survivors, the rounds with the
sorted infected set, repr(slots) or str(theta)) and the best of 5 wall
times in seconds; oracle cases run once. Each timed run gets an input
built afresh and untimed, so no run reads state an earlier one kept on
its graph. A read that does not give back the written graph exits 1.
Extremes, theta and oracle cases above --max-n vertices are skipped;
full G(48, 1/2) alone takes about 45 s on a 2-vCPU Xeon virtual machine.

    python3 scripts/layer_timings.py
    python3 scripts/layer_timings.py --n 1000 --max-n 48
"""

import argparse
import hashlib
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from fullsub import (Graph, bootstrap_percolate, density, full_infection_probability_exact,
                     full_two_thirds, gen_gnp, gen_greedy_adversary, gen_multipartite_planted,
                     greedy_full, half_full, largest_full_or_cofull, oracle_largest_full,
                     sample_initial_mask, write_edge_list)
from fullsub.cli import _read_graph
from fullsub.discrepancy import _build_extremes
from fullsub.percolation import _monte_carlo

HALF = Fraction(1, 2)
REPEAT = 5
CYCLES_N = 20000
TRIALS = 300
SPARSE = Fraction(1, 110)


def gnp(n, seed=0, p=HALF):
    return lambda: gen_gnp(n, p, seed)


def cycles():
    return Graph.from_edges(CYCLES_N, ((v, (v + 7919) % CYCLES_N) for v in range(CYCLES_N)))


def oracle(mode):
    if mode == "g":
        return lambda g: largest_full_or_cofull(g, cap=g.n).witness
    return lambda g: oracle_largest_full(g, density(g), mode, cap=g.n).vertices


def written(path, make):
    path.write_text(write_edge_list(make()), encoding="ascii")
    return path


def text(edge_list):
    return len(edge_list), edge_list.encode("ascii")


def witness(vertices):
    return len(vertices), str(sorted(vertices)).encode()


def monte_carlo(p):
    return lambda g: _monte_carlo(g, p, TRIALS, 0)


def estimate(out):
    est, failure = out
    first = failure and (failure[0], sorted(failure[1]))
    return est.successes, repr((est.successes, first)).encode()


def closure(state):
    return len(state.infected), repr((state.rounds, sorted(state.infected))).encode()


def cases(ns, max_n, tmp):
    """(layer, case, n, build, call, digest) in the order they run: build
    makes the call's input untimed, and digest gives (size, hashed bytes),
    or None for a read that does not give back the written graph."""
    out = []
    for n in ns:
        out.append(("gen", "gen_gnp", n, lambda: None, lambda _, n=n: gen_gnp(n, HALF, 0),
                    lambda g: (g.edge_count, np.packbits(g.matrix).tobytes())))
        out += [("dense", f.__name__, n, gnp(n), lambda g, f=f: f(g).vertices, witness)
                for f in (greedy_full, full_two_thirds, half_full)]
    for name, n, make in [("gnp", n, gnp(n)) for n in ns] + [("cycles", CYCLES_N, cycles)]:
        path = tmp / f"{name}{n}.txt"
        out.append(("io", f"write-{name}", n, make, write_edge_list, text))
        out.append(("io", f"read-{name}", n, lambda path=path, make=make: written(path, make),
                    lambda path: _read_graph(str(path)),
                    lambda back, make=make:
                        text(write_edge_list(back)) if back == make() else None))
    out += [("percolate", f"mc-{name}-p{p}", n, make, monte_carlo(p), estimate)
            for name, n, make, p in [
                *(("gnp-1/110", 1000, gnp(1000, p=SPARSE), p)
                  for p in (Fraction(5, 16), Fraction(2, 5), HALF)),
                ("gnp-1/20", 1000, gnp(1000, p=Fraction(1, 20)), Fraction(2, 5)),
                ("gnp-1/2", 2000, gnp(2000), HALF),
                ("adversary", 1602, lambda: gen_greedy_adversary(400), HALF),
                ("cycles", CYCLES_N, cycles, HALF)]]
    out.append(("percolate", "bootstrap-gnp-1/110", 1000, gnp(1000, p=SPARSE),
                lambda g: bootstrap_percolate(g, sample_initial_mask(g.n, Fraction(5, 16), 0, 0)),
                closure))
    small = range(16, 25, 2)
    out += [("extremes", "build_extremes", n, gnp(n), _build_extremes,
             lambda slots: (len(slots), repr(slots).encode())) for n in small]
    out += [("theta", "theta_exact", n, gnp(n),
             lambda g: full_infection_probability_exact(g, Fraction(1, 3), cap=g.n),
             lambda theta: ("-", str(theta).encode())) for n in small]
    runs = [(n, seed, mode) for n in (24, 28, 32) for seed in (0, 1)
            for mode in ("full", "cofull", "g")]
    runs += [(n, 1, m) for n, mode in ((40, "cofull"), (48, "full")) for m in (mode, "g")]
    out += [("oracle", f"gnp-seed{seed}-{mode}", n, gnp(n, seed), oracle(mode), witness)
            for n, seed, mode in runs]
    out += [("oracle", "multipartite-r1-full", 2 * k,
             lambda k=k: gen_multipartite_planted(k, 1)[0], oracle("full"), witness)
            for k in (12, 15)]
    return [c for c in out if c[0] in ("gen", "dense", "io", "percolate") or c[2] <= max_n]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", default="1000,2000,5000",
                    help="comma-separated G(n, 1/2) orders of the gen, dense and io "
                         "layers (default: 1000,2000,5000)")
    ap.add_argument("--max-n", type=int, default=32,
                    help="skip extremes, theta and oracle cases with more vertices "
                         "(default: 32)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"{'layer':<9} {'case':<22} {'n':>5} {'size':>8} {'digest':<16} {'seconds':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for layer, case, n, build, call, digest in cases(
                [int(n) for n in args.n.split(",")], args.max_n, Path(tmp)):
            best = float("inf")
            for _ in range(1 if layer == "oracle" else REPEAT):
                x = build()
                start = time.perf_counter()
                out = call(x)
                best = min(best, time.perf_counter() - start)
            if (sized := digest(out)) is None:
                print(f"error: {case} n={n} reads back as a different graph")
                return 1
            size, data = sized
            print(f"{layer:<9} {case:<22} {n:>5} {size:>8} "
                  f"{hashlib.sha256(data).hexdigest()[:16]:<16} {best:>9.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
