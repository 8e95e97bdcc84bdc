#!/usr/bin/env python3
"""Time canonical edge-list writing and the CLI's file read on dense
G(n, 1/2) for n = 1000, 2000 and 5000 (seed 0) and on a sparse graph
that holds its adjacency masks alone: a union of cycles on 20000
vertices, each vertex joined to the one 7919 places on. One line per
graph gives a digest of write_edge_list's text (the first 16 hex digits
of its sha256) and the best of REPEAT wall times in seconds for
write_edge_list and for reading the written file as `fullsub ...
--input FILE` does, so two trees can be compared line by line: equal
digests, then the times. Every read is checked to give the graph back.

    python3 scripts/edgelist_timings.py
"""

import hashlib
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from fullsub import Graph, gen_gnp, write_edge_list
from fullsub.cli import _read_graph

REPEAT = 5
SPARSE_N = 20000


def graphs():
    for n in (1000, 2000, 5000):
        yield f"gnp{n}", gen_gnp(n, Fraction(1, 2), seed=0)
    yield f"cycles{SPARSE_N}", Graph.from_edges(
        SPARSE_N, ((v, (v + 7919) % SPARSE_N) for v in range(SPARSE_N)))


def best_of(call):
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return best, out


def main() -> int:
    print(f"{'graph':<12} {'text':<16} {'write s':>9} {'read s':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        for name, g in graphs():
            write, text = best_of(lambda: write_edge_list(g))
            path.write_text(text, encoding="ascii")
            read, back = best_of(lambda: _read_graph(str(path)))
            if back != g:
                print(f"error: {name} reads back as a different graph")
                return 1
            digest = hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
            print(f"{name:<12} {digest:<16} {write:>9.5f} {read:>9.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
