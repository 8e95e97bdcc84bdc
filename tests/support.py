"""Brute-force reference implementations the test suite trusts.

Everything here recomputes from first principles with the dumbest
correct method available: explicit subset enumeration in lexicographic
order, Fraction arithmetic, direct neighbour-set simulation. Nothing
shares code with the library's incremental or bit-parallel shortcuts,
so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from fullsub import Graph, complement, gen_gnp
from fullsub.rng import split_seed, uniform_u64

from_edges = Graph.from_edges


# ---------------------------------------------------------------------------
# small structured graphs

def empty(n: int) -> Graph:
    return from_edges(n, [])


def clique(n: int) -> Graph:
    return from_edges(n, combinations(range(n), 2))


def cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    return from_edges(n, [(0, i) for i in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def matching(pairs: int) -> Graph:
    return from_edges(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])


def circulant(n: int, dists) -> Graph:
    return from_edges(n, [(i, (i + d) % n) for i in range(n) for d in dists])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = [(g.n + u, g.n + v) for u, v in h.edges()]
    return from_edges(g.n + h.n, list(g.edges()) + shifted)


def structured_catalog(max_n: int = 9) -> list[Graph]:
    """Cliques, cycles, paths, stars, bipartite graphs, matchings and a
    couple of unions, all on at most max_n vertices."""
    out: list[Graph] = [empty(1), empty(2), empty(max_n)]
    for n in range(3, max_n + 1):
        out.extend([clique(n), cycle(n), path(n), star(n)])
    for a in range(1, max_n // 2 + 1):
        for b in range(a, max_n - a + 1):
            out.append(complete_bipartite(a, b))
    out.append(matching(max_n // 2))
    out.append(disjoint_union(clique(3), empty(1)))
    out.append(disjoint_union(clique(4), cycle(4)))
    return [g for g in out if g.n <= max_n]


def random_graph(n: int, seed: int, p: Fraction = Fraction(1, 2)) -> Graph:
    return gen_gnp(n, p, seed)


def all_graphs(n: int) -> Iterable[Graph]:
    """Every labelled graph on n vertices, one per edge-subset."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if (code >> i) & 1])


# ---------------------------------------------------------------------------
# adjacency: induced subgraphs, random-graph fills, sampled masks

def reference_induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph and labels, one has_edge query per pair."""
    labels = tuple(sorted(set(vertices)))
    k = len(labels)
    return from_edges(k, [(i, j) for i, j in combinations(range(k), 2)
                          if g.has_edge(labels[i], labels[j])]), labels


def reference_gnp_adjacency(n: int, p, seed: int) -> np.ndarray:
    """Bool adjacency of G(n, p): pair k of the lexicographic order
    (triu_indices) is an edge when draw k falls below floor(p * 2^64),
    written with a fancy-index store."""
    p = Fraction(p)
    mat = np.zeros((n, n), dtype=bool)
    total = n * (n - 1) // 2
    if total:
        thr = (p.numerator << 64) // p.denominator
        keep = np.array([int(d) < thr for d in uniform_u64(seed, total)], dtype=bool)
        iu, ju = np.triu_indices(n, k=1)
        mat[iu[keep], ju[keep]] = True
    return mat | mat.T


def reference_initial_mask(n: int, p, seed: int, trial: int) -> int:
    """The trial-th p-random initial set as a mask, one vertex at a time."""
    p = Fraction(p)
    thr = (p.numerator << 64) // p.denominator
    draws = uniform_u64(split_seed(seed, trial), n)
    return sum(1 << v for v in range(n) if int(draws[v]) < thr)


# ---------------------------------------------------------------------------
# densities, surpluses, discrepancy, jumbledness

def subset_edges(g: Graph, xs) -> int:
    xs = list(xs)
    return sum(1 for u, v in combinations(xs, 2) if g.has_edge(u, v))


def subset_surplus(g: Graph, p, xs) -> Fraction:
    xs = list(xs)
    m = len(xs)
    return subset_edges(g, xs) - Fraction(p) * Fraction(m * (m - 1), 2)


def brute_density(g: Graph) -> Fraction:
    if g.n <= 1:
        return Fraction(0)
    return Fraction(subset_edges(g, range(g.n)), g.n * (g.n - 1) // 2)


def _subsets(n: int, k: Optional[int]):
    sizes = range(n + 1) if k is None else [k]
    for m in sizes:
        yield from combinations(range(n), m)


def brute_disc(g: Graph, p, sign: str = "positive", k: Optional[int] = None):
    """(value, witness tuple); max of the signed surplus, ties to the
    lexicographically smallest sorted tuple."""
    flip = 1 if sign == "positive" else -1
    best = None
    best_xs = None
    for xs in _subsets(g.n, k):
        val = flip * subset_surplus(g, p, xs)
        if best is None or val > best or (val == best and xs < best_xs):
            best, best_xs = val, xs
    return best, best_xs


def brute_jumbledness(g: Graph, p, k: Optional[int] = None):
    best = None
    best_xs = None
    sizes = range(1, g.n + 1) if k is None else [k]
    for m in sizes:
        for xs in combinations(range(g.n), m):
            val = abs(subset_surplus(g, p, xs)) / m
            if best is None or val > best or (val == best and xs < best_xs):
                best, best_xs = val, xs
    return best, best_xs


# ---------------------------------------------------------------------------
# fullness

def degree_into(g: Graph, v: int, xs) -> int:
    return sum(1 for u in xs if u != v and g.has_edge(u, v))


def brute_is_full(g: Graph, p, xs, mode: str = "full") -> bool:
    xs = list(xs)
    m = len(xs)
    bar = Fraction(p) * (m - 1)
    for v in xs:
        d = degree_into(g, v, xs)
        if mode == "full" and d < bar:
            return False
        if mode == "cofull" and d > bar:
            return False
    return True


def brute_largest_full(g: Graph, p, mode: str = "full"):
    """(size, witness tuple) of the largest full (or co-full) induced
    subgraph, first witness in size-descending lex order."""
    for m in range(g.n, 0, -1):
        for xs in combinations(range(g.n), m):
            if brute_is_full(g, p, xs, mode):
                return m, xs
    return 0, ()


def brute_g_value(g: Graph) -> int:
    p = brute_density(g)
    f_here, _ = brute_largest_full(g, p, "full")
    f_comp, _ = brute_largest_full(complement(g), 1 - p, "full")
    return max(f_here, f_comp)


def brute_is_relatively_full(g: Graph, q, xs) -> bool:
    q = Fraction(q)
    return all(degree_into(g, v, xs) >= q * g.degree(v) for v in xs)


def has_half_full_subset(g: Graph, within) -> bool:
    """Does some nonempty subset of `within` induce a subgraph where
    every vertex keeps at least half its global degree?"""
    within = sorted(within)
    for m in range(1, len(within) + 1):
        for xs in combinations(within, m):
            if brute_is_relatively_full(g, Fraction(1, 2), xs):
                return True
    return False


# ---------------------------------------------------------------------------
# percolation

def sync_percolate(g: Graph, initial) -> set[int]:
    """Strict-majority rounds with plain sets, no bit tricks."""
    infected = set(initial)
    while True:
        new = {v for v in range(g.n)
               if v not in infected
               and 2 * sum(1 for u in g.neighbors(v) if u in infected) > g.degree(v)}
        if not new:
            return infected
        infected |= new


def async_percolate_min_index(g: Graph, initial) -> set[int]:
    """One vertex at a time, always the smallest eligible index."""
    infected = set(initial)
    while True:
        for v in range(g.n):
            if v not in infected and \
                    2 * sum(1 for u in g.neighbors(v) if u in infected) > g.degree(v):
                infected.add(v)
                break
        else:
            return infected


def brute_theta(g: Graph, p) -> Fraction:
    """Probability of total infection, by simulating every initial set."""
    p = Fraction(p)
    total = Fraction(0)
    everyone = set(range(g.n))
    for m in range(g.n + 1):
        for xs in combinations(range(g.n), m):
            if sync_percolate(g, xs) == everyone:
                total += p ** m * (1 - p) ** (g.n - m)
    return total
