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

from fullsub import (EdgeListError, Graph, PreconditionError, VerificationError,
                     complement, density, gen_gnp)
from fullsub.graph import iter_bits, lex_less
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


def reference_write_edge_list(g: Graph) -> str:
    """The canonical edge-list text from one string per line, joined."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def reference_read_edge_list(text: str) -> Graph:
    """The edge-list parser over text.splitlines(), a list of every line."""
    lines = text.splitlines()
    if not lines:
        raise EdgeListError(1, "missing header line")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(1, f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError(1, f"expected integer header 'n m', got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise EdgeListError(1, "header counts must be nonnegative")
    adj = [0] * n
    count = 0
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            if any(rest.strip() for rest in lines[line_no:]):
                raise EdgeListError(line_no, "blank line inside edge list")
            break
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListError(line_no, f"expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(line_no, f"expected integers, got {raw!r}") from None
        if u == v:
            raise EdgeListError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < v < n):
            raise EdgeListError(line_no, f"need 0 <= u < v < n={n}, got {u} {v}")
        if (adj[u] >> v) & 1:
            raise EdgeListError(line_no, f"duplicate edge {u} {v}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        count += 1
    if count != m:
        raise EdgeListError(len(lines) + 1, f"header announced {m} edges, found {count}")
    return Graph.from_masks(n, adj)


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


def reference_subset_extremes(g: Graph, num: int, den: int) -> list:
    """Per-size extremes of e(X)*den - num*C(|X|,2) by a Gray-code walk
    over every nonempty subset with O(1) updates per step: slots[k] =
    [max_score, max_mask, min_score, min_mask] for 1 <= k <= n, masks
    the lexicographically smallest attaining k-sets."""
    n = g.n
    adj = g.adj
    expected = [num * (k * (k - 1) // 2) for k in range(n + 1)]
    slots: list = [None] * (n + 1)
    gray = 0
    e = 0
    size = 0
    for step in range(1, 1 << n):
        v = (step & -step).bit_length() - 1
        bit = 1 << v
        if gray & bit:
            gray ^= bit
            e -= (adj[v] & gray).bit_count()
            size -= 1
        else:
            e += (adj[v] & gray).bit_count()
            gray ^= bit
            size += 1
        score = e * den - expected[size]
        slot = slots[size]
        if slot is None:
            slots[size] = [score, gray, score, gray]
        else:
            if score > slot[0] or (score == slot[0] and lex_less(gray, slot[1])):
                slot[0] = score
                slot[1] = gray
            if score < slot[2] or (score == slot[2] and lex_less(gray, slot[3])):
                slot[2] = score
                slot[3] = gray
    return slots


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


def reference_oracle_largest_full(g: Graph, p, mode: str = "full"):
    """(size, witness tuple, min internal degree) of the largest full
    (or co-full) subgraph, by the scan the oracle used before its
    pruned search: for m from n down, every m-subset of the vertices
    that pass the degree filter, in lex order, until one is full."""
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    n = g.n
    for m in range(n, 0, -1):
        thr = num * (m - 1)
        if mode == "full":
            elig = [v for v in range(n) if g.degrees[v] * den >= thr]
        else:
            elig = [v for v in range(n) if (g.degrees[v] - (n - m)) * den <= thr]
        for combo in combinations(elig, m):
            mask = sum(1 << v for v in combo)
            degs = [(g.adj[v] & mask).bit_count() for v in combo]
            if all(d * den >= thr if mode == "full" else d * den <= thr
                   for d in degs):
                return m, combo, min(degs)
    return 0, (), 0


def reference_peel(g: Graph, p, tie_break: str = "min-index", stop=None):
    """(survivors' mask, deletion trace, whether stop fired) of the
    minimum-degree peel: the loop the finders ran before it became one
    function, with the bar written as deg * den >= num * (count - 1)."""
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    n = count = g.n
    deg = np.array(g.degrees, dtype=np.int64)
    gone = np.zeros(n, dtype=np.bool_)
    trace: list[int] = []
    last = None
    while True:
        masked = np.where(gone, np.iinfo(np.int64).max, deg)
        vmin = int(np.argmin(masked))
        dmin = int(masked[vmin])
        if dmin * den >= num * (count - 1):
            stopped = False
            break
        if stop is not None and stop(count, dmin):
            stopped = True
            break
        victim = vmin
        if tie_break == "adversarial-antipodal" and last is not None:
            anti = (last + n // 2) % n
            if not gone[anti] and deg[anti] == dmin:
                victim = anti
        count -= 1
        gone[victim] = True
        deg[g.matrix[victim] & ~gone] -= 1
        trace.append(victim)
        last = victim
    alive = sum(1 << v for v in range(n) if not gone[v])
    return alive, tuple(trace), stopped


def reference_small_p_peel(g: Graph):
    """(vertices, trace) of small_p_full: the leaf peel as it ran before
    its leaves came from a heap, rescanning the live vertices from the
    lowest for a forest leaf at every step. Raises what small_p_full
    raises before it certifies."""
    n = g.n
    p = density(g)
    num, den = p.numerator, p.denominator
    if num == 0 or n <= 2:
        return frozenset(range(n)), ()
    if num ** 3 * n * n > den ** 3:
        raise PreconditionError(
            f"density {p} exceeds n^(-2/3); use full_two_thirds instead")
    nn = num * n * n

    def lower_ok(c: int) -> bool:
        return (c + 1) * (c + 1) * den >= nn

    def upper_ok(c: int) -> bool:
        return c <= 1 or (c - 1) * (c - 1) * den <= nn

    trace = [v for v in range(n) if g.degrees[v] == 0]
    alive = sum(1 << v for v in range(n) if g.degrees[v] > 0)
    count = alive.bit_count()
    fadj = [0] * n
    seen = 0
    for root in iter_bits(alive):
        if (seen >> root) & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            v = stack.pop()
            fresh = g.adj[v] & alive & ~seen
            seen |= fresh
            for u in iter_bits(fresh):
                fadj[v] |= 1 << u
                fadj[u] |= 1 << v
                stack.append(u)

    for _ in range(n + 1):
        if lower_ok(count) and upper_ok(count):
            break
        if not lower_ok(count):
            raise VerificationError("order fell below the target window")
        leaf = None
        for v in iter_bits(alive):
            if fadj[v].bit_count() == 1:
                leaf = v
                break
        if leaf is None:
            raise VerificationError("no forest leaf while above the window")
        w = fadj[leaf].bit_length() - 1
        alive ^= 1 << leaf
        fadj[w] &= ~(1 << leaf)
        fadj[leaf] = 0
        count -= 1
        trace.append(leaf)
        if (g.adj[w] & alive).bit_count() == 0:
            alive ^= 1 << w
            fadj[w] = 0
            count -= 1
            trace.append(w)
    else:
        raise VerificationError("leaf peeling failed to reach the window")
    return frozenset(iter_bits(alive)), tuple(trace)


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


def reference_theta_exact(g: Graph, p) -> Fraction:
    """Exact full-infection probability by a per-mask DP: a mask is
    blocked when it is relatively half-full or drops one vertex to a
    blocked mask, and the unblocked complements of initial sets sum
    p^|I| (1-p)^(n-|I|)."""
    p = Fraction(p)
    n = g.n
    blocked = bytearray(1 << n)
    for mask in range(1, 1 << n):
        if all(2 * (g.adj[v] & mask).bit_count() >= g.degrees[v]
               for v in range(n) if (mask >> v) & 1):
            blocked[mask] = 1
            continue
        m = mask
        while m:
            low = m & -m
            if blocked[mask ^ low]:
                blocked[mask] = 1
                break
            m ^= low
    return sum((p ** (n - mask.bit_count()) * (1 - p) ** mask.bit_count()
                for mask in range(1 << n) if not blocked[mask]), Fraction(0))


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
