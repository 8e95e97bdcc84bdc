"""Brute-force reference implementations the test suite trusts.

Everything here recomputes from first principles with the dumbest
correct method available: explicit subset enumeration in lexicographic
order, Fraction arithmetic, direct neighbour-set simulation. Nothing
shares code with the library's incremental or bit-parallel shortcuts,
so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from fullsub import (EdgeListError, GValue, Graph, PreconditionError, VerificationError,
                     complement, density, full_two_thirds, gen_gnp, greedy_full, half_full,
                     induced_subgraph, is_full, qfull_partition, small_p_full)
from fullsub.discrepancy import DiscWitness, JumbledReport
from fullsub.finders import QFullOutcome, _certify_relative
from fullsub.graph import _pack_rows, as_probability, from_mask, iter_bits, lex_less
from fullsub.rng import philox, split_seed, uniform_u64

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


def reference_multipartite_clique_pairs(n: int, r: int, k: int, surplus: int) -> list:
    """The clique pairs gen_multipartite_planted keeps in each of its r+1
    parts of size n: the C(k,2) pairs of the part's first k vertices in
    lex order, trimmed round-robin from part 0, one lex-largest pair of
    a nonempty part at a time, until surplus pairs are gone."""
    part_pairs = [list(combinations(range(j * n, j * n + k), 2)) for j in range(r + 1)]
    j = 0
    while surplus > 0:
        if part_pairs[j]:
            part_pairs[j].pop()
            surplus -= 1
        j = (j + 1) % (r + 1)
    return part_pairs


def reference_adversary(n: int) -> Graph:
    """gen_greedy_adversary from its definition, one pair at a time: u < v
    of the 4n+2 vertices are adjacent when their cyclic distance lies in
    1..n or is exactly 2n+1, or when u < m <= 2n+1 <= v < 2n+1+m, the
    planted K_{m,m}, with m = round(sqrt(3n))."""
    N, m = 4 * n + 2, round(math.sqrt(3 * n))

    def adjacent(u: int, v: int) -> bool:
        d = min(v - u, N - (v - u))
        return 1 <= d <= n or d == 2 * n + 1 or (u < m and 2 * n + 1 <= v < 2 * n + 1 + m)

    return from_edges(N, [(u, v) for u, v in combinations(range(N), 2) if adjacent(u, v)])


def reference_glued(a: Graph, b: Graph, seed: int) -> Graph:
    """gen_glued as a per-pair mask loop: B's masks shifted past A's, and
    for each pair (2i, 2i+1) of A and (2j, 2j+1) of B the matching picked
    by coin i*h + j, straight when it is even, crossed when it is odd."""
    h, off = a.n // 2, a.n
    adj = list(a.adj) + [row << off for row in b.adj]
    coins = uniform_u64(seed, h * h)
    for i in range(h):
        for j in range(h):
            flip = int(coins[i * h + j]) & 1
            a0, a1 = 2 * i, 2 * i + 1
            b0, b1 = off + 2 * j, off + 2 * j + 1
            for u, v in ((a0, b1), (a1, b0)) if flip else ((a0, b0), (a1, b1)):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph.from_masks(2 * off, adj)


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


def reference_extremes_mitm(g: Graph) -> tuple:
    """discrepancy._build_extremes as it was before its narrow keys: the
    same slots from one int64 key per entry, e * 2^L + the low half's
    position in the whole low table, with L = n // 2. Low halves are bit
    rows sorted by size and lexicographically within a size; the high
    halves follow a Gray code, 2^15 entries scored per numpy step, and
    the best low half of each size is one reduceat. No cap and no memory
    check: keep n small enough for the int64 tables."""
    n = g.n
    low_n = n // 2
    high_n = n - low_n
    width = 1 << low_n

    def bits(values: np.ndarray, w: int) -> np.ndarray:
        return (values[:, None] >> np.arange(w)) & 1

    def lex_weights(w: int) -> np.ndarray:
        return 1 << np.arange(w - 1, -1, -1)

    adj = g.matrix.astype(np.int64)
    low = bits(np.arange(width), low_n)
    low_key = low @ lex_weights(low_n)
    order = np.lexsort((-low_key, low.sum(1)))
    low, low_key = low[order], low_key[order]
    starts = np.searchsorted(low.sum(1), np.arange(low_n + 1))
    high = bits(np.arange(1 << high_n), high_n)
    high_key, high_sizes = high @ lex_weights(high_n), high.sum(1)
    e_low = ((low @ adj[:low_n, :low_n]) * low).sum(1) // 2 * width
    pos = np.arange(width)
    max_base = e_low + (width - 1 - pos)
    min_base = e_low + pos
    cross = adj[low_n:, :low_n] @ low.T * width
    rows_log = high_n
    while rows_log and width << rows_log > 1 << 15:
        rows_log -= 1
    chunk = high[:1 << rows_log, :rows_log] @ cross[:rows_log]
    best_max = np.empty((1 << high_n, low_n + 1), dtype=np.int64)
    best_min = np.empty_like(best_max)
    shift = np.zeros(width, dtype=np.int64)
    gray = 0
    for step in range(1 << (high_n - rows_log)):
        if step:
            b = (step & -step).bit_length() - 1
            gray ^= 1 << b
            if (gray >> b) & 1:
                shift += cross[rows_log + b]
            else:
                shift -= cross[rows_log + b]
        rows = slice(gray << rows_log, (gray + 1) << rows_log)
        best_max[rows] = np.maximum.reduceat(chunk + (max_base + shift), starts, axis=1)
        best_min[rows] = np.minimum.reduceat(chunk + (min_base + shift), starts, axis=1)
    e_high = ((high @ adj[low_n:, low_n:]) * high).sum(1)[:, None] // 2
    high_key = high_key[:, None]
    sizes = (high_sizes[:, None] + np.arange(low_n + 1)).ravel()
    most = best_max // width + e_high
    fewest = best_min // width + e_high
    max_key = (most << n) | (low_key[width - 1 - best_max % width] << high_n) | high_key
    min_key = ((g.edge_count - fewest) << n) | (low_key[best_min % width] << high_n) | high_key
    top = np.full((2, n + 1), -1, dtype=np.int64)
    np.maximum.at(top[0], sizes, max_key.ravel())
    np.maximum.at(top[1], sizes, min_key.ravel())
    edges = (top >> n).tolist()
    masks = (bits(top.ravel(), n) @ lex_weights(n)).reshape(2, n + 1).tolist()
    return tuple((edges[0][k], masks[0][k], g.edge_count - edges[1][k], masks[1][k])
                 for k in range(n + 1))


def reference_disc_from_slots(slots: tuple, p: Fraction, sign: str,
                              k: Optional[int]) -> DiscWitness:
    """discrepancy._disc_from_slots as it was before the one selection
    helper: its own loop, with the empty set as the starting best."""
    num, den = p.numerator, p.denominator

    def extreme(size: int) -> tuple[int, int]:
        """The sign's best den-scaled surplus over size-sets, and its set."""
        most, most_mask, least, least_mask = slots[size]
        expected = num * (size * (size - 1) // 2)
        if sign == "positive":
            return most * den - expected, most_mask
        return expected - least * den, least_mask

    if k is not None:
        score, mask = extreme(k)
        return DiscWitness(Fraction(score, den), from_mask(mask), sign, k)
    # Unrestricted: the empty set scores 0 and is lex-smallest, so it
    # wins outright unless some subset scores strictly higher.
    best_score = 0
    best_mask = 0
    for size in range(1, len(slots)):
        score, mask = extreme(size)
        if score > best_score or (score == best_score and best_score > 0
                                  and lex_less(mask, best_mask)):
            best_score = score
            best_mask = mask
    return DiscWitness(Fraction(best_score, den), from_mask(best_mask), sign, None)


def reference_jumbled_from_slots(slots: tuple, p: Fraction, k: Optional[int]) -> JumbledReport:
    """discrepancy._jumbled_from_slots as it was before the one selection
    helper: |surplus| of both extremes of each size, in its own loop."""
    num, den = p.numerator, p.denominator
    best: Optional[Fraction] = None
    best_mask = 0
    for size in ([k] if k is not None else range(1, len(slots))):
        most, most_mask, least, least_mask = slots[size]
        expected = num * (size * (size - 1) // 2)
        for edges, mask in ((most, most_mask), (least, least_mask)):
            ratio = Fraction(abs(edges * den - expected), size * den)
            if best is None or ratio > best or (ratio == best and lex_less(mask, best_mask)):
                best = ratio
                best_mask = mask
    return JumbledReport(Fraction(0) if best is None else best, from_mask(best_mask), k)


def reference_discrepancy_local_search(g: Graph, p, sign: str = "positive", seed: int = 0,
                                       restarts: int = 8, k: Optional[int] = None):
    """(value, witness) of the hill climb as it ran before it kept an
    in-set degree vector: every gain recounted from the adjacency masks,
    starts built as masks. Argument checks are left to the caller."""
    p = Fraction(p)
    n = g.n
    num, den = p.numerator, p.denominator
    if n == 0 or k == 0:
        return Fraction(0), frozenset()
    orient = 1 if sign == "positive" else -1

    full = (1 << n) - 1
    by_degree = sorted(range(n), key=lambda v: (-g.degrees[v], v))
    starts = [full if k is None else sum(1 << v for v in by_degree[:k])]
    for i in range(restarts - 1):
        gen = philox(split_seed(seed, i))
        if k is None:
            bits = gen.integers(0, 2, size=n)
            starts.append(sum(1 << v for v in range(n) if bits[v]))
        else:
            perm = gen.permutation(n)
            starts.append(sum(1 << int(v) for v in perm[:k]))

    best_score: Optional[int] = None
    best_mask = 0
    for start in starts:
        mask, score = reference_climb(g, num, den, orient, start, k)
        if best_score is None or score > best_score or (
                score == best_score and lex_less(mask, best_mask)):
            best_score = score
            best_mask = mask
    assert best_score is not None
    if k is None and best_score < 0:
        best_score, best_mask = 0, 0
    return Fraction(best_score, den), frozenset(iter_bits(best_mask))


def reference_climb(g: Graph, num: int, den: int, orient: int, mask: int,
                    k: Optional[int]):
    """Strict best-improvement hill climbing from mask: (local optimum
    mask, oriented scaled score). Move ties break to the smallest vertex
    (smallest (out, in) pair for swaps)."""
    adj = g.adj
    n = g.n
    size = mask.bit_count()
    e = sum((adj[v] & mask).bit_count() for v in iter_bits(mask)) // 2

    def scaled(edges: int, sz: int) -> int:
        return orient * (edges * den - num * (sz * (sz - 1) // 2))

    score = scaled(e, size)
    while True:
        best_gain = 0
        best_move = None
        if k is None:
            for v in range(n):
                if (mask >> v) & 1:
                    gain = scaled(e - (adj[v] & mask).bit_count(), size - 1) - score
                else:
                    gain = scaled(e + (adj[v] & mask).bit_count(), size + 1) - score
                if gain > best_gain:
                    best_gain, best_move = gain, (v, None)
        else:
            inside = list(iter_bits(mask))
            outside = [v for v in range(n) if not (mask >> v) & 1]
            for x in inside:
                dx = (adj[x] & mask).bit_count()
                for y in outside:
                    dy = (adj[y] & mask).bit_count() - ((adj[y] >> x) & 1)
                    gain = scaled(e - dx + dy, size) - score
                    if gain > best_gain:
                        best_gain, best_move = gain, (x, y)
        if best_move is None:
            return mask, score
        v, y = best_move
        if y is None:
            if (mask >> v) & 1:
                e -= (adj[v] & mask).bit_count()
                mask ^= 1 << v
                size -= 1
            else:
                e += (adj[v] & mask).bit_count()
                mask ^= 1 << v
                size += 1
        else:
            mask ^= 1 << v
            e -= (adj[v] & mask).bit_count()
            e += (adj[y] & mask).bit_count()
            mask |= 1 << y
        score = scaled(e, size)


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


def twins(g: Graph) -> tuple[Graph, Graph]:
    """g rebuilt twice, from its masks and from its matrix packed, so
    that each twin holds one form alone."""
    masks, mat = Graph._from_adj(g.n, list(g.adj)), Graph._from_matrix(np.array(g.matrix))
    assert "packed" not in masks.__dict__ and "adj" not in mat.__dict__
    return masks, mat


def reference_packed(mat: np.ndarray, rows: Optional[int] = None) -> np.ndarray:
    """Packed rows of a 2-D bool array, bit by bit: row u of
    8 ceil(n/64) bytes holds bit v of byte v // 8 for each True mat[u, v];
    rows (default len(mat)) zero rows are appended up to that count."""
    n = mat.shape[1]
    width = -(-n // 64) * 8
    out = np.zeros((len(mat) if rows is None else rows, width), dtype=np.uint8)
    for u, v in zip(*np.nonzero(mat)):
        out[u, v // 8] |= 1 << (v % 8)
    return out


def reference_unpacked(rows: np.ndarray, n: int) -> np.ndarray:
    """The bool array of packed rows, one bit at a time, after checking
    that each row has 8 ceil(n/64) bytes and that no padding bit is set."""
    assert rows.dtype == np.uint8 and rows.shape[1:] == (-(-n // 64) * 8,)
    bits = ((rows[:, :, None] >> np.arange(8, dtype=np.uint8)) & 1).astype(bool)
    bits = bits.reshape(len(rows), 8 * rows.shape[1])
    assert not bits[:, n:].any()
    return bits[:, :n]


def packed_twin(g: Graph) -> Graph:
    """g rebuilt from reference-packed rows of its masks, holding them alone."""
    mat = np.array([[(m >> v) & 1 for v in range(g.n)] for m in g.adj], dtype=bool)
    twin = Graph._from_packed(reference_packed(mat.reshape(g.n, g.n)))
    assert "adj" not in twin.__dict__ and "matrix" not in twin.__dict__
    return twin


def reference_masks(g: Graph) -> list[int]:
    """One neighbour bitmask per vertex, summed bit by bit from the rows
    of g.matrix."""
    return [sum(1 << int(u) for u in np.flatnonzero(row)) for row in g.matrix]


def reference_pack_rows(rows: np.ndarray) -> list[int]:
    """The bitmask of each row of a 2-D bool array, packed from the whole
    array at once: np.packbits over every row, then one copy as bytes."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    buf, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[i * width:(i + 1) * width], "little") for i in range(len(rows))]


def reference_degrees_within(masks: list[int], xs) -> list[int]:
    """d_S(v) for each member of S in increasing order, by the mask walk
    (one AND and popcount per member) over the given masks."""
    members = sorted(set(xs))
    inside = sum(1 << v for v in members)
    return [(masks[v] & inside).bit_count() for v in members]


def reference_violator(masks: list[int], xs, keeps) -> Optional[int]:
    """The smallest member v of xs whose in-set degree d fails
    keeps(v, d), by the mask walk over masks, or None."""
    members = sorted(set(xs))
    for v, d in zip(members, reference_degrees_within(masks, members)):
        if not keeps(v, d):
            return v
    return None


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


def reference_first_full_set(adj, cands: list, m: int, bar: int) -> Optional[int]:
    """finders._first_full_set by its first form: the same lex-order
    depth-first search, with each candidate u accepted only when every
    member of the grown set, u included, still has at least bar
    neighbors in the set plus the vertices left to pick after u."""
    k = len(cands)
    after = [0] * (k + 1)  # after[i]: mask of cands[i:]
    for i in range(k - 1, -1, -1):
        after[i] = after[i + 1] | (1 << cands[i])
    picked: list = []  # positions in cands
    members: list = []  # vertices at those positions
    masks = [0]
    i = 0
    while True:
        need = m - len(picked)
        if not need:
            return masks[-1]
        mask = masks[-1]
        while i <= k - need:
            u = cands[i]
            grown = mask | (1 << u)
            rest, left = after[i + 1], need - 1
            if all((adj[v] & grown).bit_count()
                   + min((adj[v] & rest).bit_count(), left) >= bar
                   for v in members + [u]):
                break
            i += 1
        else:
            if not picked:
                return None
            i = picked.pop() + 1
            members.pop()
            masks.pop()
            continue
        picked.append(i)
        members.append(u)
        masks.append(grown)
        i += 1


def reference_complement(g: Graph) -> Graph:
    """G's complement built from masks, full ^ N(v) ^ {v} per vertex,
    without graph.complement's inverted packed rows."""
    full = (1 << g.n) - 1
    return Graph.from_masks(g.n, [full ^ a ^ (1 << v) for v, a in enumerate(g.adj)])


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


def reference_g_heuristic(g: Graph, seed: int = 0) -> GValue:
    """largest_full_or_cofull(g, method="heuristic") as it ran every finder
    on both sides, whatever the sizes found: greedy_full, full_two_thirds
    and small_p_full where they do not refuse, and half_full's side where
    it is full; the largest set wins, then the full side, then the
    lexicographically smallest set."""
    cands = []
    for side, h in (("full", g), ("cofull", complement(g))):
        dens = density(h)
        cands.append((side, greedy_full(h, dens).vertices))
        for finder in (full_two_thirds, small_p_full):
            try:
                cands.append((side, finder(h).vertices))
            except PreconditionError:
                pass
        hf = half_full(h, seed=seed)
        if is_full(h, dens, hf.vertices)[0]:
            cands.append((side, hf.vertices))
    side, best = min(cands, key=lambda c: (-len(c[1]), c[0] != "full", sorted(c[1])))
    return GValue(len(best), side, best, density(g))


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


def reference_qfull_partition(g: Graph, q, seed: Optional[int] = None) -> QFullOutcome:
    """The QFullOutcome of qfull_partition as it ran before its X-degree
    count read rows and its swap updated u from one int8 row difference:
    d_X counted on a column slice, and dx and u both updated from two
    int64 copies of the adjacency rows per swap."""
    q = as_probability(q, "q")
    a, b = q.numerator, q.denominator
    n = g.n
    if b * max(n, 1) >= 1 << 62:
        raise PreconditionError("q denominator too large for int64 swap scores")
    if n == 0:
        return QFullOutcome("i", q, set_q=frozenset())
    kx = -((-a * n) // b)

    deg = np.array(g.degrees, dtype=np.int64)
    adj = g.matrix
    if seed is None:
        order = np.lexsort((np.arange(n), -deg))
    else:
        order = philox(split_seed(seed, 0)).permutation(n)
    in_x = np.zeros(n, dtype=bool)
    in_x[order[:kx]] = True

    # neighbours inside X, counted on a column slice (n*|X| bytes, not
    # the n*n int64 copy a matrix product would make)
    dx = np.count_nonzero(adj[:, in_x], axis=1).astype(np.int64)
    u = a * deg - b * dx
    NEG = np.int64(-(1 << 62))
    POS = np.int64(1 << 62)

    if 0 < kx < n:
        max_swaps = b * n * (n - 1) // 2 + n + 10
        for _ in range(max_swaps):
            ux = np.where(in_x, u, NEG)
            uy = np.where(in_x, POS, u)
            x_star = int(np.argmax(ux))
            y_star = int(np.argmin(uy))
            gain_cap = int(u[x_star]) - int(u[y_star])
            if gain_cap <= 0:
                break
            swap = None
            if gain_cap - b * int(adj[x_star, y_star]) > 0:
                swap = (x_star, y_star)
            else:
                # all adjacent pairs are non-improving here; scan for a
                # non-adjacent pair with positive u difference
                y_floor = int(u[y_star])
                for x in np.argsort(-ux, kind="stable"):
                    x = int(x)
                    if not in_x[x] or int(u[x]) <= y_floor:
                        break
                    cand = np.where(~in_x & ~adj[x], u, POS)
                    y = int(np.argmin(cand))
                    if int(cand[y]) < int(u[x]):
                        swap = (x, y)
                        break
            if swap is None:
                break
            x, y = swap
            in_x[x] = False
            in_x[y] = True
            rx = adj[x].astype(np.int64)
            ry = adj[y].astype(np.int64)
            dx += ry - rx
            u += b * (rx - ry)
        else:
            raise VerificationError("swap search exceeded its potential bound")

    bx = np.flatnonzero(in_x & (u > 0))
    degs = np.asarray(g.degrees)
    x_mask = _pack_rows(in_x[None])[0]
    y_mask = ((1 << n) - 1) ^ x_mask
    x_set = from_mask(x_mask)
    y_set = from_mask(y_mask)
    if bx.size == 0:
        _certify_relative(g, q, x_mask, degs, "variant i")
        return QFullOutcome("i", q, set_q=x_set, x_side=x_set, y_side=y_set)
    by = np.flatnonzero(~in_x & (u < 0))
    if by.size == 0:
        _certify_relative(g, 1 - q, y_mask, degs, "variant ii")
        return QFullOutcome("ii", q, set_1mq=y_set, x_side=x_set, y_side=y_set)
    x0 = int(bx[0])
    y0 = int(by[0])
    grown_x = x_mask | (1 << y0)
    grown_y = y_mask | (1 << x0)
    _certify_relative(g, q, grown_x, degs, "variant iii (q side)")
    _certify_relative(g, 1 - q, grown_y, degs, "variant iii (1-q side)")
    return QFullOutcome("iii", q, set_q=from_mask(grown_x),
                        set_1mq=from_mask(grown_y), x_side=x_set, y_side=y_set)


def reference_one_over_r_full(g: Graph, r: int, seed: Optional[int] = None) -> frozenset:
    """The relatively (1/r)-full set one_over_r_full returned when powers
    of two ran half_full rounds and other r a separate qfull_partition
    loop; the library's final certification is left out."""
    n0 = g.n
    labels = tuple(range(n0))
    cur = g
    if r == 1:
        final = frozenset(range(n0))
    elif r & (r - 1) == 0:
        t = r.bit_length() - 1
        for level in range(t):
            sub_seed = None if seed is None else split_seed(seed, level)
            res = half_full(cur, seed=sub_seed)
            cur, sub = induced_subgraph(cur, res.vertices)
            labels = tuple(labels[j] for j in sub)
        final = frozenset(labels)
    else:
        rr = r
        chosen: Optional[frozenset[int]] = None
        level = 0
        while rr > 1:
            sub_seed = None if seed is None else split_seed(seed, level)
            out = qfull_partition(cur, Fraction(1, rr), seed=sub_seed)
            if out.variant == "ii":
                assert out.set_1mq is not None
                cur, sub = induced_subgraph(cur, out.set_1mq)
                labels = tuple(labels[j] for j in sub)
                rr -= 1
                level += 1
                continue
            chosen = out.set_q
            break
        if chosen is None:
            final = frozenset(labels)
        else:
            final = frozenset(labels[j] for j in chosen)
    return final


def reference_two_thirds_r(n: int, p: Fraction) -> int:
    """full_two_thirds' 2^t, by Fraction arithmetic: the least power of two
    whose cube times (1-p)^2 reaches n, i.e. 2^t >= (1-p)^(-2/3) n^(1/3).
    The caller picks p < 1."""
    t = 0
    while 2 ** (3 * t) * (1 - p) ** 2 < n:
        t += 1
    return 2 ** t


def reference_full_two_thirds(g: Graph) -> tuple[frozenset, tuple, bool]:
    """(witness, deletion trace, whether the switch fired) of full_two_thirds
    as it ran when its switch built the induced subgraph G[kept] and took a
    relatively 1/2^t-full set of it (here by reference_one_over_r_full); the
    size floor and the certificate are left out. The caller picks n >= 3
    and a density inside the finder's range."""
    n = g.n
    p = density(g)
    r = reference_two_thirds_r(n, p)

    def aligned(s, dmin):
        bar = math.ceil(p * (s - 1))
        return s > n // 2 and bar % r <= (1 - p) * r and dmin > bar - bar % r

    alive, trace, stopped = reference_peel(g, p, stop=aligned)
    kept = sorted(iter_bits(alive))
    if stopped:
        h, labels = induced_subgraph(g, kept)
        kept = [labels[v] for v in reference_one_over_r_full(h, r)]
    return frozenset(kept), trace, stopped


# ---------------------------------------------------------------------------
# percolation

def sync_percolate(g: Graph, initial) -> tuple[set[int], int]:
    """Strict-majority rounds with plain sets, no bit tricks: the final
    infected set and the number of rounds that infected someone."""
    infected = set(initial)
    rounds = 0
    while True:
        new = {v for v in range(g.n)
               if v not in infected
               and 2 * sum(1 for u in g.neighbors(v) if u in infected) > g.degree(v)}
        if not new:
            return infected, rounds
        infected |= new
        rounds += 1


def reference_monte_carlo(g: Graph, p, trials: int,
                          seed: int) -> tuple[int, Optional[tuple[int, frozenset[int]]]]:
    """How many of the trials reference starts infect everyone, and the
    first trial that does not with its uninfected set (None if every
    trial does), one sync_percolate per trial."""
    successes, failure = 0, None
    for t in range(trials):
        mask = reference_initial_mask(g.n, p, seed, t)
        infected, _ = sync_percolate(g, [v for v in range(g.n) if mask >> v & 1])
        if len(infected) == g.n:
            successes += 1
        elif failure is None:
            failure = (t, frozenset(range(g.n)) - infected)
    return successes, failure


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


def reference_theta_zeta(g: Graph, p) -> Fraction:
    """Exact full-infection probability on one int64 entry and one bool
    per subset: numpy popcounts mark the relatively half-full masks, an
    OR subset-sum transform over the (-1, 2, 2^v) reshapes marks every
    mask that contains one, and the unblocked masks are counted by size.
    No cap and no memory check: keep n small enough for 9 * 2^n bytes."""
    p = Fraction(p)
    n = g.n
    masks = np.arange(1 << n, dtype=np.int64)
    blocked = np.ones(1 << n, dtype=np.bool_)
    blocked[0] = False
    for v, row in enumerate(g.adj):
        inside = np.bitwise_count(masks.reshape(-1, 2, 1 << v)[:, 1] & row)
        blocked.reshape(-1, 2, 1 << v)[:, 1] &= inside >= (g.degrees[v] + 1) // 2
    for v in range(n):
        pairs = blocked.reshape(-1, 2, 1 << v)
        pairs[:, 1] |= pairs[:, 0]
    counts = np.bincount(np.bitwise_count(masks)[~blocked], minlength=n + 1).tolist()
    return sum((cnt * p ** (n - k) * (1 - p) ** k for k, cnt in enumerate(counts)),
               Fraction(0))


def brute_theta(g: Graph, p) -> Fraction:
    """Probability of total infection, by simulating every initial set."""
    p = Fraction(p)
    total = Fraction(0)
    everyone = set(range(g.n))
    for m in range(g.n + 1):
        for xs in combinations(range(g.n), m):
            if sync_percolate(g, xs)[0] == everyone:
                total += p ** m * (1 - p) ** (g.n - m)
    return total
