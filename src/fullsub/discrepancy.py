"""Edge surplus, discrepancy, and jumbledness, exactly or heuristically.

For a graph of density p and a vertex subset X, the surplus
edge_surplus(X) = e(X) - p*C(|X|,2) measures how many more edges X
induces than a density-p count predicts. Positive/negative discrepancy
maximizes the surplus (or its negation) over subsets, jumbledness
maximizes |surplus|/|X|, and both admit restrictions to subsets of one
fixed size. Exact maxima come from one table of the least and greatest
edge count of each subset size over all 2^n subsets, built by a
meet-in-the-middle numpy kernel and capped at EXACT_CAP_DEFAULT
vertices; past the cap a seeded hill-climbing heuristic gives certified
lower bounds. The kernel's keys pack edge counts above positions within
a size segment, uint16 up to n = 21, and it scores _CHUNK_BYTES of them
a step. The table does not depend on p, so it is built once per graph
and stored on it, and every exact query on that graph reads the same
table; the kernel's graph-independent tables are built once per width.

All values are Fractions. Internally every subset is scored by the
integer e(X)*den - num*C(|X|,2) where p = num/den, so comparisons and
tie-breaks never touch floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from .graph import (Graph, PreconditionError, VerificationError, _add_row, _check_memory,
                    _counts, _degrees_within, _pack_rows, _rows, as_probability, from_mask,
                    lex_less)
from .rng import philox, split_seed

EXACT_CAP_DEFAULT = 20
# Bytes of keys the exact kernel scores in one numpy step (256 KB):
# bounds its working memory without costing speed at the caps.
_CHUNK_BYTES = 1 << 18
# The kernel's merge packs a subset's edge count above its n-bit mask in
# one int64 key; C(n, 2) < 2^11 up to n = 52, so the keys fit that far.
_MAX_EXACT_N = 52


@dataclass(frozen=True)
class DiscWitness:
    value: Fraction
    witness: frozenset[int]
    sign: str
    k: Optional[int] = None


@dataclass(frozen=True)
class JumbledReport:
    j: Fraction
    witness: frozenset[int]
    k: Optional[int] = None


@dataclass(frozen=True)
class JumblednessBoundReport:
    """Exact check that the largest full / full-or-co-full subgraph
    orders dominate disc+/j and disc/j respectively."""

    p: Fraction
    disc_plus: Fraction
    disc_both: Fraction
    j: Fraction
    f_value: int
    g_value: int
    vacuous: bool


def edge_surplus(g: Graph, p, vertices) -> Fraction:
    """e(X) - p*C(|X|,2), exactly. Subsets of size <= 1 score 0."""
    p = as_probability(p)
    degs = _degrees_within(g, vertices)[1]
    size = len(degs)
    return int(degs.sum()) // 2 - p * Fraction(size * (size - 1), 2)


def _check_sign(sign: str) -> None:
    if sign not in ("positive", "negative"):
        raise ValueError(f"sign must be 'positive' or 'negative', got {sign!r}")


def _check_k(k: Optional[int], lo: int, n: int) -> None:
    if k is not None and not lo <= k <= n:
        raise PreconditionError(f"k must lie in {lo}..{n}, got {k}")


def _require_cap(n: int, cap: int, what: str) -> None:
    """Refuse n above the caller's cap, and whatever the cap, n above
    _MAX_EXACT_N; the kernel refuses tables beyond memory itself."""
    if n > cap:
        raise PreconditionError(
            f"{what} enumerates all subsets and needs n <= {cap} (got n={n}); "
            "use the local-search heuristic for larger graphs"
        )
    if n > _MAX_EXACT_N:
        raise PreconditionError(
            f"{what} packs edge counts and subsets into 64-bit keys and needs "
            f"n <= {_MAX_EXACT_N} whatever the cap (got n={n})")


def _reversed(masks: np.ndarray, width: int) -> np.ndarray:
    """Each mask's low `width` bits, reversed: among sets of one size the
    lexicographically smaller has the larger reversed mask."""
    return ((masks[:, None] >> np.arange(width)) & 1) @ (1 << np.arange(width - 1, -1, -1))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each set read-only, as a tuple."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


# Each cached width holds no more than the kernel itself allocates at
# that width; eight cover the widths of the caps several times over.
@functools.lru_cache(maxsize=8)
def _low_half(low_n: int) -> tuple[np.ndarray, ...]:
    """The kernel's low-half tables at low_n vertices, read-only: all 2^low_n
    masks sorted by size and lexicographically within a size, their reversed
    masks (low_key), each size's first row (starts) and each row's rel."""
    low = np.arange(1 << low_n)
    low = low[np.lexsort((-_reversed(low, low_n), np.bitwise_count(low)))]
    sizes = np.bitwise_count(low)
    starts = np.searchsorted(sizes, np.arange(low_n + 1))
    return _read_only(low, _reversed(low, low_n), starts, np.arange(1 << low_n) - starts[sizes])


@functools.lru_cache(maxsize=8)
def _high_half(high_n: int) -> tuple[np.ndarray, ...]:
    """The kernel's high-half tables at high_n vertices, read-only: the
    reversed masks (high_key) and sizes of all 2^high_n high halves."""
    high = np.arange(1 << high_n)
    return _read_only(_reversed(high, high_n), np.bitwise_count(high))


def _edges_within(rows: list[int]) -> np.ndarray:
    """e(X) for every mask X over the vertices of rows (their adjacency
    masks) in mask order, by doubling over the top vertex v."""
    masks, edges = np.arange(1 << len(rows)), np.zeros(1 << len(rows), dtype=np.int64)
    for v, row in enumerate(rows):
        np.add(edges[:1 << v], np.bitwise_count(masks[:1 << v] & row), out=edges[1 << v:2 << v])
    return edges


def _subset_extremes(g: Graph) -> tuple:
    """Per-size extremes of the induced edge count over all subsets.

    Returns slots with slots[k] = (max_edges, max_mask, min_edges,
    min_mask) for 0 <= k <= n, each mask the lexicographically smallest
    k-set attaining its count. Within one size the surplus
    e(X) - p*C(k,2) orders subsets as e(X) does, so one table serves
    every p, in small integers. The first call builds the table and
    stores it on g, as Graph._from_packed primes Graph.packed; later
    calls on g return it.
    """
    cache = g.__dict__
    if "_subset_extremes" not in cache:
        cache["_subset_extremes"] = _build_extremes(g)
    return cache["_subset_extremes"]


def _build_extremes(g: Graph) -> tuple:
    """The slots of _subset_extremes, by a meet-in-the-middle kernel.

    X = lo | hi << L with L = n // 2. The 2^L low halves are sorted by
    size and lexicographically within a size, and a key packs e(lo)
    above lo's position rel in its size segment, in b bits: 2^b - 1 - rel
    for max keys and rel for min keys, so ties go to the first,
    lexicographically smallest, low half. Keys take the narrowest dtype
    that holds C(n, 2) << b | (2^b - 1), uint16 up to n = 21. A chunk of
    high halves, as many as fit in _CHUNK_BYTES, adds their vertices'
    cross-edge counts to the keys; chunks follow a Gray code, so the
    next adds or subtracts one vertex's counts, and each row's best of
    each size is one reduceat. _check_memory gets the peak: the width
    tables; the chunk, its buffer, cross, both bases and the 2 x 2^H x
    (L + 1) best keys (H = n - L) in the key dtype; four 2^H x (L + 1)
    int64 merge arrays.
    """
    n = g.n
    low_n = n // 2
    high_n = n - low_n
    bits = (math.comb(low_n, low_n // 2) - 1).bit_length()
    dtype = np.min_scalar_type((math.comb(n, 2) << bits) | ((1 << bits) - 1))
    rows_log = high_n  # a chunk is 2^rows_log rows of 2^L keys
    while rows_log and dtype.itemsize << low_n << rows_log > _CHUNK_BYTES:
        rows_log -= 1
    best_keys = (1 << high_n) * (low_n + 1)
    narrow = (2 << rows_log << low_n) + (high_n + 2 << low_n) + 2 * best_keys
    _check_memory((24 << low_n) + (9 << high_n) + dtype.itemsize * narrow + 32 * best_keys,
                  f"the exact extremes table at n={n}")
    low, low_key, starts, rel = _low_half(low_n)
    high_key, high_sizes = _high_half(high_n)
    mask = (1 << bits) - 1
    flip = np.array([[mask], [0]])  # mask ^ rel = 2^b - 1 - rel for the max keys
    base = ((_edges_within(g.adj[:low_n])[low] << bits) | (rel ^ flip)).astype(dtype)
    # cross[h, i]: edges between high vertex h and low half i, times 2^b
    cross = np.bitwise_count(np.array(g.adj[low_n:], dtype=np.int64)[:, None] & low)
    cross = cross.astype(dtype) << bits
    # the chunk's rows holding high vertex j are its rows below 2^j plus j's counts
    chunk = np.zeros((1 << rows_log, 1 << low_n), dtype=dtype)
    for j in range(rows_log):
        np.add(chunk[:1 << j], cross[j], out=chunk[1 << j:2 << j])
    buf = np.empty_like(chunk)
    best = np.empty((2, 1 << high_n, low_n + 1), dtype=dtype)
    gray = 0
    for step in range(1 << (high_n - rows_log)):
        if step:
            b = (step & -step).bit_length() - 1
            gray ^= 1 << b
            if (gray >> b) & 1:
                base += cross[rows_log + b]
            else:
                base -= cross[rows_log + b]
        rows = slice(gray << rows_log, (gray + 1) << rows_log)
        np.add(chunk, base[0], out=buf)
        np.maximum.reduceat(buf, starts, axis=1, out=best[0, rows])
        np.add(chunk, base[1], out=buf)
        np.minimum.reduceat(buf, starts, axis=1, out=best[1, rows])

    # Merge over the high halves: e(hi) joins each row's keys, whose dtype
    # holds C(n, 2), and the winners of one size compete on (edges,
    # reversed lo | hi << L) in one int64 key, the min side on -edges.
    best += (_edges_within([row >> low_n for row in g.adj[low_n:]])[:, None] << bits).astype(dtype)
    sizes = (high_sizes[:, None] + np.arange(low_n + 1)).ravel()
    key, pos = np.empty((2, 1 << high_n, low_n + 1), dtype=np.int64)
    top = np.full((2, n + 1), -1 << 63, dtype=np.int64)
    for side, sign in enumerate((1, -1)):
        np.right_shift(best[side], bits, out=key)
        key *= sign
        np.bitwise_and(best[side], mask, out=pos)
        pos ^= flip[side]
        pos += starts
        key <<= low_n
        key |= low_key[pos]
        key <<= high_n
        key |= high_key[:, None]
        np.maximum.at(top[side], sizes, key.ravel())
    edges = (top >> n).tolist()
    masks = _reversed(top.ravel(), n).reshape(2, n + 1).tolist()
    return tuple((edges[0][k], masks[0][k], -edges[1][k], masks[1][k])
                 for k in range(n + 1))


def _lex_best(candidates: Iterable[tuple]) -> tuple:
    """The (key, mask) pair with the largest key, ties going to the
    lexicographically smallest mask; every answer here is chosen by it."""
    best = None
    for key, mask in candidates:
        if best is None or key > best[0] or (key == best[0] and lex_less(mask, best[1])):
            best = key, mask
    return best


def _scored(slots: tuple, p: Fraction, sign: str,
            sizes: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Per size, the sign's best den-scaled surplus and its set: most*den - e
    when positive, e - least*den when negative, where e = num*C(size, 2)."""
    num, den = p.numerator, p.denominator
    for size in sizes:
        most, most_mask, least, least_mask = slots[size]
        expected = num * (size * (size - 1) // 2)
        if sign == "positive":
            yield most * den - expected, most_mask
        else:
            yield expected - least * den, least_mask


def discrepancy_exact(g: Graph, p, sign: str = "positive", k: Optional[int] = None,
                      cap: int = EXACT_CAP_DEFAULT) -> DiscWitness:
    """Exact maximum of the (signed) surplus over all subsets.

    sign="positive" maximizes the surplus, "negative" maximizes its
    negation. With k=None the empty set competes, so the value is
    always >= 0; restricted to k-sets the value can be negative. Ties
    break to the lexicographically smallest subset.
    """
    p = as_probability(p)
    _check_sign(sign)
    _require_cap(g.n, cap, "exact discrepancy")
    _check_k(k, 0, g.n)
    # with k None size 0 competes: the empty set scores 0 and is
    # lexicographically smallest, so it wins unless strictly beaten
    sizes = range(g.n + 1) if k is None else [k]
    score, mask = _lex_best(_scored(_subset_extremes(g), p, sign, sizes))
    return DiscWitness(Fraction(score, p.denominator), from_mask(mask), sign, k)


def jumbledness_exact(g: Graph, p, k: Optional[int] = None,
                      cap: int = EXACT_CAP_DEFAULT) -> JumbledReport:
    """Exact max of |surplus(X)|/|X| over nonempty subsets (k-sets if
    k is given), with a lexicographically-smallest witness attaining it.
    A size's larger signed score is its larger |surplus|: the two sum to
    (most - least)*den >= 0, and tie only if most = least, one set."""
    p = as_probability(p)
    _require_cap(g.n, cap, "exact jumbledness")
    _check_k(k, 1, g.n)
    if g.n == 0:  # the empty graph has no nonempty subset
        return JumbledReport(Fraction(0), frozenset(), k)
    slots, sizes = _subset_extremes(g), range(1, g.n + 1) if k is None else [k]
    lcm = math.lcm(*sizes)  # each score/size, times lcm, is an integer key
    key, mask = _lex_best((score * (lcm // size), mask)
                          for sign in ("positive", "negative")
                          for size, (score, mask) in zip(sizes, _scored(slots, p, sign, sizes)))
    return JumbledReport(Fraction(key, lcm * p.denominator), from_mask(mask), k)


def discrepancy_local_search(g: Graph, p, sign: str = "positive", seed: int = 0,
                             restarts: int = 8, k: Optional[int] = None) -> DiscWitness:
    """Hill-climbing lower bound on the exact discrepancy.

    Climbs by strict-improvement moves (single-vertex add/remove, or
    in-out swaps when k pins the subset size), restarting from the
    full vertex set / a top-degree k-set and then from seeded random
    subsets. Returns the best local optimum across restarts; its value
    never exceeds the exact discrepancy. Deterministic given
    (seed, restarts); restarts counts the climbs and must be positive.
    With k=None the value is >= 0: a climb stops only when no removal
    gains, and the removal gains over a set sum to -2 times its score.
    """
    p = as_probability(p)
    _check_sign(sign)
    if restarts < 1:
        raise PreconditionError(f"restarts must be positive, got {restarts}")
    _check_k(k, 0, g.n)
    n = g.n
    num, den = p.numerator, p.denominator
    if n == 0 or k == 0:
        return DiscWitness(Fraction(0), frozenset(), sign, k)
    orient = 1 if sign == "positive" else -1

    def first(order) -> np.ndarray:
        """The bool row of order[:k]; every vertex when k is None."""
        row = np.zeros(n, dtype=bool)
        row[order[:k]] = True
        return row

    starts = [first(sorted(range(n), key=lambda v: (-g.degrees[v], v)))]
    for i in range(restarts - 1):
        gen = philox(split_seed(seed, i))
        if k is None:
            starts.append(gen.integers(0, 2, size=n).astype(bool))
        else:
            starts.append(first(gen.permutation(n)))

    best_score, best_mask = _lex_best(_climb(g, num, den, orient, start, k)
                                      for start in starts)
    return DiscWitness(Fraction(best_score, den), from_mask(best_mask), sign, k)


_KEY_OFF = np.int32(1 << 30)  # _climb's sentinel key, beyond every live one


def _climb(g: Graph, num: int, den: int, orient: int, in_set: np.ndarray,
           k: Optional[int]) -> tuple[int, int]:
    """Strict best-improvement hill climbing from the bool row in_set,
    which it updates in place.

    Returns (oriented_scaled_score, local_opt_mask). d[v] counts the
    neighbours of v inside the set, and every gain is read off it:
    adding v gains orient*(den*d[v] - num*size), removing it
    orient*(num*(size-1) - den*d[v]), and swapping x out for y in
    orient*den*(d[y] - A[x,y] - d[x]). As den > 0, the first argmax of
    each kind is its best move with the smallest vertex (smallest
    (out, in) pair for swaps); the finalists are scored in Python ints,
    so p stays exact whatever its denominator.

    With k None the keys orient*d are kept across moves, as _qfull keeps
    its swap keys: add holds them off the set and -_KEY_OFF on it, rem
    holds them on the set and _KEY_OFF off it, so the best addition is
    add's first argmax and the best removal rem's first argmin. A move
    adds orient*step times the mover's row to both and swaps the mover's
    key across. A sentinel drifts by at most 1 a move; pinning both every
    n moves keeps it beyond every |orient*d| < n, as n < 2^29 (the rows
    of a larger graph would not fit in memory).
    """
    n = g.n
    d = _counts(g, np.flatnonzero(in_set))
    size = int(np.count_nonzero(in_set))
    e = int(d[in_set].sum()) // 2

    def scaled(edges: int, sz: int) -> int:
        return orient * (edges * den - num * (sz * (sz - 1) // 2))

    score = scaled(e, size)
    if k is None:
        add, rem = keys = np.array((orient * d, orient * d), dtype=np.int32)
        for moves in itertools.count():
            if moves % n == 0:
                add[in_set] = -_KEY_OFF
                rem[~in_set] = _KEY_OFF
            finalists = []  # (gain, -v, step, d[v]) of the best addition and removal
            for v, step, side in ((int(add.argmax()), 1, add), (int(rem.argmin()), -1, rem)):
                if 0 <= size + step <= n:
                    dv = orient * int(side[v])
                    finalists.append((scaled(e + step * dv, size + step) - score, -v, step, dv))
            gain, neg_v, step, dv = max(finalists)
            if gain <= 0:
                return score, _pack_rows(in_set[None])[0]
            v = -neg_v
            e += step * dv
            size += step
            in_set[v] = step > 0
            _add_row(g, v, keys, orient * step)
            if step > 0:
                rem[v], add[v] = add[v], -_KEY_OFF
            else:
                add[v], rem[v] = rem[v], _KEY_OFF
            score = scaled(e, size)
    while True:
        od = orient * d
        # swap gains over X x (V \ X), divided by den, as int32, the
        # adjacent pairs' read off X's rows unpacked (_rows)
        xs, ys = np.flatnonzero(in_set), np.flatnonzero(~in_set)
        gains = od[ys].astype(np.int32) - od[xs, None].astype(np.int32)
        np.subtract(gains, orient, out=gains, where=_rows(g, xs)[:, ys])
        gain = int(gains.max(initial=0))
        if gain <= 0:
            return score, _pack_rows(in_set[None])[0]
        i, j = divmod(int(np.argmax(gains)), ys.size)
        for v in (xs[i], ys[j]):
            step = -1 if in_set[v] else 1
            e += step * int(d[v])
            size += step
            in_set[v] = step > 0
            _add_row(g, v, d, step)
        score = scaled(e, size)


def verify_jumbledness_bound(g: Graph, p, f_value: int, g_value: int,
                             cap: int = EXACT_CAP_DEFAULT) -> JumblednessBoundReport:
    """Check f >= disc+/j and g >= disc/j with exact rationals.

    f_value and g_value are the caller's (oracle) largest full and
    full-or-co-full orders at density p. j = 0 makes both bounds
    vacuous. A violation raises VerificationError: it would mean a bug
    in the oracles, not a counterexample.
    """
    p = as_probability(p)
    plus = discrepancy_exact(g, p, "positive", cap=cap)
    minus = discrepancy_exact(g, p, "negative", cap=cap)
    disc_both = max(plus.value, minus.value)
    jrep = jumbledness_exact(g, p, cap=cap)
    vacuous = jrep.j == 0
    if not vacuous and Fraction(f_value) < plus.value / jrep.j:
        raise VerificationError(
            f"largest-full order {f_value} below disc+/j = {plus.value / jrep.j}")
    if not vacuous and Fraction(g_value) < disc_both / jrep.j:
        raise VerificationError(
            f"full-or-co-full order {g_value} below disc/j = {disc_both / jrep.j}")
    return JumblednessBoundReport(p, plus.value, disc_both, jrep.j,
                                  f_value, g_value, vacuous)
