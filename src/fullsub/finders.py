"""Constructive finders for full and relatively full subgraphs.

A subgraph on m vertices of a density-p graph is full when its minimum
internal degree is at least p(m-1), and co-full with "at most" in place
of "at least". A subgraph S is relatively q-full when every v in S
keeps d_S(v) >= q*d_G(v), a degree-proportional notion that does not
reference density. This module houses:

  - is_full / is_relatively_full: exact certification predicates,
  - oracle_largest_full: the exponential exact optimum (desk scale),
    a descending search kept on the graph per (p, mode),
  - greedy_full: threshold peeling with a choice of tie-breaks; its
    peel (_peel) also runs in a co-full mode on G's own rows, which
    peels as greedy_full on the complement would (_cofull_greedy),
  - qfull_partition: swap local search over (ceil(qn), rest)
    bipartitions whose local maxima force one of three witness shapes,
  - half_full / one_over_r_full: relatively full subgraphs near n/r,
  - full_two_thirds: the peel-until-aligned procedure whose output is
    full and has order at least (1-p)^(2/3) n^(2/3) / 4 - 1; its 1/r
    levels run on G's own rows within the kept set, as all qfull
    levels do (_qfull), so no finder builds an induced subgraph,
  - small_p_full: the sparse-regime finder (p <= n^(-2/3)),
  - largest_full_or_cofull: best of both orientations, exactly by one
    joint search that walks both kept searches down in lockstep, or by
    the polynomial finders whose size ceiling can still win, with the
    complement built only for a co-full finder other than greedy.

The bar p(m-1) has one integer form, _fullness_bar, and in-set degrees
one count, graph._degrees_within. Vertex sets stay sorted index arrays
inside the finders. Every FullSubgraphResult leaves through _certified,
which checks the witness against the bar, takes its minimum degree from
the same count and makes it a frozenset; a failure raises
VerificationError because it can only mean an implementation bug.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .discrepancy import EXACT_CAP_DEFAULT
from .graph import (
    Graph,
    PreconditionError,
    VerificationError,
    _adjacent,
    _counts,
    _degrees_within,
    _add_row,
    _rows,
    as_probability,
    complement,
    density,
    iter_bits,
)
from .rng import philox, split_seed


@dataclass(frozen=True)
class FullSubgraphResult:
    vertices: frozenset[int]
    size: int
    p_used: Fraction
    min_degree: int
    guarantee: Optional[Fraction] = None
    trace: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class RelativelyFullResult:
    vertices: frozenset[int]
    size: int
    q: Fraction


@dataclass(frozen=True)
class QFullOutcome:
    """Outcome of the bipartition local search at ratio q = a/b.

    variant "i":   set_q has exactly ceil(qn) vertices and is
                   relatively q-full.
    variant "ii":  set_1mq has floor((1-q)n) vertices and is
                   relatively (1-q)-full.
    variant "iii": both sets present, one vertex larger than the
                   variant i/ii sizes, relatively q-full and
                   (1-q)-full respectively.

    x_side / y_side carry the converged bipartition itself so callers
    can audit swap-local maximality.
    """

    variant: str
    q: Fraction
    set_q: Optional[frozenset[int]] = None
    set_1mq: Optional[frozenset[int]] = None
    x_side: Optional[frozenset[int]] = None
    y_side: Optional[frozenset[int]] = None


@dataclass(frozen=True)
class GValue:
    value: int
    side: str
    witness: frozenset[int]
    p: Fraction


def ceil_sqrt_frac(x: Fraction) -> int:
    """Smallest nonnegative integer c with c*c >= x, exactly: for an
    integer c, c*c >= x iff c*c >= ceil(x)."""
    return 0 if x <= 0 else math.isqrt(math.ceil(x) - 1) + 1


def _fullness_bar(p: Fraction, m: int) -> int:
    """ceil(p(m-1)), the integer form of the bar p(m-1): members of a
    full m-vertex set need at least that many neighbours inside it."""
    return -(-p.numerator * (m - 1) // p.denominator)


def _first_violator(p: Fraction, idx: np.ndarray, degs: np.ndarray,
                    mode: str) -> Optional[int]:
    """The smallest member of the vertex set idx, a sorted index array,
    whose in-set degree (degs, as from _degrees_within) misses the
    fullness bar at p, or None. A co-full set is checked as a full set
    of the complement at 1 - p, since d <= floor(p(m-1)) iff
    (m-1) - d >= ceil((1-p)(m-1))."""
    m = len(idx)
    if mode == "cofull":
        p, degs = 1 - p, m - 1 - degs.astype(np.int64)
    elif mode != "full":
        raise ValueError(f"mode must be 'full' or 'cofull', got {mode!r}")
    bad = degs < _fullness_bar(p, m)
    return int(idx[bad.argmax()]) if bad.any() else None


def is_full(g: Graph, p, vertices, mode: str = "full"):
    """(True, None) when the induced subgraph is full (co-full) at p,
    else (False, v) for the smallest violating vertex. Empty sets and
    singletons pass vacuously."""
    p = as_probability(p)
    bad = _first_violator(p, *_degrees_within(g, vertices), mode)
    return bad is None, bad


def is_relatively_full(g: Graph, q, vertices):
    """(True, None) when every member v keeps d_S(v) >= q * d_G(v),
    else (False, v) for the smallest violating vertex."""
    bad = _relative_violator(g, as_probability(q, "q"), vertices, np.asarray(g.degrees))[0]
    return bad is None, bad


def _relative_violator(g: Graph, q: Fraction, vertices,
                       base: np.ndarray) -> tuple[Optional[int], np.ndarray, np.ndarray]:
    """The smallest member v of S = vertices with d_S(v) < q * base[v],
    or None, then S and d_S as _degrees_within gives them: base is d_G,
    or d_W for a level run within W (_qfull)."""
    a, b = q.numerator, q.denominator
    idx, degs = _degrees_within(g, vertices)
    exact = np.int64 if b * g.n < 1 << 63 else object  # 0 <= a <= b, degrees below n
    bad = b * degs.astype(exact) < a * base[idx].astype(exact)
    return (int(idx[bad.argmax()]) if bad.any() else None), idx, degs


def _certified(g: Graph, p: Fraction, vertices, guarantee: Optional[Fraction] = None,
               trace: Optional[tuple[int, ...]] = None,
               mode: str = "full") -> FullSubgraphResult:
    """The result for the witness (a mask or a sorted index array) once
    it is certified full (or co-full) at p, its minimum degree read off
    the same degrees; a failure raises VerificationError, since it means
    a finder bug."""
    idx, degs = _degrees_within(g, vertices)
    bad = _first_violator(p, idx, degs, mode)
    if bad is not None:
        raise VerificationError(f"witness not {mode} at p={p}: vertex {bad}")
    return FullSubgraphResult(frozenset(idx.tolist()), len(idx), p,
                              int(degs.min()) if len(idx) else 0, guarantee, trace)


def oracle_largest_full(g: Graph, p, mode: str = "full",
                        cap: int = EXACT_CAP_DEFAULT) -> FullSubgraphResult:
    """Exact largest full (or co-full) subgraph by descending-size
    search; the witness is the lexicographically smallest optimum. The
    search is kept on g (_kept_search), so a repeated call returns its
    result and a search that largest_full_or_cofull stopped part-way
    resumes at its next size. Exponential: refuses n > cap."""
    s = _kept_search(g, as_probability(p), mode, cap)
    return next(s.result for m in range(s.m, -1, -1) if _holds(g, s, m))


def _kept_search(g: Graph, p: Fraction, mode: str, cap: int) -> SimpleNamespace:
    """g's search s for its largest full (or co-full) set at p, after
    the refusals: every size above s.m is refuted, and s.result, once
    found, is the certified witness of size s.m. Co-full sets of G at p
    are the full sets of its complement at 1 - p (_first_violator), so
    the co-full search is the full search on the complement's masks and
    degrees, built once; both modes certify the witness in G. g.__dict__
    keeps one search per (p, mode), as it keeps _subset_extremes' table."""
    if mode not in ("full", "cofull"):
        raise ValueError(f"mode must be 'full' or 'cofull', got {mode!r}")
    if g.n > cap:
        raise PreconditionError(
            f"exact search needs n <= {cap} (got n={g.n}); "
            "use greedy_full or full_two_thirds instead")
    searches = g.__dict__.setdefault("_oracle_searches", {})
    key = (p.numerator, p.denominator, mode)  # a Fraction hashes slowly
    if (s := searches.get(key)) is None:
        n, adj, degrees, q = g.n, g.adj, g.degrees, p
        if mode == "cofull":
            full = (1 << n) - 1
            adj = [full ^ a ^ (1 << v) for v, a in enumerate(adj)]
            degrees, q = [n - 1 - d for d in degrees], 1 - p
        s = searches[key] = SimpleNamespace(m=n, result=None, p=p, mode=mode,
                                            adj=adj, degrees=degrees, q=q)
    return s


def _holds(g: Graph, s: SimpleNamespace, m: int) -> bool:
    """Whether the kept search s holds a set of size m, testing size m
    first if it is the next to try. Callers walk m downward."""
    if s.result is None and s.m == m:
        bar = _fullness_bar(s.q, m)
        mask = _first_full_set(s.adj, [v for v, d in enumerate(s.degrees) if d >= bar], m, bar)
        if mask is None:
            s.m = m - 1
        else:
            s.result = _certified(g, s.p, mask, mode=s.mode)
    return s.result is not None and s.m == m


def _first_full_set(adj, cands: list, m: int, bar: int) -> Optional[int]:
    """Mask of the lexicographically smallest m-subset X of the sorted
    cands whose members all have at least bar neighbors in X, or None.

    Lex-order depth-first search that takes u = cands[i] only if u and
    each member v can still reach bar in X + u with need - 1 more picks
    from cands[i+1:]. For v with deficit t = bar - |N(v) & X| > 0 that is
    t <= need, at least t neighbors in cands[i:], and v ~ u if t = need. So
    each node fixes on entry (1) limit, where its scan stops: the first i
    at which a member has fewer than t neighbors left, and (2) tight, the
    members with t = need, which u must neighbor (no t exceeds need: u's
    test leaves it t < need, and a tight member's t falls with need);
    only u's own count is tested per candidate. Both rules skip only
    candidates that fail the full test, so the first set reached is the
    one a lex-order scan of all m-subsets meets first."""
    k = len(cands)
    if k < m:
        return None
    rows = [adj[v] for v in cands]
    after = [0] * (k + 1)  # after[i]: mask of cands[i:]
    for i in range(k - 1, -1, -1):
        after[i] = after[i + 1] | (1 << cands[i])
    nbr_rows: list = [None] * k  # per position, built on its first push
    picked: list = []  # positions in cands
    frames = [(0, [], k - m + 1, 0)]  # X, (bit, t, nbrs) of members with t > 0, limit, tight
    i = 0
    while True:
        need = m - len(picked)
        if not need:
            return frames[-1][0]
        mask, members, limit, tight = frames[-1]
        while i < limit:
            au = rows[i]
            if not tight & ~au:
                inside = (au & mask).bit_count()
                if inside + min((au & after[i + 1]).bit_count(), need - 1) >= bar:
                    break
            i += 1
        else:
            if not picked:
                return None
            i = picked.pop() + 1
            frames.pop()
            continue
        picked.append(i)
        need -= 1
        nbrs = nbr_rows[i]
        if nbrs is None:  # one past each neighbor's position, ascending
            nbrs = nbr_rows[i] = [j + 1 for j, w in enumerate(cands) if au >> w & 1]
        bit, limit, tight, kept = 1 << cands[i], k - need + 1, 0, []
        for b, t, ns in members + [(bit, bar - inside, nbrs)]:
            if au & b:
                t -= 1
            if t < 1:
                continue
            if ns[-t] < limit:  # t <= len(ns), as the test that took u ensures
                limit = ns[-t]
            if t == need:
                tight |= b
            kept.append((b, t, ns))
        frames.append((mask | bit, kept, limit, tight))
        i += 1


_GONE = np.int32(1 << 30)  # a deleted vertex's degree, above every live one
_SCAN_ROWS = 32  # rows a qfull scan for a non-adjacent swap unpacks at most at once


def _peel(g: Graph, p: Fraction, tie_break: str = "min-index",
          stop: Optional[Callable[[int, int], bool]] = None, mode: str = "full"
          ) -> tuple[np.ndarray, tuple[int, ...], bool, np.ndarray]:
    """Delete minimum-degree vertices until the survivors are full at p,
    or until stop(count, dmin) holds before a deletion; returns the
    survivors as a sorted index array, the deleted vertices in order,
    whether stop fired and the key table (d_kept at the survivors, -d_kept
    in the co-full mode).
    tie_break is as in greedy_full; n must be positive. mode="cofull"
    peels G toward a co-full set on its own rows, as the full peel of
    the complement at 1 - p would: its keys are -d, so the vertex deleted
    has the most live neighbours (the smallest index among ties), until
    each keeps at most floor(p(count-1)).

    The key table is dense int32; a deleted vertex's entry starts at
    _GONE = 2^30 and moves by at most n - 1 < 2^29, so it stays above every
    live key: argmin finds the minimum live key (first occurrence =
    smallest index among ties), and a deletion moves every key by its row,
    added from Graph.packed (graph._add_row)."""
    n = count = g.n
    cofull = mode == "cofull"
    deg = np.array(g.degrees, dtype=np.int32)
    if cofull:  # keys -d clear -floor(p(count-1)) = ceil(-p(count-1))
        np.negative(deg, out=deg)
        p = -p
    trace: list[int] = []
    last: Optional[int] = None
    stopped = False
    while True:
        victim = int(deg.argmin())
        dmin = int(deg[victim])
        if dmin >= _fullness_bar(p, count):
            break
        if stop is not None and stop(count, dmin):
            stopped = True
            break
        if tie_break == "adversarial-antipodal" and last is not None:
            anti = (last + n // 2) % n
            if deg[anti] == dmin:  # never true of a deleted antipode
                victim = anti
        count -= 1
        deg[victim] = _GONE
        _add_row(g, victim, deg, 1 if cofull else -1)
        trace.append(victim)
        last = victim
    return np.flatnonzero(deg < n), tuple(trace), stopped, deg


def greedy_full(g: Graph, p=None, tie_break: str = "min-index",
                alpha=None) -> FullSubgraphResult:
    """Peel below-threshold vertices until the remainder is full at p.

    While the current graph on s vertices has minimum degree below
    p(s-1), delete one minimum-degree vertex and repeat; a single
    vertex is always full, so this terminates with a nonempty witness.
    tie_break picks among minimum-degree vertices: "min-index" takes
    the smallest label; "adversarial-antipodal" prefers the antipode
    (v + n//2 mod n) of the previously deleted vertex when it is tied,
    the stress-test schedule for near-regular layered graphs.

    When the caller supplies alpha = edge_surplus of the deletion
    start (> 0), the guarantee field carries the ceiling of
    sqrt(2*alpha/(1-p)), a proven lower bound on the final size.
    """
    if tie_break not in ("min-index", "adversarial-antipodal"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    p = density(g) if p is None else as_probability(p)
    if g.n == 0:
        return _certified(g, p, 0, None, ())
    kept, trace, _, _ = _peel(g, p, tie_break)
    guarantee = None
    if alpha is not None:
        alpha = Fraction(alpha)
        if alpha > 0:
            if p == 1:
                raise ValueError("alpha > 0 is impossible at p = 1")
            guarantee = Fraction(ceil_sqrt_frac(2 * alpha / (1 - p)))
    return _certified(g, p, kept, guarantee, trace)


def _cofull_greedy(g: Graph) -> FullSubgraphResult:
    """greedy_full(complement(g))'s witness and trace, from the co-full
    peel on G's own rows, certified co-full in G at p = density(g)."""
    p = density(g)
    if g.n == 0:
        return _certified(g, p, 0, None, (), "cofull")
    kept, trace, _, _ = _peel(g, p, mode="cofull")
    return _certified(g, p, kept, None, trace, "cofull")


def qfull_partition(g: Graph, q, seed: Optional[int] = None) -> QFullOutcome:
    """Swap local search over bipartitions (|X| = ceil(qn)) and the forced case
    analysis at a local maximum: _qfull on all of G; the 1/r levels run it within a live set.

    With q = a/b the integer potential (b-a)e(X) + a*e(Y) rises by at
    least 1 per applied swap, so at most b*C(n,2) swaps occur. At a
    swap-local maximum either X is relatively q-full (variant i), or Y
    is relatively (1-q)-full (variant ii), or both deficiency sets are
    nonempty and adding the smallest-index deficient vertex from the
    other side fixes each (variant iii). The swap gain of exchanging
    x in X with y in Y is u(x) - u(y) - b*[xy edge] for
    u(v) = a*d(v) - b*d_X(v), which the search maximizes greedily.

    Default start: the ceil(qn) highest-degree vertices (ties to the
    smaller index); a seed switches to a random start for restarts.
    """
    q = as_probability(q, "q")
    variant, *sets, _ = _qfull(g, q, np.arange(g.n), g.degrees, seed)
    return QFullOutcome(variant, q, *(None if s is None else frozenset(s.tolist()) for s in sets))


def _qfull(g: Graph, q: Fraction, live: np.ndarray, deg, seed: Optional[int]) -> tuple:
    """qfull_partition's search on G[live], for the sorted index array live and
    deg = d_live by vertex id (read at members only), on G's own rows:
    (variant, set_q, set_1mq, X, Y) as index arrays or None, certified
    relative to d_live, then d_S by vertex id for the side S that _half
    keeps, counted by its certificate. Non-members stay pinned at the key
    sentinels and ids keep live's order: G[live]'s swaps."""
    a, b = q.numerator, q.denominator
    n, m = g.n, len(live)
    if b * max(m, 1) >= 1 << 62:
        raise PreconditionError("q denominator too large for int64 swap scores")
    if m == 0:
        return "i", live, None, None, None, np.zeros(n, dtype=np.int64)
    kx = -((-a * m) // b)

    deg = np.asarray(deg, np.int64)
    start = np.lexsort((live, -deg[live])) if seed is None else \
        philox(split_seed(seed, 0)).permutation(m)
    in_x = np.bincount(live[start[:kx]], minlength=n) > 0
    member = np.bincount(live, minlength=n) > 0

    # neighbours inside X: popcounts of each row ANDed with X's words
    u = a * deg - b * _counts(g, np.flatnonzero(in_x))

    if 0 < kx < m:
        # The swap keys, kept across swaps: ux is u on X and NEG elsewhere,
        # uy is POS on X and off live and u on Y. They are int32 while
        # b*m < 2^L = 2^28, else int64 with L = 62 (the refusal above). A
        # swap subtracts its row difference from both, so a sentinel drifts
        # by at most b per swap; pinning them back every m // 2 swaps keeps
        # the drift under b*m/2 < 2^(L-1), so POS = -NEG = 3 * 2^(L-1) stay
        # in magnitude in (2^L, 2^(L+1)), inside the width and apart from
        # every |u| <= b*(m-1) < 2^L: argmax and argmin see u on one side.
        kdt, width = (np.int32, 28) if b * m < 1 << 28 else (np.int64, 62)
        POS = kdt(3 << width - 1)
        NEG = -POS
        ux, uy = keys = np.array((u, u), dtype=kdt)
        pin_every = m // 2
        max_swaps = b * m * (m - 1) // 2 + m + 10
        for swaps in range(max_swaps):
            if swaps % pin_every == 0:
                ux[~in_x] = NEG
                uy[in_x | ~member] = POS
            x_star = int(ux.argmax())
            y_star = int(uy.argmin())
            gain_cap = int(ux[x_star]) - int(uy[y_star])
            if gain_cap <= 0:
                break
            swap = None
            if gain_cap - b * _adjacent(g, x_star, y_star) > 0:
                swap = (x_star, y_star)
            else:
                # all adjacent pairs are non-improving here; scan the x
                # above the least u on Y, by falling u (ties to the smaller
                # index), for a non-adjacent y with smaller u, in runs of
                # 1, 2, 4, ... up to _SCAN_ROWS x, whose rows unpack together
                tops = np.flatnonzero(ux > uy[y_star])
                order, s, k = tops[np.argsort(-ux[tops], kind="stable")], 0, 1
                while swap is None and s < len(order):
                    xs = order[s:s + k]
                    cand = np.where(_rows(g, xs), POS, uy)
                    ys = cand.argmin(axis=1)
                    ok = cand[np.arange(len(xs)), ys] < ux[xs]
                    if ok.any():
                        i = int(ok.argmax())
                        swap = (int(xs[i]), int(ys[i]))
                    s, k = s + k, min(2 * k, _SCAN_ROWS)
            if swap is None:
                break
            x, y = swap
            in_x[x] = False
            in_x[y] = True
            # d_X(v) moves by A[y,v] - A[x,v]; u moves by b times minus that
            _add_row(g, y, keys, -b)
            _add_row(g, x, keys, b)
            uy[x], ux[y] = ux[x], uy[y]  # the two moved vertices change sides
            ux[x], uy[y] = NEG, POS
        else:
            raise VerificationError("swap search exceeded its potential bound")
        u = np.where(in_x, ux, uy)

    in_y = member & ~in_x
    xs, ys = np.flatnonzero(in_x), np.flatnonzero(in_y)
    bx = np.flatnonzero(in_x & (u > 0))
    if bx.size == 0:
        within = _certify_relative(g, q, xs, deg, "variant i")
        return "i", xs, None, xs, ys, within
    by = np.flatnonzero(in_y & (u < 0))
    if by.size == 0:
        within = _certify_relative(g, 1 - q, ys, deg, "variant ii")
        return "ii", None, ys, xs, ys, within
    in_x[by[0]] = in_y[bx[0]] = True
    grown_x, grown_y = np.flatnonzero(in_x), np.flatnonzero(in_y)
    _certify_relative(g, q, grown_x, deg, "variant iii (q side)")
    within = _certify_relative(g, 1 - q, grown_y, deg, "variant iii (1-q side)")
    return "iii", grown_x, grown_y, xs, ys, within


def _certify_relative(g: Graph, q: Fraction, vertices, base: np.ndarray,
                      label: str) -> np.ndarray:
    """d_S by vertex id, 0 off S = vertices, once S is certified
    relatively q-full against base."""
    bad, idx, degs = _relative_violator(g, q, vertices, base)
    if bad is not None:
        raise VerificationError(f"{label} witness not relatively {q}-full at vertex {bad}")
    within = np.zeros(g.n, dtype=np.int64)
    within[idx] = degs
    return within


def _half(g: Graph, live: np.ndarray, deg, seed: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """G[live]'s relatively half-full side at 1/2 (set_q in variant i,
    else set_1mq) and its in-side degrees by vertex id."""
    variant, set_q, set_1mq, _, _, within = _qfull(g, Fraction(1, 2), live, deg, seed)
    return set_q if variant == "i" else set_1mq, within


def half_full(g: Graph, seed: Optional[int] = None) -> RelativelyFullResult:
    """A relatively half-full subgraph on floor(n/2) or floor(n/2)+1
    vertices: variant i gives ceil(n/2), variant ii floor(n/2), and
    from variant iii we keep the (1-q) side, which has floor(n/2)+1."""
    chosen = _half(g, np.arange(g.n), g.degrees, seed)[0]
    return RelativelyFullResult(frozenset(chosen.tolist()), len(chosen), Fraction(1, 2))


def one_over_r_full(g: Graph, r: int, seed: Optional[int] = None) -> RelativelyFullResult:
    """A relatively (1/r)-full subgraph on floor(n/r) to ceil(n/r)+1
    vertices: every member keeps at least a 1/r share of its degree.

    One loop of qfull levels on G's own rows, level i seeded
    split_seed(seed, i) and run within the set the last one kept.
    Powers of two split at 1/2 log2(r) times, keeping half_full's side
    and composing the degree shares; other r split at 1/r, where
    variants i/iii keep the 1/r side and stop and variant ii recurses
    into the (1-1/r)-full side with r - 1.
    """
    kept = _one_over_r(g, r, np.arange(g.n), np.array(g.degrees), seed)
    return RelativelyFullResult(frozenset(kept.tolist()), len(kept), Fraction(1, r))


def _one_over_r(g: Graph, r: int, live: np.ndarray, base: np.ndarray,
                seed: Optional[int] = None) -> np.ndarray:
    """one_over_r_full's witness within the sorted index array live, as an
    index array certified relative to d_live and sized in |live|'s window.
    base is d_live by vertex id (read at members only)."""
    if r < 1:
        raise PreconditionError(f"r must be a positive integer, got {r}")
    m = len(live)
    halving = r & (r - 1) == 0
    rr, level, deg = r, 0, base  # d_live, the last level's count of the side it kept
    while rr > 1:
        level_seed = None if seed is None else split_seed(seed, level)
        if halving:
            (live, deg), rr = _half(g, live, deg, level_seed), rr // 2
        else:
            variant, set_q, set_1mq, _, _, deg = _qfull(g, Fraction(1, rr), live, deg, level_seed)
            live, rr = (set_1mq, rr - 1) if variant == "ii" else (set_q, 1)
        level += 1

    _certify_relative(g, Fraction(1, r), live, base, "one_over_r_full")
    lo, hi = m // r, -(-m // r) + 1
    if not lo <= len(live) <= hi:
        raise VerificationError(f"1/{r}-full witness size {len(live)} outside [{lo}, {hi}]")
    return live


def two_thirds_size_floor(n: int, p) -> int:
    """Smallest integer s with 64 (s+1)^3 den^2 >= (den-num)^2 n^2,
    the exact integer form of s >= (1-p)^(2/3) n^(2/3) / 4 - 1."""
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    rhs = (den - num) ** 2 * n * n
    s = 0
    while 64 * (s + 1) ** 3 * den * den < rhs:
        s += 1
    return s


def full_two_thirds(g: Graph) -> FullSubgraphResult:
    """Peel minimum-degree vertices, switching at the first
    degree-aligned step to one_over_r_full's levels, run on G's own
    rows within the survivors (_one_over_r); the output is full at
    p = density and has at least (1-p)^(2/3) n^(2/3) / 4 - 1 vertices.

    Requires n^(-2/3) < p < 1 - n^(-1/7) (checked exactly; n <= 2
    short-circuits to V(G), which is full at its own density). With
    2^t the least power of two whose cube clears n/(1-p)^2, a step on
    s vertices is aligned when the threshold d = ceil(p(s-1)) has
    remainder d mod 2^t at most (1-p)2^t and the current minimum
    degree is within that remainder of d; then a relatively
    (1/2^t)-full subgraph of the survivor is automatically full at p.
    Past ceil(n/2) steps the procedure continues as plain peeling.
    """
    n = g.n
    p = density(g)
    num, den = p.numerator, p.denominator
    if n <= 2:
        # any graph on <= 2 vertices is full at its own density, and
        # the p-range below is empty there anyway
        return _certified(g, p, g.full_mask(), Fraction(0), ())
    r = _two_thirds_r(n, p)
    s_min = two_thirds_size_floor(n, p)

    def aligned(s: int, dmin: int) -> bool:
        # the switch is open for the first ceil(n/2) deletions, i.e.
        # while more than floor(n/2) vertices remain
        if s <= n // 2:
            return False
        d_i = _fullness_bar(p, s)
        r_i = d_i % r
        return r_i * den <= (den - num) * r and dmin >= d_i - r_i + 1

    kept, trace, switched, keys = _peel(g, p, stop=aligned)
    if switched:  # the peel's keys are d_kept at the survivors: _one_over_r need not count it
        kept = _one_over_r(g, r, kept, np.where(keys < n, keys, 0))
    res = _certified(g, p, kept, Fraction(s_min), trace)
    if res.size < s_min:
        raise VerificationError(f"output size {res.size} below the bound {s_min}")
    return res


def _two_thirds_r(n: int, p: Fraction) -> int:
    """full_two_thirds' r = 2^t on n > 2 vertices at density p, after its
    refusals of p outside n^(-2/3) < p < 1 - n^(-1/7) (at p = 1 the loop
    below would not end): the smallest t with (1-p)^(-2/3) n^(1/3) <= 2^t,
    i.e. cubed and cleared: 2^(3t) (den-num)^2 >= n den^2; doubling keeps
    2^t below twice the left-hand side."""
    num, den = p.numerator, p.denominator
    if num ** 3 * n * n <= den ** 3:
        raise PreconditionError(
            f"density {p} is at most n^(-2/3); use small_p_full instead")
    if (den - num) ** 7 * n <= den ** 7:
        raise PreconditionError(
            f"density {p} is at least 1 - n^(-1/7); no size guarantee applies")
    t = 0
    while (1 << (3 * t)) * (den - num) ** 2 < n * den * den:
        t += 1
    return 1 << t


def small_p_size_floor(n: int, p) -> int:
    """Smallest integer c with (c+1)^2 den >= num n^2, the exact
    integer form of c >= p^(1/2) n - 1."""
    p = Fraction(p)
    c_plus_1 = ceil_sqrt_frac(Fraction(p.numerator * n * n, p.denominator))
    return max(0, c_plus_1 - 1)


def small_p_full(g: Graph) -> FullSubgraphResult:
    """Sparse-regime finder for p <= n^(-2/3): drop isolated vertices,
    then peel spanning-forest leaves (each removal spawns at most one
    new isolated vertex, removed alongside) until the order first
    lands in [p^(1/2) n - 1, p^(1/2) n + 1]. Steps shrink the order by
    at most 2 and the window always contains two integers, so it
    cannot be jumped; the result has minimum degree >= 1, which is
    full because p(m-1) <= p^(3/2) n <= 1 here. p = 0 and n <= 2
    return V(G) outright."""
    n = g.n
    p = density(g)
    if p == 0 or n <= 2:
        return _certified(g, p, g.full_mask(), Fraction(0), ())
    hi = _small_p_top(n, p)
    lo = small_p_size_floor(n, p)

    # removed vertices join the trace, so n - len(trace) are live; the
    # spanning forest, by depth-first search over the live graph, is held
    # as each vertex's forest degree fdeg and the XOR fx of its forest
    # neighbours, so a leaf's one neighbour is fx[leaf]
    trace = [v for v in range(n) if g.degrees[v] == 0]
    fdeg, fx = [0] * n, [0] * n
    seen = 0
    for root in range(n):
        if not g.degrees[root] or (seen >> root) & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            v = stack.pop()
            fresh = g.adj[v] & ~seen  # a live vertex's neighbours are all live
            seen |= fresh
            fdeg[v] += fresh.bit_count()
            for u in iter_bits(fresh):  # u is fresh: no forest edge yet
                fdeg[u], fx[u] = 1, v
                fx[v] ^= u
                stack.append(u)

    leaves = [v for v in range(n) if fdeg[v] == 1]
    for _ in range(n + 1):
        if n - len(trace) < lo:
            raise VerificationError("order fell below the target window")
        if n - len(trace) <= hi:
            break
        # the lowest forest leaf: skip entries that lost their last
        # forest edge since the push (removed vertices keep none)
        while leaves and fdeg[leaves[0]] != 1:
            heapq.heappop(leaves)
        if not leaves:
            raise VerificationError("no forest leaf while above the window")
        leaf = heapq.heappop(leaves)
        w = fx[leaf]
        fdeg[leaf] = 0
        fdeg[w] -= 1
        fx[w] ^= leaf
        trace.append(leaf)
        if fdeg[w] == 1:
            heapq.heappush(leaves, w)
        if not fdeg[w]:  # the forest spans each live component: w has no live neighbour
            trace.append(w)
    else:
        raise VerificationError("leaf peeling failed to reach the window")
    live = np.ones(n, dtype=np.bool_)
    live[trace] = False
    return _certified(g, p, np.flatnonzero(live), Fraction(lo), tuple(trace))


def _small_p_top(n: int, p: Fraction) -> int:
    """small_p_full's window top on n vertices at density p, after its
    refusal of p > n^(-2/3): 1 + isqrt(num n^2 // den), so that c <= top
    iff c <= 1 or (c-1)^2 den <= num n^2."""
    num, den = p.numerator, p.denominator
    if num ** 3 * n * n > den ** 3:
        raise PreconditionError(
            f"density {p} exceeds n^(-2/3); use full_two_thirds instead")
    return 1 + math.isqrt(num * n * n // den)


def largest_full_or_cofull(g: Graph, method: str = "oracle",
                           cap: int = EXACT_CAP_DEFAULT,
                           seed: int = 0) -> GValue:
    """Best of the largest full subgraph of G and of its complement
    (the latter equals the largest co-full subgraph of G), at
    p = density(G): the largest witness wins, ties go to the full side
    and then to the lexicographically smallest set. method="oracle" is
    exact under the cap: one joint search walks the sizes down, tests
    full before co-full at each on the searches oracle_largest_full
    keeps on g, and stops at the first set; method="heuristic" takes the
    best verified candidate from the polynomial finders on both sides:
    greedy_full on G and, through the co-full peel on G's own rows
    (_cofull_greedy), on its complement first, then on each side
    full_two_thirds, small_p_full and half_full (kept when full), each
    only where it takes the side's density (1 - p on the co-full side)
    and its size ceiling reaches the largest candidate so far:
    ceil(n/r) + 1 (_two_thirds_r; a run that never switches returns
    greedy's witness), the window top (_small_p_top), floor(n/2) + 1.
    Where a finder returns V(G) outright (n <= 2, p = 0), greedy_full
    has kept V(G) on the full side already. The complement is built for
    the first co-full finder that runs. A smaller set loses on size
    whatever its side and members, so a skipped call cannot change the
    answer."""
    p = density(g)
    if method == "oracle":
        kept = [_kept_search(g, p, side, cap) for side in ("full", "cofull")]
        return next(GValue(m, s.mode, s.result.vertices, p) for m in range(g.n, -1, -1)
                    for s in kept if _holds(g, s, m))
    elif method == "heuristic":
        n = g.n
        cands = [("full", greedy_full(g).vertices), ("cofull", _cofull_greedy(g).vertices)]
        for side, q, h in (("full", p, g), ("cofull", 1 - p, None)):
            for finder in (full_two_thirds, small_p_full, half_full):
                try:  # finder's size ceiling, from its own formula
                    top = (-(-n // _two_thirds_r(n, q)) + 1 if finder is full_two_thirds
                           else _small_p_top(n, q) if finder is small_p_full else n // 2 + 1)
                except PreconditionError:  # finder refuses q: skip it
                    continue
                if top >= max(len(c[1]) for c in cands):
                    h = complement(g) if h is None else h  # for the first co-full run
                    got = (half_full(h, seed=seed) if finder is half_full else finder(h)).vertices
                    if finder is not half_full or is_full(h, q, got)[0]:
                        cands.append((side, got))
    else:
        raise ValueError(f"method must be 'oracle' or 'heuristic', got {method!r}")
    side, best = min(cands, key=lambda c: (-len(c[1]), c[0] != "full", sorted(c[1])))
    return GValue(len(best), side, best, p)
