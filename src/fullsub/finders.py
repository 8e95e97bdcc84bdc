"""Constructive finders for full and relatively full subgraphs.

A subgraph on m vertices of a density-p graph is full when its minimum
internal degree is at least p(m-1), and co-full with "at most" in place
of "at least". A subgraph S is relatively q-full when every v in S
keeps d_S(v) >= q*d_G(v), a degree-proportional notion that does not
reference density. This module houses:

  - is_full / is_relatively_full: exact certification predicates,
  - oracle_largest_full: the exponential exact optimum (desk scale),
  - greedy_full: threshold peeling with a choice of tie-breaks,
  - qfull_partition: swap local search over (ceil(qn), rest)
    bipartitions whose local maxima force one of three witness shapes,
  - half_full / one_over_r_full: relatively full subgraphs near n/r,
  - full_two_thirds: the peel-until-aligned procedure whose output is
    full and has order at least (1-p)^(2/3) n^(2/3) / 4 - 1,
  - small_p_full: the sparse-regime finder (p <= n^(-2/3)),
  - largest_full_or_cofull: best of both orientations.

The bar p(m-1) has one integer form, _fullness_bar, and in-set degrees
one walk, graph._degrees_within. Every FullSubgraphResult leaves
through _certified, which checks the witness against the bar and takes
its minimum degree from the same walk; a failure raises
VerificationError because it can only mean an implementation bug.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .discrepancy import EXACT_CAP_DEFAULT
from .graph import (
    Graph,
    PreconditionError,
    VerificationError,
    _degrees_within,
    _pack_rows,
    as_mask,
    as_probability,
    complement,
    density,
    from_mask,
    induced_subgraph,
    iter_bits,
    to_mask,
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
    """Smallest nonnegative integer c with c*c >= x, exactly."""
    if x <= 0:
        return 0
    a, b = x.numerator, x.denominator
    c = math.isqrt((a + b - 1) // b)
    while c * c * b < a:
        c += 1
    while c >= 1 and (c - 1) * (c - 1) * b >= a:
        c -= 1
    return c


def _fullness_bar(p: Fraction, m: int, mode: str) -> int:
    """The integer form of the bar p(m-1) for an m-vertex set: members
    of a full set need at least ceil(p(m-1)) neighbours inside it, and
    those of a co-full set at most floor(p(m-1))."""
    thr = p.numerator * (m - 1)
    if mode == "full":
        return -(-thr // p.denominator)
    if mode == "cofull":
        return thr // p.denominator
    raise ValueError(f"mode must be 'full' or 'cofull', got {mode!r}")


def _first_violator(p: Fraction, mask: int, degs: list[int], mode: str) -> Optional[int]:
    """The smallest member of mask whose in-set degree (degs, as from
    _degrees_within) misses the fullness bar at p, or None."""
    bar = _fullness_bar(p, len(degs), mode)
    if mode == "cofull":
        degs, bar = [-d for d in degs], -bar
    if min(degs, default=bar) >= bar:
        return None
    return next(v for v, d in zip(iter_bits(mask), degs) if d < bar)


def is_full(g: Graph, p, vertices, mode: str = "full"):
    """(True, None) when the induced subgraph is full (co-full) at p,
    else (False, v) for the smallest violating vertex. Empty sets and
    singletons pass vacuously."""
    p = Fraction(p)
    mask = as_mask(vertices, g.n)
    bad = _first_violator(p, mask, _degrees_within(g, mask), mode)
    return bad is None, bad


def is_relatively_full(g: Graph, q, vertices):
    """(True, None) when every member v keeps d_S(v) >= q * d_G(v),
    else (False, v) for the smallest violating vertex."""
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    mask = as_mask(vertices, g.n)
    for v, d in zip(iter_bits(mask), _degrees_within(g, mask)):
        if b * d < a * g.degrees[v]:
            return False, v
    return True, None


def _certified(g: Graph, p: Fraction, mask: int, guarantee: Optional[Fraction] = None,
               trace: Optional[tuple[int, ...]] = None,
               mode: str = "full") -> FullSubgraphResult:
    """The result for the witness mask once it is certified full (or
    co-full) at p, its minimum degree read off the same degree walk; a
    failure raises VerificationError, since it means a finder bug."""
    degs = _degrees_within(g, mask)
    bad = _first_violator(p, mask, degs, mode)
    if bad is not None:
        raise VerificationError(f"witness not {mode} at p={p}: vertex {bad}")
    return FullSubgraphResult(from_mask(mask), len(degs), p, min(degs, default=0),
                              guarantee, trace)


def oracle_largest_full(g: Graph, p, mode: str = "full",
                        cap: int = EXACT_CAP_DEFAULT) -> FullSubgraphResult:
    """Exact largest full (or co-full) subgraph by descending-size
    search; the witness is the lexicographically smallest optimum.
    Exponential: refuses n > cap."""
    p = as_probability(p)
    if mode not in ("full", "cofull"):
        raise ValueError(f"mode must be 'full' or 'cofull', got {mode!r}")
    if g.n > cap:
        raise PreconditionError(
            f"exact search needs n <= {cap} (got n={g.n}); "
            "use greedy_full or full_two_thirds instead")
    n = g.n
    if n == 0:
        return _certified(g, p, 0, mode=mode)
    for m in range(n, 0, -1):
        bar = _fullness_bar(p, m, mode)
        if mode == "full":
            elig = [v for v in range(n) if g.degrees[v] >= bar]
        else:
            # members can lose at most n - m neighbors to the outside
            elig = [v for v in range(n) if g.degrees[v] - (n - m) <= bar]
        mask = _first_full_set(g.adj, elig, m, bar, mode == "full")
        if mask is not None:
            return _certified(g, p, mask, mode=mode)
    raise AssertionError("single vertices are always full")


def _first_full_set(adj, cands: list, m: int, bar: int,
                    full: bool) -> Optional[int]:
    """Mask of the lexicographically smallest m-subset X of the sorted
    cands whose members all have at least (full) or at most (co-full)
    bar neighbors in X, or None.

    Depth-first search in lex order that skips a vertex whose set can
    no longer be completed: for full, when some member has fewer than
    bar neighbors in the set plus the vertices still to pick from it;
    for co-full, when some member already has more than bar. The first
    set reached is the one a lex-order scan of all m-subsets meets
    first."""
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
            if full:
                rest, left = after[i + 1], need - 1
                ok = all((adj[v] & grown).bit_count()
                         + min((adj[v] & rest).bit_count(), left) >= bar
                         for v in itertools.chain(members, (u,)))
            else:
                ok = all((adj[v] & grown).bit_count() <= bar
                         for v in itertools.chain(members, (u,)))
            if ok:
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


def _peel(g: Graph, p: Fraction, tie_break: str = "min-index",
          stop: Optional[Callable[[int, int], bool]] = None
          ) -> tuple[int, tuple[int, ...], bool]:
    """Delete minimum-degree vertices until the survivors are full at p,
    or until stop(count, dmin) holds before a deletion; returns the
    survivors' mask, the deleted vertices in order and whether stop
    fired. tie_break is as in greedy_full; n must be positive.

    The degree table is dense: argmin finds the minimum in C (first
    occurrence = smallest index among ties), and a deletion decrements
    all surviving neighbours in one vectorized step."""
    n = count = g.n
    deg = np.array(g.degrees, dtype=np.int64)
    rows = g.matrix
    gone = np.zeros(n, dtype=np.bool_)
    never = np.iinfo(np.int64).max
    trace: list[int] = []
    last: Optional[int] = None
    stopped = False
    while True:
        masked = np.where(gone, never, deg)
        victim = int(np.argmin(masked))
        dmin = int(masked[victim])
        if dmin >= _fullness_bar(p, count, "full"):
            break
        if stop is not None and stop(count, dmin):
            stopped = True
            break
        if tie_break == "adversarial-antipodal" and last is not None:
            anti = (last + n // 2) % n
            if not gone[anti] and deg[anti] == dmin:
                victim = anti
        count -= 1
        gone[victim] = True
        deg[rows[victim] & ~gone] -= 1
        trace.append(victim)
        last = victim
    return _pack_rows(~gone[None])[0], tuple(trace), stopped


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
    mask, trace, _ = _peel(g, p, tie_break)
    guarantee = None
    if alpha is not None:
        alpha = Fraction(alpha)
        if alpha > 0:
            if p == 1:
                raise ValueError("alpha > 0 is impossible at p = 1")
            guarantee = Fraction(ceil_sqrt_frac(2 * alpha / (1 - p)))
    return _certified(g, p, mask, guarantee, trace)


def qfull_partition(g: Graph, q, seed: Optional[int] = None) -> QFullOutcome:
    """Swap local search over bipartitions (|X| = ceil(qn)) and the
    forced case analysis at a local maximum.

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
    x_mask = _pack_rows(in_x[None])[0]
    y_mask = ((1 << n) - 1) ^ x_mask
    x_set = from_mask(x_mask)
    y_set = from_mask(y_mask)
    if bx.size == 0:
        _certify_relative(g, q, x_mask, "variant i")
        return QFullOutcome("i", q, set_q=x_set, x_side=x_set, y_side=y_set)
    by = np.flatnonzero(~in_x & (u < 0))
    if by.size == 0:
        _certify_relative(g, 1 - q, y_mask, "variant ii")
        return QFullOutcome("ii", q, set_1mq=y_set, x_side=x_set, y_side=y_set)
    x0 = int(bx[0])
    y0 = int(by[0])
    grown_x = x_mask | (1 << y0)
    grown_y = y_mask | (1 << x0)
    _certify_relative(g, q, grown_x, "variant iii (q side)")
    _certify_relative(g, 1 - q, grown_y, "variant iii (1-q side)")
    return QFullOutcome("iii", q, set_q=from_mask(grown_x),
                        set_1mq=from_mask(grown_y), x_side=x_set, y_side=y_set)


def _certify_relative(g: Graph, q: Fraction, mask: int, label: str) -> None:
    ok, bad = is_relatively_full(g, q, mask)
    if not ok:
        raise VerificationError(f"{label} witness not relatively {q}-full at vertex {bad}")


def half_full(g: Graph, seed: Optional[int] = None) -> RelativelyFullResult:
    """A relatively half-full subgraph on floor(n/2) or floor(n/2)+1
    vertices: variant i gives ceil(n/2), variant ii floor(n/2), and
    from variant iii we keep the (1-q) side, which has floor(n/2)+1."""
    out = qfull_partition(g, Fraction(1, 2), seed=seed)
    chosen = out.set_q if out.variant == "i" else out.set_1mq
    assert chosen is not None
    return RelativelyFullResult(chosen, len(chosen), Fraction(1, 2))


def one_over_r_full(g: Graph, r: int, seed: Optional[int] = None) -> RelativelyFullResult:
    """A relatively (1/r)-full subgraph on floor(n/r) to ceil(n/r)+1
    vertices: every member keeps at least a 1/r share of its degree.

    Powers of two run log2(r) rounds of half_full, composing the
    degree shares; other r peel one layer at a time via
    qfull_partition at 1/r (variants i/iii finish immediately, variant
    ii recurses into the (1-1/r)-full side with r - 1).
    """
    if r < 1:
        raise PreconditionError(f"r must be a positive integer, got {r}")
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

    _certify_relative(g, Fraction(1, r), to_mask(final, n0), "one_over_r_full")
    lo = n0 // r
    hi = -((-n0) // r) + 1
    if not lo <= len(final) <= hi:
        raise VerificationError(
            f"1/{r}-full witness size {len(final)} outside [{lo}, {hi}]")
    return RelativelyFullResult(final, len(final), Fraction(1, r))


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
    """Peel minimum-degree vertices, switching to one_over_r_full at
    the first degree-aligned step; the output is full at p = density
    and has at least (1-p)^(2/3) n^(2/3) / 4 - 1 vertices.

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
    if num ** 3 * n * n <= den ** 3:
        raise PreconditionError(
            f"density {p} is at most n^(-2/3); use small_p_full instead")
    if (den - num) ** 7 * n <= den ** 7:
        raise PreconditionError(
            f"density {p} is at least 1 - n^(-1/7); no size guarantee applies")
    # smallest t with (1-p)^(-2/3) n^(1/3) <= 2^t, i.e. cubed and
    # cleared: 2^(3t) (den-num)^2 >= n den^2; doubling keeps 2^t below
    # twice the left-hand side
    t = 0
    while (1 << (3 * t)) * (den - num) ** 2 < n * den * den:
        t += 1
    r = 1 << t
    s_min = two_thirds_size_floor(n, p)

    def aligned(s: int, dmin: int) -> bool:
        # the switch is open for the first ceil(n/2) deletions, i.e.
        # while more than floor(n/2) vertices remain
        if s <= n // 2:
            return False
        d_i = _fullness_bar(p, s, "full")
        r_i = d_i % r
        return r_i * den <= (den - num) * r and dmin >= d_i - r_i + 1

    mask, trace, switched = _peel(g, p, stop=aligned)
    if switched:
        sub, sub_labels = induced_subgraph(g, mask)
        rel = one_over_r_full(sub, r)
        mask = to_mask((sub_labels[j] for j in rel.vertices), n)
    res = _certified(g, p, mask, Fraction(s_min), trace)
    if res.size < s_min:
        raise VerificationError(f"output size {res.size} below the bound {s_min}")
    return res


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
    num, den = p.numerator, p.denominator
    if num == 0 or n <= 2:
        return _certified(g, p, g.full_mask(), Fraction(0), ())
    if num ** 3 * n * n > den ** 3:
        raise PreconditionError(
            f"density {p} exceeds n^(-2/3); use full_two_thirds instead")
    nn = num * n * n

    def lower_ok(c: int) -> bool:
        return (c + 1) * (c + 1) * den >= nn

    def upper_ok(c: int) -> bool:
        return c <= 1 or (c - 1) * (c - 1) * den <= nn

    trace = [v for v in range(n) if g.degrees[v] == 0]
    alive = 0
    for v in range(n):
        if g.degrees[v] > 0:
            alive |= 1 << v
    count = alive.bit_count()

    # spanning forest by depth-first search over the live graph
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

    leaves = [v for v in range(n) if fadj[v].bit_count() == 1]
    for _ in range(n + 1):
        if lower_ok(count) and upper_ok(count):
            break
        if not lower_ok(count):
            raise VerificationError("order fell below the target window")
        # the lowest forest leaf: skip entries that lost their last
        # forest edge since the push (removed vertices keep none)
        while leaves and fadj[leaves[0]].bit_count() != 1:
            heapq.heappop(leaves)
        if not leaves:
            raise VerificationError("no forest leaf while above the window")
        leaf = heapq.heappop(leaves)
        w = fadj[leaf].bit_length() - 1
        alive ^= 1 << leaf
        fadj[w] &= ~(1 << leaf)
        fadj[leaf] = 0
        count -= 1
        trace.append(leaf)
        if fadj[w].bit_count() == 1:
            heapq.heappush(leaves, w)
        if (g.adj[w] & alive).bit_count() == 0:
            alive ^= 1 << w
            fadj[w] = 0
            count -= 1
            trace.append(w)
    else:
        raise VerificationError("leaf peeling failed to reach the window")
    return _certified(g, p, alive, Fraction(small_p_size_floor(n, p)), tuple(trace))


def largest_full_or_cofull(g: Graph, method: str = "oracle",
                           cap: int = EXACT_CAP_DEFAULT,
                           seed: int = 0) -> GValue:
    """Best of the largest full subgraph of G and of its complement
    (the latter equals the largest co-full subgraph of G), at
    p = density(G). method="oracle" is exact under the cap;
    method="heuristic" takes the best verified candidate from the
    polynomial finders on both orientations. Ties prefer the full side."""
    p = density(g)
    if method == "oracle":
        f_res = oracle_largest_full(g, p, "full", cap)
        co_res = oracle_largest_full(complement(g), 1 - p, "full", cap)
        if co_res.size > f_res.size:
            return GValue(co_res.size, "cofull", co_res.vertices, p)
        return GValue(f_res.size, "full", f_res.vertices, p)
    if method != "heuristic":
        raise ValueError(f"method must be 'oracle' or 'heuristic', got {method!r}")

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
    return GValue(len(best), side, best, p)
