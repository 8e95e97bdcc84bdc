"""Seeded graph generators: random graphs, extremal constructions, and
adversarial instances.

Every generator is deterministic given its parameters (and seed, where
one applies), platform-independent, and validated before generation.
The dense families build their n x n bool matrix, symmetric and
loop-free by construction, after _check_dense_size, and hand it to
Graph._from_matrix unchecked (a sparse G(n, p) sets only the pairs its
kept draws name, dense ones mirror thresholded rows); clique-isolated
builds only its m x m clique block, packs it into masks and hands them
to Graph._from_adj. generate(GenSpec) dispatches by family tag using
the same family names the command line accepts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graph import (Graph, PreconditionError, VerificationError, _check_dense_size,
                    _check_memory, _mirror_upper, _pack_rows, as_probability, density)
from .rng import _bernoulli, _kept, uniform_u64

FAMILIES = ("gnp", "clique-isolated", "multipartite-planted", "adversary")
_PLACE_MAX = Fraction(1, 64)  # gen_gnp places the kept draws at p up to this


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated graph; identical specs yield
    identical graphs. n is the part size for multipartite-planted and
    the cycle-power parameter for adversary (4n+2 vertices)."""

    family: str
    n: int
    p: Optional[Fraction] = None
    E: Optional[int] = None
    r: Optional[int] = None
    c: Optional[Fraction] = None
    seed: int = 0


def gen_gnp(n: int, p, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with exact rational p: pair {u,v} is an edge
    when its 64-bit draw falls below floor(p * 2^64), so the per-edge
    bias is under 2^-64 (zero when the denominator is a power of two).
    Pairs are indexed in lexicographic order, independent of n's
    representation, so prefixes agree across runs. The draws fill an
    n x n bool matrix a block at a time, so the peak is that matrix plus
    one block; it becomes Graph.matrix, and masks are packed only if
    read. With no possible edge (p = 0 or n <= 1) no matrix is
    allocated. Dense graphs threshold each row's draws into the row's
    upper triangle (rng._bernoulli), which is then mirrored in tiles;
    at p <= _PLACE_MAX the kept draws' pair indices (rng._kept) are
    placed instead, both (u, v) and (v, u), so no row is looped over
    and no mirror runs. Median ms of 7 alternating runs, row / placed,
    on a 2-vCPU Xeon VM; _PLACE_MAX is the power of two below the
    lowest crossover:

        p          n = 1000     n = 2000     n = 5000
        1/2000    4.4 / 2.7   15.3 / 11.0  76.3 / 60.4
        1/110     4.2 / 2.8   15.6 / 12.4  78.4 / 70.7
        1/64      4.1 / 2.9   15.0 / 12.7  76.4 / 73.3
        1/32      4.7 / 3.4   14.8 / 14.4  74.2 / 82.2
        1/16      4.4 / 3.9   14.7 / 16.7  72.5 / 99.5
        1/8       5.0 / 4.0   14.6 / 17.9  73.5 / 105.0
    """
    if n < 0:
        raise PreconditionError(f"n must be nonnegative, got {n}")
    p = as_probability(p)
    num, den = p.numerator, p.denominator
    if n <= 1 or num == 0:
        return Graph.from_edges(n, [])
    _check_dense_size(n)
    if num == den:  # K_n: every pair is an edge, and nothing is drawn
        return Graph._from_matrix(~np.eye(n, dtype=bool))
    mat = np.zeros((n, n), dtype=bool)
    # the draws run in lexicographic pair order: row u's pairs (u, v > u)
    # take the next n-1-u, from pair index u(n-1) - u(u-1)/2 on
    if p <= _PLACE_MAX:
        rows = np.arange(n - 1)
        starts = rows * (n - 1) - rows * (rows - 1) // 2
        for k in _kept(seed, p, n * (n - 1) // 2):
            u = np.searchsorted(starts, k, side="right") - 1
            v = k - starts[u] + u + 1
            mat[u, v] = mat[v, u] = True
    else:
        _bernoulli(seed, p, [mat[u, u + 1:] for u in range(n - 1)])
        _mirror_upper(mat)
    return Graph._from_matrix(mat)


def gen_clique_plus_isolated(n: int, E: int) -> Graph:
    """The first E edges of a clique in lexicographic order (as
    np.triu_indices lists them), plus isolated vertices: the clique part
    has the minimal m with C(m,2) >= E. The graph holds masks alone,
    packed from the m x m block that _check_dense_size allows, built as
    a few m x m bools: row i keeps its pairs (i, j) up to the E-th."""
    if n < 0:
        raise PreconditionError(f"n must be nonnegative, got {n}")
    if not 0 <= E <= n * (n - 1) // 2:
        raise PreconditionError(
            f"E must lie in [0, C({n},2)] = [0, {n * (n - 1) // 2}], got {E}")
    _check_memory(8 * n, f"{n} adjacency masks")
    m = clique_part_size(E)
    _check_dense_size(m)
    i = np.arange(m)
    # C(m,2) - C(m-i,2) pairs precede row i
    ends = i + 1 + np.clip(E - i * (2 * m - i - 1) // 2, 0, m - 1 - i)
    block = (i[:, None] < i) & (i < ends[:, None])
    return Graph._from_adj(n, _pack_rows(block | block.T) + [0] * (n - m))


def clique_part_size(E: int) -> int:
    """Minimal m with C(m,2) >= E: the clique part of
    gen_clique_plus_isolated, and gen_multipartite_planted's k."""
    m = 0
    while m * (m - 1) // 2 < E:
        m += 1
    return m


def _floor_with_cbrt_term(base: Fraction, coeff: Fraction, n: int) -> int:
    """floor(base + coeff / n^(2/3)) for coeff >= 0, exactly: m <= base
    + coeff n^(-2/3) iff (m - base)^3 n^2 <= coeff^3, cubing being
    monotone for either sign of m - base."""
    guess = math.floor(float(base) + float(coeff) * float(n) ** (-2.0 / 3.0))

    def le(m: int) -> bool:
        return (Fraction(m) - base) ** 3 * n * n <= coeff ** 3

    m = guess
    while not le(m):
        m -= 1
    while le(m + 1):
        m += 1
    return m


def gen_multipartite_planted(n: int, r: int, c=Fraction(1)):
    """Complete (r+1)-partite graph (parts of size n) with a clique
    planted on the first k vertices of each part, trimmed to exactly
    target = round(p_target * C((r+1)n, 2)) edges where
    p_target = r/(r+1) + c n^(-2/3). k is minimal such that the
    untrimmed count reaches the target; trimming removes clique edges
    round-robin across parts, lex-largest edge of each part first, so
    deletions stay equitable. Returns (Graph, meta) with meta carrying
    k, the edge target, and the realized density as an exact rational.

    Rounding is half-up; c below 1 generates with a warning since the
    size guarantees need c >= 1.
    """
    if n < 1:
        raise PreconditionError(f"part size must be positive, got {n}")
    if r < 1:
        raise PreconditionError(f"r must be a positive integer, got {r}")
    c = Fraction(c)
    if c <= 0:
        raise PreconditionError(f"c must be positive, got {c}")
    if c < 1:
        warnings.warn(f"c = {c} < 1: planted density below the guaranteed regime",
                      stacklevel=2)
    N = (r + 1) * n
    _check_dense_size(N)
    pairs = N * (N - 1) // 2
    base = Fraction(r, r + 1) * pairs + Fraction(1, 2)
    # a target past C(N, 2) is capped at C(N, 2) + 1, which the clique-size check refuses
    capped = (pairs + 1 - base) ** 3 * n * n <= (c * pairs) ** 3
    target = pairs + 1 if capped else _floor_with_cbrt_term(base, c * pairs, n)
    cross = r * (r + 1) // 2 * n * n
    deficit = target - cross
    if deficit < 0:
        raise PreconditionError(
            f"edge target {target} below the {cross} cross-part edges; "
            "c too small for this part size")
    if deficit > (r + 1) * (n * (n - 1) // 2):  # k > n, refused first: the search stops by n
        raise PreconditionError(
            f"planted clique size would exceed the part size {n}; "
            "c too large for this part size")
    k = clique_part_size(-(-deficit // (r + 1)))  # least k with (r+1) C(k,2) >= deficit

    # round-robin in closed form: the surplus is below (r+1)(k-1), by the
    # minimality of k, so no part runs out of pairs to drop; part j keeps
    # a prefix of its clique's pairs in lex order, as triu_indices lists them
    drop, extra = divmod((r + 1) * (k * (k - 1) // 2) - deficit, r + 1)
    part = np.arange(N) // n
    mat = part[:, None] != part
    clique = np.triu_indices(k, 1)
    for j in range(r + 1):
        u, v = (x[:k * (k - 1) // 2 - drop - (j < extra)] + j * n for x in clique)
        mat[u, v] = mat[v, u] = True
    g = Graph._from_matrix(mat)
    if g.edge_count != target:
        raise VerificationError(
            f"built {g.edge_count} edges, target was {target}")
    meta = {"k": k, "target_edges": target,
            "realized_p": Fraction(target, pairs)}
    return g, meta


def gen_greedy_adversary(n: int) -> Graph:
    """The n-th power of a Hamiltonian cycle on 4n+2 vertices plus all
    antipodal edges (a (2n+1)-regular graph), with a complete bipartite
    K_{m,m} planted between {0..m-1} and {2n+1..2n+m} for
    m = round(sqrt(3n)). Density exceeds 1/2; built to stress greedy
    peeling tie-breaks."""
    if n < 2:
        raise PreconditionError(f"n must be at least 2, got {n}")
    N = 4 * n + 2
    _check_dense_size(N)
    base = np.zeros(N, dtype=bool)  # row 0: cyclic distance 1..n or 2n+1
    base[1:n + 1] = base[N - n:] = base[2 * n + 1] = True
    # row i is row 0 rotated i places: reversed windows of base[1:] + base
    mat = sliding_window_view(np.concatenate((base[1:], base)), N)[::-1].copy()
    m = adversary_planted_size(n)
    mat[:m, 2 * n + 1:2 * n + 1 + m] = mat[2 * n + 1:2 * n + 1 + m, :m] = True
    g = Graph._from_matrix(mat)
    expected = (2 * n + 1) ** 2 + m * (m - 1)
    if g.edge_count != expected:
        raise VerificationError(
            f"built {g.edge_count} edges, expected {expected}")
    return g


def adversary_planted_size(n: int) -> int:
    """m = round(sqrt(3n)) used by gen_greedy_adversary; exact halves
    cannot occur since sqrt(3n) is never a half-integer."""
    r0 = math.isqrt(3 * n)
    return r0 + 1 if 3 * n - r0 * r0 > r0 else r0


def gen_glued(a: Graph, b: Graph, seed: int) -> Graph:
    """Disjoint union of two equal even-order graphs joined by random
    pair matchings: vertices pair up consecutively (2i, 2i+1), and each
    (pair of A, pair of B) receives one of the two perfect matchings
    between them, chosen by an indexed coin so the draw for a pair-pair
    is independent of construction order. Every vertex gains exactly
    |A|/2 cross-neighbors, so the cross density is exactly 1/2."""
    if a.n != b.n:
        raise PreconditionError(f"orders differ: {a.n} vs {b.n}")
    if a.n % 2:
        raise PreconditionError(f"orders must be even, got {a.n}")
    h, N = a.n // 2, 2 * a.n
    _check_dense_size(N)
    mat = np.zeros((N, N), dtype=bool)
    mat[:a.n, :a.n], mat[a.n:, a.n:] = a.matrix, b.matrix
    # A's vertex 2i + s meets B's vertex 2j + t when s xor t is coin (i, j):
    # entry blocks[0, i, s, 1, j, t], mirrored at blocks[1, j, t, 0, i, s]
    coin = (uniform_u64(seed, h * h) & 1).astype(bool).reshape(h, h)
    blocks = mat.reshape(2, h, 2, 2, h, 2)
    s_xor_t = np.array([[[False, True]], [[True, False]]])
    np.equal(s_xor_t, coin[:, None, :, None], out=blocks[0, :, :, 1])
    np.equal(s_xor_t, coin.T[:, None, :, None], out=blocks[1, :, :, 0])
    return Graph._from_matrix(mat)


def generate(spec: GenSpec):
    """Dispatch a GenSpec to its family generator; returns
    (Graph, meta) where meta always includes the realized density."""
    if spec.family == "gnp":
        if spec.p is None:
            raise PreconditionError("gnp requires p")
        g = gen_gnp(spec.n, spec.p, spec.seed)
        meta = {}
    elif spec.family == "clique-isolated":
        if spec.E is None:
            raise PreconditionError("clique-isolated requires E")
        g = gen_clique_plus_isolated(spec.n, spec.E)
        meta = {"m": clique_part_size(spec.E)}
    elif spec.family == "multipartite-planted":
        if spec.r is None:
            raise PreconditionError("multipartite-planted requires r")
        g, meta = gen_multipartite_planted(spec.n, spec.r,
                                           spec.c if spec.c is not None else Fraction(1))
    elif spec.family == "adversary":
        g = gen_greedy_adversary(spec.n)
        meta = {"m": adversary_planted_size(spec.n)}
    else:
        raise PreconditionError(
            f"unknown family {spec.family!r}; expected one of {', '.join(FAMILIES)}")
    meta["density"] = density(g)
    return g, meta
