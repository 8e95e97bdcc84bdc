"""Majority bootstrap percolation and its correspondence with
relatively half-full subgraphs.

A vertex becomes infected once strictly more than half of its
neighbors are infected (degree-0 vertices never catch it). The fixed
points are exact: an initial set infects everything if and only if no
nonempty relatively half-full subgraph avoids it, and a nonempty final
uninfected set is itself relatively half-full. One engine closes a
batch of initial sets at once: one set for bootstrap_percolate, chunks
of Monte Carlo trials for full_infection_probability, whose pass also
yields the witness of `fullsub percolate --witness`. Each round adds
its new infections to the rows' infected-neighbour counts by whichever
of two exact updates one cost constant prices lower: a dense float32
product with the adjacency rows of the newly infected vertices, or a
scatter of each new infection's neighbours from an n x max-degree table
of neighbour ids, its temporaries bounded by _SCATTER_BLOCK counters or
table entries whatever the batch. Both read the graph in the form it
holds, through graph.py (_rows, _arcs): packed rows or masks unpack
only the rows a product multiplies. The exact probability enumerates
instead, on a bitset of all 2^n subsets (64 to a word, 2^n / 2 bytes):
64-bit constants per need mark the relatively half-full sets, and an
OR subset-sum transform marks their supersets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .finders import is_relatively_full
from .graph import (_BYTE_ROWS, Graph, PreconditionError, _arcs, _as_index, _check_memory,
                    _pack_rows, _rows, as_probability)
from .rng import _bernoulli, split_seed

THETA_CAP_DEFAULT = 20
_CHUNK = 256  # rows percolated together, which bounds memory at any trial count
_SCATTER_COST = 128  # product multiply-adds worth a scatter entry or counter (_percolate_rows)
_SCATTER_BLOCK = 1 << 16  # counters, or table entries, one scatter step holds


@dataclass(frozen=True)
class PercolationState:
    infected: frozenset[int]
    rounds: int


@dataclass(frozen=True)
class InfectionEstimate:
    estimate: Fraction
    half_width: float
    trials: int
    successes: int


def _neighbour_table(g: Graph) -> np.ndarray:
    """The n x max-degree array whose row v lists v's neighbours in
    increasing order, padded with v itself; built on first use from
    _BYTE_ROWS rows of _arcs at a time and kept on g, as discrepancy's."""
    if "_neighbour_table" not in g.__dict__:
        degrees = np.array(g.degrees, dtype=np.intp)
        width = int(degrees.max(initial=0))
        table = np.repeat(np.arange(g.n), width)
        # arc e (in row order) of vertex u goes to u's row at slot e - first[u]
        shift, arc = np.arange(g.n) * width - (np.cumsum(degrees) - degrees), 0
        for s in range(0, g.n, _BYTE_ROWS):
            u, v = _arcs(g, s, s + _BYTE_ROWS)
            table[shift[s + u] + np.arange(arc, arc + len(u))] = v
            arc += len(u)
        g.__dict__["_neighbour_table"] = table.reshape(g.n, width)
    return g.__dict__["_neighbour_table"]


def _scatter(cnt: np.ndarray, fresh: np.ndarray, table: np.ndarray) -> None:
    """cnt[r, u] += 1 for every neighbour u of every fresh[r, v], through
    v's row of the neighbour table; its padding counts at v, whose count
    is never read again. Each block of rows holds _SCATTER_BLOCK counters
    (or one row) and its fresh entries go a piece of _SCATTER_BLOCK table
    entries (or one entry) at a time, which bounds the bincounts."""
    n, width = table.shape
    step, piece = max(1, _SCATTER_BLOCK // n), max(1, _SCATTER_BLOCK // max(width, 1))
    for a in range(0, len(cnt), step):
        block, at = cnt[a:a + step], np.flatnonzero(fresh[a:a + step])
        for s in range(0, len(at), piece):
            idx = at[s:s + piece]
            v = idx % n
            hits = table[v]
            hits += (idx - v)[:, None]
            np.add(block, np.bincount(hits.ravel(), minlength=block.size).reshape(block.shape),
                   out=block, dtype=np.float32, casting="unsafe")


def _percolate_rows(g: Graph, infected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Synchronous rounds from each row of the bool array infected[T, n]
    until the row is stable: the final rows and each row's round count.
    A round adds only its new infections to the rows' infected-neighbour
    counts, by the cheaper of two updates. The float32 product of the
    fresh columns with the adjacency rows they touch costs T * |cols| * n
    multiply-adds, |cols| the vertices fresh in some row; _scatter reads
    max-degree table entries for each of the K fresh entries and passes
    once over the T * n counts. Timed round by round on a 2-vCPU Xeon VM
    (OpenBLAS), a multiply-add took about 0.02 ns, a scatter entry 3.7 ns
    and a counter 2.7 ns, so one entry or counter is worth 135-185
    multiply-adds: _SCATTER_COST is the power of two below. With it the
    rounds' choices came within 10 % of the faster update of each round
    on the percolate rows of scripts/layer_timings.py, where 64 lost 1.7x
    on G(1000, 1/20) at p = 2/5. It leaves out the product's read of its
    |cols| * n adjacency entries (_rows), each worth about 17 multiply-adds,
    so a batch of few rows multiplies on sparse graphs where scattering
    wins. float32 counts are exact: each is at most a degree, and a degree
    of 2^24 or more would need 2^24 masks or packed rows of 2^24 bits."""
    final, rounds = np.empty_like(infected), np.zeros(len(infected), dtype=np.int64)
    degrees = np.asarray(g.degrees, dtype=np.float32)
    need, width = degrees // 2 + 1, int(degrees.max(initial=0))
    rows, cnt = np.arange(len(infected)), np.zeros(infected.shape, dtype=np.float32)
    inf, fresh = infected.copy(), infected
    while rows.size:
        cols = np.flatnonzero(fresh.any(axis=0))
        if _SCATTER_COST * (width * np.count_nonzero(fresh) + cnt.size) < cnt.size * cols.size:
            _scatter(cnt, fresh, _neighbour_table(g))
        else:
            cnt += np.matmul(fresh[:, cols], _rows(g, cols), dtype=np.float32)
        fresh = (cnt >= need) & ~inf
        live = fresh.any(axis=1)
        if not live.all():  # stable rows are done
            final[rows[~live]] = inf[~live]
            rows, inf, cnt, fresh = rows[live], inf[live], cnt[live], fresh[live]
        rounds[rows] += 1
        inf |= fresh
    return final, rounds


def bootstrap_percolate(g: Graph, initial) -> PercolationState:
    """Run synchronous rounds until no new vertex is infected; at most
    n rounds since each round infects at least one vertex."""
    start = np.zeros((1, g.n), dtype=np.bool_)
    start[0, _as_index(initial, g.n)] = True
    final, rounds = _percolate_rows(g, start)
    return PercolationState(frozenset(np.flatnonzero(final[0]).tolist()), int(rounds[0]))


def is_relatively_half_full_mask(g: Graph, mask: int) -> bool:
    """Nonempty and every member keeps at least half its degree inside."""
    return mask != 0 and is_relatively_full(g, Fraction(1, 2), mask)[0]


def surviving_half_full(g: Graph, initial) -> frozenset[int]:
    """The final uninfected set; when nonempty it is relatively
    half-full, certifying that percolation from initial cannot finish."""
    return g.vertices() - bootstrap_percolate(g, initial).infected


def _initial_rows(n: int, p: Fraction, seed: int, trials: range) -> np.ndarray:
    """Row i is trial trials[i]'s p-random initial set: 64-bit threshold
    draws under the per-trial split seed, one per vertex."""
    rows = np.full((len(trials), n), p == 1)
    if 0 < p < 1:
        for t, row in zip(trials, rows):
            _bernoulli(split_seed(seed, t), p, [row])
    return rows


def sample_initial_mask(n: int, p, seed: int, trial: int) -> int:
    """The trial-th p-random initial infection for the given seed, as a bitmask."""
    return _pack_rows(_initial_rows(n, as_probability(p), seed, range(trial, trial + 1)))[0]


def _trial_batches(g: Graph, p, trials: int, seed: int) -> Iterator[tuple]:
    """Percolate trials p-random starts, _CHUNK at a time, yielding per
    batch its successes and its first failing trial with the surviving
    set (None if every start in it infected everything)."""
    if trials < 1:
        raise PreconditionError(f"trials must be positive, got {trials}")
    p = as_probability(p)
    for start in range(0, trials, _CHUNK):
        batch = range(start, min(start + _CHUNK, trials))
        final, _ = _percolate_rows(g, _initial_rows(g.n, p, seed, batch))
        done = final.all(axis=1)
        i = int(np.argmin(done))
        yield int(done.sum()), None if done[i] else (
            batch[i], frozenset(np.flatnonzero(~final[i]).tolist()))


def _monte_carlo(g: Graph, p, trials: int,
                 seed: int) -> tuple[InfectionEstimate, tuple[int, frozenset[int]] | None]:
    """The estimate over every batch of _trial_batches, and the first
    failing trial with its surviving set (None if none), the only one kept."""
    successes, failure = 0, None
    for done, batch_failure in _trial_batches(g, p, trials, seed):
        successes += done
        failure = failure or batch_failure
    est = Fraction(successes, trials)
    var = float(est) * (1.0 - float(est)) / trials
    return InfectionEstimate(est, 1.96 * math.sqrt(var), trials, successes), failure


def full_infection_probability(g: Graph, p, trials: int = 1000,
                               seed: int = 0) -> InfectionEstimate:
    """Monte Carlo estimate of the probability that a p-random initial
    infection (each vertex independently) infects all of G. Per-trial
    split seeds make the estimate independent of trial order; the
    half-width is the 95% normal approximation."""
    return _monte_carlo(g, p, trials, seed)[0]


def _packed(sel: np.ndarray) -> np.ndarray:
    """Bool rows sel[..., 64] as uint64 words: bit b is entry b."""
    return np.packbits(sel, axis=-1, bitorder="little").view("<u8")[..., 0]


# 64-bit constants over the low patterns b of a set, its vertices 0..5
_LOW, _R = np.arange(64, dtype=np.uint8), np.arange(8, dtype=np.uint8)[:, None]
_IN = _packed(_LOW >> _R[:6] & 1 == 1)  # [v]: v in b, for v < 6
_LC = _packed(np.bitwise_count(_LOW) == _R[:7])  # [c]: |b| = c
_MEETS = _packed(np.bitwise_count(_LOW[:, None] & _LOW)[:, None] >= _R)  # [lo, r]: |b & lo| >= r


def full_infection_probability_exact(g: Graph, p,
                                     cap: int = THETA_CAP_DEFAULT) -> Fraction:
    """Exact full-infection probability: sums p^|I| (1-p)^(n-|I|) over
    initial sets I whose complement contains no nonempty relatively
    half-full subgraph. Bit b of uint64 word w stands for the vertex set
    (w << 6) | b (2^n bits of one word when n < 6). Refuses n > cap, and
    whatever the cap, an n whose 2^n / 2 bytes exceed physical memory."""
    p, n = as_probability(p), g.n
    size = max(1 << n >> 6, 1)  # words
    if n > cap:
        raise PreconditionError(f"exact infection probability needs n <= {cap} (got n={n})")
    # 4 arrays of 8 bytes a word and the need table
    _check_memory(32 * size + 8 * n * max(n - 5, 1), f"exact infection probability at n={n}")
    # need[v, h]: the low patterns b that hold ceil(d(v)/2) neighbours of
    # v with h = |w & adj[v] >> 6| more in w, or (v < 6) lack v
    need = _MEETS[np.array([a & 63 for a in g.adj], np.uint8)[:, None], np.clip(
        (np.array(g.degrees, np.int64)[:, None] + 1 >> 1) - np.arange(max(n - 5, 1)), 0, 7)]
    need[:6] |= ~_IN[:n, None]
    words, blocked = np.arange(size, dtype=np.uint64), np.full(size, ~np.uint64(0))
    tmp, scratch = np.empty_like(words), np.empty_like(words)
    # first blocked: the set is relatively half-full. Each v clears the sets
    # that hold it and miss its need: in every word, or the half with v - 6
    for v, a in enumerate(g.adj):
        if v < 6:
            held, have = blocked, words
        else:
            held = blocked.reshape(-1, 2, 1 << v - 6)[:, 1]
            have = words.reshape(-1, 2, 1 << v - 6)[:, 1]
        out = tmp[:held.size].reshape(held.shape)
        idx = scratch.view(np.int64)[:held.size].reshape(held.shape)
        np.bitwise_and(have, a >> 6, out=out)
        np.bitwise_count(out, out=idx)
        held &= np.take(need[v], idx, out=out, mode="clip")
    blocked[0] &= ~np.uint64(1)  # the empty set
    # then its upward closure, a subset-sum transform over OR: blocked iff
    # the set contains a nonempty relatively half-full set. Bits past 2^n
    # (n < 6) stay blocked, as no vertex clears their part above bit n - 1
    for v in range(min(n, 6)):
        np.bitwise_and(blocked, ~_IN[v], out=tmp)
        blocked |= np.left_shift(tmp, np.uint64(1 << v), out=tmp)
    for v in range(6, n):
        pairs = blocked.reshape(-1, 2, 1 << v - 6)
        pairs[:, 1] |= pairs[:, 0]
    # count the free sets by size |w| + |b|, class |b| = c at a time;
    # the float64 sums are integers below 2^53, so exact
    free = np.invert(blocked, out=blocked)
    high = words.view(np.int64)
    np.bitwise_count(words, out=high)
    counts = np.zeros(n + 8, np.int64)
    for c in range(7):
        np.bitwise_and(free, _LC[c], out=tmp)
        got = np.bincount(high, np.bitwise_count(tmp, out=scratch.view(np.float64)))
        counts[c:c + len(got)] += got.astype(np.int64)
    num, other, den = p.numerator, p.denominator - p.numerator, p.denominator
    return Fraction(sum(cnt * num ** (n - k) * other ** k
                        for k, cnt in enumerate(counts[:n + 1].tolist())), den ** n)
