"""Majority bootstrap percolation and its correspondence with
relatively half-full subgraphs.

A vertex becomes infected once strictly more than half of its
neighbors are infected (degree-0 vertices never catch it). The fixed
points are exact: an initial set infects everything if and only if no
nonempty relatively half-full subgraph avoids it, and a nonempty final
uninfected set is itself relatively half-full. One engine closes a
batch of initial sets at once: one set for bootstrap_percolate, chunks
of Monte Carlo trials for full_infection_probability, whose pass also
yields the witness of `fullsub percolate --witness`. The exact
probability enumerates instead: numpy popcounts mark the relatively
half-full sets among all 2^n subsets, and a subset-sum transform marks
every subset that contains one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .finders import is_relatively_full
from .graph import Graph, PreconditionError, _as_index, _check_memory, _pack_rows, as_probability
from .rng import _bernoulli, split_seed

THETA_CAP_DEFAULT = 16
_CHUNK = 256  # rows percolated together, which bounds memory at any trial count


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


def _percolate_rows(g: Graph, infected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Synchronous rounds from each row of the bool array infected[T, n]
    until the row is stable: the final rows and each row's round count.
    A round adds only its new infections to the rows' infected-neighbour
    counts, through the adjacency rows they touch. float32 counts are
    exact: each is at most a degree, and a degree of 2^24 or more would
    need an unallocatable n^2-byte Graph.matrix."""
    final, rounds = np.empty_like(infected), np.zeros(len(infected), dtype=np.int64)
    need = np.asarray(g.degrees, dtype=np.float32) // 2 + 1
    rows, cnt = np.arange(len(infected)), np.zeros(infected.shape, dtype=np.float32)
    inf, fresh = infected.copy(), infected
    while rows.size:
        cols = np.flatnonzero(fresh.any(axis=0))
        cnt += np.matmul(fresh[:, cols], g.matrix[cols], dtype=np.float32)
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


def full_infection_probability_exact(g: Graph, p,
                                     cap: int = THETA_CAP_DEFAULT) -> Fraction:
    """Exact full-infection probability: sums p^|I| (1-p)^(n-|I|) over
    initial sets I whose complement contains no nonempty relatively
    half-full subgraph. Enumerates all 2^n vertex subsets; refuses
    n > cap, and whatever the cap, an n whose 2^n-entry int64 array
    exceeds physical memory."""
    p = as_probability(p)
    n = g.n
    if n > cap:
        raise PreconditionError(
            f"exact infection probability needs n <= {cap} (got n={g.n})")
    _check_memory(8 << n, f"exact infection probability at n={n}")
    if n == 0:
        return Fraction(1)
    masks = np.arange(1 << n, dtype=np.int64)
    # first blocked[mask]: mask is nonempty and relatively half-full; row
    # [:, 1] of the (-1, 2, 2^v) reshape holds the masks containing v
    blocked = np.ones(1 << n, dtype=np.bool_)
    blocked[0] = False
    for v, row in enumerate(g.adj):
        inside = np.bitwise_count(masks.reshape(-1, 2, 1 << v)[:, 1] & row)
        blocked.reshape(-1, 2, 1 << v)[:, 1] &= inside >= (g.degrees[v] + 1) // 2
    # then its upward closure, a subset-sum transform over OR: blocked[mask]
    # iff mask contains a nonempty relatively half-full set
    for v in range(n):
        pairs = blocked.reshape(-1, 2, 1 << v)
        pairs[:, 1] |= pairs[:, 0]
    counts = np.bincount(np.bitwise_count(masks)[~blocked], minlength=n + 1).tolist()
    q = 1 - p
    theta = Fraction(0)
    for k, cnt in enumerate(counts):
        if cnt:
            theta += cnt * p ** (n - k) * q ** k
    return theta
