"""Majority bootstrap percolation and its correspondence with
relatively half-full subgraphs.

A vertex becomes infected once strictly more than half of its
neighbors are infected (degree-0 vertices never catch it). The fixed
points are exact: an initial set infects everything if and only if no
nonempty relatively half-full subgraph avoids it, and a nonempty final
uninfected set is itself relatively half-full. full_infection_*
computes the probability that a p-random initial set infects all of G,
by Monte Carlo or exactly: numpy popcounts mark the relatively half-full
sets among all 2^n subsets, and a subset-sum transform marks every
subset that contains one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .finders import is_relatively_full
from .graph import (Graph, PreconditionError, _pack_rows, as_mask, as_probability, from_mask,
                    iter_bits, to_mask)
from .rng import _bernoulli, split_seed

THETA_CAP_DEFAULT = 16


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


def bootstrap_percolate(g: Graph, initial) -> PercolationState:
    """Run synchronous rounds until no new vertex is infected; at most
    n rounds since each round infects at least one vertex."""
    infected = as_mask(initial, g.n)
    full = (1 << g.n) - 1
    rounds = 0
    while True:
        add = 0
        for v in iter_bits(full & ~infected):
            if 2 * (g.adj[v] & infected).bit_count() > g.degrees[v]:
                add |= 1 << v
        if not add:
            break
        infected |= add
        rounds += 1
    return PercolationState(from_mask(infected), rounds)


def is_relatively_half_full_mask(g: Graph, mask: int) -> bool:
    """Nonempty and every member keeps at least half its degree inside."""
    return mask != 0 and is_relatively_full(g, Fraction(1, 2), mask)[0]


def surviving_half_full(g: Graph, initial) -> frozenset[int]:
    """The final uninfected set; when nonempty it is relatively
    half-full, certifying that percolation from initial cannot finish."""
    state = bootstrap_percolate(g, initial)
    mask = to_mask(state.infected, g.n)
    return from_mask(((1 << g.n) - 1) ^ mask)


def sample_initial_mask(n: int, p, seed: int, trial: int) -> int:
    """The trial-th p-random initial infection for the given seed, as
    a bitmask; each vertex independently with probability p via 64-bit
    threshold draws under a per-trial split seed."""
    p = as_probability(p)
    if n == 0 or p == 0:
        return 0
    if p == 1:
        return (1 << n) - 1
    return _pack_rows(_bernoulli(split_seed(seed, trial), n, p)[None])[0]


def full_infection_probability(g: Graph, p, trials: int = 1000,
                               seed: int = 0) -> InfectionEstimate:
    """Monte Carlo estimate of the probability that a p-random initial
    infection (each vertex independently) infects all of G. Per-trial
    split seeds make the estimate independent of trial order; the
    half-width is the 95% normal approximation."""
    if trials < 1:
        raise PreconditionError(f"trials must be positive, got {trials}")
    n = g.n
    successes = 0
    for t in range(trials):
        initial = sample_initial_mask(n, p, seed, t)
        state = bootstrap_percolate(g, initial)
        if len(state.infected) == n:
            successes += 1
    est = Fraction(successes, trials)
    var = float(est) * (1.0 - float(est)) / trials
    return InfectionEstimate(est, 1.96 * math.sqrt(var), trials, successes)


def full_infection_probability_exact(g: Graph, p,
                                     cap: int = THETA_CAP_DEFAULT) -> Fraction:
    """Exact full-infection probability: sums p^|I| (1-p)^(n-|I|) over
    initial sets I whose complement contains no nonempty relatively
    half-full subgraph. Enumerates all 2^n vertex subsets; refuses
    n > cap."""
    p = as_probability(p)
    n = g.n
    if n > cap:
        raise PreconditionError(
            f"exact infection probability needs n <= {cap} (got n={g.n})")
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
