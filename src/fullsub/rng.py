"""Deterministic seeding utilities.

Every randomized routine takes an integer seed and derives independent
substreams with split_seed, so results are reproducible across runs,
platforms, and thread counts. Bulk sampling uses numpy's counter-based
Philox generator, which produces identical streams regardless of how
the draws are batched: _bernoulli thresholds one generator's stream a
block of rows at a time, so filling G(n, p)'s n x n bool matrix holds
its n^2 bytes plus one block of draws, not 8 bytes per pair.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1
_BLOCK = 1 << 18  # uint64 draws per block: 2 MB


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_seed(seed: int, index: int) -> int:
    """Derive the index-th child seed of seed; children are independent
    for distinct (seed, index) pairs."""
    return _splitmix64((seed & _MASK64) ^ _splitmix64(index & _MASK64))


def _bit_generator(seed: int) -> np.random.Philox:
    """The Philox bit generator that every stream of seed draws from."""
    return np.random.Philox(key=seed & _MASK64)


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(_bit_generator(seed))


def uniform_u64(seed: int, count: int) -> np.ndarray:
    """count iid uniform uint64 draws from the Philox stream of seed."""
    return _bit_generator(seed).random_raw(count)


def _bernoulli(seed: int, p: Fraction, rows: list[np.ndarray]) -> None:
    """Fill the 1-D bool arrays rows, in order, with independent bools,
    each True with probability p < 1 up to a bias under 2^-64 (none when
    p's denominator is a power of two): draw k of the Philox stream of
    seed, counted across the rows, is kept iff it falls below
    floor(p * 2^64). The draws come a block of whole rows at a time, at
    most _BLOCK of them unless one row is longer, from a single bit
    generator, so the bits are those of one uniform_u64 call."""
    bitgen = _bit_generator(seed)
    threshold = np.uint64((p.numerator << 64) // p.denominator)
    i = 0
    while i < len(rows):
        j, size = i + 1, len(rows[i])
        while j < len(rows) and size + len(rows[j]) <= _BLOCK:
            size += len(rows[j])
            j += 1
        keep = bitgen.random_raw(size) < threshold
        for row in rows[i:j]:
            row[...] = keep[:len(row)]
            keep = keep[len(row):]
        i = j
