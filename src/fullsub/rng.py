"""Deterministic seeding utilities.

Every randomized routine takes an integer seed and derives independent
substreams with split_seed, so results are reproducible across runs,
platforms, and thread counts. Bulk sampling uses numpy's counter-based
Philox generator, which produces identical streams regardless of how
the draws are batched.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1


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


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def uniform_u64(seed: int, count: int) -> np.ndarray:
    """count iid uniform uint64 draws from the Philox stream of seed."""
    bitgen = np.random.Philox(key=seed & _MASK64)
    return bitgen.random_raw(count)


def _bernoulli(seed: int, count: int, p: Fraction) -> np.ndarray:
    """count independent bools, each True with probability p < 1 up to a
    bias under 2^-64 (none when p's denominator is a power of two):
    draw k of the Philox stream of seed is kept iff it falls below
    floor(p * 2^64)."""
    return uniform_u64(seed, count) < np.uint64((p.numerator << 64) // p.denominator)
