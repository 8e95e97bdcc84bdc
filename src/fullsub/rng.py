"""Deterministic seeding utilities.

Every randomized routine takes an integer seed and derives independent
substreams with split_seed, so results are reproducible across runs,
platforms, and thread counts. Bulk sampling uses numpy's counter-based
Philox generator, which produces identical streams regardless of how
the draws are batched. _row_blocks (a block of whole rows at a time,
which _bernoulli thresholds) and _kept (a block of _BLOCK draws, ending
anywhere in a row) draw from one bit generator per seed and keep a draw
below one _threshold, so each holds one block of draws, not 8 bytes per
pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

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


def _threshold(p: Fraction) -> np.uint64:
    """floor(p * 2^64), which a draw falls below with probability p, up to a
    bias under 2^-64 (none when p's denominator is a power of two)."""
    return np.uint64((p.numerator << 64) // p.denominator)


def _row_blocks(seed: int, lengths) -> Iterator[tuple[int, int, np.ndarray]]:
    """(i, j, raw) for consecutive blocks of whole rows i..j-1 of the
    given lengths: raw holds their draws, in order, from the Philox
    stream of seed, at most _BLOCK of them unless one row is longer,
    from a single bit generator, so the bits are those of one
    uniform_u64 call. A caller that deletes raw before asking for the
    next block holds one block at a time."""
    bitgen = _bit_generator(seed)
    i = 0
    while i < len(lengths):
        j, size = i + 1, lengths[i]
        while j < len(lengths) and size + lengths[j] <= _BLOCK:
            size += lengths[j]
            j += 1
        yield i, j, bitgen.random_raw(size)
        i = j


def _bernoulli(seed: int, p: Fraction, rows: list[np.ndarray]) -> None:
    """Fill the 1-D bool arrays rows, in order, with independent bools,
    each True with probability p < 1: draw k of the Philox stream of
    seed, counted across the rows, is kept iff it falls below
    _threshold(p). The draws come a block of whole rows at a time
    (_row_blocks); each row is its slice of the block compared with the
    threshold in place."""
    threshold = _threshold(p)
    for i, j, raw in _row_blocks(seed, [len(row) for row in rows]):
        a = 0
        for row in rows[i:j]:
            np.less(raw[a:a + len(row)], threshold, out=row)
            a += len(row)
        del raw  # before the next block's draws: one block is held at a time


def _kept(seed: int, p: Fraction, count: int) -> Iterator[np.ndarray]:
    """The increasing indices k < count of the True entries _bernoulli
    would write across rows of count bools in all, yielded a block of
    _BLOCK draws at a time, each thresholded in one call."""
    bitgen, threshold = _bit_generator(seed), _threshold(p)
    for start in range(0, count, _BLOCK):
        yield np.flatnonzero(bitgen.random_raw(min(_BLOCK, count - start)) < threshold) + start
