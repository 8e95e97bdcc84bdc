"""Immutable simple graphs over vertices 0..n-1 with exact rational density.

A Graph holds the form it was built from and builds the other on first
use: Graph.adj, one Python int bitmask per vertex, or Graph.packed, the
dense adjacency at one bit per pair: n read-only numpy rows of
8 ceil(n/64) bytes, bit v of row u (little-endian, as the masks'
to_bytes) set for each edge uv, padding bits zero. Graphs built from
edges or masks hold masks; a generated dense graph, an induced
subgraph, a complement and a graph read from canonical text
(_read_canonical) no smaller than its n x n matrix hold packed rows,
with degrees their popcounts (_popcounts); one read from sparser text
holds masks. Graph.matrix, the n x n bool view, is unpacked on first
use for callers outside the package; nothing inside reads it. NumPy
integer ids and masks are taken as Python ints (operator.index), so no
shift wraps at 64 bits. Inside the package a vertex set is a sorted
index array (_as_index). This module alone converts between the forms
and asks which one a graph holds: the others read unpacked rows (_rows),
add one row to a count table (_add_row), and read one bit (_adjacent),
arcs (_arcs), counts into a set (_counts) and in-set degrees
(_degrees_within) through it, from the packed rows
when they are there, else from the masks alone; _set_bits alone decodes
the nonzero 64-bit words of either. Producers write packed rows a band
of _BYTE_ROWS bool rows at a time (_pack_band) or a pair at a time
(_set_pairs), and an upper triangle is mirrored 8 x 8 bits at a time
(_mirror). Before any dense form or exact table is allocated,
_check_memory refuses one larger than physical memory or the cgroup's
memory limit; dense forms are refused at the n^2 bytes of the matrix
(_check_dense_size). Masks are copied out of packed rows _BYTE_ROWS
rows at a time (_masks), so no more than one block's bytes sit beside
them. Graphs are frozen after construction and every function in this
package treats them as shared read-only values; all density and degree
arithmetic is exact (integers and Fractions).
"""

from __future__ import annotations

import functools
import operator
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import BinaryIO, Iterable, Iterator

import numpy as np


class PreconditionError(ValueError):
    """An input lies outside the range an operation supports."""


class VerificationError(RuntimeError):
    """A result failed its own certification check (an implementation bug)."""


class EdgeListError(ValueError):
    """Malformed edge-list text."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def as_probability(p, name: str = "p") -> Fraction:
    """p as an exact Fraction, refusing values outside [0, 1]."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise PreconditionError(f"{name} must lie in [0, 1], got {p}")
    return p


_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"


@functools.cache
def _cgroup_limit() -> int | None:
    """The limit in the cgroup v2 file memory.max, read (never written)
    once per process; None when the file is missing or reads "max"."""
    try:
        with open(_CGROUP_MEMORY_MAX, encoding="ascii") as fh:
            limit = fh.read().strip()
    except OSError:
        return None
    return None if limit == "max" else int(limit)


def _check_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating it, a table of nbytes bytes that exceeds
    the machine's physical memory or the cgroup's limit (_cgroup_limit),
    whichever is smaller; what names the table."""
    memory, where = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"
    limit = _cgroup_limit()
    if limit is not None and limit < memory:
        memory, where = limit, "cgroup memory limit"
    if nbytes > memory:
        raise PreconditionError(
            f"{what} needs {nbytes} bytes, more than the {memory} bytes of {where}")


def _check_dense_size(n: int) -> None:
    """Refuse, before allocating them, the dense forms of an n-vertex
    graph (Graph.packed, and the n x n bool Graph.matrix built from it)
    when n^2 bytes, the matrix's, exceed the memory _check_memory allows."""
    _check_memory(n * n, f"a dense {n} x {n} matrix")


_BYTE_ROWS = 128  # rows unpacked, packed, banded or popcounted at once
_WRITE_ROWS = 32  # rows written as one piece of edge-list text, bounding its temporaries


def to_mask(vertices: Iterable[int], n: int) -> int:
    """Pack vertex ids into a bitmask, rejecting ids outside 0..n-1."""
    mask = 0
    for v in map(operator.index, vertices):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range 0..{n - 1}")
        mask |= 1 << v
    return mask


def _as_index(vertices, n: int) -> np.ndarray:
    """A vertex set as its sorted index array: an int is a bitmask, any
    other iterable of ids is taken as a set; ids outside 0..n-1, and a
    nonempty set of ids that are neither integers nor bools, are refused."""
    if isinstance(vertices, int):
        if vertices >> n:
            raise ValueError(f"mask {vertices:#x} mentions vertices outside 0..{n - 1}")
        packed = np.frombuffer(vertices.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(packed, bitorder="little").nonzero()[0]
    ids = np.asarray(vertices if isinstance(vertices, np.ndarray) else list(vertices))
    if ids.size and ids.dtype.kind not in "biu":
        raise ValueError(f"vertex ids must be integers in 0..{n - 1}, got {ids.dtype} values")
    ids = ids.astype(np.intp, copy=False)
    for v in (ids.min(), ids.max()) if ids.size else ():
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range 0..{n - 1}")
    inside = np.zeros(n, dtype=np.bool_)
    inside[ids] = True
    return np.flatnonzero(inside)


def _masks(packed: np.ndarray) -> list[int]:
    """The bitmask of each row of a 2-D uint8 array of little-endian
    bytes, copied out _BYTE_ROWS rows at a time."""
    width = packed.shape[1]
    if not width:
        return [0] * len(packed)
    masks: list[int] = []
    for s in range(0, len(packed), _BYTE_ROWS):
        buf = packed[s:s + _BYTE_ROWS].tobytes()
        masks += [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]
    return masks


def _pack_rows(rows: np.ndarray) -> list[int]:
    """The bitmask of each row of a 2-D bool array: bit j of mask i is
    rows[i, j]. Pass vec[None] to pack a single vector. Rows are packed
    _BYTE_ROWS at a time, so the packed bytes and their copy stay the
    size of a block, not of the whole array."""
    masks: list[int] = []
    for s in range(0, len(rows), _BYTE_ROWS):
        masks += _masks(np.packbits(rows[s:s + _BYTE_ROWS], axis=1, bitorder="little"))
    return masks


_TEXT_BLOCK = 1 << 16  # characters of edge-list text, or bytes of a file, handled at a time


def _row_bytes(n: int) -> int:
    """The bytes of one packed row on n vertices: whole 64-bit words."""
    return -(-n // 64) * 8


def _zero_rows(n: int) -> np.ndarray:
    """Zeroed packed rows on n vertices, with up to 7 more past them, so
    that _mirror sees whole groups of 8 rows; hand on the first n."""
    return np.zeros((-(-n // 8) * 8, _row_bytes(n)), dtype=np.uint8)


def _pack_band(rows: np.ndarray, s: int, band: np.ndarray) -> None:
    """OR the bool rows band, bit v of band row i for vertex v, into the
    packed rows s, s + 1, ... of rows."""
    rows[s:s + len(band), :(band.shape[1] + 7) // 8] |= np.packbits(band, axis=1, bitorder="little")


def _set_pairs(rows: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Set bit v[i] of packed row u[i] for each i, pair by pair, so that
    pairs sharing a byte all land."""
    np.bitwise_or.at(rows.reshape(-1), u * rows.shape[1] + (v >> 3),
                     np.left_shift(1, (v & 7).astype(np.uint8)))


# the 8 x 8 bit transpose of a 64-bit word, bit 8r + c to bit 8c + r, in
# three masked shift-XOR stages (Warren, Hacker's Delight, section 7-3)
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
_STRIPE_WORDS = 1 << 13  # 8 x 8 bit blocks (64 KB) a stripe of _mirror transposes at most


def _mirror(rows: np.ndarray) -> None:
    """OR into packed rows whose set bits lie above the diagonal (bit v
    of row u only for u < v) their transpose, so that they turn
    symmetric; len(rows) is a multiple of 8 (_zero_rows). Column byte j
    of row group i (rows 8i..8i+7) is an 8 x 8 bit block, read as one
    little-endian word whose byte r is row 8i + r; transposed
    (_TRANSPOSE8), it is column byte i of row group j. Column bytes go a
    stripe at a time, groups i up to the stripe's last column byte: a
    stripe gathers its own column bytes of those groups before it
    writes, and writes only its own groups below its last column byte,
    which no other stripe gathers, so every stripe reads original bits."""
    groups = len(rows) // 8
    blocks = rows.reshape(groups, 8, rows.shape[1])
    width = max(1, _STRIPE_WORDS // max(groups, 1))
    for c in range(0, groups, width):
        e = min(c + width, groups)
        x = np.ascontiguousarray(blocks[:e, :, c:e].transpose(0, 2, 1)).view("<u8")[..., 0]
        for shift, mask in _TRANSPOSE8:
            t = ((x >> shift) ^ x) & mask
            x ^= t ^ (t << shift)
        blocks[c:e, :, :e] |= x.view(np.uint8).reshape(e, e - c, 8).transpose(1, 2, 0)


def _unpack_rows(masks: list[int], n: int) -> np.ndarray:
    """The 2-D bool array whose row i holds bits 0..n-1 of masks[i]; the
    inverse of _pack_rows."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks),
                           dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(np.bool_)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_mask(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


def lex_less(a: int, b: int) -> bool:
    """Order vertex sets (as bitmasks) by their sorted tuple of elements.

    {0,2} < {0,3} < {1}, and a set precedes every proper superset of
    itself. Used for deterministic witness tie-breaking.
    """
    if a == b:
        return False
    diff = a ^ b
    low = diff & -diff
    if a & low:
        # a owns the smallest differing element; a is smaller unless b
        # is a strict prefix of a (no elements at or above the split).
        return (b & ~(low - 1)) != 0
    return (a & ~(low - 1)) == 0


@dataclass(frozen=True, eq=False, repr=False)
class Graph:
    """A labelled simple graph. Build via from_edges or from_masks.
    Graphs on the same edges are equal whichever form they hold."""

    n: int
    degrees: tuple[int, ...]
    edge_count: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from unordered vertex pairs. Self-loops are rejected,
        duplicate pairs collapse to a single edge."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        _check_memory(8 * n, f"{n} adjacency masks")
        adj = [0] * n
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._from_adj(n, adj)

    @classmethod
    def from_masks(cls, n: int, adj: Iterable[int]) -> "Graph":
        """Build from per-vertex neighbour bitmasks, checking that there
        is one mask per vertex, every bit names a vertex, no vertex is
        its own neighbour and the masks are symmetric. Well-formed masks
        (from_edges, the line parser, clique-isolated) go to _from_adj."""
        adj = list(map(operator.index, adj))
        if len(adj) != n:
            raise ValueError("need one adjacency mask per vertex")
        for v, m in enumerate(adj):
            if m >> n:
                raise ValueError(f"adjacency mask of {v} mentions vertices >= {n}")
            if (m >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, m in enumerate(adj):
            for u in iter_bits(m):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return cls._from_adj(n, adj)

    @classmethod
    def _from_adj(cls, n: int, adj: list[int]) -> "Graph":
        """Build from masks already known to be well formed (not checked)."""
        degrees = tuple(m.bit_count() for m in adj)
        total = sum(degrees)
        assert total % 2 == 0
        g = cls(n, degrees, total // 2)
        g.__dict__["adj"] = tuple(adj)
        return g

    @classmethod
    def _from_packed(cls, rows: np.ndarray) -> "Graph":
        """Build from n packed rows (Graph.packed's layout), symmetric,
        with a zero diagonal and zero padding (not checked). The rows are
        taken over, not copied: they become the graph's read-only
        Graph.packed, with degrees their popcounts, and no mask is packed."""
        degrees = tuple(_popcounts(rows).tolist())
        rows.setflags(write=False)
        g = cls(len(rows), degrees, sum(degrees) // 2)
        g.__dict__["packed"] = rows
        return g

    @classmethod
    def _from_matrix(cls, mat: np.ndarray) -> "Graph":
        """Build from a symmetric bool matrix with a zero diagonal (not
        checked), packed _BYTE_ROWS rows at a time (_from_packed); the
        matrix is not kept."""
        rows = np.zeros((len(mat), _row_bytes(len(mat))), dtype=np.uint8)
        for s in range(0, len(mat), _BYTE_ROWS):
            _pack_band(rows, s, mat[s:s + _BYTE_ROWS])
        return cls._from_packed(rows)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """One neighbour bitmask per vertex (bit u of adj[v]: edge uv);
        a graph built from packed rows copies them out on first use and
        caches them."""
        return tuple(_masks(self.packed))

    @cached_property
    def packed(self) -> np.ndarray:
        """The dense adjacency at one bit per pair: n rows of
        8 ceil(n/64) bytes, bit v of row u (little-endian, as the masks'
        to_bytes) set for each edge uv, padding bits zero. Read-only;
        a graph built from masks packs them on first use and caches
        the rows, after _check_dense_size."""
        _check_dense_size(self.n)
        width = _row_bytes(self.n)
        rows = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in self.adj),
                             dtype=np.uint8)
        return rows.reshape(self.n, width)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense n x n bool adjacency, unpacked from the form the graph
        holds on first use and cached; read-only, since the graph it
        mirrors is immutable. Nothing in this package reads it."""
        _check_dense_size(self.n)
        mat = _rows(self, slice(None))
        mat.setflags(write=False)
        return mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return ((self.n, self.degrees) == (other.n, other.degrees)
                and all(np.array_equal(_rows(self, b), _rows(other, b)) for b in
                        (slice(s, s + _BYTE_ROWS) for s in range(0, self.n, _BYTE_ROWS))))

    def __hash__(self) -> int:
        return hash((self.n, self.edge_count, self.degrees))

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            while m:
                low = m & -m
                yield (u, u + low.bit_length())
                m ^= low

    def vertices(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def density(g: Graph) -> Fraction:
    """Edge density e(G) / C(n,2); graphs with n <= 1 have density 0."""
    if g.n <= 1:
        return Fraction(0)
    return Fraction(2 * g.edge_count, g.n * (g.n - 1))


def _popcounts(rows: np.ndarray, at: np.ndarray | None = None,
               words: np.ndarray | None = None) -> np.ndarray:
    """The set bits of each packed row (each row of the index array at;
    None: every row), after an AND with the row of 64-bit words given,
    as int64: _BYTE_ROWS rows' popcounts at a time."""
    rows = rows.view("<u8")
    total = np.empty(len(rows) if at is None else len(at), dtype=np.int64)
    for s in range(0, len(total), _BYTE_ROWS):
        block = rows[s:s + _BYTE_ROWS] if at is None else rows[at[s:s + _BYTE_ROWS]]
        if words is not None:
            block = block & words
        np.bitwise_count(block).sum(axis=1, dtype=np.int64, out=total[s:s + _BYTE_ROWS])
    return total


def _counts(g: Graph, members: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """|N(v) & S| for each vertex v (each v of the index array at, if
    given), S the index array members: popcounts of Graph.packed's rows
    ANDed with S's words, as int64."""
    inside = np.zeros(8 * _row_bytes(g.n), dtype=np.bool_)
    inside[members] = True
    return _popcounts(g.packed, at, np.packbits(inside, bitorder="little").view("<u8"))


def _degrees_within(g: Graph, vertices) -> tuple[np.ndarray, np.ndarray]:
    """S as a sorted index array (_as_index) and d_S(v) for each member:
    popcounts of S's rows (_counts) when Graph.packed is there, else the
    mask walk, on S's own mask if given one, never packing the rows."""
    idx = _as_index(vertices, g.n)
    if "packed" in g.__dict__:
        return idx, _counts(g, idx, idx)
    mask, adj = vertices, g.adj
    if not isinstance(mask, int):
        mask = _pack_rows(np.bincount(idx, minlength=g.n)[None] > 0)[0]
    return idx, np.array([(adj[v] & mask).bit_count() for v in idx.tolist()], dtype=np.int64)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the relabelling map.

    Returns (h, labels) where labels[i] is the original id of vertex i
    of h; labels are sorted ascending. h holds packed rows alone, packed
    from g's rows at the labels _BYTE_ROWS at a time.
    """
    idx = _as_index(vertices, g.n)
    rows = np.zeros((len(idx), _row_bytes(len(idx))), dtype=np.uint8)
    for s in range(0, len(idx), _BYTE_ROWS):
        _pack_band(rows, s, _rows(g, idx[s:s + _BYTE_ROWS]).take(idx, axis=1))
    return Graph._from_packed(rows), tuple(idx.tolist())


def complement(g: Graph) -> Graph:
    """The complement, holding packed rows alone: Graph.packed inverted,
    the padding bits and the diagonal cleared, refused as any dense form is."""
    n = g.n
    out = np.invert(g.packed)
    words = out.view("<u8")
    if n % 64:  # the padding: the last word's bits from n % 64 on
        words[:, -1] &= np.uint64((1 << n % 64) - 1)
    v = np.arange(n)
    words[v, v >> 6] ^= np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))
    return Graph._from_packed(out)


def _rows(g: Graph, rows: slice | np.ndarray) -> np.ndarray:
    """Those rows (a slice or an index array) as bool rows of n entries,
    unpacked from Graph.packed, or else from the masks alone."""
    if "packed" in g.__dict__:
        return np.unpackbits(g.packed[rows], axis=1, count=g.n, bitorder="little").view(np.bool_)
    masks = g.adj[rows] if isinstance(rows, slice) else [g.adj[v] for v in rows.tolist()]
    return _unpack_rows(masks, g.n)


@functools.lru_cache(maxsize=64)
def _bit_table(scale: int, dtype: np.dtype) -> np.ndarray:
    """Each byte's 8 bits, low first, times scale, in dtype: a packed row
    looked up in it comes out scaled and at the width of the array it is
    added to, so adding it casts nothing."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    table = bits.astype(dtype) * dtype.type(scale)
    table.setflags(write=False)
    return table


def _add_row(g: Graph, v: int, out: np.ndarray, scale: int) -> None:
    """out += scale * row v of the adjacency, for out of n entries per
    row (one row, or a stack of them, each moved alike), through
    Graph.packed's bytes looked up in _bit_table."""
    out += _bit_table(scale, out.dtype).take(g.packed[v], axis=0).ravel()[:g.n]


def _adjacent(g: Graph, u: int, v: int) -> int:
    """1 if uv is an edge, else 0: one bit of Graph.packed."""
    return int(g.packed[u, v >> 3]) >> (v & 7) & 1


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, b) for each set bit b of each row i of a 2-D array of
    little-endian 64-bit words, in order, from its nonzero words."""
    at = np.flatnonzero(words)
    bits = np.flatnonzero(np.unpackbits(words.reshape(-1)[at].view(np.uint8), bitorder="little"))
    return np.divmod(64 * at[bits >> 6] + (bits & 63), 64 * words.shape[1])


def _mask_words(masks: list[int]) -> np.ndarray:
    """The masks as rows of little-endian 64-bit words, one more word
    than the widest needs."""
    width = max(masks).bit_length() // 64 + 1
    words = np.frombuffer(b"".join(m.to_bytes(8 * width, "little") for m in masks), "<u8")
    return words.reshape(len(masks), width)


def _arcs(g: Graph, s: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(u - s, v) for each edge uv, s <= u < stop, in order, from the
    words of the form g holds (_set_bits)."""
    if "packed" in g.__dict__:
        return _set_bits(g.packed[s:stop].view("<u8"))
    return _set_bits(_mask_words(g.adj[s:stop]))


def _edge_text(g: Graph) -> Iterator[bytes]:
    """write_edge_list's text as ASCII pieces: the header, then one piece
    per block of rows with an edge, gathered from name slots "u " and
    "v\\n" NUL-padded to one more byte than n - 1 has digits. A block's
    edges (u, v), u < v, come from the upper triangle of its rows unpacked
    from Graph.packed (_rows), or else from the set bits of the masks shifted past the diagonal (_set_bits)."""
    yield b"%d %d\n" % (g.n, g.edge_count)
    names = np.arange(g.n).astype(f"S{len(str(g.n - 1))}")
    first, second = np.strings.add(names, b" "), np.strings.add(names, b"\n")
    for s in range(0, g.n, _WRITE_ROWS):  # u and v count from s
        if "packed" in g.__dict__:
            block = _rows(g, slice(s, s + _WRITE_ROWS))[:, s:]
            u, v = np.divmod(np.flatnonzero(np.triu(block, 1)), g.n - s)
        else:
            u, v = _set_bits(_mask_words([m >> k for k, m in
                                          enumerate(g.adj[s:s + _WRITE_ROWS], start=s + 1)]))
            v += u + 1
        if len(u):
            pairs = np.stack((first[s:].take(u), second[s:].take(v)), axis=1)
            yield pairs.tobytes().translate(None, b"\0")


def write_edge_list(g: Graph) -> str:
    """Canonical text form: header "n m", then one "u v" line per edge
    with u < v, edges sorted lexicographically (joined from _edge_text)."""
    return b"".join(_edge_text(g)).decode("ascii")


def _blocks(text: str, start: int = 0, block: int = _TEXT_BLOCK) -> Iterator[str]:
    """text[start:] in consecutive slices of about block characters.
    Slices end just after a '\\n', or after a '\\r' when no '\\n'
    follows, so no slice splits a line or a "\\r\\n"."""
    size = len(text)
    while start < size:
        end = text.find("\n", start + block)
        if end < 0:
            end = text.find("\r", start + block)
        end = size if end < 0 else end + 1
        yield text[start:end]
        start = end


# The canonical form: a header "n m\n", then lines "u v\n", every token
# 1-18 ASCII digits (so it fits in int64). _DIGITS[r] keeps the low
# nibbles of the last r bytes of a little-endian 4-byte word: the values
# of the r digits that end there, as '0' is 0x30.
_CANONICAL_HEADER = re.compile(rb"([0-9]{1,18}) ([0-9]{1,18})\n")
_DIGITS = np.array([0x0F0F0F0F & -1 << 32 - 8 * r for r in range(5)], dtype="<u4")


def _read_canonical(source: str | BinaryIO, block: int = _TEXT_BLOCK) -> Graph | None:
    """The graph of a canonical text, a str cut by _blocks or a binary file
    read in blocks that run on to the end of a line, decoded a block at a
    time by one loop of vectorized passes, or None when any check fails,
    so that the line parser names the fault. One scan finds the
    separators, every byte below '0': they must alternate ' ' and '\\n' to
    the block's final '\\n', and no byte may lie above '9'. Each token is
    read 4 digits at a time, group k from the 4-byte word ending 4k bytes
    before its last digit; a line's u and v words, paired as one 64-bit
    word, are decoded together (Langdale and Lemire, "Parsing Gigabytes
    of JSON per Second", 2019). A graph whose n x n matrix is no larger
    than the text (the file's size) comes out holding Graph.packed: a
    block's pairs go into the upper triangle in bands of rows, or out
    of order pair by pair (_scatter_bands), and the rows are mirrored
    once at the end (_mirror). A sparser graph holds
    masks alone, each line's pair placed as the line parser places it,
    after the line parser's refusal of a huge n. A duplicate line shows
    as an edge count short of the header's."""
    if isinstance(source, str):  # non-ASCII characters become '?', which no check passes
        size, end = len(source), source.find("\n") + 1
        first = source[:end].encode("ascii", "replace")
        blocks = (c.encode("ascii", "replace") for c in _blocks(source, end, block))
    else:
        size = os.fstat(source.fileno()).st_size  # 0 for a pipe, which is left unread
        first = source.readline() if size else b""
        blocks = (d + source.readline() for d in iter(functools.partial(source.read, block), b""))
    head = _CANONICAL_HEADER.fullmatch(first)
    if head is None:
        return None
    n, m = int(head[1]), int(head[2])
    if sparse := n * n > size:
        _check_memory(8 * n, f"{n} adjacency masks")
        adj = [0] * n
    else:
        _check_dense_size(n)
        rows, band = _zero_rows(n), np.zeros((_BYTE_ROWS, n), dtype=np.bool_)
    lines = 0
    for chunk in blocks:
        # four NULs of padding: the last one, scan[0], stands as the
        # separator before the first token, and word i ends at scan[i]
        buf = b"\0" * 4 + chunk
        scan = np.frombuffer(buf, dtype=np.uint8, offset=3)
        words = np.ndarray(len(scan), "<u4", buf, strides=(1,))
        seps = np.flatnonzero(scan < 48)
        # each pair of separators is " \n", 0x0A20 as a little-endian uint16
        if (scan[-1] != 10 or len(seps) % 2 == 0 or scan.max() > 57
                or (scan[seps[1:]].view("<u2") != 0x0A20).any()):
            return None
        ends = seps[1:] - 1  # the last digit of each token
        lens = np.subtract(ends, seps[:-1])  # one space per line, 1-18 digits each side
        top = int(lens.max())
        if lens.min() < 1 or top > 18:
            return None
        # group k: the word ending 4k bytes before the last digit, masked to
        # np.clip(lens - 4k, 0, 4) digits; "clip" sends words before buf to word 0
        for k in range((top + 3) // 4):  # 18 digits < 2^63: exact in int64
            w = words.take(ends, mode="clip").view("<u8")  # u's word, v's word << 32
            w &= _DIGITS.take(lens, mode="clip").view("<u8")
            # no sum carries, and each mask drops what a product moves across lanes
            w = (w * (10 << 8 | 1) >> 8) & 0x00FF00FF00FF00FF
            w = (w * (100 << 16 | 1) >> 16) & 0x0000FFFF0000FFFF
            group = w.view("<u4").reshape(-1, 2).T  # u's group k, v's group k
            uv = uv + group * np.int64(10 ** (4 * k)) if k else group.astype(np.int64)
            ends -= 4
            lens -= 4
        u, v = uv
        if (u >= v).any() or v.max() >= n:  # u < v, so every u < n too
            return None
        if sparse:
            for a, b in zip(u.tolist(), v.tolist()):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        else:
            _scatter_bands(rows, band, u, v)
        lines += len(u)
    if lines != m:
        return None
    if sparse:
        g = Graph._from_adj(n, adj)
    else:
        _mirror(rows)
        g = Graph._from_packed(rows[:n])
    return g if g.edge_count == m else None  # a duplicate adds no edge, so it shows in the count


def _scatter_bands(rows: np.ndarray, band: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Set bit v[i] of packed row u[i] for each i. Pairs on at most
    len(band) rows, in any order, or sorted by u, go through the bool
    band: each run of pairs on len(band) rows from its first row on is
    set there, packed into those rows (_pack_band) and cleared. Pairs
    out of order on more rows are set one by one (_set_pairs). A row
    may take pairs from two calls, as it may span two blocks of text;
    the packed rows keep both."""
    size, n = band.shape
    lo, hi = int(u.min()), int(u.max())
    if hi - lo >= size and (u[1:] < u[:-1]).any():
        _set_pairs(rows, u, v)
        return
    flat, a = band.reshape(-1), 0
    while a < len(u):
        first = int(u[a]) if a else lo
        b = len(u) if hi < first + size else int(np.searchsorted(u, first + size))
        flat[(u[a:b] - first) * n + v[a:b]] = True
        span = band[:min(hi + 1, first + size) - first]
        _pack_band(rows, first, span)
        span[:] = False
        a = b


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format, reporting errors by line. Lines end
    as in str.splitlines; blank lines may only trail the list. Canonical
    text, what write_edge_list emits, is read by _read_canonical; any
    other text, and any text it refuses, by the line parser below."""
    g = _read_canonical(text)
    if g is not None:
        return g
    lines = (line for chunk in _blocks(text) for line in chunk.splitlines())  # a block at a time
    header = next(lines, None)
    if header is None:
        raise EdgeListError(1, "missing header line")
    head = header.split()
    if len(head) != 2:
        raise EdgeListError(1, f"expected header 'n m', got {header!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError(1, f"expected integer header 'n m', got {header!r}") from None
    if n < 0 or m < 0:
        raise EdgeListError(1, "header counts must be nonnegative")
    _check_memory(8 * n, f"{n} adjacency masks")
    adj = [0] * n
    count = 0
    line_no = 1
    for line_no, raw in enumerate(lines, start=2):
        if not raw.strip():
            blank_no = line_no
            for line_no, rest in enumerate(lines, start=blank_no + 1):
                if rest.strip():
                    raise EdgeListError(blank_no, "blank line inside edge list")
            break
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListError(line_no, f"expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(line_no, f"expected integers, got {raw!r}") from None
        if u == v:
            raise EdgeListError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < v < n):
            raise EdgeListError(line_no, f"need 0 <= u < v < n={n}, got {u} {v}")
        if (adj[u] >> v) & 1:
            raise EdgeListError(line_no, f"duplicate edge {u} {v}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        count += 1
    if count != m:
        raise EdgeListError(line_no + 1, f"header announced {m} edges, found {count}")
    return Graph._from_adj(n, adj)
