"""Immutable simple graphs over vertices 0..n-1 with exact rational density.

A Graph holds the form it was built from and builds the other on first
use: Graph.adj, one Python int bitmask per vertex, or Graph.matrix, a
read-only numpy bool matrix. Graphs built from edges or masks hold
masks; a generated dense graph, an induced subgraph, a complement and a
graph read from canonical text (_read_canonical) no smaller than its
matrix hold the matrix, with degrees from its column sums
(_column_counts); one read from sparser text holds masks. NumPy
integer ids and masks are taken as Python ints (operator.index), so no
shift wraps at 64 bits. Inside the package a vertex set is a sorted
index array (_as_index). This module alone converts between the two forms and asks
which one a graph holds: the others read adjacency rows (_rows), arcs
(_arcs) and in-set degrees (_degrees_within) through it, from the matrix
when it is there, else from the masks alone, whose nonzero 64-bit words
_set_bits alone decodes. Before any n x n matrix or exact table is
allocated, _check_memory refuses one larger than physical memory or the
cgroup's memory limit. Masks are packed from a matrix _BYTE_ROWS rows
at a time (_pack_rows), as its column sums are taken (_column_counts),
so neither holds more than one block's temporaries beside it.
Graphs are frozen after construction and every
function in this package treats them as shared read-only values; all
density and degree arithmetic is exact (integers and Fractions).
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
    """Refuse, before allocating it, an n x n bool matrix whose n^2
    bytes exceed the memory _check_memory allows."""
    _check_memory(n * n, f"a dense {n} x {n} matrix")


_BYTE_ROWS = 128  # rows summed as bytes (at most 255: no byte overflows) or unpacked at once
_WRITE_ROWS = 32  # rows written as one piece of edge-list text, bounding its temporaries


def _column_counts(mat: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Column sums of an n x n bool matrix with a zero diagonal over the
    rows given as an index array (None: every row), so at most n - 1:
    exact in uint16 while n < 2^16. Each block of _BYTE_ROWS rows is
    summed as bytes while it is in cache, and added to the total."""
    u8, n = mat.view(np.uint8), mat.shape[1]
    total = np.zeros(n, dtype=np.uint16 if n < 1 << 16 else np.uint32)
    for s in range(0, len(u8) if rows is None else len(rows), _BYTE_ROWS):
        block = u8[s:s + _BYTE_ROWS] if rows is None else u8[rows[s:s + _BYTE_ROWS]]
        total += block.sum(axis=0, dtype=np.uint8)
    return total


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


def _pack_rows(rows: np.ndarray) -> list[int]:
    """The bitmask of each row of a 2-D bool array: bit j of mask i is
    rows[i, j]. Pass vec[None] to pack a single vector. Rows are packed
    _BYTE_ROWS at a time, so the packed bytes and their copy stay the
    size of a block, not of the whole array."""
    width = (rows.shape[1] + 7) // 8
    if not width:
        return [0] * len(rows)
    masks: list[int] = []
    for s in range(0, len(rows), _BYTE_ROWS):
        buf = np.packbits(rows[s:s + _BYTE_ROWS], axis=1, bitorder="little").tobytes()
        masks += [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]
    return masks


_TILE = 512  # a pair of 256 KB tiles fits in cache
_TEXT_BLOCK = 1 << 16  # characters of edge-list text, or bytes of a file, handled at a time


def _mirror_upper(mat: np.ndarray) -> None:
    """Copy the strictly upper triangle of mat, whose lower triangle is
    all False, into that lower triangle in place, one tile at a time:
    the whole transpose reads with a stride of n bytes, missing cache at
    every element once n is in the thousands."""
    for i in range(0, len(mat), _TILE):
        d = mat[i:i + _TILE, i:i + _TILE]
        d |= d.T
        for j in range(i + _TILE, len(mat), _TILE):
            mat[j:j + _TILE, i:i + _TILE] = mat[i:i + _TILE, j:j + _TILE].T


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
    def _from_matrix(cls, mat: np.ndarray) -> "Graph":
        """Build from a symmetric bool matrix with a zero diagonal
        (not checked). The matrix is taken over, not copied: it becomes
        the graph's read-only Graph.matrix, and no mask is packed."""
        degrees = tuple(_column_counts(mat).tolist())  # = row sums, by symmetry
        mat.setflags(write=False)
        g = cls(mat.shape[0], degrees, sum(degrees) // 2)
        g.__dict__["matrix"] = mat
        return g

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """One neighbour bitmask per vertex (bit u of adj[v]: edge uv);
        a graph built from a matrix packs them on first use and caches them."""
        return tuple(_pack_rows(self.matrix))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense n x n bool adjacency, built on first use and cached;
        read-only, since the graph it mirrors is immutable."""
        _check_dense_size(self.n)
        mat = _unpack_rows(self.adj, self.n)
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


def _degrees_within(g: Graph, vertices) -> tuple[np.ndarray, np.ndarray]:
    """S as a sorted index array (_as_index) and d_S(v) for each member:
    column sums over S's rows when Graph.matrix is there, else the mask
    walk, on S's own mask if given one, never building the matrix."""
    idx = _as_index(vertices, g.n)
    if "matrix" in g.__dict__:
        return idx, _column_counts(g.matrix, idx)[idx]
    mask, adj = vertices, g.adj
    if not isinstance(mask, int):
        mask = _pack_rows(np.bincount(idx, minlength=g.n)[None] > 0)[0]
    return idx, np.array([(adj[v] & mask).bit_count() for v in idx.tolist()], dtype=np.int64)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the relabelling map.

    Returns (h, labels) where labels[i] is the original id of vertex i
    of h; labels are sorted ascending. h holds its matrix only.
    """
    idx = _as_index(vertices, g.n)  # rows, then columns: np.ix_ is ~3x slower
    sub = g.matrix[idx].view(np.uint8).take(idx, axis=1).view(np.bool_)
    return Graph._from_matrix(sub), tuple(idx.tolist())


def complement(g: Graph) -> Graph:
    """The complement, holding its matrix alone: the inverted Graph.matrix
    with its diagonal cleared, refused as any dense matrix is."""
    mat = np.logical_not(g.matrix)
    np.fill_diagonal(mat, False)
    return Graph._from_matrix(mat)


def _rows(g: Graph, rows: slice | np.ndarray) -> np.ndarray:
    """g.matrix[rows] (rows a slice or an index array), or else those masks alone, unpacked."""
    if "matrix" in g.__dict__:
        return g.matrix[rows]
    masks = g.adj[rows] if isinstance(rows, slice) else [g.adj[v] for v in rows.tolist()]
    return _unpack_rows(masks, g.n)


def _set_bits(masks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(i, b) for each set bit b of each masks[i], in order, from their nonzero 64-bit words."""
    width = max(masks).bit_length() // 64 + 1
    words = np.frombuffer(b"".join(m.to_bytes(8 * width, "little") for m in masks), "<u8")
    at = np.flatnonzero(words)
    bits = np.flatnonzero(np.unpackbits(words[at].view(np.uint8), bitorder="little"))
    return np.divmod(64 * at[bits >> 6] + (bits & 63), 64 * width)


def _arcs(g: Graph, s: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(u - s, v) for each edge uv, s <= u < stop, in order, from the form g holds."""
    if "matrix" in g.__dict__:
        return np.divmod(np.flatnonzero(g.matrix[s:stop]), g.n)
    return _set_bits(g.adj[s:stop])


def _edge_text(g: Graph) -> Iterator[bytes]:
    """write_edge_list's text as ASCII pieces: the header, then one piece
    per block of rows with an edge, gathered from name slots "u " and
    "v\\n" NUL-padded to one more byte than n - 1 has digits. A block's
    edges (u, v), u < v, come from Graph.matrix's upper triangle, or else
    from the set bits of the masks shifted past the diagonal (_set_bits)."""
    yield b"%d %d\n" % (g.n, g.edge_count)
    names = np.arange(g.n).astype(f"S{len(str(g.n - 1))}")
    first, second = np.strings.add(names, b" "), np.strings.add(names, b"\n")
    for s in range(0, g.n, _WRITE_ROWS):  # u and v count from s
        if "matrix" in g.__dict__:
            u, v = np.divmod(np.flatnonzero(np.triu(g.matrix[s:s + _WRITE_ROWS, s:], 1)), g.n - s)
        else:
            u, v = _set_bits([m >> k for k, m in enumerate(g.adj[s:s + _WRITE_ROWS], start=s + 1)])
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
    than the text (the file's size) comes out holding Graph.matrix; a
    sparser one holds masks alone, each line's pair placed as the line
    parser places it, after the line parser's refusal of a huge n."""
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
        mat = np.zeros((n, n), dtype=np.bool_)
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
            mat.ravel()[u * n + v] = True
        lines += len(u)
    if lines != m:
        return None
    if sparse:  # a duplicate adds no edge, so it shows in the count
        g = Graph._from_adj(n, adj)
        return g if g.edge_count == m else None
    if np.count_nonzero(mat) != m:  # a duplicate sets no new entry
        return None
    _mirror_upper(mat)
    return Graph._from_matrix(mat)


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
