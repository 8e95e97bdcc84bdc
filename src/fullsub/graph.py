"""Immutable simple graphs over vertices 0..n-1 with exact rational density.

Adjacency lives in one Python int bitmask per vertex, so counting a
neighbourhood inside a vertex subset is a single AND plus popcount even
for a few thousand vertices. The vectorized kernels read the same
adjacency as Graph.matrix, a read-only numpy bool matrix built once per
graph; this module is the only place that converts between the two
forms. Graphs are frozen after construction and every function in this
package treats them as shared read-only values; all density and degree
arithmetic is exact (integers and Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

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


def to_mask(vertices: Iterable[int], n: int) -> int:
    """Pack vertex ids into a bitmask, rejecting ids outside 0..n-1."""
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range 0..{n - 1}")
        mask |= 1 << v
    return mask


def as_mask(vertices, n: int) -> int:
    """A vertex set as a bitmask: an int is taken as one already, any
    other iterable of ids is packed by to_mask."""
    return vertices if isinstance(vertices, int) else to_mask(vertices, n)


def _pack_rows(rows: np.ndarray) -> list[int]:
    """The bitmask of each row of a 2-D bool array: bit j of mask i is
    rows[i, j]. Pass vec[None] to pack a single vector."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    width = packed.shape[1]
    if not width:
        return [0] * len(rows)
    buf = packed.tobytes()
    return [int.from_bytes(buf[i:i + width], "little")
            for i in range(0, len(buf), width)]


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


@dataclass(frozen=True, repr=False)
class Graph:
    """A labelled simple graph. Build via from_edges or from_masks."""

    n: int
    adj: tuple[int, ...]
    degrees: tuple[int, ...]
    edge_count: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from unordered vertex pairs. Self-loops are rejected,
        duplicate pairs collapse to a single edge."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        adj = [0] * n
        for u, v in edges:
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
        its own neighbour and the masks are symmetric. The generators,
        which build well-formed masks by construction, use _from_adj."""
        adj = list(adj)
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
        return cls(n=n, adj=tuple(adj), degrees=degrees, edge_count=total // 2)

    @classmethod
    def _from_matrix(cls, mat: np.ndarray) -> "Graph":
        """Build from a symmetric bool matrix with a zero diagonal
        (not checked). The matrix is taken over, not copied: it becomes
        the graph's read-only Graph.matrix."""
        g = cls._from_adj(mat.shape[0], _pack_rows(mat))
        mat.setflags(write=False)
        g.__dict__["matrix"] = mat
        return g

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense n x n bool adjacency, built on first use and cached;
        read-only, since the graph it mirrors is immutable."""
        n = self.n
        nbytes = (n + 7) // 8
        packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in self.adj),
                               dtype=np.uint8).reshape(n, nbytes)
        mat = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(np.bool_)
        mat.setflags(write=False)
        return mat

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


def _degrees_within(g: Graph, mask: int) -> list[int]:
    """d_S(v) for each member v of the vertex set S given by mask, in
    increasing vertex order."""
    adj = g.adj
    return [(adj[v] & mask).bit_count() for v in iter_bits(mask)]


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the relabelling map.

    Returns (h, labels) where labels[i] is the original id of vertex i
    of h; labels are sorted ascending.
    """
    labels = tuple(iter_bits(as_mask(vertices, g.n)))
    return Graph._from_matrix(g.matrix[np.ix_(labels, labels)]), labels


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._from_adj(g.n, [full ^ m ^ (1 << v) for v, m in enumerate(g.adj)])


def write_edge_list(g: Graph) -> str:
    """Canonical text form: header "n m", then one "u v" line per edge
    with u < v, edges sorted lexicographically. The text is joined from
    one string per vertex, so no string per edge outlives its row."""
    rows = [f"{g.n} {g.edge_count}\n"]
    for u, m in enumerate(g.adj):
        rows.append("".join(f"{u} {v}\n" for v in iter_bits(m >> (u + 1) << (u + 1))))
    return "".join(rows)


def _lines(text: str, block: int = 1 << 16) -> Iterator[str]:
    """The lines of text.splitlines(), produced a block at a time so no
    list of every line is built. Blocks end just after a '\\n', or after
    a '\\r' when no '\\n' follows, so no block splits a line or a "\\r\\n"."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + block)
        if end < 0:
            end = text.find("\r", start + block)
        end = size if end < 0 else end + 1
        yield from text[start:end].splitlines()
        start = end


def read_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format, reporting errors by line.
    Lines end as in str.splitlines; blank lines may only trail the list."""
    lines = _lines(text)
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
