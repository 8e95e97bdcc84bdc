"""Graph core: construction, edge-list I/O, density, induced subgraphs."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import support
from conftest import graphs
from fullsub import (
    EdgeListError,
    Graph,
    complement,
    density,
    gen_gnp,
    induced_subgraph,
    lex_less,
    read_edge_list,
    write_edge_list,
)
from fullsub.graph import _lines

K3_TEXT = "3 3\n0 1\n0 2\n1 2\n"


def test_read_k3():
    g = read_edge_list(K3_TEXT)
    assert g.n == 3 and g.edge_count == 3
    assert all(g.has_edge(u, v) for u in range(3) for v in range(3) if u != v)


def test_write_is_canonical_sorted():
    g = Graph.from_edges(4, [(2, 3), (0, 2), (0, 1)])
    assert write_edge_list(g) == "4 3\n0 1\n0 2\n2 3\n"


def test_round_trip_fixed_point():
    assert write_edge_list(read_edge_list(K3_TEXT)) == K3_TEXT


@pytest.mark.parametrize("g", support.structured_catalog()
                         + [support.empty(0), support.empty(1)]
                         + [gen_gnp(n, p, seed=2) for n in (300, 1001)
                            for p in (Fraction(1, 50), Fraction(1, 2))])
def test_write_matches_reference_writer(g):
    assert write_edge_list(g) == support.reference_write_edge_list(g)


@given(graphs())
def test_round_trip_any_graph(g):
    h = read_edge_list(write_edge_list(g))
    assert h.n == g.n and h.adj == g.adj


@pytest.mark.parametrize("text,fragment", [
    ("2 1\n1 1\n", "self-loop"),
    ("2 1\n0 2\n", "0 <= u < v < n"),
    ("3 2\n0 1\n0 1\n", "duplicate"),
    ("3 2\n0 1\n", "announced 2 edges, found 1"),
    ("3 1\n0 1\n1 2\n", "announced 1 edges, found 2"),
    ("x y\n", "header"),
    ("3 1\n0\n", "line 2"),
])
def test_read_rejects_malformed(text, fragment):
    with pytest.raises(EdgeListError) as err:
        read_edge_list(text)
    assert fragment in str(err.value)


def parse_outcome(read, text):
    """(n, adj) of the parsed graph, or the message and line of the error."""
    try:
        g = read(text)
    except EdgeListError as err:
        return str(err), err.line_no
    return g.n, g.adj


EOLS = ("\n", "\r\n", "\r")


@given(st.sampled_from(["3 2", "3 0", "4 3", "", " ", "a b", "-1 0", "3", "3 2 1"]),
       st.lists(st.sampled_from(["0 1", "1 2", "0 2", "2 1", "0 0", "2 3", "1 2 3",
                                 "x 1", "", "   "]), max_size=8),
       st.sampled_from(EOLS), st.booleans())
def test_read_matches_reference_parser(header, body, eol, trailing):
    text = eol.join([header] + body) + (eol if trailing else "")
    assert parse_outcome(read_edge_list, text) == \
        parse_outcome(support.reference_read_edge_list, text)


@pytest.mark.parametrize("eol", EOLS)
def test_read_matches_reference_parser_across_blocks(eol):
    # 22k lines span several of the parser's blocks; the faults sit
    # near the end, well past the first block
    lines = write_edge_list(gen_gnp(300, Fraction(1, 2), seed=1)).splitlines()
    texts = [eol.join(lines) + eol,
             eol.join(lines) + eol * 3,
             eol.join(lines[:-5] + [""] + lines[-5:]) + eol,
             eol.join(lines[:-5] + ["0 0"] + lines[-5:]) + eol,
             eol.join(lines[:-1]) + eol]
    for text in texts:
        assert len(text) > 1 << 17
        assert parse_outcome(read_edge_list, text) == \
            parse_outcome(support.reference_read_edge_list, text)


@given(st.text(alphabet="ab \n\r\f\v\x1c\x85\u2028", max_size=40), st.integers(1, 6))
def test_lines_split_like_splitlines_at_any_block_size(text, block):
    assert list(_lines(text, block)) == text.splitlines()


def test_self_loop_rejected_with_line_number():
    with pytest.raises(EdgeListError) as err:
        read_edge_list("2 1\n1 1\n")
    assert "line 2" in str(err.value)


def test_from_edges_rejects_bad_vertices():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


@pytest.mark.parametrize("n,adj,message", [
    (3, [0b110, 0b001], "need one adjacency mask per vertex"),
    (3, [0b010, 0b1001, 0], "adjacency mask of 1 mentions vertices >= 3"),
    (3, [0b010, 0b011, 0], "self-loop at vertex 1"),
    # masks are scanned in vertex order v, and the first neighbour u of
    # v that lacks v is named "between u and v"
    (3, [0b100, 0b100, 0b001], "asymmetric adjacency between 2 and 1"),
    (4, [0b0110, 0b0001, 0b0001, 0b0001], "asymmetric adjacency between 0 and 3"),
])
def test_from_masks_refuses_malformed_masks(n, adj, message):
    with pytest.raises(ValueError) as err:
        Graph.from_masks(n, adj)
    assert str(err.value) == message


def test_density_closed_cases():
    assert density(support.clique(4)) == 1
    assert density(support.cycle(4)) == Fraction(2, 3)
    assert density(support.disjoint_union(support.clique(3), support.empty(1))) \
        == Fraction(1, 2)
    assert density(support.empty(1)) == 0
    assert density(support.empty(0)) == 0


@given(graphs(min_n=2))
def test_density_complement_sums_to_one(g):
    assert density(g) + density(complement(g)) == 1


@given(graphs())
def test_density_matches_definition(g):
    assert density(g) == support.brute_density(g)


def test_induced_subgraph_closed_cases():
    k3, labels = induced_subgraph(support.clique(4), [0, 2, 3])
    assert labels == (0, 2, 3) and k3.edge_count == 3
    edge, _ = induced_subgraph(support.cycle(5), [0, 1])
    assert edge.edge_count == 1
    none, _ = induced_subgraph(support.cycle(5), [0, 2])
    assert none.edge_count == 0


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(support.cycle(5), [0, 5])


@given(graphs(), st.data())
def test_induced_subgraph_edge_count_and_degrees(g, data):
    subset = data.draw(st.lists(st.integers(0, max(0, g.n - 1)), max_size=g.n,
                                unique=True)) if g.n else []
    h, labels = induced_subgraph(g, subset)
    assert list(labels) == sorted(subset)
    assert h.edge_count == support.subset_edges(g, subset)
    for i, v in enumerate(labels):
        outside = sum(1 for u in g.neighbors(v) if u not in subset)
        assert g.degree(v) == h.degree(i) + outside


@pytest.mark.parametrize("n", [0, 1, 5, 127, 128, 300])
def test_induced_subgraph_matches_reference(n):
    g = gen_gnp(n, Fraction(1, 2), seed=n)
    subsets = [[], list(range(n)), list(range(0, n, 3)),
               [v for v in range(n) if (v * 7919) % 5 < 2]]
    for subset in subsets:
        want, want_labels = support.reference_induced_subgraph(g, subset)
        for arg in (subset, sum(1 << v for v in subset)):
            h, labels = induced_subgraph(g, arg)
            assert labels == want_labels
            assert h.adj == want.adj
            assert np.array_equal(h.matrix, want.matrix)


def _assert_matrix_mirrors_masks(g):
    mat = g.matrix
    assert mat.dtype == np.bool_ and mat.shape == (g.n, g.n)
    assert np.array_equal(mat, mat.T)
    assert not mat.diagonal().any()
    assert all(bool(mat[u, v]) == g.has_edge(u, v)
               for u in range(g.n) for v in range(g.n))
    assert g.matrix is mat


@given(graphs())
def test_matrix_mirrors_the_masks(g):
    _assert_matrix_mirrors_masks(g)


@pytest.mark.parametrize("n", [127, 300])
def test_matrix_mirrors_the_masks_generated(n):
    _assert_matrix_mirrors_masks(gen_gnp(n, Fraction(1, 3), seed=1))


def test_matrix_is_read_only():
    for g in (support.cycle(5), gen_gnp(40, Fraction(1, 2), seed=2),
              induced_subgraph(support.cycle(5), [0, 1, 2])[0]):
        with pytest.raises(ValueError):
            g.matrix[0, 1] = not g.matrix[0, 1]


def test_complement_closed_cases():
    assert complement(support.clique(5)).edge_count == 0
    assert complement(support.empty(5)).edge_count == 10
    c5c = complement(support.cycle(5))
    assert c5c.edge_count == 5 and set(c5c.degrees) == {2}


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)).adj == g.adj


@given(graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degrees) == 2 * g.edge_count


def test_edges_iterate_lexicographically():
    g = Graph.from_edges(4, [(2, 3), (0, 3), (0, 1)])
    assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]


def test_lex_less_orders_by_sorted_tuple():
    def mask(*vs):
        return sum(1 << v for v in vs)

    assert lex_less(mask(0, 2), mask(0, 3))
    assert lex_less(mask(0, 3), mask(1))
    assert lex_less(mask(0), mask(0, 1))
    assert not lex_less(mask(0, 1), mask(0))
    assert not lex_less(mask(1), mask(0, 3))
