"""Graph core: construction, edge-list I/O, density, induced subgraphs."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from fullsub.graph import _lines, _read_canonical

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


# faults put into canonical texts: each either inserts a line, edits
# one, or edits the header
INSERTED = ("duplicate", "counted-duplicate", "reversed", "self-loop", "out-of-range",
            "inner-blank", "one-token", "huge-token", "int-spelling")
EDITED = ("double-space", "trailing-space", "split-line", "long-token")
HEADER = ("count-high", "count-low", "header-spacing")


@st.composite
def canonical_texts(draw):
    """(fault, end, text): an edge-list text in the canonical shape, its
    lines shuffled and tokens zero-padded, with at most one fault and a
    final '\\n', none or trailing blank lines; most are small enough for
    the vectorized reader to take (n * n <= len(text))."""
    n = draw(st.integers(1, 8))
    pad = st.integers(0, 4).map(lambda k: "0" * k)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.permutations(pairs))[:draw(st.integers(0, len(pairs)))]
    lines = [f"{draw(pad)}{u} {draw(pad)}{v}" for u, v in edges]
    m = len(lines)
    fault = draw(st.sampled_from(("none",) + INSERTED + EDITED + HEADER))
    at = draw(st.integers(0, m))
    a, b = sorted(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    prev = lines[at - 1] if lines else None
    if fault in INSERTED and (prev or "duplicate" not in fault):
        lines.insert(at, {"duplicate": prev, "counted-duplicate": prev, "reversed": f"{b} {a}",
                          "self-loop": f"{a} {a}", "out-of-range": f"{a} {n + b}",
                          "inner-blank": "", "one-token": f"{a}",
                          "huge-token": f"{a} {'9' * 19}", "int-spelling": f"+{a} 0_{b}",
                          }[fault])
    elif fault in EDITED and prev:
        lines[at - 1] = {"double-space": prev.replace(" ", "  "), "trailing-space": prev + " ",
                         "split-line": prev.replace(" ", " \n "), "long-token": "0" * 18 + prev,
                         }[fault]
    elif fault not in HEADER or (fault == "count-low" and not m):
        fault = "none"
    m += {"counted-duplicate": 1, "count-high": 1, "count-low": -1}.get(fault, 0)
    header = f"{draw(pad)}{n}{'  ' if fault == 'header-spacing' else ' '}{draw(pad)}{m}"
    end = draw(st.sampled_from(["\n", "\n", "\n", "", "\n\n\n"]))
    return fault, end, "\n".join([header] + lines) + end


@settings(max_examples=200)
@given(canonical_texts(), st.integers(1, 40))
def test_vectorized_reader_matches_reference_parser(case, block):
    fault, end, text = case
    want = parse_outcome(support.reference_read_edge_list, text)
    assert parse_outcome(read_edge_list, text) == want
    # the vectorized reader, over blocks small enough that texts span
    # several, either serves the reference's graph or declines
    got = _read_canonical(text, block)
    if got is not None:
        assert (got.n, got.adj) == want
        _assert_matrix_mirrors_masks(got)
    elif fault == "none" and end == "\n":
        assert int(text.split()[0]) ** 2 > len(text)


@pytest.fixture(scope="module")
def multi_block_lines():
    """The lines of a G(200, 1/2) text with every token zero-padded to
    ten digits: about 220 kB, so it spans several of the reader's blocks."""
    g = gen_gnp(200, Fraction(1, 2), seed=4)
    lines = [f"{u:010d} {v:010d}" for u, v in g.edges()]
    return [f"{g.n} {g.edge_count}"] + lines


REFUSED = ("duplicate", "counted-duplicate", "reversed", "self-loop", "out-of-range",
           "one-token", "huge-token", "split-line", "count-low", "last-one-token")


@pytest.mark.parametrize("fault", ("none", "int-spelling", "long-token", "double-space",
                                   "no-final-newline", "trailing-blank") + REFUSED)
def test_vectorized_reader_matches_reference_parser_across_blocks(multi_block_lines, fault):
    # each fault sits a few lines from the end, in the last block
    lines = list(multi_block_lines)
    line = lines[-3]
    u, v = (int(tok) for tok in line.split())
    lines[-3] = {"duplicate": lines[-4], "reversed": f"{v} {u}", "self-loop": f"{u} {u}",
                 "out-of-range": f"{u} 200", "one-token": f"{u}", "huge-token": f"{u} {'9' * 19}",
                 "int-spelling": f"+{u} 0_{v}", "long-token": "0" * 9 + line,
                 "double-space": line.replace(" ", "  "), "split-line": line.replace(" ", " \n "),
                 }.get(fault, line)
    if fault == "counted-duplicate":
        lines[0] = f"200 {len(lines)}"
        lines.insert(-3, line)
    if fault == "count-low":
        lines[0] = f"200 {len(lines) - 2}"
    if fault == "last-one-token":
        lines[-1] = lines[-1].split()[0]
    end = {"no-final-newline": "", "last-one-token": "", "trailing-blank": "\n\n"}.get(fault, "\n")
    text = "\n".join(lines) + end
    assert len("\n".join(lines[:-3])) > 3 << 16
    got = parse_outcome(read_edge_list, text)
    assert got == parse_outcome(support.reference_read_edge_list, text)
    assert isinstance(got[0], str) == (fault in REFUSED)
    if fault == "none":
        assert "matrix" in read_edge_list(text).__dict__


def test_canonical_text_takes_the_vectorized_path():
    text = write_edge_list(gen_gnp(300, Fraction(1, 2), seed=0))
    g = read_edge_list(text)
    assert "matrix" in g.__dict__  # built by the reader, not on first use
    assert write_edge_list(g) == text


def test_reader_builds_no_matrix_larger_than_the_text():
    g = read_edge_list("1000000 0\n")
    assert g.n == 1000000 and g.edge_count == 0
    assert "matrix" not in g.__dict__


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
