"""Graph core: construction, edge-list I/O, density, induced subgraphs."""

import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import support
from conftest import graphs
from fullsub import (
    EdgeListError,
    Graph,
    PreconditionError,
    complement,
    density,
    gen_clique_plus_isolated,
    gen_glued,
    gen_gnp,
    gen_greedy_adversary,
    gen_multipartite_planted,
    induced_subgraph,
    lex_less,
    read_edge_list,
    to_mask,
    write_edge_list,
)
from fullsub import graph as graph_mod
from fullsub.graph import _blocks, _column_counts, _pack_rows, _read_canonical, _symmetrize

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
    ("", "missing header line"),
    ("-1 0\n", "header counts must be nonnegative"),
    ("3 1\n0 x\n", "expected integers, got '0 x'"),
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
           "one-token", "huge-token", "split-line", "count-low", "last-one-token",
           "two-self-loops")


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
    if fault == "two-self-loops":  # the count and the degree sum's parity still hold
        lines[-4:-2] = [f"{u} {u}", f"{v} {v}"]
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


@pytest.mark.parametrize("width", (1, 7, 8, 9, 16, 17, 18))
@pytest.mark.parametrize("block", (1, 7, 64, 1 << 16))
def test_zero_padded_tokens_take_the_vectorized_path(width, block):
    # every u and every other v padded to width digits, so one block
    # mixes long and short tokens; block = 1 puts each line, and so a
    # token, at the first byte of its block
    g = Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                             if (u + v) % 4])
    lines = [f"{u:0{width}d} {v:0{width if i % 2 else 1}d}" for i, (u, v) in enumerate(g.edges())]
    text = "\n".join([f"{g.n} {g.edge_count}"] + lines) + "\n"
    want = support.reference_read_edge_list(text)
    for got in (_read_canonical(text, block), read_edge_list(text)):
        assert got is not None and "matrix" in got.__dict__
        assert (got.n, got.adj) == (want.n, want.adj) == (g.n, g.adj)


def test_reader_refuses_tokens_past_18_digits():
    text = "3 1\n0 18446744073709551617\n"  # 2^64 + 1, which is 1 modulo 2^64
    assert _read_canonical(text) is None
    got = parse_outcome(read_edge_list, text)
    assert got == parse_outcome(support.reference_read_edge_list, text)
    assert "need 0 <= u < v < n=3, got 0 18446744073709551617" in got[0]


@pytest.mark.parametrize("text", ("3 1\n0 1\n2", "3 2\n0 1\n1 2", "3 1\n0 1\n2 "))
def test_reader_matches_reference_on_an_unterminated_last_line(text):
    # the last line lacks its '\n': the vectorized reader declines, and
    # the line parser gives the reference's graph or error
    assert _read_canonical(text) is None
    assert parse_outcome(read_edge_list, text) == \
        parse_outcome(support.reference_read_edge_list, text)


def test_reader_builds_no_matrix_larger_than_the_text():
    g = read_edge_list("1000000 0\n")
    assert g.n == 1000000 and g.edge_count == 0
    assert "matrix" not in g.__dict__


def read_file(text: str, block: int):
    """_read_canonical of text streamed from a binary file in blocks of
    about block bytes."""
    with tempfile.TemporaryFile() as fh:
        fh.write(text.encode("ascii"))
        fh.seek(0)
        return _read_canonical(fh, block)


@given(canonical_texts(), st.integers(1, 40))
def test_file_reader_matches_the_text_reader(case, block):
    # blocks of at most 40 bytes cut most texts inside a line, so each
    # block carries the head of its last line into the next
    _, _, text = case
    got, want = read_file(text, block), _read_canonical(text)
    assert (got is None) == (want is None)
    if got is not None:
        assert "matrix" in got.__dict__ and (got.n, got.adj) == (want.n, want.adj)


@pytest.mark.parametrize("block", (16, 4096, 1 << 16))
def test_file_reader_matches_the_reference_across_blocks(multi_block_lines, block):
    text = "\n".join(multi_block_lines) + "\n"
    want = support.reference_read_edge_list(text)
    got = read_file(text, block)
    assert got is not None and (got.n, got.adj) == (want.n, want.adj)
    assert read_file(text.replace("\n", "\r\n"), block) is None


@pytest.mark.parametrize("line", ("0 10003", "10000 3", "0 00003"))
def test_tokens_past_four_digits_are_read_whole(line):
    # the last four digits name the missing edge 0 3: read four bytes
    # wide, the first two lines would pass as that edge
    edges = [(u, v) for u in range(9) for v in range(u + 1, 9) if (u, v) != (0, 3)]
    lines = [f"{u} {v}" for u, v in edges[:2]] + [line] + [f"{u} {v}" for u, v in edges[2:]]
    text = "\n".join(["9 36"] + lines) + "\n"
    want = parse_outcome(support.reference_read_edge_list, text)
    for got in (_read_canonical(text), read_file(text, 1 << 16)):
        assert (got is None) == isinstance(want[0], str)
        if got is not None:
            assert (got.n, got.adj) == want
    assert parse_outcome(read_edge_list, text) == want


@given(st.text(alphabet="ab \n\r\f\v\x1c\x85\u2028", max_size=40), st.integers(1, 6))
def test_lines_split_like_splitlines_at_any_block_size(text, block):
    # read_edge_list's line parser splits each _blocks slice in turn
    assert [line for chunk in _blocks(text, 0, block) for line in chunk.splitlines()] \
        == text.splitlines()


def test_self_loop_rejected_with_line_number():
    with pytest.raises(EdgeListError) as err:
        read_edge_list("2 1\n1 1\n")
    assert "line 2" in str(err.value)


def test_from_edges_rejects_bad_vertices():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="n must be nonnegative"):
        Graph.from_edges(-1, [])


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


def test_numpy_integer_ids_and_masks_are_read_as_python_ints():
    # 1 << np.int64(70) wraps to 0, and np.int64 has no bit_length
    wide = Graph.from_edges(100, [(np.int64(0), np.int64(70))])
    assert list(wide.edges()) == [(0, 70)] and wide.edge_count == 1
    assert wide.degrees[0] == wide.degrees[70] == 1 and wide.adj[0] == 1 << 70
    path = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
    assert path == support.path(3) and list(path.edges()) == [(0, 1), (1, 2)]
    k3 = Graph.from_masks(3, np.array([6, 5, 3]))
    assert k3 == support.clique(3) and list(k3.edges()) == [(0, 1), (0, 2), (1, 2)]
    for g in (wide, path, k3):
        assert all(type(m) is int for m in g.adj)
    want = (1 << 3) | (1 << 70)
    assert to_mask(np.array([3, 70]), 100) == to_mask([np.uint8(3), np.int32(70)], 100) == want
    with pytest.raises(ValueError, match="vertex 100 out of range"):
        to_mask(np.array([3, 100]), 100)
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(100, np.array([[0, 100]]))
    with pytest.raises(ValueError, match="mentions vertices >= 3"):
        Graph.from_masks(3, np.array([6, 13, 3]))


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


def test_induced_subgraph_matches_reference_on_dense_gnp():
    g = gen_gnp(1200, Fraction(1, 2), seed=3)
    rng = np.random.default_rng(0)
    subsets = [[], list(range(1200))] + [
        np.flatnonzero(rng.random(1200) < share).tolist() for share in (0.9, 0.5, 0.02)]
    for subset in subsets:
        want, want_labels = support.reference_induced_subgraph(g, subset)
        h, labels = induced_subgraph(g, subset)
        assert labels == want_labels
        assert h.adj == want.adj
        assert np.array_equal(h.matrix, want.matrix)


@pytest.mark.parametrize("n", [0, 1, 2, 511, 512, 513, 1025, 1537])
def test_symmetrize_matches_transpose_or(n):
    rng = np.random.default_rng(n)
    for mat in (np.triu(rng.random((n, n)) < 0.5, 1), rng.random((n, n)) < 0.3):
        want = mat | mat.T
        _symmetrize(mat)
        assert np.array_equal(mat, want)


def test_dense_canonical_text_matches_reference_parser():
    # n = 1300 spans three 512-wide tiles, the last one partial
    text = write_edge_list(gen_gnp(1300, Fraction(1, 2), seed=4))
    got, want = read_edge_list(text), support.reference_read_edge_list(text)
    assert "matrix" in got.__dict__  # read by the vectorized path
    assert got.adj == want.adj
    assert np.array_equal(got.matrix, want.matrix)


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


def test_adjacency_mask_lists_are_guarded(monkeypatch):
    monkeypatch.setattr(graph_mod.os, "sysconf", lambda name: 2)  # 4 bytes
    assert Graph.from_edges(0, []).n == read_edge_list("0 0").n == 0
    with pytest.raises(PreconditionError, match="1 adjacency masks .*physical memory"):
        Graph.from_edges(1, [])
    with pytest.raises(PreconditionError, match="1 adjacency masks .*physical memory"):
        read_edge_list("1 0")  # no final newline: the line parser reads it


# ---------------------------------------------------------------------------
# a graph holds the form it was built from: masks or matrix

def _dense_text() -> str:
    text = write_edge_list(gen_gnp(120, Fraction(1, 2), seed=8))
    assert 120 * 120 <= len(text)  # so the canonical reader takes it
    return text


FAMILIES = {
    "gnp": lambda: gen_gnp(300, Fraction(1, 2), seed=5),
    "gnp-kept-matrix": lambda: gen_gnp(257, Fraction(1, 3), seed=6),
    "gnp-p0": lambda: gen_gnp(40, 0, seed=1),
    "gnp-p1": lambda: gen_gnp(40, 1, seed=1),
    "clique-isolated": lambda: gen_clique_plus_isolated(30, 100),
    "multipartite-planted": lambda: gen_multipartite_planted(8, 2)[0],
    "adversary": lambda: gen_greedy_adversary(20),
    "glued": lambda: gen_glued(support.cycle(6), support.path(6), 3),
    "read-canonical": lambda: read_edge_list(_dense_text()),
    "read-line-parser": lambda: read_edge_list(_dense_text().replace("\n", "\r\n")),
    "induced": lambda: induced_subgraph(gen_gnp(300, Fraction(1, 2), seed=9), range(0, 300, 2))[0],
}


def matrix_twin(g: Graph) -> Graph:
    """g rebuilt from a copy of its matrix, so that it holds the matrix alone."""
    return Graph._from_matrix(np.array(g.matrix))


def mask_twin(g: Graph) -> Graph:
    """g rebuilt from its masks, so that it holds the masks alone."""
    return Graph._from_adj(g.n, list(g.adj))


@pytest.mark.parametrize("make", FAMILIES.values(), ids=FAMILIES.keys())
def test_lazy_masks_equal_the_packed_matrix(make):
    g = make()
    twin = matrix_twin(g)
    assert "adj" not in twin.__dict__
    for h in (g, twin):
        assert h.adj == tuple(_pack_rows(h.matrix)) == tuple(support.reference_masks(h))
        assert h.degrees == tuple(m.bit_count() for m in h.adj)
        assert h.edge_count == sum(h.degrees) // 2
    assert (twin.n, twin.degrees, twin.edge_count) == (g.n, g.degrees, g.edge_count)


def test_readers_and_subgraphs_hold_the_matrix_alone():
    for g in (read_edge_list(_dense_text()), gen_gnp(30, Fraction(1, 2), 1),
              induced_subgraph(support.petersen(), [0, 2, 4, 5])[0]):
        assert "matrix" in g.__dict__ and "adj" not in g.__dict__
    g = read_edge_list(_dense_text().replace("\n", "\r\n"))
    assert "adj" in g.__dict__ and "matrix" not in g.__dict__


@given(graphs())
def test_matrix_twins_of_small_graphs(g):
    twin = matrix_twin(g)
    assert twin.degrees == g.degrees and twin.edge_count == g.edge_count
    assert twin.adj == g.adj
    assert complement(twin) == complement(g)


def test_column_counts_widen_past_uint16():
    # a count of at most n - 1 fits uint16 while n < 2^16
    for n, dtype in ((1, np.uint16), (2 ** 16 - 1, np.uint16), (2 ** 16, np.uint32)):
        assert _column_counts(np.zeros((1, n), dtype=np.bool_)).dtype == dtype


@pytest.mark.parametrize("make", FAMILIES.values(), ids=FAMILIES.keys())
def test_mask_and_matrix_twins_are_equal_and_hash_alike(make):
    g = make()
    masks, mat = mask_twin(g), matrix_twin(g)
    assert masks == mat and mat == masks and mat == g and masks == g
    assert hash(masks) == hash(mat) == hash(g)
    assert len({g, masks, mat}) == 1
    assert "matrix" not in masks.__dict__ and "adj" not in mat.__dict__  # comparing built neither
    assert complement(masks) == complement(mat) == matrix_twin(complement(g))


@pytest.mark.parametrize("make", FAMILIES.values(), ids=FAMILIES.keys())
def test_complement_keeps_the_form_and_equals_the_mask_complement(make):
    # whichever form g holds, its complement holds the matrix alone
    g = make()
    h = complement(g)
    assert h.__dict__.keys() & {"matrix", "adj"} == {"matrix"}
    full = (1 << g.n) - 1
    want = tuple(full ^ m ^ (1 << v) for v, m in enumerate(g.adj))
    twin = complement(mask_twin(g))
    assert "adj" not in twin.__dict__
    assert h.adj == twin.adj == want and h.degrees == twin.degrees
    assert h.edge_count == twin.edge_count == g.n * (g.n - 1) // 2 - g.edge_count


def test_equal_degrees_on_other_edges_are_unequal():
    c6 = support.cycle(6)
    triangles = support.disjoint_union(support.clique(3), support.clique(3))
    for a in (c6, matrix_twin(c6)):
        for b in (triangles, matrix_twin(triangles)):
            assert a.degrees == b.degrees and a.edge_count == b.edge_count
            assert a != b and b != a
    assert c6 != "C6" and c6 != support.cycle(7)


@pytest.mark.parametrize("make", FAMILIES.values(), ids=FAMILIES.keys())
def test_write_from_the_matrix_matches_the_mask_writer(make):
    g = make()
    text = support.reference_write_edge_list(g)
    assert write_edge_list(matrix_twin(g)) == text
    assert write_edge_list(mask_twin(g)) == text


def test_mask_graphs_past_one_unpacked_block_compare_and_write_every_row():
    g = Graph._from_adj(300, list(gen_gnp(300, Fraction(1, 2), seed=5).adj))
    # a degree-preserving 2-switch at rows 127 and 255, the last of _rows' first two blocks
    x = next(v for v in g.neighbors(127) if v != 255 and not g.has_edge(255, v))
    y = next(v for v in g.neighbors(255) if v != 127 and not g.has_edge(127, v))
    switch = {tuple(sorted(e)) for e in ((127, x), (255, y), (127, y), (255, x))}
    h = Graph.from_edges(300, set(g.edges()) ^ switch)
    assert h.degrees == g.degrees and g != h and h != g
    assert g == Graph._from_adj(300, list(g.adj))
    for k in (g, h):
        assert write_edge_list(k) == support.reference_write_edge_list(k)
        assert "matrix" not in k.__dict__


@pytest.mark.parametrize("n", [0, 1, 2, 200, 1001])
@pytest.mark.parametrize("p", [Fraction(1, 50), Fraction(1, 2)])
def test_gen_writes_the_same_text_with_its_matrix_kept(n, p):
    kept = gen_gnp(n, p, seed=3)
    text = write_edge_list(kept)
    assert "adj" not in kept.__dict__ or n <= 1 or p == 0
    assert text == write_edge_list(mask_twin(kept))


# ---------------------------------------------------------------------------
# the memory limit: physical memory or the cgroup's memory.max, the smaller

@pytest.fixture
def memory_max(monkeypatch, tmp_path):
    """Physical memory patched to 2^32 bytes and the cgroup file moved to
    tmp_path, not yet written; returns its path. The limit, read once
    per process, is read afresh in the test and again after it."""
    monkeypatch.setattr(graph_mod.os, "sysconf", lambda name: 1 << 16)
    path = tmp_path / "memory.max"
    monkeypatch.setattr(graph_mod, "_CGROUP_MEMORY_MAX", str(path))
    graph_mod._cgroup_limit.cache_clear()
    yield path
    graph_mod._cgroup_limit.cache_clear()


def test_a_lower_cgroup_limit_refuses(memory_max):
    limit = 1 << 25
    memory_max.write_text(f"{limit}\n")
    graph_mod._check_memory(limit, "a table")
    with pytest.raises(PreconditionError, match=f"a table needs {limit + 1} bytes, "
                       f"more than the {limit} bytes of cgroup memory limit"):
        graph_mod._check_memory(limit + 1, "a table")
    graph_mod._check_dense_size(5792)  # 5792^2 <= 2^25 < 5793^2
    with pytest.raises(PreconditionError, match="cgroup memory limit"):
        gen_gnp(5793, Fraction(1, 2), 0)


def test_a_higher_cgroup_limit_leaves_physical_memory(memory_max):
    memory_max.write_text(f"{1 << 40}\n")
    graph_mod._check_memory(1 << 32, "a table")
    with pytest.raises(PreconditionError, match=f"{1 << 32} bytes of physical memory"):
        graph_mod._check_memory((1 << 32) + 1, "a table")


def test_complement_refuses_masks_beyond_the_limit(memory_max):
    memory_max.write_text(f"{1 << 24}\n")
    # the complement is always a dense matrix, even of a graph that holds masks
    g = complement(read_edge_list("4000 0\n"))  # 4000^2 = 16 MB of matrix
    assert g.edge_count == 4000 * 3999 // 2 and g.degrees == (3999,) * 4000
    with pytest.raises(PreconditionError, match="a dense 20000 x 20000 matrix needs "
                       "400000000 bytes, more than the 16777216 bytes of cgroup memory limit"):
        complement(read_edge_list("20000 0\n"))
    with pytest.raises(PreconditionError, match="^a dense 19998 x 19998 matrix needs "
                       "399920004 bytes, more than the 16777216 bytes of cgroup memory limit"):
        gen_greedy_adversary(4999)  # 4 * 4999 + 2 vertices, in the same words


@pytest.mark.parametrize("content", ["max\n", None])
def test_no_cgroup_limit_leaves_physical_memory(memory_max, content):
    if content is not None:
        memory_max.write_text(content)
    graph_mod._check_memory(1 << 32, "a table")
    with pytest.raises(PreconditionError, match=f"{1 << 32} bytes of physical memory"):
        graph_mod._check_memory((1 << 32) + 1, "a table")


@pytest.mark.parametrize("n", (10, 11, 100, 101, 1000, 1001))
def test_write_matches_reference_at_digit_width_edges(n):
    # n - 1 gains a digit between each pair: the name slots widen
    for g in support.twins(gen_gnp(n, Fraction(1, 2), seed=n)):
        assert write_edge_list(g) == support.reference_write_edge_list(g)


def test_writing_a_mask_graph_unpacks_no_row(monkeypatch):
    calls = []
    real = graph_mod._unpack_rows
    monkeypatch.setattr(graph_mod, "_unpack_rows", lambda *a: calls.append(a) or real(*a))
    g = Graph.from_edges(30000, [(0, 1), (5, 29999)])
    assert write_edge_list(g) == "30000 2\n0 1\n5 29999\n" == support.reference_write_edge_list(g)
    assert not calls and "matrix" not in g.__dict__
