"""Surplus, discrepancy, jumbledness: exact values against brute force.

Frozen constants below were produced by the enumeration oracles in
support.py (explicit subset loops with Fraction arithmetic).
"""

import hashlib
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import support
from conftest import densities, graphs
from fullsub import (
    PreconditionError,
    VerificationError,
    complement,
    density,
    discrepancy_exact,
    discrepancy_local_search,
    edge_surplus,
    gen_gnp,
    jumbledness_exact,
    verify_jumbledness_bound,
)
from fullsub import discrepancy
from fullsub import graph as graph_mod
from fullsub.discrepancy import _build_extremes, _high_half, _low_half, _subset_extremes
from fullsub.graph import induced_subgraph

K31 = support.disjoint_union(support.clique(3), support.empty(1))
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# edge surplus

def test_surplus_frozen_values():
    # brute: e=1 minus (2/3)*C(2,2) = 1/3 on an adjacent pair of C_4
    assert edge_surplus(support.cycle(4), Fraction(2, 3), [0, 1]) == Fraction(1, 3)
    # the triangle of K_3 u K_1 at p=1/2: 3 - (1/2)*3 = 3/2
    assert edge_surplus(K31, HALF, [0, 1, 2]) == Fraction(3, 2)


@given(graphs(), densities, st.data())
def test_surplus_of_small_sets_is_zero(g, p, data):
    v = data.draw(st.integers(0, g.n - 1)) if g.n else None
    assert edge_surplus(g, p, []) == 0
    if v is not None:
        assert edge_surplus(g, p, [v]) == 0


@given(graphs(max_n=8), densities, st.data())
def test_surplus_matches_definition(g, p, data):
    subset = data.draw(st.lists(st.integers(0, max(0, g.n - 1)),
                                max_size=g.n, unique=True)) if g.n else []
    assert edge_surplus(g, p, subset) == support.subset_surplus(g, p, subset)


# ---------------------------------------------------------------------------
# the per-size extremes table against the Gray-code walk

def assert_extremes_match_reference(g, p):
    """Equal slots, values and witness masks, for every subset size."""
    num, den = p.numerator, p.denominator
    ref = support.reference_subset_extremes(g, num, den)
    got = _subset_extremes(g)
    for k in range(1, g.n + 1):
        most, most_mask, least, least_mask = got[k]
        expected = num * (k * (k - 1) // 2)
        assert [most * den - expected, most_mask,
                least * den - expected, least_mask] == ref[k], (g, p, k)


def tie_heavy_graphs():
    """Every graph on at most 5 vertices, the structured catalog, and
    empty and complete graphs, where many subsets share a count."""
    for n in range(6):
        yield from support.all_graphs(n)
    yield from support.structured_catalog()
    for n in (1, 2, 7, 10, 13):
        yield support.empty(n)
        yield support.clique(n)


def test_extremes_match_reference_on_tie_heavy_graphs():
    for g in tie_heavy_graphs():
        for p in (density(g), Fraction(1, 3)):
            assert_extremes_match_reference(g, p)


@pytest.mark.parametrize("n", range(14, 21))
def test_extremes_match_reference_on_gnp(n):
    for p in (Fraction(1, 4), HALF, Fraction(3, 4)):
        assert_extremes_match_reference(gen_gnp(n, p, seed=n), p)


@pytest.mark.parametrize("n", [21, 22, 23])
def test_extremes_match_the_int64_kernel_across_the_key_width_change(n):
    """Past the Gray walk's reach: keys are uint16 up to n = 21 and
    uint32 from n = 22, and the empty and complete graphs tie everywhere."""
    cases = [gen_gnp(n, p, seed=n) for p in (Fraction(1, 4), HALF, Fraction(3, 4))]
    for g in cases + [support.empty(n), support.clique(n)]:
        assert _build_extremes(g) == support.reference_extremes_mitm(g), g.edge_count


@pytest.mark.parametrize("n", [16, 20, 22])
def test_extremes_kernel_checks_its_real_peak(monkeypatch, n):
    """The bytes handed to the memory check are the kernel's traced peak,
    its width tables built afresh, up to a few kilobytes of small arrays
    and interpreter objects."""
    named = []
    monkeypatch.setattr(discrepancy, "_check_memory", lambda nbytes, what: named.append(nbytes))
    g = gen_gnp(n, HALF, seed=1)
    _build_extremes(g)  # builds g.adj and numpy's first-use state
    _low_half.cache_clear()
    _high_half.cache_clear()
    tracemalloc.start()
    try:
        _build_extremes(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert named[-1] <= peak <= named[-1] + 16384, (named[-1], peak)


# ---------------------------------------------------------------------------
# the table's readers against the loops they replaced

def assert_readers_match_reference(g):
    """Disc at both signs and jumbledness, unrestricted and at every k,
    read off g's table equal the former selection loops: value and
    witness, at p from the density to both ends of the unit interval."""
    slots = _subset_extremes(g)
    tiny = Fraction(1, 10 ** 30)
    for p in {density(g), Fraction(0), Fraction(1), HALF, tiny, 1 - tiny}:
        for k in (None, *range(g.n + 1)):
            for sign in ("positive", "negative"):
                assert discrepancy_exact(g, p, sign, k) == \
                    support.reference_disc_from_slots(slots, p, sign, k), (g, p, sign, k)
            if k != 0:
                assert jumbledness_exact(g, p, k) == \
                    support.reference_jumbled_from_slots(slots, p, k), (g, p, k)


def test_table_readers_match_reference_on_tie_heavy_graphs():
    for g in tie_heavy_graphs():
        assert_readers_match_reference(g)


@pytest.mark.parametrize("n", range(15))
def test_table_readers_match_reference_on_gnp(n):
    for p in (Fraction(1, 4), Fraction(1, 3), HALF, Fraction(3, 4)):
        for seed in range(3):
            assert_readers_match_reference(gen_gnp(n, p, seed=100 * n + seed))


# ---------------------------------------------------------------------------
# one table per graph, one set of kernel tables per width

@pytest.fixture
def builds(monkeypatch):
    """The graphs the kernel runs on, in call order."""
    built = []
    real = discrepancy._build_extremes

    def counting(g):
        built.append(g)
        return real(g)
    monkeypatch.setattr(discrepancy, "_build_extremes", counting)
    return built


def test_exact_queries_on_one_graph_share_one_table(builds):
    g = gen_gnp(12, HALF, seed=7)
    for p in (Fraction(1, 5), density(g), Fraction(5, 7)):
        for k in (None, 1, 3, 12):
            discrepancy_exact(g, p, "positive", k=k)
            discrepancy_exact(g, p, "negative", k=k)
            jumbledness_exact(g, p, k=k)
        verify_jumbledness_bound(g, p, g.n, g.n)
    assert len(builds) == 1 and builds[0] is g


def test_derived_graphs_get_their_own_tables(builds):
    g = gen_gnp(11, Fraction(1, 3), seed=2)
    first = _subset_extremes(g)
    co = complement(g)
    sub, _ = induced_subgraph(g, range(1, 10))
    whole, _ = induced_subgraph(g, range(g.n))
    assert whole == g and whole is not g
    for h in (co, sub, whole):
        assert _subset_extremes(h) == _build_extremes(h)
        assert_extremes_match_reference(h, HALF)
    assert _subset_extremes(g) is first
    assert builds == [g, co, sub, whole]


def test_cached_table_equals_a_fresh_build_and_the_reference():
    for g in (support.petersen(), gen_gnp(15, Fraction(2, 5), seed=4)):
        first = _subset_extremes(g)
        assert isinstance(first, tuple) and _subset_extremes(g) is first
        assert first == _build_extremes(g)
        for p in (density(g), Fraction(1, 3)):
            assert_extremes_match_reference(g, p)


def test_width_tables_are_read_only():
    for table in _low_half(5) + _high_half(6):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    assert _low_half(5)[0] is _low_half(5)[0]


def test_exact_kernels_refuse_keys_beyond_64_bits():
    big = support.empty(53)
    for call in (lambda: discrepancy_exact(big, HALF, cap=60),
                 lambda: discrepancy_exact(big, HALF, "negative", cap=60),
                 lambda: jumbledness_exact(big, HALF, cap=60),
                 lambda: verify_jumbledness_bound(big, HALF, 53, 53, cap=60)):
        with pytest.raises(PreconditionError, match="n <= 52 whatever the cap"):
            call()


def test_exact_kernels_refuse_tables_beyond_physical_memory(monkeypatch):
    g12, g13 = gen_gnp(12, HALF, seed=1), gen_gnp(13, HALF, seed=1)
    want = discrepancy_exact(g12, HALF)
    monkeypatch.setattr(graph_mod.os, "sysconf", lambda name: 256)  # 65536 bytes
    # The kernel's tables, uint16 keys and int64 merge arrays (_build_extremes):
    # 35648 bytes at n = 12, 68864 at n = 13.
    # A copy of g12 without its table, so that the kernel runs again.
    assert discrepancy_exact(complement(complement(g12)), HALF) == want
    for call in (lambda: discrepancy_exact(g13, HALF),
                 lambda: jumbledness_exact(g13, HALF),
                 lambda: verify_jumbledness_bound(g13, HALF, 13, 13)):
        with pytest.raises(PreconditionError, match="physical memory"):
            call()


def test_bound_checker_reads_the_standalone_values():
    for g in support.structured_catalog() + [gen_gnp(12, HALF, seed=3)]:
        p = density(g)
        report = verify_jumbledness_bound(g, p, g.n, g.n)
        plus = discrepancy_exact(g, p, "positive").value
        minus = discrepancy_exact(g, p, "negative").value
        assert (report.disc_plus, report.disc_both, report.j) == (
            plus, max(plus, minus), jumbledness_exact(g, p).j)


def test_exact_and_heuristic_refuse_p_outside_unit_interval():
    for p in (3, -1, Fraction(3, 2), 5):
        with pytest.raises(PreconditionError):
            discrepancy_exact(K31, p)
        with pytest.raises(PreconditionError):
            jumbledness_exact(K31, p)
        with pytest.raises(PreconditionError):
            verify_jumbledness_bound(K31, p, 3, 3)
        with pytest.raises(PreconditionError):
            discrepancy_local_search(K31, p)
        with pytest.raises(PreconditionError):
            edge_surplus(K31, p, [0, 1, 2])


# ---------------------------------------------------------------------------
# exact discrepancy

def test_disc_frozen_values():
    plus = discrepancy_exact(K31, HALF, "positive")
    assert plus.value == Fraction(3, 2) and plus.witness == {0, 1, 2}
    minus = discrepancy_exact(K31, HALF, "negative")
    assert minus.value == HALF and minus.witness == {0, 1, 3}


def test_disc_trivial_values():
    for sign in ("positive", "negative"):
        assert discrepancy_exact(support.clique(4), 1, sign).value == 0
    assert discrepancy_exact(support.empty(3), 0, "positive").value == 0


def test_disc_rejects_bad_arguments():
    with pytest.raises(ValueError):
        discrepancy_exact(K31, HALF, "plus")
    with pytest.raises(ValueError):
        discrepancy_exact(K31, HALF, k=5)
    with pytest.raises(PreconditionError):
        discrepancy_exact(support.empty(21), HALF)


@given(graphs(max_n=7), densities, st.sampled_from(["positive", "negative"]))
def test_disc_matches_brute_force(g, p, sign):
    want_value, want_witness = support.brute_disc(g, p, sign)
    got = discrepancy_exact(g, p, sign)
    assert got.value == max(want_value, 0)
    if got.value > 0:
        assert tuple(sorted(got.witness)) == want_witness
    else:
        assert got.witness == frozenset()


@given(graphs(min_n=1, max_n=6), densities,
       st.sampled_from(["positive", "negative"]), st.data())
def test_disc_k_restricted_matches_brute_force(g, p, sign, data):
    k = data.draw(st.integers(1, g.n))
    want_value, want_witness = support.brute_disc(g, p, sign, k=k)
    got = discrepancy_exact(g, p, sign, k=k)
    assert got.value == want_value
    assert tuple(sorted(got.witness)) == want_witness
    assert len(got.witness) == k


@given(graphs(min_n=2))
def test_disc_positive_at_density_is_nonnegative(g):
    assert discrepancy_exact(g, density(g), "positive").value >= 0


# ---------------------------------------------------------------------------
# jumbledness

def test_jumbledness_frozen_values():
    rep = jumbledness_exact(K31, HALF)
    assert rep.j == HALF and rep.witness == {0, 1, 2}
    assert jumbledness_exact(support.clique(5), 1).j == 0
    assert jumbledness_exact(support.clique(2), 1).j == 0


@given(graphs(min_n=1, max_n=7), densities)
def test_jumbledness_matches_brute_force(g, p):
    want_value, want_witness = support.brute_jumbledness(g, p)
    got = jumbledness_exact(g, p)
    assert got.j == want_value
    assert tuple(sorted(got.witness)) == want_witness


@given(graphs(min_n=1, max_n=6), densities, st.data())
def test_jumbledness_k_restricted_matches_brute_force(g, p, data):
    k = data.draw(st.integers(1, g.n))
    want_value, want_witness = support.brute_jumbledness(g, p, k=k)
    got = jumbledness_exact(g, p, k=k)
    assert got.j == want_value
    assert tuple(sorted(got.witness)) == want_witness


@given(graphs(min_n=1, max_n=7), densities)
def test_jumbledness_is_max_over_k(g, p):
    overall = jumbledness_exact(g, p).j
    assert overall == max(jumbledness_exact(g, p, k=k).j for k in range(1, g.n + 1))


# ---------------------------------------------------------------------------
# dualities and the k-set identity

@given(graphs(max_n=7), densities)
def test_negative_disc_is_positive_disc_of_complement(g, p):
    here = discrepancy_exact(g, p, "negative")
    there = discrepancy_exact(complement(g), 1 - p, "positive")
    assert here.value == there.value
    assert here.witness == there.witness


@given(graphs(min_n=1, max_n=7), densities)
def test_jumbledness_complement_duality(g, p):
    assert jumbledness_exact(g, p).j == jumbledness_exact(complement(g), 1 - p).j


@given(graphs(min_n=1, max_n=6), densities, st.data())
def test_two_sided_disc_on_k_sets_is_k_times_jumbledness(g, p, data):
    k = data.draw(st.integers(1, g.n))
    two_sided = max(discrepancy_exact(g, p, "positive", k=k).value,
                    discrepancy_exact(g, p, "negative", k=k).value)
    assert two_sided == k * jumbledness_exact(g, p, k=k).j


# ---------------------------------------------------------------------------
# local search

def test_local_search_frozen_values():
    got = discrepancy_local_search(K31, HALF, "positive", seed=0)
    assert got.value == Fraction(3, 2) and got.witness == {0, 1, 2}
    assert discrepancy_local_search(support.clique(6), 1, "positive", seed=3).value == 0
    for g, k in ((support.empty(0), None), (K31, 0)):  # only the empty set to score
        got = discrepancy_local_search(g, HALF, "negative", k=k)
        assert (got.value, got.witness, got.k) == (0, frozenset(), k)


def test_local_search_is_deterministic():
    g = support.random_graph(12, seed=5)
    a = discrepancy_local_search(g, HALF, "positive", seed=9, restarts=4)
    b = discrepancy_local_search(g, HALF, "positive", seed=9, restarts=4)
    assert (a.value, a.witness) == (b.value, b.witness)


def test_local_search_never_beats_exact_over_100_seeds():
    for i in range(10):
        g = support.random_graph(8 + i % 5, seed=100 + i, p=Fraction(2, 5))
        p = density(g)
        for sign in ("positive", "negative"):
            exact = discrepancy_exact(g, p, sign).value
            for seed in range(5):
                found = discrepancy_local_search(g, p, sign, seed=seed, restarts=2)
                assert found.value <= exact


@pytest.mark.parametrize("restarts", [0, -2])
def test_local_search_refuses_nonpositive_restarts(restarts):
    with pytest.raises(PreconditionError, match="restarts must be positive"):
        discrepancy_local_search(K31, HALF, "positive", restarts=restarts)


TINY = Fraction(1, 10 ** 30)


@settings(max_examples=300)
@given(graphs(max_n=9), st.sampled_from(["positive", "negative"]),
       st.integers(0, 2 ** 32), st.integers(1, 4), st.data())
def test_local_search_matches_reference(g, sign, seed, restarts, data):
    p = data.draw(st.sampled_from([density(g), Fraction(0), Fraction(1), TINY, 1 - TINY]))
    k = data.draw(st.one_of(st.none(), st.integers(0, g.n)))
    got = discrepancy_local_search(g, p, sign, seed=seed, restarts=restarts, k=k)
    want = support.reference_discrepancy_local_search(g, p, sign, seed, restarts, k)
    assert (got.value, got.witness, got.sign, got.k) == want + (sign, k)


def test_local_search_matches_reference_on_move_ties():
    # the best addition and the best removal can gain the same, and
    # then the smaller vertex must win; these graphs reach such ties
    # at p = 1/3, at 2/5 and at their own density
    for i in range(320):
        g = support.random_graph(3 + i % 7, seed=i, p=Fraction(1 + i % 4, 5))
        for p in (Fraction(1, 3), Fraction(2, 5), density(g)):
            for sign in ("positive", "negative"):
                got = discrepancy_local_search(g, p, sign, seed=i, restarts=4)
                assert (got.value, got.witness) == \
                    support.reference_discrepancy_local_search(g, p, sign, i, 4)


@pytest.mark.parametrize("n", [20, 40])
def test_local_search_matches_reference_on_gnp(n):
    for seed in range(3):
        g = gen_gnp(n, Fraction(1 + seed, 4), seed)
        for p in (density(g), TINY, 1 - TINY):
            for sign in ("positive", "negative"):
                for k in (None, n // 3):
                    got = discrepancy_local_search(g, p, sign, seed=seed, restarts=3, k=k)
                    want = support.reference_discrepancy_local_search(
                        g, p, sign, seed, 3, k)
                    assert (got.value, got.witness) == want


def _local_search_cases():
    cases = {}
    for seed in (0, 1, 2):
        # the cli-files disc job: disc --heuristic --restarts 3 on its
        # sparse file at the file's own density
        def cli_files(seed=seed):
            g = gen_gnp(1000, Fraction(1, 110), seed)
            return discrepancy_local_search(g, density(g), "positive", seed=seed, restarts=3)
        cases[f"cli-files-seed{seed}"] = cli_files
    for sign in ("positive", "negative"):
        cases[f"gnp60-k10-{sign}"] = lambda sign=sign: discrepancy_local_search(
            gen_gnp(60, HALF, 0), HALF, sign, seed=0, k=10)
    return cases


LOCAL_SEARCH_DIGESTS = {
    "cli-files-seed0": "c5c2dbc0350033be3e310ae269a19b2f584b87c193887f39515acd96412e418b",
    "cli-files-seed1": "57223a40e403f3d875ed2fe35c0f9cdf75c0c714d1047dc5f514236fa87b2123",
    "cli-files-seed2": "ad794e018d3dfa7f999e5c199d06e7abd80d317b3db5f888001755f2ea9a6a5a",
    "gnp60-k10-positive": "665ed7a67f0d45584fbbb5642dfeb986c4f62d6fa66191002c2d7660222df5b5",
    "gnp60-k10-negative": "f033a34e787ad6f16e49d5b46703b6ad5aca5a78fe1df38e8df17548f3ee7cf6",
}


@pytest.mark.parametrize("name", sorted(LOCAL_SEARCH_DIGESTS))
def test_local_search_outputs_are_frozen(name):
    got = _local_search_cases()[name]()
    text = f"{got.value} {sorted(got.witness)} {got.sign} {got.k}"
    assert hashlib.sha256(text.encode()).hexdigest() == LOCAL_SEARCH_DIGESTS[name]


def test_k_out_of_range_is_refused():
    for k in (-1, 5):
        for call in (lambda: discrepancy_exact(K31, HALF, k=k),
                     lambda: discrepancy_local_search(K31, HALF, k=k)):
            with pytest.raises(PreconditionError, match=f"k must lie in 0..4, got {k}"):
                call()
    for k in (0, 5):
        with pytest.raises(PreconditionError, match=f"k must lie in 1..4, got {k}"):
            jumbledness_exact(K31, HALF, k=k)


def test_k_is_checked_on_the_empty_graph():
    empty = support.empty(0)
    for k in (0, 3):
        with pytest.raises(PreconditionError, match=f"k must lie in 1..0, got {k}"):
            jumbledness_exact(empty, HALF, k=k)
    with pytest.raises(PreconditionError, match="k must lie in 0..0, got 3"):
        discrepancy_exact(empty, HALF, k=3)
    assert jumbledness_exact(empty, HALF).j == 0


@given(graphs(min_n=1, max_n=7), densities, st.integers(0, 3), st.data())
def test_local_search_k_keeps_the_size(g, p, seed, data):
    k = data.draw(st.integers(1, g.n))
    got = discrepancy_local_search(g, p, "positive", seed=seed, k=k)
    assert len(got.witness) == k
    assert got.value <= discrepancy_exact(g, p, "positive", k=k).value


# ---------------------------------------------------------------------------
# the f >= disc+/j, g >= disc/j checker

def test_bound_checker_frozen_case():
    report = verify_jumbledness_bound(K31, HALF, f_value=3, g_value=3)
    assert not report.vacuous
    assert report.disc_plus == Fraction(3, 2) and report.j == HALF
    assert report.disc_plus / report.j == 3


def test_bound_checker_vacuous_on_complete_graph():
    assert verify_jumbledness_bound(support.clique(5), 1, 5, 5).vacuous


def test_bound_checker_raises_on_false_claim():
    with pytest.raises(VerificationError):
        verify_jumbledness_bound(K31, HALF, f_value=2, g_value=3)
    with pytest.raises(VerificationError):
        verify_jumbledness_bound(K31, HALF, f_value=3, g_value=2)


@settings(max_examples=25)
@given(graphs(min_n=2, max_n=7))
def test_bound_checker_passes_on_true_oracle_values(g):
    p = density(g)
    f_value, _ = support.brute_largest_full(g, p)
    report = verify_jumbledness_bound(g, p, f_value, support.brute_g_value(g))
    if not report.vacuous:
        assert report.f_value * report.j >= report.disc_plus
