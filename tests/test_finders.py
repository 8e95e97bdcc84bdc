"""Full-subgraph finders: oracle, greedy, swap partition, size-law finders.

Certification is always independent: witnesses are re-checked with the
brute-force predicates from support.py, never with the code that
produced them.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import support
from conftest import densities, graphs, proper_fractions
from fullsub import (
    FullSubgraphResult,
    GValue,
    Graph,
    PreconditionError,
    QFullOutcome,
    VerificationError,
    ceil_sqrt_frac,
    complement,
    density,
    discrepancy_exact,
    full_two_thirds,
    gen_gnp,
    gen_greedy_adversary,
    gen_multipartite_planted,
    greedy_full,
    half_full,
    induced_subgraph,
    is_full,
    is_relatively_full,
    largest_full_or_cofull,
    one_over_r_full,
    oracle_largest_full,
    qfull_partition,
    small_p_full,
    small_p_size_floor,
    two_thirds_size_floor,
)
from fullsub import finders, rng
from fullsub.finders import _certified, _fullness_bar, _peel
from fullsub.graph import _degrees_within, iter_bits, to_mask

K31 = support.disjoint_union(support.clique(3), support.empty(1))
HALF = Fraction(1, 2)


def regular_catalog() -> list:
    """Regular graphs of assorted degrees, orders and parities."""
    out = [support.clique(n) for n in range(2, 8)]
    out += [support.cycle(n) for n in range(3, 11)]
    out += [support.complete_bipartite(t, t) for t in range(1, 5)]
    out += [support.matching(k) for k in (1, 2, 4)]
    out += [complement(support.cycle(n)) for n in (5, 6, 7, 8)]
    out += [support.circulant(9, (1, 2)), support.circulant(10, (1, 2, 3)),
            support.circulant(12, (1, 2, 3, 4)), support.circulant(11, (2, 3))]
    out.append(support.petersen())
    return out


# ---------------------------------------------------------------------------
# fullness predicates

def test_is_full_closed_cases():
    assert is_full(K31, HALF, [0, 1, 2]) == (True, None)
    assert is_full(K31, HALF, [0, 1, 2, 3]) == (False, 3)
    assert is_full(support.cycle(5), HALF, range(5)) == (True, None)
    assert is_full(K31, HALF, []) == (True, None)
    assert is_full(K31, HALF, [3]) == (True, None)


@given(graphs(max_n=8), densities, st.data())
def test_is_full_matches_brute_force(g, p, data):
    subset = data.draw(st.lists(st.integers(0, max(0, g.n - 1)),
                                max_size=g.n, unique=True)) if g.n else []
    for mode in ("full", "cofull"):
        ok, bad = is_full(g, p, subset, mode)
        assert ok == support.brute_is_full(g, p, subset, mode)
        if not ok:
            assert bad in subset


@given(graphs(max_n=8), densities, st.data())
def test_cofull_is_full_in_the_complement(g, p, data):
    subset = data.draw(st.lists(st.integers(0, max(0, g.n - 1)),
                                max_size=g.n, unique=True)) if g.n else []
    for h in support.twins(g):
        assert is_full(h, p, subset, "cofull") == is_full(complement(h), 1 - p, subset, "full")


@given(graphs(max_n=9), densities)
def test_cofull_oracle_gives_one_witness_on_both_twins(g, p):
    masks, mat = support.twins(g)
    got = [oracle_largest_full(h, p, "cofull") for h in (masks, mat)]
    assert got[0] == got[1]
    assert got[0].size == support.brute_largest_full(g, p, "cofull")[0]


@given(graphs(max_n=8), proper_fractions, st.data())
def test_is_relatively_full_matches_brute_force(g, q, data):
    subset = data.draw(st.lists(st.integers(0, max(0, g.n - 1)),
                                max_size=g.n, unique=True)) if g.n else []
    ok, bad = is_relatively_full(g, q, subset)
    assert ok == support.brute_is_relatively_full(g, q, subset)
    if not ok:
        assert bad in subset


def test_ceil_sqrt_frac_closed_cases():
    assert ceil_sqrt_frac(Fraction(0)) == 0
    assert ceil_sqrt_frac(Fraction(1)) == 1
    assert ceil_sqrt_frac(Fraction(17, 16)) == 2
    assert ceil_sqrt_frac(Fraction(30)) == 6  # 3*3 < 30/... 5^2=25 < 30 <= 36


@given(st.fractions(min_value=0, max_value=10**9))
def test_ceil_sqrt_frac_is_the_least_dominating_root(x):
    c = ceil_sqrt_frac(x)
    assert c * c >= x
    assert c == 0 or (c - 1) * (c - 1) < x


# ---------------------------------------------------------------------------
# exact oracle

def test_oracle_closed_cases():
    assert oracle_largest_full(support.clique(6), 1).size == 6
    got = oracle_largest_full(K31, HALF)
    assert got.size == 3 and got.vertices == {0, 1, 2}
    assert oracle_largest_full(support.cycle(5), HALF).size == 5


def test_oracle_cap_refusal():
    with pytest.raises(PreconditionError):
        oracle_largest_full(support.empty(21), HALF)
    assert oracle_largest_full(support.empty(21), Fraction(0), cap=21).size == 21


@settings(max_examples=40)
@given(graphs(min_n=1, max_n=7), densities, st.sampled_from(["full", "cofull"]))
def test_oracle_matches_brute_force(g, p, mode):
    want_size, want_witness = support.brute_largest_full(g, p, mode)
    got = oracle_largest_full(g, p, mode)
    assert got.size == want_size
    assert tuple(sorted(got.vertices)) == want_witness


def _assert_oracle_matches_reference(g, p, mode):
    size, witness, min_degree = support.reference_oracle_largest_full(g, p, mode)
    got = oracle_largest_full(g, p, mode)
    assert (got.size, tuple(sorted(got.vertices)), got.min_degree) == \
        (size, witness, min_degree), (g.n, p, mode)


def test_oracle_matches_reference_on_tie_heavy_graphs():
    # every graph on up to 5 vertices, the structured catalog and the
    # empty and complete graphs: many optima tie, so the lex-smallest
    # witness is what is tested
    cases = [g for n in range(1, 6) for g in support.all_graphs(n)]
    cases += support.structured_catalog()
    cases += [f(n) for f in (support.empty, support.clique) for n in (1, 2, 9, 14)]
    for g in cases:
        for p in {Fraction(0), Fraction(1, 3), density(g), Fraction(3, 4), Fraction(1)}:
            for mode in ("full", "cofull"):
                _assert_oracle_matches_reference(g, p, mode)


@pytest.mark.parametrize("n", [14, 16, 18, 20])
def test_oracle_matches_reference_on_gnp(n):
    for p in (Fraction(1, 4), HALF, Fraction(3, 4)):
        for seed in range(3):
            g = gen_gnp(n, p, seed)
            d = density(g)
            for h, q in ((g, d), (complement(g), 1 - d)):
                for mode in ("full", "cofull"):
                    _assert_oracle_matches_reference(h, q, mode)


def _oracle_at_density(g, mode):
    return oracle_largest_full(g, density(g), mode, cap=g.n)


def _assert_dfs_matches_reference(monkeypatch, graphs):
    """Every call the oracle makes to finders._first_full_set on graphs,
    at p = density in both modes, gives what the reference gives."""
    calls, real = [], finders._first_full_set

    def spy(*args):
        got = real(*args)
        calls.append((args, got))
        return got

    monkeypatch.setattr(finders, "_first_full_set", spy)
    for g in graphs:
        for mode in ("full", "cofull"):
            _oracle_at_density(g, mode)
    assert calls
    for args, got in calls:
        assert got == support.reference_first_full_set(*args), args[1:]


# past the exhaustive reference's reach: the depth-first search against
# its first form, call by call
@pytest.mark.parametrize("n", [24, 28, 32])
def test_dfs_matches_reference_on_gnp(n, monkeypatch):
    _assert_dfs_matches_reference(monkeypatch, [
        gen_gnp(n, p, seed) for p in (Fraction(1, 4), HALF, Fraction(3, 4)) for seed in range(3)])


def test_dfs_matches_reference_on_constructions(monkeypatch):
    graphs = [gen_multipartite_planted(k, 1)[0] for k in range(7, 13)]
    graphs += [gen_multipartite_planted(k, 2)[0] for k in range(6, 9)]  # N = 18, 21, 24
    graphs += [gen_greedy_adversary(k) for k in range(2, 6)]
    _assert_dfs_matches_reference(monkeypatch, graphs)


def test_oracle_refuses_p_outside_unit_interval():
    for p in (Fraction(3), Fraction(-1)):
        with pytest.raises(PreconditionError):
            oracle_largest_full(support.path(4), p)


# ---------------------------------------------------------------------------
# greedy peeling

def test_greedy_closed_case():
    got = greedy_full(K31)
    assert got.size == 3 and got.vertices == {0, 1, 2}
    assert got.trace == (3,)
    assert got.p_used == HALF


def test_greedy_on_regular_graphs_returns_everything():
    for g in regular_catalog():
        got = greedy_full(g)
        assert got.size == g.n and got.trace == ()


@given(graphs(min_n=1), st.sampled_from(["min-index", "adversarial-antipodal"]))
def test_greedy_output_is_full_at_density(g, tie_break):
    got = greedy_full(g, tie_break=tie_break)
    assert got.size >= 1
    assert support.brute_is_full(g, density(g), sorted(got.vertices))


@given(graphs(min_n=1), densities)
def test_greedy_honours_p_override(g, p):
    got = greedy_full(g, p=p)
    assert got.p_used == p
    assert support.brute_is_full(g, p, sorted(got.vertices))


TIE_BREAKS = st.sampled_from(["min-index", "adversarial-antipodal"])


def peel(g, *args, **kwargs):
    """_peel with its survivors' index array as a mask, the form
    reference_peel returns, once its key table is checked: d_kept at the
    survivors, as the mask walk counts it."""
    kept, trace, stopped, keys = _peel(g, *args, **kwargs)
    want = support.reference_degrees_within(support.reference_masks(g), kept.tolist())
    assert keys[kept].tolist() == list(want)
    return to_mask(kept.tolist(), g.n), trace, stopped


@given(graphs(min_n=1), densities, TIE_BREAKS)
def test_peel_matches_reference(g, p, tie_break):
    assert peel(g, p, tie_break) == support.reference_peel(g, p, tie_break)


@given(graphs(min_n=1), densities, TIE_BREAKS)
def test_cofull_peel_is_the_full_peel_of_the_complement(g, p, tie_break):
    # the co-full peel runs on complement's inverted packed rows
    assert peel(complement(g), 1 - p, tie_break) == \
        support.reference_peel(support.reference_complement(g), 1 - p, tie_break)


def _assert_cofull_greedy_is_greedy_on_the_complement(g):
    """The heuristic g's co-full greedy, greedy_full on complement's
    packed rows, against the reference peel of the complement built from
    masks; its witness is co-full in G at G's density."""
    h = support.reference_complement(g)
    got = greedy_full(complement(g))
    kept, trace, _ = support.reference_peel(h, density(h)) if g.n else (0, (), False)
    assert (got.vertices, got.trace, got.p_used) == \
        (frozenset(iter_bits(kept)), trace, density(h)), g.adj
    assert is_full(g, density(g), got.vertices, "cofull") == (True, None)


@pytest.mark.parametrize("n", range(6))
def test_cofull_greedy_matches_greedy_on_the_complement_on_every_small_graph(n):
    for g in support.all_graphs(n):
        _assert_cofull_greedy_is_greedy_on_the_complement(g)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 30, 200, 600])
def test_cofull_greedy_matches_greedy_on_the_complement_on_gnp(n):
    for p in (Fraction(1, 50), Fraction(1, 10), Fraction(1, 3), HALF, Fraction(9, 10)):
        for seed in range(3):
            _assert_cofull_greedy_is_greedy_on_the_complement(gen_gnp(n, p, seed))


def test_cofull_greedy_matches_greedy_on_the_complement_on_constructions():
    graphs = [gen_greedy_adversary(k) for k in (2, 3, 5, 10, 25)]
    graphs += [gen_multipartite_planted(k, r)[0] for k, r in (
        (3, 1), (6, 1), (10, 1), (16, 1), (6, 2), (10, 2), (16, 2), (8, 3), (12, 3))]
    for g in graphs:
        _assert_cofull_greedy_is_greedy_on_the_complement(g)


@given(graphs(min_n=1), densities, TIE_BREAKS, st.integers(0, 9))
def test_peel_with_stop_matches_reference(g, p, tie_break, k):
    def stop(count, dmin):
        return count <= k

    assert peel(g, p, tie_break, stop) == support.reference_peel(g, p, tie_break, stop)


@pytest.mark.parametrize("n", [300, 1200])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
def test_peel_matches_reference_on_gnp(monkeypatch, n, p):
    g = gen_gnp(n, p, seed=n)
    dens = density(g)
    for tie_break in ("min-index", "adversarial-antipodal"):
        assert peel(g, dens, tie_break) == support.reference_peel(g, dens, tie_break)
    # full_two_thirds' aligned stop, taken from its own call
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs, peel(*args, **kwargs)))
        return _peel(*args, **kwargs)

    monkeypatch.setattr(finders, "_peel", spy)
    full_two_thirds(g)
    [(args, kwargs, got)] = calls
    assert got[2]  # the switch fired on these graphs
    assert got == support.reference_peel(*args, **kwargs)


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 3),
                               Fraction(999999, 1000000), Fraction(1, 2 ** 70 + 1)])
def test_fullness_bar_rounds_p_times_m_minus_1(p):
    for m in range(1, 61):
        assert _fullness_bar(p, m) == math.ceil(p * (m - 1))
        # co-full is checked as full in the complement at 1 - p; in G it
        # must still mean at most floor(p(m-1)): a star whose centre has
        # d leaves is co-full exactly when d is at most that
        floor = math.floor(p * (m - 1))
        for d in {floor, floor + 1} & set(range(m)):
            star = Graph.from_edges(m, [(0, v) for v in range(1, d + 1)])
            want = (True, None) if d <= floor else (False, 0)
            assert is_full(star, p, range(m), "cofull") == want
    with pytest.raises(ValueError, match="mode must be"):
        is_full(K31, p, range(3), "half")


def test_greedy_rejects_unknown_tie_break():
    with pytest.raises(ValueError):
        greedy_full(K31, tie_break="random")


@pytest.mark.parametrize("p", [2, -1, Fraction(-1, 3), Fraction(4, 3)])
def test_greedy_refuses_p_outside_unit_interval(p):
    with pytest.raises(PreconditionError, match=r"\[0, 1\]"):
        greedy_full(K31, p=p)


@settings(max_examples=30)
@given(graphs(min_n=2, max_n=9))
def test_greedy_from_surplus_witness_meets_the_guarantee(g):
    p = density(g)
    plus = discrepancy_exact(g, p, "positive")
    if plus.value == 0:
        return
    h, _ = induced_subgraph(g, sorted(plus.witness))
    got = greedy_full(h, p=p, alpha=plus.value)
    floor = ceil_sqrt_frac(2 * plus.value / (1 - p))
    assert got.guarantee == floor
    assert got.size >= floor
    assert support.brute_is_full(h, p, sorted(got.vertices))


def test_greedy_refuses_a_surplus_at_p_one():
    with pytest.raises(ValueError, match="alpha > 0 is impossible at p = 1"):
        greedy_full(support.clique(4), alpha=1)


def test_greedy_guarantee_is_exact_on_planted_cliques():
    # clique of size m plus isolated vertices: the guarantee collapses
    # to ceil(sqrt(m(m-1))) = m whenever n > m
    for m in range(3, 7):
        for n in range(m + 1, 13):
            g = support.disjoint_union(support.clique(m), support.empty(n - m))
            p = density(g)
            alpha = discrepancy_exact(g, p, "positive").value
            got = greedy_full(g, alpha=alpha)
            assert got.guarantee == m
            assert got.size == m


# ---------------------------------------------------------------------------
# swap bipartition at ratio q

def brute_potential(g, q: Fraction, x_side) -> int:
    """(b-a) e(X) + a e(Y), recomputed from scratch."""
    a, b = q.numerator, q.denominator
    y_side = [v for v in range(g.n) if v not in set(x_side)]
    return (b - a) * support.subset_edges(g, x_side) \
        + a * support.subset_edges(g, y_side)


def assert_swap_local_max(g, q: Fraction, outcome):
    xs = sorted(outcome.x_side)
    ys = sorted(outcome.y_side)
    base = brute_potential(g, q, xs)
    for x in xs:
        for y in ys:
            swapped = [v for v in xs if v != x] + [y]
            assert brute_potential(g, q, swapped) <= base


def test_qfull_closed_cases():
    got = qfull_partition(support.clique(5), HALF)
    assert got.variant == "i" and len(got.set_q) == 3
    assert support.brute_is_relatively_full(support.clique(5), HALF, got.set_q)

    got = qfull_partition(support.complete_bipartite(3, 3), HALF)
    assert got.variant == "iii"
    assert len(got.set_q) == 4 and len(got.set_1mq) == 4
    for side in (got.set_q, got.set_1mq):
        assert support.brute_is_relatively_full(
            support.complete_bipartite(3, 3), HALF, side)
    # no 3-set of K_{3,3} keeps half of every degree
    for xs in combinations(range(6), 3):
        assert not support.brute_is_relatively_full(
            support.complete_bipartite(3, 3), HALF, xs)


def test_qfull_refuses_a_denominator_past_int64_swap_scores():
    with pytest.raises(PreconditionError, match="q denominator too large"):
        qfull_partition(support.cycle(5), Fraction(1, 2 ** 62))


def test_qfull_boundary_ratios():
    got = qfull_partition(support.cycle(5), Fraction(0))
    assert got.variant == "i" and got.set_q == frozenset()
    got = qfull_partition(support.cycle(5), Fraction(1))
    assert got.variant == "i" and got.set_q == frozenset(range(5))
    got = qfull_partition(support.empty(0), HALF)
    assert got == QFullOutcome("i", HALF, frozenset())


@settings(max_examples=40)
@given(graphs(min_n=1, max_n=9), proper_fractions)
def test_qfull_variant_sizes_and_certificates(g, q):
    n = g.n
    kx = -((-q.numerator * n) // q.denominator)  # ceil(qn)
    got = qfull_partition(g, q)
    if got.variant == "i":
        assert len(got.set_q) == kx
        assert support.brute_is_relatively_full(g, q, got.set_q)
    elif got.variant == "ii":
        assert len(got.set_1mq) == n - kx
        assert support.brute_is_relatively_full(g, 1 - q, got.set_1mq)
    else:
        assert len(got.set_q) == kx + 1
        assert len(got.set_1mq) == n - kx + 1
        assert support.brute_is_relatively_full(g, q, got.set_q)
        assert support.brute_is_relatively_full(g, 1 - q, got.set_1mq)


@settings(max_examples=25)
@given(graphs(min_n=1, max_n=8), proper_fractions)
def test_qfull_lands_on_a_swap_local_maximum(g, q):
    assert_swap_local_max(g, q, qfull_partition(g, q))


QFULL_RATIOS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)]


@settings(max_examples=200)
@given(graphs(), st.sampled_from(QFULL_RATIOS), st.sampled_from([None, 0, 1]))
def test_qfull_matches_reference(g, q, seed):
    assert qfull_partition(g, q, seed) == support.reference_qfull_partition(g, q, seed)


@pytest.mark.parametrize("n", [40, 200, 600])
@pytest.mark.parametrize("q", QFULL_RATIOS)
def test_qfull_matches_reference_on_gnp(n, q):
    g = gen_gnp(n, HALF, seed=n)
    for seed in (None, 0, 1):
        assert qfull_partition(g, q, seed) == support.reference_qfull_partition(g, q, seed)


@pytest.mark.parametrize("n", [200, 600])
@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(3, 4)])
@pytest.mark.parametrize("q", QFULL_RATIOS)
def test_qfull_matches_reference_on_sparser_and_denser_gnp(n, p, q):
    g = gen_gnp(n, p, seed=n)
    for seed in (None, 0, 1):
        assert qfull_partition(g, q, seed) == support.reference_qfull_partition(g, q, seed)


def test_qfull_matches_reference_on_gnp_2000():
    g = gen_gnp(2000, HALF, seed=2000)
    for seed in (None, 0, 1):
        assert qfull_partition(g, HALF, seed) == \
            support.reference_qfull_partition(g, HALF, seed)


# (n, p, graph seed, q, start seed): G(n, p) inputs on which the swap
# search makes 5 to 13 swaps, more than n // 2, so its sentinels are
# pinned back at least once before it stops. The swap counts were read
# from a copy of qfull_partition instrumented to count its loop, and the
# "pin restores the wrong side" mutant of scripts/mutants.py fails here.
PIN_CASES = [
    (6, HALF, 33, Fraction(2, 5), 0),
    (7, HALF, 86, Fraction(1, 3), 0),
    (8, Fraction(1, 3), 192, Fraction(2, 5), 0),
    (9, Fraction(1, 4), 120, Fraction(2, 5), 1),
    (10, Fraction(1, 3), 135, HALF, None),
    (12, Fraction(1, 3), 181, Fraction(1, 3), None),
    (16, HALF, 44, Fraction(2, 5), 0),
    (24, Fraction(2, 3), 1, Fraction(2, 5), 0),
]


@pytest.mark.parametrize("n, p, graph_seed, q, seed", PIN_CASES)
def test_qfull_matches_reference_past_a_sentinel_pin(n, p, graph_seed, q, seed):
    g = gen_gnp(n, p, graph_seed)
    assert qfull_partition(g, q, seed) == support.reference_qfull_partition(g, q, seed)


def _q_over(b: int, share: Fraction) -> Fraction:
    """The first a/b in lowest terms with a >= share * b."""
    a = math.ceil(share * b)
    while math.gcd(a, b) != 1:
        a += 1
    return Fraction(a, b)


@pytest.mark.parametrize("g", [gen_gnp(30, Fraction(1, 3), 30), gen_gnp(30, HALF, 30),
                               gen_gnp(41, HALF, 41), support.complete_bipartite(12, 18)],
                         ids=["gnp30-third", "gnp30-half", "gnp41-half", "k12-18"])
def test_qfull_matches_the_int64_reference_across_the_key_width_change(g):
    """The swap keys are int32 while b*n < 2^28 and int64 from there: q
    with b*n just below and just above 2^28, and just below 2^31, where
    int32 keys would overflow. On K_{12,18} at q = 2/5 the start takes
    the small side, so |u| reaches 7.2b, past int32's sentinels there."""
    below = ((1 << 28) - 1) // g.n
    for b in (below, below + 1, ((1 << 31) - 1) // g.n):
        for share in (Fraction(1, 3), Fraction(2, 5), HALF):
            q = _q_over(b, share)
            for seed in (None, 0, 1):
                assert qfull_partition(g, q, seed) == \
                    support.reference_qfull_partition(g, q, seed), (q, seed)


@given(graphs(min_n=1, max_n=8), proper_fractions, st.integers(0, 5))
def test_qfull_seeded_starts_still_certify(g, q, seed):
    got = qfull_partition(g, q, seed=seed)
    assert got.variant in ("i", "ii", "iii")
    repeat = qfull_partition(g, q, seed=seed)
    assert (got.variant, got.set_q, got.set_1mq) == \
        (repeat.variant, repeat.set_q, repeat.set_1mq)


# ---------------------------------------------------------------------------
# half-full and 1/r-full

@given(graphs(min_n=1))
def test_half_full_size_law(g):
    got = half_full(g)
    assert got.size in (g.n // 2, g.n // 2 + 1)
    assert support.brute_is_relatively_full(g, HALF, got.vertices)


def test_half_full_on_regular_graphs_is_full_at_density():
    for g in regular_catalog():
        got = half_full(g)
        assert got.size in (g.n // 2, g.n // 2 + 1)
        assert support.brute_is_full(g, density(g), sorted(got.vertices))


def test_one_over_r_closed_cases():
    assert one_over_r_full(support.cycle(7), 1).size == 7

    got = one_over_r_full(support.clique(8), 3)
    assert got.size == 4
    assert support.brute_is_relatively_full(support.clique(8), Fraction(1, 3),
                                            got.vertices)
    # 2- and 3-subsets of K_8 cannot keep a 1/3 share of degree 7
    for m in (2, 3):
        for xs in combinations(range(8), m):
            assert not support.brute_is_relatively_full(
                support.clique(8), Fraction(1, 3), xs)

    got = one_over_r_full(support.cycle(6), 2)
    assert got.size == 3
    assert support.brute_is_relatively_full(support.cycle(6), HALF, got.vertices)


def test_one_over_r_refuses_r_below_one():
    with pytest.raises(PreconditionError, match="r must be a positive integer, got 0"):
        one_over_r_full(support.cycle(6), 0)


@settings(max_examples=40)
@given(graphs(min_n=1, max_n=10), st.integers(1, 8))
def test_one_over_r_window_and_certificate(g, r):
    got = one_over_r_full(g, r)
    assert g.n // r <= got.size <= -((-g.n) // r) + 1
    assert support.brute_is_relatively_full(g, Fraction(1, r), got.vertices)


@settings(max_examples=200)
@given(graphs(max_n=12), st.integers(1, 9), st.one_of(st.none(), st.integers(0, 2 ** 32)))
def test_one_over_r_matches_reference(g, r, seed):
    assert one_over_r_full(g, r, seed).vertices == \
        support.reference_one_over_r_full(g, r, seed)


def test_one_over_r_matches_reference_on_gnp():
    # G(n, (1 + t % 9)/10) with seed t: each of these graphs reaches
    # variant ii at q = 1/3 or 1/6 under some of the seeds
    cases = [(gen_gnp(n, Fraction(1 + t % 9, 10), t), r)
             for n, t in ((5, 500), (6, 282), (9, 32), (12, 166), (18, 338), (21, 95))
             for r in (3, 6, 9)]
    cases += [(gen_gnp(n, Fraction(1 + r % 3, 4), r), r) for n in (30, 60) for r in range(1, 10)]
    cases += [(gen_gnp(200, Fraction(t, 5), t), r) for t in (1, 2, 4) for r in (2, 4, 8)]
    for g, r in cases:
        for seed in (None, 0, 1, 2):
            assert one_over_r_full(g, r, seed).vertices == \
                support.reference_one_over_r_full(g, r, seed)


def test_one_over_r_window_on_larger_random_graphs():
    for i, (n, r) in enumerate([(60, 8), (57, 7), (44, 5), (60, 3), (33, 2),
                                (59, 6), (48, 4), (40, 8)]):
        g = support.random_graph(n, seed=300 + i,
                                 p=Fraction(1 + i % 3, 3))
        got = one_over_r_full(g, r)
        assert n // r <= got.size <= -(-n // r) + 1
        ok, bad = is_relatively_full(g, Fraction(1, r), got.vertices)
        assert ok, f"vertex {bad} below a 1/{r} share"


@pytest.mark.parametrize("g", [gen_gnp(n, p, seed=n) for n in (300, 1200)
                               for p in (Fraction(1, 3), HALF)] + [gen_greedy_adversary(100)],
                         ids=["gnp300-third", "gnp300-half", "gnp1200-third", "gnp1200-half",
                              "adversary100"])
def test_one_over_r_live_levels_match_the_induced_subgraph_reference(g):
    """Each level runs on G's rows within the set the last one kept; the
    reference builds that set's induced subgraph and splits it instead."""
    for r in (2, 3, 4, 5, 8, 32):
        for seed in (None, 0, 1, 2):
            assert one_over_r_full(g, r, seed).vertices == \
                support.reference_one_over_r_full(g, r, seed), (r, seed)


# (n, p, graph seed, r, start seed): G(n, p) inputs with a second or
# third level that runs on m = 7 to 17 live vertices and makes more
# than m // 2 swaps, so its keys are pinned back with non-members off
# the live set. The
# swap counts were read from a copy of the level search instrumented to
# count its loop.
LIVE_PIN_CASES = [
    (14, Fraction(1, 4), 14, 4, 0),
    (18, Fraction(1, 4), 0, 8, 0),
    (29, Fraction(1, 4), 39, 4, 2),
    (34, Fraction(1, 4), 52, 4, None),
    (35, Fraction(1, 4), 34, 8, 2),
]


@pytest.mark.parametrize("n, p, graph_seed, r, seed", LIVE_PIN_CASES)
def test_one_over_r_matches_reference_past_a_pin_within_a_live_set(n, p, graph_seed, r, seed):
    g = gen_gnp(n, p, graph_seed)
    assert one_over_r_full(g, r, seed).vertices == support.reference_one_over_r_full(g, r, seed)


# ---------------------------------------------------------------------------
# the two-thirds-exponent finder

def test_two_thirds_size_floor_is_exact():
    for n in (10, 64, 200, 1601, 5000):
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 16)):
            s = two_thirds_size_floor(n, p)
            num, den = p.numerator, p.denominator
            rhs = (den - num) ** 2 * n * n
            assert 64 * (s + 1) ** 3 * den * den >= rhs
            assert s == 0 or 64 * s ** 3 * den * den < rhs


def test_two_thirds_rejects_out_of_range_density():
    with pytest.raises(PreconditionError):
        full_two_thirds(support.cycle(4))  # p = 2/3 too high for n = 4
    sparse = support.disjoint_union(support.clique(2), support.empty(30))
    with pytest.raises(PreconditionError):
        full_two_thirds(sparse)  # p below n^(-2/3)
    with pytest.raises(PreconditionError):
        full_two_thirds(support.clique(40))  # p = 1


def test_two_thirds_degenerate_orders_return_everything():
    for g in (support.empty(0), support.empty(1), support.clique(2)):
        assert full_two_thirds(g).size == g.n


def test_two_thirds_immediately_full_on_a_dense_circulant():
    g = support.circulant(200, range(1, 51))  # 100-regular, p just above 1/2
    got = full_two_thirds(g)
    assert got.size == 200 and got.trace == ()


def test_two_thirds_on_random_graphs_certifies_and_meets_floor():
    for seed in (0, 1, 2):
        g = support.random_graph(200, seed=seed)
        got = full_two_thirds(g)
        p = density(g)
        assert got.size >= two_thirds_size_floor(200, p)
        ok, bad = is_full(g, p, got.vertices)
        assert ok, f"vertex {bad} under-degreed"


@pytest.mark.parametrize("n", [300, 600, 1200, 2000])
def test_two_thirds_matches_the_induced_subgraph_reference_on_gnp(n):
    """The switch hands the kept set to the 1/r levels on G's rows; the
    reference switches through the induced subgraph G[kept]."""
    for p in (Fraction(1, 4), Fraction(1, 3), HALF):
        for seed in (0, 1):
            g = gen_gnp(n, p, seed)
            got = full_two_thirds(g)
            vertices, trace, stopped = support.reference_full_two_thirds(g)
            assert stopped and (got.vertices, got.trace) == (vertices, trace), (p, seed)


@pytest.mark.parametrize("n", [100, 400])
def test_two_thirds_matches_the_induced_subgraph_reference_on_the_adversary(n):
    g = gen_greedy_adversary(n)
    got = full_two_thirds(g)
    vertices, trace, stopped = support.reference_full_two_thirds(g)
    assert stopped and (got.vertices, got.trace) == (vertices, trace)


def test_two_thirds_hands_its_peel_degrees_to_the_levels(monkeypatch):
    handed = []

    def spy(g, r, live, base, seed=None):
        handed.append((g, live, base))
        return real(g, r, live, base, seed)

    real = finders._one_over_r
    monkeypatch.setattr(finders, "_one_over_r", spy)
    for seed in range(3):
        full_two_thirds(gen_gnp(200, HALF, seed))
    assert len(handed) == 3  # each of these switches to its 1/16 levels
    for g, live, base in handed:
        want = np.zeros(g.n, dtype=np.int64)
        want[live] = support.reference_degrees_within(support.reference_masks(g), live.tolist())
        assert base.tolist() == want.tolist()


@pytest.mark.parametrize("n, m", [(26, 12), (31, 13), (32, 13), (38, 14)])
def test_two_thirds_peels_on_past_its_switch_window(n, m):
    """K_m on 0..m-1 plus the path m-(m+1)-...-(n-1): no step aligns
    within the first ceil(n/2) deletions, so the switch closes and plain
    peeling runs on down to the clique."""
    g = Graph.from_edges(n, [*combinations(range(m), 2), *zip(range(m, n - 1), range(m + 1, n))])
    got = full_two_thirds(g)
    vertices, trace, stopped = support.reference_full_two_thirds(g)
    assert not stopped and (got.vertices, got.trace) == (vertices, trace)
    assert got.vertices == frozenset(range(m)) and len(got.trace) > -(-n // 2)


# ---------------------------------------------------------------------------
# the sparse finder

def test_small_p_rejects_dense_input():
    # p = 1/2 on four vertices is far above 4^(-2/3)
    with pytest.raises(PreconditionError):
        small_p_full(K31)
    with pytest.raises(PreconditionError):
        small_p_full(support.cycle(4))


def test_small_p_on_partial_clique_with_isolated_vertices():
    from fullsub import gen_clique_plus_isolated

    g = gen_clique_plus_isolated(27, 13)
    got = small_p_full(g)
    assert density(g) == Fraction(1, 27)
    assert got.size in (5, 6)  # sqrt(p) n = sqrt(27) here
    assert got.min_degree >= 1
    assert support.brute_is_full(g, density(g), sorted(got.vertices))


def test_small_p_trivial_and_degenerate_inputs():
    assert small_p_full(support.empty(7)).size == 7
    assert small_p_full(support.clique(2)).size == 2


def test_small_p_size_floor_is_exact():
    for n, p in ((27, Fraction(1, 27)), (100, Fraction(1, 200)),
                 (16, Fraction(1, 20)), (1000, Fraction(1, 3000))):
        c = small_p_size_floor(n, p)
        num, den = p.numerator, p.denominator
        assert (c + 1) ** 2 * den >= num * n * n
        assert c == 0 or c ** 2 * den < num * n * n


def test_small_p_window_across_sparse_instances():
    from fullsub import gen_clique_plus_isolated

    for n, e in ((27, 13), (30, 5), (40, 11), (64, 2), (50, 23)):
        g = gen_clique_plus_isolated(n, e)
        got = small_p_full(g)
        p = density(g)
        num, den = p.numerator, p.denominator
        count = got.size
        assert (count + 1) ** 2 * den >= num * n * n
        assert count <= 1 or (count - 1) ** 2 * den <= num * n * n
        assert support.brute_is_full(g, p, sorted(got.vertices))


def _small_p_peel(g):
    res = small_p_full(g)
    return res.vertices, res.trace


def _small_p_outcome(peel, g):
    """What peel(g) returns, or the type and message of its error."""
    try:
        return peel(g)
    except (PreconditionError, VerificationError) as err:
        return type(err), str(err)


@st.composite
def sparse_graphs(draw):
    """Graphs of order 1-60 with at most about n/2 edges, so that most
    lie below the n^(-2/3) density small_p_full accepts."""
    n = draw(st.integers(1, 60))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    return Graph.from_edges(n, draw(st.lists(pairs, max_size=n // 2 + 1)))


@given(st.one_of(graphs(min_n=1), sparse_graphs()))
def test_small_p_peel_matches_reference(g):
    assert _small_p_outcome(_small_p_peel, g) == \
        _small_p_outcome(support.reference_small_p_peel, g)


def test_small_p_window_stops_where_the_reference_predicates_do():
    # sparse G(n, p) up to n = 200, from about p = n^(-2/3) down to 1/(2n),
    # and cliques plus isolated vertices; the reference peel stops by its
    # lower_ok/upper_ok predicates, small_p_full by its integer window
    from fullsub import gen_clique_plus_isolated

    graphs = [gen_gnp(n, Fraction(1, den), seed)
              for n in (3, 8, 20, 50, 99, 150, 200)
              for den in sorted({math.ceil(n ** (2 / 3)), n, 2 * n})
              for seed in range(3)]
    graphs += [gen_clique_plus_isolated(n, e) for n in (16, 64, 200) for e in range(1, 13)]
    stopped = 0
    for g in graphs:
        got = _small_p_outcome(_small_p_peel, g)
        assert got == _small_p_outcome(support.reference_small_p_peel, g)
        if not isinstance(got[0], type):
            stopped += 1
            assert small_p_full(g).guarantee == small_p_size_floor(g.n, density(g))
    assert stopped >= len(graphs) // 2


@pytest.mark.parametrize("n,inv_p,seed", [(300, 100, 0), (1000, 110, 3), (2000, 2000, 0),
                                          (2000, 2000, 1)])
def test_small_p_peel_matches_reference_on_gnp(n, inv_p, seed):
    # on the mask-held and the packed-row twin alike
    for g in support.twins(gen_gnp(n, Fraction(1, inv_p), seed)):
        assert _small_p_outcome(_small_p_peel, g) == \
            _small_p_outcome(support.reference_small_p_peel, g)


# ---------------------------------------------------------------------------
# f-or-complement summary value

def test_g_value_closed_cases():
    got = largest_full_or_cofull(support.clique(6))
    assert got.value == 6 and got.side == "full"
    assert largest_full_or_cofull(support.cycle(5)).value == 5


def test_g_value_oracle_breaks_ties_to_the_full_side():
    # K_6 at p = 1: f(G) = f(G^c) = 6; the star K_{1,4} at p = 2/5:
    # f(G) = 3 (the centre and two leaves) < 4 = f(G^c) (the leaves)
    for g, f, co, side in ((support.clique(6), 6, 6, "full"),
                           (support.star(5), 3, 4, "cofull")):
        p = density(g)
        assert support.brute_largest_full(g, p)[0] == f
        assert support.brute_largest_full(g, p, "cofull")[0] == co
        got = largest_full_or_cofull(g)
        assert (got.value, got.side) == (max(f, co), side)
        assert got.witness == oracle_largest_full(g, p, side).vertices


@settings(max_examples=25)
@given(graphs(min_n=1, max_n=7))
def test_g_value_oracle_matches_brute_force(g):
    assert largest_full_or_cofull(g).value == support.brute_g_value(g)


@settings(max_examples=20)
@given(graphs(min_n=1, max_n=7))
def test_g_value_heuristic_is_a_certified_lower_bound(g):
    exact = largest_full_or_cofull(g)
    quick = largest_full_or_cofull(g, method="heuristic")
    assert quick.value <= exact.value
    mode = "full" if quick.side == "full" else "cofull"
    assert support.brute_is_full(g, quick.p, sorted(quick.witness), mode)


def test_g_value_rejects_unknown_method():
    with pytest.raises(ValueError):
        largest_full_or_cofull(K31, method="magic")


def test_g_value_heuristic_breaks_ties_to_the_full_side():
    # K_6 and its complement both keep all six vertices
    got = largest_full_or_cofull(support.clique(6), method="heuristic")
    assert (got.value, got.side, got.witness) == (6, "full", frozenset(range(6)))


# the heuristic skips a finder whose size ceiling lies below the largest
# candidate; these check the ceilings, the answer and the calls it skips

G_DENSITIES = (Fraction(1, 50), Fraction(1, 10), Fraction(1, 4), HALF, Fraction(3, 4),
               Fraction(9, 10))


def _ceiling_graphs():
    """The frozen two-thirds cases (seeds 0 and 2 at n = 30 peel to the
    end, the other four switch), a G(n, p) grid, the greedy adversary and
    the multipartite construction."""
    graphs = [gen_gnp(n, p, seed) for n, p in ((30, Fraction(1, 4)), (200, HALF))
              for seed in range(3)]
    graphs += [gen_gnp(n, p, seed) for n in (3, 9, 20, 60, 120) for p in G_DENSITIES
               for seed in range(2)]
    graphs += [gen_greedy_adversary(k) for k in (2, 5, 25)]
    graphs += [gen_multipartite_planted(k, r)[0] for k, r in ((8, 1), (16, 1), (8, 2), (12, 3))]
    return graphs


def test_size_ceilings_bound_what_each_finder_returns():
    switched = 0
    for g in _ceiling_graphs():
        for h in (g, complement(g)):
            n, p = h.n, density(h)
            num, den = p.numerator, p.denominator
            assert half_full(h, seed=0).size <= n // 2 + 1
            # small_p_full refuses where its window top does; else it keeps at
            # most the top, the largest c with c <= 1 or (c-1)^2 den <= num n^2,
            # or V(G) at p = 0, which greedy keeps too
            try:
                top = finders._small_p_top(n, p)
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    small_p_full(h)
            else:
                got = small_p_full(h)
                assert got.size <= top or got.vertices == greedy_full(h).vertices == set(range(n))
                assert top <= 1 or (top - 1) ** 2 * den <= num * n * n
                assert top ** 2 * den > num * n * n
            # full_two_thirds refuses where its r does (n > 2 here); else it
            # keeps greedy's witness or at most ceil(n/r) + 1
            try:
                r = finders._two_thirds_r(n, p)
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    full_two_thirds(h)
                continue
            assert r == support.reference_two_thirds_r(n, p)
            got = full_two_thirds(h)
            if got.vertices != greedy_full(h).vertices:
                switched += 1
                assert got.size <= -(-n // r) + 1
    assert switched >= 4


@pytest.mark.parametrize("n", range(6))
def test_g_heuristic_matches_the_every_finder_reference_on_every_small_graph(n):
    for g in support.all_graphs(n):
        assert largest_full_or_cofull(g, method="heuristic") == \
            support.reference_g_heuristic(g), g.adj


@pytest.mark.parametrize("n", [*range(13), 20, 30, 60, 100])
def test_g_heuristic_matches_the_every_finder_reference_on_gnp(n):
    for p in G_DENSITIES:
        for seed in range(3):
            g = gen_gnp(n, p, seed)
            assert largest_full_or_cofull(g, method="heuristic", seed=seed) == \
                support.reference_g_heuristic(g, seed), (p, seed)


def test_g_heuristic_matches_the_every_finder_reference_on_constructions():
    graphs = [gen_greedy_adversary(k) for k in (2, 3, 5, 10, 25)]
    graphs += [gen_multipartite_planted(k, r)[0] for k, r in (
        (3, 1), (6, 1), (10, 1), (16, 1), (6, 2), (10, 2), (16, 2), (8, 3), (12, 3))]
    for g in graphs:
        assert largest_full_or_cofull(g, method="heuristic") == \
            support.reference_g_heuristic(g), g


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, real=getattr(finders, name), name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(finders, name, spy)
    return counts


def test_g_heuristic_runs_a_finder_only_where_its_ceiling_reaches(monkeypatch):
    # every call builds the complement once, for greedy and every
    # co-full finder that runs
    counts = _count_calls(monkeypatch, ("half_full", "_one_over_r", "complement"))
    # greedy keeps more than floor(n/2) + 1 on both sides of G(n, 1/2),
    # far above full_two_thirds' ceiling ceil(n/16) + 1 there, so no
    # finder but greedy runs
    for n in (200, 1000):
        g = gen_gnp(n, HALF, 0)
        assert min(len(greedy_full(h).vertices) for h in (g, complement(g))) > n // 2 + 1
        largest_full_or_cofull(g, method="heuristic")
    assert counts == {"half_full": 0, "_one_over_r": 0, "complement": 2}
    # greedy keeps 5 on both sides of this G(8, 1/2), which half_full's
    # ceiling 8 // 2 + 1 reaches, so half_full runs on both
    largest_full_or_cofull(gen_gnp(8, HALF, 1), method="heuristic")
    assert counts == {"half_full": 2, "_one_over_r": 0, "complement": 3}
    # on no G(n, p) searched (n = 9..40, p = k/20, 40 seeds) does an
    # in-range full_two_thirds ceiling reach greedy's size, so greedy is
    # cut to the ceiling 14 of both sides of this G(200, 1/2): then
    # full_two_thirds runs on both and switches to its 1/16 levels (and
    # half_full, whose ceiling 101 reaches 14 too, runs on both)
    g = gen_gnp(200, HALF, 1)
    assert [-(-200 // finders._two_thirds_r(200, density(h))) + 1
            for h in (g, complement(g))] == [14, 14]
    monkeypatch.setattr(finders, "greedy_full",
                        lambda h: SimpleNamespace(vertices=frozenset(range(14))))
    largest_full_or_cofull(g, method="heuristic")
    assert counts == {"half_full": 4, "_one_over_r": 2, "complement": 4}


def test_g_heuristic_runs_no_finder_where_greedy_keeps_every_vertex(monkeypatch):
    # K_n and the edgeless graph are full at their density, so greedy keeps
    # V(G) on the full side, which no finder's set can beat: none runs, on
    # G or on the one complement each call builds for greedy
    names = ("full_two_thirds", "small_p_full", "half_full", "complement")
    counts = _count_calls(monkeypatch, names)
    for n in (3, 50, 300):
        for g in (support.clique(n), support.empty(n)):
            got = largest_full_or_cofull(g, method="heuristic")
            assert (got.value, got.side, got.witness) == (n, "full", frozenset(range(n)))
    assert counts == {"full_two_thirds": 0, "small_p_full": 0, "half_full": 0, "complement": 6}
    # every graph on at most two vertices is full at its density 0 or 1,
    # which full_two_thirds' r refuses: it never runs there
    for n in range(3):
        for g in support.all_graphs(n):
            largest_full_or_cofull(g, method="heuristic")
    assert counts["full_two_thirds"] == 0


# ---------------------------------------------------------------------------
# the oracle's searches kept on a graph

_CALL_ORDERS = (("g", "full", "cofull"), ("full", "g", "cofull"),
                ("cofull", "g", "full"), ("at q", "g", "full"))


def _assert_kept_searches_match_a_fresh_graph(g, orders=_CALL_ORDERS, brute=False):
    """Each call order runs on its own rebuilt copy of g, so its later
    calls meet the searches its earlier ones kept; every answer must be
    the one a fresh graph gives, as the references give it. q is a p
    other than the density."""
    d = density(g)
    q = HALF if d != HALF else Fraction(1, 3)
    calls = {"g": largest_full_or_cofull,
             "full": lambda h: oracle_largest_full(h, d),
             "cofull": lambda h: oracle_largest_full(h, d, "cofull"),
             "at q": lambda h: oracle_largest_full(h, q)}
    want, refs = {}, {}
    for name, p, mode in (("full", d, "full"), ("cofull", d, "cofull"), ("at q", q, "full")):
        size, witness, min_degree = refs[name] = support.reference_oracle_largest_full(g, p, mode)
        want[name] = FullSubgraphResult(frozenset(witness), size, p, min_degree)
    side = "full" if refs["full"][0] >= refs["cofull"][0] else "cofull"
    want["g"] = GValue(refs[side][0], side, frozenset(refs[side][1]), d)
    if brute:
        assert want["g"].value == support.brute_g_value(g)
    for order in orders:
        h = Graph._from_adj(g.n, list(g.adj))
        for name in order:
            assert calls[name](h) == want[name], (g.adj, order, name)


@pytest.mark.parametrize("n", range(7))
def test_kept_searches_match_a_fresh_graph_on_every_small_graph(n):
    # all four orders on every graph up to n = 5; at n = 6 each of the
    # 32,768 graphs runs one order, the four in turn
    for i, g in enumerate(support.all_graphs(n)):
        orders = _CALL_ORDERS if n < 6 else [_CALL_ORDERS[i % len(_CALL_ORDERS)]]
        _assert_kept_searches_match_a_fresh_graph(g, orders, brute=n <= 5)


@pytest.mark.parametrize("n", range(7, 15))
def test_kept_searches_match_a_fresh_graph_on_gnp(n):
    for p in (Fraction(1, 4), HALF, Fraction(3, 4)):
        for seed in range(3):
            _assert_kept_searches_match_a_fresh_graph(gen_gnp(n, p, seed), brute=n <= 10)


def test_kept_searches_still_refuse():
    g = gen_gnp(8, HALF, 0)
    d = density(g)
    for mode in ("full", "cofull"):
        assert oracle_largest_full(g, d, mode, cap=8).size
    assert largest_full_or_cofull(g, cap=8).value
    for mode in ("full", "cofull"):
        with pytest.raises(PreconditionError):
            oracle_largest_full(g, d, mode, cap=7)
        for p in (Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(PreconditionError):
                oracle_largest_full(g, p, mode)
    with pytest.raises(PreconditionError):
        largest_full_or_cofull(g, cap=7)
    with pytest.raises(ValueError):
        oracle_largest_full(g, d, "both")


# ---------------------------------------------------------------------------
# frozen outputs: every field of each finder's result, digested

def _result_text(res) -> str:
    def frac(x):
        return "-" if x is None else f"{x.numerator}/{x.denominator}"

    if isinstance(res, GValue):
        return f"{res.value}|{res.side}|{sorted(res.witness)}|{frac(res.p)}"
    trace = "-" if res.trace is None else list(res.trace)
    return (f"{sorted(res.vertices)}|{res.size}|{frac(res.p_used)}|"
            f"{res.min_degree}|{frac(res.guarantee)}|{trace}")


def _frozen_cases():
    quarter = Fraction(1, 4)
    cases = {}
    for tie in ("min-index", "adversarial-antipodal"):
        for k in (5, 25):
            cases[f"greedy-{tie}-adversary{k}"] = (
                lambda k=k, tie=tie: greedy_full(gen_greedy_adversary(k), tie_break=tie))
        for n in (0, 1, 2, 30):
            cases[f"greedy-{tie}-gnp{n}"] = (
                lambda n=n, tie=tie: greedy_full(gen_gnp(n, quarter, 0), tie_break=tie))
    # seeds 0 and 2 at n = 30 finish by plain peeling, the other four
    # take the switch to one_over_r_full at an aligned step
    for n, p in ((30, quarter), (200, HALF)):
        for seed in (0, 1, 2):
            cases[f"two-thirds-gnp{n}-seed{seed}"] = (
                lambda n=n, p=p, seed=seed: full_two_thirds(gen_gnp(n, p, seed)))
    cases["small-p-gnp300"] = lambda: small_p_full(gen_gnp(300, Fraction(1, 100), 0))
    cases["small-p-empty"] = lambda: small_p_full(support.empty(5))
    for mode in ("full", "cofull"):
        cases[f"oracle-{mode}-gnp14"] = (
            lambda mode=mode: oracle_largest_full(gen_gnp(14, HALF, 0), HALF, mode))
    # past the exhaustive reference's reach, at p = density as the exact
    # caps run it
    for name, mode, make in (("gnp28-seed1", "full", lambda: gen_gnp(28, HALF, 1)),
                             ("gnp32-seed0", "cofull", lambda: gen_gnp(32, HALF, 0)),
                             ("multipartite-r1-N24", "full",
                              lambda: gen_multipartite_planted(12, 1)[0])):
        cases[f"oracle-{mode}-{name}"] = (
            lambda mode=mode, make=make: _oracle_at_density(make(), mode))
    cases["g-heuristic-gnp60"] = (
        lambda: largest_full_or_cofull(gen_gnp(60, quarter, 0), method="heuristic"))
    return cases


FROZEN_DIGESTS = {
    "greedy-min-index-adversary5":
        "2dfb702e67dab100873893bd693eff09295a2070ba3a5ae36a74ba066ff41211",
    "greedy-min-index-adversary25":
        "f16c94ad4b2d54476a5b7daf961fff81135d6e71f6d084f77cb34cf13ba8e3dc",
    "greedy-min-index-gnp0":
        "b2def4a5d6bbef3293b90d1e8b66650f434380bede582b6f0830e20bae8c2bca",
    "greedy-min-index-gnp1":
        "8ea23e11ca16d70889e354fd4cae1cdbe20736d20bd90f90f0ed9f0a0d2f2663",
    "greedy-min-index-gnp2":
        "c11fbf4e46ea93e6327d5f37d36451bfa1bf0bc6cec3812123bf92ce6ee79bbd",
    "greedy-min-index-gnp30":
        "a43ced4216fdda0021070ab49f69c527bd6705a97aee510d08fd2f1f80390ee7",
    "greedy-adversarial-antipodal-adversary5":
        "e0ef9b028887bfc553e52f6886cde2da62ff1740799a427b279e97afc806d8ec",
    "greedy-adversarial-antipodal-adversary25":
        "ce300f7c68334b83c4cd8e6bb58c5b852a1dcf2532f5fb43353ecc7fd1698188",
    "greedy-adversarial-antipodal-gnp0":
        "b2def4a5d6bbef3293b90d1e8b66650f434380bede582b6f0830e20bae8c2bca",
    "greedy-adversarial-antipodal-gnp1":
        "8ea23e11ca16d70889e354fd4cae1cdbe20736d20bd90f90f0ed9f0a0d2f2663",
    "greedy-adversarial-antipodal-gnp2":
        "c11fbf4e46ea93e6327d5f37d36451bfa1bf0bc6cec3812123bf92ce6ee79bbd",
    "greedy-adversarial-antipodal-gnp30":
        "442a6a5a743b7fedf0c77bb4eb016050d2466ae7a42350937fc1cb9d6302f710",
    "two-thirds-gnp30-seed0":
        "8bfa1492ef2813a506de9e9a2cb8259e45741d9f18c47054cb289dcf60c2ab0e",
    "two-thirds-gnp30-seed1":
        "dd3acd350044126edee9defbaa1d22487e2d233984316861620eae7bf0d6c39c",
    "two-thirds-gnp30-seed2":
        "8ec75a87b783d4414af0aaacc175223b5fd0e9c75849b3707bd07f6e1cd211ab",
    "two-thirds-gnp200-seed0":
        "64763ab6328a47b26d1e795ab14349ee6a0d5c3e016cc0a290ce210d9e2d24fb",
    "two-thirds-gnp200-seed1":
        "bf8b403427eff25cc4bb10f9abfecae15efe6fd11d5ea1bdfa668b289678f1b2",
    "two-thirds-gnp200-seed2":
        "2978d95f7fc19abc6a5f9ea48407a8d87bd7efd805157f021de9dab30dc5c12b",
    "small-p-gnp300":
        "de9de6de8c5eac6f0349829f7b3a2149f4909dbbb1ee8826c13a1a25045b5fcc",
    "small-p-empty":
        "ba669b93e42df6d725660757766eea7480d873c182d5d861bc53f08b0519f9d0",
    "oracle-full-gnp14":
        "8db9fda23df738cbeb7993e0f4652e6f421c3cdec4071eca74cb97c9f1b3c61a",
    "oracle-cofull-gnp14":
        "e2e22a3ff0e41cfc54fc8dd9022a0b9f2906e888ef1c7de110f199e09d130c12",
    "oracle-full-gnp28-seed1":
        "f9ae6be2b7d77be5c6cb55cc54db61d168af65686b80227de2f5ad7e9966e46d",
    "oracle-cofull-gnp32-seed0":
        "84148b741aa3446d7b8359be94b3f0356d511fd6047277d1ecf7d304b890495e",
    "oracle-full-multipartite-r1-N24":
        "0d564bd68ff255885ce1e93070ee291646f6bb305ce3bde2795e2882b92f7454",
    "g-heuristic-gnp60":
        "cc1b8a75890a411db27282737339cc5aa23dc40df7d23b63e1fcb01139d82288",
}


@pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
def test_finder_outputs_are_frozen(name):
    text = _result_text(_frozen_cases()[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_DIGESTS[name]


# ---------------------------------------------------------------------------
# certification on packed rows against the mask walk

def random_subsets(n: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield sorted(rng.choice(n, int(rng.integers(0, n + 1)), replace=False).tolist())


@pytest.mark.parametrize("n,p,seed", [(30, HALF, 0), (257, Fraction(1, 3), 1),
                                      (1000, HALF, 2), (1000, Fraction(9, 10), 3),
                                      (600, Fraction(1), 4)])
def test_matrix_certification_matches_the_mask_walk(n, p, seed):
    g = gen_gnp(n, p, seed)  # a column of K_n fills every byte block
    assert "adj" not in g.__dict__  # the packed rows alone
    masks = support.reference_masks(g)
    h = Graph._from_adj(n, masks)  # the masks alone
    later_violators = 0
    for xs in random_subsets(n, 10, seed):
        m = len(xs)
        want = support.reference_degrees_within(masks, xs)
        forms = (xs, frozenset(xs), to_mask(xs, n), np.array(xs, dtype=np.intp))
        for graph in (g, h):
            for vs in forms:
                idx, degs = _degrees_within(graph, vs)
                assert (idx.tolist(), degs.tolist()) == (xs, want)
        # bars at the set's own density and around it, so that some members miss them
        for pp in {Fraction(sum(want), max(m * (m - 1), 1)), Fraction(1, 3), Fraction(2, 3)}:
            for mode in ("full", "cofull"):
                bar = pp * (m - 1)
                keeps = (lambda v, d: d >= bar) if mode == "full" else (lambda v, d: d <= bar)
                bad = support.reference_violator(masks, xs, keeps)
                later_violators += bad is not None and bad != xs[0]
                for graph in (g, h):
                    for vs in forms:
                        assert is_full(graph, pp, vs, mode) == (bad is None, bad)
                    if bad is None:
                        res = _certified(graph, pp, xs, mode=mode)
                        assert (res.vertices, res.size) == (frozenset(xs), m)
                        assert res.min_degree == min(want, default=0)
                    else:
                        with pytest.raises(VerificationError, match=f"vertex {bad}$"):
                            _certified(graph, pp, xs, mode=mode)
        for q in (Fraction(1, 3), HALF, Fraction(2, 3), Fraction(2 ** 70 + 1, 2 ** 71)):
            bad = support.reference_violator(masks, xs, lambda v, d: d >= q * g.degrees[v])
            later_violators += bad is not None and bad != xs[0]
            for graph in (g, h):
                for vs in forms:
                    assert is_relatively_full(graph, q, vs) == (bad is None, bad)
    assert later_violators or p == 1  # the smallest violator is not always the first member
    assert "packed" not in h.__dict__ and "adj" not in g.__dict__


def test_certifying_a_mask_graph_builds_no_matrix():
    g = Graph._from_adj(300, list(gen_gnp(300, HALF, 1).adj))
    xs = range(0, 300, 3)
    assert "packed" not in g.__dict__
    is_full(g, HALF, xs)
    is_full(g, HALF, xs, "cofull")
    is_relatively_full(g, HALF, xs)
    _certified(g, HALF, 1)
    one_over_r_full(g, 1)  # no level runs, so only the certificate reads degrees
    assert "packed" not in g.__dict__


def test_gnp_finders_and_certificates_allocate_no_n_by_n_array():
    # G(2000, 1/2) and the dense sweep's finders with their certificates,
    # under tracemalloc, which sees numpy's buffers: generation holds,
    # beyond its packed rows and one block of draws (rng._BLOCK), a band
    # of rows and less; the finders and the certificates hold less than
    # n^2 / 4 bytes beside the graph. An n x n bool array (n^2 bytes)
    # would break either bound
    n = 2000
    warm = gen_gnp(300, HALF, 1)  # numpy's first-use state
    greedy_full(warm), full_two_thirds(warm), half_full(warm)
    tracemalloc.start()
    try:
        g = gen_gnp(n, HALF, 0)
        generated = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        greedy, two_thirds, half = greedy_full(g), full_two_thirds(g), half_full(g)
        certified = (is_full(g, greedy.p_used, greedy.vertices)[0]
                     and is_full(g, two_thirds.p_used, two_thirds.vertices)[0]
                     and is_relatively_full(g, HALF, half.vertices)[0])
        found = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certified and g.__dict__.keys() & {"packed", "adj", "matrix"} == {"packed"}
    rows = g.packed.nbytes
    assert rows == n * 256 and base >= rows
    assert generated < rows + 8 * rng._BLOCK + n * n // 4, generated
    assert found - base < n * n // 4, (found, base)


def test_certification_reads_any_array_as_a_set():
    g = gen_gnp(40, HALF, 2)
    xs = [3, 1, 9, 3, 30, 1, 12]
    for vs in (np.array(xs), np.array(xs[::-1], dtype=np.int32), np.array(xs, dtype=np.uint8),
               np.array([30, 12, 9, 3, 1], dtype=np.uint8)):
        assert is_full(g, HALF, vs) == is_full(g, HALF, set(xs))
        assert is_relatively_full(g, HALF, vs) == is_relatively_full(g, HALF, set(xs))
        assert induced_subgraph(g, vs)[1] == (1, 3, 9, 12, 30)
    flags = np.array([True, False, True, True])  # as a set of ids: {0, 1}
    assert is_full(g, HALF, flags) == is_full(g, HALF, {0, 1})
    assert is_relatively_full(g, HALF, flags) == is_relatively_full(g, HALF, {0, 1})


def test_certification_refuses_vertices_outside_the_graph():
    g = support.cycle(5)
    for vs in ([0, 5], [-1, 2], 1 << 5, -1, np.array([-1, 2]), np.array([0, 5]),
               np.array([1, 100, 3]), np.array([0, 5], dtype=np.uint8),
               np.array([4, 2, 9], dtype=np.uint8),
               [1.7, 2], [1, 2.0], np.array([1.7, 2]), np.array([1.0, 2.0])):
        with pytest.raises(ValueError):
            is_full(g, HALF, vs)
        with pytest.raises(ValueError):
            is_relatively_full(g, HALF, vs)
        with pytest.raises(ValueError):
            induced_subgraph(g, vs)


@pytest.mark.parametrize("p", [2, -1, Fraction(-1, 3), Fraction(3, 2)])
def test_certification_refuses_p_outside_unit_interval(p):
    for mode in ("full", "cofull"):
        with pytest.raises(PreconditionError, match=r"^p must lie in \[0, 1\]"):
            is_full(K31, p, [0, 1], mode)
    with pytest.raises(PreconditionError, match=r"^q must lie in \[0, 1\]"):
        is_relatively_full(K31, p, [0, 1])
