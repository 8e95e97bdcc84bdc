"""Bootstrap percolation: closure, certificates, infection probability."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import support
from conftest import densities, graphs
from fullsub import (
    PreconditionError,
    bootstrap_percolate,
    full_infection_probability,
    full_infection_probability_exact,
    gen_gnp,
    is_relatively_half_full_mask,
    sample_initial_mask,
    surviving_half_full,
)
from fullsub import graph as graph_mod
from fullsub import percolation
from fullsub.graph import _unpack_rows


# ---------------------------------------------------------------------------
# closure

def test_closure_closed_cases():
    k3 = support.clique(3)
    got = bootstrap_percolate(k3, {0, 1})
    assert got.infected == frozenset({0, 1, 2}) and got.rounds == 1

    st4 = support.star(4)
    assert bootstrap_percolate(st4, {0}).infected == frozenset(range(4))
    assert bootstrap_percolate(st4, {1}).infected == frozenset({1})

    c5 = support.cycle(5)
    assert bootstrap_percolate(c5, set()).rounds == 0
    assert bootstrap_percolate(c5, range(5)).rounds == 0

    # isolated vertices have no majority to reach, so they never catch it
    assert bootstrap_percolate(support.empty(3), {0}).infected == frozenset({0})


def test_closure_accepts_masks_and_iterables():
    g = support.cycle(6)
    assert bootstrap_percolate(g, 0b000101).infected == \
        bootstrap_percolate(g, {0, 2}).infected


@given(graphs(), st.data())
def test_closure_matches_reference_simulation(g, data):
    initial = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)
                        if g.n else st.just(set()))
    state = bootstrap_percolate(g, initial)
    infected, rounds = support.sync_percolate(g, initial)
    assert state.infected == frozenset(infected)
    assert state.rounds == rounds
    assert state.rounds <= g.n
    assert (state.rounds == 0) == (state.infected == frozenset(initial))


# _SCATTER_COST values that make every round with a fresh vertex take
# one update: the dense product, or the neighbour scatter
DENSE, SCATTER = 1 << 40, 0


def _closures(g, masks):
    """Each start's final set and round count, one _percolate_rows batch."""
    final, rounds = percolation._percolate_rows(g, _unpack_rows(masks, g.n))
    return [(set(np.flatnonzero(row).tolist()), int(r)) for row, r in zip(final, rounds)]


@pytest.mark.parametrize("g", support.structured_catalog() + [
    support.empty(0),
    gen_gnp(30, Fraction(1, 5), seed=0),
    gen_gnp(40, Fraction(1, 8), seed=1),
    gen_gnp(60, Fraction(1, 10), seed=2),
    gen_gnp(150, Fraction(1, 10), seed=2),  # masks of three 64-bit words
    support.disjoint_union(gen_gnp(12, Fraction(1, 2), seed=4), support.empty(3)),
], ids=repr)
def test_batched_closure_matches_reference_per_row(g, monkeypatch):
    """Rows of one batch finish after different numbers of rounds. Each
    update runs on both twins (the scatter's table is read from the masks
    on one, from the packed rows on the other): as shipped, forced one way,
    and scattered in blocks of one row and pieces of at most 3 entries."""
    masks = [support.reference_initial_mask(g.n, p, 3, t)
             for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)) for t in range(12)]
    want = [support.sync_percolate(g, [v for v in range(g.n) if mask >> v & 1])
            for mask in masks]
    shipped = percolation._SCATTER_COST, percolation._SCATTER_BLOCK
    for cost, block in (shipped, (DENSE, shipped[1]), (SCATTER, shipped[1]), (SCATTER, 3)):
        monkeypatch.setattr(percolation, "_SCATTER_COST", cost)
        monkeypatch.setattr(percolation, "_SCATTER_BLOCK", block)
        for h in support.twins(g):
            assert _closures(h, masks) == want, (cost, block, h.__dict__.keys())


def test_shipped_cost_model_switches_update_within_a_batch(monkeypatch):
    # 40 starts on G(300, 1/50): the first rounds scatter (3 of them, on
    # 40, 38 and 36 live rows), the later ones multiply
    g, p = gen_gnp(300, Fraction(1, 50), seed=1), Fraction(1, 3)
    masks = [support.reference_initial_mask(g.n, p, 3, t) for t in range(40)]
    scattered, real = [], percolation._scatter
    monkeypatch.setattr(percolation, "_scatter",
                        lambda cnt, *args: scattered.append(len(cnt)) or real(cnt, *args))
    got = _closures(g, masks)
    assert got == [support.sync_percolate(g, [v for v in range(g.n) if mask >> v & 1])
                   for mask in masks]
    assert scattered == [40, 38, 36] and max(r for _, r in got) == 20


def test_sparse_rounds_on_a_mask_graph_build_no_matrix():
    g = support.cycle(3000)
    est, failure = percolation._monte_carlo(g, Fraction(1, 2), 40, 0)
    assert (est.successes, failure) == support.reference_monte_carlo(g, Fraction(1, 2), 40, 0)
    # nor does a start that infects nobody, whose one round has nothing fresh,
    # nor one whose products read only the rows of its few new infections
    for start in (set(), {0, 1, 2, 10, 11}):
        infected, rounds = support.sync_percolate(g, start)
        assert bootstrap_percolate(g, start) == percolation.PercolationState(
            frozenset(infected), rounds)
    assert "packed" not in g.__dict__


def test_a_mask_graph_percolates_under_a_limit_below_its_matrix(memory_max, monkeypatch):
    """The product reads only the rows it multiplies (graph._rows), so a
    graph held as masks percolates where its n^2 bytes would be refused,
    as shipped and with every round forced to the product."""
    g = support.twins(gen_gnp(1000, Fraction(1, 100), seed=0))[0]
    memory_max.write_text(f"{g.n * g.n - 1}\n")
    graph_mod._cgroup_limit.cache_clear()  # gen_gnp read it while the file was missing
    p = Fraction(5, 16)
    start = [v for v in range(g.n) if support.reference_initial_mask(g.n, p, 0, 0) >> v & 1]
    infected, rounds = support.sync_percolate(g, start)
    want = support.reference_monte_carlo(g, p, 12, 0)
    for cost in (percolation._SCATTER_COST, DENSE):
        monkeypatch.setattr(percolation, "_SCATTER_COST", cost)
        assert bootstrap_percolate(g, start) == percolation.PercolationState(
            frozenset(infected), rounds)
        est, failure = percolation._monte_carlo(g, p, 12, 0)
        assert (est.successes, failure) == want
    assert rounds > 1 and 0 < want[0] < 12 and "packed" not in g.__dict__


def test_scatter_holds_one_block_of_temporaries():
    """A scatter step holds the block's fresh indices, its table entries
    and its bincount, each at most _SCATTER_BLOCK of 8 bytes, whatever
    the batch; the whole batch at once would take over 8 times that."""
    g = gen_gnp(2000, Fraction(1, 200), seed=0)
    table = percolation._neighbour_table(g)
    fresh = _unpack_rows([support.reference_initial_mask(g.n, Fraction(1, 2), 0, t)
                          for t in range(128)], g.n)
    cnt = np.zeros(fresh.shape, dtype=np.float32)
    tracemalloc.start()
    try:
        percolation._scatter(cnt, fresh, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound, whole = 4 * 8 * percolation._SCATTER_BLOCK, 8 * (
        np.count_nonzero(fresh) * table.shape[1] + cnt.size)
    assert peak <= bound and 8 * bound < whole, (peak, whole)
    # every count but the padding's, at the fresh vertices themselves
    want = np.matmul(fresh, g.matrix, dtype=np.float32)
    assert np.array_equal(cnt[~fresh], want[~fresh])


@given(graphs(), st.data())
def test_closure_is_update_order_independent(g, data):
    initial = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)
                        if g.n else st.just(set()))
    one_at_a_time = support.async_percolate_min_index(g, initial)
    assert bootstrap_percolate(g, initial).infected == frozenset(one_at_a_time)


@given(graphs(), st.data())
def test_closure_is_monotone_in_the_initial_set(g, data):
    smaller = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)
                        if g.n else st.just(set()))
    extra = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)
                      if g.n else st.just(set()))
    a = bootstrap_percolate(g, smaller).infected
    b = bootstrap_percolate(g, smaller | extra).infected
    assert a <= b


# ---------------------------------------------------------------------------
# stalled infections and relatively half-full certificates

def test_half_full_mask_closed_cases():
    c4 = support.cycle(4)
    assert is_relatively_half_full_mask(c4, 0b1111)
    assert is_relatively_half_full_mask(c4, 0b1110)  # path keeps half
    assert not is_relatively_half_full_mask(c4, 0b0101)  # opposite corners
    assert not is_relatively_half_full_mask(c4, 0)


@given(graphs(max_n=7), st.data())
def test_half_full_mask_matches_brute(g, data):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    xs = [v for v in range(g.n) if mask >> v & 1]
    want = bool(xs) and support.brute_is_relatively_full(g, Fraction(1, 2), xs)
    assert is_relatively_half_full_mask(g, mask) == want


def test_surviving_set_closed_case():
    c4 = support.cycle(4)
    assert surviving_half_full(c4, {0}) == frozenset({1, 2, 3})
    assert surviving_half_full(c4, {0, 2}) == frozenset()


@given(graphs(max_n=7), st.data())
def test_nonempty_surviving_set_is_relatively_half_full(g, data):
    initial = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)
                        if g.n else st.just(set()))
    left = surviving_half_full(g, initial)
    assert left == frozenset(range(g.n)) - bootstrap_percolate(g, initial).infected
    if left:
        assert support.brute_is_relatively_full(g, Fraction(1, 2), sorted(left))


def test_total_infection_iff_no_half_full_set_avoided():
    # exhaustive at n <= 4: every graph, every initial set
    for n in range(5):
        for g in support.all_graphs(n):
            everyone = frozenset(range(n))
            for imask in range(1 << n):
                initial = {v for v in range(n) if imask >> v & 1}
                finished = bootstrap_percolate(g, initial).infected == everyone
                blocked = support.has_half_full_subset(g, everyone - initial)
                assert finished == (not blocked)


@given(st.integers(5, 8), st.integers(0, 10 ** 6), st.data())
def test_total_infection_criterion_sampled(n, seed, data):
    g = support.random_graph(n, seed)
    initial = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    finished = bootstrap_percolate(g, initial).infected == frozenset(range(n))
    assert finished == (not support.has_half_full_subset(
        g, set(range(n)) - initial))


# ---------------------------------------------------------------------------
# infection probability, exact

def test_exact_infection_probability_closed_cases():
    assert full_infection_probability_exact(support.empty(0), Fraction(1, 2)) == 1
    assert full_infection_probability_exact(support.empty(1), Fraction(1, 3)) == \
        Fraction(1, 3)
    assert full_infection_probability_exact(support.clique(2), Fraction(1, 3)) == \
        Fraction(5, 9)
    assert full_infection_probability_exact(support.petersen(), 1) == 1
    assert full_infection_probability_exact(support.petersen(), 0) == 0


def test_exact_infection_probability_seeded_spot():
    g = gen_gnp(7, Fraction(1, 2), seed=11)
    assert full_infection_probability_exact(g, Fraction(2, 5)) == \
        Fraction(33872, 78125)


@given(graphs(max_n=7), densities)
def test_exact_infection_probability_matches_brute(g, p):
    assert full_infection_probability_exact(g, p) == support.brute_theta(g, p)


THETA_PS = (0, Fraction(1, 3), Fraction(1, 2), 1)


@pytest.mark.parametrize("n", range(6))
def test_exact_infection_probability_matches_brute_on_every_small_graph(n):
    # n < 6: one word whose bits past 2^n are not sets
    for g in support.all_graphs(n):
        for p in THETA_PS:
            assert full_infection_probability_exact(g, p) == support.brute_theta(g, p)


@pytest.mark.parametrize("n", [17, 20])
def test_exact_infection_probability_matches_the_zeta_reference_past_the_old_cap(n):
    g = gen_gnp(n, Fraction(1, 2), seed=n)
    for p in (Fraction(1, 3), Fraction(1, 2)):
        assert full_infection_probability_exact(g, p) == support.reference_theta_zeta(g, p)


THIRD = (Fraction(1, 3),)


@pytest.mark.parametrize("g, ps", [
    pytest.param(support.empty(16), THIRD, id="empty16"),
    pytest.param(support.clique(16), THIRD, id="clique16"),
    pytest.param(support.disjoint_union(gen_gnp(12, Fraction(1, 2), seed=4), support.empty(4)),
                 THIRD, id="gnp12+isolated4"),
    pytest.param(gen_gnp(10, Fraction(1, 3), seed=1), THIRD, id="gnp10"),
    pytest.param(gen_gnp(13, Fraction(1, 2), seed=2), THIRD, id="gnp13"),
    pytest.param(gen_gnp(16, Fraction(1, 4), seed=3), THIRD, id="gnp16-sparse"),
    pytest.param(gen_gnp(16, Fraction(3, 4), seed=5), THIRD, id="gnp16-dense"),
    # 1, 2 and 4 words; 128 words, the word-level closure, at one p
    *(pytest.param(gen_gnp(n, density, seed=n), THETA_PS if n < 13 else THIRD,
                   id=f"gnp{n}-{name}")
      for n in (6, 7, 8, 13)
      for density, name in ((Fraction(1, 4), "sparse"), (Fraction(1, 2), "half"),
                            (Fraction(3, 4), "dense"))),
])
def test_exact_infection_probability_matches_reference_dp(g, ps):
    # on both twins, the mask-held and the matrix-held form; the per-mask
    # DP loops over 2^n masks in Python, so the n = 16 graphs are checked
    # against the zeta reference instead
    reference = support.reference_theta_exact if g.n <= 13 else support.reference_theta_zeta
    for p in ps:
        want = reference(g, p)
        assert [full_infection_probability_exact(h, p) for h in support.twins(g)] == [want] * 2


def test_exact_infection_probability_cap():
    g = support.empty(21)
    with pytest.raises(PreconditionError):
        full_infection_probability_exact(g, Fraction(1, 2))
    # isolated vertices infect nothing, so everyone must start infected
    got = full_infection_probability_exact(g, Fraction(1, 2), cap=21)
    assert got == Fraction(1, 2 ** 21)


def test_exact_infection_probability_refuses_arrays_beyond_physical_memory(monkeypatch):
    monkeypatch.setattr(graph_mod.os, "sysconf", lambda name: 64)  # 4096 bytes
    # n = 12 takes 32 * 64 bytes of words and 8 * 12 * 7 of need: 2720
    # bytes; n = 13 takes 4928
    assert full_infection_probability_exact(support.empty(12), 1) == 1
    with pytest.raises(PreconditionError, match="physical memory"):
        full_infection_probability_exact(support.empty(13), 1, cap=40)


@pytest.mark.parametrize("n", [12, 16, 18])
def test_exact_infection_probability_checks_its_real_peak(monkeypatch, n):
    """The bytes handed to the memory check are the kernel's traced peak,
    up to numpy's ufunc buffers (at most 24 bytes an element of
    np.getbufsize()) and a few kilobytes of interpreter objects."""
    named = []
    monkeypatch.setattr(percolation, "_check_memory", lambda nbytes, what: named.append(nbytes))
    g = support.twins(gen_gnp(n, Fraction(1, 2), seed=1))[0]
    full_infection_probability_exact(g, Fraction(1, 3))  # builds g.adj and numpy's first-use state
    tracemalloc.start()
    try:
        full_infection_probability_exact(g, Fraction(1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert named[-1] <= peak <= named[-1] + 24 * np.getbufsize() + 8192, (named[-1], peak)


# ---------------------------------------------------------------------------
# infection probability, Monte Carlo

def test_estimate_degenerate_probabilities():
    g = support.cycle(5)
    sure = full_infection_probability(g, 1, trials=50)
    assert sure.estimate == 1 and sure.half_width == 0 and sure.successes == 50
    never = full_infection_probability(g, 0, trials=50)
    assert never.estimate == 0 and never.successes == 0


def test_estimate_is_deterministic_and_consistent():
    g = gen_gnp(12, Fraction(1, 2), seed=2)
    a = full_infection_probability(g, Fraction(2, 5), trials=400, seed=9)
    b = full_infection_probability(g, Fraction(2, 5), trials=400, seed=9)
    assert a == b
    assert a.estimate == Fraction(a.successes, a.trials)
    assert 0 <= a.estimate <= 1


def test_estimate_tracks_the_exact_value():
    g = gen_gnp(10, Fraction(1, 2), seed=3)
    exact = full_infection_probability_exact(g, Fraction(1, 2))
    est = full_infection_probability(g, Fraction(1, 2), trials=2000, seed=0)
    assert abs(float(est.estimate) - float(exact)) <= max(est.half_width, 0.05)


def test_estimate_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        full_infection_probability(support.cycle(4), Fraction(1, 2), trials=0)
    with pytest.raises(PreconditionError):
        full_infection_probability(support.cycle(4), Fraction(3, 2))


ISOLATED = support.disjoint_union(gen_gnp(12, Fraction(1, 2), seed=4), support.empty(3))
MIXED = [  # (graph, p, trials, seed) where some trials fail and some do not
    (gen_gnp(14, Fraction(1, 3), seed=1), Fraction(1, 2), 300, 7),
    (gen_gnp(30, Fraction(1, 5), seed=0), Fraction(2, 5), 300, 7),
    (gen_gnp(60, Fraction(1, 10), seed=2), Fraction(1, 2), 300, 7),  # first failure at trial 55
    (gen_gnp(40, Fraction(1, 8), seed=1), Fraction(1, 4), 40, 3),
    (ISOLATED, Fraction(3, 4), 300, 1),
]
EDGE = [
    (support.empty(0), Fraction(1, 2), 5, 0),
    (support.empty(0), 0, 3, 0),
    (gen_gnp(16, Fraction(1, 2), seed=2), 0, 4, 1),
    (gen_gnp(16, Fraction(1, 2), seed=2), 1, 4, 1),
    (gen_gnp(16, Fraction(1, 2), seed=2), Fraction(3, 4), 300, 7),  # all succeed
    (ISOLATED, 1, 3, 0),
    (ISOLATED, Fraction(1, 2), 1, 0),
    (support.empty(4), Fraction(1, 2), 20, 2),
]


@pytest.mark.parametrize("case", MIXED + EDGE)
def test_monte_carlo_pass_matches_reference(case):
    g, p, trials, seed = case
    est, failure = percolation._monte_carlo(g, p, trials, seed)
    successes, want_failure = support.reference_monte_carlo(g, p, trials, seed)
    assert (est.successes, failure) == (successes, want_failure)
    assert est == full_infection_probability(g, p, trials=trials, seed=seed)
    if case in MIXED:
        assert 0 < successes < trials


def test_monte_carlo_pass_spans_chunks(monkeypatch):
    assert percolation._CHUNK < 300  # the 300-trial cases above span two chunks
    monkeypatch.setattr(percolation, "_CHUNK", 7)
    for g, p, trials, seed in MIXED[:3] + [(ISOLATED, Fraction(3, 4), 30, 1)]:
        est, failure = percolation._monte_carlo(g, p, trials, seed)
        assert (est.successes, failure) == support.reference_monte_carlo(g, p, trials, seed)


def test_monte_carlo_pass_keeps_only_the_first_surviving_set(monkeypatch):
    """Every batch fails on isolated vertices, so a pass that held each
    batch's surviving set would grow with the batch count."""
    monkeypatch.setattr(percolation, "_CHUNK", 4)
    g, p = support.empty(300), Fraction(1, 10)

    def traced(trials):
        tracemalloc.start()
        try:
            est, failure = percolation._monte_carlo(g, p, trials, 3)
            return tracemalloc.get_traced_memory()[1], (est.successes, failure)
        finally:
            tracemalloc.stop()

    traced(4)  # builds g.matrix and numpy's first-use state
    one_peak, _ = traced(4)
    many_peak, got = traced(800)  # 200 batches, each with ~270 survivors
    assert got == support.reference_monte_carlo(g, p, 800, 3)
    assert got[1] is not None
    assert many_peak < 2 * one_peak, (one_peak, many_peak)


def test_initial_sample_extremes_and_determinism():
    assert sample_initial_mask(9, 0, seed=4, trial=0) == 0
    assert sample_initial_mask(9, 1, seed=4, trial=0) == (1 << 9) - 1
    assert sample_initial_mask(9, Fraction(1, 2), seed=4, trial=7) == \
        sample_initial_mask(9, Fraction(1, 2), seed=4, trial=7)
    assert sample_initial_mask(0, Fraction(1, 2), seed=4, trial=0) == 0
    with pytest.raises(PreconditionError):
        sample_initial_mask(5, Fraction(-1, 2), seed=0, trial=0)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 300])
@pytest.mark.parametrize("p", [0, Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), 1])
def test_initial_sample_matches_reference(n, p):
    for seed, trial in ((0, 0), (4, 7), (123, 1)):
        assert sample_initial_mask(n, p, seed, trial) == \
            support.reference_initial_mask(n, p, seed, trial)
