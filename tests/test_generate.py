"""Graph generators: exact structure, edge accounting, determinism."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations, count, islice, product
from pathlib import Path

import numpy as np
import pytest

import fullsub
import support
from fullsub import (
    GenSpec,
    Graph,
    PreconditionError,
    adversary_planted_size,
    clique_part_size,
    density,
    gen_clique_plus_isolated,
    gen_glued,
    gen_gnp,
    gen_greedy_adversary,
    gen_multipartite_planted,
    generate,
    oracle_largest_full,
    read_edge_list,
    sample_initial_mask,
    write_edge_list,
)
from fullsub import graph as graph_mod, rng
from fullsub.generate import _PLACE_MAX, _floor_with_cbrt_term


# ---------------------------------------------------------------------------
# G(n, p)

def test_gnp_extreme_probabilities():
    assert gen_gnp(7, 1, seed=0).edge_count == 21
    assert gen_gnp(7, 0, seed=0).edge_count == 0
    assert gen_gnp(0, Fraction(1, 2), seed=0).n == 0


def test_gnp_is_deterministic_per_seed():
    a = gen_gnp(40, Fraction(1, 2), seed=7)
    b = gen_gnp(40, Fraction(1, 2), seed=7)
    c = gen_gnp(40, Fraction(1, 2), seed=8)
    assert write_edge_list(a) == write_edge_list(b)
    assert write_edge_list(a) != write_edge_list(c)


def test_gnp_edge_count_concentration():
    # 100 draws of G(1000, 1/2): at least 99 must land within 4
    # standard deviations of the mean, checked in integers:
    # (E - 249750)^2 <= 16 * 124875
    mean = 1000 * 999 // 4
    var16 = 16 * (1000 * 999 // 2) // 4
    hits = sum(
        (gen_gnp(1000, Fraction(1, 2), seed=s).edge_count - mean) ** 2 <= var16
        for s in range(100)
    )
    assert hits >= 99


@pytest.mark.parametrize("n", [2, 3, 200, 1001])
@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 2), Fraction(1, 2000)])
@pytest.mark.parametrize("seed", [0, 7])
def test_gnp_matches_reference_fill(n, p, seed):
    want = support.reference_gnp_adjacency(n, p, seed)
    g = gen_gnp(n, p, seed)
    assert np.array_equal(g.matrix, want)
    assert g.edge_count == int(want.sum()) // 2


@pytest.mark.parametrize("n", [2, 3, 9, 10, 11, 30, 37, 60, 724, 725, 1001])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 63),
                               _PLACE_MAX, Fraction(1, 65), Fraction(1, 2000)])
def test_gnp_block_boundaries_match_reference(monkeypatch, n, p):
    # with 45 draws a block, C(9,2) = 36 fits one block, C(10,2) = 45
    # fills it exactly and C(11,2) = 55 spills into a second; n = 30
    # spans ten blocks, and n = 60 opens with a 59-draw row, longer
    # than a block. At p <= 1/64 the kept draws are placed, and blocks
    # end inside rows: rows and kept draws straddle them
    assert Fraction(1, 63) > _PLACE_MAX == Fraction(1, 64)
    monkeypatch.setattr(rng, "_BLOCK", 45)
    for seed in (0, 5):
        want = support.reference_gnp_adjacency(n, p, seed)
        assert np.array_equal(gen_gnp(n, p, seed).matrix, want)


@pytest.mark.parametrize("p", [Fraction(1, 63), _PLACE_MAX])
def test_gnp_places_the_kept_draws_only_up_to_the_switch(monkeypatch, p):
    # the row path alone thresholds blocks of rows and mirrors them; the
    # placed path alone takes kept indices
    calls = []
    for name in ("_row_blocks", "_kept", "_mirror"):
        real = gen_gnp.__globals__[name]
        monkeypatch.setitem(gen_gnp.__globals__, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    g = gen_gnp(40, p, 6)
    assert calls == (["_kept"] if p <= _PLACE_MAX else ["_row_blocks", "_mirror"])
    assert np.array_equal(g.matrix, support.reference_gnp_adjacency(40, p, 6))


@pytest.mark.parametrize("n", [724, 725])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
def test_gnp_matches_reference_around_one_block(n, p):
    # C(724,2) draws fit in one block of the real size, C(725,2) do not
    assert 724 * 723 // 2 <= rng._BLOCK < 725 * 724 // 2
    want = support.reference_gnp_adjacency(n, p, 3)
    assert np.array_equal(gen_gnp(n, p, 3).matrix, want)


@pytest.mark.parametrize("n", [2, 3, 724, 725])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
def test_gnp_graph_keeps_its_generated_matrix_on_request(n, p):
    want = support.reference_gnp_adjacency(n, p, 4)
    for g in (gen_gnp(n, p, seed=4), generate(GenSpec("gnp", n, p=p, seed=4))[0]):
        assert "packed" in g.__dict__  # no later unpack from the masks
        assert not g.matrix.flags.writeable
        assert np.array_equal(g.matrix, want)
        assert np.array_equal(g.matrix, graph_mod._unpack_rows(g.adj, n))


@pytest.mark.parametrize("n", [2, 3, 9, 130])
@pytest.mark.parametrize("p", [Fraction(1, 1000), Fraction(1, 3), Fraction(1)])
def test_every_gnp_graph_that_may_have_edges_holds_its_matrix_alone(n, p):
    # K_n too: a G(n, p) that allocates packed rows keeps them, and packs no masks
    for g in (gen_gnp(n, p, seed=2), generate(GenSpec("gnp", n, p=p, seed=2))[0]):
        assert "packed" in g.__dict__ and "adj" not in g.__dict__
        assert g.degrees == tuple(support.reference_gnp_adjacency(n, p, 2).sum(axis=0))


def test_every_dense_family_holds_its_matrix_alone():
    for g in (gen_multipartite_planted(6, 2)[0], gen_greedy_adversary(5),
              gen_glued(support.cycle(6), support.path(6), 3),
              gen_glued(gen_gnp(8, Fraction(1, 2), 1), gen_gnp(8, Fraction(1, 3), 2), 4),
              generate(GenSpec("multipartite-planted", 5, r=1))[0],
              generate(GenSpec("adversary", 3))[0]):
        assert "packed" in g.__dict__ and "adj" not in g.__dict__
        assert not g.matrix.flags.writeable


@pytest.mark.parametrize("n,p", [(0, Fraction(1, 2)), (1, Fraction(1)), (9, 0)])
def test_gnp_graphs_without_a_possible_edge_hold_empty_masks(n, p):
    g = gen_gnp(n, p, seed=2)
    assert g.adj == (0,) * n and "packed" not in g.__dict__


@pytest.mark.parametrize("n", [0, 1, 2, 9])
@pytest.mark.parametrize("p", [0, 1])
def test_gnp_extreme_probabilities_give_their_matrix(n, p):
    g = gen_gnp(n, p, seed=4)
    assert np.array_equal(g.matrix, support.reference_gnp_adjacency(n, p, 4))
    assert np.array_equal(g.matrix, graph_mod._unpack_rows(g.adj, n))


@pytest.mark.parametrize("n", [4, 5, 6, 13])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
def test_initial_mask_block_boundaries_match_reference(monkeypatch, n, p):
    # a trial's n draws are one row: below, at and above a 5-draw block
    monkeypatch.setattr(rng, "_BLOCK", 5)
    for seed, trial in ((0, 0), (4, 7)):
        assert sample_initial_mask(n, p, seed, trial) == \
            support.reference_initial_mask(n, p, seed, trial)


def test_gnp_refuses_a_matrix_beyond_physical_memory():
    with pytest.raises(PreconditionError, match="physical memory"):
        gen_gnp(10 ** 7, Fraction(1, 2), 0)


def test_dense_matrices_are_guarded(monkeypatch):
    g = gen_gnp(6, Fraction(1, 2), 0)
    text = write_edge_list(g)
    assert 6 * 6 <= len(text)  # so the canonical reader takes it
    monkeypatch.setattr(graph_mod.os, "sysconf", lambda name: 5)  # 25 bytes
    assert gen_gnp(5, Fraction(1, 2), 0).n == 5
    with pytest.raises(PreconditionError, match="physical memory"):
        gen_gnp(6, Fraction(1, 2), 0)
    with pytest.raises(PreconditionError, match="physical memory"):
        Graph.from_masks(6, g.adj).matrix
    with pytest.raises(PreconditionError, match="physical memory"):
        read_edge_list(text)


def test_adjacency_masks_are_guarded(monkeypatch):
    a = support.empty(2)  # built before the limit
    monkeypatch.setattr(graph_mod.os, "sysconf", lambda name: 2)  # 4 bytes
    for build in (lambda: gen_gnp(1, 0, 0), lambda: gen_clique_plus_isolated(1, 0)):
        with pytest.raises(PreconditionError, match="adjacency masks .*physical memory"):
            build()
    assert gen_gnp(0, 0, 0).n == 0
    # the dense families are refused as G(n, p) is, at the N^2 bytes of their matrix
    for build, N in ((lambda: gen_multipartite_planted(4, 1), 8),
                     (lambda: gen_greedy_adversary(2), 10), (lambda: gen_glued(a, a, 0), 4)):
        with pytest.raises(PreconditionError, match=f"^a dense {N} x {N} matrix needs "
                           f"{N * N} bytes, more than the 4 bytes of physical memory"):
            build()


def test_clique_isolated_block_is_guarded(monkeypatch):
    # 81 bytes hold the 8n = 80 bytes of masks but not the m x m = 100-byte block
    monkeypatch.setattr(graph_mod.os, "sysconf", lambda name: 9)
    assert gen_clique_plus_isolated(10, 6).edge_count == 6  # a 4 x 4 block
    with pytest.raises(PreconditionError, match="^a dense 10 x 10 matrix needs "
                       "100 bytes, more than the 81 bytes of physical memory"):
        gen_clique_plus_isolated(10, 45)


def test_clique_isolated_block_peak_is_a_few_times_its_bytes():
    # the m x m block and its temporaries, not the C(m,2) index pairs of
    # np.triu_indices (about 8 m^2 bytes), set the peak
    n, e = 700, 200_000  # m = 633 ends partway through a row
    m = clique_part_size(e)
    gen_clique_plus_isolated(10, 13)  # numpy's first-use state
    tracemalloc.start()
    try:
        g = gen_clique_plus_isolated(n, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == e and "packed" not in g.__dict__
    assert peak <= 4 * m * m, (peak, m * m)


def test_gnp_rejects_bad_probability():
    with pytest.raises(PreconditionError):
        gen_gnp(5, Fraction(3, 2), seed=0)


def test_gnp_refuses_a_negative_order():
    with pytest.raises(PreconditionError, match="n must be nonnegative, got -1"):
        gen_gnp(-1, Fraction(1, 2), seed=0)


# ---------------------------------------------------------------------------
# partial clique plus isolated vertices

def test_clique_isolated_k3_plus_k1():
    g = gen_clique_plus_isolated(4, 3)
    want = support.disjoint_union(support.clique(3), support.empty(1))
    assert g.adj == want.adj


def test_clique_isolated_27_13():
    g = gen_clique_plus_isolated(27, 13)
    assert clique_part_size(13) == 6  # C(5,2) = 10 < 13 <= C(6,2) = 15
    assert g.edge_count == 13
    assert all(g.degrees[v] == 0 for v in range(6, 27))
    assert density(g) == Fraction(1, 27)


def test_clique_isolated_boundaries():
    assert gen_clique_plus_isolated(9, 0).edge_count == 0
    assert gen_clique_plus_isolated(5, 10).adj == support.clique(5).adj
    with pytest.raises(PreconditionError):
        gen_clique_plus_isolated(4, 7)
    with pytest.raises(PreconditionError, match="n must be nonnegative, got -1"):
        gen_clique_plus_isolated(-1, 0)


def test_clique_isolated_fills_lexicographically():
    # at m = 6 the block's rows hold 5, 4, 3, 2, 1 pairs: 12 pairs end a
    # row and 13 end partway through the next; n = 6 is the block itself
    cases = [(8, 5), (10, 17), (12, 30)]
    cases += [(n, e) for n in (6, 100) for e in (0, 1, 12, 13, n * (n - 1) // 2)]
    for n, e in cases:
        g = gen_clique_plus_isolated(n, e)
        assert "adj" in g.__dict__ and "packed" not in g.__dict__
        m = clique_part_size(e)
        want = list(islice(combinations(range(m), 2), e))
        assert list(g.edges()) == want


def test_clique_isolated_oracle_recovers_the_clique_part():
    # with at least one edge the clique part is the largest full
    # subgraph: isolated vertices fail any positive threshold
    for n, e in ((4, 3), (10, 1), (12, 10), (11, 6)):
        g = gen_clique_plus_isolated(n, e)
        got = oracle_largest_full(g, density(g))
        assert got.size == clique_part_size(e)


# ---------------------------------------------------------------------------
# planted multipartite construction

def exact_floor_plus_cbrt(base: Fraction, coeff: Fraction, n: int) -> int:
    """floor(base + coeff * n^(-2/3)) via exact cube comparisons."""
    def below(t: int) -> bool:
        d = Fraction(t) - base
        return d <= 0 or d ** 3 * n * n <= coeff ** 3

    guess = int(float(base) + float(coeff) * float(n) ** (-2 / 3))
    while not below(guess):
        guess -= 1
    while below(guess + 1):
        guess += 1
    return guess


def test_multipartite_64_1_1():
    g, meta = gen_multipartite_planted(64, 1, 1)
    # 64^(2/3) = 16 exactly, so the target density is 1/2 + 1/16
    pairs = 128 * 127 // 2
    target = exact_floor_plus_cbrt(Fraction(pairs, 2) + Fraction(1, 2),
                                   Fraction(pairs), 64)
    assert target == 4572
    assert meta["target_edges"] == 4572 and g.edge_count == 4572
    assert meta["realized_p"] == Fraction(4572, pairs)
    assert meta["k"] == 23
    assert meta["k"] >= 16  # at least n^(2/3)


@pytest.mark.parametrize("n,r", [(4, 1), (5, 1), (6, 1), (6, 2), (8, 3)])
def test_multipartite_structure(n, r):
    g, meta = gen_multipartite_planted(n, r, 1)
    N = (r + 1) * n
    assert g.n == N
    part = lambda v: v // n
    for u in range(N):
        for v in range(u + 1, N):
            if part(u) != part(v):
                assert g.has_edge(u, v)
    pairs = N * (N - 1) // 2
    base = Fraction(r, r + 1) * pairs + Fraction(1, 2)
    assert g.edge_count == exact_floor_plus_cbrt(base, Fraction(pairs), n)
    # equitable deletion: within-part edge counts differ by at most one
    inside = [support.subset_edges(g, range(j * n, (j + 1) * n))
              for j in range(r + 1)]
    assert max(inside) - min(inside) <= 1
    assert all(e <= meta["k"] * (meta["k"] - 1) // 2 for e in inside)


def test_multipartite_trim_matches_the_round_robin_reference():
    compared = 0
    for n, r, c in product(range(1, 41), range(1, 6),
                           (Fraction(1, 2), 1, Fraction(3, 2), 2, 5, 20)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # c = 1/2 < 1
                g, meta = gen_multipartite_planted(n, r, c)
        except PreconditionError:
            continue
        k = meta["k"]
        surplus = (r + 1) * (k * (k - 1) // 2) - (meta["target_edges"] - r * (r + 1) // 2 * n * n)
        want = [0] * g.n
        for pp in support.reference_multipartite_clique_pairs(n, r, k, surplus):
            for u, v in pp:
                want[u] |= 1 << v
                want[v] |= 1 << u
        part = (1 << n) - 1
        assert [a & part << v // n * n for v, a in enumerate(g.adj)] == want
        compared += 1
    assert compared == 571


def test_multipartite_k_is_the_least_clique_that_covers_the_deficit():
    # c = j/8 walks up to the first clique-size refusal: k is the least k
    # with (r+1) C(k,2) at or above the target's deficit over the
    # cross-part edges, and the refusal comes just when no k <= n is
    boundaries = 0
    for n, r in product(range(1, 25), range(1, 5)):
        N = (r + 1) * n
        pairs, cross = N * (N - 1) // 2, r * (r + 1) // 2 * n * n
        accepted = None
        for j in count(1):
            c = Fraction(j, 8)
            base = Fraction(r, r + 1) * pairs + Fraction(1, 2)
            deficit = exact_floor_plus_cbrt(base, c * pairs, n) - cross
            fits = [k for k in range(n + 1) if (r + 1) * (k * (k - 1) // 2) >= deficit]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # c < 1
                if deficit < 0 or not fits:
                    with pytest.raises(PreconditionError, match="below the" if deficit < 0
                                       else f"exceed the part size {n};"):
                        gen_multipartite_planted(n, r, c)
                    if deficit < 0:
                        continue
                    break
                g, meta = gen_multipartite_planted(n, r, c)
            assert meta["k"] == fits[0]
            accepted = c
        # the largest accepted c sits one step below the first refused one
        boundaries += accepted == c - Fraction(1, 8)
    assert boundaries == 95  # every (n, r) but n = 1, r = 4, which no c accepts


def test_multipartite_planted_caps_full_subgraphs():
    # the planted graph is built so nothing bigger than (r+1)k is full
    g, meta = gen_multipartite_planted(6, 1, 1)
    got = oracle_largest_full(g, meta["realized_p"])
    assert got.size <= 2 * meta["k"]


def test_multipartite_parameter_validation():
    with pytest.raises(PreconditionError):
        gen_multipartite_planted(4, 2, 1)  # target above C(N,2)
    with pytest.raises(PreconditionError):
        gen_multipartite_planted(5, 1, 0)
    with pytest.warns(UserWarning):
        gen_multipartite_planted(8, 1, Fraction(1, 2))
    with pytest.raises(PreconditionError, match="part size must be positive, got 0"):
        gen_multipartite_planted(0, 1)
    with pytest.raises(PreconditionError, match="r must be a positive integer, got 0"):
        gen_multipartite_planted(3, 0)
    with pytest.warns(UserWarning), pytest.raises(
            PreconditionError, match="edge target 60 below the 64 cross-part edges"):
        gen_multipartite_planted(8, 1, Fraction(1, 1000))


def test_multipartite_refuses_a_huge_c_at_once():
    # c = 10^30 puts the edge target far past C(N, 2): it is refused as
    # c = 10^15 is, without correcting a float guess one unit at a time; the
    # CLI runs in a subprocess, so that a regression fails on its timeout
    env = dict(os.environ, PYTHONPATH=str(Path(fullsub.__file__).parents[1]))
    argv = [sys.executable, "-m", "fullsub.cli", "gen", "--family", "multipartite-planted",
            "--n", "10", "--r", "1", "--out", os.devnull, "--c"]
    runs = [subprocess.run(argv + [str(c)], env=env, capture_output=True, text=True, timeout=60)
            for c in (10 ** 15, 10 ** 30)]
    refusal = ("refused: planted clique size would exceed the part size 10; "
               "c too large for this part size\n")
    assert [(run.returncode, run.stdout, run.stderr) for run in runs] == [(2, "", refusal)] * 2
    for c in (10 ** 15, 10 ** 30, Fraction(10 ** 400)):
        with pytest.raises(PreconditionError) as refused:
            gen_multipartite_planted(10, 1, c)
        assert f"refused: {refused.value}\n" == refusal


@pytest.mark.parametrize("base", [2 ** 60 - 1, 2 ** 60 + 1])
def test_floor_with_cbrt_term_corrects_the_float_guess(base):
    # float(base) is 2^60 both times: the guess is one above floor(base),
    # then one below, and the exact steps move it back
    assert float(base) == 2 ** 60
    assert _floor_with_cbrt_term(Fraction(base), Fraction(0), 1) == base


# ---------------------------------------------------------------------------
# the greedy adversary instance

@pytest.mark.parametrize("n", [2, 3, 6, 10, 25])
def test_adversary_structure(n):
    g = gen_greedy_adversary(n)
    N = 4 * n + 2
    m = adversary_planted_size(n)
    assert g.n == N
    assert m == round((3 * n) ** 0.5)
    assert g.edge_count == (2 * n + 1) ** 2 + m * (m - 1)
    planted = list(range(m)) + list(range(2 * n + 1, 2 * n + 1 + m))
    for v in range(N):
        want = 2 * n + m if v in planted else 2 * n + 1
        assert g.degrees[v] == want
    # the planted complete bipartite graph is all there
    for i in range(m):
        for j in range(m):
            assert g.has_edge(i, 2 * n + 1 + j)
    # antipodal edges and the window boundary
    assert g.has_edge(0, 2 * n + 1)
    assert g.has_edge(0, n) and not g.has_edge(m, 2 * n + 1 + m + 1)
    # density strictly above one half: 2E - N(N-1)/... in integers
    assert 2 * g.edge_count > N * (N - 1) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 100])
def test_adversary_matches_its_pairwise_definition(n):
    g, want = gen_greedy_adversary(n), support.reference_adversary(n)
    assert g == want and write_edge_list(g) == write_edge_list(want)


def test_adversary_rejects_tiny_n():
    with pytest.raises(PreconditionError):
        gen_greedy_adversary(1)


# ---------------------------------------------------------------------------
# glued pairs

def test_glued_single_pair_is_a_perfect_matching():
    seen = set()
    for seed in range(10):
        g = gen_glued(support.empty(2), support.empty(2), seed=seed)
        assert g.n == 4 and g.edge_count == 2
        assert set(g.degrees) == {1}
        seen.add(tuple(g.edges()))
    assert seen == {((0, 2), (1, 3)), ((0, 3), (1, 2))}


def test_glued_cross_degrees_and_counts():
    a = support.cycle(6)
    b = support.complete_bipartite(3, 3)
    g = gen_glued(a, b, seed=4)
    h = a.n // 2
    assert g.n == 12
    assert g.edge_count == a.edge_count + b.edge_count + 2 * h * h
    for v in range(6):
        assert g.degrees[v] == a.degrees[v] + h
    for v in range(6):
        assert g.degrees[6 + v] == b.degrees[v] + h


def test_glued_is_deterministic_and_seed_sensitive():
    a, b = support.cycle(8), support.cycle(8)
    lists = {write_edge_list(gen_glued(a, b, seed=s)) for s in range(6)}
    assert len(lists) > 1
    assert write_edge_list(gen_glued(a, b, seed=3)) == \
        write_edge_list(gen_glued(a, b, seed=3))


@pytest.mark.parametrize("n", [0, 2, 4, 6, 10, 30])
@pytest.mark.parametrize("seed", [0, 1, 5, 12])
def test_glued_picks_the_reference_matching_per_coin(n, seed):
    # A holds its packed rows, B its masks
    a, b = gen_gnp(n, Fraction(1, 2), seed + 1), support.path(n)
    g, want = gen_glued(a, b, seed), support.reference_glued(a, b, seed)
    assert g == want and write_edge_list(g) == write_edge_list(want)


def test_glued_rejects_mismatched_or_odd_orders():
    with pytest.raises(PreconditionError):
        gen_glued(support.empty(2), support.empty(4), seed=0)
    with pytest.raises(PreconditionError):
        gen_glued(support.cycle(3), support.cycle(3), seed=0)


# ---------------------------------------------------------------------------
# the GenSpec front door

def test_generate_dispatch_and_metadata():
    g, meta = generate(GenSpec("gnp", n=30, p=Fraction(1, 3), seed=5))
    assert g.n == 30 and meta["density"] == density(g)

    g, meta = generate(GenSpec("clique-isolated", n=27, E=13))
    assert meta["m"] == 6

    g, meta = generate(GenSpec("multipartite-planted", n=64, r=1, c=1))
    assert meta["k"] == 23

    g, meta = generate(GenSpec("adversary", n=6))
    assert g.n == 26 and meta["m"] == adversary_planted_size(6)


GENERATED = {
    "adversary-2": lambda: gen_greedy_adversary(2),
    "adversary-3": lambda: gen_greedy_adversary(3),
    "adversary-25": lambda: gen_greedy_adversary(25),
    "adversary-100": lambda: gen_greedy_adversary(100),
    "glued-gnp10": lambda: gen_glued(gen_gnp(10, Fraction(1, 2), 1),
                                     gen_gnp(10, Fraction(1, 2), 2), seed=3),
    "multipartite-r1": lambda: gen_multipartite_planted(6, 1)[0],
    "multipartite-r2": lambda: gen_multipartite_planted(6, 2)[0],
    "multipartite-r3": lambda: gen_multipartite_planted(8, 3)[0],
    "gnp-0": lambda: gen_gnp(30, 0, 4),
    "gnp-1/2": lambda: gen_gnp(30, Fraction(1, 2), 4),
    "gnp-1": lambda: gen_gnp(30, 1, 4),
    "clique-isolated": lambda: gen_clique_plus_isolated(27, 13),
}


@pytest.mark.parametrize("name", GENERATED)
def test_generated_masks_pass_the_checked_constructor(name):
    # the dense generators build through the unchecked Graph._from_matrix,
    # so the masks packed from it must pass every check of Graph.from_masks
    g = GENERATED[name]()
    assert Graph.from_masks(g.n, g.adj).adj == g.adj


def test_generate_is_byte_identical_per_spec():
    spec = GenSpec("gnp", n=50, p=Fraction(2, 5), seed=11)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert write_edge_list(a) == write_edge_list(b)


def test_generate_validates_family_and_arguments():
    with pytest.raises(PreconditionError):
        generate(GenSpec("mystery", n=5))
    with pytest.raises(PreconditionError):
        generate(GenSpec("gnp", n=5))
    with pytest.raises(PreconditionError):
        generate(GenSpec("clique-isolated", n=5))
    with pytest.raises(PreconditionError):
        generate(GenSpec("multipartite-planted", n=5))
