"""End-to-end acceptance checks, one numbered test per guarantee.

Each test records a one-line detail with its measured values; the
terminal summary prints "criterion N: PASS/FAIL - detail" per test.
Failing tests record their numbers before asserting so the summary
stays informative.
"""

from fractions import Fraction

import support
from conftest import record_criterion
from fullsub import (
    adversary_planted_size,
    bootstrap_percolate,
    ceil_sqrt_frac,
    clique_part_size,
    density,
    discrepancy_exact,
    full_infection_probability_exact,
    full_two_thirds,
    gen_clique_plus_isolated,
    gen_gnp,
    gen_greedy_adversary,
    gen_multipartite_planted,
    greedy_full,
    is_full,
    jumbledness_exact,
    largest_full_or_cofull,
    one_over_r_full,
    oracle_largest_full,
    qfull_partition,
    small_p_full,
)

MIXED_P = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
           Fraction(2, 3), Fraction(3, 4))
# Sampled G(n, p) at the exact caps for criteria 3 and 8: every n in
# 13..20 at every p of MIXED_P.
WIDE_GRAPHS = 8 * len(MIXED_P)


def wide_sample(i: int) -> tuple[int, Fraction]:
    """(n, p) of the i-th wide sample."""
    return 13 + i % 8, MIXED_P[i // 8]


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def test_criterion_1():
    # clique plus isolated vertices: oracle recovers the clique and the
    # greedy guarantee ceil(sqrt(2*disc+/(1-p))) collapses to
    # ceil(sqrt(m(m-1))) = m. At n = m the graph is complete (p = 1)
    # and 2*disc+/(1-p) is 0/0; the family identity reduces it to
    # m(m-1), which is what gets evaluated there.
    checked = 0
    for m in range(3, 7):
        for n in range(m, 13):
            g = gen_clique_plus_isolated(n, m * (m - 1) // 2)
            p = density(g)
            assert oracle_largest_full(g, p).size == m
            if p == 1:
                bound = ceil_sqrt_frac(Fraction(m * (m - 1)))
            else:
                alpha = discrepancy_exact(g, p, "positive").value
                bound = ceil_sqrt_frac(2 * alpha / (1 - p))
            assert bound == m
            checked += 1
    record_criterion(1, f"oracle size and greedy bound both equal m on all "
                        f"{checked} clique-plus-isolated instances")


def test_criterion_2():
    count = 0
    for i in range(200):
        n = 2 + i % 11
        g = gen_gnp(n, MIXED_P[i % len(MIXED_P)], seed=i)
        p = density(g)
        witness = discrepancy_exact(g, p, "positive").witness
        ok, _ = is_full(g, p, witness)
        assert ok, (n, i)
        count += 1
    record_criterion(2, f"positive-discrepancy witness was full at the "
                        f"graph density in {count}/200 random graphs")


def test_criterion_3():
    # f^2 (1-p) >= 2 disc+ in exact rationals
    exhaustive = 0
    for n in range(7):
        for g in support.all_graphs(n):
            p = density(g)
            f = oracle_largest_full(g, p).size if n else 0
            dplus = discrepancy_exact(g, p, "positive").value
            assert Fraction(f * f) * (1 - p) >= 2 * dplus, (n, g.adj)
            exhaustive += 1
    sampled = nontrivial = 0
    samples = [(7 + i % 6, MIXED_P[i % len(MIXED_P)], 5000 + i) for i in range(500)]
    samples += [(*wide_sample(i), 5500 + i) for i in range(WIDE_GRAPHS)]
    for i, (n, q, seed) in enumerate(samples):
        g = gen_gnp(n, q, seed=seed)
        p = density(g)
        f = oracle_largest_full(g, p).size
        dplus = discrepancy_exact(g, p, "positive").value
        assert Fraction(f * f) * (1 - p) >= 2 * dplus, (n, i)
        sampled += 1
        nontrivial += dplus > 0
    record_criterion(3, f"squared-size bound held on {exhaustive} graphs "
                        f"(all n <= 6) and {sampled} random graphs on 7..20 "
                        f"vertices ({nontrivial} with positive discrepancy)")


QS = tuple(Fraction(a, b) for b in range(2, 8) for a in range(1, b)
           if Fraction(a, b).denominator == b)


def test_criterion_4():
    k5 = support.clique(5)
    out = qfull_partition(k5, Fraction(1, 2))
    assert out.variant == "i" and len(out.set_q) == 3
    k33 = support.complete_bipartite(3, 3)
    out = qfull_partition(k33, Fraction(1, 2))
    assert out.variant == "iii" and len(out.set_q) == 4
    assert one_over_r_full(support.clique(8), 3).size == 4

    for i in range(1000):
        n = 4 + (i * 7) % 57
        g = gen_gnp(n, MIXED_P[i % len(MIXED_P)], seed=9000 + i)
        q = QS[i % len(QS)]
        kx = ceil_div(q.numerator * n, q.denominator)
        out = qfull_partition(g, q)
        if out.variant == "i":
            assert len(out.set_q) == kx
            assert support.brute_is_relatively_full(g, q, out.set_q)
        elif out.variant == "ii":
            assert len(out.set_1mq) == n - kx
            assert support.brute_is_relatively_full(g, 1 - q, out.set_1mq)
        else:
            assert len(out.set_q) == kx + 1
            assert len(out.set_1mq) == n - kx + 1
            assert support.brute_is_relatively_full(g, q, out.set_q)
            assert support.brute_is_relatively_full(g, 1 - q, out.set_1mq)
        r = 1 + i % 8
        rel = one_over_r_full(g, r)
        assert n // r <= rel.size <= ceil_div(n, r) + 1
        assert support.brute_is_relatively_full(g, Fraction(1, r), rel.vertices)
    record_criterion(4, "size windows and relative-degree certificates held "
                        "on 1000 random graphs (n <= 60) plus the three "
                        "closed cases")


def test_criterion_5():
    sizes = []
    for n in (200, 1000, 5000):
        for seed in range(20):
            g = gen_gnp(n, Fraction(1, 2), seed=seed)
            res = full_two_thirds(g)
            ok, _ = is_full(g, res.p_used, res.vertices)
            assert ok, (n, seed)
            # size >= (1/2)^(2/3) n^(2/3) / 4 - 1, cubed to integers
            assert 256 * (res.size + 1) ** 3 >= n * n, (n, seed, res.size)
            sizes.append((n, res.size))
    lohi = {n: (min(s for m, s in sizes if m == n),
                max(s for m, s in sizes if m == n)) for n in (200, 1000, 5000)}
    record_criterion(5, f"all 60 outputs full with sizes above the floor; "
                        f"size ranges {lohi}")


def test_criterion_6():
    ratios = []
    for n in (4, 5, 6):
        g, meta = gen_multipartite_planted(n, 1, 1)
        f = oracle_largest_full(g, meta["realized_p"]).size
        assert f <= 2 * meta["k"], (n, f, meta["k"])
        ratios.append(f"n={n}: f={f} <= 2k={2 * meta['k']}")
    record_criterion(6, "; ".join(ratios))


def test_criterion_7():
    # sparse regime p <= n^(-2/3): clique plus isolated vertices packs
    # its E edges onto the fewest vertices, m = clique_part_size(E), and
    # the oracle must return exactly m. Minimality of m gives
    # (m-1)(m-2) < 2E < p n^2, so f < sqrt(p)n + 2; the lower side is
    # sqrt(p)n - 1. The narrower f <= sqrt(p)n + 1 is false for every
    # graph at n = 16, E = 4: the edges cover a set S of 4..8 vertices,
    # each with a neighbour in S, and p(|S| - 1) <= 7/30 < 1 makes S
    # full, so f >= 4 > 3.92.
    # small_p_full's certified witness must land in the window its
    # docstring promises, [sqrt(p)n - 1, sqrt(p)n + 1].
    n = 16
    cases = []
    for E in range(1, 7):
        g = gen_clique_plus_isolated(n, E)
        p = density(g)
        assert p.numerator ** 3 * n * n <= p.denominator ** 3  # p <= n^(-2/3)
        res = small_p_full(g)
        ok, _ = is_full(g, res.p_used, res.vertices)
        cases.append((E, p, clique_part_size(E),
                      oracle_largest_full(g, p).size, res.size, ok))
    record_criterion(7, f"n={n}: " + "; ".join(
        f"E={E}: f={f}, m={m}, sqrt(p)n={float(p * n * n) ** 0.5:.3f}, "
        f"witness={s}" for E, p, m, f, s, _ in cases))
    for E, p, m, f, s, ok in cases:
        nn, den = p.numerator * n * n, p.denominator
        assert f == m, (E, f, m)
        assert (f + 1) ** 2 * den >= nn, (E, f)
        assert f < 2 or (f - 2) ** 2 * den < nn, (E, f)
        assert ok, (E, s)
        assert (s + 1) ** 2 * den >= nn, (E, s)
        assert s <= 1 or (s - 1) ** 2 * den <= nn, (E, s)


def test_criterion_8():
    # f >= disc+/j and g >= disc/j, exact rationals, at p = density
    def check(g) -> bool:
        p = density(g)
        j = jumbledness_exact(g, p).j
        if j == 0:
            return False
        dplus = discrepancy_exact(g, p, "positive").value
        dminus = discrepancy_exact(g, p, "negative").value
        f = oracle_largest_full(g, p).size
        gv = largest_full_or_cofull(g).value
        assert f * j >= dplus, g.adj
        assert gv * j >= max(dplus, dminus), g.adj
        return True

    exhaustive = sum(check(g) for n in range(7) for g in support.all_graphs(n))
    sampled = 0
    for i in range(600):
        n = 7 + i % 2
        sampled += check(gen_gnp(n, MIXED_P[i % len(MIXED_P)], seed=30000 + i))
    wide = sum(check(gen_gnp(*wide_sample(i), seed=30600 + i)) for i in range(WIDE_GRAPHS))
    record_criterion(8, f"ratio bounds held on {exhaustive} graphs with "
                        f"nonzero jumbledness (all n <= 6), {sampled} of "
                        f"600 sampled graphs on 7..8 vertices and {wide} of "
                        f"{WIDE_GRAPHS} on 13..20 (full enumeration beyond "
                        f"n = 6 is infeasible)")


def test_criterion_9():
    # target: hostile greedy peeling (antipodal tie-break) stops within
    # the planted cap 2m+2 while the degree-aligned finder keeps more.
    # Observed: the antipodal schedule keeps degrees flat, so greedy
    # stops near n (26/108/404 against caps 20/36/72), above the aligned
    # finder's 51 at n = 400, and neither assertion holds
    sizes = {}
    for n in (25, 100, 400):
        g = gen_greedy_adversary(n)
        sizes[n] = greedy_full(g, tie_break="adversarial-antipodal").size
    caps = {n: 2 * adversary_planted_size(n) + 2 for n in sizes}
    aligned = full_two_thirds(gen_greedy_adversary(400)).size
    record_criterion(9, f"greedy kept {sizes[25]}/{sizes[100]}/{sizes[400]} "
                        f"vertices vs caps {caps[25]}/{caps[100]}/{caps[400]}; "
                        f"degree-aligned finder returned {aligned} at n=400, "
                        f"{'larger' if aligned > sizes[400] else 'not larger'}")
    assert all(sizes[n] <= caps[n] for n in sizes), (sizes, caps)
    assert aligned > sizes[400], (aligned, sizes[400])


def test_criterion_10():
    graphs = infection_checks = 0
    for i in range(300):
        n = 3 + i % 6
        g = gen_gnp(n, MIXED_P[i % len(MIXED_P)], seed=20000 + i)
        everyone = frozenset(range(n))
        if n <= 6:
            initial_masks = range(1 << n)
        else:
            initial_masks = [(37 * t + i) % (1 << n) for t in range(25)]
        for imask in initial_masks:
            initial = {v for v in range(n) if imask >> v & 1}
            finished = bootstrap_percolate(g, initial).infected == everyone
            blocked = support.has_half_full_subset(g, set(everyone) - initial)
            assert finished == (not blocked), (n, i, imask)
            infection_checks += 1
        graphs += 1
    theta_cases = 0
    for i in range(10):
        n = 6 + i % 5
        g = gen_gnp(n, MIXED_P[i % len(MIXED_P)], seed=40000 + i)
        p = MIXED_P[(i + 3) % len(MIXED_P)]
        assert full_infection_probability_exact(g, p) == support.brute_theta(g, p)
        theta_cases += 1
    record_criterion(10, f"infection criterion matched on {infection_checks} "
                         f"initial sets over {graphs} graphs; exact "
                         f"probability matched the all-subsets simulation on "
                         f"{theta_cases} graphs up to n = 10")


def test_criterion_11():
    # soft linear-size check: greedy on G(2000, 1/2) should keep well
    # over a tenth of the graph
    sizes = []
    for seed in range(5):
        g = gen_gnp(2000, Fraction(1, 2), seed=seed)
        res = greedy_full(g)
        ok, _ = is_full(g, res.p_used, res.vertices)
        assert ok, seed
        sizes.append(res.size)
    record_criterion(11, f"greedy witness sizes {sizes} on G(2000, 1/2), "
                         f"all at least 200 = 0.10 n")
    assert all(s >= 200 for s in sizes), sizes
