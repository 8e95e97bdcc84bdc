"""Experiment sweeps and the command-line interface.

CLI tests call main(argv) in-process and compare every printed number
against the library call it fronts.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import support
from fullsub import (
    EdgeListError,
    GenSpec,
    PreconditionError,
    SweepConfig,
    VerificationError,
    density,
    discrepancy_exact,
    discrepancy_local_search,
    full_infection_probability,
    full_infection_probability_exact,
    full_two_thirds,
    gen_clique_plus_isolated,
    gen_gnp,
    gen_greedy_adversary,
    generate,
    greedy_full,
    largest_full_or_cofull,
    oracle_largest_full,
    qfull_partition,
    read_csv,
    read_edge_list,
    rows_to_csv,
    run_sweep,
    small_p_full,
    small_p_size_floor,
    summarize,
    write_csv,
    write_edge_list,
)
from fullsub import cli as cli_mod, graph as graph_mod, percolation
from fullsub.cli import main
from fullsub.sweep import CSV_COLUMNS, ExperimentRow, frac_str


# ---------------------------------------------------------------------------
# sweeps as a library

BASE = SweepConfig(n_grid=(8, 10), p_grid=(Fraction(1, 2),), seeds=(0,),
                   algorithms=("greedy", "half-full", "oracle"))


def test_sweep_six_cell_example():
    rows = run_sweep(BASE)
    assert len(rows) == 6
    assert [r.algorithm for r in rows] == ["greedy", "half-full", "oracle"] * 2
    assert [r.n for r in rows] == [8, 8, 8, 10, 10, 10]
    for r in rows:
        assert r.family == "gnp" and r.p == Fraction(1, 2) and r.seed == 0
        assert r.witness_size >= 1
        assert r.passed_verification
        assert r.runtime_ms == ""


def test_sweep_rows_follow_grid_order():
    cfg = SweepConfig(n_grid=(6, 7), p_grid=(Fraction(1, 3), Fraction(2, 3)),
                      seeds=(0, 1), algorithms=("greedy",))
    rows = run_sweep(cfg)
    assert [(r.n, r.p, r.seed) for r in rows] == list(
        itertools.product(cfg.n_grid, cfg.p_grid, cfg.seeds))


def test_sweep_rows_match_direct_library_calls():
    for row in run_sweep(BASE):
        g = gen_gnp(row.n, row.p, seed=row.seed)
        if row.algorithm == "greedy":
            assert row.witness_size == greedy_full(g).size
        elif row.algorithm == "oracle":
            res = oracle_largest_full(g, density(g))
            assert row.witness_size == res.size
            assert row.bound_value == frac_str(Fraction(res.size))


def test_sweep_reruns_are_byte_identical():
    assert rows_to_csv(run_sweep(BASE)) == rows_to_csv(run_sweep(BASE))


def test_sweep_timings_fill_the_runtime_column():
    cfg = SweepConfig(n_grid=(6,), p_grid=(Fraction(1, 2),), seeds=(0,),
                      algorithms=("greedy",), timings=True)
    (row,) = run_sweep(cfg)
    assert row.runtime_ms != ""
    float(row.runtime_ms)


def test_sweep_threads_do_not_change_rows():
    serial = run_sweep(BASE)
    parallel = run_sweep(SweepConfig(**{**BASE.__dict__, "threads": 2}))
    assert serial == parallel


def test_importing_fullsub_loads_no_process_pool():
    # the pool's modules are imported by a threaded sweep alone
    env = dict(os.environ, PYTHONPATH=str(Path(graph_mod.__file__).parents[1]))
    code = ("import sys, fullsub; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_sweep_nongnp_records_graph_order_and_realized_density():
    cfg = SweepConfig(n_grid=(2,), p_grid=(Fraction(1, 2),), seeds=(0,),
                      algorithms=("greedy",), family="adversary")
    (row,) = run_sweep(cfg)
    assert row.n == 10
    assert row.p == density(gen_greedy_adversary(2))


def test_sweep_config_validation():
    with pytest.raises(PreconditionError):
        run_sweep(SweepConfig((), (Fraction(1, 2),), (0,), ("greedy",)))
    with pytest.raises(PreconditionError):
        run_sweep(SweepConfig((5,), (Fraction(1, 2),), (0,), ("newton",)))
    with pytest.raises(PreconditionError):
        run_sweep(SweepConfig((2,), (Fraction(1, 3), Fraction(1, 2)), (0,),
                              ("greedy",), family="adversary"))


def test_sweep_refuses_clique_isolated_before_any_cell(monkeypatch):
    import fullsub.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "generate", lambda spec: pytest.fail("a cell ran"))
    with pytest.raises(PreconditionError, match="the sweep has no E"):
        run_sweep(SweepConfig((9,), (Fraction(1, 2),), (0,), ("greedy",),
                              family="clique-isolated"))


@pytest.mark.parametrize("threads", [0, -3])
def test_sweep_refuses_nonpositive_threads(threads):
    with pytest.raises(PreconditionError, match="threads"):
        run_sweep(SweepConfig(**{**BASE.__dict__, "threads": threads}))


def test_sweep_cell_errors_name_the_cell():
    cfg = SweepConfig(n_grid=(25,), p_grid=(Fraction(1, 2),), seeds=(3,),
                      algorithms=("oracle",), exact_cap=20)
    with pytest.raises(PreconditionError, match=r"n=25 .*seed=3.*oracle"):
        run_sweep(cfg)


# two orders, two densities, two seeds and three algorithms: eight
# graphs; the digest was recorded with one generation per cell, so
# generating once per graph must not change a byte
MIXED = dict(n_grid=(9, 14), p_grid=(Fraction(1, 3), Fraction(1, 2)), seeds=(0, 1),
             algorithms=("greedy", "half-full", "oracle"))
MIXED_CSV_SHA256 = "4af660705d40be744a1170391f902dfbb99a6f4b50a905bcba62fdf89c11036f"


def test_sweep_generates_each_graph_once(monkeypatch):
    import fullsub.sweep as sweep_mod

    specs = []
    real = sweep_mod.generate

    def counting(spec, **kwargs):
        specs.append((spec.n, spec.p, spec.seed))
        return real(spec, **kwargs)

    monkeypatch.setattr(sweep_mod, "generate", counting)
    rows = run_sweep(SweepConfig(**MIXED))
    assert specs == list(itertools.product(MIXED["n_grid"], MIXED["p_grid"], MIXED["seeds"]))
    assert len(rows) == 3 * len(specs)


def test_sweep_finders_get_the_generated_matrix(monkeypatch):
    import fullsub.sweep as sweep_mod

    primed = []
    real = sweep_mod.greedy_full

    def recording(g):
        primed.append("matrix" in g.__dict__)
        return real(g)

    monkeypatch.setattr(sweep_mod, "greedy_full", recording)
    run_sweep(SweepConfig(n_grid=(30,), p_grid=(Fraction(1, 2),), seeds=(0, 1),
                          algorithms=("greedy",)))
    assert primed == [True, True]


def test_dense_sweep_group_packs_no_masks(monkeypatch):
    modules = [importlib.import_module(f"fullsub.{name}")
               for name in ("graph", "discrepancy", "percolation")]
    packed = []
    real = modules[0]._pack_rows

    def counting(rows):
        packed.append(rows.shape)
        return real(rows)

    for mod in modules:  # every module that binds the name
        monkeypatch.setattr(mod, "_pack_rows", counting)
    rows = run_sweep(SweepConfig(n_grid=(1000,), p_grid=(Fraction(1, 2),), seeds=(0,),
                                 algorithms=("greedy", "two-thirds", "half-full")))
    assert [r.passed_verification for r in rows] == [True] * 3
    assert packed == []
    gen_gnp(10, Fraction(1, 2), 0).adj  # the count sees masks packed from a G(n, p) matrix
    assert packed == [(10, 10)]


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_csv_is_unchanged_by_generating_once(threads):
    csv_text = rows_to_csv(run_sweep(SweepConfig(**MIXED, threads=threads)))
    assert hashlib.sha256(csv_text.encode("ascii")).hexdigest() == MIXED_CSV_SHA256


def test_sweep_errors_name_the_failing_algorithm_of_a_group():
    cfg = SweepConfig(n_grid=(25,), p_grid=(Fraction(1, 2),), seeds=(3,),
                      algorithms=("greedy", "oracle", "half-full"), exact_cap=20)
    with pytest.raises(PreconditionError, match=r"seed=3 algorithm=oracle\]"):
        run_sweep(cfg)
    # a generation failure names the group's first cell
    cfg = SweepConfig(n_grid=(1,), p_grid=(Fraction(1, 2),), seeds=(0,),
                      algorithms=("half-full", "greedy"), family="adversary")
    with pytest.raises(PreconditionError, match=r"n=1 .*algorithm=half-full\]: n must be"):
        run_sweep(cfg)


@pytest.mark.parametrize("algo, n, p", [
    ("greedy", 40, Fraction(1, 2)),
    ("two-thirds", 200, Fraction(1, 2)),
    ("small-p", 64, Fraction(1, 64)),
    ("half-full", 40, Fraction(1, 2)),
    ("oracle", 10, Fraction(1, 2)),
], ids=["greedy", "two-thirds", "small-p", "half-full", "oracle"])
def test_every_sweep_algorithm_stops_on_its_own_certificate(monkeypatch, algo, n, p):
    # the finder's certificate is the only one a sweep witness passes:
    # with both violator searches naming the first member, every cell fails
    from fullsub import finders

    real = finders._relative_violator

    def first_member(g, q, vertices, base):
        _, idx, degs = real(g, q, vertices, base)
        return (int(idx[0]) if len(idx) else None), idx, degs

    monkeypatch.setattr(finders, "_first_violator",
                        lambda bar_p, idx, degs, mode: int(idx[0]) if len(idx) else None)
    monkeypatch.setattr(finders, "_relative_violator", first_member)
    cfg = SweepConfig(n_grid=(n,), p_grid=(p,), seeds=(0,), algorithms=(algo,))
    with pytest.raises(VerificationError, match=rf"algorithm={algo}\]: .*witness not"):
        run_sweep(cfg)


def test_csv_round_trip(tmp_path):
    rows = run_sweep(BASE)
    assert read_csv(io.StringIO(rows_to_csv(rows))) == rows
    path = str(tmp_path / "rows.csv")
    write_csv(rows, path)
    assert read_csv(path) == rows
    with open(path, encoding="ascii") as fh:
        assert fh.readline().rstrip("\n") == ",".join(CSV_COLUMNS)


def test_csv_rejects_foreign_header():
    with pytest.raises(PreconditionError):
        read_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_summarize_same_from_rows_or_csv():
    rows = run_sweep(BASE)
    text = summarize(rows)
    assert summarize(read_csv(io.StringIO(rows_to_csv(rows)))) == text
    assert "gnp/greedy: rows=2 verified=2" in text


def test_csv_round_trips_an_empty_seed():
    # the CLI's record line writes seed None as an empty field
    rows = (ExperimentRow("file", 5, Fraction(1, 2), None, "greedy", 3, "1/1", "", True),)
    text = rows_to_csv(rows)
    assert text.splitlines()[1] == "file,5,1/2,,greedy,3,1/1,,true"
    assert read_csv(io.StringIO(text)) == rows


# ---------------------------------------------------------------------------
# CLI plumbing

def graph_file(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(write_edge_list(g), encoding="ascii")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_gen_writes_canonical_edge_list(capsys, tmp_path):
    out = str(tmp_path / "gnp.txt")
    code, _, err = run_cli(capsys, "gen", "--family", "gnp", "--n", "12",
                           "--p", "1/3", "--seed", "5", "--out", out)
    assert code == 0
    want = gen_gnp(12, Fraction(1, 3), seed=5)
    assert open(out, encoding="ascii").read() == write_edge_list(want)
    assert "generated family=gnp n=12" in err


@pytest.mark.parametrize("argv,spec", [
    (["--family", "gnp", "--n", "300", "--p", "1/2"],
     GenSpec("gnp", 300, p=Fraction(1, 2), seed=4)),
    (["--family", "gnp", "--n", "300", "--p", "1/50"],
     GenSpec("gnp", 300, p=Fraction(1, 50), seed=4)),
    (["--family", "clique-isolated", "--n", "30", "--E", "40"],
     GenSpec("clique-isolated", 30, E=40)),
    (["--family", "multipartite-planted", "--n", "6", "--r", "2"],
     GenSpec("multipartite-planted", 6, r=2)),
    (["--family", "adversary", "--n", "9"], GenSpec("adversary", 9)),
])
def test_cli_gen_writes_the_reference_text(capsys, tmp_path, argv, spec):
    want = support.reference_write_edge_list(generate(spec)[0])
    out = str(tmp_path / "g.txt")
    assert run_cli(capsys, "gen", *argv, "--seed", "4", "--out", out)[0] == 0
    assert open(out, encoding="ascii").read() == want
    code, text, _ = run_cli(capsys, "gen", *argv, "--seed", "4")
    assert code == 0 and text == want


@pytest.mark.parametrize("argv,spec", [
    (["--family", "gnp", "--n", "300", "--p", "1/2"], GenSpec("gnp", 300, p=Fraction(1, 2))),
    (["--family", "clique-isolated", "--n", "300", "--E", "10000"],
     GenSpec("clique-isolated", 300, E=10000)),
], ids=("matrix-held", "mask-held"))
def test_cli_gen_writes_the_header_then_one_piece_per_row_block(capsys, monkeypatch, argv, spec):
    # each graph has edges in several blocks of rows
    pieces, real = [], cli_mod._write_text

    def recording(it, path):
        real((pieces.append(piece) or piece for piece in it), path)

    monkeypatch.setattr(cli_mod, "_write_text", recording)
    code, text, _ = run_cli(capsys, "gen", *argv)
    want = support.reference_write_edge_list(generate(spec)[0])
    assert code == 0 and text == b"".join(pieces).decode("ascii") == want
    header, *lines = want.splitlines(keepends=True)
    rows = graph_mod._WRITE_ROWS
    blocks = ["".join(line for line in lines if int(line.split()[0]) // rows == b)
              for b in range(-(-300 // rows))]
    assert pieces[0] == header.encode("ascii")
    # at most one piece per row block, each no longer than its block's
    # lines: never the whole text
    assert [piece.decode("ascii") for piece in pieces[1:]] == [b for b in blocks if b]
    assert len(pieces) > 2


def test_cli_gen_to_stdout_parses_back(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "clique-isolated",
                           "--n", "9", "--E", "6")
    assert code == 0
    g = read_edge_list(out)
    assert g.n == 9 and g.edge_count == 6


def test_cli_gen_warns_in_its_own_words_below_c_1(capsys):
    # one line of the CLI's own before the generated line, or before the
    # refusal that follows it; stdout is the graph as before
    argv = ("gen", "--family", "multipartite-planted", "--n", "10", "--r", "1", "--c")
    with pytest.warns(UserWarning, match="c = 1/2 < 1"):
        want = generate(GenSpec("multipartite-planted", 10, r=1, c=Fraction(1, 2)))[0]
    assert run_cli(capsys, *argv, "1/2") == (0, support.reference_write_edge_list(want), (
        "warning: c = 1/2 < 1: planted density below the guaranteed regime\n"
        "generated family=multipartite-planted n=20 edges=115 density=23/38 k=5 "
        "realized_p=23/38 target_edges=115\n"))
    assert run_cli(capsys, *argv, "1/1000") == (2, "", (
        "warning: c = 1/1000 < 1: planted density below the guaranteed regime\n"
        "refused: edge target 95 below the 100 cross-part edges; "
        "c too small for this part size\n"))


def test_cli_gen_glued_needs_both_inputs(capsys, tmp_path):
    a = graph_file(tmp_path, support.cycle(6), "a.txt")
    b = graph_file(tmp_path, support.cycle(6), "b.txt")
    out = str(tmp_path / "glued.txt")
    code, _, _ = run_cli(capsys, "gen", "--family", "glued", "--a", a,
                         "--b", b, "--seed", "2", "--out", out)
    assert code == 0
    assert read_edge_list(open(out, encoding="ascii").read()).n == 12
    code, _, err = run_cli(capsys, "gen", "--family", "glued", "--a", a)
    assert code == 2 and "refused" in err


def test_cli_disc_matches_library(capsys, tmp_path):
    g = support.complete_bipartite(3, 1)
    path = graph_file(tmp_path, g)
    code, out, _ = run_cli(capsys, "disc", "--input", path, "--p", "1/2")
    assert code == 0
    res = discrepancy_exact(g, Fraction(1, 2), "positive")
    assert f"value={frac_str(res.value)}" in out
    assert "witness: " + " ".join(map(str, sorted(res.witness))) in out

    code, out, _ = run_cli(capsys, "disc", "--input", path, "--p", "1/2",
                           "--sign", "minus", "--k", "3")
    res = discrepancy_exact(g, Fraction(1, 2), "negative", k=3)
    assert code == 0 and f"value={frac_str(res.value)}" in out and "k=3" in out


def test_cli_disc_heuristic_matches_library(capsys, tmp_path):
    g = gen_gnp(24, Fraction(1, 2), seed=6)
    path = graph_file(tmp_path, g)
    code, out, _ = run_cli(capsys, "disc", "--input", path, "--heuristic",
                           "--seed", "1")
    res = discrepancy_local_search(g, density(g), "positive", seed=1)
    assert code == 0 and f"value={frac_str(res.value)}" in out


def test_cli_full_greedy_record_line(capsys, tmp_path):
    g = gen_gnp(15, Fraction(1, 2), seed=0)
    path = graph_file(tmp_path, g)
    code, out, _ = run_cli(capsys, "full", "--input", path, "--p", "1/2",
                           "--trace")
    assert code == 0
    res = greedy_full(g, p=Fraction(1, 2))
    assert f"size={res.size}" in out
    assert out.rstrip().endswith(
        f"file,15,1/2,,greedy,{res.size},1/1,,true")
    code, out, _ = run_cli(capsys, "g", "--input", path, "--method", "heuristic",
                           "--seed", "4")
    res = largest_full_or_cofull(g, method="heuristic", seed=4)
    assert code == 0 and out.endswith(
        f"\nfile,15,{frac_str(res.p)},4,g-heuristic,{res.value},1/1,,true\n")


def test_cli_full_oracle_and_density_default(capsys, tmp_path):
    g = gen_gnp(10, Fraction(1, 2), seed=4)
    path = graph_file(tmp_path, g)
    code, out, _ = run_cli(capsys, "full", "--input", path, "--algo", "oracle")
    res = oracle_largest_full(g, density(g))
    assert code == 0 and f"size={res.size}" in out
    assert f"p={frac_str(density(g))}" in out


def test_cli_full_two_thirds_rejects_p_override(capsys, tmp_path):
    path = graph_file(tmp_path, support.clique(5))
    code, _, err = run_cli(capsys, "full", "--input", path,
                           "--algo", "two-thirds", "--p", "1/2")
    assert code == 2 and "refused" in err


@pytest.mark.parametrize("algo, g", [
    ("two-thirds", gen_gnp(60, Fraction(1, 3), seed=0)),
    ("small-p", gen_clique_plus_isolated(27, 13)),
])
def test_cli_full_size_law_finders_print_certified_witnesses(capsys, tmp_path, algo, g):
    path = graph_file(tmp_path, g)
    code, out, _ = run_cli(capsys, "full", "--input", path, "--algo", algo, "--seed", "2")
    head, witness, record = out.splitlines()
    fields = dict(field.split("=") for field in head.split()[1:])
    p, size, bound = Fraction(fields["p"]), int(fields["size"]), Fraction(fields["guarantee"])
    vertices = [int(v) for v in witness.split()[1:]]
    assert code == 0 and fields["algo"] == algo and p == density(g)
    assert size == len(vertices) >= bound > 0
    assert support.brute_is_full(g, p, vertices)
    assert record == f"file,{g.n},{frac_str(p)},2,{algo},{size},{frac_str(bound)},,true"


def test_cli_qfull_both_modes(capsys, tmp_path):
    g = support.complete_bipartite(3, 3)
    path = graph_file(tmp_path, g)
    code, out, _ = run_cli(capsys, "qfull", "--input", path, "--q", "1/3")
    assert code == 0
    res = qfull_partition(g, Fraction(1, 3))
    assert f"variant={res.variant}" in out

    code, out, _ = run_cli(capsys, "qfull", "--input", path, "--r", "2")
    assert code == 0 and "one-over-r r=2" in out


def test_cli_g_matches_library(capsys, tmp_path):
    g = support.cycle(5)
    path = graph_file(tmp_path, g)
    code, out, _ = run_cli(capsys, "g", "--input", path)
    res = largest_full_or_cofull(g)
    assert code == 0
    assert f"value={res.value} side={res.side}" in out


def test_cli_percolate_exact_spot(capsys, tmp_path):
    path = graph_file(tmp_path, gen_gnp(7, Fraction(1, 2), seed=11))
    code, out, _ = run_cli(capsys, "percolate", "--input", path,
                           "--p", "2/5", "--exact")
    assert code == 0 and "theta_exact=33872/78125" in out


def test_cli_percolate_estimate_matches_the_library(capsys, tmp_path):
    g, p = gen_gnp(14, Fraction(1, 3), seed=1), Fraction(1, 2)
    path = graph_file(tmp_path, g)
    code, out, _ = run_cli(capsys, "percolate", "--input", path, "--p", "1/2",
                           "--trials", "300", "--seed", "5")
    est = full_infection_probability(g, p, trials=300, seed=5)
    assert 0 < est.successes == support.reference_monte_carlo(g, p, 300, 5)[0] < 300
    assert (code, out) == (0, f"theta_estimate={est.successes}/300 (~{float(est.estimate):.4f}) "
                              f"half_width={est.half_width:.4f}\n")


def test_cli_percolate_estimate_with_witness(capsys, tmp_path):
    path = graph_file(tmp_path, support.cycle(4))
    code, out, _ = run_cli(capsys, "percolate", "--input", path, "--p", "0",
                           "--trials", "5", "--witness")
    assert code == 0
    assert "theta_estimate=0/5" in out
    assert "surviving half-full set (trial 0, size 4)" in out
    assert "witness: 0 1 2 3" in out


@pytest.mark.parametrize("g, p", [
    (gen_gnp(14, Fraction(1, 3), seed=1), Fraction(1, 2)),  # some trials fail
    (gen_gnp(16, Fraction(1, 2), seed=2), Fraction(3, 4)),  # every trial succeeds
    (support.disjoint_union(gen_gnp(10, Fraction(1, 2), seed=4), support.empty(3)),
     Fraction(1, 2)),
    (support.empty(0), Fraction(1, 2)),
    (support.cycle(5), Fraction(0)),
    (support.cycle(5), Fraction(1)),
], ids=["gnp14", "gnp16", "isolated", "n0", "p0", "p1"])
@pytest.mark.parametrize("exact", [False, True], ids=["estimate", "exact"])
def test_cli_percolate_witness_matches_reference(capsys, tmp_path, g, p, exact):
    path = graph_file(tmp_path, g)
    code, out, _ = run_cli(capsys, "percolate", "--input", path, "--p", frac_str(p),
                           "--trials", "300", "--seed", "5", "--witness",
                           *(["--exact"] if exact else []))
    successes, failure = support.reference_monte_carlo(g, p, 300, 5)
    first, *rest = out.splitlines()
    assert code == 0
    if exact:
        assert first == f"theta_exact={frac_str(full_infection_probability_exact(g, p))}"
    else:
        assert first.startswith(f"theta_estimate={successes}/300 ")
    if failure is None:
        assert rest == ["witness: none (every sampled start infected the whole graph)"]
    else:
        t, left = failure
        assert rest == [f"surviving half-full set (trial {t}, size {len(left)}):",
                        "witness: " + " ".join(map(str, sorted(left)))]


@pytest.mark.parametrize("g, p, first", [
    (gen_gnp(16, Fraction(1, 2), seed=2), Fraction(1, 4), 0),
    (gen_gnp(16, Fraction(1, 2), seed=4), Fraction(3, 4), 256),  # second batch, first row
    (gen_gnp(12, Fraction(1, 2), seed=4), Fraction(7, 10), 287),
    (gen_gnp(16, Fraction(1, 2), seed=2), Fraction(4, 5), None),  # every trial succeeds
], ids=["trial0", "trial256", "trial287", "none"])
def test_cli_exact_witness_stops_at_the_first_failing_batch(capsys, tmp_path, monkeypatch,
                                                            g, p, first):
    path = graph_file(tmp_path, g)
    args = ["percolate", "--input", path, "--p", frac_str(p), "--trials", "1000",
            "--seed", "0", "--exact", "--witness"]
    successes, failure = support.reference_monte_carlo(g, p, 1000, 0)
    assert (failure and failure[0]) == first
    batches = []
    real = percolation._percolate_rows
    monkeypatch.setattr(percolation, "_percolate_rows",
                        lambda *a: batches.append(1) or real(*a))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert len(batches) == (4 if first is None else first // percolation._CHUNK + 1)
    # stdout equals the full pass's: the exact value, then its first failure
    want = [f"theta_exact={frac_str(full_infection_probability_exact(g, p))}"]
    if failure is None:
        want.append("witness: none (every sampled start infected the whole graph)")
    else:
        t, left = failure
        want += [f"surviving half-full set (trial {t}, size {len(left)}):",
                 "witness: " + " ".join(map(str, sorted(left)))]
    assert out.splitlines() == want


def test_cli_sweep_writes_csv(capsys, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code, stdout, _ = run_cli(
        capsys, "sweep", "--n-grid", "8,10", "--p-grid", "1/2",
        "--seeds", "0", "--algos", "greedy,half-full,oracle", "--out", out)
    assert code == 0
    assert read_csv(out) == run_sweep(BASE)
    assert "gnp/oracle" in stdout
    # two-thirds rows through a written file (at p = 1/2 that finder needs n > 128)
    code, stdout, _ = run_cli(
        capsys, "sweep", "--n-grid", "30,60", "--p-grid", "1/4", "--seeds", "0,1",
        "--algos", "greedy,two-thirds,half-full", "--out", out)
    rows = read_csv(out)
    assert code == 0 and len(rows) == 2 * 2 * 3
    assert rows == run_sweep(SweepConfig(n_grid=(30, 60), p_grid=(Fraction(1, 4),),
                                         seeds=(0, 1),
                                         algorithms=("greedy", "two-thirds", "half-full")))
    assert stdout.splitlines() == summarize(rows).splitlines()
    assert [line.split(" size")[0] for line in stdout.splitlines()] == [
        f"gnp/{algo}: rows=4 verified=4" for algo in ("greedy", "half-full", "two-thirds")]


def test_cli_sweep_small_p_rows_carry_the_finder_guarantee(capsys):
    code, out, err = run_cli(capsys, "sweep", "--n-grid", "60,100", "--p-grid", "1/100",
                             "--seeds", "0,1", "--algos", "small-p")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 5 and all(line.endswith(",true") for line in lines[1:])
    assert err.startswith("gnp/small-p: rows=4 verified=4 ")
    for row in read_csv(io.StringIO(out)):
        g = gen_gnp(row.n, row.p, row.seed)
        res, bound = small_p_full(g), Fraction(row.bound_value)
        assert bound == res.guarantee == small_p_size_floor(g.n, density(g))
        assert row.witness_size == res.size >= bound


def test_cli_sweep_offers_no_clique_isolated_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "clique-isolated", "--n-grid", "9", "--p-grid", "1/2",
              "--seeds", "0", "--algos", "greedy"])
    assert exc.value.code == 2 and "invalid choice: 'clique-isolated'" in capsys.readouterr().err


def test_cli_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(write_edge_list(support.clique(4))))
    code, out, _ = run_cli(capsys, "full", "--input", "-")
    assert code == 0 and "size=4" in out


@pytest.mark.parametrize("argv, reads", [
    (["disc"], 1), (["full"], 1), (["qfull", "--q", "1/2"], 1), (["g"], 1),
    (["percolate", "--p", "1/2", "--exact"], 1),
    (["gen", "--family", "gnp", "--n", "6", "--p", "1/2"], 0),
    (["sweep", "--n-grid", "6", "--p-grid", "1/2", "--seeds", "0", "--algos", "greedy"], 0),
], ids=["disc", "full", "qfull", "g", "percolate", "gen", "sweep"])
def test_cli_reads_the_input_once_per_command(capsys, tmp_path, monkeypatch, argv, reads):
    # the parser reads --input and hands the graph to the handler, which
    # reads nothing itself; gen (without glued's --a/--b) and sweep read none
    calls, real = [], cli_mod._read_graph
    monkeypatch.setattr(cli_mod, "_read_graph", lambda path: calls.append(path) or real(path))
    path = graph_file(tmp_path, support.cycle(6))
    code, _, _ = run_cli(capsys, *argv, *(["--input", path] if reads else []))
    assert code == 0 and calls == [path] * reads


def test_cli_exit_code_1_on_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("what even is this\n", encoding="ascii")
    code, _, err = run_cli(capsys, "disc", "--input", str(bad))
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "disc", "--input", str(tmp_path / "no.txt"))
    assert code == 1


@pytest.mark.parametrize("variant", ("crlf", "duplicate", "reversed", "non-ascii"))
def test_cli_reads_files_the_canonical_reader_declines_as_text(capsys, tmp_path, variant):
    # the text spans several of the streamed blocks, and each variant
    # edits a line in the last one: the file is read again as ASCII text
    text = write_edge_list(gen_gnp(600, Fraction(1, 2), seed=3))
    assert len(text) > 2 * graph_mod._TEXT_BLOCK
    lines = text.splitlines()
    u, v = lines[-3].split()
    lines[-3] = {"duplicate": lines[-4], "reversed": f"{v} {u}",
                 "non-ascii": f"{u} \u0661"}.get(variant, lines[-3])
    bad = tmp_path / "bad.txt"
    bad.write_bytes(("\r\n" if variant == "crlf" else "\n").join(lines + [""]).encode("utf-8"))
    code, out, err = run_cli(capsys, "full", "--input", str(bad))
    if variant == "crlf":  # text mode reads "\r\n" as "\n"
        want = run_cli(capsys, "full", "--input", graph_file(tmp_path, read_edge_list(text)))[1]
        assert (code, out, err) == (0, want, "")
        return
    with pytest.raises((EdgeListError, UnicodeDecodeError)) as e:
        support.reference_read_edge_list(bad.read_text(encoding="ascii"))
    assert (code, out, err) == (1, "", f"error: {e.value}\n")


@pytest.mark.parametrize("variant", ("none", "duplicate", "self-loop", "out-of-range"))
def test_cli_reads_a_sparse_canonical_file_without_the_line_parser(monkeypatch, tmp_path,
                                                                   variant):
    # the 10^6 bytes of an n = 1000 matrix exceed the file's ~40 kB, so the
    # canonical reader places its pairs into masks; only a faulty file
    # goes on to the line parser, which names the faulty line
    g = gen_gnp(1000, Fraction(1, 110), seed=0)
    lines = write_edge_list(g).splitlines()
    u, v = lines[-3].split()
    lines[-3] = {"duplicate": lines[-4], "self-loop": f"{u} {u}",
                 "out-of-range": f"{u} 1000"}.get(variant, lines[-3])
    path = tmp_path / "sparse.txt"
    path.write_text("\n".join(lines + [""]), encoding="ascii")
    parsed = []
    monkeypatch.setattr(cli_mod, "read_edge_list",
                        lambda text: parsed.append(text) or read_edge_list(text))
    if variant == "none":
        got = cli_mod._read_graph(str(path))
        assert parsed == [] and "matrix" not in got.__dict__
        assert (got.n, got.adj) == (g.n, g.adj)
        return
    with pytest.raises(EdgeListError) as e:
        cli_mod._read_graph(str(path))
    assert len(parsed) == 1 and e.value.line_no == len(lines) - 2
    with pytest.raises(EdgeListError) as want:
        support.reference_read_edge_list(path.read_text(encoding="ascii"))
    assert str(e.value) == str(want.value)


def test_cli_reads_a_file_that_is_a_pipe(capsys, tmp_path):
    # a pipe has no size, so the canonical reader must leave it unread
    # for the line parser, which opens it again and reads it whole; the
    # CRLF text is one the canonical reader would decline after its header
    want = run_cli(capsys, "full", "--input", graph_file(tmp_path, support.petersen()))[1]
    for newline in ("\n", "\r\n"):
        r, w = os.pipe()
        os.write(w, write_edge_list(support.petersen()).replace("\n", newline).encode("ascii"))
        os.close(w)
        try:
            code, out, err = run_cli(capsys, "full", "--input", f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert (code, out, err) == (0, want, "")


def test_cli_reports_undecodable_input_file(capsys, tmp_path):
    # files are read as ASCII; Arabic-Indic digits are not
    bad = tmp_path / "digits.txt"
    bad.write_bytes("2 1\n\u0660 \u0661\n".encode("utf-8"))
    code, out, err = run_cli(capsys, "full", "--input", str(bad))
    assert code == 1 and out == "" and err.startswith("error: ")


def test_cli_exit_code_2_on_refusal(capsys, tmp_path):
    path = graph_file(tmp_path, support.cycle(4))
    code, _, err = run_cli(capsys, "percolate", "--input", path, "--p", "3/2",
                           "--exact")
    assert code == 2 and "refused" in err

    big = graph_file(tmp_path, gen_gnp(25, Fraction(1, 2), seed=0), "big.txt")
    code, _, err = run_cli(capsys, "disc", "--input", big)
    assert code == 2


def test_cli_refuses_exact_caps_beyond_the_kernel(capsys, tmp_path):
    path = graph_file(tmp_path, support.empty(60))
    code, out, err = run_cli(capsys, "disc", "--input", path, "--exact-cap", "60")
    assert code == 2 and out == "" and "n <= 52 whatever the cap" in err


def test_cli_gen_refuses_a_matrix_beyond_physical_memory(capsys):
    code, out, err = run_cli(capsys, "gen", "--family", "gnp", "--n", "10000000",
                             "--p", "1/2")
    assert code == 2 and out == "" and "physical memory" in err


def test_cli_gen_refuses_mask_lists_beyond_physical_memory(capsys):
    code, out, err = run_cli(capsys, "gen", "--family", "gnp", "--n", str(10 ** 12),
                             "--p", "0")
    assert code == 2 and out == "" and "adjacency masks" in err and "physical memory" in err


def test_cli_exit_code_3_on_verification_failure(capsys, tmp_path, monkeypatch):
    # a peel that keeps every vertex hands greedy_full's certificate a
    # witness that is not full
    from fullsub import finders

    def keep_all(g, p, *a, **kw):
        return np.arange(g.n), (), False, np.array(g.degrees)

    monkeypatch.setattr(finders, "_peel", keep_all)
    code, _, err = run_cli(capsys, "sweep", "--n-grid", "6", "--p-grid", "1/2",
                           "--seeds", "0", "--algos", "greedy", "--out", "-")
    assert code == 3 and "verification failure" in err and "algorithm=greedy" in err


def test_cli_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["full"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["percolate", "--input", "g.txt", "--p", "abc"], "expected a rational like 1/2, got 'abc'"),
    (["sweep", "--n-grid", "1,x", "--p-grid", "1/2", "--seeds", "0", "--algos", "greedy"],
     "expected comma-separated integers, got '1,x'"),
])
def test_cli_malformed_numbers_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and message in capsys.readouterr().err


def test_cli_gen_refuses_a_family_without_its_order(capsys):
    code, out, err = run_cli(capsys, "gen", "--family", "gnp", "--p", "1/2")
    assert (code, out, err) == (2, "", "refused: family gnp requires --n\n")


@pytest.mark.parametrize("argv", [
    ["disc", "--input", "g.txt", "--exact"],
    ["full", "--input", "g.txt", "--threads", "2"],
    ["percolate", "--input", "g.txt", "--p", "1/2", "--threads", "2"],
    ["gen", "--family", "gnp", "--n", "4", "--p", "1/2", "--exact-cap", "5"],
    ["qfull", "--input", "g.txt", "--q", "1/2", "--exact-cap", "5"],
    ["sweep", "--n-grid", "6", "--p-grid", "1/2", "--seeds", "0", "--algos", "greedy",
     "--seed", "1"],
])
def test_cli_rejects_removed_flags(capsys, argv):
    # disc is exact unless --heuristic; --threads belongs to sweep only;
    # --exact-cap only to the subcommands that enumerate; sweep's seeds
    # come from --seeds, not --seed
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_refuses_abbreviated_flags(capsys, tmp_path):
    path = graph_file(tmp_path, support.cycle(4))
    for argv in (["--he"],
                 ["disc", "--input", path, "--exact", "5"],
                 ["disc", "--inp", path],
                 ["full", "--input", path, "--tie", "min-index"],
                 ["sweep", "--n-grid", "6", "--p-grid", "1/2", "--seeds", "0",
                  "--algos", "greedy", "--thread", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "disc", "--input", path, "--exact-cap", "5")
    assert code == 0 and out.startswith("disc+")
    code, out, _ = run_cli(capsys, "full", "--input", path, "--tie-break", "min-index")
    assert code == 0 and "size=4" in out


def test_cli_refuses_out_of_range_p_and_threads(capsys, tmp_path):
    path = graph_file(tmp_path, support.cycle(5))
    for p in ("2", "-1"):
        code, _, err = run_cli(capsys, "full", "--input", path, "--p", p)
        assert code == 2 and "refused" in err
        code, _, err = run_cli(capsys, "full", "--input", path, "--algo", "oracle", "--p", p)
        assert code == 2 and "refused" in err
    for p in ("3", "-1"):
        code, _, err = run_cli(capsys, "disc", "--input", path, "--p", p)
        assert code == 2 and "refused" in err
    code, _, err = run_cli(capsys, "sweep", "--n-grid", "6", "--p-grid", "1/2",
                           "--seeds", "0", "--algos", "greedy", "--threads", "0")
    assert code == 2 and "threads" in err
    for trials in ("0", "-3"):
        code, out, err = run_cli(capsys, "percolate", "--input", path, "--p", "1/2",
                                 "--exact", "--witness", "--trials", trials)
        assert code == 2 and "trials must be positive" in err and out == ""
    code, _, err = run_cli(capsys, "disc", "--input", path, "--heuristic", "--restarts", "-2")
    assert code == 2 and "restarts must be positive" in err


@pytest.mark.parametrize("argv, k", [(["--k", "50"], 50),
                                     (["--heuristic", "--k", "-1"], -1)])
def test_cli_refuses_out_of_range_k(capsys, tmp_path, argv, k):
    path = graph_file(tmp_path, gen_gnp(12, Fraction(1, 2), seed=0))
    code, out, err = run_cli(capsys, "disc", "--input", path, *argv)
    assert (code, out, err) == (2, "", f"refused: k must lie in 0..12, got {k}\n")


# ---------------------------------------------------------------------------
# experiment scripts

def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paper_claims_script_smoke(capsys):
    # scripts/paper_claims.py took over scaling_sweep.py's ratios and
    # adversary_separation.py's figures: every row of the default run
    assert load_script("paper_claims").main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    certified = [
        ["C2", "gnp", "200", "0.5000", "two-thirds", "9", "5", "0.263", "holds"],
        ["C5", "gnp", "200", "0.5000", "greedy", "126", "-", "3.684", "open"],
        ["C2", "gnp", "500", "0.5000", "two-thirds", "23", "9", "0.365", "holds"],
        ["C5", "gnp", "500", "0.5000", "greedy", "315", "-", "5.000", "open"],
        ["C2", "gnp", "1000", "0.5000", "two-thirds", "47", "15", "0.470", "holds"],
        ["C5", "gnp", "1000", "0.5000", "greedy", "630", "-", "6.300", "open"],
        ["C2", "gnp", "2000", "0.5000", "two-thirds", "49", "24", "0.309", "holds"],
        ["C5", "gnp", "2000", "0.5000", "greedy", "1275", "-", "8.032", "open"],
        ["C2", "gnp", "5000", "0.5000", "two-thirds", "117", "46", "0.400", "holds"],
        ["C5", "gnp", "5000", "0.5000", "greedy", "3143", "-", "10.749", "open"],
        ["crit9", "adversary", "102", "0.5189", "greedy", "60", "-", "2.748", "-"],
        ["crit9", "adversary", "102", "0.5189", "greedy-antipodal", "26", "20", "1.191",
         "fails"],
        ["C2", "adversary", "402", "0.5046", "two-thirds", "26", "8", "0.477", "holds"],
        ["crit9", "adversary", "402", "0.5046", "greedy", "218", "-", "4.002", "-"],
        ["crit9", "adversary", "402", "0.5046", "greedy-antipodal", "108", "36", "1.983",
         "fails"],
        ["C2", "adversary", "1602", "0.5012", "two-thirds", "51", "21", "0.373", "holds"],
        ["crit9", "adversary", "1602", "0.5012", "greedy", "836", "-", "6.106", "-"],
        ["crit9", "adversary", "1602", "0.5012", "greedy-antipodal", "404", "72", "2.951",
         "fails"],
        # criterion 9's second assertion: the aligned finder against antipodal greedy
        ["crit9", "adversary", "1602", "0.5012", "two-thirds", "51", "404", "0.373", "fails"]]
    assert rows == [
        ["claim", "family", "n", "p", "finder", "method", "value", "bound", "ratio", "status"],
        *[row[:5] + ["certified"] + row[5:] for row in certified],
        ["C1", "all", "-", "0.5000", "-", "-", "-",
         "(2n)^(1/2)-2<=f(n,1/2)<=4n^(2/3)(log(n))^(1/3)", "-", "open"],
        ["C3", "multipartite", "-", "~r/(r+1)", "-", "-", "-", "f(n,p)=O((1-p)^(2/3)n^(2/3))",
         "-", "open"],
        ["C4", "all", "-", "-", "-", "-", "-", "g(G)=Omega(n/log(n))", "-", "open"]]


def test_mutant_table_entries_apply_to_the_tree():
    """Every entry of scripts/mutants.py names a snippet that occurs once
    in its file and test functions that exist, so a stale entry shows up
    without running the mutants."""
    root = Path(__file__).resolve().parents[1]
    for m in load_script("mutants").MUTANTS:
        assert (root / "src" / m.path).read_text(encoding="utf-8").count(m.snippet) == 1, m.name
        for node in m.tests:
            path, test = node.split("::")
            name = test.split("[")[0]
            assert f"\ndef {name}(" in (root / path).read_text(encoding="utf-8"), node


def test_paper_claims_script_refuses_cleanly(capsys, monkeypatch):
    script = load_script("paper_claims")

    def refuse(g):
        raise PreconditionError("density 1/2 is out of range")

    monkeypatch.setitem(script.FINDERS, "greedy", refuse)
    assert script.main([]) == 2
    out, err = capsys.readouterr()
    assert [line.split()[:3] for line in out.splitlines()[1:]] == [["C2", "gnp", "200"]]
    assert err == "error: C5 gnp n=200 greedy: density 1/2 is out of range\n"


def test_paper_claims_script_exits_3_on_a_witness_that_is_not_full(capsys, monkeypatch):
    script = load_script("paper_claims")

    def fault(g):
        raise VerificationError("witness not full at p=1/2: vertex 7")

    # a finder that raises its own certificate's failure
    monkeypatch.setitem(script.FINDERS, "two-thirds", fault)
    assert script.main([]) == 3
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1
    assert err == "error: C2 gnp n=200 two-thirds: witness not full at p=1/2: vertex 7\n"
    # a real finder whose own certificate names its first member: the
    # table runs no check of its own, so the finder's is the one that stops it
    from fullsub import finders

    g = gen_gnp(200, Fraction(1, 2), 0)
    first = min(full_two_thirds(g).vertices)
    monkeypatch.setattr(finders, "_first_violator",
                        lambda bar_p, idx, degs, mode: int(idx[0]) if len(idx) else None)
    assert load_script("paper_claims").main([]) == 3
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1
    assert err == (f"error: C2 gnp n=200 two-thirds: witness not full at p={density(g)}: "
                   f"vertex {first}\n")


@pytest.fixture(scope="module")
def layer_timing_rows():
    """One run of scripts/layer_timings.py at --n 200 --max-n 24, shared by
    the tests that pin its rows: each row split into its six fields."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = load_script("layer_timings").main(["--n", "200", "--max-n", "24"])
    assert code == 0
    return [line.split() for line in out.getvalue().splitlines()]


def _layer_rows(rows, *layers):
    return [row[:5] for row in rows[1:] if row[0] in layers]


# sizes and digests are pinned: a faster layer keeps each graph, text,
# table, theta and witness


def test_layer_timings_script_smoke(layer_timing_rows):
    rows = layer_timing_rows
    assert rows[0] == ["layer", "case", "n", "size", "digest", "seconds"]
    assert [row[0] for row in rows[1:]] == (
        ["gen"] * 2 + ["dense"] * 5 + ["io"] * 6 + ["percolate"] * 9 + ["extremes"] * 5
        + ["theta"] * 5 + ["oracle"] * 7)
    assert _layer_rows(rows, "io", "extremes", "theta") == [
        ["io", "write-gnp", "200", "69044", "9319cbed553a8eed"],
        ["io", "read-gnp", "200", "69044", "9319cbed553a8eed"],
        ["io", "write-cycles", "20000", "217792", "a1da6c3ddc54a3d1"],
        ["io", "read-cycles", "20000", "217792", "a1da6c3ddc54a3d1"],
        ["io", "write-gnp-1/110", "1000", "34904", "0657437e453955b3"],
        ["io", "read-gnp-1/110", "1000", "34904", "0657437e453955b3"],
        ["extremes", "build_extremes", "16", "17", "c968a963fba6c122"],
        ["extremes", "build_extremes", "18", "19", "7b1ce1b47ff513a4"],
        ["extremes", "build_extremes", "20", "21", "d397d98b59319d16"],
        ["extremes", "build_extremes", "22", "23", "efa272a0c629ee44"],
        ["extremes", "build_extremes", "24", "25", "913741b45857dec1"],
        ["theta", "theta_exact", "16", "-", "aab9b05af607f968"],
        ["theta", "theta_exact", "18", "-", "80c85b4d7ada30d7"],
        ["theta", "theta_exact", "20", "-", "d63f74cb2d72b69a"],
        ["theta", "theta_exact", "22", "-", "8ecfe77399dfb264"],
        ["theta", "theta_exact", "24", "-", "6efe6f5b0afae126"]]
    assert all(float(row[5]) >= 0 for row in rows[1:])


def test_percolate_timings_script_smoke(layer_timing_rows):
    # Monte Carlo sizes are successes out of 300; digests cover the first
    # failing trial and its survivors, or the closure's rounds and set
    assert _layer_rows(layer_timing_rows, "percolate") == [
        ["percolate", "mc-gnp-1/110-p5/16", "1000", "135", "69776463db826542"],
        ["percolate", "mc-gnp-1/110-p2/5", "1000", "300", "440d039388746e85"],
        ["percolate", "mc-gnp-1/110-p1/2", "1000", "300", "440d039388746e85"],
        ["percolate", "mc-gnp-1/20-p2/5", "1000", "289", "6094f16f21e578f4"],
        ["percolate", "mc-gnp-1/2-p1/2", "2000", "298", "672aa443598e1f04"],
        ["percolate", "mc-adversary-p1/2", "1602", "282", "6738e2a6658bab09"],
        ["percolate", "mc-cycles-p1/2", "20000", "0", "8ca80ac2807a895e"],
        ["percolate", "bootstrap-gnp-1/110", "1000", "1000", "f355e2706b5f79ba"],
        ["percolate", "bootstrap-cycles", "20000", "5", "b1b4745bd02565b1"]]


def test_dense_layer_timings_script_smoke(layer_timing_rows):
    # the dense-cell rows of scripts/layer_timings.py
    assert _layer_rows(layer_timing_rows, "gen", "dense") == [
        ["gen", "gen_gnp", "200", "10008", "cc9e118cb777b6b0"],
        ["gen", "gen_gnp-1/2000", "200", "6", "77c2fe3a5adbf5a7"],
        ["dense", "greedy_full", "200", "138", "4580ce135a5c9773"],
        ["dense", "full_two_thirds", "200", "10", "9f367847b5618dd6"],
        ["dense", "half_full", "200", "100", "d269aff37d5967a1"],
        ["dense", "largest_full_or_cofull", "200", "138", "bd997cd5ed9d5fb1"],
        ["dense", "complement", "200", "9892", "e25dc4d6ab3c1eda"]]


def test_oracle_layer_timings_script_smoke(layer_timing_rows):
    # the oracle worst-case rows of scripts/layer_timings.py
    assert _layer_rows(layer_timing_rows, "oracle") == [
        ["oracle", "gnp-seed0-full", "24", "17", "d9467bae8d67f835"],
        ["oracle", "gnp-seed0-cofull", "24", "18", "1915c67e50eee00f"],
        ["oracle", "gnp-seed0-g", "24", "18", "1915c67e50eee00f"],
        ["oracle", "gnp-seed1-full", "24", "16", "51c21f8a0dd0b5be"],
        ["oracle", "gnp-seed1-cofull", "24", "17", "13947b88e588a5cb"],
        ["oracle", "gnp-seed1-g", "24", "17", "13947b88e588a5cb"],
        ["oracle", "multipartite-r1-full", "24", "16", "4a906a4912ca469d"]]


def test_layer_timings_script_fails_on_a_read_that_changes_the_graph(capsys, monkeypatch):
    script = load_script("layer_timings")
    monkeypatch.setattr(script, "_read_graph", lambda path: gen_gnp(200, Fraction(1, 2), 1))
    assert script.main(["--n", "200", "--max-n", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[1:-1]] == [
        "gen_gnp", "gen_gnp-1/2000", "greedy_full", "full_two_thirds", "half_full",
        "largest_full_or_cofull", "complement", "write-gnp"]
    assert lines[-1] == "error: read-gnp n=200 reads back as a different graph"
