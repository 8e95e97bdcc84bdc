"""Mutation check for the differential tests.

Each entry of MUTANTS names a file under src/, an exact snippet that
must occur in it once, the snippet's replacement and the pytest node ids
that should catch the change. For each entry the script copies src/ to
a temporary directory, applies that one replacement to the copy and
runs only the named tests, one pytest process at a time, with
PYTHONPATH on the copy; the work tree is never modified. A mutant is
killed when a named test fails and survives when all pass. First the
named tests run once on an unmodified copy, so that a failure that is
not the mutant's counts as an error rather than a kill.

The script exits 1 on a survivor, on a stale entry (its snippet no
longer occurs exactly once, so the change that moved the code updates
the entry with it) or on any other error, and 0 when every mutant is
killed. Answer a survivor with a new test, never by dropping the entry.

    python scripts/mutants.py

It starts one pytest process per entry plus one, about 3 min in all on
a 2-vCPU Xeon virtual machine, and is not part of the test suite; the
suite only checks that every entry's snippet and tests still exist.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # node ids relative to the repository root


MUTANTS = (
    Mutant("gray-code add", "fullsub/discrepancy.py",
           "base += cross[rows_log + b]", "base -= cross[rows_log + b]",
           ("tests/test_discrepancy.py::test_extremes_match_reference_on_gnp",)),
    Mutant("gray-code subtract", "fullsub/discrepancy.py",
           "base -= cross[rows_log + b]", "base += cross[rows_log + b]",
           ("tests/test_discrepancy.py::test_extremes_match_reference_on_gnp",)),
    Mutant("max tie-break takes the last set of its size segment", "fullsub/discrepancy.py",
           "flip = np.array([[mask], [0]])", "flip = np.array([[0], [0]])",
           ("tests/test_discrepancy.py::test_extremes_match_reference_on_tie_heavy_graphs",
            "tests/test_discrepancy.py::"
            "test_extremes_match_the_int64_kernel_across_the_key_width_change[21]")),
    Mutant("key dtype one width too narrow", "fullsub/discrepancy.py",
           "np.min_scalar_type((math.comb(n, 2) << bits) | ((1 << bits) - 1))",
           "np.min_scalar_type(((math.comb(n, 2) << bits) | ((1 << bits) - 1)) >> 8)",
           ("tests/test_discrepancy.py::"
            "test_extremes_match_the_int64_kernel_across_the_key_width_change[22]",)),
    Mutant("chunk doubled one row-block short", "fullsub/discrepancy.py",
           "for j in range(rows_log):", "for j in range(rows_log - 1):",
           ("tests/test_discrepancy.py::test_extremes_match_reference_on_gnp[20]",)),
    Mutant("extremes cached per n, not per graph", "fullsub/discrepancy.py",
           "cache = g.__dict__",
           "cache = _subset_extremes.__dict__.setdefault(g.n, {})",
           ("tests/test_discrepancy.py::test_derived_graphs_get_their_own_tables",)),
    Mutant("ties go to the lexicographically largest set", "fullsub/discrepancy.py",
           "lex_less(mask, best[1])", "lex_less(best[1], mask)",
           ("tests/test_discrepancy.py::test_table_readers_match_reference_on_tie_heavy_graphs",)),
    Mutant("scores read the other sign's extreme", "fullsub/discrepancy.py",
           'if sign == "positive":\n            yield', 'if sign == "negative":\n            yield',
           ("tests/test_discrepancy.py::test_table_readers_match_reference_on_gnp[8]",)),
    Mutant("weak majority", "fullsub/percolation.py",
           "need, width = degrees // 2 + 1,", "need, width = degrees // 2,",
           ("tests/test_percolation.py::test_batched_closure_matches_reference_per_row",)),
    Mutant("scatter pads table rows with vertex 0", "fullsub/percolation.py",
           "table = np.repeat(np.arange(g.n), width)",
           "table = np.zeros(g.n * width, dtype=np.intp)",
           ("tests/test_percolation.py::test_batched_closure_matches_reference_per_row",)),
    Mutant("scatter block reads the fresh rows one row down", "fullsub/percolation.py",
           "np.flatnonzero(fresh[a:a + step])", "np.flatnonzero(fresh[a + 1:a + 1 + step])",
           ("tests/test_percolation.py::test_batched_closure_matches_reference_per_row",)),
    Mutant("scatter piece drops its last entry", "fullsub/percolation.py",
           "idx = at[s:s + piece]", "idx = at[s:s + piece - 1]",
           ("tests/test_percolation.py::test_batched_closure_matches_reference_per_row",)),
    Mutant("mask neighbour table reads each word's bits big-endian", "fullsub/percolation.py",
           "v = 64 * word + bit", "v = 64 * word + 63 - bit",
           ("tests/test_percolation.py::test_batched_closure_matches_reference_per_row",)),
    Mutant("cost model picks the dearer update", "fullsub/percolation.py",
           "+ cnt.size) < cnt.size * cols.size", "+ cnt.size) > cnt.size * cols.size",
           ("tests/test_percolation.py::test_sparse_rounds_on_a_mask_graph_build_no_matrix",
            "tests/test_percolation.py::test_shipped_cost_model_switches_update_within_a_batch")),
    Mutant("a round with nothing fresh multiplies anyway", "fullsub/percolation.py",
           "elif cols.size:", "else:",
           ("tests/test_percolation.py::test_sparse_rounds_on_a_mask_graph_build_no_matrix",)),
    Mutant("theta need met only past it", "fullsub/percolation.py",
           "[:, None] >= _R)", "[:, None] > _R)",
           ("tests/test_percolation.py::"
            "test_exact_infection_probability_matches_brute_on_every_small_graph[4]",)),
    Mutant("theta closure shifts by 2^v + 1", "fullsub/percolation.py",
           "np.uint64(1 << v)", "np.uint64((1 << v) + 1)",
           ("tests/test_percolation.py::"
            "test_exact_infection_probability_matches_brute_on_every_small_graph[4]",)),
    Mutant("theta word-level closure runs downward", "fullsub/percolation.py",
           "pairs[:, 1] |= pairs[:, 0]", "pairs[:, 0] |= pairs[:, 1]",
           ("tests/test_percolation.py::"
            "test_exact_infection_probability_matches_reference_dp[gnp8-half]",)),
    Mutant("theta keeps the empty set blocked", "fullsub/percolation.py",
           "    blocked[0] &= ~np.uint64(1)  # the empty set\n", "",
           ("tests/test_percolation.py::test_exact_infection_probability_closed_cases",)),
    Mutant("theta marks the words without v", "fullsub/percolation.py",
           "held = blocked.reshape(-1, 2, 1 << v - 6)[:, 1]",
           "held = blocked.reshape(-1, 2, 1 << v - 6)[:, 0]",
           ("tests/test_percolation.py::"
            "test_exact_infection_probability_matches_reference_dp[gnp7-half]",)),
    Mutant("inverted bernoulli threshold", "fullsub/rng.py",
           "random_raw(size) < threshold", "random_raw(size) >= threshold",
           ("tests/test_generate.py::test_gnp_matches_reference_fill",
            "tests/test_percolation.py::test_initial_sample_matches_reference")),
    Mutant("peel keeps deleted vertices", "fullsub/finders.py",
           "np.flatnonzero(deg < n)", "np.flatnonzero(deg >= 0)",
           ("tests/test_finders.py::test_peel_matches_reference_on_gnp",)),
    Mutant("byte-wide in-set degree total", "fullsub/graph.py",
           "dtype=np.uint16 if n < 1 << 16 else np.uint32", "dtype=np.uint8",
           ("tests/test_finders.py::test_matrix_certification_matches_the_mask_walk",)),
    Mutant("block of 256 rows summed as bytes", "fullsub/graph.py",
           "_BYTE_ROWS = 128", "_BYTE_ROWS = 256",
           ("tests/test_finders.py::test_matrix_certification_matches_the_mask_walk",)),
    Mutant("violator picked one past the first", "fullsub/finders.py",
           "_fullness_bar(p, m)\n    return int(idx[bad.argmax()]) if bad.any() else None",
           "_fullness_bar(p, m)\n"
           "    return int(idx[min(bad.argmax() + 1, len(idx) - 1)]) if bad.any() else None",
           ("tests/test_finders.py::test_matrix_certification_matches_the_mask_walk",)),
    Mutant("relative check scales in int64 at any q", "fullsub/finders.py",
           "np.int64 if b * g.n < 1 << 63 else object", "np.int64",
           ("tests/test_finders.py::test_matrix_certification_matches_the_mask_walk",)),
    Mutant("certification primes the matrix", "fullsub/graph.py",
           'if "matrix" in g.__dict__:\n        return idx, _column_counts',
           'if True:\n        return idx, _column_counts',
           ("tests/test_finders.py::test_certifying_a_mask_graph_builds_no_matrix",)),
    Mutant("mask walk drops a set given as a mask", "fullsub/graph.py",
           "mask, adj = vertices, g.adj", "mask, adj = 0, g.adj",
           ("tests/test_finders.py::test_matrix_certification_matches_the_mask_walk",)),
    Mutant("vertex array taken unsorted", "fullsub/graph.py",
           "inside[ids] = True\n    return np.flatnonzero(inside)",
           "inside[ids] = True\n    return ids",
           ("tests/test_finders.py::test_certification_reads_any_array_as_a_set",)),
    Mutant("float vertex ids truncated", "fullsub/graph.py",
           'ids.dtype.kind not in "biu"', 'ids.dtype.kind not in "biuf"',
           ("tests/test_finders.py::test_certification_refuses_vertices_outside_the_graph",)),
    Mutant("name slot without its separator", "fullsub/graph.py",
           'np.strings.add(names, b" ")', 'np.strings.add(names, b"")',
           ("tests/test_graph.py::test_write_is_canonical_sorted",
            "tests/test_graph.py::test_write_matches_reference_at_digit_width_edges[10]")),
    Mutant("mask writer shifts one bit short of the diagonal", "fullsub/graph.py",
           "enumerate(g.adj[s:s + _WRITE_ROWS], start=s + 1)",
           "enumerate(g.adj[s:s + _WRITE_ROWS], start=s)",
           ("tests/test_graph.py::test_writing_a_mask_graph_unpacks_no_row",
            "tests/test_graph.py::test_write_from_the_matrix_matches_the_mask_writer[gnp]")),
    Mutant("mask rows unpacked a block short", "fullsub/graph.py",
           "_unpack_rows(g.adj[s:s + _BYTE_ROWS], g.n)",
           "_unpack_rows(g.adj[s:s + _BYTE_ROWS - 1], g.n)",
           ("tests/test_graph.py::test_mask_and_matrix_twins_are_equal_and_hash_alike[gnp]",
            "tests/test_graph.py::"
            "test_mask_graphs_past_one_unpacked_block_compare_and_write_every_row")),
    Mutant("vertex mask unpacked big-endian", "fullsub/graph.py",
           'np.unpackbits(packed, bitorder="little")', 'np.unpackbits(packed, bitorder="big")',
           ("tests/test_graph.py::test_induced_subgraph_matches_reference[300]",)),
    Mutant("K_n kept as masks", "fullsub/generate.py",
           "return Graph._from_matrix(~np.eye(n, dtype=bool))",
           "return Graph.from_edges(n, zip(*np.triu_indices(n, 1)))",
           ("tests/test_generate.py::"
            "test_every_gnp_graph_that_may_have_edges_holds_its_matrix_alone",)),
    Mutant("glued coin sense inverted", "fullsub/generate.py",
           "coin = (uniform_u64(seed, h * h) & 1).astype(bool)",
           "coin = (uniform_u64(seed, h * h) & 1 ^ 1).astype(bool)",
           ("tests/test_generate.py::test_glued_picks_the_reference_matching_per_coin",)),
    Mutant("adversary rows rotated one place too far", "fullsub/generate.py",
           "np.concatenate((base[1:], base))", "np.concatenate((base, base[:-1]))",
           ("tests/test_generate.py::test_adversary_matches_its_pairwise_definition",)),
    Mutant("multipartite keeps one clique pair too many", "fullsub/generate.py",
           "x[:k * (k - 1) // 2 - drop - (j < extra)]",
           "x[:k * (k - 1) // 2 - drop - (j < extra) + 1]",
           ("tests/test_generate.py::test_multipartite_trim_matches_the_round_robin_reference",)),
    Mutant("clique block keeps one pair too many", "fullsub/generate.py",
           "np.clip(E - i *", "np.clip(E + 1 - i *",
           ("tests/test_generate.py::test_clique_isolated_fills_lexicographically",)),
    Mutant("small-p leaf's neighbour keeps the leaf in its forest XOR", "fullsub/finders.py",
           "        fx[w] ^= leaf\n", "",
           ("tests/test_finders.py::test_small_p_peel_matches_reference_on_gnp",)),
    Mutant("small-p isolated neighbour left in the graph", "fullsub/finders.py",
           "live neighbour\n            trace.append(w)\n", "live neighbour\n            pass\n",
           ("tests/test_finders.py::test_small_p_peel_matches_reference_on_gnp",)),
    Mutant("jumbledness key scaled by size, not lcm // size", "fullsub/discrepancy.py",
           "score * (lcm // size)", "score * size",
           ("tests/test_discrepancy.py::test_table_readers_match_reference_on_gnp[8]",)),
    Mutant("small-p window one too wide above", "fullsub/finders.py",
           "1 + math.isqrt(num * n * n // den)", "2 + math.isqrt(num * n * n // den)",
           ("tests/test_finders.py::test_small_p_window_stops_where_the_reference_predicates_do",)),
    Mutant("oracle scan cut one position early (+ 1 dropped)", "fullsub/finders.py",
           "nbr_rows[i] = [j + 1 for", "nbr_rows[i] = [j for",
           ("tests/test_finders.py::test_dfs_matches_reference_on_gnp[24]",
            "tests/test_finders.py::test_finder_outputs_are_frozen[oracle-full-gnp28-seed1]")),
    Mutant("oracle tight members ignored", "fullsub/finders.py",
           "tight |= b", "tight |= 0",
           ("tests/test_finders.py::test_dfs_matches_reference_on_gnp[24]",
            "tests/test_finders.py::test_finder_outputs_are_frozen[oracle-full-gnp28-seed1]")),
    Mutant("co-full oracle's complement masks keep the diagonal", "fullsub/finders.py",
           "full ^ a ^ (1 << v) for v, a", "full ^ a for v, a",
           ("tests/test_finders.py::test_cofull_oracle_gives_one_witness_on_both_twins",
            "tests/test_finders.py::test_finder_outputs_are_frozen[oracle-cofull-gnp14]")),
    Mutant("co-full degrees not complemented", "fullsub/finders.py",
           "p, degs = 1 - p, m - 1 - degs.astype(np.int64)",
           "p, degs = 1 - p, degs.astype(np.int64)",
           ("tests/test_finders.py::test_fullness_bar_rounds_p_times_m_minus_1",
            "tests/test_finders.py::test_cofull_is_full_in_the_complement")),
    Mutant("complement keeps its diagonal", "fullsub/graph.py",
           "\n    np.fill_diagonal(mat, False)", "",
           ("tests/test_graph.py::test_complement_keeps_the_form_and_equals_the_mask_complement",)),
    Mutant("g(G) ties go to the co-full side", "fullsub/finders.py",
           'c[0] != "full"', 'c[0] != "cofull"',
           ("tests/test_finders.py::test_g_value_heuristic_breaks_ties_to_the_full_side",)),
    Mutant("joint g tests co-full before full at a size", "fullsub/finders.py",
           'for side in ("full", "cofull")]', 'for side in ("cofull", "full")]',
           ("tests/test_finders.py::test_g_value_oracle_breaks_ties_to_the_full_side",
            "tests/test_finders.py::"
            "test_kept_searches_match_a_fresh_graph_on_every_small_graph[4]")),
    Mutant("a resumed search restarts one size too low", "fullsub/finders.py",
           "for m in range(s.m, -1, -1) if", "for m in range(s.m - (s.m < g.n), -1, -1) if",
           ("tests/test_finders.py::"
            "test_kept_searches_match_a_fresh_graph_on_every_small_graph[4]",
            "tests/test_finders.py::test_kept_searches_match_a_fresh_graph_on_gnp[12]")),
    Mutant("kept search keyed by mode alone", "fullsub/finders.py",
           'key = (p.numerator, p.denominator, mode)', 'key = mode',
           ("tests/test_finders.py::"
            "test_kept_searches_match_a_fresh_graph_on_every_small_graph[4]",
            "tests/test_finders.py::test_kept_searches_match_a_fresh_graph_on_gnp[12]")),
    Mutant("canonical reader takes self-loops", "fullsub/graph.py",
           "if (u >= v).any()", "if (u > v).any()",
           ("tests/test_graph.py::test_vectorized_reader_matches_reference_parser_across_blocks"
            "[two-self-loops]",)),
    Mutant("canonical reader takes 20-digit tokens", "fullsub/graph.py",
           "top > 18", "top > 20",
           ("tests/test_graph.py::test_reader_refuses_tokens_past_18_digits",)),
    Mutant("canonical reader skips its final-newline check", "fullsub/graph.py",
           "body[-1] != 10 or ", "",
           ("tests/test_graph.py::test_reader_matches_reference_on_an_unterminated_last_line",)),
    Mutant("digit mask keeps one byte too many", "fullsub/graph.py",
           "np.minimum(lens, width)", "np.minimum(lens + 1, width)",
           ("tests/test_graph.py::test_zero_padded_tokens_take_the_vectorized_path",)),
    Mutant("4-byte words taken for a 5-digit token", "fullsub/graph.py",
           "width = 4 if top <= 4 else 8", "width = 4 if top <= 5 else 8",
           ("tests/test_graph.py::test_tokens_past_four_digits_are_read_whole",)),
    Mutant("a pipe's header line read before its size is known", "fullsub/graph.py",
           'first = source.readline() if size else b""', "first = source.readline()",
           ("tests/test_sweep_cli.py::test_cli_reads_a_file_that_is_a_pipe",)),
    Mutant("file blocks drop the carry to the end of the line", "fullsub/graph.py",
           "(d + source.readline() for d in iter(", "(d for d in iter(",
           ("tests/test_graph.py::test_file_reader_matches_the_text_reader",
            "tests/test_graph.py::test_file_reader_matches_the_reference_across_blocks")),
    Mutant("qfull swaps out the last best vertex", "fullsub/finders.py",
           "x_star = int(ux.argmax())",
           "x_star = len(ux) - 1 - int(ux[::-1].argmax())",
           ("tests/test_finders.py::test_qfull_matches_reference_on_gnp",)),
    Mutant("swapped-out vertex keeps its X key", "fullsub/finders.py",
           "ux[x], uy[y] = NEG, POS", "uy[y] = POS",
           ("tests/test_finders.py::test_qfull_matches_reference_on_gnp",)),
    Mutant("pin restores the wrong side", "fullsub/finders.py",
           "ux[~in_x] = NEG\n                uy[in_x | ~member] = POS",
           "ux[in_x] = NEG\n                uy[~in_x] = POS",
           ("tests/test_finders.py::test_qfull_matches_reference_past_a_sentinel_pin",)),
    Mutant("Y pin leaves non-members of the live set unpinned", "fullsub/finders.py",
           "uy[in_x | ~member] = POS", "uy[in_x] = POS",
           ("tests/test_finders.py::"
            "test_one_over_r_live_levels_match_the_induced_subgraph_reference",
            "tests/test_finders.py::"
            "test_two_thirds_matches_the_induced_subgraph_reference_on_gnp")),
    Mutant("a level after the first reuses the previous level's d_live", "fullsub/finders.py",
           "(live, deg), rr = _half(g, live, deg, level_seed)",
           "(live, _), rr = _half(g, live, deg, level_seed)",
           ("tests/test_finders.py::"
            "test_one_over_r_live_levels_match_the_induced_subgraph_reference",)),
    Mutant("a certificate hands on its base, not the side's own degrees", "fullsub/finders.py",
           "within[idx] = degs", "within[idx] = base[idx]",
           ("tests/test_finders.py::"
            "test_one_over_r_live_levels_match_the_induced_subgraph_reference",)),
    Mutant("int32 swap keys past their bound", "fullsub/finders.py",
           "if b * m < 1 << 28 else", "if b * m < 1 << 31 else",
           ("tests/test_finders.py::"
            "test_qfull_matches_the_int64_reference_across_the_key_width_change",)),
    Mutant("two-thirds switch window open one step too long", "fullsub/finders.py",
           "if s <= n // 2:", "if s < n // 2:",
           ("tests/test_finders.py::test_two_thirds_peels_on_past_its_switch_window",)),
    Mutant("two-thirds switch window never closes", "fullsub/finders.py",
           "if s <= n // 2:", "if False:",
           ("tests/test_finders.py::test_two_thirds_peels_on_past_its_switch_window",)),
    Mutant("peel's deleted-vertex sentinel below n", "fullsub/finders.py",
           "_GONE = np.int32(1 << 30)", "_GONE = np.int32(1 << 8)",
           ("tests/test_finders.py::"
            "test_two_thirds_matches_the_induced_subgraph_reference_on_gnp",)),
)


def pytest_on_copy(src: Path, tests, cwd: Path) -> int:
    """pytest's exit code for the named tests against the package in src.
    It runs from cwd, a scratch directory, so that the work tree gains no
    hypothesis database entries for mutants."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *(str(ROOT / t) for t in tests)]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({t for m in MUTANTS for t in m.tests})
        code = pytest_on_copy(src, every_test, tmp)
        if code != 0:
            print(f"error: the named tests fail without a mutant (pytest exit {code})")
            return 1
        for m in MUTANTS:
            target = src / m.path
            original = target.read_text(encoding="utf-8")
            if original.count(m.snippet) != 1:
                print(f"stale     {m.name}: {m.snippet!r} occurs "
                      f"{original.count(m.snippet)} times in src/{m.path}")
                bad += 1
                continue
            target.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            start = time.monotonic()
            try:
                code = pytest_on_copy(src, m.tests, tmp)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            bad += verdict != "killed"
            print(f"{verdict:<9} {m.name} ({time.monotonic() - start:.1f} s)")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
