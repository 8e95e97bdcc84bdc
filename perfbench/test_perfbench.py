"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The run-based tests time one pass of exact-caps each, about two
minutes in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import REFS, WORKDIR, import_fullsub  # noqa: E402
from workloads import WORKLOADS, pass_jobs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms",
              "headline_p50_ms", "peak_rss_mb")
FUNCTIONS = {
    "rng": ("uniform_u64",),
    "generate": ("gen_gnp", "gen_greedy_adversary", "generate"),
    "graph": ("read_edge_list", "write_edge_list", "induced_subgraph",
              "complement"),
    "finders": ("greedy_full", "full_two_thirds", "small_p_full",
                "qfull_partition", "half_full", "one_over_r_full",
                "oracle_largest_full", "largest_full_or_cofull", "is_full",
                "is_relatively_full"),
    "discrepancy": ("discrepancy_exact", "jumbledness_exact",
                    "verify_jumbledness_bound", "discrepancy_local_search"),
    "percolation": ("full_infection_probability_exact",
                    "full_infection_probability", "bootstrap_percolate",
                    "sample_initial_mask"),
    "sweep": (),
    "cli": (),
}
COUNTS = ("rng.draws", "rng.ns_per_draw", "generate.pairs", "graph.io_bytes",
          "graph.io_mb_per_s", "finders.peel_steps", "finders.cert_ms",
          "discrepancy.subsets", "discrepancy.ns_per_subset",
          "percolation.exact_subsets", "percolation.trials",
          "percolation.rounds", "percolation.mc_success_frac", "sweep.cells",
          "sweep.verified_frac", "cli.invocations", "trace.overhead_pct")
# counts that must repeat exactly for a given seed, so that a change can
# claim a count as well as a time
EXACT_COUNTS = ("rng.draws", "generate.pairs", "graph.io_bytes",
                "finders.peel_steps", "discrepancy.subsets",
                "percolation.trials", "percolation.exact_subsets",
                "percolation.rounds", "sweep.cells", "cli.invocations")
PER_LAYER = tuple(f"{layer}.self_ms" for layer in FUNCTIONS) + tuple(
    f"{layer}.{fn}.{what}" for layer, fns in FUNCTIONS.items() for fn in fns
    for what in ("self_ms", "calls")) + COUNTS


def bench(*args, root=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture
def scratch():
    WORKDIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORKDIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def copy_checkout(dest, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_job_lists_are_deterministic_and_have_references():
    fs = import_fullsub()
    refs = json.loads(REFS.read_text(encoding="ascii"))["digests"]
    for cls in WORKLOADS.values():
        workload = cls(fs, WORKDIR)
        try:
            def keys(seed, pass_index=0):
                return [job.key for job in pass_jobs(workload, seed, pass_index)]
            assert keys(3) == keys(3) and keys(3, 1) == keys(3, 1)
            assert len(set(map(tuple, map(keys, range(6))))) > 1
            assert all(key in refs for seed in range(6) for pass_index in (0, 1)
                       for key in keys(seed, pass_index))
        finally:
            workload.close()


def test_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    names = [w["name"] for w in spec["workloads"]] + e2e + layers
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(e2e) == sorted(END_TO_END)
    assert set(PER_LAYER) <= set(layers)


def run_ok(*args):
    rc, out = bench("--workload", "exact-caps", "--seed", "5",
                    "--seconds", "1", *args)
    result = last_json(out)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert all(NAME.fullmatch(n) for n in result["metrics"])
    return result["metrics"]


def listed(kind):
    """name -> unit of the metrics BENCHMARK.json lists under kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_every_end_to_end_metric_is_reported():
    metrics = run_ok("--trace", "0")
    assert units(metrics) == listed("end_to_end")
    assert set(metrics) >= set(END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())


def test_every_per_layer_metric_is_reported_and_counts_repeat():
    first, second = run_ok("--trace", "1"), run_ok("--trace", "1")
    assert units(first) == listed("per_layer")
    assert set(first) >= set(PER_LAYER)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["discrepancy.subsets"]["value"] > 0


def test_corrupted_reference_fails(scratch):
    copy_checkout(scratch)
    refs_path = scratch / "perfbench" / "refs.json"
    data = json.loads(refs_path.read_text(encoding="ascii"))
    data["digests"] = {k: ("0" * 64 if k.startswith("exact-caps/") else v)
                       for k, v in data["digests"].items()}
    refs_path.write_text(json.dumps(data), encoding="ascii")
    rc, out = bench("--workload", "exact-caps", "--seconds", "1", root=scratch)
    result = last_json(out)
    assert rc != 0
    assert not result["correct"] and result["failed"] > 0


def test_refuses_without_sources(scratch):
    copy_checkout(scratch, with_src=False)
    rc, out = bench("--workload", "exact-caps", "--seconds", "1", root=scratch)
    assert rc != 0 and out.strip() == ""
