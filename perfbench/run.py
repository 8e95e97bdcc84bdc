"""fullsub benchmark: three workloads, each in its own fresh process.

    python3 perfbench/run.py [--workload sweep-gnp|exact-caps|cli-files|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. Every workload is a closed loop with one client and
threads=1. A pass runs every job of the workload once, on instances
that the seed draws afresh for each pass; a run makes
round(--seconds / the workload's nominal pass time) passes, at least
one, so all runs of a workload do the same amount of work and last
about --seconds on the machine the nominal times were taken on; on a
slower machine a run stops early rather than let the next pass end
after 1.4 x --seconds.

Each execution's wall time is scaled to a reference machine speed by
loops timed around and during it (speed.py): the machine the benchmark
was built on switches between speeds about 1.4x apart many times a
second, and the share of slow time drifts from run to run. A job's
latency is the median of its scaled executions, one per pass; the
unscaled median is printed beside job_p50_ms. Every job's output is
re-certified and compared with the reference digests in refs.json
(recorded by record_refs.py); any failure makes the command exit 1.

Workloads (why each was chosen):
  sweep-gnp   run_sweep cells on dense G(n, 1/2), n in {1000, 5000};
              sparse G(n, 1/2000), n in {2000, 5000}; and the greedy
              adversary, n in {100, 400}. generate, rng and finders do
              the work; dense and sparse graphs take different finder
              paths, so a change that helps one and hurts the other shows.
  exact-caps  discrepancy (both signs), jumbledness, the jumbledness
              bound and the full/co-full oracle on G(n, p) for
              n in {16, 18, 20}, p in {1/4, 1/2, 3/4}, plus exact theta on
              G(16, p): the exponential kernels at their caps, where
              generation, edge-list I/O and peeling do almost nothing.
  cli-files   fullsub.cli.main on edge-list files it generates: a dense
              G(2000, 1/2) file and a sparse G(1000, 1/110) file. Edge-list
              parsing and writing, CLI glue and Monte Carlo theta dominate.

--trace 0 prints the end-to-end metrics:
  setup_s          fresh interpreter start to first timed job (import
                   plus untimed preparation), median of several starts
  jobs_per_s       jobs per second of job latency (all jobs verified)
  job_p50_ms       median job latency
  job_tail_ms      latency at the highest percentile with at least ten
                   jobs beyond it, or the largest below twenty jobs
                   (percentile and job count printed too)
  headline_p50_ms  median latency of the headline jobs: the dense
                   n = 5000 cells, n = 20 discrepancy/jumbledness and
                   n = 16 theta, and the jobs on the n = 2000 dense file
  peak_rss_mb      peak resident memory of the workload process
Failures appear as "failed" out of "attempted" and as failed_frac in
the report. --trace 1 runs one untraced and one traced pass of the same
jobs and prints the per-layer metrics (see spans.py), the tracing
overhead, and fails if tracing changed any output.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Python and numpy versions, CPU
count and model and the load average are printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-gnp", "exact-caps", "cli-files")
SETUP_PROBES = 6
RUN_TIMEOUT_S = 170
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
         "job_tail_ms": "ms", "headline_p50_ms": "ms", "peak_rss_mb": "MB"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def start_worker(workload, args, setup_only=False, timeout=RUN_TIMEOUT_S) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    argv += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, args) -> dict:
    """Run one workload; returns the result object printed last."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    load_before = os.getloadavg()
    setups = [] if args.trace else [
        start_worker(workload, args, setup_only=True, timeout=60)["setup_s"]
        for _ in range(SETUP_PROBES)]
    rep = start_worker(workload, args, timeout=deadline - time.monotonic())
    failed, attempted = rep["failed"], rep["attempted"]
    print(f"workload {workload} seed {args.seed} trace {args.trace}: "
          f"{rep['passes']} passes, {attempted} jobs, {failed} failed, "
          f"failed_frac {failed / attempted:.4g} ratio")
    for err in rep["errors"][:20]:
        print(f"  FAILED {err}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in rep["per_layer"].items()}
    else:
        setups.append(rep["setup_s"])
        rep["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": rep[name], "unit": unit}
                   for name, unit in UNITS.items()}
    for name, m in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setups)} starts)"
        elif name == "job_tail_ms":
            note = f"  (p{rep['tail_percentile']:.4g} of {rep['jobs']} jobs)"
        elif name == "headline_p50_ms":
            note = f"  ({rep['headline_jobs']} jobs)"
        elif name == "job_p50_ms":
            note = f"  (unscaled wall time {rep['wall_p50_ms']:.6g} ms)"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  env: python {rep['python']}, numpy {rep['numpy']}, "
          f"nproc {os.cpu_count()}, cpu {cpu_model()!r}, loadavg "
          f"{' '.join(f'{x:.2f}' for x in load_before)} -> "
          f"{' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
        if (ROOT / "BENCHMARK.json").is_file() else {}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench.get("run_seconds", 25))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fullsub" / "__init__.py").is_file():
        print(f"error: no fullsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
