"""One workload in a fresh interpreter; started by run.py.

Prints one JSON line: the untraced end-to-end figures (--trace 0) or
the per-layer figures of one traced pass (--trace 1). Not meant to be
run by hand; see run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, per_layer_metrics
from speed import Speedometer
from workloads import WORKLOADS, digest, pass_jobs

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"
REFS = Path(__file__).resolve().parent / "refs.json"
OVERRUN = 1.4


def import_fullsub():
    """Import fullsub from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fullsub
    if Path(fullsub.__file__).resolve().parent != src / "fullsub":
        raise ImportError(f"fullsub imported from {fullsub.__file__}, not {src}")
    return fullsub


def run_pass(jobs, refs, tracer=None) -> list:
    """Run each job, timed, then check it untimed. Returns one
    (key, headline, latency_ns, digest or None, error or None, wall_ns)
    per job; latency_ns is wall_ns at the reference speed (speed.py)."""
    out = []
    with Speedometer() as speed:
        for job in jobs:
            call = (lambda job=job: tracer.run_job(job.key, job.call)) \
                if tracer else job.call
            result, exc, wall, latency = speed.run(call)
            if exc is not None:  # a failing job is counted, not fatal
                out.append((job.key, job.headline, latency, None,
                            f"raised {type(exc).__name__}: {exc}", wall))
                continue
            try:
                got = digest(job.check(result))
            except Exception as e:
                out.append((job.key, job.headline, latency, None,
                            f"check failed: {type(e).__name__}: {e}", wall))
                continue
            want = refs.get(job.key)
            error = None if got == want else f"digest {got[:12]} != reference {str(want)[:12]}"
            out.append((job.key, job.headline, latency, got, error, wall))
        return out


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs beyond
    it, with that percentile. Below twenty jobs that percentile would
    fall under the median, so the largest latency stands in for it."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10 if len(ordered) >= 20 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(repeats, setup_s) -> dict:
    """Figures of a run of len(repeats) passes over the same jobs.

    A job's latency is the median of its executions at the reference
    speed, one per pass, each on that pass's instance: the scaling
    removes most of the machine's drift, and the median over instances
    most of the spread between one instance and another."""
    runs = [rs for rs in zip(*repeats) if all(r[4] is None for r in rs)]
    job_ms = [statistics.median(r[2] for r in rs) / 1e6 for rs in runs] or [0.0]
    wall_ms = [statistics.median(r[5] for r in rs) / 1e6 for rs in runs] or [0.0]
    head_ms = [ms for ms, rs in zip(job_ms, runs) if rs[0][1]] or [0.0]
    tail_ms, tail_pct = tail(job_ms)
    return {
        "setup_s": setup_s,
        "jobs_per_s": 1e3 * len(runs) / sum(job_ms) if runs else 0.0,
        "job_p50_ms": statistics.median(job_ms),
        "job_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "jobs": len(runs),
        "headline_p50_ms": statistics.median(head_ms),
        "headline_jobs": len(head_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_p50_ms": statistics.median(wall_ms),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0-ns", type=int, required=True,
                    help="monotonic clock when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    fs = import_fullsub()
    import numpy
    refs = json.loads(REFS.read_text(encoding="ascii"))["digests"]
    workload = WORKLOADS[args.workload](fs, WORKDIR)
    try:
        jobs = pass_jobs(workload, args.seed, 0)
        setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
        report = {"setup_s": setup_s, "numpy": numpy.__version__,
                  "python": sys.version.split()[0]}
        if args.setup_only:
            print(json.dumps(report))
            return 0
        if args.trace:
            report.update(traced(jobs, refs, args))
        else:
            repeats = timed_passes(jobs, refs, workload, args)
            passes = len(repeats)
            report.update(end_to_end(repeats, setup_s))
            report["passes"] = passes
            report.update(outcome([r for rs in repeats for r in rs]))
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


def timed_passes(jobs, refs, workload, args) -> list:
    """round(seconds / the workload's nominal pass time) passes, at
    least one, the first on jobs and each later one on its own
    instances; fewer when the machine is so slow that the next pass
    would end after OVERRUN * seconds, so that a run stays within the
    benchmark's time budget."""
    passes = max(1, round(args.seconds / workload.pass_seconds))
    start = time.monotonic()
    repeats = [run_pass(jobs, refs)]
    while len(repeats) < passes:
        spent = time.monotonic() - start
        if spent * (len(repeats) + 1) / len(repeats) > OVERRUN * args.seconds:
            break
        repeats.append(run_pass(pass_jobs(workload, args.seed, len(repeats)), refs))
    return repeats


def outcome(results) -> dict:
    return {"attempted": len(results),
            "failed": sum(1 for r in results if r[4] is not None),
            "errors": [f"{r[0]}: {r[4]}" for r in results if r[4] is not None]}


def traced(jobs, refs, args) -> dict:
    """One untraced and one traced pass over the same jobs: the traced
    pass gives the per-layer figures, the pair the tracing overhead and
    the check that tracing leaves every output byte-identical."""
    plain = run_pass(jobs, refs)
    tracer = Tracer()
    tracer.install()
    try:
        traced_results = run_pass(jobs, refs, tracer)
    finally:
        tracer.uninstall()
    WORKDIR.mkdir(exist_ok=True)
    tracer.dump(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    base = sum(r[2] for r in plain)
    overhead = 100.0 * (sum(r[2] for r in traced_results) - base) / base
    report = {"per_layer": per_layer_metrics(tracer, overhead), "passes": 2}
    report.update(outcome(plain + traced_results))
    for a, b in zip(plain, traced_results):
        if a[3] != b[3]:
            report["failed"] += 1
            report["errors"].append(f"{a[0]}: traced output differs from untraced")
    return report


if __name__ == "__main__":
    sys.exit(main())
