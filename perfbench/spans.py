"""Span tracing for the traced benchmark run.

The tracer wraps each public function of the fullsub layers at every
namespace where it is bound (``from .x import y`` binds one function in
several modules, e.g. ``fullsub.finders.induced_subgraph`` and
``fullsub.graph.induced_subgraph``), so calls made inside the package
are seen as well as the benchmark's own. Each wrapped call records a
span (id, parent, job, name, start, end) in memory; a layer's self time
is its spans' durations minus their child spans. Per-vertex helpers
(iter_bits, to_mask, from_mask, lex_less, density, the Graph accessors,
is_relatively_half_full_mask) are left unwrapped because they are
called millions of times; their cost counts in the caller's self time,
as does that of private kernels such as _Peeler and _subset_extremes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "rng": ("split_seed", "philox", "uniform_u64"),
    "graph": ("read_edge_list", "write_edge_list", "induced_subgraph",
              "complement"),
    "generate": ("gen_gnp", "gen_greedy_adversary", "generate"),
    "finders": ("greedy_full", "full_two_thirds", "small_p_full",
                "qfull_partition", "half_full", "one_over_r_full",
                "oracle_largest_full", "largest_full_or_cofull", "is_full",
                "is_relatively_full"),
    "discrepancy": ("discrepancy_exact", "jumbledness_exact",
                    "verify_jumbledness_bound", "discrepancy_local_search"),
    "percolation": ("full_infection_probability_exact",
                    "full_infection_probability", "bootstrap_percolate",
                    "sample_initial_mask"),
    "sweep": ("run_sweep", "rows_to_csv"),
    "cli": ("main",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pairs(a, k, r):
    n = _arg(a, k, 0, "n")
    return {"generate.pairs": n * (n - 1) // 2}


def _subsets(key):
    return lambda a, k, r: {key: 1 << _arg(a, k, 0, "g").n}


def _peel_steps(a, k, r):
    return {"finders.peel_steps": len(r.trace or ())}


# Counters read from a wrapped call's arguments and result, as
# span name -> f(args, kwargs, result) -> {counter: increment}. The
# per-layer metrics with unit count-computed follow from input sizes.
COUNTERS = {
    "rng.uniform_u64": lambda a, k, r: {"rng.draws": _arg(a, k, 1, "count")},
    "generate.gen_gnp": _pairs,
    "graph.read_edge_list": lambda a, k, r: {
        "graph.io_bytes": len(_arg(a, k, 0, "text"))},
    "graph.write_edge_list": lambda a, k, r: {"graph.io_bytes": len(r)},
    "finders.greedy_full": _peel_steps,
    "finders.full_two_thirds": _peel_steps,
    "finders.small_p_full": _peel_steps,
    "discrepancy.discrepancy_exact": _subsets("discrepancy.subsets"),
    "discrepancy.jumbledness_exact": _subsets("discrepancy.subsets"),
    "percolation.full_infection_probability_exact":
        _subsets("percolation.exact_subsets"),
    "percolation.full_infection_probability": lambda a, k, r: {
        "percolation.trials": r.trials, "percolation.successes": r.successes},
    "percolation.bootstrap_percolate": lambda a, k, r: {
        "percolation.rounds": r.rounds},
    "sweep.run_sweep": lambda a, k, r: {
        "sweep.cells": len(r),
        "sweep.verified": sum(row.passed_verification for row in r)},
    "cli.main": lambda a, k, r: {"cli.invocations": 1},
}


class Tracer:
    """Records spans and counters while active; install() swaps the
    wrappers in and uninstall() restores the original functions."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list = []
        self._job = None
        self._swapped: list = []

    def install(self) -> None:
        originals = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"fullsub.{layer}")
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "fullsub" and not modname.startswith("fullsub."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._swapped.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._swapped:
            setattr(module, attr, value)
        self._swapped.clear()

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result
        return wrapper

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1], self._job, None,
                           time.perf_counter_ns(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str) -> None:
        span = self.spans[sid]
        span[5] = time.perf_counter_ns()
        span[3] = name
        self._stack.pop()

    def run_job(self, key: str, call):
        """Run one job under a root span named "job"."""
        self._job = key
        self._stack = [None]
        self.active = True
        sid = self._open()
        try:
            return call()
        finally:
            self._close(sid, "job")
            self.active = False

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")

    def self_ns(self) -> tuple[dict, Counter]:
        """Self time in ns and call count per span name."""
        child = defaultdict(int)
        for sid, parent, _job, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        own = defaultdict(int)
        calls = Counter()
        for sid, _parent, _job, name, start, end in self.spans:
            own[name] += end - start - child[sid]
            calls[name] += 1
        return own, calls


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, overhead_pct: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    own, calls = tracer.self_ns()
    counts = tracer.counts
    out = {}
    for layer, names in LAYERS.items():
        out[f"{layer}.self_ms"] = (
            sum(own[f"{layer}.{fn}"] for fn in names) / 1e6, "ms")
        for fn in names:
            out[f"{layer}.{fn}.self_ms"] = (own[f"{layer}.{fn}"] / 1e6, "ms")
            out[f"{layer}.{fn}.calls"] = (calls[f"{layer}.{fn}"], "count")
    io_ns = own["graph.read_edge_list"] + own["graph.write_edge_list"]
    exact_ns = own["discrepancy.discrepancy_exact"] + own["discrepancy.jumbledness_exact"]
    out.update({
        "rng.draws": (counts["rng.draws"], "count"),
        "rng.ns_per_draw": (_ratio(own["rng.uniform_u64"], counts["rng.draws"]), "ns"),
        "generate.pairs": (counts["generate.pairs"], "count-computed"),
        "graph.io_bytes": (counts["graph.io_bytes"], "bytes"),
        "graph.io_mb_per_s": (_ratio(counts["graph.io_bytes"] * 1e3, io_ns), "MB/s"),
        "finders.peel_steps": (counts["finders.peel_steps"], "count"),
        "finders.cert_ms": ((own["finders.is_full"]
                             + own["finders.is_relatively_full"]) / 1e6, "ms"),
        "discrepancy.subsets": (counts["discrepancy.subsets"], "count-computed"),
        "discrepancy.ns_per_subset": (
            _ratio(exact_ns, counts["discrepancy.subsets"]), "ns"),
        "percolation.exact_subsets": (counts["percolation.exact_subsets"],
                                      "count-computed"),
        "percolation.trials": (counts["percolation.trials"], "count"),
        "percolation.rounds": (counts["percolation.rounds"], "count"),
        "percolation.mc_success_frac": (
            _ratio(counts["percolation.successes"], counts["percolation.trials"]),
            "ratio"),
        "sweep.cells": (counts["sweep.cells"], "count"),
        "sweep.verified_frac": (
            _ratio(counts["sweep.verified"], counts["sweep.cells"]), "ratio"),
        "cli.invocations": (counts["cli.invocations"], "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return out
