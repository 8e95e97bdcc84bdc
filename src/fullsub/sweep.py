"""Seeded experiment sweeps over (n, p, seed, algorithm) grids.

Rows are produced in grid order (n outer, then p, seed, algorithm) no
matter how many workers run the cells. Each (family, n, p, seed) graph
is generated once and every algorithm runs on it; with threads > 1
each such group is one task of the process pool. Every witness is
re-checked against its own certificate (fullness at the density the
finder used, or relative half-fullness for the half-full algorithm)
before a row is written; any failure aborts the sweep naming the
offending cell. With timings disabled (the default) the emitted CSV is
byte-identical across reruns of the same config.

The n column records the generated graph's order; for the gnp family
the p column echoes the grid value, for other families it records the
realized exact density and the p grid must be a single placeholder
entry.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .discrepancy import EXACT_CAP_DEFAULT
from .finders import (
    full_two_thirds,
    greedy_full,
    half_full,
    is_full,
    is_relatively_full,
    oracle_largest_full,
    small_p_full,
)
from .generate import GenSpec, generate
from .graph import PreconditionError, VerificationError, density

CSV_COLUMNS = ("family", "n", "p", "seed", "algorithm", "witness_size",
               "bound_value", "runtime_ms", "passed_verification")
SWEEP_ALGORITHMS = ("greedy", "two-thirds", "small-p", "half-full", "oracle")


@dataclass(frozen=True)
class SweepConfig:
    n_grid: tuple[int, ...]
    p_grid: tuple[Fraction, ...]
    seeds: tuple[int, ...]
    algorithms: tuple[str, ...]
    family: str = "gnp"
    r: Optional[int] = None
    c: Optional[Fraction] = None
    timings: bool = False
    threads: int = 1
    exact_cap: int = EXACT_CAP_DEFAULT


@dataclass(frozen=True)
class ExperimentRow:
    family: str
    n: int
    p: Fraction
    seed: Optional[int]  # None, for a CLI record line without --seed, is an empty field
    algorithm: str
    witness_size: int
    bound_value: str
    runtime_ms: str
    passed_verification: bool


def frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _validate(config: SweepConfig) -> None:
    if not config.n_grid or not config.p_grid or not config.seeds \
            or not config.algorithms:
        raise PreconditionError("sweep grids must be nonempty")
    if config.threads < 1:
        raise PreconditionError(
            f"threads must be a positive integer, got {config.threads}")
    for algo in config.algorithms:
        if algo not in SWEEP_ALGORITHMS:
            raise PreconditionError(
                f"unknown algorithm {algo!r}; expected one of "
                f"{', '.join(SWEEP_ALGORITHMS)}")
    if config.family == "clique-isolated":
        raise PreconditionError("the sweep has no E, which family 'clique-isolated' requires")
    if config.family != "gnp" and len(config.p_grid) != 1:
        raise PreconditionError(
            f"family {config.family!r} ignores p; give a single p entry")


def _run_group(task) -> list[ExperimentRow]:
    """The rows of one (family, n, p, seed) group: the graph is
    generated once, inside the first algorithm's cell, and every
    algorithm runs on it. A G(n, p) graph holds the matrix it was drawn
    into as its Graph.matrix, and no masks unless a finder asks for
    them; other families build the matrix on first use, and later
    algorithms reuse it. task is (config, n, p, seed)."""
    config, n, p, seed = task
    family = config.family
    g, rows = None, []
    for algo in config.algorithms:
        cell = f"family={family} n={n} p={frac_str(p)} seed={seed} algorithm={algo}"
        try:
            if g is None:  # generate ignores the p placeholder of other families
                g, _ = generate(GenSpec(family, n, p=p, r=config.r, c=config.c, seed=seed))
            t0 = time.perf_counter()
            if algo == "greedy":
                res = greedy_full(g)
                bound = Fraction(1)
            elif algo == "two-thirds":
                res = full_two_thirds(g)
                bound = res.guarantee
            elif algo == "small-p":
                res = small_p_full(g)
                bound = res.guarantee
            elif algo == "half-full":
                res = half_full(g)
                bound = Fraction(g.n // 2)
            else:
                res = oracle_largest_full(g, density(g), cap=config.exact_cap)
                bound = Fraction(res.size)
            if algo == "half-full":
                ok, _v = is_relatively_full(g, Fraction(1, 2), res.vertices)
            else:
                ok, _v = is_full(g, res.p_used, res.vertices)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            if not ok:
                raise VerificationError("witness failed re-verification")
            p_col = p if family == "gnp" else density(g)
            rows.append(ExperimentRow(family, g.n, p_col, seed, algo, res.size,
                                      frac_str(bound),
                                      f"{elapsed_ms:.1f}" if config.timings else "", True))
        except (PreconditionError, VerificationError) as e:
            raise type(e)(f"sweep cell [{cell}]: {e}") from e
    return rows


def run_sweep(config: SweepConfig) -> tuple[ExperimentRow, ...]:
    """Run every (n, p, seed, algorithm) cell and return rows in grid
    order. Each (n, p, seed) graph is generated once for all the
    algorithms; threads > 1 distributes these groups over a process
    pool, one task per group, and results are still collected in
    submission order."""
    _validate(config)
    tasks = [(config, n, p, seed)
             for n in config.n_grid
             for p in config.p_grid
             for seed in config.seeds]
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            groups = list(pool.map(_run_group, tasks))
    else:
        groups = [_run_group(t) for t in tasks]
    return tuple(row for rows in groups for row in rows)


def rows_to_csv(rows, header: bool = True) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row.family, row.n, frac_str(row.p), row.seed, row.algorithm,
            row.witness_size, row.bound_value, row.runtime_ms,
            "true" if row.passed_verification else "false",
        ])
    return buf.getvalue()


def write_csv(rows, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(rows_to_csv(rows))


def read_csv(source: Union[str, io.TextIOBase]) -> tuple[ExperimentRow, ...]:
    """Parse a sweep CSV (path or file object) back into rows; an empty
    seed field, as in the CLI's record line, reads as None."""
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as fh:
            return read_csv(fh)
    reader = csv.reader(source)
    header = next(reader, None)
    if header != list(CSV_COLUMNS):
        raise PreconditionError(f"unexpected CSV header {header!r}")
    rows = []
    for rec in reader:
        family, n, p, seed, algo, size, bound, ms, passed = rec
        rows.append(ExperimentRow(family, int(n), Fraction(p), int(seed) if seed else None,
                                  algo, int(size), bound, ms,
                                  passed == "true"))
    return tuple(rows)


def summarize(rows) -> str:
    """Per (family, algorithm) row counts and witness-size ranges; the
    same text whether given rows or a CSV previously written by
    write_csv and parsed with read_csv."""
    groups: dict[tuple[str, str], list[ExperimentRow]] = {}
    for row in rows:
        groups.setdefault((row.family, row.algorithm), []).append(row)
    lines = []
    for (family, algo) in sorted(groups):
        rs = groups[(family, algo)]
        sizes = [r.witness_size for r in rs]
        verified = sum(1 for r in rs if r.passed_verification)
        lines.append(
            f"{family}/{algo}: rows={len(rs)} verified={verified} "
            f"size min={min(sizes)} mean={sum(sizes) / len(sizes):.2f} "
            f"max={max(sizes)}")
    return "\n".join(lines)
