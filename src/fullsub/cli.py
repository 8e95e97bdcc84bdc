"""Command-line front door.

Subcommands: gen, disc, full, qfull, g, percolate, sweep. Graphs move
through the canonical edge-list format ("n m" header plus sorted "u v"
lines); rationals are NUM/DEN strings everywhere. Exit codes: 0
success, 2 precondition refusal, 3 verification failure, 1 I/O or
parse errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .discrepancy import (
    EXACT_CAP_DEFAULT,
    discrepancy_exact,
    discrepancy_local_search,
)
from .finders import (
    full_two_thirds,
    greedy_full,
    largest_full_or_cofull,
    one_over_r_full,
    oracle_largest_full,
    qfull_partition,
    small_p_full,
)
from .generate import FAMILIES, GenSpec, gen_glued, generate
from .graph import (
    EdgeListError,
    PreconditionError,
    VerificationError,
    _edge_text,
    _read_canonical,
    density,
    read_edge_list,
)
from .percolation import (
    THETA_CAP_DEFAULT,
    _monte_carlo,
    _trial_batches,
    full_infection_probability,
    full_infection_probability_exact,
)
from .sweep import (
    SWEEP_ALGORITHMS,
    ExperimentRow,
    SweepConfig,
    frac_str,
    rows_to_csv,
    run_sweep,
    summarize,
)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational like 1/2, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(tok) for tok in text.split(",") if tok.strip())


def _read_graph(path: str):
    if path == "-":
        return read_edge_list(sys.stdin.read())
    with open(path, "rb") as fh:
        g = _read_canonical(fh)  # else None: the line parser reads the text and names any fault
    return g if g is not None else read_edge_list(Path(path).read_text(encoding="ascii"))


def _write_text(pieces, path: str) -> None:
    """Write ASCII byte pieces to path, or decode each to stdout for "-"."""
    if path == "-":
        return sys.stdout.writelines(piece.decode("ascii") for piece in pieces)
    with open(path, "wb") as fh:
        fh.writelines(pieces)


def _witness_line(vertices) -> str:
    return "witness: " + " ".join(str(v) for v in sorted(vertices))


def _seed(args):
    return args.seed if args.seed is not None else 0


def _record_line(n, p, seed, algorithm, size, bound) -> str:
    row = ExperimentRow("file", n, p, seed, algorithm, size, frac_str(bound), "", True)
    return rows_to_csv([row], header=False).rstrip("\n")


def cmd_gen(args) -> int:
    seed = _seed(args)
    if args.family == "glued":
        if not args.a or not args.b:
            raise PreconditionError("glued requires --a and --b input graphs")
        g = gen_glued(_read_graph(args.a), _read_graph(args.b), seed)
        meta = {"density": density(g)}
    else:
        if args.n is None:
            raise PreconditionError(f"family {args.family} requires --n")
        spec = GenSpec(args.family, args.n, p=args.p, E=args.E, r=args.r,
                       c=args.c, seed=seed)
        g, meta = generate(spec)
    _write_text(_edge_text(g), args.out)
    extras = " ".join(
        f"{key}={frac_str(val) if isinstance(val, Fraction) else val}"
        for key, val in sorted(meta.items()))
    print(f"generated family={args.family} n={g.n} edges={g.edge_count} {extras}",
          file=sys.stderr)
    return 0


def cmd_disc(args) -> int:
    g = _read_graph(args.input)
    p = args.p if args.p is not None else density(g)
    sign = "positive" if args.sign == "plus" else "negative"
    if args.heuristic:
        res = discrepancy_local_search(g, p, sign, seed=_seed(args),
                                       restarts=args.restarts, k=args.k)
    else:
        res = discrepancy_exact(g, p, sign, k=args.k, cap=args.exact_cap)
    tag = "disc+" if args.sign == "plus" else "disc-"
    k_txt = f" k={res.k}" if res.k is not None else ""
    print(f"{tag} p={frac_str(p)}{k_txt} value={frac_str(res.value)}")
    print(_witness_line(res.witness))
    return 0


def cmd_full(args) -> int:
    g = _read_graph(args.input)
    if args.algo == "greedy":
        res = greedy_full(g, p=args.p, tie_break=args.tie_break)
    elif args.algo == "oracle":
        res = oracle_largest_full(g, args.p if args.p is not None else density(g),
                                  cap=args.exact_cap)
    elif args.p is not None:
        raise PreconditionError(f"{args.algo} always runs at the graph's own density")
    elif args.algo == "two-thirds":
        res = full_two_thirds(g)
    else:
        res = small_p_full(g)
    bound = res.guarantee if res.guarantee is not None else Fraction(1)
    print(f"full algo={args.algo} n={g.n} p={frac_str(res.p_used)} "
          f"size={res.size} min_degree={res.min_degree} "
          f"guarantee={frac_str(res.guarantee) if res.guarantee is not None else '-'}")
    print(_witness_line(res.vertices))
    if args.trace and res.trace:
        print("trace: " + " ".join(str(v) for v in res.trace))
    print(_record_line(g.n, res.p_used, args.seed, args.algo, res.size, bound))
    return 0


def cmd_qfull(args) -> int:
    g = _read_graph(args.input)
    if args.q is not None:
        out = qfull_partition(g, args.q, seed=args.seed)
        print(f"qfull q={frac_str(out.q)} n={g.n} variant={out.variant}")
        for name, part in (("set_q", out.set_q), ("set_1mq", out.set_1mq)):
            if part is not None:
                print(f"{name} size={len(part)}")
                print(_witness_line(part))
    else:
        rel = one_over_r_full(g, args.r, seed=args.seed)
        print(f"one-over-r r={args.r} n={g.n} size={rel.size}")
        print(_witness_line(rel.vertices))
    return 0


def cmd_g(args) -> int:
    g = _read_graph(args.input)
    res = largest_full_or_cofull(g, method=args.method, cap=args.exact_cap,
                                 seed=_seed(args))
    print(f"g n={g.n} p={frac_str(res.p)} value={res.value} side={res.side}")
    print(_witness_line(res.witness))
    print(_record_line(g.n, res.p, args.seed, f"g-{args.method}", res.value, Fraction(1)))
    return 0


def cmd_percolate(args) -> int:
    g = _read_graph(args.input)
    if args.exact:  # refusals come before any trial runs
        theta = full_infection_probability_exact(g, args.p, cap=args.exact_cap)
    if args.exact and args.witness:  # no estimate is shown: stop at the first failure
        failure = next((f for _, f in _trial_batches(g, args.p, args.trials, _seed(args))
                        if f), None)
    elif args.witness:  # one pass gives the estimate and the witness
        est, failure = _monte_carlo(g, args.p, args.trials, _seed(args))
    elif not args.exact:
        est = full_infection_probability(g, args.p, trials=args.trials, seed=_seed(args))
    if args.exact:
        print(f"theta_exact={frac_str(theta)}")
    else:
        print(f"theta_estimate={est.successes}/{est.trials} "
              f"(~{float(est.estimate):.4f}) half_width={est.half_width:.4f}")
    if args.witness and failure is None:
        print("witness: none (every sampled start infected the whole graph)")
    elif args.witness:
        t, survivors = failure
        print(f"surviving half-full set (trial {t}, size {len(survivors)}):")
        print(_witness_line(survivors))
    return 0


def cmd_sweep(args) -> int:
    config = SweepConfig(
        n_grid=args.n_grid,
        p_grid=args.p_grid,
        seeds=args.seeds,
        algorithms=tuple(tok for tok in args.algos.split(",") if tok.strip()),
        family=args.family,
        r=args.r,
        c=args.c,
        timings=args.timings,
        threads=args.threads,
        exact_cap=args.exact_cap,
    )
    rows = run_sweep(config)
    _write_text([rows_to_csv(rows).encode("ascii")], args.out)
    print(summarize(rows), file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def _add_exact_cap(parser: argparse.ArgumentParser, default: int) -> None:
    # added per subcommand, not through a parents= parser: parents share
    # their action objects, so a default set on one would reach them all
    parser.add_argument("--exact-cap", type=int, default=default,
                        help=f"max n for exact enumeration (default {default})")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized steps (default 0)")

    parser = argparse.ArgumentParser(
        prog="fullsub", allow_abbrev=False,
        description="Full subgraphs, discrepancy, and bootstrap percolation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, reads_input=True, parents=(common,)):
        cmd = sub.add_parser(name, parents=parents, allow_abbrev=False, help=summary)
        if reads_input:
            cmd.add_argument("--input", required=True)
        cmd.set_defaults(func=func)
        return cmd

    p_gen = command("gen", cmd_gen, "generate a graph family instance", reads_input=False)
    p_gen.add_argument("--family", required=True,
                       choices=FAMILIES + ("glued",))
    p_gen.add_argument("--n", type=int,
                       help="order (part size for multipartite-planted; "
                            "adversary builds 4n+2 vertices)")
    p_gen.add_argument("--p", type=_fraction, help="edge probability for gnp")
    p_gen.add_argument("--E", type=int, help="edge count for clique-isolated")
    p_gen.add_argument("--r", type=int, help="r for multipartite-planted")
    p_gen.add_argument("--c", type=_fraction,
                       help="density offset coefficient for multipartite-planted")
    p_gen.add_argument("--a", help="first input graph for glued")
    p_gen.add_argument("--b", help="second input graph for glued")
    p_gen.add_argument("--out", default="-", help="output file ('-' = stdout)")

    p_disc = command("disc", cmd_disc, "positive/negative discrepancy")
    p_disc.add_argument("--p", type=_fraction,
                        help="density parameter (default: graph density)")
    p_disc.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p_disc.add_argument("--k", type=int, help="restrict to subsets of size k")
    p_disc.add_argument("--heuristic", action="store_true",
                        help="seeded local search instead of exact enumeration")
    p_disc.add_argument("--restarts", type=int, default=8)
    _add_exact_cap(p_disc, EXACT_CAP_DEFAULT)

    p_full = command("full", cmd_full, "find a full subgraph")
    p_full.add_argument("--algo", default="greedy",
                        choices=("greedy", "two-thirds", "small-p", "oracle"))
    p_full.add_argument("--p", type=_fraction,
                        help="density override (greedy and oracle only)")
    p_full.add_argument("--tie-break", default="min-index",
                        choices=("min-index", "adversarial-antipodal"))
    p_full.add_argument("--trace", action="store_true",
                        help="print the deletion sequence")
    _add_exact_cap(p_full, EXACT_CAP_DEFAULT)

    p_qfull = command("qfull", cmd_qfull, "relatively q-full partition or 1/r-full subgraph")
    which = p_qfull.add_mutually_exclusive_group(required=True)
    which.add_argument("--q", type=_fraction, help="ratio a/b for the partition")
    which.add_argument("--r", type=int, help="find a relatively 1/r-full subgraph")

    p_g = command("g", cmd_g, "largest full-or-co-full subgraph")
    p_g.add_argument("--method", default="oracle",
                     choices=("oracle", "heuristic"))
    _add_exact_cap(p_g, EXACT_CAP_DEFAULT)

    p_perc = command("percolate", cmd_percolate, "majority bootstrap percolation probability")
    p_perc.add_argument("--p", type=_fraction, required=True,
                        help="initial infection probability")
    p_perc.add_argument("--trials", type=int, default=1000)
    p_perc.add_argument("--exact", action="store_true",
                        help="exact value by subset enumeration")
    p_perc.add_argument("--witness", action="store_true",
                        help="show a surviving half-full set when a trial fails")
    _add_exact_cap(p_perc, THETA_CAP_DEFAULT)

    p_sweep = command("sweep", cmd_sweep, "experiment grid writing CSV", reads_input=False,
                      parents=())  # its seeds come from --seeds
    p_sweep.add_argument("--family", default="gnp",  # a sweep has no --E
                         choices=[f for f in FAMILIES if f != "clique-isolated"])
    p_sweep.add_argument("--n-grid", type=_int_list, required=True)
    p_sweep.add_argument("--p-grid", type=_fraction_list, required=True)
    p_sweep.add_argument("--seeds", type=_int_list, required=True)
    p_sweep.add_argument("--algos", required=True,
                         help=f"comma list from: {', '.join(SWEEP_ALGORITHMS)}")
    p_sweep.add_argument("--r", type=int)
    p_sweep.add_argument("--c", type=_fraction)
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="worker processes (default 1)")
    p_sweep.add_argument("--timings", action="store_true",
                         help="record per-cell runtimes (breaks byte-identical reruns)")
    p_sweep.add_argument("--out", default="-", help="CSV path ('-' = stdout)")
    _add_exact_cap(p_sweep, EXACT_CAP_DEFAULT)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PreconditionError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
