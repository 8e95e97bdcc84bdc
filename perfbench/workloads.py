"""Job lists of the benchmark workloads and the checks on their outputs.

A job is one sweep cell, one exact library query or one CLI invocation.
Its call is timed; its check is not. The check re-certifies the job's
witness from outside with the public predicates and returns the
canonical output text whose sha256 is compared with refs.json.

Instances come from a pool of POOL seeds, all of which have recorded
reference digests; the benchmark seed and the pass number only choose
which pool seed each unit uses, so every seed gives checkable inputs.
A pass holds every job of its workload once, so passes cost about the
same whatever the seed. Each pass draws its instances afresh: the cost
of one instance can differ from another's by a fifth (small_p_full on
sparse G(5000, 1/2000)), and a job's latency over the passes of a run
then spans several instances rather than resting on one draw.
pass_seconds is a workload's pass time on a 2-vCPU Xeon with Python
3.11 and numpy 2.4 when the machine runs at its faster speed; it turns
--seconds into a whole number of passes, so every run of a workload
does the same work.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import re
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

POOL = 8
HALF = Fraction(1, 2)


class CheckError(Exception):
    """A job's output failed re-certification."""


@dataclass(frozen=True)
class Job:
    key: str
    headline: bool
    call: Callable[[], object]
    check: Callable[[object], str]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canon(*parts) -> str:
    """Canonical text of an output: rationals as num/den, vertex sets
    sorted."""
    out = []
    for part in parts:
        if isinstance(part, Fraction):
            out.append(f"{part.numerator}/{part.denominator}")
        elif isinstance(part, (set, frozenset)):
            out.append(" ".join(str(v) for v in sorted(part)))
        else:
            out.append(str(part))
    return "|".join(out)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------- sweep-gnp

# (grid, family, n values, p, algorithms, headline n). Dense cells run the
# numpy peel, qfull_partition and induced_subgraph; sparse ones the
# bit-mask leaf peel of small_p_full; the adversary family the
# pure-Python structured generator. The adversary p is the single
# placeholder entry run_sweep requires for non-gnp families.
SWEEP_GRIDS = (
    ("dense", "gnp", (1000, 5000), Fraction(1, 2),
     ("greedy", "two-thirds", "half-full"), 5000),
    ("sparse", "gnp", (2000, 5000), Fraction(1, 2000),
     ("greedy", "small-p"), None),
    ("adversary", "adversary", (100, 400), HALF,
     ("greedy", "two-thirds", "half-full"), None),
)
_FINDERS = {"greedy": "greedy_full", "two-thirds": "full_two_thirds",
            "small-p": "small_p_full", "half-full": "half_full"}


class SweepCapture:
    """Keeps the graph and finder result of the cell run_sweep just ran,
    so the witness can be re-certified outside the timed call. The
    hooks delegate to the defining module's current binding, so tracer
    wrappers installed there still see the calls."""

    def __init__(self):
        self.last: dict = {}
        modules = sys.modules
        for name, home in [("generate", modules["fullsub.generate"])] + [
                (fn, modules["fullsub.finders"]) for fn in _FINDERS.values()]:
            setattr(modules["fullsub.sweep"], name, self._hook(name, home))

    def _hook(self, name, home):
        def hook(*args, **kwargs):
            result = getattr(home, name)(*args, **kwargs)
            self.last[name] = result
            return result
        return hook

    def take(self, name):
        graph, _meta = self.last.pop("generate")
        return graph, self.last.pop(name)


class SweepGnp:
    name = "sweep-gnp"
    pass_seconds = 10

    def __init__(self, fs, workdir: Path):
        self.fs = fs
        self.capture = SweepCapture()

    def units(self):
        for grid, family, ns, p, algos, headline_n in SWEEP_GRIDS:
            for n in ns:
                for algo in algos:
                    yield (lambda s, grid=grid, family=family, n=n, p=p,
                           algo=algo, head=(n == headline_n):
                           [self._cell(grid, family, n, p, algo, s, head)])

    def _cell(self, grid, family, n, p, algo, seed, headline):
        fs = self.fs
        config = fs.SweepConfig(n_grid=(n,), p_grid=(p,), seeds=(seed,),
                                algorithms=(algo,), family=family, threads=1)

        def call():
            return fs.rows_to_csv(fs.run_sweep(config))

        def check(csv_text):
            g, res = self.capture.take(_FINDERS[algo])
            if algo == "half-full":
                ok, bad = fs.is_relatively_full(g, HALF, res.vertices)
            else:
                ok, bad = fs.is_full(g, res.p_used, res.vertices)
            require(ok, f"witness fails at vertex {bad}")
            rows = list(csv.reader(io.StringIO(csv_text)))
            require(len(rows) == 2 and rows[1][-1] == "true"
                    and int(rows[1][5]) == len(res.vertices),
                    "CSV row disagrees with the witness")
            return csv_text + canon(res.vertices)

        key = f"{self.name}/{grid}/n={n}/{algo}/seed={seed}"
        return Job(key, headline, call, check)

    def close(self):
        pass


# --------------------------------------------------------------- exact-caps

EXACT_NS = (16, 18, 20)
EXACT_PS = (Fraction(1, 4), HALF, Fraction(3, 4))
THETA_N = 16
THETA_P = Fraction(1, 3)


class ExactCaps:
    """The exponential kernels at the enumeration caps: discrepancy and
    jumbledness walk all 2^n subsets, the oracle enumerates candidate
    sets, and theta enumerates initial infections."""

    name = "exact-caps"
    pass_seconds = 10

    def __init__(self, fs, workdir: Path):
        self.fs = fs

    def units(self):
        for n in EXACT_NS:
            for p in EXACT_PS:
                yield lambda s, n=n, p=p: self._instance(n, p, s)

    def _instance(self, n, p, seed):
        fs = self.fs
        g = fs.gen_gnp(n, p, seed)
        d = fs.density(g)
        found = {}
        base = f"{self.name}/n={n}/p={canon(p)}/seed={seed}"

        def disc(sign):
            def call():
                return fs.discrepancy_exact(g, d, sign)

            def check(res):
                surplus = fs.edge_surplus(g, d, res.witness)
                require(res.value >= 0 and res.value == (
                    surplus if sign == "positive" else -surplus),
                    "witness surplus differs from the value")
                return canon(res.value, res.witness)
            return Job(f"{base}/disc-{sign}", n == 20, call, check)

        def jumbled():
            return fs.jumbledness_exact(g, d)

        def check_jumbled(rep):
            require(rep.witness and rep.j == abs(
                fs.edge_surplus(g, d, rep.witness)) / len(rep.witness),
                "witness ratio differs from j")
            return canon(rep.j, rep.witness)

        def g_oracle():
            return fs.largest_full_or_cofull(g, method="oracle")

        def check_g(res):
            ok, bad = fs.is_full(g, d, res.witness,
                                 mode="full" if res.side == "full" else "cofull")
            require(ok and len(res.witness) == res.value,
                    f"{res.side} witness fails at vertex {bad}")
            found["g"] = res.value
            return canon(res.value, res.side, res.witness, res.p)

        def bound():
            f = fs.oracle_largest_full(g, d)
            return f, fs.verify_jumbledness_bound(g, d, f.size, found["g"])

        def check_bound(out):
            f, rep = out
            ok, bad = fs.is_full(g, d, f.vertices)
            require(ok and f.size == len(f.vertices),
                    f"oracle witness fails at vertex {bad}")
            require(rep.vacuous or (rep.f_value * rep.j >= rep.disc_plus
                                    and rep.g_value * rep.j >= rep.disc_both),
                    "jumbledness bound violated")
            return canon(f.size, f.vertices, rep.p, rep.disc_plus,
                         rep.disc_both, rep.j, rep.f_value, rep.g_value,
                         rep.vacuous)

        jobs = [disc("positive"), disc("negative"),
                Job(f"{base}/jumbledness", n == 20, jumbled, check_jumbled),
                Job(f"{base}/g-oracle", False, g_oracle, check_g),
                Job(f"{base}/bound", False, bound, check_bound)]
        if n == THETA_N:
            def theta():
                return fs.full_infection_probability_exact(g, THETA_P)

            def check_theta(value):
                require(0 <= value <= 1, "theta outside [0, 1]")
                return canon(value)
            jobs.append(Job(f"{base}/theta", True, theta, check_theta))
        return jobs

    def close(self):
        pass


# ---------------------------------------------------------------- cli-files

DENSE = (2000, HALF)
# The sparse file's density must stay at most n^(-2/3) = 1/100 for
# small_p_full to accept it; at p = 1/100 about half the realizations
# land above that, at 1/110 none of the pool does.
SPARSE = (1000, Fraction(1, 110))
PERCOLATE_P = Fraction(5, 16)
# At p = 5/16 on the sparse file 13-50 % of Monte Carlo trials infect
# everything across the pool, so trials disagree and the estimate is a
# real differential check; outside this window the job fails.
MC_WINDOW = (0.05, 0.95)
# Fewer Monte Carlo trials and hill-climbing restarts than the CLI
# defaults (1000 and 8) keep a pass short enough to repeat four times
# in a run.
TRIALS = 300
RESTARTS = 3

_WITNESS = re.compile(r"^witness: ?(.*)$", re.M)


def _witnesses(stdout: str) -> list:
    return [frozenset(int(v) for v in m.split()) for m in _WITNESS.findall(stdout)]


def _field(stdout: str, name: str) -> str:
    m = re.search(rf"\b{name}=(\S+)", stdout)
    require(m is not None, f"no {name}= in output")
    return m.group(1)


class CliFiles:
    """In-process fullsub.cli.main calls on edge-list files written by
    its own gen subcommand into a per-run directory of the checkout."""

    name = "cli-files"
    pass_seconds = 8

    def __init__(self, fs, workdir: Path):
        import fullsub.cli
        self.fs = fs
        self.cli = fullsub.cli
        workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-files-", dir=workdir))

    def units(self):
        yield self._unit

    def _unit(self, seed):
        fs = self.fs
        dense, sparse = self.tmp / "dense.txt", self.tmp / "sparse.txt"
        graphs = {}

        def graph(path):
            if path not in graphs:
                n, p = DENSE if path == dense else SPARSE
                graphs[path] = fs.gen_gnp(n, p, seed)
            return graphs[path]

        def run(argv):
            def call():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    rc = self.cli.main(argv)
                return rc, out.getvalue()
            return call

        def checked(check):
            def wrapped(result):
                rc, stdout = result
                require(rc == 0, f"exit code {rc}")
                return check(stdout)
            return wrapped

        def gen_check(path):
            def check(stdout):
                return stdout + f"sha256={digest(path.read_text(encoding='ascii'))}"
            return check

        def full_check(path):
            def check(stdout):
                g = graph(path)
                (w,) = _witnesses(stdout)[:1]
                ok, bad = fs.is_full(g, Fraction(_field(stdout, "p")), w)
                require(ok and int(_field(stdout, "size")) == len(w),
                        f"full witness fails at vertex {bad}")
                return stdout
            return check

        def relative_check(path, q):
            def check(stdout):
                g = graph(path)
                ws = _witnesses(stdout)
                require(ws, "no witness")
                if q is None:  # one witness per printed set, q then 1-q
                    qs = []
                    if "set_q" in stdout:
                        qs.append(Fraction(_field(stdout, "q")))
                    if "set_1mq" in stdout:
                        qs.append(1 - Fraction(_field(stdout, "q")))
                else:
                    qs = [q]
                require(len(qs) == len(ws), "witness count differs from variant")
                for w, qq in zip(ws, qs):
                    ok, bad = fs.is_relatively_full(g, qq, w)
                    require(ok, f"relatively {qq}-full witness fails at {bad}")
                return stdout
            return check

        def g_check(stdout):
            g = graph(dense)
            (w,) = _witnesses(stdout)[:1]
            side = _field(stdout, "side")
            ok, bad = fs.is_full(g, Fraction(_field(stdout, "p")), w,
                                 mode="full" if side == "full" else "cofull")
            require(ok and int(_field(stdout, "value")) == len(w),
                    f"{side} witness fails at vertex {bad}")
            return stdout

        def percolate_check(stdout):
            est = Fraction(_field(stdout, "theta_estimate"))
            require(MC_WINDOW[0] < est < MC_WINDOW[1],
                    f"Monte Carlo success share {est} outside {MC_WINDOW}")
            return stdout

        def disc_check(stdout):
            g = graph(sparse)
            (w,) = _witnesses(stdout)[:1]
            p = Fraction(_field(stdout, "p"))
            require(fs.edge_surplus(g, p, w) == Fraction(_field(stdout, "value")),
                    "witness surplus differs from the value")
            return stdout

        s = str(seed)
        d, sp = str(dense), str(sparse)
        specs = [
            ("gen-dense", True, ["gen", "--family", "gnp", "--n", str(DENSE[0]),
                                 "--p", canon(DENSE[1]), "--seed", s, "--out", d],
             gen_check(dense)),
            ("gen-sparse", False, ["gen", "--family", "gnp", "--n", str(SPARSE[0]),
                                   "--p", canon(SPARSE[1]), "--seed", s, "--out", sp],
             gen_check(sparse)),
            ("full-two-thirds", True, ["full", "--algo", "two-thirds", "--input", d],
             full_check(dense)),
            ("full-greedy", True, ["full", "--algo", "greedy", "--input", d],
             full_check(dense)),
            ("qfull-r3", True, ["qfull", "--r", "3", "--input", d],
             relative_check(dense, Fraction(1, 3))),
            ("qfull-q2-5", True, ["qfull", "--q", "2/5", "--input", d],
             relative_check(dense, None)),
            ("g-heuristic", True, ["g", "--method", "heuristic", "--input", d,
                                   "--seed", s], g_check),
            ("percolate", False, ["percolate", "--p", canon(PERCOLATE_P),
                                  "--trials", str(TRIALS), "--input", sp,
                                  "--seed", s], percolate_check),
            ("full-small-p", False, ["full", "--algo", "small-p", "--input", sp],
             full_check(sparse)),
            ("disc-heuristic", False, ["disc", "--heuristic", "--restarts",
                                       str(RESTARTS), "--input", sp, "--seed", s],
             disc_check),
        ]
        return [Job(f"{self.name}/{name}/seed={seed}", head, run(argv),
                    checked(check))
                for name, head, argv, check in specs]

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SweepGnp, ExactCaps, CliFiles)}


def pass_jobs(workload, seed: int, pass_index: int) -> list:
    """Every job of the workload once, each unit on the pool seed that
    the benchmark seed picks for it in this pass. Units and their jobs
    come in the same order in every pass."""
    rng = random.Random(f"{workload.name}:{seed}:{pass_index}")
    return [job for unit in workload.units() for job in unit(rng.randrange(POOL))]
