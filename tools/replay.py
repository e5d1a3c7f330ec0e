"""Replay one grid of solves and CLI runs on two source trees, and compare.

    python tools/replay.py OLD_TREE NEW_TREE [--grid full|smoke] [--work DIR]

A tree is a directory holding ``src/hessketch``: the working tree, say, and
a ``git archive`` of its parent commit unpacked to a temporary directory.
Each tree runs the same grid in its own subprocess, with
``PYTHONPATH=<tree>/src`` and one BLAS thread, and writes every output
under ``--work`` (a temporary directory unless given).

* The library grid solves random, rectangular, rank-3, identity,
  deblurring and tomography problems with the six solvers, over damping
  lambda in {0, 0.5}, diagnostics off and on, and full and sampled(5)
  pivots; scmrh and slslu also run with a sketch of other rows and seed
  (sketch_rows 4 (maxiter + 1), seed 23) at both lambdas, and on the
  random and rectangular problems with maxiter twice the operator's
  columns; a trivial start (b = 0) comes on top.  A 64x64
  deblurring problem at maxiter 80, whose basis spans more than one of
  the error pass's row blocks, runs gmres, cmrh and scmrh at both lambdas,
  with diagnostics, and a 64-grid, 60-angle tomography problem, large
  enough for the sparse operator to run on two cores, runs lsqr, lslu and
  slslu the same way at maxiter 20.  Each solve writes its trace CSV, x, its
  termination, the ``rank_fallback`` flag of every trace record (one 0/1
  line each; the CSV does not carry it), ||b|| and the
  ``dump_factorization`` files.
* The CLI grid runs ``hessketch solve``, ``compare`` and ``sweep`` (over
  each of its four parameters) on deblurring and tomography configs at two
  sizes, with diagnostics off and on, plus solver failures, config
  errors and an output directory whose path a regular file takes.  Each
  run records its exit code, its stderr and every file it writes; a run
  that raises out of ``main`` records ``raised <type>`` as its exit code
  and the exception's message as its stderr.

For each field (a trace column, x, termination, a factorization file, or a
kind of CLI output) the report gives "byte-identical", or the worst
relative difference and the case that shows it, separately for full-rank
problems, rank-deficient problems and the CLI; the library cases of the
references (gmres, lsqr) get groups of their own.  A trace column is
compared relative to its own largest value, except a residual column whose old values
are all at rounding level (at most ``ROUNDING`` * ||b||): an exact zero
measured as rounding noise is compared relative to ||b||.  A MatrixMarket
file is compared relative to its largest entry, and its header (comments
and size line) must match exactly.  ``TOLERANCES`` holds the
gates.  A field that misses its gate is printed as MISS, never skipped,
and then the exit status is 1.  A pivot order that differs also names the
first position (counted from 0) at which any case's order differs, and
that case.  Timings are volatile and never written:
``trace_to_csv`` leaves ``wall_ms`` empty, and ``compare.csv`` has no
``wall_ms`` rows.  No golden outputs are kept, since BLAS builds differ
between machines; the two trees run on the same one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

# largest relative difference each field may show; 0.0 means byte-identical
TOLERANCES = {
    "termination": 0.0,
    "error": 0.0,
    "files": 0.0,
    "iter": 0.0,
    "matvecs": 0.0,
    "tmatvecs": 0.0,
    "dots": 0.0,
    "sketches": 0.0,
    "H.mm": 0.0,
    "W.mm": 0.0,
    "L.mm": 0.0,
    "D.mm": 0.0,
    "pivots_t.mm": 0.0,
    "pivots_g.mm": 0.0,
    "rank_fallback": 0.0,
    "x": 1e-13,
    "rel_err": 1e-13,
    "res_norm": 1e-13,
}
# every other library field; every CLI output is gated byte-identical
DEFAULT_TOLERANCE = 1e-12
DEFICIENT_PROBLEMS = ("rank3", "rank3rect", "identity")
# the inner-product references get groups of their own, so a change in
# their rounding cannot hide whether the Hessenberg family replays
# byte-identically
REFERENCES = ("gmres", "lsqr")
# residual columns, and the level, relative to ||b||, up to which their
# values are rounding noise around an exact zero
RESIDUAL_COLUMNS = ("res_norm", "sres_norm", "proj_obj")
PIVOT_FILES = ("pivots_t.mm", "pivots_g.mm")
ROUNDING = 1e3 * np.finfo(float).eps
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# ---------------------------------------------------------------------------
# worker: runs the grid on the hessketch found on PYTHONPATH


def _library_problems(grid):
    """name -> (A, b, x_true, maxiter)."""
    from hessketch import LinearOperator, gaussian_psf, make_deblur, make_tomography

    rng = np.random.default_rng(2025)

    def planted(M, maxiter, noise=0.0):
        x = rng.standard_normal(M.shape[1])
        b = M @ x + noise * rng.standard_normal(M.shape[0])
        return LinearOperator.from_matrix(M), b, x, maxiter

    if grid == "smoke":
        return {
            "random": planted(rng.standard_normal((8, 8)) + 3 * np.eye(8), 8),
            "rect": planted(rng.standard_normal((10, 6)), 6),
        }
    problems = {
        "random": planted(rng.standard_normal((25, 25)) + 5 * np.eye(25), 25),
        "rect": planted(rng.standard_normal((30, 18)), 18),
        # b off the range, so the Hessenberg builders run on past rank 3
        "rank3": planted(
            rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20)), 20, 1e-3
        ),
        "rank3rect": planted(
            rng.standard_normal((24, 3)) @ rng.standard_normal((3, 14)), 14, 1e-3
        ),
        "identity": (
            LinearOperator.identity(12),
            rng.standard_normal(12),
            rng.standard_normal(12),
            6,
        ),
    }
    p = make_deblur(32, gaussian_psf(1.0), 0.01, 0)
    problems["deblur"] = (p.operator, p.b, p.x_true, 20)
    p = make_tomography(24, 30, 0.01, 0)
    problems["tomography"] = (p.operator, p.b, p.x_true, 20)
    # 80 iterates of n = 4,096 are 2.6 MB: the solve pass forms them in
    # more than one block
    p = make_deblur(64, gaussian_psf(1.0), 0.01, 0)
    problems["deblur64"] = (p.operator, p.b, p.x_true, 80)
    # 293,528 nonzeros, over linops._SPMV_INLINE_NNZ: the only replay
    # matrix applied on two cores
    p = make_tomography(64, 60, 0.01, 0)
    problems["tomo64"] = (p.operator, p.b, p.x_true, 20)
    return problems


def _library_cases(grid):
    """(case, solver name, A, b, x_true, SolverConfig)."""
    from hessketch import SolverConfig
    from hessketch.hessenberg import PivotStrategy

    pivots = {
        "full": PivotStrategy.full(),
        "sampled5": PivotStrategy.sampled(5, seed=3),
    }
    # the larger problems run only these solvers, at both lambdas
    large = {"deblur64": ("gmres", "cmrh", "scmrh"), "tomo64": ("lsqr", "lslu", "slslu")}
    for pname, (A, b, x_true, maxiter) in _library_problems(grid).items():
        if pname in large:
            for name, lam in itertools.product(large[pname], (0.0, 0.5)):
                cfg = SolverConfig(
                    maxiter=maxiter, lam=lam, seed=11, compute_diagnostics=True
                )
                yield f"{pname}-{name}-lam{lam}-diag1-full", name, A, b, x_true, cfg
            continue
        for name in ("gmres", "lsqr", "cmrh", "lslu", "scmrh", "slslu"):
            if not A.is_square and name in ("gmres", "cmrh", "scmrh"):
                continue
            hessenberg = name not in ("gmres", "lsqr")
            piv_options = ("full", "sampled5") if hessenberg else ("full",)
            # lambda, diagnostics, pivots
            settings = itertools.product((0.0, 0.5), (False, True), piv_options)
            if grid == "smoke":
                settings = [(0.5, True, piv_options[-1])]
            for lam, diag, piv in settings:
                cfg = SolverConfig(
                    maxiter=maxiter,
                    pivot=pivots[piv],
                    lam=lam,
                    seed=11,
                    compute_diagnostics=diag,
                )
                case = f"{pname}-{name}-lam{lam}-diag{int(diag)}-{piv}"
                yield case, name, A, b, x_true, cfg
            if grid == "smoke":
                continue
            if name in ("scmrh", "slslu"):
                # neither the seed nor the default rows of the other cases
                for lam in (0.0, 0.5):
                    cfg = SolverConfig(
                        maxiter=maxiter,
                        sketch_rows=4 * (maxiter + 1),
                        lam=lam,
                        seed=23,
                        compute_diagnostics=True,
                    )
                    yield f"{pname}-{name}-lam{lam}-sketch", name, A, b, x_true, cfg
                if pname in ("random", "rect"):
                    # more steps asked for than the operator has columns
                    cfg = SolverConfig(
                        maxiter=2 * A.cols, seed=11, compute_diagnostics=True
                    )
                    yield f"{pname}-{name}-maxiter2n", name, A, b, x_true, cfg
            # a trivial start: b = 0
            for diag in (False, True):
                zero = SolverConfig(maxiter=maxiter, compute_diagnostics=diag)
                yield (f"{pname}-{name}-trivialb-diag{int(diag)}", name, A,
                       np.zeros(A.rows), x_true, zero)


def _run_library(grid):
    from hessketch import SOLVERS, trace_to_csv
    from hessketch.hessenberg import dump_factorization

    for case, name, A, b, x_true, cfg in _library_cases(grid):
        out = os.path.join("lib", case)
        os.makedirs(out)
        try:
            result = SOLVERS[name](A, b, cfg, x_true=x_true)
        except Exception as exc:  # recorded, then compared like any output
            _write(os.path.join(out, "error"), f"{type(exc).__name__}: {exc}\n")
            continue
        trace_to_csv(result.trace, os.path.join(out, "trace.csv"))
        flags = "".join(f"{int(r.rank_fallback)}\n" for r in result.trace.records)
        _write(os.path.join(out, "rank_fallback"), flags)
        _write(os.path.join(out, "b_norm"), f"{float(np.linalg.norm(b))!r}\n")
        np.save(os.path.join(out, "x.npy"), result.x)
        _write(os.path.join(out, "termination"), result.termination + "\n")
        if result.factorization is not None:
            dump_factorization(result.factorization, out)


def _cli_configs(grid):
    """name -> config text without output_dir."""
    deblur = (
        "solver.gmres.maxiter = 6\n"
        "solver.cmrh.maxiter = 6\n"
        "solver.scmrh.maxiter = 6\n"
        "solver.scmrh.pivot = sampled\n"
        "solver.scmrh.sample_size = 5\n"
        "solver.scmrh.seed = 3\n"
        "solver.damped.name = lslu\n"
        "solver.damped.maxiter = 6\n"
        "solver.damped.lambda = 0.5\n"
    )
    tomography = (
        "solver.lsqr.maxiter = 6\n"
        "solver.lslu.maxiter = 6\n"
        "solver.slslu.maxiter = 6\n"
        "solver.slslu.pivot = sampled\n"
        "solver.slslu.sample_size = 5\n"
        "solver.slslu.seed = 3\n"
        "solver.s2.name = slslu\n"
        "solver.s2.maxiter = 6\n"
        "solver.s2.lambda = 0.5\n"
        "solver.s2.pivot_seed = 4\n"
    )
    problems = {
        "deblur16": (
            "problem.type = deblur\nproblem.size = 16\nproblem.psf = gaussian\n"
        ),
        "deblur32": (
            "problem.type = deblur\nproblem.size = 32\nproblem.psf = motion\n"
            "problem.psf_length = 7\nproblem.psf_angle = 30\n"
        ),
        "tomo12": "problem.type = tomography\nproblem.grid = 12\nproblem.angles = 8\n",
        "tomo24": "problem.type = tomography\nproblem.grid = 24\nproblem.angles = 12\n",
    }
    if grid == "smoke":
        problems = {"deblur8": "problem.type = deblur\nproblem.size = 8\n"}
        deblur = "solver.gmres.maxiter = 3\nsolver.scmrh.maxiter = 3\n"
    configs = {}
    for pname, head in problems.items():
        solvers = tomography if pname.startswith("tomo") else deblur
        for diag in ("false",) if grid == "smoke" else ("false", "true"):
            configs[f"{pname}-diag{diag}"] = (
                f"{head}problem.noise_level = 0.01\nproblem.seed = 0\n"
                f"diagnostics = {diag}\n{solvers}"
            )
    return configs


# the case whose output_dir is a regular file, written before it runs
_OUTPUT_IS_A_FILE = "tomo12-output-is-a-file"


def _cli_cases(grid):
    """(case, config text, argv after the config path)."""
    sweeps = {
        "lambda": "0,0.5",
        "seed": "1,2",
        "sketch_rows": "60,90",
        "sample_size": "3,full",
    }
    configs = _cli_configs(grid)
    for cname, text in configs.items():
        yield f"{cname}-solve", text, ["solve"]
        if grid == "smoke":
            continue
        yield f"{cname}-compare", text, ["compare"]
        for param, values in sweeps.items():
            args = ["sweep", "--param", param, "--values", values]
            yield f"{cname}-sweep-{param}", text, args
    if grid == "smoke":
        return
    small = configs["tomo12-diagfalse"]
    # a solver that fails at run time: fewer sketch rows than the
    # maxiter + 1 basis columns it would sketch
    failing = small + "solver.s2.sketch_rows = 4\n"
    yield "tomo12-fail-solve", failing, ["solve"]
    yield "tomo12-fail-compare", failing, ["compare"]
    seeds = ["sweep", "--param", "seed", "--values", "1,2"]
    yield "tomo12-fail-sweep", failing, seeds
    # invalid values: a negative seed, and a negative swept lambda
    bad_seed = small + "solver.s3.name = lslu\nsolver.s3.seed = -5\n"
    yield "tomo12-bad-seed", bad_seed, ["solve"]
    lambdas = ["sweep", "--param", "lambda", "--values", "0,-1"]
    yield "tomo12-bad-sweep", small, lambdas
    # one angle, and no pivots to sample from: both are config errors
    one_angle = small.replace("problem.angles = 8\n", "problem.angles = 1\n")
    yield "tomo12-bad-angles", one_angle, ["solve"]
    no_samples = small + (
        "solver.s3.name = lslu\nsolver.s3.pivot = sampled\nsolver.s3.sample_size = 0\n"
    )
    yield "tomo12-bad-sample-size", no_samples, ["solve"]
    yield _OUTPUT_IS_A_FILE, small, ["solve"]


def _run_cli(grid):
    from hessketch import cli

    for case, text, args in _cli_cases(grid):
        base = os.path.join("cli", case)
        os.makedirs(base)
        cfg = os.path.join(base, "exp.cfg")
        _write(cfg, f"output_dir = {os.path.join(base, 'out')}\n{text}")
        if case == _OUTPUT_IS_A_FILE:
            _write(os.path.join(base, "out"), "a regular file\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([args[0], cfg, *args[1:]])
            except Exception as exc:
                # a tree whose CLI lets an error escape still replays
                code = f"raised {type(exc).__name__}"
                print(exc, file=sys.stderr)
        _write(os.path.join(base, "exit_code"), f"{code}\n")
        _write(os.path.join(base, "stderr"), stderr.getvalue())


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def worker(tree, grid):
    import hessketch

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(hessketch.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {hessketch.__file__}, not the tree {tree}")
    _run_library(grid)
    _run_cli(grid)


# ---------------------------------------------------------------------------
# comparison

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


class Field:
    """The worst difference one field shows over the cases compared."""

    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.cases = 0
        self.differ = 0
        self.identical = True
        self.worst = 0.0
        self.worst_case = None
        self.first = None  # (position, case) of the earliest difference

    def add(self, case, identical, diff=0.0, position=None):
        self.cases += 1
        self.differ += not identical
        self.identical &= identical
        if not identical and (self.worst_case is None or not diff <= self.worst):
            self.worst, self.worst_case = diff, case
        if position is not None and (self.first is None or position < self.first[0]):
            self.first = position, case

    @property
    def missed(self):
        if self.tolerance == 0.0:
            return not self.identical
        return not self.worst <= self.tolerance

    def describe(self):
        if self.identical:
            return f"byte-identical ({self.cases})"
        text = (
            f"{self.differ} of {self.cases} differ, worst {self.worst:.2e} "
            f"at {self.worst_case}"
        )
        if self.first is not None:
            text += f"; first differing position {self.first[0]} at {self.first[1]}"
        return text


def _rel(a, b, scale=None):
    # relative to ``scale``, by default the largest finite magnitude of a
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0
    if scale is None:
        scale = np.max(np.abs(a[np.isfinite(a)]), initial=0.0)
    err = np.max(np.abs(a - b)[~same])
    return float(err / scale) if scale > 0 else np.inf


def _vector_diff(a, b):
    # norm-wise: x is compared as one vector of the solution space
    if a.shape != b.shape:
        return np.inf
    scale = np.linalg.norm(a)
    return float(np.linalg.norm(a - b) / scale) if scale > 0 else np.inf


def _matrix_market(text):
    # a MatrixMarket file's header (its comments and its size line) and
    # the text of its entries
    lines = text.split("\n")
    size = next((i for i, line in enumerate(lines) if not line.startswith("%")), len(lines))
    return "\n".join(lines[: size + 1]), "\n".join(lines[size + 1 :])


def _text_diff(a, b):
    # numbers compared by value, everything between them exactly; a
    # MatrixMarket header is compared exactly instead, so that the
    # dimensions in its size line do not scale the entries' difference
    if a.startswith("%%MatrixMarket"):
        (head_a, a), (head_b, b) = _matrix_market(a), _matrix_market(b)
        if head_a != head_b:
            return np.inf
    if _NUMBER.split(a) != _NUMBER.split(b):
        return np.inf
    return _rel(
        [float(t) for t in _NUMBER.findall(a)], [float(t) for t in _NUMBER.findall(b)]
    )


def _first_difference(a, b):
    # the first entry at which two MatrixMarket vectors differ, or the
    # shorter length when one is a prefix of the other
    a, b = ([float(t) for t in _matrix_market(text)[1].split()] for text in (a, b))
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _csv_columns(text):
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _column_diff(a, b, b_norm=0.0):
    # relative to the column's largest magnitude, so values at rounding
    # level (a converged rel_err, say) are not compared on their own scale;
    # given ||b||, a residual column whose old values are all rounding
    # noise around an exact zero is compared relative to ||b|| instead
    if len(a) != len(b) or any((x == "") != (y == "") for x, y in zip(a, b)):
        return np.inf
    a = [float(x) for x in a if x]
    b = [float(y) for y in b if y]
    if b_norm > 0.0 and np.max(np.abs(a), initial=0.0) <= ROUNDING * b_norm:
        return _rel(a, b, b_norm)
    return _rel(a, b)


def _cli_kind(name):
    for suffix in (".trace.csv", ".solution.mm", ".recon.pgm"):
        if name.endswith(suffix):
            return suffix[1:]
    return name


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _b_norm(case_dir):
    # ||b|| as the worker recorded it; 0.0 (no floor) where it is missing
    path = os.path.join(case_dir, "b_norm")
    return float(_read(path)) if os.path.exists(path) else 0.0


def _files(root):
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def compare(old_root, new_root):
    """Fields per group: {group: {field: Field}}."""
    groups = {}

    def field(group, name, tolerance):
        return groups.setdefault(group, {}).setdefault(name, Field(tolerance))

    old_files, new_files = _files(old_root), _files(new_root)
    for rel in sorted(old_files | new_files):
        parts = rel.split(os.sep)
        case = parts[1]
        if parts[0] == "lib":
            problem, solver = case.split("-")[:2]
            kind = "rank-deficient" if problem in DEFICIENT_PROBLEMS else "full-rank"
            group = f"library, {kind} problems"
            if solver in REFERENCES:
                group += f" ({', '.join(REFERENCES)})"
        else:
            group = "cli"
        name = parts[-1]
        if rel not in old_files or rel not in new_files:
            side = "NEW" if rel in new_files else "OLD"
            field(group, "files", 0.0).add(f"{rel} only in {side}", False, np.inf)
            continue
        field(group, "files", 0.0).add(case, True)
        old = _read(os.path.join(old_root, rel))
        new = _read(os.path.join(new_root, rel))
        if group == "cli":
            if name == "exp.cfg":
                continue
            same = old == new
            if same:
                diff = 0.0
            elif name.endswith(".pgm"):
                diff = np.inf
            else:
                diff = _text_diff(old.decode(), new.decode())
            field(group, _cli_kind(name), 0.0).add(case, same, diff)
        elif name == "trace.csv":
            a, b = _csv_columns(old.decode()), _csv_columns(new.decode())
            b_norm = _b_norm(os.path.join(old_root, os.path.dirname(rel)))
            for column in sorted(set(a) | set(b)):
                tol = TOLERANCES.get(column, DEFAULT_TOLERANCE)
                ca, cb = a.get(column, []), b.get(column, [])
                diff = _column_diff(
                    ca, cb, b_norm if column in RESIDUAL_COLUMNS else 0.0
                )
                field(group, column, tol).add(case, ca == cb, diff)
        elif name == "x.npy":
            diff = _vector_diff(
                np.load(os.path.join(old_root, rel)),
                np.load(os.path.join(new_root, rel)),
            )
            field(group, "x", TOLERANCES["x"]).add(case, old == new, diff)
        else:
            tol = TOLERANCES.get(name, DEFAULT_TOLERANCE)
            diff = _text_diff(old.decode(), new.decode())
            position = None
            if name in PIVOT_FILES and old != new:
                position = _first_difference(old.decode(), new.decode())
            field(group, name, tol).add(case, old == new, diff, position)
    return groups


def report(groups, out=sys.stdout):
    """Print every field of every group; returns the number of misses."""
    misses = 0
    for group in sorted(groups):
        fields = groups[group]
        print(f"{group}:", file=out)
        for name in sorted(fields, key=lambda n: (n != "files", n)):
            f = fields[name]
            gate = "identical" if f.tolerance == 0.0 else f"{f.tolerance:.0e}"
            mark = "MISS " if f.missed else ""
            misses += f.missed
            print(f"  {name:<18} {gate:<10} {mark}{f.describe()}", file=out)
    return misses


def run_tree(tree, work, grid):
    """Start one tree's worker subprocess in ``work``; returns the Popen."""
    os.makedirs(work)
    # trees from before HESSKETCH_SEED was removed still read it
    env = {k: v for k, v in os.environ.items() if k != "HESSKETCH_SEED"}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           os.path.abspath(tree), "--grid", grid]
    return subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def replay(old_tree, new_tree, grid="full", work=None, out=sys.stdout):
    """Run the grid on both trees side by side and report; returns the misses."""
    with contextlib.ExitStack() as stack:
        if work is None:
            work = stack.enter_context(tempfile.TemporaryDirectory(prefix="replay-"))
        roots = {side: os.path.join(work, side) for side in ("old", "new")}
        procs = {side: run_tree(tree, roots[side], grid)
                 for side, tree in (("old", old_tree), ("new", new_tree))}
        logs = {side: proc.communicate()[0] for side, proc in procs.items()}
        for side, proc in procs.items():
            if proc.returncode != 0:
                raise RuntimeError(f"{side} tree worker failed:\n{logs[side]}")
        print(f"replay of {new_tree} against {old_tree}, grid {grid}", file=out)
        return report(compare(roots["old"], roots["new"]), out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--grid", choices=("full", "smoke"), default="full")
    parser.add_argument("--work", help="keep the outputs in WORK/old and WORK/new")
    parser.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.grid)
        return 0
    if not (args.old and args.new):
        parser.error("give OLD_TREE and NEW_TREE")
    misses = replay(args.old, args.new, args.grid, args.work)
    if misses:
        print(f"{misses} field(s) missed their gate")
    else:
        print("every field met its gate")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
