"""Run one workload through ``hessketch.cli.main(["solve", cfg])`` and check it.

A closed loop in a single process: one ``solve`` at a time, each started
after the previous one returned.  The timed runs carry only a few clock
reads around calls the run makes anyway (``cli.build_problem`` and the
``SOLVERS`` entries); the memory run and the traced run are separate,
untimed runs of the same config.  Every run's answers are checked.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import scipy

from hessketch import cli, hessenberg, solvers
from tracing import Tracer, patched
from workloads import COUNTER_FIELDS, ROLES

# Each end-to-end time is a median over at least MIN_TIMED_RUNS runs, however
# short --seconds is.  setup_s is the median over the timed runs' problem
# assemblies plus extra ones outside any solve.  After each timed run come
# as many extras as fit in SETUP_GAP_S, at most MAX_EXTRA_SETUPS: a deblur
# assembly takes milliseconds and gets 8 extras per run, a tomography one
# takes seconds and gets none.  Spread over the whole measurement, the
# samples see the same host load as the timed runs.  Extras are added at
# the end until there are MIN_SETUP_SAMPLES.
MIN_TIMED_RUNS = 2
SETUP_GAP_S = 0.1
MAX_EXTRA_SETUPS = 8
MIN_SETUP_SAMPLES = 5
# rel_err recomputed from the returned x must match the trace's final
# record: both are the same formula on the same vector.
X_REL_TOL = 1e-12

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    **{f"solve_s.{role}": "s" for role in ROLES},
    "peak_mb": "MB",
    **{f"best_rel_err.{role}": "1" for role in ROLES},
}

# spans around calls into one package layer; per_layer reports their self
# times and, where PER_LAYER_UNITS lists one, their call counts
_LAYER_SPANS = (
    "problems.assemble",
    "linops.apply",
    "linops.transpose",
    "linops.dot",
    "linops.qr",
    "hessenberg.step",
    "hessenberg.pivot",
    "sketch.draw",
    "sketch.apply",
    "cli.output",
)

PER_LAYER_UNITS = {
    "problems.assemble_s": "s",
    "linops.apply_s": "s",
    "linops.apply_n": "count",
    "linops.transpose_s": "s",
    "linops.transpose_n": "count",
    "linops.dot_s": "s",
    "linops.dot_n": "count",
    "linops.qr_s": "s",
    "linops.qr_n": "count",
    "linops.qr_rank_deficient_n": "count",
    "hessenberg.step_s": "s",
    "hessenberg.step_n": "count",
    "hessenberg.pivot_s": "s",
    "hessenberg.pivot_n": "count",
    "sketch.draw_s": "s",
    "sketch.draw_n": "count",
    "sketch.draw_bytes": "bytes",
    "sketch.apply_s": "s",
    "sketch.apply_n": "count",
    "sketch.apply_bytes": "bytes",
    "solvers.driver_s": "s",
    "cli.output_s": "s",
    "cli.other_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    **{f"solvers.{role}.{name}": "count"
       for role in ROLES for name in COUNTER_FIELDS},
}


@dataclass
class Outcome:
    """What the checks need from one solver call; the result is dropped
    so the memory run sees no more live data than the CLI itself."""

    seconds: float
    x: np.ndarray = None
    records: list = None
    termination: str = None
    error: str = None


@dataclass
class Run:
    exit_code: int = None
    run_s: float = None
    setup_s: float = None
    peak_bytes: int = None
    x_true: np.ndarray = None
    outcomes: dict = field(default_factory=dict)  # role -> Outcome
    traces: dict = field(default_factory=dict)  # role -> CSV bytes


def _layer_patches(tracer):
    """Spans around every layer boundary, where the caller looks it up."""
    wrap = tracer.wrap

    def sketch_bytes(S, *args, **kwargs):
        return S.out_rows * S.in_rows * 8

    def draw_bytes(out_rows, in_rows, seed):
        return out_rows * in_rows * 8

    patches = [
        (cli, name, wrap("cli.output", getattr(cli, name)))
        for name in ("trace_to_csv", "save_array", "write_image")
    ]
    patches += [
        (solvers, name, wrap("linops.qr", getattr(solvers, name)))
        for name in ("dense_qr_ls", "stacked_tikhonov_ls")
    ]
    patches += [
        (solvers, name, wrap("hessenberg.step", getattr(solvers, name)))
        for name in ("init_square", "init_generalized", "step_square",
                     "step_generalized")
    ]
    patches += [
        (solvers, name, wrap("linops.dot", getattr(solvers, name)))
        for name in ("tracked_dot", "tracked_norm")
    ]
    patches += [
        (solvers, "make_gaussian_sketch",
         wrap("sketch.draw", solvers.make_gaussian_sketch, draw_bytes)),
        (solvers, "sketch_apply",
         wrap("sketch.apply", solvers.sketch_apply, sketch_bytes)),
        (hessenberg, "pivot_select",
         wrap("hessenberg.pivot", hessenberg.pivot_select)),
    ]
    return patches


def run_once(workload, cfg_path, out_dir, tracer=None, memory=False):
    """One ``hessketch solve`` of the workload config; returns a Run."""
    run = Run()
    clock = time.perf_counter
    build_problem = cli.build_problem
    if tracer:
        build_problem = tracer.wrap("problems.assemble", build_problem)

    def timed_build(cfg):
        start = clock()
        problem = build_problem(cfg)
        run.setup_s = clock() - start
        run.x_true = problem.x_true
        if tracer:
            op = problem.operator
            op.forward = tracer.wrap("linops.apply", op.forward)
            op.transpose = tracer.wrap("linops.transpose", op.transpose)
        return problem

    def timed_solver(role, solve):
        def call(A, b, cfg, x_true=None):
            start = clock()
            try:
                result = solve(A, b, cfg, x_true=x_true)
            except Exception as exc:
                run.outcomes[role] = Outcome(clock() - start, error=repr(exc))
                raise
            run.outcomes[role] = Outcome(
                clock() - start, result.x, result.trace.records,
                result.termination)
            return result

        return call

    patches = [(cli, "build_problem", timed_build)]
    for role, spec in workload.solvers.items():
        solve = solvers.SOLVERS[spec["name"]]
        if tracer:
            solve = tracer.wrap(f"solvers.{role}", solve)
        patches.append((solvers.SOLVERS, spec["name"], timed_solver(role, solve)))
    main = cli.main
    if tracer:
        patches += _layer_patches(tracer)
        main = tracer.wrap("cli.run", main)

    paths = {role: os.path.join(out_dir, f"{spec['name']}.trace.csv")
             for role, spec in workload.solvers.items()}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)  # a trace read back must come from this run
    gc.collect()
    with patched(patches):
        if memory:
            tracemalloc.start()
        try:
            start = clock()
            run.exit_code = main(["solve", cfg_path])
            run.run_s = clock() - start
            if memory:
                run.peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            if memory:
                tracemalloc.stop()
    for role, path in paths.items():
        if os.path.exists(path):
            with open(path, "rb") as fh:
                run.traces[role] = fh.read()
    return run


def best_rel_err(outcome):
    return min(rec.rel_err for rec in outcome.records)


def check_call(workload, role, outcome, x_true, trace, replay):
    """Problems with one solver call; an empty list means it is correct.

    ``replay`` is the trace CSV of the session's first run, or None for
    the first run itself.
    """
    if outcome is None:
        return ["not run"]
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    problems = []
    if outcome.termination != "maxiter":
        problems.append(f"terminated by {outcome.termination}")
    final = outcome.records[-1] if outcome.records else None
    got = dict(zip(COUNTER_FIELDS, (
        len(outcome.records), final.matvecs, final.tmatvecs, final.dots,
        final.sketches))) if final else {}
    if got != workload.counters[role]:
        problems.append(f"counters {got} != {workload.counters[role]}")
    if role != "reference" and got.get("dots") != 0:
        problems.append(f"{got.get('dots')} dot products, expected none")
    x = outcome.x
    if x is None or x.shape != x_true.shape or not np.all(np.isfinite(x)):
        problems.append("x is missing, misshapen or not finite")
    elif final is not None:
        err = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
        if not abs(err - final.rel_err) <= X_REL_TOL * final.rel_err:
            problems.append(f"x has rel_err {err!r}, trace says {final.rel_err!r}")
    if final is not None:
        lo, hi = workload.best_rel_err[role]
        best = best_rel_err(outcome)
        if not lo <= best <= hi:
            problems.append(f"best_rel_err {best!r} outside [{lo}, {hi}]")
    if trace is None:
        problems.append("no trace CSV written")
    elif replay is not None and trace != replay:
        problems.append("trace CSV differs from the session's first run")
    return problems


@dataclass
class Session:
    """All runs of one benchmark invocation and their check results."""

    workload: object
    cfg_path: str
    out_dir: str
    runs: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    replay: dict = None

    def run(self, kind, **kwargs):
        run = run_once(self.workload, self.cfg_path, self.out_dir, **kwargs)
        if self.replay is None:
            self.replay = dict(run.traces)
        for role in self.workload.solvers:
            self.attempted += 1
            found = check_call(
                self.workload, role, run.outcomes.get(role), run.x_true,
                run.traces.get(role), self.replay.get(role))
            if run.exit_code != 0 and not found:
                found = [f"solve exited with {run.exit_code}"]
            if found:
                self.failed += 1
                self.problems.append(f"{kind} run {self.runs}: {role}: "
                                     + "; ".join(found))
        self.runs += 1
        return run

    def timed(self, seconds):
        """Untraced runs until ``seconds`` have passed, at least
        MIN_TIMED_RUNS of them; returns the runs and the setup_s samples."""
        clock = time.perf_counter
        cfg = cli.ExperimentConfig.from_path(self.cfg_path)
        runs, setup = [], []

        def assemble():
            start = clock()
            cli.build_problem(cfg)
            setup.append(clock() - start)

        start = clock()
        while len(runs) < MIN_TIMED_RUNS or clock() - start < seconds:
            run = self.run("timed")
            runs.append(run)
            if run.setup_s is not None:
                setup.append(run.setup_s)
                for _ in range(min(MAX_EXTRA_SETUPS, int(SETUP_GAP_S / run.setup_s))):
                    assemble()
        while len(setup) < MIN_SETUP_SAMPLES:
            assemble()
        return runs, setup


def _median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(runs, setup, memory_run):
    """The end-to-end metrics: name -> (median, unit, samples)."""
    ok = [r for r in runs if r.exit_code == 0]
    metrics = {
        "run_s": [r.run_s for r in ok],
        "setup_s": setup,
    }
    for role in ROLES:
        metrics[f"solve_s.{role}"] = [
            r.outcomes[role].seconds for r in ok if role in r.outcomes]
    metrics["peak_mb"] = [memory_run.peak_bytes / 1e6] if memory_run.peak_bytes else []
    for role in ROLES:
        outcome = ok[0].outcomes.get(role) if ok else None
        metrics[f"best_rel_err.{role}"] = (
            [best_rel_err(outcome)] if outcome and outcome.records else [])
    return {name: (_median(vals), END_TO_END_UNITS[name], vals)
            for name, vals in metrics.items()}


def per_layer(tracer, traced_run, untraced_runs):
    """The per-layer metrics from one traced run: name -> (value, unit, samples)."""
    totals = tracer.self_times()
    zero = (0.0, 0, 0, 0)
    metrics = {}
    for span in _LAYER_SPANS:
        seconds, calls, _, _ = totals.get(span, zero)
        metrics[f"{span}_s"] = seconds
        metrics[f"{span}_n"] = calls
    metrics["linops.qr_rank_deficient_n"] = totals.get("linops.qr", zero)[3]
    metrics["sketch.draw_bytes"] = totals.get("sketch.draw", zero)[2]
    metrics["sketch.apply_bytes"] = totals.get("sketch.apply", zero)[2]
    metrics["solvers.driver_s"] = sum(
        totals.get(f"solvers.{role}", zero)[0] for role in ROLES)
    metrics["cli.other_s"] = totals.get("cli.run", zero)[0]
    metrics["trace.run_s"] = traced_run.run_s
    metrics["trace.overhead_s"] = traced_run.run_s - _median(
        [r.run_s for r in untraced_runs if r.exit_code == 0])
    for role in ROLES:
        outcome = traced_run.outcomes.get(role)
        final = outcome.records[-1] if outcome and outcome.records else None
        values = (len(outcome.records), final.matvecs, final.tmatvecs,
                  final.dots, final.sketches) if final else (0,) * 5
        for name, value in zip(COUNTER_FIELDS, values):
            metrics[f"solvers.{role}.{name}"] = value
    return {name: (metrics[name], unit, [metrics[name]])
            for name, unit in PER_LAYER_UNITS.items()}


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def git_commit(root):
    """HEAD's commit from the .git directory, or "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, root):
    return {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
    }


def benchmark(workload, seed, seconds, trace, work_dir, root):
    """Run the workload and return a report dict (see ``run.py``)."""
    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cfg_path = os.path.join(work_dir, "solve.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(workload.config_text(seed, out_dir))
    session = Session(workload, cfg_path, out_dir)
    if trace:
        runs, _ = session.timed(seconds)
        tracer = Tracer()
        traced = session.run("traced", tracer=tracer)
        tracer.write(os.path.join(work_dir, "spans.csv"))
        metrics = per_layer(tracer, traced, runs)
    else:
        # the memory run goes first and so also warms the process up
        memory = session.run("memory", memory=True)
        runs, setup = session.timed(seconds)
        metrics = end_to_end(runs, setup, memory)
    missing = [n for n, (v, _, _) in metrics.items() if not math.isfinite(v)]
    problems = session.problems + [f"metric {n} not measured" for n in missing]
    return {
        "environment": environment(workload, seed, root),
        "metrics": metrics,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": problems,
        "correct": not problems,
    }
