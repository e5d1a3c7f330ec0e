"""Config-driven experiment harness for the solver library.

Three subcommands operate on a flat key-value config file::

    hessketch solve <cfg>      run each solver, write traces and solutions
    hessketch compare <cfg>    run all solvers, write compare.csv + summary.txt
    hessketch sweep <cfg> --param lambda --values 0.5,1,2

Config format: one ``key = value`` pair per line, ``#`` comments and blank
lines ignored.  Problem keys use the ``problem.`` prefix; each solver is a
group of ``solver.<label>.<field>`` keys where the label names the output
files and doubles as the solver name unless ``solver.<label>.name`` says
otherwise (so the same method can be listed twice under different labels).
The other solver fields become one :class:`SolverConfig` (``lambda`` is its
``lam``) with a :class:`PivotStrategy` (``pivot``, ``sample_size``, and
``pivot_seed``, which defaults to ``seed``); ``diagnostics`` turns on
``compute_diagnostics`` for every solver.

::

    problem.type = deblur          # or tomography
    problem.size = 32              # tomography: problem.grid, problem.angles
    problem.psf = motion           # or gaussian
    problem.psf_length = 7
    problem.psf_angle = 30
    problem.noise_level = 0.01
    problem.seed = 0
    output_dir = out
    diagnostics = false

    solver.gmres.maxiter = 30
    solver.scmrh.maxiter = 30
    solver.scmrh.pivot = sampled
    solver.scmrh.sample_size = 5
    solver.scmrh.seed = 3

Exit codes:

* 0: success.
* 2: config error.  The message names the offending field (with its line
  for syntax errors and unknown keys) and nothing is written.  A problem
  key that its type or PSF does not read is an error, and so is a sweep
  value listed twice.  Solver values are checked by SolverConfig and
  PivotStrategy, whether they come from the file or from
  ``sweep --values``, all before the problem is built.
* 1: a solver raised at run time, such as a sketch with fewer than K+1
  rows, K = min(maxiter, n) being the most steps the solve can take, or
  an output could not be written, such as with a regular file in
  ``output_dir``'s path or a directory at a file's name.  One stderr
  line names the failure and the output's path.  Every run before it
  has written its files, and, when the output directory exists, a
  ``PARTIAL`` file in it names the failure and lists the runs that
  completed: labels for ``solve`` and ``compare``,
  ``<label>.<param>.<value>`` stems for ``sweep``.  A run deletes any
  ``PARTIAL`` an earlier run left before its first solve.

The config file is the only input: every seed (problem noise, solver
sketch, sampled pivot) is read from it, and only ``sweep --param seed``
overrides the solver seeds.  Every output replays byte for byte: timings
are never written and all randomness is seed-derived.  Output files are
written to a temporary name and renamed into place.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from dataclasses import dataclass, replace

import numpy as np

from .linops import save_array
from .problems import gaussian_psf, make_deblur, make_tomography, motion_psf, write_image
from .solvers import CSV_COLUMNS, SOLVERS, SolverConfig, _cell, trace_to_csv

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SolverSpec",
    "build_problem",
    "cmd_solve",
    "cmd_compare",
    "cmd_sweep",
    "main",
]

SKETCHED_SOLVERS = {"scmrh", "slslu"}
PIVOTED_SOLVERS = {"cmrh", "lslu", "scmrh", "slslu"}
SQUARE_ONLY_SOLVERS = {"gmres", "cmrh", "scmrh"}

# every accepted problem.<key> and solver.<label>.<key>, with its type
_PROBLEM_KEYS = {
    "type": str,
    "size": int,
    "grid": int,
    "angles": int,
    "psf": str,
    "psf_sigma": float,
    "psf_length": float,
    "psf_angle": float,
    "noise_level": float,
    "seed": int,
}
# the problem keys each type reads besides type, noise_level and seed, and
# the ones a deblur problem reads for each PSF
_TYPE_KEYS = {"deblur": ("size", "psf"), "tomography": ("grid", "angles")}
_PSF_KEYS = {"gaussian": ("psf_sigma",), "motion": ("psf_length", "psf_angle")}
_SOLVER_KEYS = {
    "name": str,
    "maxiter": int,
    "pivot": str,
    "sample_size": int,
    "pivot_seed": int,
    "sketch_rows": int,
    "lambda": float,
    "seed": int,
}


class ConfigError(Exception):
    """Invalid experiment configuration; the message names field and line."""


@dataclass
class SolverSpec:
    """One solver entry from a config file: its label, solver and settings."""

    label: str
    name: str
    config: SolverConfig


@dataclass
class ExperimentConfig:
    """Parsed config: a problem description plus an ordered solver list."""

    problem: dict
    solvers: list
    output_dir: str
    path: str = "<config>"

    @classmethod
    def from_path(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return parse_config(text, source=str(path))


def _with_pivot(config, **changes):
    return replace(config, pivot=replace(config.pivot, **changes))


def _reseed(config, seed):
    # one seed for the sketch and the sampled pivots; the config checks it
    # first, so a bad value is reported as the seed it is
    return _with_pivot(replace(config, seed=seed), seed=seed)


def _respec(spec, where, change, **changes):
    """``spec`` with config ``change(spec.config, **changes)``.

    The new values pass SolverConfig's and PivotStrategy's checks again; a
    rejected one is a ConfigError naming ``where``, the label and the field.
    """
    try:
        return replace(spec, config=change(spec.config, **changes))
    except ValueError as exc:
        raise ConfigError(f"{where}: solver.{spec.label}: {exc}") from None


def _parse_scalar(raw, kind, where):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"{where}: expected {kind.__name__}, got {raw!r}"
        ) from None


def parse_config(text, source="<config>"):
    """Parse flat dotted-key config text into an ExperimentConfig."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key or not raw:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key}")
        entries[key] = (raw, lineno)

    problem = {"noise_level": 0.0, "seed": 0}
    solver_fields = {}
    output_dir = None
    diagnostics = False
    for key, (raw, lineno) in entries.items():
        where = f"{source}:{lineno}: {key}"
        parts = key.split(".")
        if parts[0] == "problem" and len(parts) == 2:
            if parts[1] not in _PROBLEM_KEYS:
                raise ConfigError(f"{where}: unknown problem field")
            problem[parts[1]] = _parse_scalar(raw, _PROBLEM_KEYS[parts[1]], where)
        elif parts[0] == "solver" and len(parts) == 3:
            label, name = parts[1], parts[2]
            if not label.replace("_", "").replace("-", "").isalnum():
                raise ConfigError(f"{where}: solver label must be alphanumeric")
            if name not in _SOLVER_KEYS:
                raise ConfigError(f"{where}: unknown solver field")
            value = _parse_scalar(raw, _SOLVER_KEYS[name], where)
            solver_fields.setdefault(label, {})[name] = (value, where)
        elif key == "output_dir":
            output_dir = raw
        elif key == "diagnostics":
            diagnostics = _parse_scalar(raw, bool, where)
        else:
            raise ConfigError(f"{where}: unknown key")

    if problem.get("type") is None:
        raise ConfigError(f"{source}: missing required key problem.type")
    if output_dir is None:
        raise ConfigError(f"{source}: missing required key output_dir")
    if not solver_fields:
        raise ConfigError(f"{source}: no solver.<label>.* entries")

    specs = [
        _solver_spec(label, fields, diagnostics, source)
        for label, fields in solver_fields.items()
    ]
    cfg = ExperimentConfig(problem, specs, output_dir, source)
    validate_config(cfg)
    return cfg


def _solver_spec(label, fields, diagnostics, source):
    """The SolverSpec of one label's parsed ``(value, where)`` fields."""
    name, where = fields.pop("name", (label, f"{source}: solver.{label}.name"))
    if name not in SOLVERS:
        raise ConfigError(
            f"{where}: unknown solver name {name!r}; choose from {sorted(SOLVERS)}"
        )
    values = {key: value for key, (value, _) in fields.items()}
    kind = values.pop("pivot", "full")
    sample_size = values.pop("sample_size", 0)
    pivot_seed = values.pop("pivot_seed", None)
    if "lambda" in values:
        values["lam"] = values.pop("lambda")
    try:
        config = SolverConfig(compute_diagnostics=diagnostics, **values)
        config = _with_pivot(
            config,
            kind=kind,
            sample_size=sample_size,
            seed=config.seed if pivot_seed is None else pivot_seed,
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: solver.{label}: {exc}") from None
    return SolverSpec(label, name, config)


def validate_config(cfg):
    """Check the problem keys, and that each solver suits the problem."""
    ptype = cfg.problem.get("type")
    if ptype not in _TYPE_KEYS:
        raise ConfigError(
            f"{cfg.path}: problem.type must be 'deblur' or 'tomography', "
            f"got {ptype!r}"
        )
    required = ("size",) if ptype == "deblur" else ("grid", "angles")
    for key in required:
        if key not in cfg.problem:
            raise ConfigError(f"{cfg.path}: missing required key problem.{key}")
    applies = ("type", "noise_level", "seed") + _TYPE_KEYS[ptype]
    owner = f"problem.type = {ptype}"
    if ptype == "deblur":
        psf = cfg.problem.get("psf", "gaussian")
        if psf not in _PSF_KEYS:
            raise ConfigError(
                f"{cfg.path}: problem.psf must be 'gaussian' or 'motion'"
            )
        applies += _PSF_KEYS[psf]
        owner += f" with problem.psf = {psf}"
    for key in cfg.problem:
        if key not in applies:
            raise ConfigError(f"{cfg.path}: problem.{key} does not apply to {owner}")
    if ptype == "tomography":
        for spec in cfg.solvers:
            if spec.name in SQUARE_ONLY_SOLVERS:
                raise ConfigError(
                    f"{cfg.path}: solver.{spec.label}.name: {spec.name} "
                    "requires a square operator; tomography is rectangular"
                )


def build_problem(cfg):
    """Construct the Problem described by a parsed config."""
    p = cfg.problem
    try:
        if p["type"] == "deblur":
            size = p["size"]
            if p.get("psf", "gaussian") == "motion":
                kernel = motion_psf(
                    p.get("psf_length", 7.0), p.get("psf_angle", 0.0), image_size=size
                )
            else:
                kernel = gaussian_psf(p.get("psf_sigma", 1.0), image_size=size)
            return make_deblur(size, kernel, p["noise_level"], p["seed"])
        return make_tomography(
            p["grid"], p["angles"], p["noise_level"], p["seed"]
        )
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: invalid problem: {exc}") from exc


# ---------------------------------------------------------------------------
# output


def _atomic(path, write):
    """Call ``write(tmp)`` on a temporary name, then rename it to ``path``.
    A ``write`` or rename that raises leaves no temporary file behind."""
    tmp = f"{path}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_lines(path, lines):
    data = ("\n".join(lines) + "\n").encode("utf-8")
    _atomic(path, lambda tmp: pathlib.Path(tmp).write_bytes(data))


def _write_trace(out_dir, stem, result):
    path = os.path.join(out_dir, f"{stem}.trace.csv")
    _atomic(path, lambda tmp: trace_to_csv(result.trace, tmp))


def _final_residual(problem, x):
    return float(np.linalg.norm(problem.b - problem.operator.forward(x)))


# ---------------------------------------------------------------------------
# the run loop and the three subcommands


def _run(cfg, runs, write, finish=lambda: None):
    """Build the problem, then run each ``(stem, spec)`` pair in order.

    ``write(stem, problem, result)`` handles each result as soon as its run
    returns; it gets ``x`` and the trace, but not the factorization, whose
    bases are dropped first.  ``finish()`` writes what needs every run.
    Returns the exit code: 0, or 1 when a solver raises or ``write`` or
    ``finish`` raises an OSError, after writing a PARTIAL file that names
    the failure and lists every stem that completed before it; an output
    directory that cannot be made gets one stderr line and no PARTIAL.  A
    PARTIAL left by an earlier run goes before the first solve.
    """
    problem = build_problem(cfg)
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        print(f"cannot make output_dir: {exc}", file=sys.stderr)
        return 1
    partial = os.path.join(cfg.output_dir, "PARTIAL")
    if os.path.exists(partial):
        os.remove(partial)
    done = []
    for stem, spec in runs:
        try:
            result = SOLVERS[spec.name](
                problem.operator, problem.b, spec.config, x_true=problem.x_true
            )
        except Exception as exc:
            return _failed(partial, f"solver {spec.label} failed: {exc}", done)
        # no output reads the bases, the solve's largest arrays: free them
        result.factorization = None
        try:
            write(stem, problem, result)
        except OSError as exc:
            return _failed(partial, f"output of {stem} failed: {exc}", done)
        del result
        done.append(stem)
    try:
        finish()
    except OSError as exc:
        return _failed(partial, f"output failed: {exc}", done)
    return 0


def _failed(partial, error, done):
    # the PARTIAL file and the stderr line of a run that stops at ``error``
    lines = [f"failed: {error}"] + [f"completed: {s}" for s in done]
    _write_lines(partial, lines)
    print(error, file=sys.stderr)
    return 1


def cmd_solve(config_path):
    cfg = ExperimentConfig.from_path(config_path)

    def write(stem, problem, result):
        base = os.path.join(cfg.output_dir, stem)
        _write_trace(cfg.output_dir, stem, result)
        _atomic(f"{base}.solution.mm", lambda tmp: save_array(tmp, result.x))
        if problem.image_shape is not None:
            img = result.x.reshape(problem.image_shape)
            _atomic(f"{base}.recon.pgm", lambda tmp: write_image(img, tmp))

    return _run(cfg, [(spec.label, spec) for spec in cfg.solvers], write)


def _compare_rows(label, trace):
    # every column but the volatile wall_ms, so compare.csv replays
    for rec in trace.records:
        for name in CSV_COLUMNS[1:-1]:
            value = getattr(rec, name)
            if value is not None:
                yield f"{label},{rec.iteration},{name},{_cell(value)}"


def _summary_line(label, problem, result):
    final = result.trace.final()
    best = min(result.trace.records, key=lambda r: r.rel_err)
    return (
        f"{label}: min_rel_err={best.rel_err:.6e} at_iter={best.iteration} "
        f"final_res={_final_residual(problem, result.x):.6e} "
        f"matvecs={final.matvecs} tmatvecs={final.tmatvecs} "
        f"dots={final.dots} sketches={final.sketches}"
    )


def cmd_compare(config_path):
    cfg = ExperimentConfig.from_path(config_path)
    if len(cfg.solvers) < 2:
        raise ConfigError(f"{cfg.path}: compare needs at least two solvers")
    rows = ["solver,iter,metric,value"]
    summary = []

    def collect(stem, problem, result):
        rows.extend(_compare_rows(stem, result.trace))
        summary.append(_summary_line(stem, problem, result))

    def finish():
        _write_lines(os.path.join(cfg.output_dir, "compare.csv"), rows)
        _write_lines(os.path.join(cfg.output_dir, "summary.txt"), summary)

    return _run(cfg, [(spec.label, spec) for spec in cfg.solvers], collect, finish)


SWEEP_PARAMS = ("lambda", "seed", "sketch_rows", "sample_size")


def _sweep_values(param, raw_values):
    values = []
    for raw in raw_values:
        if param == "lambda":
            value = float(raw)
        elif param == "sample_size":
            value = "full" if raw == "full" else int(raw)
        else:
            value = int(raw)
        # 0.5 and 0.50 are one run, with one stem
        if value in values:
            raise ValueError(f"{param}={value} is listed twice")
        values.append(value)
    return values


def _swept(spec, param, value):
    """The spec with the swept value applied, or None if the parameter
    does not apply to this solver."""
    where = f"sweep {param}={value}"
    if param == "lambda":
        return _respec(spec, where, replace, lam=value)
    if param == "seed":
        return _respec(spec, where, _reseed, seed=value)
    if param == "sketch_rows":
        if spec.name not in SKETCHED_SOLVERS:
            return None
        return _respec(spec, where, replace, sketch_rows=value)
    if spec.name not in PIVOTED_SOLVERS:
        return None
    if value == "full":
        return _respec(spec, where, _with_pivot, kind="full")
    return _respec(spec, where, _with_pivot, kind="sampled", sample_size=value)


def cmd_sweep(config_path, param, values):
    cfg = ExperimentConfig.from_path(config_path)
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    try:
        parsed = _sweep_values(param, values)
    except ValueError as exc:
        raise ConfigError(f"bad sweep value: {exc}") from None
    if not parsed:
        raise ConfigError("empty sweep value list")
    runs = [
        (f"{spec.label}.{param}.{value}", swept)
        for value in parsed
        for spec in cfg.solvers
        if (swept := _swept(spec, param, value)) is not None
    ]
    if not runs:
        raise ConfigError(f"{param} applies to none of the listed solvers")
    agg = ["solver,value,min_rel_err,final_res"]
    finals = {}
    min_errs = {}

    def record(stem, problem, result):
        _write_trace(cfg.output_dir, stem, result)
        label, _, value = stem.split(".", 2)  # labels and params have no dots
        best = min(r.rel_err for r in result.trace.records)
        final = _final_residual(problem, result.x)
        agg.append(f"{label},{value},{_cell(best)},{_cell(final)}")
        finals.setdefault(label, []).append(final)
        min_errs.setdefault(label, []).append(best)

    def finish():
        summary = [
            f"{label}: runs={len(vals)} "
            f"final_res_mean={np.mean(vals):.6e} "
            f"final_res_std={np.std(vals):.6e} "
            f"min_rel_err_mean={np.mean(min_errs[label]):.6e}"
            for label, vals in finals.items()
        ]
        _write_lines(os.path.join(cfg.output_dir, "sweep.csv"), agg)
        _write_lines(os.path.join(cfg.output_dir, "sweep_summary.txt"), summary)

    return _run(cfg, runs, record, finish)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hessketch",
        description="Run solver experiments described by a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "compare", "sweep"):
        cmd = sub.add_parser(name)
        cmd.add_argument("config")
        if name == "sweep":
            cmd.add_argument("--param", required=True)
            cmd.add_argument(
                "--values",
                required=True,
                help="comma-separated sweep values",
            )
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config)
        if args.command == "compare":
            return cmd_compare(args.config)
        values = [v for v in args.values.split(",") if v]
        return cmd_sweep(args.config, args.param, values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
