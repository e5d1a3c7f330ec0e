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

Exit codes: 0 success, 1 solver runtime failure (a PARTIAL marker file in
the output directory lists what completed), 2 config error with a message
naming the offending field and line.

The environment variable ``HESSKETCH_SEED`` replaces every seed read from
the config (problem noise, solver sketch, sampled pivot) so CI runs are
reproducible; explicit ``sweep --param seed`` values still take effect.
Reruns with the same config produce byte-identical CSVs: trace timing is
left blank and all randomness is seed-derived.  Output files are written
to a temporary name and renamed into place.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .hessenberg import PivotStrategy
from .linops import save_array
from .problems import (
    gaussian_psf,
    image_from_vector,
    make_deblur,
    make_tomography,
    motion_psf,
    write_image,
)
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

_TOP_KEYS = {"output_dir", "diagnostics"}
_PROBLEM_KEYS = {
    "type",
    "size",
    "grid",
    "angles",
    "psf",
    "psf_sigma",
    "psf_length",
    "psf_angle",
    "noise_level",
    "seed",
}
_SOLVER_KEYS = {
    "name",
    "maxiter",
    "pivot",
    "sample_size",
    "pivot_seed",
    "sketch_rows",
    "lambda",
    "seed",
}


class ConfigError(Exception):
    """Invalid experiment configuration; the message names field and line."""


@dataclass
class SolverSpec:
    """One solver entry from a config file."""

    label: str
    name: str
    maxiter: int = 30
    pivot: str = "full"
    sample_size: Optional[int] = None
    pivot_seed: Optional[int] = None
    sketch_rows: Optional[int] = None
    lam: float = 0.0
    seed: int = 0

    def pivot_strategy(self):
        if self.pivot == "full":
            return PivotStrategy.full()
        seed = self.seed if self.pivot_seed is None else self.pivot_seed
        return PivotStrategy.sampled(self.sample_size, seed=seed)

    def solver_config(self, diagnostics):
        return SolverConfig(
            maxiter=self.maxiter,
            pivot=self.pivot_strategy(),
            sketch_rows=self.sketch_rows,
            lam=self.lam,
            seed=self.seed,
            compute_diagnostics=diagnostics,
        )


@dataclass
class ExperimentConfig:
    """Parsed config: a problem description plus an ordered solver list."""

    problem: dict
    solvers: list
    output_dir: str
    diagnostics: bool = False
    path: str = "<config>"

    @classmethod
    def from_path(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        cfg = parse_config(text, source=str(path))
        if seed_env := os.environ.get("HESSKETCH_SEED"):
            try:
                seed = int(seed_env)
            except ValueError:
                raise ConfigError(
                    f"HESSKETCH_SEED must be an integer, got {seed_env!r}"
                ) from None
            cfg.override_seeds(seed)
        return cfg

    def override_seeds(self, seed):
        self.problem["seed"] = seed
        for spec in self.solvers:
            spec.seed = seed
            spec.pivot_seed = seed


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
    solver_order = []
    output_dir = None
    diagnostics = False
    for key, (raw, lineno) in entries.items():
        where = f"{source}:{lineno}: {key}"
        parts = key.split(".")
        if parts[0] == "problem" and len(parts) == 2:
            name = parts[1]
            if name not in _PROBLEM_KEYS:
                raise ConfigError(f"{where}: unknown problem field")
            kind = {
                "type": str,
                "psf": str,
                "size": int,
                "grid": int,
                "angles": int,
                "seed": int,
            }.get(name, float)
            problem[name] = _parse_scalar(raw, kind, where)
        elif parts[0] == "solver" and len(parts) == 3:
            label, name = parts[1], parts[2]
            if not label.replace("_", "").replace("-", "").isalnum():
                raise ConfigError(f"{where}: solver label must be alphanumeric")
            if name not in _SOLVER_KEYS:
                raise ConfigError(f"{where}: unknown solver field")
            if label not in solver_fields:
                solver_fields[label] = {}
                solver_order.append(label)
            kind = {
                "name": str,
                "pivot": str,
                "lambda": float,
            }.get(name, int)
            solver_fields[label][name] = (_parse_scalar(raw, kind, where), where)
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
    if not solver_order:
        raise ConfigError(f"{source}: no solver.<label>.* entries")

    specs = []
    for label in solver_order:
        fields = {k: v for k, (v, _) in solver_fields[label].items()}
        wheres = {k: w for k, (_, w) in solver_fields[label].items()}
        name = fields.pop("name", label)
        if name not in SOLVERS:
            where = wheres.get("name", f"{source}: solver.{label}.name")
            raise ConfigError(
                f"{where}: unknown solver name {name!r}; "
                f"choose from {sorted(SOLVERS)}"
            )
        if "lambda" in fields:
            fields["lam"] = fields.pop("lambda")
        spec = SolverSpec(label=label, name=name, **fields)
        if spec.pivot not in ("full", "sampled"):
            raise ConfigError(
                f"{wheres['pivot']}: pivot must be 'full' or 'sampled'"
            )
        if spec.pivot == "sampled" and spec.sample_size is None:
            raise ConfigError(
                f"{source}: solver.{label}.sample_size required for "
                "sampled pivoting"
            )
        specs.append(spec)

    cfg = ExperimentConfig(problem, specs, output_dir, diagnostics, source)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    ptype = cfg.problem.get("type")
    if ptype not in ("deblur", "tomography"):
        raise ConfigError(
            f"{cfg.path}: problem.type must be 'deblur' or 'tomography', "
            f"got {ptype!r}"
        )
    required = ("size",) if ptype == "deblur" else ("grid", "angles")
    for key in required:
        if key not in cfg.problem:
            raise ConfigError(f"{cfg.path}: missing required key problem.{key}")
    if ptype == "deblur" and cfg.problem.get("psf", "gaussian") not in (
        "gaussian",
        "motion",
    ):
        raise ConfigError(
            f"{cfg.path}: problem.psf must be 'gaussian' or 'motion'"
        )
    if ptype == "tomography":
        for spec in cfg.solvers:
            if spec.name in SQUARE_ONLY_SOLVERS:
                raise ConfigError(
                    f"{cfg.path}: solver.{spec.label}.name: {spec.name} "
                    "requires a square operator; tomography is rectangular"
                )
    for spec in cfg.solvers:
        if spec.maxiter < 1:
            raise ConfigError(
                f"{cfg.path}: solver.{spec.label}.maxiter must be positive"
            )
        if spec.lam < 0:
            raise ConfigError(
                f"{cfg.path}: solver.{spec.label}.lambda must be nonnegative"
            )


def build_problem(cfg):
    """Construct the Problem described by a parsed config."""
    p = cfg.problem
    try:
        if p["type"] == "deblur":
            if p.get("psf", "gaussian") == "motion":
                kernel = motion_psf(
                    p.get("psf_length", 7.0), p.get("psf_angle", 0.0)
                )
            else:
                kernel = gaussian_psf(p.get("psf_sigma", 1.0))
            return make_deblur(
                p["size"], kernel, p["noise_level"], p["seed"]
            )
        return make_tomography(
            p["grid"], p["angles"], p["noise_level"], p["seed"]
        )
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: invalid problem: {exc}") from exc


def _atomic_bytes(path, data):
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _atomic_text(path, text):
    _atomic_bytes(path, text.encode("utf-8"))


def _write_trace(path, trace):
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    _atomic_text(path, buf.getvalue())


def _write_solution(path, x):
    tmp = f"{path}.tmp"
    save_array(tmp, x)
    os.replace(tmp, path)


def _final_residual(problem, x):
    return float(np.linalg.norm(problem.b - problem.operator.forward(x)))


def _run_all(problem, cfg, specs=None):
    """Run each solver spec; yields (spec, SolveResult).

    Raises RuntimeError wrapped with the solver label on failure so
    callers can flag partial output.
    """
    results = []
    for spec in specs if specs is not None else cfg.solvers:
        solver = SOLVERS[spec.name]
        try:
            result = solver(
                problem.operator,
                problem.b,
                spec.solver_config(cfg.diagnostics),
                x_true=problem.x_true,
            )
        except Exception as exc:
            raise RuntimeError(f"solver {spec.label} failed: {exc}") from exc
        results.append((spec, result))
    return results


def _flag_partial(out_dir, done_labels, error):
    lines = [f"failed: {error}"] + [f"completed: {label}" for label in done_labels]
    _atomic_text(os.path.join(out_dir, "PARTIAL"), "\n".join(lines) + "\n")


def cmd_solve(config_path, diagnostics=False):
    cfg = ExperimentConfig.from_path(config_path)
    if diagnostics:
        cfg.diagnostics = True
    problem = build_problem(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    done = []
    for spec in cfg.solvers:
        try:
            [(_, result)] = _run_all(problem, cfg, [spec])
        except RuntimeError as exc:
            _flag_partial(cfg.output_dir, done, exc)
            print(exc, file=sys.stderr)
            return 1
        base = os.path.join(cfg.output_dir, spec.label)
        _write_trace(f"{base}.trace.csv", result.trace)
        _write_solution(f"{base}.solution.mm", result.x)
        if problem.image_shape is not None:
            img = image_from_vector(result.x, *problem.image_shape)
            tmp = f"{base}.recon.pgm.tmp"
            write_image(img, tmp)
            os.replace(tmp, f"{base}.recon.pgm")
        done.append(spec.label)
    return 0


def _compare_rows(label, trace):
    for rec in trace.records:
        for name in CSV_COLUMNS[1:]:
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


def cmd_compare(config_path, diagnostics=False):
    cfg = ExperimentConfig.from_path(config_path)
    if diagnostics:
        cfg.diagnostics = True
    if len(cfg.solvers) < 2:
        print(
            f"config error: {cfg.path}: compare needs at least two solvers",
            file=sys.stderr,
        )
        return 2
    problem = build_problem(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    try:
        results = _run_all(problem, cfg)
    except RuntimeError as exc:
        _flag_partial(cfg.output_dir, [], exc)
        print(exc, file=sys.stderr)
        return 1
    rows = ["solver,iter,metric,value"]
    summary = []
    for spec, result in results:
        rows.extend(_compare_rows(spec.label, result.trace))
        summary.append(_summary_line(spec.label, problem, result))
    _atomic_text(
        os.path.join(cfg.output_dir, "compare.csv"), "\n".join(rows) + "\n"
    )
    _atomic_text(
        os.path.join(cfg.output_dir, "summary.txt"), "\n".join(summary) + "\n"
    )
    return 0


SWEEP_PARAMS = ("lambda", "seed", "sketch_rows", "sample_size")


def _sweep_values(param, raw_values):
    values = []
    for raw in raw_values:
        if param == "lambda":
            values.append(float(raw))
        elif param == "sample_size":
            values.append("full" if raw == "full" else int(raw))
        else:
            values.append(int(raw))
    return values


def _apply_sweep(spec, param, value):
    """Return the spec with the swept parameter applied, or None if the
    parameter does not apply to this solver."""
    if param == "lambda":
        return replace(spec, lam=value)
    if param == "seed":
        return replace(spec, seed=value, pivot_seed=value)
    if param == "sketch_rows":
        if spec.name not in SKETCHED_SOLVERS:
            return None
        return replace(spec, sketch_rows=value)
    if spec.name not in PIVOTED_SOLVERS:
        return None
    if value == "full":
        return replace(spec, pivot="full")
    return replace(spec, pivot="sampled", sample_size=value)


def cmd_sweep(config_path, param, values, diagnostics=False):
    cfg = ExperimentConfig.from_path(config_path)
    if diagnostics:
        cfg.diagnostics = True
    if param not in SWEEP_PARAMS:
        print(
            f"config error: sweep parameter must be one of {SWEEP_PARAMS}",
            file=sys.stderr,
        )
        return 2
    try:
        parsed = _sweep_values(param, values)
    except ValueError as exc:
        print(f"config error: bad sweep value: {exc}", file=sys.stderr)
        return 2
    if not parsed:
        print("config error: empty sweep value list", file=sys.stderr)
        return 2
    if all(
        _apply_sweep(spec, param, parsed[0]) is None for spec in cfg.solvers
    ):
        print(
            f"config error: {param} applies to none of the listed solvers",
            file=sys.stderr,
        )
        return 2
    problem = build_problem(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    agg = ["solver,value,min_rel_err,final_res"]
    finals = {}
    min_errs = {}
    for value in parsed:
        swept = [
            swept_spec
            for spec in cfg.solvers
            if (swept_spec := _apply_sweep(spec, param, value)) is not None
        ]
        try:
            results = _run_all(problem, cfg, swept)
        except RuntimeError as exc:
            _flag_partial(cfg.output_dir, [], exc)
            print(exc, file=sys.stderr)
            return 1
        for spec, result in results:
            stem = f"{spec.label}.{param}.{value}"
            _write_trace(
                os.path.join(cfg.output_dir, f"{stem}.trace.csv"), result.trace
            )
            best = min(r.rel_err for r in result.trace.records)
            final = _final_residual(problem, result.x)
            agg.append(f"{spec.label},{value},{_cell(best)},{_cell(final)}")
            finals.setdefault(spec.label, []).append(final)
            min_errs.setdefault(spec.label, []).append(best)
    summary = []
    for label, vals in finals.items():
        summary.append(
            f"{label}: runs={len(vals)} "
            f"final_res_mean={np.mean(vals):.6e} "
            f"final_res_std={np.std(vals):.6e} "
            f"min_rel_err_mean={np.mean(min_errs[label]):.6e}"
        )
    _atomic_text(
        os.path.join(cfg.output_dir, "sweep.csv"), "\n".join(agg) + "\n"
    )
    _atomic_text(
        os.path.join(cfg.output_dir, "sweep_summary.txt"),
        "\n".join(summary) + "\n",
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hessketch",
        description="Run solver experiments described by a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "compare", "sweep"):
        cmd = sub.add_parser(name)
        cmd.add_argument("config")
        cmd.add_argument(
            "--diagnostics",
            action="store_true",
            help="record exact residuals and conditioning each iteration",
        )
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
            return cmd_solve(args.config, args.diagnostics)
        if args.command == "compare":
            return cmd_compare(args.config, args.diagnostics)
        values = [v for v in args.values.split(",") if v]
        return cmd_sweep(args.config, args.param, values, args.diagnostics)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
