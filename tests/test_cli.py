import numpy as np
import pytest

from hessketch import cli
from hessketch.linops import LinearOperator
from hessketch.problems import Problem, read_image
from hessketch.solvers import CSV_COLUMNS, cmrh


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def deblur_cfg(out_dir, solvers, size=16, noise=0.01, extra=""):
    return (
        f"problem.type = deblur\n"
        f"problem.size = {size}\n"
        f"problem.psf = gaussian\n"
        f"problem.psf_sigma = 1.0\n"
        f"problem.noise_level = {noise}\n"
        f"problem.seed = 0\n"
        f"output_dir = {out_dir}\n"
        f"{extra}"
        f"{solvers}"
    )


def tomo_cfg(out_dir, solvers, grid=12, angles=6, extra=""):
    return (
        f"problem.type = tomography\n"
        f"problem.grid = {grid}\n"
        f"problem.angles = {angles}\n"
        f"problem.noise_level = 0.01\n"
        f"problem.seed = 0\n"
        f"output_dir = {out_dir}\n"
        f"{extra}"
        f"{solvers}"
    )


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_trace_solution_and_recon(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        deblur_cfg(out, "solver.gmres.maxiter = 4\nsolver.cmrh.maxiter = 4\n"),
    )
    assert cli.main(["solve", cfg]) == 0
    for label in ("gmres", "cmrh"):
        lines = (out / f"{label}.trace.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5
        assert (out / f"{label}.solution.mm").exists()
        img = read_image(out / f"{label}.recon.pgm")
        assert (img.height, img.width) == (16, 16)
    assert not list(out.glob("*.tmp"))
    assert not (out / "PARTIAL").exists()


def test_solve_default_maxiter_thirty_rows(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path, deblur_cfg(out, "solver.gmres.seed = 0\n", size=32)
    )
    assert cli.main(["solve", cfg]) == 0
    lines = (out / "gmres.trace.csv").read_text().strip().split("\n")
    assert len(lines) == 31


def test_solve_rerun_is_byte_identical(tmp_path):
    solvers = (
        "solver.slslu.maxiter = 4\n"
        "solver.slslu.seed = 3\n"
        "solver.slslu.pivot = sampled\n"
        "solver.slslu.sample_size = 5\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_cfg(tmp_path, tomo_cfg(out1, solvers), "a.cfg")
    cfg2 = write_cfg(tmp_path, tomo_cfg(out2, solvers), "b.cfg")
    assert cli.main(["solve", cfg1]) == 0
    assert cli.main(["solve", cfg2]) == 0
    assert (out1 / "slslu.trace.csv").read_bytes() == (
        out2 / "slslu.trace.csv"
    ).read_bytes()
    assert (out1 / "slslu.solution.mm").read_bytes() == (
        out2 / "slslu.solution.mm"
    ).read_bytes()


def test_solve_diagnostics_flag_populates_residuals(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, deblur_cfg(out, "solver.cmrh.maxiter = 3\n"))
    assert cli.main(["solve", cfg, "--diagnostics"]) == 0
    rows = (out / "cmrh.trace.csv").read_text().strip().split("\n")[1:]
    res_col = CSV_COLUMNS.index("res_norm")
    assert all(row.split(",")[res_col] != "" for row in rows)


def test_solve_runtime_failure_exits_one_and_flags_partial(tmp_path, capsys):
    out = tmp_path / "out"
    solvers = (
        "solver.lslu.maxiter = 3\n"
        "solver.slslu.maxiter = 6\n"
        "solver.slslu.sketch_rows = 4\n"  # fewer rows than iterations
    )
    cfg = write_cfg(tmp_path, tomo_cfg(out, solvers))
    assert cli.main(["solve", cfg]) == 1
    assert "slslu" in capsys.readouterr().err
    marker = (out / "PARTIAL").read_text()
    assert "completed: lslu" in marker
    assert (out / "lslu.trace.csv").exists()


def test_env_seed_override_unifies_runs(tmp_path, monkeypatch):
    solvers = (
        "solver.a.name = slslu\n"
        "solver.a.seed = 1\n"
        "solver.b.name = slslu\n"
        "solver.b.seed = 2\n"
    )
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, tomo_cfg(out, solvers))
    monkeypatch.setenv("HESSKETCH_SEED", "9")
    assert cli.main(["solve", cfg]) == 0
    assert (out / "a.trace.csv").read_bytes() == (out / "b.trace.csv").read_bytes()


# ---------------------------------------------------------------------------
# config errors


def test_unknown_solver_name_names_the_field(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, deblur_cfg(tmp_path / "o", "solver.foo.maxiter = 3\n")
    )
    assert cli.main(["solve", cfg]) == 2
    assert "solver.foo.name" in capsys.readouterr().err


def test_unknown_field_reports_line_number(tmp_path, capsys):
    body = deblur_cfg(tmp_path / "o", "solver.gmres.maxiter = 3\n")
    body += "problem.sizee = 16\n"
    cfg = write_cfg(tmp_path, body)
    n_lines = len(body.strip().split("\n"))
    assert cli.main(["solve", cfg]) == 2
    assert f":{n_lines}:" in capsys.readouterr().err


def test_square_only_solver_rejected_on_tomography(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tomo_cfg(tmp_path / "o", "solver.gmres.seed = 0\n"))
    assert cli.main(["solve", cfg]) == 2
    assert "square" in capsys.readouterr().err


def test_malformed_lines_rejected(tmp_path, capsys):
    for body in (
        "problem.type deblur\n",  # missing equals
        "problem.type = deblur\nproblem.type = deblur\n",  # duplicate
        "diagnostics = maybe\nproblem.type = deblur\n",  # bad bool
    ):
        cfg = write_cfg(tmp_path, body)
        assert cli.main(["solve", cfg]) == 2


def test_missing_required_keys_rejected(tmp_path, capsys):
    no_type = "output_dir = o\nsolver.gmres.maxiter = 3\n"
    assert cli.main(["solve", write_cfg(tmp_path, no_type)]) == 2
    no_solver = "problem.type = deblur\nproblem.size = 16\noutput_dir = o\n"
    assert cli.main(["solve", write_cfg(tmp_path, no_solver)]) == 2
    assert cli.main(["solve", str(tmp_path / "missing.cfg")]) == 2


def test_sampled_pivot_requires_sample_size(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        deblur_cfg(
            tmp_path / "o",
            "solver.cmrh.maxiter = 3\nsolver.cmrh.pivot = sampled\n",
        ),
    )
    assert cli.main(["solve", cfg]) == 2
    assert "sample_size" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare


def test_compare_writes_long_csv_and_summary(tmp_path):
    out = tmp_path / "out"
    solvers = (
        "solver.lsqr.maxiter = 4\n"
        "solver.lslu.maxiter = 4\n"
        "solver.slslu.maxiter = 4\n"
    )
    cfg = write_cfg(tmp_path, tomo_cfg(out, solvers))
    assert cli.main(["compare", cfg]) == 0
    lines = (out / "compare.csv").read_text().strip().split("\n")
    assert lines[0] == "solver,iter,metric,value"
    solvers_seen = {line.split(",")[0] for line in lines[1:]}
    assert solvers_seen == {"lsqr", "lslu", "slslu"}
    assert any(line.split(",")[2] == "proj_obj" for line in lines[1:])
    summary = (out / "summary.txt").read_text().strip().split("\n")
    assert len(summary) == 3
    assert all("min_rel_err=" in line and "at_iter=" in line for line in summary)


def test_compare_single_solver_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tomo_cfg(tmp_path / "o", "solver.lsqr.maxiter = 3\n"))
    assert cli.main(["compare", cfg]) == 2
    assert "two solvers" in capsys.readouterr().err


def test_compare_same_solver_two_labels(tmp_path):
    out = tmp_path / "out"
    solvers = (
        "solver.s1.name = slslu\n"
        "solver.s1.maxiter = 3\n"
        "solver.s1.seed = 1\n"
        "solver.s2.name = slslu\n"
        "solver.s2.maxiter = 3\n"
        "solver.s2.seed = 2\n"
    )
    cfg = write_cfg(tmp_path, tomo_cfg(out, solvers))
    assert cli.main(["compare", cfg]) == 0
    lines = (out / "compare.csv").read_text().strip().split("\n")[1:]
    seen = {line.split(",")[0] for line in lines}
    assert seen == {"s1", "s2"}


# ---------------------------------------------------------------------------
# sweep


def test_sweep_lambda_zero_matches_unregularized_solve(tmp_path):
    solvers = "solver.lslu.maxiter = 4\n"
    out_solve, out_sweep = tmp_path / "a", tmp_path / "b"
    cfg_solve = write_cfg(tmp_path, tomo_cfg(out_solve, solvers), "a.cfg")
    cfg_sweep = write_cfg(tmp_path, tomo_cfg(out_sweep, solvers), "b.cfg")
    assert cli.main(["solve", cfg_solve]) == 0
    assert cli.main(["sweep", cfg_sweep, "--param", "lambda", "--values", "0"]) == 0
    assert (out_solve / "lslu.trace.csv").read_bytes() == (
        out_sweep / "lslu.lambda.0.0.trace.csv"
    ).read_bytes()


def test_sweep_sample_size_full_matches_full_pivot(tmp_path):
    solvers = "solver.lslu.maxiter = 4\n"
    out_solve, out_sweep = tmp_path / "a", tmp_path / "b"
    cfg_solve = write_cfg(tmp_path, tomo_cfg(out_solve, solvers), "a.cfg")
    cfg_sweep = write_cfg(tmp_path, tomo_cfg(out_sweep, solvers), "b.cfg")
    assert cli.main(["solve", cfg_solve]) == 0
    code = cli.main(
        ["sweep", cfg_sweep, "--param", "sample_size", "--values", "3,full"]
    )
    assert code == 0
    assert (out_solve / "lslu.trace.csv").read_bytes() == (
        out_sweep / "lslu.sample_size.full.trace.csv"
    ).read_bytes()
    assert (out_sweep / "lslu.sample_size.3.trace.csv").exists()


def test_sweep_seed_aggregates_statistics(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, tomo_cfg(out, "solver.slslu.maxiter = 3\n"))
    code = cli.main(["sweep", cfg, "--param", "seed", "--values", "1,2,3"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "solver,value,min_rel_err,final_res"
    assert len(rows) == 4
    summary = (out / "sweep_summary.txt").read_text()
    assert "final_res_mean=" in summary and "final_res_std=" in summary


def test_sweep_rejects_empty_values_and_bad_param(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tomo_cfg(tmp_path / "o", "solver.lslu.maxiter = 3\n"))
    assert cli.main(["sweep", cfg, "--param", "lambda", "--values", ","]) == 2
    assert cli.main(["sweep", cfg, "--param", "psf", "--values", "1"]) == 2


def test_sweep_param_must_apply_to_some_solver(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tomo_cfg(tmp_path / "o", "solver.lsqr.maxiter = 3\n"))
    code = cli.main(["sweep", cfg, "--param", "sketch_rows", "--values", "50"])
    assert code == 2
    assert "applies to none" in capsys.readouterr().err


def test_sweep_sketch_rows_only_touches_sketched_solvers(tmp_path):
    out = tmp_path / "out"
    solvers = "solver.lslu.maxiter = 3\nsolver.slslu.maxiter = 3\n"
    cfg = write_cfg(tmp_path, tomo_cfg(out, solvers))
    code = cli.main(["sweep", cfg, "--param", "sketch_rows", "--values", "60,80"])
    assert code == 0
    assert (out / "slslu.sketch_rows.60.trace.csv").exists()
    assert not (out / "lslu.sketch_rows.60.trace.csv").exists()


def test_summary_line_of_trivial_solve_reports_iteration_zero():
    problem = Problem(LinearOperator.identity(4), np.zeros(4), x_true=np.ones(4))
    result = cmrh(problem.operator, problem.b, x_true=problem.x_true)
    line = cli._summary_line("cmrh", problem, result)
    assert line == (
        "cmrh: min_rel_err=1.000000e+00 at_iter=0 final_res=0.000000e+00 "
        "matvecs=0 tmatvecs=0 dots=0 sketches=0"
    )
