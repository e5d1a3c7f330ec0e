import tracemalloc
import weakref

import numpy as np
import pytest

from hessketch import cli
from hessketch.linops import LinearOperator
from hessketch.problems import Problem
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
        recon = (out / f"{label}.recon.pgm").read_bytes()
        header = b"P5\n16 16\n65535\n"
        assert recon.startswith(header) and len(recon) == len(header) + 2 * 16 * 16
    assert not list(out.glob("*.tmp"))
    assert not (out / "PARTIAL").exists()


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    # the image writer dies half-way through its file: the run fails with
    # exit code 1, and neither the .tmp file nor a recon is left behind
    def failing_write_image(img, path):
        with open(path, "wb") as f:
            f.write(b"P5\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_image", failing_write_image)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, deblur_cfg(out, "solver.cmrh.maxiter = 3\n"))
    assert cli.main(["solve", cfg]) == 1
    assert capsys.readouterr().err == "output of cmrh failed: disk full\n"
    assert (out / "PARTIAL").read_text() == "failed: output of cmrh failed: disk full\n"
    assert (out / "cmrh.trace.csv").exists()
    assert not list(out.glob("*.tmp")) and not (out / "cmrh.recon.pgm").exists()


def test_output_dir_under_a_regular_file_exits_one_in_one_line(tmp_path, capsys):
    # the directory cannot be made, so there is nowhere to put a PARTIAL
    (tmp_path / "taken").write_text("a file\n")
    out = tmp_path / "taken" / "out"
    cfg = write_cfg(tmp_path, deblur_cfg(out, "solver.cmrh.maxiter = 3\n"))
    assert cli.main(["solve", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot make output_dir: ") and err.count("\n") == 1
    assert "Not a directory" in err and str(out) in err
    assert (tmp_path / "taken").read_text() == "a file\n"


def test_directory_at_an_output_name_exits_one_and_flags_partial(tmp_path, capsys):
    # the rename onto the directory fails: its .tmp file goes, and the
    # PARTIAL lists the run that completed before it
    out = tmp_path / "out"
    (out / "cmrh.trace.csv").mkdir(parents=True)
    solvers = "solver.gmres.maxiter = 3\nsolver.cmrh.maxiter = 3\n"
    cfg = write_cfg(tmp_path, deblur_cfg(out, solvers))
    assert cli.main(["solve", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output of cmrh failed: ") and err.count("\n") == 1
    assert "Is a directory" in err and str(out / "cmrh.trace.csv") in err
    lines = (out / "PARTIAL").read_text().splitlines()
    assert lines == [f"failed: {err.strip()}", "completed: gmres"]
    assert not list(out.glob("*.tmp")) and (out / "cmrh.trace.csv").is_dir()
    assert (out / "gmres.solution.mm").exists()


def test_directory_at_compare_csv_exits_one_after_every_run(tmp_path, capsys):
    # compare.csv needs every run, so each is listed as completed
    out = tmp_path / "out"
    (out / "compare.csv").mkdir(parents=True)
    solvers = "solver.gmres.maxiter = 3\nsolver.cmrh.maxiter = 3\n"
    cfg = write_cfg(tmp_path, deblur_cfg(out, solvers))
    assert cli.main(["compare", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output failed: ") and str(out / "compare.csv") in err
    lines = (out / "PARTIAL").read_text().splitlines()
    assert lines == [f"failed: {err.strip()}", "completed: gmres", "completed: cmrh"]
    assert not list(out.glob("*.tmp")) and not (out / "summary.txt").exists()


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


def test_solve_diagnostics_flag_populates_residuals(tmp_path, capsys):
    # the config key is the one switch: there is no command-line option
    out = tmp_path / "out"
    body = deblur_cfg(out, "solver.cmrh.maxiter = 3\n", extra="diagnostics = true\n")
    cfg = write_cfg(tmp_path, body)
    with pytest.raises(SystemExit) as usage:
        cli.main(["solve", cfg, "--diagnostics"])
    assert usage.value.code == 2 and not out.exists()
    assert "unrecognized arguments: --diagnostics" in capsys.readouterr().err
    assert cli.main(["solve", cfg]) == 0
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


@pytest.mark.parametrize(
    "args",
    [["solve"], ["compare"], ["sweep", "--param", "lambda", "--values", "0,0.5"]],
    ids=["solve", "compare", "sweep"],
)
def test_successful_rerun_removes_a_stale_partial(tmp_path, args):
    out = tmp_path / "out"
    solvers = "solver.lslu.maxiter = 3\nsolver.slslu.maxiter = 3\n"
    failing = write_cfg(
        tmp_path, tomo_cfg(out, solvers + "solver.slslu.sketch_rows = 2\n"), "a.cfg"
    )
    passing = write_cfg(tmp_path, tomo_cfg(out, solvers), "b.cfg")
    assert cli.main([args[0], failing, *args[1:]]) == 1
    assert (out / "PARTIAL").exists()
    assert cli.main([args[0], passing, *args[1:]]) == 0
    assert not (out / "PARTIAL").exists()


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


@pytest.mark.parametrize(
    "lines, names",
    [
        ("solver.s.sketch_rows = 0\n", ["solver.s:", "sketch_rows"]),
        ("solver.s.pivot = sampled\nsolver.s.sample_size = 0\n",
         ["solver.s:", "sample_size"]),
        ("solver.s.pivot = bogus\n", ["solver.s:", "pivot kind 'bogus'"]),
        ("solver.s.maxiter = 0\n", ["solver.s:", "maxiter"]),
        ("solver.s.lambda = -1\n", ["solver.s:", "lam must"]),
        ("solver.s.seed = -5\n", ["solver.s:", "seed must", "-5"]),
        ("solver.s.pivot_seed = -1\n", ["solver.s:", "pivot seed", "-1"]),
        ("solver.s.lambda = nan\n", ["solver.s:", "lam must be finite"]),
        ("solver.s.lambda = inf\n", ["solver.s:", "lam must be finite"]),
    ],
)
def test_invalid_solver_value_exits_two_before_any_output(tmp_path, capsys, lines, names):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, tomo_cfg(out, "solver.s.name = slslu\n" + lines))
    assert cli.main(["solve", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert all(name in err for name in names), err
    assert not out.exists()


@pytest.mark.parametrize(
    "psf, key, value, name",
    [
        ("gaussian", "psf_sigma", "inf", "sigma must be finite"),
        ("gaussian", "psf_sigma", "nan", "sigma must be finite"),
        ("motion", "psf_length", "inf", "length must be finite"),
        ("motion", "psf_length", "nan", "length must be finite"),
        ("gaussian", "noise_level", "nan", "noise level must be finite"),
        ("gaussian", "noise_level", "inf", "noise level must be finite"),
    ],
)
def test_non_finite_problem_value_exits_two_before_any_output(
    tmp_path, capsys, psf, key, value, name
):
    out = tmp_path / "out"
    body = (
        f"problem.type = deblur\nproblem.size = 16\nproblem.psf = {psf}\n"
        f"problem.{key} = {value}\noutput_dir = {out}\nsolver.cmrh.maxiter = 3\n"
    )
    cfg = write_cfg(tmp_path, body)
    assert cli.main(["solve", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"invalid problem: {name}" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, key, owner",
    [
        ("problem.type = deblur\nproblem.size = 16\nproblem.grid = 12\n",
         "problem.grid", "problem.type = deblur with problem.psf = gaussian"),
        ("problem.type = deblur\nproblem.size = 16\nproblem.angles = 8\n",
         "problem.angles", "problem.type = deblur"),
        ("problem.type = deblur\nproblem.size = 16\nproblem.psf_length = 7\n",
         "problem.psf_length", "problem.psf = gaussian"),
        ("problem.type = deblur\nproblem.size = 16\nproblem.psf = motion\n"
         "problem.psf_sigma = 2\n", "problem.psf_sigma", "problem.psf = motion"),
        ("problem.type = tomography\nproblem.grid = 12\nproblem.angles = 8\n"
         "problem.size = 16\n", "problem.size", "problem.type = tomography"),
        ("problem.type = tomography\nproblem.grid = 12\nproblem.angles = 8\n"
         "problem.psf = motion\n", "problem.psf", "problem.type = tomography"),
    ],
    ids=["grid", "angles", "psf_length", "psf_sigma", "size", "psf"],
)
def test_problem_key_of_another_type_exits_two_before_any_output(
    tmp_path, capsys, body, key, owner
):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"{body}output_dir = {out}\nsolver.lslu.maxiter = 3\n")
    assert cli.main(["solve", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{key} does not apply to " in err and owner in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "psf, key, value",
    [("gaussian", "psf_sigma", "300"), ("motion", "psf_length", "3000")],
)
def test_psf_that_cannot_fit_exits_two_before_building_it(
    tmp_path, capsys, psf, key, value
):
    # the rejected kernel would be 1801^2 or 3001^2 doubles (26 or 72 MB)
    out = tmp_path / "out"
    body = (
        f"problem.type = deblur\nproblem.size = 16\nproblem.psf = {psf}\n"
        f"problem.{key} = {value}\noutput_dir = {out}\nsolver.cmrh.maxiter = 3\n"
    )
    cfg = write_cfg(tmp_path, body)
    tracemalloc.start()
    try:
        code = cli.main(["solve", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid problem: psf support must be smaller than the image" in err, err
    assert not out.exists()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize(
    "param, values, names",
    [
        ("lambda", "0,-1", ["sweep lambda=-1.0", "solver.slslu:", "lam must"]),
        ("sketch_rows", "60,0",
         ["sweep sketch_rows=0", "solver.slslu:", "sketch_rows must"]),
        ("sample_size", "0", ["sweep sample_size=0", "solver.slslu:", "sample_size"]),
        ("seed", "-3", ["sweep seed=-3", "solver.slslu:", "seed must"]),
        # one value twice after parsing: one stem, so one run
        ("lambda", "0.5,0.50,1", ["lambda=0.5 is listed twice"]),
        ("seed", "1,2,01", ["seed=1 is listed twice"]),
        ("sample_size", "full,3,full", ["sample_size=full is listed twice"]),
    ],
)
def test_invalid_sweep_value_exits_two_before_any_output(
    tmp_path, capsys, param, values, names
):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, tomo_cfg(out, "solver.slslu.maxiter = 3\n"))
    assert cli.main(["sweep", cfg, "--param", param, "--values", values]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, completed",
    [
        (["compare"], ["lsqr", "lslu"]),
        (["sweep", "--param", "seed", "--values", "1,2"],
         ["lsqr.seed.1", "lslu.seed.1"]),
    ],
)
def test_partial_lists_completed_runs(tmp_path, capsys, args, completed):
    out = tmp_path / "out"
    solvers = (
        "solver.lsqr.maxiter = 3\n"
        "solver.lslu.maxiter = 3\n"
        "solver.slslu.maxiter = 6\n"
        "solver.slslu.sketch_rows = 4\n"  # fewer rows than iterations
    )
    cfg = write_cfg(tmp_path, tomo_cfg(out, solvers))
    assert cli.main([args[0], cfg, *args[1:]]) == 1
    assert "solver slslu failed" in capsys.readouterr().err
    lines = (out / "PARTIAL").read_text().splitlines()
    assert lines[0].startswith("failed: solver slslu failed: sketch_rows=4")
    assert lines[1:] == [f"completed: {stem}" for stem in completed]
    written = sorted(path.name for path in out.iterdir())
    if args[0] == "sweep":
        # the traces of the runs before the failure are already written
        traces = [f"{stem}.trace.csv" for stem in sorted(completed)]
        assert written == ["PARTIAL"] + traces
    else:
        assert written == ["PARTIAL"]


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


def test_compare_rerun_is_byte_identical(tmp_path):
    solvers = (
        "solver.lsqr.maxiter = 4\n"
        "solver.slslu.maxiter = 4\n"
        "solver.slslu.pivot = sampled\n"
        "solver.slslu.sample_size = 5\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    extra = "diagnostics = true\n"
    cfg1 = write_cfg(tmp_path, tomo_cfg(out1, solvers, extra=extra), "a.cfg")
    cfg2 = write_cfg(tmp_path, tomo_cfg(out2, solvers, extra=extra), "b.cfg")
    assert cli.main(["compare", cfg1]) == 0
    assert cli.main(["compare", cfg2]) == 0
    for name in ("compare.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert ",wall_ms," not in (out1 / "compare.csv").read_text()


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


@pytest.mark.parametrize(
    "args",
    [["solve"], ["compare"], ["sweep", "--param", "seed", "--values", "1,2"]],
    ids=["solve", "compare", "sweep"],
)
def test_each_result_is_released_before_the_next_solve(tmp_path, monkeypatch, args):
    # a result holds its solve's bases, so no solve may run beside the last one
    results, starts = [], []

    def releasing(solve):
        def call(A, b, cfg, x_true=None):
            starts.append([ref() is None for ref in results])
            result = solve(A, b, cfg, x_true=x_true)
            results.append(weakref.ref(result))
            return result

        return call

    for name, solve in list(cli.SOLVERS.items()):
        monkeypatch.setitem(cli.SOLVERS, name, releasing(solve))
    out = tmp_path / "out"
    solvers = "solver.cmrh.maxiter = 3\nsolver.scmrh.maxiter = 3\n"
    cfg = write_cfg(tmp_path, deblur_cfg(out, solvers))
    assert cli.main([args[0], cfg, *args[1:]]) == 0
    assert len(starts) == (4 if args[0] == "sweep" else 2)
    assert all(all(released) for released in starts)


def test_output_is_written_without_the_bases(tmp_path, monkeypatch):
    # cmrh and lslu on a 256 x 256 image: each solve's bases are 11 of its
    # 65,536-vectors (22 for lslu), and writing needs only x and the trace.
    # When writing starts, the process holds what it held before the solve
    # plus x and 64 KiB, so no basis; and it peaks no higher while writing
    # than during the solve
    marks, xs = [], []

    def mark(name):
        # (name, memory in use, peak since the last mark)
        marks.append((name, *tracemalloc.get_traced_memory()))
        tracemalloc.reset_peak()

    def measured(solve):
        def call(A, b, cfg, x_true=None):
            mark("start")
            result = solve(A, b, cfg, x_true=x_true)
            mark("solve")
            xs.append(result.x.nbytes)
            return result

        return call

    trace_to_csv = cli.trace_to_csv

    def writing(trace, target):
        mark("write")
        return trace_to_csv(trace, target)

    for name in ("cmrh", "lslu"):
        monkeypatch.setitem(cli.SOLVERS, name, measured(cli.SOLVERS[name]))
    monkeypatch.setattr(cli, "trace_to_csv", writing)
    out = tmp_path / "out"
    solvers = "solver.cmrh.maxiter = 10\nsolver.lslu.maxiter = 10\n"
    cfg = write_cfg(tmp_path, deblur_cfg(out, solvers, size=256))
    tracemalloc.start()
    try:
        assert cli.main(["solve", cfg]) == 0
        mark("end")
    finally:
        tracemalloc.stop()
    names = [name for name, _, _ in marks]
    assert names == ["start", "solve", "write"] * 2 + ["end"], names
    for i, x in zip((0, 3), xs):
        (_, before, _), (_, _, solve_peak), (_, writing_starts, _) = marks[i : i + 3]
        # the next mark reads the peak since writing started
        write_peak = marks[i + 3][2]
        assert writing_starts <= before + x + (64 << 10), (i, writing_starts - before)
        assert write_peak <= solve_peak, (i, write_peak, solve_peak)


def test_summary_line_of_trivial_solve_reports_iteration_zero():
    problem = Problem(LinearOperator.identity(4), np.zeros(4), x_true=np.ones(4))
    result = cmrh(problem.operator, problem.b, x_true=problem.x_true)
    line = cli._summary_line("cmrh", problem, result)
    assert line == (
        "cmrh: min_rel_err=1.000000e+00 at_iter=0 final_res=0.000000e+00 "
        "matvecs=0 tmatvecs=0 dots=0 sketches=0"
    )
