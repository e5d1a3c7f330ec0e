"""tools/replay.py: a tree replayed against itself, and how a miss is shown."""

import importlib.util
import io
import pathlib

import numpy as np

from hessketch.linops import save_array

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tool():
    path = ROOT / "tools" / "replay.py"
    spec = importlib.util.spec_from_file_location("replay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_replayed_against_itself_is_byte_identical(tmp_path):
    replay = load_tool()
    out = io.StringIO()
    misses = replay.replay(str(ROOT), str(ROOT), "smoke", str(tmp_path / "work"), out)
    report = out.getvalue()
    assert misses == 0, report
    fields = [line.split()[0] for line in report.splitlines() if line.startswith("  ")]
    expected = {
        "x", "rel_err", "matvecs", "H.mm", "pivots_t.mm", "rank_fallback", "trace.csv"
    }
    assert expected | {"exit_code"} <= set(fields), report
    assert "error" not in fields, report
    assert report.count("byte-identical") == len(fields), report


def test_a_difference_beyond_the_gate_is_printed_as_a_miss(tmp_path):
    replay = load_tool()
    trace = "iter,rel_err,eps_embed,matvecs\n1,{},{},2\n"
    for side, rel_err, eps in (("old", "0.5", "0.25"), ("new", "0.5000000001", "0.25")):
        case = tmp_path / side / "lib" / "random-cmrh"
        case.mkdir(parents=True)
        (case / "trace.csv").write_text(trace.format(rel_err, eps))
    (tmp_path / "old" / "lib" / "random-cmrh" / "termination").write_text("maxiter\n")
    out = io.StringIO()
    groups = replay.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    assert replay.report(groups, out) == 2
    lines = {line.split()[0]: line for line in out.getvalue().splitlines()[1:]}
    assert "MISS 1 of 1 differ, worst 2.00e-10 at random-cmrh" in lines["rel_err"]
    assert "MISS" in lines["files"] and "termination only in OLD" in lines["files"]
    assert "byte-identical" in lines["eps_embed"]
    assert "byte-identical" in lines["matvecs"]


def test_a_column_only_one_side_writes_is_a_miss_naming_the_side(tmp_path):
    replay = load_tool()
    # a column the new tree no longer writes, and one it adds
    traces = {
        "old": "iter,matvecs,dropped\n1,2,\n2,3,\n",
        "new": "iter,matvecs,rank_fallback\n1,2,0\n2,3,1\n",
    }
    for side, trace in traces.items():
        case = tmp_path / side / "lib" / "rank3-scmrh"
        case.mkdir(parents=True)
        (case / "trace.csv").write_text(trace)
    out = io.StringIO()
    groups = replay.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    assert replay.report(groups, out) == 2
    lines = {line.split()[0]: line for line in out.getvalue().splitlines()[1:]}
    assert lines["dropped"].endswith("MISS 1 of 1 differ, worst inf at "
                                     "rank3-scmrh: dropped only in OLD")
    assert lines["rank_fallback"].endswith("MISS 1 of 1 differ, worst inf at "
                                           "rank3-scmrh: rank_fallback only in NEW")
    assert "byte-identical" in lines["matvecs"]


def write_trace_case(root, case, res_norms, b_norm):
    # one library case: a trace with a residual column, and its ||b||
    path = root / "lib" / case
    path.mkdir(parents=True)
    rows = "".join(f"{k},{r!r},{r!r}\n" for k, r in enumerate(res_norms, start=1))
    (path / "trace.csv").write_text("iter,res_norm,proj_obj\n" + rows)
    (path / "b_norm").write_text(f"{b_norm!r}\n")


def test_rounding_noise_around_an_exact_zero_is_compared_to_b(tmp_path):
    replay = load_tool()
    b_norm = 5.2
    noise = 1e-15 * b_norm
    write_trace_case(tmp_path / "old", "identity-cmrh", [0.0, noise], b_norm)
    write_trace_case(tmp_path / "new", "identity-cmrh", [noise, 0.3 * noise], b_norm)
    out = io.StringIO()
    groups = replay.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    assert replay.report(groups, out) == 0, out.getvalue()
    fields = groups["library, rank-deficient problems"]
    assert fields["res_norm"].worst == fields["proj_obj"].worst == 1e-15


def test_a_residual_above_rounding_level_keeps_its_own_scale(tmp_path):
    replay = load_tool()
    b_norm = 5.2
    old = [1e-6 * b_norm, 1e-7 * b_norm]
    write_trace_case(tmp_path / "old", "random-cmrh", old, b_norm)
    new = [old[0] * (1 + 1e-12), old[1]]
    write_trace_case(tmp_path / "new", "random-cmrh", new, b_norm)
    out = io.StringIO()
    groups = replay.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    replay.report(groups, out)
    lines = {line.split()[0]: line for line in out.getvalue().splitlines()[1:]}
    assert "MISS 1 of 1 differ" in lines["res_norm"]
    for name in ("res_norm", "proj_obj"):
        worst = groups["library, full-rank problems"][name].worst
        assert abs(worst - 1e-12) < 1e-14, (name, worst)


def test_reference_cases_are_reported_in_their_own_groups(tmp_path):
    replay = load_tool()
    for side in ("old", "new"):
        write_trace_case(tmp_path / side, "random-gmres-lam0.0", [1e-3], 5.2)
        write_trace_case(tmp_path / side, "rank3-lsqr-lam0.5", [1e-3], 5.2)
        write_trace_case(tmp_path / side, "random-cmrh-lam0.0", [1e-3], 5.2)
    groups = replay.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    assert sorted(groups) == [
        "library, full-rank problems",
        "library, full-rank problems (gmres, lsqr)",
        "library, rank-deficient problems (gmres, lsqr)",
    ]
    assert groups["library, full-rank problems (gmres, lsqr)"]["res_norm"].cases == 1


def test_a_pivot_order_miss_names_its_first_differing_position(tmp_path):
    replay = load_tool()
    order = np.arange(30)
    # the worst value and the earliest difference come from different cases;
    # the worst is 8 / 29, scaled by the largest entry, not the size line's 30
    swaps = {
        "rect-lslu-lam0.0-diag0-full": [18, 19],
        "rect-slslu-lam0.5-sketch": [21, 29],
    }
    for case, swap in swaps.items():
        for side, new in (("old", False), ("new", True)):
            path = tmp_path / side / "lib" / case
            path.mkdir(parents=True)
            t = order.copy()
            if new:
                t[swap] = t[swap[::-1]]
            save_array(path / "pivots_t.mm", t)
            save_array(path / "pivots_g.mm", order[:18])
    out = io.StringIO()
    groups = replay.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    assert replay.report(groups, out) == 1
    lines = {line.split()[0]: line for line in out.getvalue().splitlines()[1:]}
    assert lines["pivots_t.mm"].endswith(
        "MISS 2 of 2 differ, worst 2.76e-01 at rect-slslu-lam0.5-sketch; "
        "first differing position 18 at rect-lslu-lam0.0-diag0-full"
    ), lines["pivots_t.mm"]
    assert lines["pivots_g.mm"].endswith("byte-identical (2)")


def test_a_matrix_market_file_is_scaled_by_its_entries_alone(tmp_path):
    # the size line's dimensions are far larger than these entries: they
    # must not scale the difference
    replay = load_tool()
    H = np.array([[1e-3, 2e-3], [3e-3, 4e-3]])
    for side, scale in (("old", 1.0), ("new", 1.0 + 1e-12)):
        path = tmp_path / side / "lib" / "random-cmrh"
        path.mkdir(parents=True)
        save_array(path / "H.mm", H * [[1.0, 1.0], [1.0, scale]])
    out = io.StringIO()
    groups = replay.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    assert replay.report(groups, out) == 1
    worst = groups["library, full-rank problems"]["H.mm"].worst
    assert abs(worst - 1e-12) < 1e-14, worst
