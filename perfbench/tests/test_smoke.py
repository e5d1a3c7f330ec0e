"""Smoke tests for the benchmark itself, on tiny configs.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hessketch import solvers  # noqa: E402

ANY_ERR = {role: (0.0, 1.0) for role in workloads.ROLES}
TINY = {
    "deblur": workloads.deblur("tiny-deblur", "smoke", 16, 4, ANY_ERR),
    "tomography": workloads.tomography(
        "tiny-tomo", "smoke", 12, 6, 4, 5.0, 5, ANY_ERR),
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload, trace, tmp_path):
    report = harness.benchmark(workload, 7, 0.0, trace, str(tmp_path), ROOT)
    return report, json.loads(run.format_report(report).splitlines()[-1])


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(kind, trace, tmp_path):
    report, result = bench(TINY[kind], trace, tmp_path)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0
    # trace 0: one memory run plus MIN_TIMED_RUNS timed runs; trace 1:
    # the timed runs plus one traced run; three solver calls each
    assert result["attempted"] == 3 * (harness.MIN_TIMED_RUNS + 1)
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert np.isfinite(printed["value"])
    if trace:
        assert os.path.getsize(tmp_path / "spans.csv") > 0


def test_self_times_account_for_the_traced_run(tmp_path):
    report, result = bench(TINY["tomography"], 1, tmp_path)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_times = sum(v for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace."))
    # the traced run's clock also covers the root wrapper's own overhead
    assert self_times == pytest.approx(metrics["trace.run_s"], rel=0.02)
    assert metrics["solvers.reference.dots"] == metrics["linops.dot_n"]
    assert metrics["linops.transpose_n"] == sum(
        metrics[f"solvers.{role}.tmatvecs"] for role in workloads.ROLES)
    assert metrics["sketch.apply_n"] == metrics["solvers.sketched.sketches"]


def corrupt(solve, how):
    calls = []

    def corrupted(A, b, cfg, x_true=None):
        result = solve(A, b, cfg, x_true=x_true)
        calls.append(how)
        if how == "dots":
            result.trace.records[-1].dots += 1
        elif how == "x":
            result.x = result.x * (1 + 1e-6)
        elif len(calls) > 1:  # "replay": later runs write another trace
            result.trace.records[0].proj_obj *= 1 + 1e-12
        return result

    return corrupted


@pytest.mark.parametrize("how", ["dots", "x", "replay"])
def test_corrupted_result_counts_as_failure(how, monkeypatch, tmp_path):
    monkeypatch.setitem(
        solvers.SOLVERS, "cmrh", corrupt(solvers.SOLVERS["cmrh"], how))
    report, result = bench(TINY["deblur"], 0, tmp_path)
    runs = harness.MIN_TIMED_RUNS + 1
    assert not result["correct"]
    assert result["attempted"] == 3 * runs
    # every cmrh call fails, and nothing else; under "replay" the first
    # run is the reference the others are compared with
    assert result["failed"] == (runs - 1 if how == "replay" else runs)
    assert all(": hessenberg: " in p for p in report["problems"])


def test_answer_outside_band_counts_as_failure(tmp_path):
    narrow = dict(ANY_ERR, sketched=(0.0, 1e-3))
    workload = workloads.deblur("tiny-deblur", "smoke", 16, 4, narrow)
    report, result = bench(workload, 0, tmp_path)
    assert result["failed"] == harness.MIN_TIMED_RUNS + 1
    assert "best_rel_err" in report["problems"][0]


def test_refuses_to_run_without_the_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "tiny-deblur", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in spec()["workloads"]] == list(workloads.WORKLOADS)
