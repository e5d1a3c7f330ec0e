"""perfbench/harness.py wraps functions where hessketch looks them up."""

import importlib
import pathlib
import sys
import threading

import pytest

from hessketch import solvers
from hessketch.hessenberg import PivotStrategy
from hessketch.problems import make_tomography
from hessketch.solvers import SolverConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("harness", "tracing", "workloads")


@pytest.fixture
def harness(monkeypatch):
    # the harness imports its siblings by bare name; nothing is written
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("harness")
    for name in MODULES:
        sys.modules.pop(name, None)


def test_every_benchmark_patch_point_resolves(harness):
    # _layer_patches reads each name off its module, so a renamed or
    # removed one raises AttributeError here
    patches = harness._layer_patches(harness.Tracer())
    for module, name, wrapped in patches:
        assert callable(getattr(module, name)) and callable(wrapped), name
    names = {name for module, name, _ in patches if module is solvers}
    assert {"dense_qr_ls", "stacked_tikhonov_ls", "sketch_apply"} <= names


class ThreadRecorder:
    """Stands in for the harness's Tracer: each wrapped call records its
    name and thread, then calls through."""

    def __init__(self):
        self.calls = []

    def wrap(self, name, fn, nbytes=None):
        def recorded(*args, **kwargs):
            self.calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return recorded


def test_every_traced_call_runs_on_the_callers_thread(harness):
    # the Tracer keeps one span stack, so it holds only if no wrapped name
    # is called from the sparse operator's or the sketch's helper thread.
    # A damped slslu solve with sampled pivots on a tomography matrix large
    # enough to be split calls every layer the benchmark wraps there
    problem = make_tomography(80, 60, noise_level=0.01, seed=3)
    op = problem.operator
    assert not op.forward.inline and not op.transpose.inline
    recorder = ThreadRecorder()
    op.forward = recorder.wrap("linops.apply", op.forward)
    op.transpose = recorder.wrap("linops.transpose", op.transpose)
    cfg = SolverConfig(maxiter=8, lam=5.0, seed=4, pivot=PivotStrategy.sampled(16, 5))
    with harness.patched(harness._layer_patches(recorder)):
        result = solvers.slslu(op, problem.b, cfg)
    assert result.trace.records[-1].dots == 0
    names = {name for name, _ in recorder.calls}
    assert {"linops.apply", "linops.transpose", "sketch.draw", "sketch.apply",
            "linops.qr", "hessenberg.step", "hessenberg.pivot"} <= names
    assert {thread for _, thread in recorder.calls} == {threading.get_ident()}
