"""perfbench/harness.py wraps functions where hessketch looks them up."""

import importlib
import pathlib
import sys

import pytest

from hessketch import solvers

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
