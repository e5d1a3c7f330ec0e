"""Every demo runs end to end, in a scratch working directory.

Running a demo checks that every name it imports from hessketch exists
and that every attribute it reads on a result or factorization does.  A
demo that certifies a bound, as ``sketch_bounds.py`` does, exits nonzero
when the bound is violated, which fails its case here."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
