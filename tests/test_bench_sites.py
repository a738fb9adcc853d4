"""The benchmark's traced call sites must exist in dilqr.

perfbench/layers.py wraps dilqr functions by name where their callers look
them up, on every benchmark run. A deleted or renamed name would crash
each run, so the test suite resolves every site. It only reads perfbench/.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    found = layers.originals()  # getattr on every site; a missing name raises
    for owner, attr, _, _ in layers._call_sites():
        assert callable(found[(owner, attr)]), f"{owner.__name__}.{attr} is not callable"
