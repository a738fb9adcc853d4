"""The benchmark's traced call sites must exist in dilqr, and each must fire.

perfbench/layers.py wraps dilqr functions by name where their callers look
them up, on every benchmark run. A deleted or renamed name would crash
each run, so the test suite resolves every site; a site that no workload
reaches would report 0 forever, so one tiny pass of each workload must
record every span. It only reads perfbench/.
"""

import importlib
from pathlib import Path

import pytest

from dilqr import ilqr

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def _traced_pass(layers, tracer, wl):
    """One pass of wl with every site wrapped; every wrapper is removed even if install fails."""
    try:
        layers.install(tracer, wl)
        wl.run_pass()
    finally:
        tracer.remove()


def test_every_traced_site_resolves(monkeypatch):
    layers = _perfbench(monkeypatch, "layers")
    found = layers.originals()  # getattr on every site; a missing name raises
    for owner, attr, _, _ in layers._call_sites():
        assert callable(found[(owner, attr)]), f"{owner.__name__}.{attr} is not callable"


def test_every_traced_span_fires(monkeypatch, tmp_path):
    layers = _perfbench(monkeypatch, "layers")
    workloads = _perfbench(monkeypatch, "workloads")
    tracer_mod = _perfbench(monkeypatch, "tracer")
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    recorded = set()
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(0, tiny=True)
        checks = workloads.Checks()
        wl.setup(checks)
        tracer = tracer_mod.Tracer()
        _traced_pass(layers, tracer, wl)
        assert not checks.failures, f"{name}: {checks.failures}"
        recorded |= {span[0] for span in tracer.spans}
    missing = {span for _, _, span, _ in layers._call_sites()} - recorded
    assert not missing, f"traced spans no workload reaches: {sorted(missing)}"


def test_a_failed_install_leaves_no_site_wrapped(monkeypatch):
    layers = _perfbench(monkeypatch, "layers")
    workloads = _perfbench(monkeypatch, "workloads")
    tracer_mod = _perfbench(monkeypatch, "tracer")
    before = layers.originals()
    call_sites = layers._call_sites
    missing = (ilqr, "no_such_site", "ilqr.no_such_site", None)
    monkeypatch.setattr(layers, "_call_sites", lambda: [*call_sites(), missing])
    with pytest.raises(AttributeError, match="no_such_site"):
        _traced_pass(layers, tracer_mod.Tracer(), workloads.PendulumTrain(0, tiny=True))
    monkeypatch.setattr(layers, "_call_sites", call_sites)
    after = layers.originals()
    assert all(after[key] is original for key, original in before.items())
