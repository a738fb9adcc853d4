"""The benchmark's traced call sites must exist in dilqr, and each must fire.

perfbench/layers.py wraps dilqr functions by name where their callers look
them up, on every benchmark run. A deleted or renamed name would crash
each run, so the test suite resolves every site; a site that no workload
reaches would report 0 forever, so one tiny pass of each workload must
record every span. It only reads perfbench/.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


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
        layers.install(tracer, wl)
        try:
            wl.run_pass()
        finally:
            tracer.remove()
        assert not checks.failures, f"{name}: {checks.failures}"
        recorded |= {span[0] for span in tracer.spans}
    missing = {span for _, _, span, _ in layers._call_sites()} - recorded
    assert not missing, f"traced spans no workload reaches: {sorted(missing)}"
