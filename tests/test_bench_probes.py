"""The benchmark's traced run (``perfbench/tracing.py``) wraps library
functions named in its ``PROBES`` table.  A renamed or deleted target only
makes the tracer warn and drop that layer's metrics, so every target must
resolve here."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _probes(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module.PROBES


def test_every_benchmark_probe_target_resolves(monkeypatch):
    missing = []
    for probe in _probes(monkeypatch):
        owner = importlib.import_module(probe.module)
        for part in probe.attr.split("."):  # "Curve4.derivative" names a method
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{probe.layer}: {probe.module}.{probe.attr}")
    assert missing == []
