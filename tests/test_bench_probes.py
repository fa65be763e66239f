"""The benchmark's traced run (``perfbench/tracing.py``) wraps library
functions named in its ``PROBES`` table.  A renamed or deleted target only
makes the tracer warn and drop that layer's metrics, so every target must
resolve here, through the modules ``import h3frames.cli`` registers, and a
traced run of each workload must report every declared per-layer metric."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def _probes(monkeypatch):
    return _tracing(monkeypatch).PROBES


def test_every_benchmark_probe_target_resolves(monkeypatch):
    missing = []
    for probe in _probes(monkeypatch):
        owner = importlib.import_module(probe.module)
        for part in probe.attr.split("."):  # "Curve4.derivative" names a method
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{probe.layer}: {probe.module}.{probe.attr}")
    assert missing == []


def test_cli_import_alone_registers_every_probed_module(monkeypatch):
    # the tracer wraps only modules already in sys.modules, so a module that
    # cli imported on first use would lose its layers from a traced run
    targets = [(p.module, p.attr) for p in _probes(monkeypatch)]
    code = (
        "import json, sys\n"
        "import h3frames.cli\n"
        "targets = json.loads(sys.argv[1])\n"
        "unregistered = sorted({m for m, _ in targets} - set(sys.modules))\n"
        "unresolved = []\n"
        "for module, attr in targets:\n"
        "    owner = sys.modules.get(module)\n"
        "    for part in attr.split('.'):\n"
        "        owner = getattr(owner, part, None)\n"
        "    if not callable(owner):\n"
        "        unresolved.append(module + '.' + attr)\n"
        "print(json.dumps([unregistered, unresolved]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(targets)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], []]


#: The count metrics of a traced run at seed 1, in BENCHMARK.json order:
#: minkowski.dot4, frame_gram_residual, first_partials, invariants_at,
#: integrator steps, screen evals, seeds, Newton evals, Newton iters,
#: classify evals, to_poincare, curve_derivative.
COUNTS_AT_SEED_1 = {
    "grid_sweep": [96, 5, 11, 1, 0, 0, 0, 0, 0, 0, 4, 0],
    "singular_scan": [1458, 66, 186, 62, 0, 6, 536, 52, 631, 4, 2, 0],
    "horo_profiles": [1248, 48, 66, 22, 16000, 2, 29, 12, 58, 2, 0, 0],
}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "is gone" not in done.stderr and "no longer exists" not in done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    # the machine-independent counts: a change to one is made on purpose here
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    assert [result["metrics"][k]["value"] for k in counts] == COUNTS_AT_SEED_1[workload]


def test_traced_mesh_markers_counts_its_scan(monkeypatch, capsys):
    # the scan behind the markers returns (roots, records), which the
    # tracer's scan hook counts: one seed per Newton record
    import h3frames.cli as cli
    from h3frames.examples import get_example
    from h3frames.singularities import find_singular_points

    tracer = _tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        assert cli.main(["mesh", "--example", "ruled_A", "--markers"]) == 0
    finally:
        tracer.uninstall()
    (counts,) = tracer.op_counts
    entry = get_example("ruled_A")
    _, records = find_singular_points(entry.framed, entry.domain)
    assert counts["singularities.seeds"] == len(records) > 0
