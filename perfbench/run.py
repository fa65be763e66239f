"""h3frames benchmark: one named workload from one seed.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 10 --trace 0

Run it from a checkout of the repository; the package is imported from
``src/``.  Load model: closed loop, one client, one operation at a time.
Every operation is a fresh ``python3 -m h3frames.cli`` process (or the
library script ``library_ops.py``) timed from outside, and every output is
checked for correctness (:mod:`checks`).

``--trace 0`` reports the end-to-end metrics: the workload's operations
are run in passes until ``--seconds`` have elapsed (at least one pass) and
each metric is the median over passes.  ``--trace 1`` runs one untraced
pass, then the same operations in-process with every layer wrapped
(:mod:`tracing`), and reports the per-layer metrics and the tracing
overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  A
fuller record (all layer metrics, per-operation figures, source line
counts) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"

#: Fresh-interpreter ``--version`` calls per run; setup_s is their median.
SETUP_REPEATS = 5
#: Longest a single operation may take before it counts as failed.
OP_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Per-layer metrics of the result line: work counts, and times that every
#: workload exercises.  The report and the results file carry all layer
#: metrics, among them the times of layers only some workloads reach.
PER_LAYER = {
    "minkowski.dot4.calls": "count",
    "minkowski.frame_gram_residual.calls": "count",
    "minkowski.frame_gram_residual.self_s": "s",
    "surface.first_partials.calls": "count",
    "surface.first_partials.self_s": "s",
    "frames.invariants_at.calls": "count",
    "frames.invariants_at.self_s": "s",
    "frames.invariants_at.us_per_call": "us",
    "frames.frame_at.self_s": "s",
    "frames.basic_invariants.self_s": "s",
    "frames.integrate_frame_along_line.steps": "count",
    "singularities.screen.evals": "count",
    "singularities.seeds": "count",
    "singularities.newton.evals": "count",
    "singularities.newton.iters": "count",
    "singularities.classify_singularity.evals": "count",
    "projections.to_poincare.calls": "count",
    "horocyclic.curve_derivative.calls": "count",
    "examples.get_example.s": "s",
    "cli.main.s": "s",
    "import.h3frames_s": "s",
    "import.scipy_interpolate_s": "s",
    "trace.overhead": "ratio",
}
#: Per-operation counts printed by the traced run, to compare with the
#: ROADMAP's figures for singular --example ruled_A and cross_cap.
ROADMAP_COUNTS = ("frames.invariants_at.calls", "singularities.seeds",
                  "singularities.newton.converged", "singularities.points")


@dataclasses.dataclass
class OpResult:
    op: object
    wall_s: float
    rss_mb: float | None
    error: str | None
    digest: str
    size: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("H3FRAMES_OUT_DIR", None)
    return env


def command(op) -> list[str]:
    if op.kind == "library":
        return [sys.executable, str(HERE / "library_ops.py"), *op.argv]
    return [sys.executable, "-m", "h3frames.cli", *op.argv]


def timed_process(cmd, env, cwd: Path, out_path: Path):
    """Run ``cmd`` with stdout to ``out_path``; return (wall s, peak RSS MB
    of that child, exit code, stderr)."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr


def verdict(op, wall, rss, error, data: bytes) -> OpResult:
    """The operation's result; a run that did not fail is checked."""
    from checks import CheckError, check  # imports h3frames: needs SRC on sys.path

    if error is None:
        try:
            check(op, data.decode())
        except CheckError as exc:
            error = f"check failed: {exc}"
    return OpResult(op, wall, rss, error, hashlib.sha256(data).hexdigest(), len(data))


def run_untraced(ops, env, work: Path) -> list[OpResult]:
    results = []
    for op in ops:
        out_path = work / f"{op.name}.out"
        wall, rss, code, stderr = timed_process(command(op), env, work, out_path)
        error = None if code == 0 else f"exit code {code}: {stderr.strip()[-300:]}"
        results.append(verdict(op, wall, rss, error, out_path.read_bytes()))
    return results


def setup_times(env, work: Path) -> tuple[list[float], int]:
    """Cold starts of ``h3frames --version``; returns the times and failures."""
    times, failed = [], 0
    for _ in range(SETUP_REPEATS):
        out_path = work / "version.out"
        wall, _, code, _ = timed_process(
            [sys.executable, "-m", "h3frames.cli", "--version"], env, work, out_path)
        if code != 0 or not out_path.read_text().startswith("h3frames "):
            failed += 1
        times.append(wall)
    return times, failed


def mark_nondeterministic(passes) -> None:
    """An operation whose stdout differs between two runs fails."""
    first = {r.op.name: r.digest for r in passes[0]}
    for results in passes[1:]:
        for r in results:
            if r.error is None and r.digest != first[r.op.name]:
                r.error = "stdout differs from the first run"


def pass_figures(results) -> dict:
    fig = {"wall_s": sum(r.wall_s for r in results),
           "peak_rss_mb": max(r.rss_mb for r in results)}
    for r in results:
        key = f"{r.op.kind}_s"
        fig[key] = fig.get(key, 0.0) + r.wall_s
    return fig


def source_lines() -> dict:
    return {p.name: len(p.read_text().splitlines())
            for p in sorted((SRC / "h3frames").glob("*.py"))}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end_run(ops, seconds, env, work):
    setup, setup_failed = setup_times(env, work)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_untraced(ops, env, work))
    mark_nondeterministic(passes)

    figures = [pass_figures(p) for p in passes]
    metrics = {"setup_s": statistics.median(setup)}
    for key in figures[0]:
        metrics[key] = statistics.median(f[key] for f in figures)
    op_results = [r for p in passes for r in p]
    failed = setup_failed + sum(r.error is not None for r in op_results)
    attempted = len(setup) + len(op_results)
    metrics["fail_ratio"] = failed / attempted

    report = [f"{len(passes)} pass(es) of {len(ops)} operations"]
    for key, val in metrics.items():
        if key == "fail_ratio":
            report.append(f"fail_ratio = {val:.6g} ({failed} of {attempted} failed)")
            continue
        n = len(setup) if key == "setup_s" else len(passes)
        report.append(f"{key} = {val:.6g} {END_TO_END.get(key, 's')} (median of {n})")
    report += _op_lines(passes[0])
    detail = {"passes": [[_op_record(r) for r in p] for p in passes],
              "setup_s_samples": setup}
    return metrics, attempted, failed, report, detail


def run_in_process(ops, library, before_op=None) -> list[OpResult]:
    """Call each operation's entry point in this process, stdout captured."""
    import h3frames.cli as cli

    results = []
    for op in ops:
        if before_op is not None:
            before_op()
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = (library.main if op.kind == "library" else cli.main)(list(op.argv))
            error = None if code == 0 else f"exit code {code}"
        except Exception:
            error = "raised " + traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        results.append(verdict(op, wall, None, error, buf.getvalue().encode()))
    return results


def traced_run(ops, env, work):
    library = importlib.import_module("library_ops")
    imports = tracing.import_times(sys.executable, env)
    plain = run_in_process(ops, library)
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[library])
    try:
        traced = run_in_process(ops, library, tracer.begin_op)
    finally:
        tracer.uninstall()
    mark_nondeterministic([plain, traced])

    layers, per_op = tracing.layer_metrics(tracer)
    wall_plain = sum(r.wall_s for r in plain)
    wall_traced = sum(r.wall_s for r in traced)
    layers.update(imports)
    layers["cli.output_bytes"] = sum(r.size for r in traced)
    layers["trace.overhead"] = wall_traced / wall_plain

    results = plain + traced
    failed = sum(r.error is not None for r in results)
    report = [f"{len(ops)} operations in-process: {wall_plain:.3f} s untraced, "
              f"{wall_traced:.3f} s traced (overhead x{layers['trace.overhead']:.3f})"]
    for name in tracer.missing:
        report.append(f"warning: layer {name} no longer exists; its metrics are absent")
    for key in sorted(layers):
        val = layers[key]
        report.append(f"{key} = {'n/a' if val is None else format(val, '.6g')}")
    report += _op_lines(traced)
    for op, counts in zip(ops, per_op):
        report.append(f"counts {op.name}: " + ", ".join(
            f"{k} = {counts.get(k, 0)}" for k in ROADMAP_COUNTS))

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{work.name}-spans.npz"
    np.savez_compressed(spans_path, layers=np.array(tracer.layers), **tracer.spans())
    detail = {"untraced": [_op_record(r) for r in plain],
              "traced": [_op_record(r) for r in traced],
              "per_op_counts": {op.name: c for op, c in zip(ops, per_op)},
              "spans_file": spans_path.name}
    return layers, len(results), failed, report, detail


def _op_record(r: OpResult) -> dict:
    return {"op": r.op.name, "kind": r.op.kind, "wall_s": r.wall_s,
            "rss_mb": r.rss_mb, "error": r.error}


def _op_lines(results) -> list[str]:
    return [f"op {r.op.name}: {r.wall_s:.3f} s"
            + ("" if r.rss_mb is None else f", {r.rss_mb:.1f} MB")
            + (", ok" if r.error is None else f", FAILED {r.error}") for r in results]


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "h3frames" / "cli.py").is_file():
        print(f"error: no h3frames sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = child_env()
        ops = workloads.build(args.workload, args.seed, work)
        if args.trace:
            metrics, attempted, failed, report, detail = traced_run(ops, env, work)
            wanted = PER_LAYER
        else:
            metrics, attempted, failed, report, detail = end_to_end_run(
                ops, args.seconds, env, work)
            wanted = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    lines = source_lines()
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "attempted": attempted, "failed": failed,
              "metrics": metrics, "source_lines": lines, **detail}
    (RESULTS / f"{work.name}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in report:
        print("  " + line)
    print(f"  source lines of src/h3frames: {sum(lines.values())} "
          + " ".join(f"{k}={v}" for k, v in lines.items()))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in wanted.items() if metrics.get(k) is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
