"""Span recorder for the traced run.

The traced run calls the operations in-process and wraps the public
functions of each ``h3frames`` module from here; nothing in the package
changes.  A wrapper replaces the function in every module namespace that
bound it, so calls through ``invariant_field``'s lambda and calls between
modules are seen too.  Hot functions only count calls; the others record a
span (layer, start, end, parent span, operation id) into flat arrays that
stay in memory until the run ends.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import re
import subprocess
import sys
import time
import warnings
from array import array
from typing import Callable, Optional

import numpy as np


@dataclasses.dataclass(frozen=True)
class Probe:
    """Where a layer lives and how it is observed.

    ``attr`` may name a method as ``Class.method``.  ``span=False`` only
    counts calls.  ``hook(counts, args, result)`` adds to the ``counters``
    it names, read from a call's arguments or result.
    """

    layer: str
    module: str
    attr: str
    span: bool = True
    hook: Optional[Callable] = None
    counters: tuple[str, ...] = ()


def _count_fd(counts, args, result):
    if not args[0].has_closed_firsts:
        counts["surface.first_partials.fd_calls"] += 1


def _count_steps(counts, args, result):
    counts["frames.integrate_frame_along_line.steps"] += len(result.t) - 1


def _count_scan(counts, args, result):
    if isinstance(result, tuple):  # full_output=True: (points, records)
        points, records = result
        counts["singularities.seeds"] += len(records)
        counts["singularities.newton.converged"] += sum(r.converged for r in records)
        counts["singularities.newton.iters"] += sum(r.iterations for r in records)
    else:
        points = result
    counts["singularities.points"] += len(points)


PROBES = (
    Probe("minkowski.dot4", "h3frames.minkowski", "minkowski_dot4", span=False),
    Probe("minkowski.frame_gram_residual", "h3frames.minkowski", "frame_gram_residual"),
    Probe("surface.first_partials", "h3frames.surface", "first_partials",
          hook=_count_fd, counters=("surface.first_partials.fd_calls",)),
    Probe("frames.invariants_at", "h3frames.frames", "invariants_at"),
    Probe("frames.frame_at", "h3frames.frames", "frame_at"),
    Probe("frames.basic_invariants", "h3frames.frames", "basic_invariants"),
    Probe("frames.verify_framed", "h3frames.frames", "verify_framed"),
    Probe("frames.write_invariants_csv", "h3frames.frames", "write_invariants_csv"),
    Probe("frames.integrability_residuals", "h3frames.frames", "integrability_residuals"),
    Probe("frames.integrate_frame_along_line", "h3frames.frames",
          "integrate_frame_along_line", hook=_count_steps,
          counters=("frames.integrate_frame_along_line.steps",)),
    Probe("singularities.find_singular_points", "h3frames.singularities",
          "find_singular_points", hook=_count_scan,
          counters=("singularities.seeds", "singularities.newton.converged",
                    "singularities.newton.iters", "singularities.points")),
    Probe("singularities.newton", "h3frames.singularities", "_newton_refine"),
    Probe("singularities.classify_singularity", "h3frames.singularities",
          "classify_singularity"),
    Probe("projections.to_poincare", "h3frames.projections", "to_poincare", span=False),
    Probe("projections.write_disc_mesh", "h3frames.projections", "write_disc_mesh"),
    Probe("projections.transport_to_disc", "h3frames.projections", "transport_to_disc"),
    Probe("projections.verify_disc_framed", "h3frames.projections", "verify_disc_framed"),
    Probe("projections.project_to_r31", "h3frames.projections", "project_to_r31"),
    Probe("projections.lightcone_residual", "h3frames.projections", "lightcone_residual"),
    Probe("horocyclic.load_h_profile", "h3frames.horocyclic", "load_h_profile"),
    Probe("horocyclic.integrate_frame_curves", "h3frames.horocyclic", "integrate_frame_curves"),
    Probe("horocyclic.build_horocyclic", "h3frames.horocyclic", "build_horocyclic"),
    Probe("horocyclic.curve_derivative", "h3frames.horocyclic", "Curve4.derivative",
          span=False),
    Probe("horocyclic.invariant_form_classify", "h3frames.horocyclic",
          "invariant_form_classify"),
    Probe("horocyclic.classify_horocyclic", "h3frames.horocyclic", "classify_horocyclic"),
    Probe("examples.get_example", "h3frames.examples", "get_example"),
    Probe("cli.main", "h3frames.cli", "main"),
)

#: Layers whose nested invariant evaluations are counted as their own.
EVAL_OWNERS = {
    "singularities.find_singular_points": "singularities.screen.evals",
    "singularities.newton": "singularities.newton.evals",
    "singularities.classify_singularity": "singularities.classify_singularity.evals",
}


class Tracer:
    """Installs the probes, records spans and counts, and restores the
    original functions on :meth:`uninstall`."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.layers: list[str] = []
        self.name = array("l")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_counts: list[collections.Counter] = []
        self._counts = collections.Counter()
        self._op_id = -1
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self) -> int:
        """Start attributing spans and counts to a new operation."""
        self._op_id = len(self.op_counts)
        self._counts = collections.Counter()
        self.op_counts.append(self._counts)
        return self._op_id

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, layer_id, hook):
        name, op, parent, start, end = self.name, self.op, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(layer_id)
            op.append(self._op_id)
            parent.append(stack[-1] if stack else -1)
            end.append(math.nan)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self._counts, args, result)
            return result

        return traced

    def _count_wrapper(self, fn, key):
        def counted(*args, **kwargs):
            self._counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra_modules=()) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "h3frames" or n.startswith("h3frames.")]
        modules += list(extra_modules)
        for probe in self.probes:
            owner = sys.modules.get(probe.module)
            *path, attr = probe.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(probe.layer)
                warnings.warn(f"{probe.module}.{probe.attr} is gone; "
                              f"metrics of {probe.layer} are absent")
                continue
            if probe.span:
                self.layers.append(probe.layer)
                wrapped = self._span_wrapper(original, len(self.layers) - 1, probe.hook)
            else:
                wrapped = self._count_wrapper(original, probe.layer + ".calls")
            if path:  # a method: patch the class
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def spans(self) -> dict:
        """The recorded spans as numpy arrays (one entry per span)."""
        return {
            "layer": np.asarray(self.name),
            "op": np.asarray(self.op),
            "parent": np.asarray(self.parent),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover.  Children may overlap each other or stick out of their
    parent; only the union of their intervals inside the parent counts."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros(len(start))
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    cur, reach = -1, -math.inf
    for i, p in zip(kids.tolist(), parent[kids].tolist()):
        if p != cur:
            cur, reach = p, start[p]
        lo = max(start[i], reach)
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


def nearest_owner(layer, parent, owner_ids) -> np.ndarray:
    """Index of each span's nearest proper ancestor whose layer is in
    ``owner_ids``, or -1."""
    layer = np.asarray(layer)
    parent = np.asarray(parent)
    is_owner = np.isin(layer, list(owner_ids))
    found = np.full(len(layer), -1, dtype=np.int64)
    anc = parent.copy()
    todo = anc >= 0
    while np.any(todo):
        idx = np.flatnonzero(todo)
        hit = is_owner[anc[idx]]
        found[idx[hit]] = anc[idx[hit]]
        todo[idx[hit]] = False
        rest = idx[~hit]
        anc[rest] = parent[anc[rest]]
        todo[rest] = anc[rest] >= 0
    return found


def layer_metrics(tracer: Tracer) -> tuple[dict, list[dict]]:
    """Per-layer metrics of the whole run, and the counts of each operation.

    For every span layer: ``calls``, ``s`` (inclusive time) and ``self_s``;
    for a count-only layer: ``calls``; and every probe's counters.  Layers
    whose function is gone have no metrics at all.
    """
    sp = tracer.spans()
    self_s = self_times(sp["start"], sp["end"], sp["parent"])
    dur = sp["end"] - sp["start"]
    layer_ids = {layer: k for k, layer in enumerate(tracer.layers)}

    totals = collections.Counter()
    for c in tracer.op_counts:
        totals.update(c)
    metrics: dict[str, float] = {}
    for probe in tracer.probes:
        if probe.layer in tracer.missing:
            continue
        if probe.span:
            sel = sp["layer"] == layer_ids[probe.layer]
            metrics[probe.layer + ".calls"] = int(np.count_nonzero(sel))
            metrics[probe.layer + ".s"] = float(dur[sel].sum())
            metrics[probe.layer + ".self_s"] = float(self_s[sel].sum())
        else:
            metrics[probe.layer + ".calls"] = int(totals[probe.layer + ".calls"])
        for key in probe.counters:
            metrics[key] = int(totals[key])

    per_op = [dict(c) for c in tracer.op_counts]
    evals_id = layer_ids.get("frames.invariants_at")
    owners = {layer_ids[k]: k for k in EVAL_OWNERS if k in layer_ids}
    if evals_id is not None and owners:
        evals = sp["layer"] == evals_id
        owner = nearest_owner(sp["layer"], sp["parent"], owners)[evals]
        owner_layer = sp["layer"][owner[owner >= 0]]
        for lid, name in owners.items():
            metrics[EVAL_OWNERS[name]] = int(np.count_nonzero(owner_layer == lid))
        ops = sp["op"][evals]
        for k, counts in enumerate(per_op):
            counts["frames.invariants_at.calls"] = int(np.count_nonzero(ops == k))
    _derive(metrics)
    return metrics, per_op


def _ratio(num, den):
    return num / den if den else None


def _derive(m: dict) -> None:
    """Ratios built from the raw counts and times; None where the base is 0."""
    if "surface.first_partials.fd_calls" in m:
        m["surface.fd_share"] = _ratio(m["surface.first_partials.fd_calls"],
                                       m["surface.first_partials.calls"])
    if "frames.invariants_at.calls" in m:
        per_call = _ratio(m["frames.invariants_at.s"], m["frames.invariants_at.calls"])
        m["frames.invariants_at.us_per_call"] = None if per_call is None else 1e6 * per_call
    if "singularities.seeds" in m:
        seeds = m["singularities.seeds"]
        m["singularities.newton.converged_share"] = _ratio(
            m["singularities.newton.converged"], seeds)
        m["singularities.seed_yield"] = _ratio(m["singularities.points"], seeds)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Seconds spent importing h3frames (top-level entries, dependencies
    included) and scipy.interpolate, from ``python -X importtime`` output."""
    total = scipy_interp = 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, indent, module = int(m.group(2)), m.group(3), m.group(4)
        if not indent and (module == "h3frames" or module.startswith("h3frames.")):
            total += cumulative
        if module == "scipy.interpolate":
            scipy_interp = max(scipy_interp, cumulative)
    return {"import.h3frames_s": total * 1e-6, "import.scipy_interpolate_s": scipy_interp * 1e-6}


def import_times(python: str, env, repeats: int = 3) -> dict:
    """Median import times over ``repeats`` fresh interpreters."""
    runs = []
    for _ in range(repeats):
        out = subprocess.run(
            [python, "-X", "importtime", "-c", "import h3frames.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        runs.append(parse_importtime(out.stderr))
    return {k: float(np.median([r[k] for r in runs])) for k in runs[0]}
