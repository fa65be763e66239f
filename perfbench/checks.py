"""Correctness checks, one per operation kind.

Each check reads the text an operation wrote to stdout and compares it with
what the library's own oracles and the generator's known answers say it
must be.  Nothing is compared byte for byte against a stored output.
Tolerances are those of the repository's test suite.
"""

from __future__ import annotations

import math

import numpy as np

from h3frames.examples import get_example
from h3frames.frames import FRAME_TOL
from h3frames.projections import Axis, from_poincare, to_poincare

#: Oracle agreement of extracted invariants (tests/test_examples.py).
ORACLE_TOL = 1e-10
#: Refined singular points must sit this close to the known ones.
POINT_TOL = 1e-6
#: ruled_B's singular line is v = 0 to this accuracy.
LINE_TOL = 1e-8
#: Round trip of projected points through the library's inverse maps.
ROUND_TRIP_TOL = 1e-9
#: Marker and vertex positions against the library's ball map.
MESH_TOL = 1e-12
#: Library residual limits (tests/test_acceptance.py, tests/test_projections.py).
LIBRARY_LIMITS = {
    "integrability_max": 1e-5,
    "disc_max_unit": 1e-10,
    "disc_max_orth": 1e-10,
    "disc_max_off_span": 1e-8,
    "lightcone_residual": 1e-8,
}
#: Classify agreement of the two-vertex ratio with the planted one.
RATIO_TOL = 1e-9
#: Rows of an invariant CSV compared with the oracle.
SAMPLED_ROWS = 64

INVARIANT_COLUMNS = ("a1", "a2", "b1", "b2", "c1", "c2", "e1", "e2",
                     "f1", "f2", "g1", "g2", "alpha", "beta")


class CheckError(Exception):
    """The operation's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _grid(box, grid):
    u0, u1, v0, v1 = box
    return np.linspace(u0, u1, grid[0]), np.linspace(v0, v1, grid[1])


def _comment_value(lines, key):
    prefix = f"# {key} = "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise CheckError(f"no '{key}' header line")


def check_invariants(op, text: str) -> None:
    exp = op.expect
    entry = get_example(exp["example"])
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    _require(bool(body) and body[0] == "u,v," + ",".join(INVARIANT_COLUMNS),
             "missing CSV header")
    rows = body[1:]
    nu, nv = exp["grid"]
    _require(len(rows) == nu * nv, f"{len(rows)} rows, expected {nu * nv}")

    footer = comments[-1]
    _require(footer.startswith("# residuals: "), "missing residual footer")
    tol = float(_comment_value(comments, "frame_tol"))
    _require(tol <= FRAME_TOL, f"frame_tol {tol} looser than {FRAME_TOL}")
    for part in footer[len("# residuals: "):].split(","):
        key, _, val = (s.strip() for s in part.partition("="))
        _require(float(val) < tol, f"{key} = {val} above frame_tol {tol}")

    ug, vg = _grid(exp["box"], exp["grid"])
    rng = np.random.default_rng(len(rows))
    picks = {0, len(rows) - 1, *rng.integers(0, len(rows), SAMPLED_ROWS).tolist()}
    for k in sorted(picks):
        cells = [float(c) for c in rows[k].split(",")]
        u, v = cells[0], cells[1]
        _require(u == ug[k % nu] and v == vg[k // nu], f"row {k} is not grid point {k}")
        got = dict(zip(INVARIANT_COLUMNS, cells[2:]))
        if entry.oracle_invariants is not None:
            q = entry.oracle_invariants(u, v)
            want = {**q.as_dict(), "alpha": q.alpha, "beta": q.beta}
        else:
            want = dict(zip(("alpha", "beta"), entry.oracle_alpha_beta(u, v)))
        for name, w in want.items():
            _require(abs(got[name] - w) <= ORACLE_TOL,
                     f"{name} at ({u}, {v}) = {got[name]}, oracle {w}")


def _singular_points(text: str):
    pts = []
    cur = {}
    count = None
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, val = line.partition(" = ")
        if key == "u":
            cur = {"u": float(val)}
            pts.append(cur)
        elif key == "v":
            cur[key] = float(val)
        elif key in ("classification", "converged"):
            cur[key] = val
        elif key == "points":
            count = int(val)
    _require(count == len(pts), f"'points = {count}' but {len(pts)} blocks")
    return pts


def _u_distance(u1, u2, period):
    d = abs(u1 - u2)
    return min(d, period - d) if period else d


def _known_inside(known, box, period):
    u0, u1, v0, v1 = box
    out = []
    for u, v, tag in known:
        for shift in ((0.0, -period, period) if period else (0.0,)):
            if u0 <= u + shift <= u1 and v0 <= v <= v1:
                out.append((u + shift, v, tag))
                break
    return out


def check_singular(op, text: str) -> None:
    exp = op.expect
    pts = _singular_points(text)
    for p in pts:
        _require(p.get("converged") == "true", f"point {p} did not converge")
    if exp["example"] == "ruled_B":
        _require(len(pts) > 0, "no points on the ruled_B singular line")
        _require(all(abs(p["v"]) < LINE_TOL for p in pts), "ruled_B point off v = 0")
        us = sorted(p["u"] for p in pts)
        u0, u1 = exp["box"][:2]
        gaps = [b - a for a, b in zip(us, us[1:])]
        gaps.append(us[0] - u0 + u1 - us[-1])  # across the periodic seam
        _require(max(gaps) <= exp["line_cell"],
                 f"u-gap {max(gaps)} wider than one cell {exp['line_cell']}")
        return

    period = 2.0 * math.pi if exp["example"].startswith("ruled") else None
    if "points" in exp:
        known = list(exp["points"])
    else:
        known = _known_inside(get_example(exp["example"]).known_singularities,
                              exp["box"], period)
    _require(len(pts) == len(known), f"{len(pts)} points, expected {len(known)}")
    for u, v, tag in known:
        near = [p for p in pts
                if math.hypot(_u_distance(p["u"], u, period), p["v"] - v) <= POINT_TOL]
        _require(len(near) == 1, f"no single point near ({u}, {v})")
        _require(near[0]["classification"] == tag,
                 f"({u}, {v}) is {near[0]['classification']}, expected {tag}")


def check_mesh(op, text: str) -> None:
    exp = op.expect
    verts = []
    faces = markers = 0
    for line in text.splitlines():
        if line.startswith("v "):
            verts.append([float(c) for c in line[2:].split()])
        elif line.startswith("f "):
            faces += 1
        elif line.startswith("p "):
            markers += 1
    nu, nv = exp["grid"]
    n_grid = nu * nv
    _require(len(verts) == n_grid + len(exp["markers"]),
             f"{len(verts)} vertices, expected {n_grid + len(exp['markers'])}")
    _require(faces == 2 * (nu - 1) * (nv - 1), f"{faces} faces")
    _require(markers == len(exp["markers"]), f"{markers} markers")
    p = np.asarray(verts)
    _require(bool(np.all(np.einsum("ij,ij->i", p, p) < 1.0)), "vertex outside the ball")

    fs = get_example(exp["example"]).framed
    ug, vg = _grid(exp["box"], exp["grid"])
    for k in (0, n_grid // 2, n_grid - 1):
        want = to_poincare(fs.x.value(ug[k % nu], vg[k // nu]))
        _require(float(np.max(np.abs(p[k] - want))) <= MESH_TOL, f"vertex {k} misplaced")
    for k, (u, v) in enumerate(exp["markers"]):
        want = to_poincare(fs.x.value(u, v))
        _require(float(np.max(np.abs(p[n_grid + k] - want))) <= POINT_TOL,
                 f"marker {k} not at ({u}, {v})")


def check_classify(op, text: str) -> None:
    exp = op.expect
    vals = dict(line.split(" = ", 1) for line in text.splitlines()
                if not line.startswith("#") and " = " in line)
    _require(vals.get("h_form") == exp["class"], f"h_form {vals.get('h_form')}")
    _require(vals.get("invariant_form") == exp["class"],
             f"invariant_form {vals.get('invariant_form')}")
    _require(vals.get("agree") == "true", "forms disagree")
    if exp["ratio"] is None:
        _require("two_vertex_ratio" not in vals, "unexpected two-vertex ratio")
    else:
        got = float(vals.get("two_vertex_ratio", "nan"))
        _require(abs(got - exp["ratio"]) <= RATIO_TOL,
                 f"two_vertex_ratio {got}, planted {exp['ratio']}")


def check_project(op, text: str) -> None:
    exp = op.expect
    src = exp["points"]
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    _require(len(rows) == len(src), f"{len(rows)} points, expected {len(src)}")
    axis = Axis[exp["axis"].upper()]
    for k, (line, x) in enumerate(zip(rows, src)):
        back = np.delete(from_poincare([float(c) for c in line.split()]), axis.index)
        err = float(np.max(np.abs(back - x)))
        _require(err <= ROUND_TRIP_TOL * max(1.0, float(np.max(np.abs(x)))),
                 f"point {k} round trip off by {err}")


def check_library(op, text: str) -> None:
    vals = {}
    for line in text.splitlines():
        key, _, val = line.partition(" = ")
        vals[key] = float(val)
    for key, limit in LIBRARY_LIMITS.items():
        _require(key in vals, f"no {key}")
        _require(vals[key] < limit, f"{key} = {vals[key]} not below {limit}")
    _require(vals.get("disc_max_radius", 1.0) < 1.0, "transported surface leaves the ball")


CHECKS = {
    "invariants": check_invariants,
    "singular": check_singular,
    "mesh": check_mesh,
    "classify": check_classify,
    "project": check_project,
    "library": check_library,
}


def check(op, text: str) -> None:
    """Raise :class:`CheckError` unless ``text`` is a correct output of ``op``."""
    CHECKS[op.kind](op, text)
