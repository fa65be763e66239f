"""Seeded workload generator with known answers.

Each workload is a fixed list of operations.  An operation is either one
``h3frames`` CLI call or one call of ``library_ops.py``; both are given
only the generated argv and the files written next to it.  Every
operation carries the answer it must produce (``expect``), known by
construction, so the checks in :mod:`checks` never compare against golden
bytes.

The seed picks windows, axes, point clouds and h-profile coefficients;
grid sizes and the number of operations are fixed, so the amount of work
hardly depends on the seed.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from pathlib import Path

import numpy as np

#: Workload name -> why it is in the benchmark (mirrored in BENCHMARK.json).
WORKLOADS = {
    "grid_sweep": (
        "dense grids with no singular-set work: per-point jets, invariants, "
        "17-digit formatting and ball maps dominate"
    ),
    "singular_scan": (
        "small grids where the grid screen plus Newton refinement of the "
        "singular set takes almost all the time"
    ),
    "horo_profiles": (
        "horocyclic surfaces from h-profiles: RK4 curve integration and a "
        "spline-backed invariant field ten times dearer than a closed form"
    ),
}

#: Default domain of cross_cap and corank_one.
UNIT_BOX = (-0.9, 0.9, -0.9, 0.9)
#: Default domain of ruled_A and ruled_B (u has period 2 pi).
RULED_BOX = (-math.pi, math.pi, -1.0, 1.0)
RULED_CELL = (2.0 * math.pi / 40, 2.0 / 20)
#: Windows where the x2, x3, x4 projections of cross_cap keep a spacelike
#: binormal (the windows of acceptance criterion 8).
R31_WINDOWS = {
    "x2": (0.05, 0.3, 0.6, 0.9),
    "x3": (0.2, 0.5, 0.2, 0.5),
    "x4": (0.2, 0.5, 0.2, 0.5),
}
PROJECT_POINTS = 50_000
#: v range of ``horocyclic:`` examples (fixed by the library).
HORO_V_SPAN = (-1.5, 1.5)


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation: a CLI call (``kind`` is its subcommand) or the library
    script (``kind == "library"``), with the answer it must produce."""

    name: str
    kind: str
    argv: tuple[str, ...]
    expect: dict


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def window_args(box, grid) -> tuple[str, ...]:
    u0, u1, v0, v1 = box
    return (
        "--u-min", _fmt(u0), "--u-max", _fmt(u1),
        "--v-min", _fmt(v0), "--v-max", _fmt(v1),
        "--grid", str(grid[0]), str(grid[1]),
    )


def sub_window(rng, box, size, margin=0.0):
    """A random ``size = (du, dv)`` window inside ``box`` shrunk by ``margin``."""
    u0, u1, v0, v1 = box
    wu, wv = size
    a = rng.uniform(u0 + margin, u1 - margin - wu)
    b = rng.uniform(v0 + margin, v1 - margin - wv)
    return (float(a), float(a + wu), float(b), float(b + wv))


def window_around(rng, point, size, box):
    """A ``size`` window inside ``box`` holding ``point`` at least a quarter
    of the window away from every edge."""
    (pu, pv), (wu, wv) = point, size
    a = rng.uniform(max(box[0], pu - 0.75 * wu), min(box[1] - wu, pu - 0.25 * wu))
    b = rng.uniform(max(box[2], pv - 0.75 * wv), min(box[3] - wv, pv - 0.25 * wv))
    return (float(a), float(a + wu), float(b), float(b + wv))


# ---------------------------------------------------------------------------
# inputs with known answers
# ---------------------------------------------------------------------------


def r31_points(rng, n):
    """Points (x1, x2, x3) of R^3_1 that lift to H^3: x1^2 - x2^2 - x3^2 - 1
    is the square of the dropped coordinate, kept at least 0.05."""
    y = rng.normal(scale=0.8, size=(n, 2))
    w = rng.uniform(0.05, 2.0, size=n)
    x1 = np.sqrt(1.0 + y[:, 0] ** 2 + y[:, 1] ** 2 + w ** 2)
    return np.column_stack([x1, y])


def _linear(rng, lo, hi):
    """c0 + c1 (u - um) with |c0| in [lo, hi] and a slope too small to reach
    zero on a profile of half-width 1."""
    c0 = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
    c1 = rng.uniform(-0.3, 0.3) * lo
    return c0, c1


def h_profile(rng, cls):
    """Coefficients of an h-profile whose flatness class is ``cls`` by
    construction.  Every h_i is a polynomial of degree at most three in
    (u - um), which the profile's not-a-knot spline reproduces exactly.

    Returns ``(coeffs, ratio)``: coeffs[i] lists the polynomial coefficients
    of h_{i+1}; ratio is h5/h6 for two-vertex cones, else None.
    """
    zero = [0.0]
    ratio = None
    if cls == "generic":
        # h2 stays away from 0, so neither the cone nor the flat test holds.
        h = [list(_linear(rng, 0.1, 0.8)) + [rng.uniform(-0.2, 0.2)] for _ in range(6)]
        h[1] = list(_linear(rng, 0.3, 0.8))
    elif cls == "horo_flat":
        h1 = list(_linear(rng, 0.3, 0.8)) + [rng.uniform(-0.2, 0.2)]
        h = [h1, zero, list(_linear(rng, 0.1, 0.8)), h1,
             list(_linear(rng, 0.1, 0.8)), list(_linear(rng, 0.1, 0.8))]
    elif cls == "horo_cone_single_vertex":
        h = [zero] * 5 + [list(_linear(rng, 0.3, 1.0))]
    elif cls == "horo_cone_two_vertices":
        h6 = list(_linear(rng, 0.3, 1.0))
        ratio = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
        h = [zero] * 4 + [[ratio * c for c in h6], h6]
    elif cls == "conical_horosphere":
        h = [zero] * 4 + [list(_linear(rng, 0.3, 1.0)), zero]
    elif cls == "generalized_horo_cone":
        # h5 curves while h6 is constant, so h5/h6 is no constant ratio.
        h5 = list(_linear(rng, 0.6, 1.0)) + [rng.uniform(0.2, 0.3) * rng.choice([-1.0, 1.0])]
        h = [zero] * 4 + [h5, [rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])]]
    else:
        raise ValueError(f"unknown flatness class {cls!r}")
    return h, ratio


HORO_CLASSES = (
    "generic",
    "horo_flat",
    "horo_cone_single_vertex",
    "horo_cone_two_vertices",
    "conical_horosphere",
    "generalized_horo_cone",
)


def planted_profile(rng, u_range):
    """Coefficients of an h-profile with exactly one singular point, a cross
    cap at (u0, 0): h1 - h4 = k and h2 = 0 make alpha = k v, and
    h3 = s (u - u0) makes beta = s (u - u0) on v = 0.  The cross-cap
    bracket there is -s k, kept above 0.49 in size.
    Returns ``(coeffs, u0)`` with coefficients in (u - um)."""
    lo, hi = u_range
    um = 0.5 * (lo + hi)
    # Near the middle: Newton runs from seeds by the ends of the u range
    # leave it, and their cost then swings widely from seed to seed.
    u0 = float(um + rng.uniform(-0.05, 0.05) * (hi - lo))
    k = rng.uniform(0.7, 0.9) * rng.choice([-1.0, 1.0])
    s = rng.uniform(0.7, 0.9) * rng.choice([-1.0, 1.0])
    h4 = list(_linear(rng, 0.1, 0.3))
    h1 = [h4[0] + k, h4[1]]
    h3 = [s * (um - u0), s]
    h = [h1, [0.0], h3, h4, list(_linear(rng, 0.1, 0.3)), list(_linear(rng, 0.1, 0.3))]
    return h, u0


def profile_values(coeffs, u_range, n=21):
    """Sample table (n, 7) of u, h1..h6 for polynomial coefficients in (u - um)."""
    us = np.linspace(u_range[0], u_range[1], n)
    t = us - 0.5 * (u_range[0] + u_range[1])
    cols = [us] + [sum(c * t ** j for j, c in enumerate(cs)) for cs in coeffs]
    return np.column_stack(cols)


def write_profile(path: Path, table) -> None:
    lines = ["u,h1,h2,h3,h4,h5,h6"]
    lines += [",".join(_fmt(x) for x in row) for row in table]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _grid_sweep(rng, work: Path) -> list[Op]:
    ops = []
    box = sub_window(rng, UNIT_BOX, (1.4, 1.4), margin=0.05)
    ops.append(Op("invariants_cross_cap", "invariants",
                  ("invariants", "--example", "cross_cap") + window_args(box, (201, 201)),
                  {"example": "cross_cap", "box": box, "grid": (201, 201)}))
    box = sub_window(rng, UNIT_BOX, (1.4, 1.4), margin=0.05)
    ops.append(Op("invariants_corank_one", "invariants",
                  ("invariants", "--example", "corank_one") + window_args(box, (101, 101)),
                  {"example": "corank_one", "box": box, "grid": (101, 101)}))
    box = sub_window(rng, UNIT_BOX, (1.4, 1.4), margin=0.05)
    ops.append(Op("mesh_cross_cap", "mesh",
                  ("mesh", "--example", "cross_cap") + window_args(box, (201, 201)),
                  {"example": "cross_cap", "box": box, "grid": (201, 201), "markers": ()}))

    axis = str(rng.choice(["x2", "x3", "x4"]))
    pts = r31_points(rng, PROJECT_POINTS)
    path = work / "r31_points.txt"
    path.write_text("".join(" ".join(_fmt(c) for c in p) + "\n" for p in pts), encoding="ascii")
    ops.append(Op("project_r31_disc", "project",
                  ("project", "--from", "r31", "--to", "disc", "--axis", axis, "--input", str(path)),
                  {"axis": axis, "points": pts}))

    r31_axis = str(rng.choice(sorted(R31_WINDOWS)))
    lib = {
        "integrability": sub_window(rng, UNIT_BOX, (1.2, 1.2), margin=0.1),
        "disc": sub_window(rng, UNIT_BOX, (1.2, 1.2), margin=0.05),
        "r31": sub_window(rng, R31_WINDOWS[r31_axis], (0.15, 0.15)),
    }
    argv = ["--axis", r31_axis]
    for key, w in lib.items():
        argv += [f"--{key}", *(_fmt(c) for c in w)]
    ops.append(Op("library_checks", "library", tuple(argv), {}))
    return ops


def _singular_scan(rng, work: Path) -> list[Op]:
    ops = [
        Op("singular_ruled_A", "singular", ("singular", "--example", "ruled_A"),
           {"example": "ruled_A", "box": RULED_BOX}),
        Op("singular_cross_cap", "singular", ("singular", "--example", "cross_cap"),
           {"example": "cross_cap", "box": UNIT_BOX}),
        Op("singular_ruled_B", "singular", ("singular", "--example", "ruled_B"),
           {"example": "ruled_B", "box": RULED_BOX, "line_cell": RULED_CELL[0]}),
    ]
    # Windows keep the default domain's cell size.  They may reach past
    # u = pi: ruled_A is 2 pi-periodic in u.
    size = (6 * RULED_CELL[0], 4 * RULED_CELL[1])
    reach = (-math.pi, math.pi + 0.9 * size[0], -1.0, 1.0)
    known = [(0.0, 0.0), (math.pi, 0.0)]
    point = known[int(rng.integers(2))]
    box = window_around(rng, point, size, reach)
    ops.append(Op("mesh_ruled_A_markers", "mesh",
                  ("mesh", "--example", "ruled_A", "--markers") + window_args(box, (7, 5)),
                  {"example": "ruled_A", "box": box, "grid": (7, 5), "markers": (point,)}))

    example = str(rng.choice(["cross_cap", "ruled_A"]))
    if example == "cross_cap":
        box = window_around(rng, (0.0, 0.0), (0.6, 0.6), UNIT_BOX)
        grid = (7, 7)
    else:
        point = known[int(rng.integers(2))]
        box = window_around(rng, point, size, reach)
        grid = (7, 5)
    ops.append(Op("singular_window_with_point", "singular",
                  ("singular", "--example", example) + window_args(box, grid),
                  {"example": example, "box": box}))

    sign = float(rng.choice([-1.0, 1.0]))
    v_lo, v_hi = sorted((sign * 0.2, sign * 0.6))
    a = float(rng.uniform(-math.pi, math.pi - size[0]))
    box = (a, a + size[0], v_lo, v_hi)
    ops.append(Op("singular_window_empty", "singular",
                  ("singular", "--example", "ruled_A") + window_args(box, (7, 5)),
                  {"example": "ruled_A", "box": box}))
    return ops


def _horo_profiles(rng, work: Path) -> list[Op]:
    ops = []
    for cls in HORO_CLASSES:
        lo = float(rng.uniform(-1.5, 0.5))
        u_range = (lo, lo + 2.0)
        coeffs, ratio = h_profile(rng, cls)
        path = work / f"profile_{cls}.csv"
        write_profile(path, profile_values(coeffs, u_range))
        ops.append(Op(f"classify_{cls}", "classify", ("classify", "--profile", str(path)),
                      {"class": cls, "ratio": ratio}))

    for k in (1, 2):
        lo = float(rng.uniform(-1.5, 0.5))
        u_range = (lo, lo + 2.0)
        coeffs, u0 = planted_profile(rng, u_range)
        path = work / f"profile_planted_{k}.csv"
        write_profile(path, profile_values(coeffs, u_range))
        ops.append(Op(f"singular_horocyclic_{k}", "singular",
                      ("singular", "--example", f"horocyclic:{path}", "--grid", "11", "11"),
                      {"example": "horocyclic", "box": (*u_range, *HORO_V_SPAN),
                       "points": ((u0, 0.0, "cross_cap"),)}))
    return ops


_MAKERS = {
    "grid_sweep": _grid_sweep,
    "singular_scan": _singular_scan,
    "horo_profiles": _horo_profiles,
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The operations of ``workload`` for ``seed``; input files go to ``work``."""
    return _MAKERS[workload](rng_for(workload, seed), work)
