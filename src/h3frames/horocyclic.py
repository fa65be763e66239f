"""Horocyclic surfaces: one-parameter families of horocycles.

A pseudo-orthonormal curve frame {a0, a1, a2, a3} along u (a0 timelike,
a3 = a0 ^ a1 ^ a2) sweeps the surface

    x(u, v) = (1 + v^2/2) a0(u) + v a1(u) + (v^2/2) a2(u),

which is framed by nu1 = a3 and nu2 = -(v^2/2) a0 - v a1 + (1 - v^2/2) a2.
The six curvature functions h1..h6 of the curve frame determine all twelve
surface invariants in closed form, and the flatness classification (horo-flat,
horo-cones, conical horosphere) reads off either the h functions or the
invariant field; both classifiers live here and must agree.

Curve frames come from closed forms or from integrating the linear frame
system (the same ODE shape the surface frame integrator uses, so it is
reused chunk-wise with periodic re-orthonormalization).  Curves broadcast
like surface maps: an array of u values gives a component-first
``(4, *shape)`` result, so the swept surface evaluates whole grids.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # scipy.interpolate is imported where splines are built
    from scipy.interpolate import CubicSpline

from .errors import DegenerateFrameError, NotHorocyclicError
from .frames import (
    FrameAt,
    FramedSurface,
    Invariants,
    fixed_v,
    integrate_frame_along_line,
)
from .minkowski import frame_gram_residual, minkowski_dot4, wedge3
from .surface import Domain, ParametricMap4, evaluate, sqrt, zero4

__all__ = [
    "ORTHONORMAL_TOL",
    "CLASS_TOL",
    "H_STEP",
    "REORTH_EVERY",
    "Curve4",
    "HorocyclicData",
    "HoroTag",
    "HoroClass",
    "HProfile",
    "build_horocyclic",
    "horocyclic_invariants",
    "horocyclic_alpha_beta",
    "extract_h",
    "integrate_frame_curves",
    "classify_horocyclic",
    "invariant_form_classify",
    "load_h_profile",
    "horocyclic_example_from_profile",
    "verify_horocyclic_data",
]

#: Allowed Gram residual of the curve frame {a0, a1, a2, a3}.
ORTHONORMAL_TOL = 1e-8

#: Default tolerance for the flatness classification conditions.
CLASS_TOL = 1e-7

#: Central-difference step of :func:`extract_h`.
H_STEP = 1e-5

#: Integration steps between Gram-Schmidt passes.
REORTH_EVERY = 100


@dataclasses.dataclass(frozen=True)
class Curve4:
    """Curve u -> R^4_1 with an optional closed-form derivative."""

    value: Callable[[float], np.ndarray]
    d: Optional[Callable[[float], np.ndarray]] = None
    h: float = 1e-6

    def derivative(self, u: float) -> np.ndarray:
        if self.d is not None:
            return evaluate(self.d, u)
        return (evaluate(self.value, u + self.h) - evaluate(self.value, u - self.h)) / (
            2.0 * self.h
        )


HFuncs = tuple[
    Callable[[float], float],
    Callable[[float], float],
    Callable[[float], float],
    Callable[[float], float],
    Callable[[float], float],
    Callable[[float], float],
]


@dataclasses.dataclass(frozen=True)
class HorocyclicData:
    """Curve frame plus its six curvature functions."""

    a0: Curve4
    a1: Curve4
    a2: Curve4
    h: HFuncs

    def a3(self, u: float) -> np.ndarray:
        return wedge3(*(evaluate(c.value, u) for c in (self.a0, self.a1, self.a2)))

    def h_at(self, u: float) -> np.ndarray:
        return np.array([hi(u) for hi in self.h])


def verify_horocyclic_data(data: HorocyclicData, us: Sequence[float]) -> float:
    """Max Gram residual of {a0, a1, a2, a3} over the given u samples."""
    worst = 0.0
    for u in us:
        worst = max(
            worst,
            frame_gram_residual(
                data.a0.value(u), data.a1.value(u), data.a2.value(u), data.a3(u)
            ),
        )
    return worst


# ---------------------------------------------------------------------------
# surface construction and closed-form invariants
# ---------------------------------------------------------------------------


def build_horocyclic(
    data: HorocyclicData, domain: Domain, tol: float = ORTHONORMAL_TOL
) -> FramedSurface:
    """Sweep the curve frame into a framed surface over ``domain``.

    The curve-frame axioms are checked on the domain's u grid first;
    violation raises :class:`DegenerateFrameError`.  First derivatives of
    all three surface maps are assembled from the curve derivatives
    (closed-form when the curves carry one, central differences inside
    the curve otherwise), so the surface maps always advertise closed
    firsts.
    """
    res = verify_horocyclic_data(data, domain.u_grid())
    if res > tol:
        raise DegenerateFrameError(
            f"curve frame Gram residual {res:.3e} exceeds {tol} on the u grid"
        )
    a0, a1, a2 = data.a0, data.a1, data.a2

    def values(u):
        return (evaluate(a0.value, u), evaluate(a1.value, u), evaluate(a2.value, u))

    def x_value(u, v):
        w0, w1, w2 = values(u)
        return (1.0 + v * v / 2.0) * w0 + v * w1 + (v * v / 2.0) * w2

    def x_du(u, v):
        return (
            (1.0 + v * v / 2.0) * a0.derivative(u)
            + v * a1.derivative(u)
            + (v * v / 2.0) * a2.derivative(u)
        )

    def x_dv(u, v):
        w0, w1, w2 = values(u)
        return v * w0 + w1 + v * w2

    def nu1_value(u, v):
        return data.a3(u)

    def nu1_du(u, v):
        w0, w1, w2 = values(u)
        return (
            wedge3(a0.derivative(u), w1, w2)
            + wedge3(w0, a1.derivative(u), w2)
            + wedge3(w0, w1, a2.derivative(u))
        )

    def nu2_value(u, v):
        w0, w1, w2 = values(u)
        return -(v * v / 2.0) * w0 - v * w1 + (1.0 - v * v / 2.0) * w2

    def nu2_du(u, v):
        return (
            -(v * v / 2.0) * a0.derivative(u)
            - v * a1.derivative(u)
            + (1.0 - v * v / 2.0) * a2.derivative(u)
        )

    def nu2_dv(u, v):
        w0, w1, w2 = values(u)
        return -v * w0 - w1 - v * w2

    return FramedSurface(
        x=ParametricMap4(value=x_value, du=x_du, dv=x_dv),
        nu1=ParametricMap4(value=nu1_value, du=nu1_du, dv=zero4),
        nu2=ParametricMap4(value=nu2_value, du=nu2_du, dv=nu2_dv),
        domain=domain,
    )


def horocyclic_invariants(data: HorocyclicData) -> Callable[[float, float], Invariants]:
    """Closed-form invariant field of the swept surface in terms of h1..h6."""

    def field(u: float, v: float) -> Invariants:
        h1, h2, h3, h4, h5, h6 = (hi(u) for hi in data.h)
        w = v * v / 2.0
        return Invariants(
            a1=(1.0 + w) * h3 + v * h5 + w * h6,
            a2=0.0,
            b1=-v * h1 + h2 + v * h4,
            b2=0.0,
            c1=(w - 1.0) * h1 - v * h2 - w * h4,
            c2=-1.0,
            e1=w * h3 + v * h5 + (w - 1.0) * h6,
            e2=0.0,
            f1=v * h3 + h5 + v * h6,
            f2=0.0,
            g1=-w * h1 + v * h2 + (1.0 + w) * h4,
            g2=1.0,
        )

    return field


def horocyclic_alpha_beta(data: HorocyclicData) -> Callable[[float, float], tuple[float, float]]:
    """alpha = v h1 - h2 - v h4,  beta = (1 + v^2/2) h3 + v h5 + (v^2/2) h6."""

    def ab(u: float, v: float) -> tuple[float, float]:
        h1, h2, h3, h4, h5, h6 = (hi(u) for hi in data.h)
        w = v * v / 2.0
        return (v * h1 - h2 - v * h4, (1.0 + w) * h3 + v * h5 + w * h6)

    return ab


# ---------------------------------------------------------------------------
# curvature functions of a curve frame
# ---------------------------------------------------------------------------


def extract_h(
    a0: Curve4,
    a1: Curve4,
    a2: Curve4,
    u: float,
    h: float = H_STEP,
    tol: float = ORTHONORMAL_TOL,
) -> tuple[float, float, float, float, float, float]:
    """Read off h1..h6 at u by central differences of step ``h``.

    h1 = <a0', a1>, h2 = <a0', a2>, h3 = <a0', a3>, h4 = <a1', a2>,
    h5 = <a1', a3>, h6 = <a2', a3>.  The derivative always comes from the
    symmetric difference of the curve values (the step is part of the
    contract), never from a stored closed form.
    """
    w0 = np.asarray(a0.value(u), dtype=float)
    w1 = np.asarray(a1.value(u), dtype=float)
    w2 = np.asarray(a2.value(u), dtype=float)
    w3 = wedge3(w0, w1, w2)
    res = frame_gram_residual(w0, w1, w2, w3)
    if res > tol:
        raise DegenerateFrameError(
            f"curve frame Gram residual {res:.3e} at u = {u} exceeds {tol}"
        )

    def diff(c: Curve4) -> np.ndarray:
        return (
            np.asarray(c.value(u + h), dtype=float)
            - np.asarray(c.value(u - h), dtype=float)
        ) / (2.0 * h)

    d0, d1, d2 = diff(a0), diff(a1), diff(a2)
    return (
        minkowski_dot4(d0, w1),
        minkowski_dot4(d0, w2),
        minkowski_dot4(d0, w3),
        minkowski_dot4(d1, w2),
        minkowski_dot4(d1, w3),
        minkowski_dot4(d2, w3),
    )


# ---------------------------------------------------------------------------
# curve generation from h functions
# ---------------------------------------------------------------------------


def _mgs(state: np.ndarray) -> np.ndarray:
    """Re-orthonormalize rows (a0, a1, a2, *) pseudo-Gram-Schmidt style."""
    q0 = minkowski_dot4(state[0], state[0])
    if q0 >= 0.0:
        raise DegenerateFrameError(f"a0 lost timelikeness: <a0,a0> = {q0:.3e}")
    a0 = state[0] / math.sqrt(-q0)
    a1 = state[1] + minkowski_dot4(state[1], a0) * a0
    n1 = minkowski_dot4(a1, a1)
    a2 = state[2] + minkowski_dot4(state[2], a0) * a0
    if n1 <= 0.0:
        raise DegenerateFrameError("a1 degenerated during integration")
    a1 /= math.sqrt(n1)
    a2 -= minkowski_dot4(a2, a1) * a1
    n2 = minkowski_dot4(a2, a2)
    if n2 <= 0.0:
        raise DegenerateFrameError("a2 degenerated during integration")
    a2 /= math.sqrt(n2)
    return np.vstack([a0, a1, a2, wedge3(a0, a1, a2)])


def integrate_frame_curves(
    h_funcs: Sequence[Callable[[float], float]],
    a0_init,
    a1_init,
    a2_init,
    u_start: float,
    u_end: float,
    step: float = 1e-3,
    reorth_every: int = REORTH_EVERY,
) -> HorocyclicData:
    """Generate a curve frame by integrating the h system.

    The frame ODE has exactly the shape of the surface frame system with
    (a, b, c, e, f, g) = (h1, .., h6), so integration is delegated to
    :func:`h3frames.frames.integrate_frame_along_line` in chunks of
    ``reorth_every`` steps with a Gram-Schmidt pass between chunks (long
    runs otherwise lose pseudo-orthonormality at O(step^4 * length)).
    The returned curves interpolate the node states with cubic splines
    and re-orthonormalize pointwise, so the frame axioms hold to rounding
    at *every* u, not just the nodes.
    """
    if len(h_funcs) != 6:
        raise ValueError(f"expected 6 curvature functions, got {len(h_funcs)}")
    if not (u_end > u_start):
        raise ValueError(f"need u_end > u_start, got [{u_start}, {u_end}]")
    h1, h2, h3, h4, h5, h6 = h_funcs

    y = np.vstack(
        [
            np.asarray(a0_init, dtype=float),
            np.asarray(a1_init, dtype=float),
            np.asarray(a2_init, dtype=float),
            wedge3(a0_init, a1_init, a2_init),
        ]
    )
    res = frame_gram_residual(*y)
    if res > ORTHONORMAL_TOL:
        raise DegenerateFrameError(
            f"initial curve frame Gram residual {res:.3e} exceeds {ORTHONORMAL_TOL}"
        )

    def field(u: float, v: float) -> Invariants:
        return Invariants(
            a1=h1(u), a2=0.0, b1=h2(u), b2=0.0, c1=h3(u), c2=0.0,
            e1=h4(u), e2=0.0, f1=h5(u), f2=0.0, g1=h6(u), g2=0.0,
        )

    zero4 = np.zeros(4)
    us = [u_start]
    states = [y.copy()]
    t = u_start
    chunk = reorth_every * step
    while t < u_end - 1e-12 * max(1.0, abs(u_end)):
        span = min(chunk, u_end - t)
        start = FrameAt(
            u=t, v=0.0, x=y[0], nu1=y[1], nu2=y[2], nu3=y[3],
            xu=zero4, xv=zero4, nu1u=zero4, nu1v=zero4, nu2u=zero4, nu2v=zero4,
        )
        traj = integrate_frame_along_line(field, start, fixed_v(0.0), span, step)
        us.extend(traj.t[1:])
        states.extend(traj.frames[1:])
        y = _mgs(traj.frames[-1])
        states[-1] = y.copy()
        t = traj.t[-1]

    from scipy.interpolate import CubicSpline  # deferred: a slow import

    spline = CubicSpline(np.asarray(us), np.asarray(states), axis=0)

    def orthonormalized(u, k):
        """The k-th of a0, a1, a2 at u, by Gram-Schmidt on one spline value
        (node states stacked component-first; a float needs no move)."""
        s = spline(u)
        s = s if s.ndim == 2 else np.moveaxis(s, (-2, -1), (0, 1))
        b0 = s[0] / sqrt(-minkowski_dot4(s[0], s[0]))
        if k == 0:
            return b0
        w = s[1] + minkowski_dot4(s[1], b0) * b0
        b1 = w / sqrt(minkowski_dot4(w, w))
        if k == 1:
            return b1
        w = s[2] + minkowski_dot4(s[2], b0) * b0
        w = w - minkowski_dot4(w, b1) * b1
        return w / sqrt(minkowski_dot4(w, w))

    return HorocyclicData(
        a0=Curve4(value=lambda u: orthonormalized(u, 0)),
        a1=Curve4(value=lambda u: orthonormalized(u, 1)),
        a2=Curve4(value=lambda u: orthonormalized(u, 2)),
        h=tuple(h_funcs),
    )


# ---------------------------------------------------------------------------
# flatness classification
# ---------------------------------------------------------------------------


class HoroTag(enum.Enum):
    HORO_FLAT = "horo_flat"
    GENERALIZED_HORO_CONE = "generalized_horo_cone"
    HORO_CONE_SINGLE_VERTEX = "horo_cone_single_vertex"
    HORO_CONE_TWO_VERTICES = "horo_cone_two_vertices"
    CONICAL_HOROSPHERE = "conical_horosphere"
    GENERIC = "generic"


@dataclasses.dataclass(frozen=True)
class HoroClass:
    """Classification result; the ratio is set only for two-vertex cones."""

    tag: HoroTag
    two_vertex_ratio: Optional[float] = None


def _fit_ratio(num: np.ndarray, den: np.ndarray) -> Optional[float]:
    """Least-squares lambda with num ~ lambda * den; None when den is null."""
    d2 = float(np.dot(den, den))
    if d2 <= 0.0:
        return None
    return float(np.dot(num, den) / d2)


def classify_horocyclic(h_samples, tol: float = CLASS_TOL) -> HoroClass:
    """Most specific flatness class holding at every sample.

    ``h_samples`` is an (n, 6) array of h1..h6 values along the curve.
    Classes are tried from most to least specific; "= 0" means every
    sample within ``tol``, "!= 0" means every sample beyond ``tol`` (the
    source conditions quantify over all of I, we can only check the
    samples).  The two-vertex ratio must be a single constant: the
    least-squares fit is accepted only when its residual stays below
    ``tol``.
    """
    h = np.asarray(h_samples, dtype=float)
    if h.ndim != 2 or h.shape[1] != 6:
        raise ValueError(f"expected an (n, 6) sample array, got shape {h.shape}")
    if h.shape[0] < 2:
        raise ValueError("need at least 2 samples along the curve")
    h1, h2, h3, h4, h5, h6 = (h[:, j] for j in range(6))

    def zero(*cols) -> bool:
        return all(float(np.max(np.abs(c))) <= tol for c in cols)

    def nonzero(col) -> bool:
        return float(np.min(np.abs(col))) > tol

    cone = zero(h1, h2, h3, h4)
    if cone and zero(h6) and nonzero(h5):
        return HoroClass(HoroTag.CONICAL_HOROSPHERE)
    if cone and nonzero(h5):
        lam = _fit_ratio(h5, h6)
        if lam is not None and float(np.max(np.abs(h5 - lam * h6))) <= tol:
            return HoroClass(HoroTag.HORO_CONE_TWO_VERTICES, two_vertex_ratio=lam)
    if cone and zero(h5) and nonzero(h6):
        return HoroClass(HoroTag.HORO_CONE_SINGLE_VERTEX)
    if cone:
        return HoroClass(HoroTag.GENERALIZED_HORO_CONE)
    if zero(h2, h4 - h1):
        return HoroClass(HoroTag.HORO_FLAT)
    return HoroClass(HoroTag.GENERIC)


_HORO_CONSTANTS = {"a2": 0.0, "b2": 0.0, "c2": -1.0, "e2": 0.0, "f2": 0.0, "g2": 1.0}


def invariant_form_classify(
    inv_field: Callable[[float, float], Invariants],
    domain: Domain,
    tol: float = CLASS_TOL,
) -> HoroClass:
    """Flatness class read from the surface invariants over a (u, v) grid.

    Requires the field to have the horocyclic shape (a2 = b2 = 0,
    c2 = -1, e2 = f2 = 0, g2 = 1 within ``tol``), otherwise
    :class:`NotHorocyclicError`.  The conditions mirror
    :func:`classify_horocyclic` through the bridge identities
    c1 + g1 = h4 - h1, b1 - v (c1 + g1) = h2, a1 - e1 = h3 + h6,
    f1 - v (a1 - e1) = h5, (v^2 + 2) a1 - v^2 e1 - 2 v f1 = 2 h3.
    """
    rows = []
    for v in domain.v_grid():
        for u in domain.u_grid():
            q = inv_field(u, v)
            for name, want in _HORO_CONSTANTS.items():
                got = getattr(q, name)
                if abs(got - want) > tol:
                    raise NotHorocyclicError(
                        f"invariant {name} = {got:.6g} at ({u:.6g}, {v:.6g}), "
                        f"expected the horocyclic constant {want}"
                    )
            rows.append((v, q))

    c1 = np.array([q.c1 for _, q in rows])
    g1 = np.array([q.g1 for _, q in rows])
    b1 = np.array([q.b1 for _, q in rows])
    a1 = np.array([q.a1 for _, q in rows])
    e1 = np.array([q.e1 for _, q in rows])
    f1 = np.array([q.f1 for _, q in rows])
    v = np.array([vv for vv, _ in rows])

    bracket = (v * v + 2.0) * a1 - v * v * e1 - 2.0 * v * f1
    s = a1 - e1  # = h3 + h6
    r = f1 - v * s  # = h5

    def zero(*cols) -> bool:
        return all(float(np.max(np.abs(c))) <= tol for c in cols)

    def nonzero(col) -> bool:
        return float(np.min(np.abs(col))) > tol

    cone = zero(c1, g1, b1, bracket)
    if zero(c1, g1, b1, s, e1 - v * f1) and nonzero(f1):
        return HoroClass(HoroTag.CONICAL_HOROSPHERE)
    if cone and nonzero(r):
        lam = _fit_ratio(r, s)
        if lam is not None and float(np.max(np.abs(r - lam * s))) <= tol:
            return HoroClass(HoroTag.HORO_CONE_TWO_VERTICES, two_vertex_ratio=lam)
    if cone and zero(r) and nonzero(s):
        return HoroClass(HoroTag.HORO_CONE_SINGLE_VERTEX)
    if cone:
        return HoroClass(HoroTag.GENERALIZED_HORO_CONE)
    if zero(c1 + g1, b1):
        return HoroClass(HoroTag.HORO_FLAT)
    return HoroClass(HoroTag.GENERIC)


# ---------------------------------------------------------------------------
# h-profile CSV
# ---------------------------------------------------------------------------

_PROFILE_HEADER = ["u", "h1", "h2", "h3", "h4", "h5", "h6"]


@dataclasses.dataclass(frozen=True)
class HProfile:
    """Sampled curvature functions with cubic interpolation between samples."""

    u: np.ndarray
    values: np.ndarray  # shape (n, 6)
    _spline: CubicSpline

    @property
    def u_min(self) -> float:
        return float(self.u[0])

    @property
    def u_max(self) -> float:
        return float(self.u[-1])

    def at(self, u: float) -> np.ndarray:
        return np.asarray(self._spline(u), dtype=float)

    @property
    def h_funcs(self) -> HFuncs:
        return tuple(
            (lambda j: lambda u: float(self._spline(u)[j]))(j) for j in range(6)
        )


def load_h_profile(source: Union[str, Path, io.TextIOBase]) -> HProfile:
    """Read an h-profile CSV with header ``u,h1,h2,h3,h4,h5,h6``.

    The u column must be strictly increasing.  Fewer than four samples
    fall back to natural boundary conditions for the spline.
    """
    if hasattr(source, "read"):
        rows = list(csv.reader(source))
    else:
        with open(source, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
    rows = [r for r in rows if r and not r[0].lstrip().startswith("#")]
    if not rows or [c.strip() for c in rows[0]] != _PROFILE_HEADER:
        raise ValueError(
            f"h-profile header must be {','.join(_PROFILE_HEADER)!r}"
        )
    try:
        table = np.array([[float(c) for c in r] for r in rows[1:]], dtype=float)
    except ValueError as exc:
        raise ValueError(f"malformed h-profile row: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != 7 or table.shape[0] < 2:
        raise ValueError("h-profile needs >= 2 rows of 7 columns")
    u = table[:, 0]
    if not np.all(np.diff(u) > 0.0):
        raise ValueError("h-profile u column must be strictly increasing")
    from scipy.interpolate import CubicSpline  # deferred: a slow import

    bc = "not-a-knot" if len(u) >= 4 else "natural"
    return HProfile(u=u, values=table[:, 1:], _spline=CubicSpline(u, table[:, 1:], bc_type=bc))


_INITIAL_FRAME = (
    np.array([1.0, 0.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0, 0.0]),
    np.array([0.0, 0.0, 1.0, 0.0]),
)


def horocyclic_example_from_profile(
    path,
    domain: Optional[Domain] = None,
    v_span: tuple[float, float] = (-1.5, 1.5),
    step: float = 1e-3,
    **_,
):
    """Example-registry entry for ``horocyclic:<profile.csv>`` names.

    Integrates the curve frame from the standard initial frame over the
    profile's u range and sweeps the surface over ``v_span``.  The
    closed-form invariant field doubles as the oracle.
    """
    from .examples import ExampleEntry

    profile = load_h_profile(path)
    data = integrate_frame_curves(
        profile.h_funcs, *_INITIAL_FRAME, profile.u_min, profile.u_max, step=step
    )
    dom = domain or Domain(
        profile.u_min, profile.u_max, v_span[0], v_span[1], nu=21, nv=21
    )
    oracle = horocyclic_invariants(data)
    ab = horocyclic_alpha_beta(data)
    return ExampleEntry(
        name=f"horocyclic:{path}",
        framed=build_horocyclic(data, dom),
        oracle_invariants=oracle,
        oracle_alpha_beta=ab,
        known_singularities=(),
        notes="curve frame integrated from the h-profile; oracle is the closed form",
    )
