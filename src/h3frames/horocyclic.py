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
system (the same ODE shape as the surface frame system, so the surface
frame integrator's Magnus steps, which keep each frame pseudo-orthonormal
to rounding, cover the whole span in one call).  Between the nodes the
integrated curves are cubic Hermite pieces whose node slopes come from the
frame system, and their derivatives are the frame system itself,
a_k' = sum_j M_kj(h(u)) a_j.  The h functions, like curves and surface
maps, broadcast: an array of u values gives a component-first
``(4, *shape)`` curve value, so the swept surface evaluates whole grids.

An h-profile CSV gives h1..h6 as the C^2 cubic spline through its samples
(:class:`HProfile`).  Both splines are a few lines of numpy: one Hermite
evaluator, and one tridiagonal sweep for the profile's node slopes.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateFrameError, NotHorocyclicError, PreconditionError
from .frames import (
    FrameAt,
    FramedSurface,
    Invariants,
    _frame_ode_matrix,
    fixed_v,
    integrate_frame_along_line,
)
from .minkowski import frame_gram_residual, minkowski_dot4, wedge3
from .surface import Domain, ParametricMap4, _complex_step, evaluate, first_true, zero4

__all__ = [
    "ORTHONORMAL_TOL",
    "CLASS_TOL",
    "H_STEP",
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


@dataclasses.dataclass(frozen=True)
class Curve4:
    """Curve u -> R^4_1 with an optional exact derivative ``d`` (a closed
    form, or the frame system for integrated curves); without one,
    :meth:`derivative` takes the complex step, like a map's first partials."""

    value: Callable[[float], np.ndarray]
    d: Optional[Callable[[float], np.ndarray]] = None

    def derivative(self, u: float) -> np.ndarray:
        if self.d is not None:
            return evaluate(self.d, u)
        return _complex_step(self.value, 0, u)


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


def verify_horocyclic_data(data: HorocyclicData, us: Sequence[float]) -> float:
    """Max Gram residual of {a0, a1, a2, a3} over the given u samples (nan
    where a frame vector is not finite)."""
    u = np.asarray(us, dtype=float)
    vecs = (evaluate(c.value, u) for c in (data.a0, data.a1, data.a2))
    return float(np.max(frame_gram_residual(*vecs, data.a3(u)), initial=0.0))


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
    (the curve's own when it carries one, its complex step otherwise), so
    the surface maps always advertise closed firsts.
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
    """Closed-form invariant field of the swept surface in terms of h1..h6;
    it broadcasts over arrays ``u, v`` when the h functions do."""

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


def integrate_frame_curves(
    h_funcs: Sequence[Callable[[float], float]],
    a0_init,
    a1_init,
    a2_init,
    u_start: float,
    u_end: float,
    step: float = 1e-3,
) -> HorocyclicData:
    """Generate a curve frame by integrating the h system.

    The frame ODE has exactly the shape of the surface frame system with
    (a, b, c, e, f, g) = (h1, .., h6), so one call of
    :func:`h3frames.frames.integrate_frame_along_line` integrates it over
    the whole span; its Magnus steps keep every node frame
    pseudo-orthonormal to rounding.  The h functions must broadcast over an
    array of u (a constant may return a float).  The returned curves
    interpolate the node states with cubic Hermite splines whose node
    derivatives come from the ODE itself, M(u_k) Y_k, and
    re-orthonormalize pointwise, so the frame axioms hold to rounding at
    *every* u, not just the nodes.  Their derivatives come from the ODE
    too: a_k'(u) is row k of M(h(u)) times (a0, a1, a2, a3)(u).
    """
    if len(h_funcs) != 6:
        raise ValueError(f"expected 6 curvature functions, got {len(h_funcs)}")
    if not (u_end > u_start):
        raise ValueError(f"need u_end > u_start, got [{u_start}, {u_end}]")

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

    def field(u, v) -> Invariants:
        h1, h2, h3, h4, h5, h6 = (hi(u) for hi in h_funcs)
        return Invariants(
            a1=h1, a2=0.0, b1=h2, b2=0.0, c1=h3, c2=0.0,
            e1=h4, e2=0.0, f1=h5, f2=0.0, g1=h6, g2=0.0,
        )

    zero4 = np.zeros(4)
    start = FrameAt(
        u=u_start, v=0.0, x=y[0], nu1=y[1], nu2=y[2], nu3=y[3],
        xu=zero4, xv=zero4, nu1u=zero4, nu1v=zero4, nu2u=zero4, nu2v=zero4,
    )
    traj = integrate_frame_along_line(field, start, fixed_v(0.0), u_end - u_start, step)
    us = traj.t
    rows = np.stack([np.broadcast_to(hi(us), us.shape) for hi in h_funcs], -1)
    if not np.isfinite(rows).all():
        raise PreconditionError("non-finite curvature function at an integration node")
    slopes = _frame_ode_matrix(rows) @ traj.frames

    def frame(u):
        """a0, a1, a2 at u, by Gram-Schmidt on one spline value (node states
        stacked component-first)."""
        s = np.moveaxis(_hermite(us, traj.frames, slopes, u), (-2, -1), (0, 1))
        b0 = s[0] / np.sqrt(-minkowski_dot4(s[0], s[0]))
        w = s[1] + minkowski_dot4(s[1], b0) * b0
        b1 = w / np.sqrt(minkowski_dot4(w, w))
        w = s[2] + minkowski_dot4(s[2], b0) * b0
        w = w - minkowski_dot4(w, b1) * b1
        return b0, b1, w / np.sqrt(minkowski_dot4(w, w))

    def derivative(u, k):
        """a_k' at u from the frame system itself (row k of M):
        a0' = h1 a1 + h2 a2 + h3 a3, a1' = h1 a0 + h4 a2 + h5 a3,
        a2' = h2 a0 - h4 a1 + h6 a3."""
        h1, h2, h3, h4, h5, h6 = h_funcs
        a0, a1, a2 = frame(u)
        a3 = wedge3(a0, a1, a2)
        if k == 0:
            return h1(u) * a1 + h2(u) * a2 + h3(u) * a3
        if k == 1:
            return h1(u) * a0 + h4(u) * a2 + h5(u) * a3
        return h2(u) * a0 - h4(u) * a1 + h6(u) * a3

    return HorocyclicData(
        *(
            Curve4(value=lambda u, k=k: frame(u)[k], d=lambda u, k=k: derivative(u, k))
            for k in range(3)
        ),
        h=tuple(h_funcs),
    )


def _hermite(x, y, dy, u) -> np.ndarray:
    """Piecewise-cubic Hermite interpolant with values ``y`` and slopes
    ``dy`` (both ``(n, ...)``) at the increasing knots ``x``, evaluated at
    ``u`` (a float or an array); the result has shape
    ``u.shape + y.shape[1:]``.  Beyond the knots the end pieces extend.
    Each piece is summed in rising powers of s = u - x[k]; a complex u
    (a complex step) picks its piece by its real part."""
    u = np.asarray(u)
    k = np.searchsorted(x[1:-1], u.real, side="right")  # piece k spans [x[k], x[k + 1]]
    x0 = x[k]
    tail = (...,) + (None,) * (y.ndim - 1)
    s, h = (u - x0)[tail], (x[k + 1] - x0)[tail]
    y0, d0 = y[k], dy[k]
    slope = (y[k + 1] - y0) / h
    t = (d0 + dy[k + 1] - 2.0 * slope) / h
    return y0 + d0 * s + ((slope - d0) / h - t) * (s * s) + t / h * (s * s * s)


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
    U, V = domain.mesh()
    q = inv_field(U, V)

    def col(name):  # v-major, constants broadcast
        return np.broadcast_to(getattr(q, name), U.shape).ravel()

    names, wants = list(_HORO_CONSTANTS), list(_HORO_CONSTANTS.values())
    got = np.stack([col(name) for name in names])
    bad = np.abs(got - np.array(wants)[:, None]) > tol
    k = first_true(bad.any(axis=0))  # the first node, v-major
    if k is not None:
        j = first_true(bad[:, k])  # its first failing name
        raise NotHorocyclicError(
            f"invariant {names[j]} = {got[j, k]:.6g} at ({U.flat[k]:.6g}, {V.flat[k]:.6g}), "
            f"expected the horocyclic constant {wants[j]}"
        )

    c1, g1, b1, a1, e1, f1 = (col(name) for name in ("c1", "g1", "b1", "a1", "e1", "f1"))
    v = V.ravel()

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
    """Sampled curvature functions h1..h6 and the C^2 cubic spline through
    them, stored as its node slopes: not-a-knot ends for four or more
    samples, natural ends for two or three."""

    u: np.ndarray
    values: np.ndarray  # shape (n, 6)
    slopes: np.ndarray  # shape (n, 6), the spline's derivative at each u

    @property
    def u_min(self) -> float:
        return float(self.u[0])

    @property
    def u_max(self) -> float:
        return float(self.u[-1])

    def at(self, u) -> np.ndarray:
        """h1..h6 at u, shape ``(*shape(u), 6)``."""
        return _hermite(self.u, self.values, self.slopes, u)

    @property
    def h_funcs(self) -> HFuncs:
        """h1..h6 as functions of u, a float or an array."""

        def h(j):
            def hj(u):
                out = _hermite(self.u, self.values[:, j], self.slopes[:, j], u)
                return float(out) if isinstance(u, float) else out

            return hj

        return tuple(h(j) for j in range(6))


def load_h_profile(source: Union[str, Path, io.TextIOBase]) -> HProfile:
    """Read an h-profile CSV with header ``u,h1,h2,h3,h4,h5,h6``.

    Every value must be finite and the u column strictly increasing.
    Fewer than four samples fall back to natural end conditions for the
    spline.
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
    k = first_true(~np.isfinite(table).all(axis=1))
    if k is not None:
        raise ValueError(f"h-profile data row {k + 1} is not finite: {','.join(rows[k + 1])}")
    u = table[:, 0]
    if not np.all(np.diff(u) > 0.0):
        raise ValueError("h-profile u column must be strictly increasing")
    return HProfile(u=u, values=table[:, 1:], slopes=_spline_slopes(u, table[:, 1:]))


def _spline_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes ``(n, k)`` of the C^2 cubic spline through the rows of
    ``y`` at the increasing knots ``x``: not-a-knot ends for n >= 4,
    natural ends otherwise.  Continuity of the second derivative at the
    interior knots and the two end conditions give a tridiagonal system
    (de Boor, *A Practical Guide to Splines*, ch. IV), solved by one
    Thomas sweep over all k columns."""
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    lower, diag, upper = np.zeros(n), np.empty(n), np.zeros(n)
    rhs = np.empty_like(y)
    lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    if n >= 4:  # not-a-knot: the third derivative is continuous at x[1] and x[-2]
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        diag[-1], lower[-1] = dx[-2], d
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    else:  # natural: the second derivative vanishes at both ends
        diag[0], upper[0], rhs[0] = 2.0 * dx[0], dx[0], 3.0 * (y[1] - y[0])
        diag[-1], lower[-1], rhs[-1] = 2.0 * dx[-1], dx[-1], 3.0 * (y[-1] - y[-2])
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = np.empty_like(y)
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    return s


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
