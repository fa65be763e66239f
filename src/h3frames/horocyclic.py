"""Horocyclic surfaces: one-parameter families of horocycles.

A pseudo-orthonormal curve frame {a0, a1, a2, a3} along u (a0 timelike,
a3 = a0 ^ a1 ^ a2) sweeps the surface

    x(u, v) = (1 + v^2/2) a0(u) + v a1(u) + (v^2/2) a2(u),

which is framed by nu1 = a3 and nu2 = -(v^2/2) a0 - v a1 + (1 - v^2/2) a2.
The six curvature functions h1..h6 of the curve frame determine all twelve
surface invariants in closed form, and the flatness classification (horo-flat,
horo-cones, conical horosphere) reads off either the h functions or the
invariant field; both classifiers live here and must agree.

A curve frame is one callable, u -> (a0, a1, a2) stacked component-first,
given in closed form or by integrating the linear frame system (the same
ODE shape as the surface frame system, so the surface frame integrator's
Magnus steps, which keep each frame pseudo-orthonormal to rounding, cover
the whole span in one call).  Between the nodes the integrated frame is a
cubic Hermite spline of the node states, whose node slopes come from the
frame system, made pseudo-orthonormal pointwise.  Each swept map is a fixed
combination sum_k c_k(v) a_k(u), so one frame evaluation gives its value
and both its first partials: the u-partial comes from the frame system
itself, a_k' = sum_j M_kj a_j with M = ``frames._frame_ode_matrix`` of
(h1, .., h6).  The curvature functions are one callable too, u -> (h1, ..,
h6) stacked component-first, read once per evaluation.  Frames and h, like
surface maps, broadcast: an array of u values gives a component-first
``(3, 4, *shape)`` frame and ``(6, *shape)`` h, so the swept surface
evaluates whole grids.

An h-profile CSV gives h1..h6 as the C^2 cubic spline through its samples
(:class:`HProfile`).  Both splines are a few lines of numpy: one Hermite
evaluator, and one tridiagonal sweep for the profile's node slopes.  The
registry entry ``horocyclic:<path>`` is built by ``get_example`` from these
parts; this module knows no registry.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import operator
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import CLASS_TOL
from .errors import DegenerateFrameError, NotHorocyclicError, PreconditionError
from .frames import (
    FramedSurface,
    Invariants,
    _alpha_beta,
    _assemble,
    _field_at,
    _frame_ode_matrix,
    _in_space,
    integrate_frame_along_line,
)
from .minkowski import _bound, frame_gram_residual, minkowski_dot4, wedge3
from .surface import Domain, ParametricMap4, _broadcast, _complex_step, evaluate, first_true, zero4

__all__ = [
    "ORTHONORMAL_TOL",
    "CLASS_TOL",
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
]

#: Allowed Gram residual of the curve frame {a0, a1, a2, a3}.
ORTHONORMAL_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class Curve4:
    """Curve u -> R^4_1: a read-only view of one vector of a curve frame
    (:attr:`HorocyclicData.a0` .. ``a2``), or a curve given on its own to
    :func:`extract_h`.  :meth:`derivative` takes the complex step of the
    value, like a map's first partials."""

    value: Callable[[float], np.ndarray]

    def derivative(self, u: float) -> np.ndarray:
        return _complex_step(self.value, 0, u)


@dataclasses.dataclass(frozen=True)
class HorocyclicData:
    """Curve frame plus its six curvature functions.

    ``frame(u)`` gives (a0, a1, a2) stacked component-first, of shape
    ``(3, 4, *shape(u))``, and ``h(u)`` gives (h1, .., h6), of shape
    ``(6, *shape(u))``; a constant may return one ``(3, 4)`` stack or
    ``(6,)`` vector, which :meth:`at` or :func:`evaluate` broadcasts.
    ``h`` must be the frame's own curvature functions: the swept maps take
    every u-derivative from the frame system they define.  ``a0``, ``a1``
    and ``a2`` are read-only :class:`Curve4` views of the frame.
    """

    frame: Callable[[float], np.ndarray]
    h: Callable[[float], np.ndarray]

    a0, a1, a2 = (property(lambda self, k=k: Curve4(lambda u: self.at(u)[k])) for k in range(3))

    def at(self, u) -> np.ndarray:
        """``frame(u)`` as a float (or, at complex u, complex) array of
        shape ``(3, 4, *shape(u))``, or ``(3, k, *shape(u))`` for vectors of k components."""
        f = np.asarray(self.frame(u))
        return _broadcast(f.reshape((-1,) + f.shape[2:]), u).reshape((3, -1) + np.shape(u))


def _check_curve_frame(frame, where: str) -> None:
    """Refuse the curve frame (a0, a1, a2), at one u or many, with :class:`DegenerateFrameError` at the first
    u where the Gram residual of {a0, a1, a2, a0 ^ a1 ^ a2} is not within its bound; ``where`` ends the message."""
    with np.errstate(all="ignore"):
        vecs = (*frame, wedge3(*frame))
        res, bound = frame_gram_residual(*vecs), _bound(ORTHONORMAL_TOL, *vecs)
    k = first_true(~(res <= bound))
    if k is not None:
        r, b = res.flat[k], bound.flat[k]
        what = "is not finite" if np.isnan(b) else f"Gram residual {r:.3e} exceeds {b:.3e}"
        raise DegenerateFrameError(f"curve frame {what} {where}")


# ---------------------------------------------------------------------------
# surface construction and closed-form invariants
# ---------------------------------------------------------------------------


def build_horocyclic(data: HorocyclicData, domain: Domain) -> FramedSurface:
    """Sweep the curve frame into a framed surface.

    The curve-frame axioms are checked by :func:`_check_curve_frame` on the
    u grid of ``domain`` first, and only there: the surface keeps no window.
    A frame of vectors with other than 4 components raises
    :class:`PreconditionError`, and a violation :class:`DegenerateFrameError`.
    All three surface maps are closed jets; a map reads the frame once for
    its value and both its first partials (see :func:`_swept_map`).
    """
    frame = data.at(domain.u_grid())
    _in_space("build_horocyclic", frame[0], "H^3")
    _check_curve_frame(frame, "on the u grid")
    return FramedSurface(
        x=_swept_map(data, (0, 1, 2), lambda v: ((1.0 + v * v / 2.0, v, v * v / 2.0), (v, 1.0, v))),
        nu1=_swept_map(data, (3,), lambda v: ((1.0,), None)),
        nu2=_swept_map(data, (0, 1, 2), lambda v: ((-(v * v / 2.0), -v, 1.0 - v * v / 2.0), (-v, -1.0, -v))),
    )


def _swept_map(data: HorocyclicData, ks, c) -> ParametricMap4:
    """The map sum_k c_k(v) a_k(u) over the frame vectors a_k, k in ``ks``,
    as the closed jet with x_u = sum_k c_k a_k' and x_v = sum_k c_k' a_k,
    from one frame evaluation.  The coefficients are one callable,
    ``c(v) -> (c_k(v), c_k'(v))``, each tuple in the order of ``ks``; a None
    in place of the c_k' makes x_v zero.  Each a_k' is row k of the frame
    system (``frames._frame_ode_matrix`` of h1..h6, one call of h) applied
    to (a0, a1, a2, a3 = a0 ^ a1 ^ a2).  Each sum starts from its first
    term (not from 0, which would turn a -0.0 into +0.0)."""

    def combine(coeffs, vecs):
        return functools.reduce(operator.add, (ck * vk for ck, vk in zip(coeffs, vecs)))

    def jet(u, v):
        w = data.at(u)
        w = (*w, wedge3(*w))
        m = np.moveaxis(_frame_ode_matrix(np.moveaxis(evaluate(data.h, u), 0, -1), curved=True), (-2, -1), (0, 1))
        wk, dk = [w[k] for k in ks], [combine(m[k], w) for k in ks]
        cv, dcv = c(v)
        return combine(cv, wk), combine(cv, dk), zero4(u, v) if dcv is None else combine(dcv, wk)

    return ParametricMap4(jet=jet)


_HORO_CONSTANTS = {"a2": 0.0, "b2": 0.0, "c2": -1.0, "e2": 0.0, "f2": 0.0, "g2": 1.0}


def horocyclic_invariants(data: HorocyclicData) -> Callable[[float, float], Invariants]:
    """Closed-form invariant field of the swept surface in terms of h1..h6;
    it broadcasts over arrays ``u, v`` when ``data.h`` does."""

    def field(u: float, v: float) -> Invariants:
        h1, h2, h3, h4, h5, h6 = evaluate(data.h, u)
        w = v * v / 2.0
        return Invariants(
            a1=(1.0 + w) * h3 + v * h5 + w * h6,
            b1=-v * h1 + h2 + v * h4,
            c1=(w - 1.0) * h1 - v * h2 - w * h4,
            e1=w * h3 + v * h5 + (w - 1.0) * h6,
            f1=v * h3 + h5 + v * h6,
            g1=-w * h1 + v * h2 + (1.0 + w) * h4,
            **_HORO_CONSTANTS,
        )

    return field


def horocyclic_alpha_beta(data: HorocyclicData) -> Callable[[float, float], tuple[float, float]]:
    """(alpha, beta) of :func:`horocyclic_invariants`: alpha = -b1 =
    v h1 - h2 - v h4 and beta = a1 = (1 + v^2/2) h3 + v h5 + (v^2/2) h6."""
    return _alpha_beta(horocyclic_invariants(data))


# ---------------------------------------------------------------------------
# curvature functions of a curve frame
# ---------------------------------------------------------------------------


def extract_h(
    a0: Curve4,
    a1: Curve4,
    a2: Curve4,
    u: float,
) -> tuple[float, float, float, float, float, float]:
    """Read off h1..h6 at u from the curves' complex-step derivatives
    (:meth:`Curve4.derivative`).

    h1 = <a0', a1>, h2 = <a0', a2>, h3 = <a0', a3>, h4 = <a1', a2>,
    h5 = <a1', a3>, h6 = <a2', a3>.  A curve of other than 4 components
    raises :class:`PreconditionError`; a frame at u that fails its axioms
    (:func:`_check_curve_frame`), or is not finite, :class:`DegenerateFrameError`.
    """
    w0, w1, w2 = (_in_space("extract_h", np.asarray(a.value(u), dtype=float), "H^3") for a in (a0, a1, a2))
    _check_curve_frame((w0, w1, w2), f"at u = {u}")
    w3 = wedge3(w0, w1, w2)

    d0, d1, d2 = a0.derivative(u), a1.derivative(u), a2.derivative(u)
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
    h_funcs: Callable[[float], np.ndarray],
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
    :func:`h3frames.frames.integrate_frame_along_line` integrates it along
    u over the whole span; its Magnus steps keep every node frame
    pseudo-orthonormal to rounding.  ``h_funcs`` is one callable, u ->
    (h1, .., h6) of shape ``(6, *shape(u))`` like :attr:`HorocyclicData.h`,
    that broadcasts over an array of u (a constant may return one ``(6,)``
    vector); any other shape raises ``ValueError``, and a start vector of
    other than 4 components :class:`PreconditionError`.  The returned frame
    interpolates the node states with a cubic Hermite spline whose node
    derivatives come from the ODE itself, M(u_k) Y_k, and is made
    pseudo-orthonormal pointwise: the axioms hold to rounding at *every* u.
    """
    shape = evaluate(h_funcs, u_start).shape
    if shape != (6,):
        raise ValueError(f"expected h1..h6 as one (6,) vector at u = {u_start}, got shape {shape}")
    if not (u_end > u_start):
        raise ValueError(f"need u_end > u_start, got [{u_start}, {u_end}]")

    w = np.array([_in_space("integrate_frame_curves", a, "H^3") for a in (a0_init, a1_init, a2_init)], dtype=float)
    _check_curve_frame(w, f"at the start u = {u_start}")

    def field(u, v) -> Invariants:
        h1, h2, h3, h4, h5, h6 = evaluate(h_funcs, u)
        return Invariants(
            a1=h1, a2=0.0, b1=h2, b2=0.0, c1=h3, c2=0.0,
            e1=h4, e2=0.0, f1=h5, f2=0.0, g1=h6, g2=0.0,
        )

    start = _assemble(u_start, 0.0, *((a, np.zeros(4), np.zeros(4)) for a in w))
    traj = integrate_frame_along_line(field, start, "u", u_end - u_start, step)
    us = traj.t
    k = first_true(~np.isfinite(traj.frames).all(axis=(1, 2)))
    if k is not None:
        raise DegenerateFrameError(f"curve frame at u = {us[k]} is not finite")
    rows = np.moveaxis(evaluate(h_funcs, us), 0, -1)
    if not np.isfinite(rows).all():
        raise PreconditionError("non-finite curvature function at an integration node")
    slopes = _frame_ode_matrix(rows, curved=True) @ traj.frames

    def frame(u):
        """(a0, a1, a2) at u, shape ``(3, 4, *shape(u))``: Gram-Schmidt on
        one spline value of the node states (stacked component-first)."""
        s = np.moveaxis(_hermite(us, traj.frames, slopes, u), (-2, -1), (0, 1))
        with np.errstate(all="ignore"):  # a non-finite frame is refused downstream
            b0 = s[0] / np.sqrt(-minkowski_dot4(s[0], s[0]))
            w = s[1] + minkowski_dot4(s[1], b0) * b0
            b1 = w / np.sqrt(minkowski_dot4(w, w))
            w = s[2] + minkowski_dot4(s[2], b0) * b0
            w = w - minkowski_dot4(w, b1) * b1
            return np.stack((b0, b1, w / np.sqrt(minkowski_dot4(w, w))))

    return HorocyclicData(frame=frame, h=h_funcs)


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


def _zero(tol: float, *cols) -> bool:
    """Every sample of every column within ``tol`` of zero."""
    return all(float(np.max(np.abs(c))) <= tol for c in cols)


def _nonzero(tol: float, col) -> bool:
    """Every sample of the column beyond ``tol``."""
    return float(np.min(np.abs(col))) > tol


def _flatness_ladder(cone: bool, conical: bool, r, s, flat: bool, tol: float) -> HoroClass:
    """The flatness class from a classifier's own conditions, tried from
    most to least specific: conical horosphere, horo-cone with two vertices
    (r = lambda s for one constant lambda: the least-squares fit is accepted
    only when its residual stays within ``tol``), with a single vertex
    (r = 0, s != 0), generalized horo-cone, horo-flat, generic.  ``cone``,
    ``conical`` and ``flat`` are the classifier's tests of those classes,
    and r, s its samples of h5 and h6."""
    if conical:
        return HoroClass(HoroTag.CONICAL_HOROSPHERE)
    if cone and _nonzero(tol, r):
        d2 = float(np.dot(s, s))
        if d2 > 0.0:
            lam = float(np.dot(r, s) / d2)
            if float(np.max(np.abs(r - lam * s))) <= tol:
                return HoroClass(HoroTag.HORO_CONE_TWO_VERTICES, two_vertex_ratio=lam)
    if cone and _zero(tol, r) and _nonzero(tol, s):
        return HoroClass(HoroTag.HORO_CONE_SINGLE_VERTEX)
    if cone:
        return HoroClass(HoroTag.GENERALIZED_HORO_CONE)
    if flat:
        return HoroClass(HoroTag.HORO_FLAT)
    return HoroClass(HoroTag.GENERIC)


def classify_horocyclic(h_samples, tol: float = CLASS_TOL) -> HoroClass:
    """Most specific flatness class holding at every sample.

    ``h_samples`` is an (n, 6) array of h1..h6 values along the curve.
    "= 0" means every sample within ``tol``, "!= 0" means every sample
    beyond ``tol`` (the source conditions quantify over all of I, we can
    only check the samples): h1 = .. = h4 = 0 is a horo-cone, one with
    h6 = 0 and h5 != 0 a conical horosphere, and h2 = h4 - h1 = 0 a
    horo-flat surface (:func:`_flatness_ladder`).
    """
    h = np.asarray(h_samples, dtype=float)
    if h.ndim != 2 or h.shape[1] != 6:
        raise ValueError(f"expected an (n, 6) sample array, got shape {h.shape}")
    if h.shape[0] < 2:
        raise ValueError("need at least 2 samples along the curve")
    h1, h2, h3, h4, h5, h6 = (h[:, j] for j in range(6))
    cone = _zero(tol, h1, h2, h3, h4)
    conical = cone and _zero(tol, h6) and _nonzero(tol, h5)
    return _flatness_ladder(cone, conical, h5, h6, _zero(tol, h2, h4 - h1), tol)


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
    q = _field_at(inv_field, U, V)
    names, wants = list(_HORO_CONSTANTS), list(_HORO_CONSTANTS.values())
    got = np.stack([getattr(q, name).ravel() for name in names])  # v-major
    bad = np.abs(got - np.array(wants)[:, None]) > tol
    k = first_true(bad.any(axis=0))  # the first node, v-major
    if k is not None:
        j = first_true(bad[:, k])  # its first failing name
        raise NotHorocyclicError(
            f"invariant {names[j]} = {got[j, k]:.6g} at ({U.flat[k]:.6g}, {V.flat[k]:.6g}), "
            f"expected the horocyclic constant {wants[j]}"
        )

    c1, g1, b1, a1, e1, f1 = (getattr(q, name).ravel() for name in ("c1", "g1", "b1", "a1", "e1", "f1"))
    v = V.ravel()

    bracket = (v * v + 2.0) * a1 - v * v * e1 - 2.0 * v * f1
    s = a1 - e1  # = h3 + h6
    r = f1 - v * s  # = h5
    cone = _zero(tol, c1, g1, b1, bracket)
    conical = _zero(tol, c1, g1, b1, s, e1 - v * f1) and _nonzero(tol, f1)
    return _flatness_ladder(cone, conical, r, s, _zero(tol, c1 + g1, b1), tol)


# ---------------------------------------------------------------------------
# h-profile CSV
# ---------------------------------------------------------------------------

_PROFILE_HEADER = ["u", "h1", "h2", "h3", "h4", "h5", "h6"]


@dataclasses.dataclass(frozen=True)
class HProfile:
    """Sampled curvature functions h1..h6 and the C^2 cubic spline through
    them, stored as its node slopes: not-a-knot ends for four or more
    samples, natural ends for two or three.  :meth:`h_funcs` evaluates it,
    in the shape of :attr:`HorocyclicData.h`."""

    u: np.ndarray
    values: np.ndarray  # shape (n, 6)
    slopes: np.ndarray  # shape (n, 6), the spline's derivative at each u

    @property
    def u_min(self) -> float:
        return float(self.u[0])

    @property
    def u_max(self) -> float:
        return float(self.u[-1])

    def domain(self) -> Domain:
        """Default grid of the swept surface: the profile's u range times
        [-1.5, 1.5], 21 x 21 points."""
        return Domain(self.u_min, self.u_max, -1.5, 1.5, nu=21, nv=21)

    def h_funcs(self, u) -> np.ndarray:
        """h1..h6 at u, a float or an array, stacked component-first: shape
        ``(6, *shape(u))``, from one spline evaluation of the whole table."""
        return np.moveaxis(_hermite(self.u, self.values, self.slopes, u), -1, 0)

    def curve_frame(self) -> HorocyclicData:
        """The curve frame integrated from the standard initial frame
        (a0, a1, a2) = (e1, e2, e3) over the profile's u range."""
        return integrate_frame_curves(self.h_funcs, *np.eye(4)[:3], self.u_min, self.u_max)


def load_h_profile(path: Union[str, Path]) -> HProfile:
    """Read an h-profile CSV file with header ``u,h1,h2,h3,h4,h5,h6``.

    Every value must be finite and the u column strictly increasing.
    Fewer than four samples fall back to natural end conditions for the
    spline.  A profile whose spline overflows (a u span near the float
    limit) is refused.
    """
    with open(path, newline="", encoding="ascii") as fh:
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
    try:
        with np.errstate(over="raise", invalid="raise"):
            slopes = _spline_slopes(u, table[:, 1:])
    except FloatingPointError as exc:
        span = f"[{float(u[0])!r}, {float(u[-1])!r}]"
        raise ValueError(f"h-profile spline overflows on the u span {span}") from exc
    return HProfile(u=u, values=table[:, 1:], slopes=slopes)


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

