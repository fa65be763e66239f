"""Parametric maps, 2-jets and rectangular domains.

A :class:`ParametricMap4` wraps an evaluator ``(u, v) -> ndarray``
together with optional closed-form partial derivatives.  Evaluators
broadcast: ``u`` and ``v`` are Python floats or arrays of one shape, and
the result is component-first, of shape ``(k, *shape)`` - ``(k,)`` for
floats.  Build results with :func:`components`, which accepts constant
components beside array ones, and write formulas with ``np.`` functions
rather than ``math.`` (or with :func:`sqrt`, :func:`sin`, :func:`cos`
here, which take the faster ``math`` route for one float), and powers as
products.  A map may also return one constant ``(k,)``
vector; :func:`evaluate` broadcasts it over the grid.  Every grid sweep
evaluates a whole ``(nv, nu)`` grid (:meth:`Domain.mesh`, v-major) in one
call, and a refusal names the first offending point in v-major order.

Whatever is not supplied in closed form is obtained by central finite
differences:

* first partials: 2-point stencil, step ``h1`` (default ``1e-5``),
* pure second partials: 3-point stencil, step ``h2`` (default ``1e-4``),
* mixed partial: 4-corner stencil, step ``h2``.

When closed-form first derivatives are available, second derivatives are
taken as 2-point central differences *of the closed-form firsts* with step
``h2``; this keeps one derivative order exact and is how the built-in
example surfaces are set up.

Despite the name, the same machinery evaluates maps into R^3 (model
transports use it); only :func:`check_on_h3` insists on four components.

Jets are recomputed on every call - no caching, so perturbed evaluators
behave predictably in convergence studies.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .errors import BoundaryError
from .minkowski import minkowski_dot4

__all__ = [
    "H1_DEFAULT",
    "H2_DEFAULT",
    "Domain",
    "Jet2",
    "ParametricMap4",
    "OnH3Report",
    "components",
    "evaluate",
    "first_true",
    "zero4",
    "sqrt",
    "sin",
    "cos",
    "evaluate_jet",
    "first_partials",
    "check_on_h3",
    "fd_convergence_ratio",
]

#: Default central-difference step for first derivatives.
H1_DEFAULT = 1e-5
#: Default central-difference step for second derivatives.
H2_DEFAULT = 1e-4

VecFn = Callable[[float, float], np.ndarray]


@dataclasses.dataclass(frozen=True)
class Domain:
    """Closed rectangle [u_min, u_max] x [v_min, v_max] with a sampling grid.

    ``nu`` / ``nv`` are the number of grid points per direction (>= 2).
    ``u_period``, when set, declares that the surface is periodic in u with
    that period; downstream consumers use it to identify period-equivalent
    points (it does not affect evaluation).
    """

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    nu: int = 21
    nv: int = 21
    u_period: Optional[float] = None

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError(
                f"empty domain: [{self.u_min}, {self.u_max}] x "
                f"[{self.v_min}, {self.v_max}]"
            )
        if self.nu < 2 or self.nv < 2:
            raise ValueError(f"grid needs at least 2x2 points, got {self.nu}x{self.nv}")
        if self.u_period is not None and self.u_period <= 0:
            raise ValueError(f"u_period must be positive, got {self.u_period}")

    def u_grid(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.nu)

    def v_grid(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.nv)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid arrays ``(U, V)`` of shape ``(nv, nu)``; flat order is v-major."""
        return np.meshgrid(self.u_grid(), self.v_grid())

    def cell(self) -> tuple[float, float]:
        """Grid spacing (du, dv)."""
        return (
            (self.u_max - self.u_min) / (self.nu - 1),
            (self.v_max - self.v_min) / (self.nv - 1),
        )

    def contains(self, u: float, v: float, margin: float = 0.0) -> bool:
        return (
            self.u_min + margin <= u <= self.u_max - margin
            and self.v_min + margin <= v <= self.v_max - margin
        )

    def shrunk(self, margin_u: float, margin_v: float) -> "Domain":
        """Domain pulled in by the given margins (same grid counts)."""
        return dataclasses.replace(
            self,
            u_min=self.u_min + margin_u,
            u_max=self.u_max - margin_u,
            v_min=self.v_min + margin_v,
            v_max=self.v_max - margin_v,
        )


@dataclasses.dataclass(frozen=True)
class Jet2:
    """Value and partial derivatives through order two at one point."""

    x: np.ndarray
    xu: np.ndarray
    xv: np.ndarray
    xuu: np.ndarray
    xuv: np.ndarray
    xvv: np.ndarray


@dataclasses.dataclass(frozen=True)
class ParametricMap4:
    """Point evaluator with optional closed-form partials.

    ``domain`` restricts where finite-difference stencils may be centered;
    maps given by globally valid formulas leave it ``None``.
    """

    value: VecFn
    du: Optional[VecFn] = None
    dv: Optional[VecFn] = None
    duu: Optional[VecFn] = None
    duv: Optional[VecFn] = None
    dvv: Optional[VecFn] = None
    h1: float = H1_DEFAULT
    h2: float = H2_DEFAULT
    domain: Optional[Domain] = None

    def __post_init__(self):
        if self.h1 <= 0 or self.h2 <= 0:
            raise ValueError("finite-difference steps must be positive")
        if (self.du is None) != (self.dv is None):
            raise ValueError("supply both first partials or neither")

    @property
    def has_closed_firsts(self) -> bool:
        return self.du is not None

    @property
    def has_closed_seconds(self) -> bool:
        return self.duu is not None and self.duv is not None and self.dvv is not None

    def without_derivatives(self) -> "ParametricMap4":
        """Copy that evaluates everything by finite differences."""
        return dataclasses.replace(
            self, du=None, dv=None, duu=None, duv=None, dvv=None
        )


def components(*values) -> np.ndarray:
    """Component-first array from scalars and equal-shape arrays (float
    unless every component is an integer)."""
    try:
        return np.array(values)
    except ValueError:  # constant components beside grid-shaped ones
        return np.array(np.broadcast_arrays(*values), dtype=float)


def _scalar_fast(np_fn, math_fn):
    """``np_fn``, computed by ``math_fn`` on the floats it accepts: the two round
    sqrt, sin and cos identically, and math is several times faster on one."""

    def fn(x):
        try:
            return math_fn(x)
        except (TypeError, ValueError):  # arrays, negative radicands, infinities
            return np_fn(x)

    return fn


sqrt = _scalar_fast(np.sqrt, math.sqrt)
sin = _scalar_fast(np.sin, math.sin)
cos = _scalar_fast(np.cos, math.cos)


def zero4(u, v) -> np.ndarray:
    """The zero map into R^4_1, shaped like ``u``."""
    return np.zeros((4,) + getattr(u, "shape", ()))


def evaluate(fn: VecFn, u, *args) -> np.ndarray:
    """``fn(u, *args)`` as a float array of shape ``(k, *shape(u))``."""
    out = np.asarray(fn(u, *args), dtype=float)
    shape = getattr(u, "shape", ())  # np.shape costs a microsecond per float
    if out.shape[1:] != shape:  # one constant vector for the whole grid
        out = np.broadcast_to(out.reshape((-1,) + (1,) * len(shape)), out.shape[:1] + shape)
    return out


def first_true(mask) -> Optional[int]:
    """Flat (v-major) index of the first True entry of ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _check_margin(m: ParametricMap4, u, v, h: float):
    if m.domain is None:
        return
    d, m2 = m.domain, 2.0 * h
    u, v = np.asarray(u), np.asarray(v)
    k = first_true(~((d.u_min + m2 <= u) & (u <= d.u_max - m2)
                     & (d.v_min + m2 <= v) & (v <= d.v_max - m2)))
    if k is not None:
        raise BoundaryError(
            f"point ({u.flat[k]}, {v.flat[k]}) is closer than "
            f"2h = {m2} to the boundary of [{d.u_min}, {d.u_max}] x [{d.v_min}, {d.v_max}]"
        )


def first_partials(m: ParametricMap4, u, v):
    """(x, x_u, x_v) without touching second derivatives."""
    x = evaluate(m.value, u, v)
    if m.has_closed_firsts:
        return x, evaluate(m.du, u, v), evaluate(m.dv, u, v)
    h = m.h1
    _check_margin(m, u, v, h)
    xu = (evaluate(m.value, u + h, v) - evaluate(m.value, u - h, v)) / (2.0 * h)
    xv = (evaluate(m.value, u, v + h) - evaluate(m.value, u, v - h)) / (2.0 * h)
    return x, xu, xv


def evaluate_jet(m: ParametricMap4, u: float, v: float) -> Jet2:
    """Full 2-jet of the map at (u, v).

    Raises :class:`BoundaryError` when a finite-difference stencil would
    leave the declared domain (interior margin 2h for the step used).
    """
    x, xu, xv = first_partials(m, u, v)

    if m.has_closed_seconds:
        return Jet2(x, xu, xv, *(evaluate(fn, u, v) for fn in (m.duu, m.duv, m.dvv)))

    h = m.h2
    _check_margin(m, u, v, h)
    if m.has_closed_firsts:
        # Central differences of the exact first partials.
        xuu = (evaluate(m.du, u + h, v) - evaluate(m.du, u - h, v)) / (2.0 * h)
        xvv = (evaluate(m.dv, u, v + h) - evaluate(m.dv, u, v - h)) / (2.0 * h)
        xuv = (evaluate(m.du, u, v + h) - evaluate(m.du, u, v - h)) / (2.0 * h)
        return Jet2(x, xu, xv, xuu, xuv, xvv)

    f = lambda uu, vv: evaluate(m.value, uu, vv)
    xuu = (f(u + h, v) - 2.0 * x + f(u - h, v)) / (h * h)
    xvv = (f(u, v + h) - 2.0 * x + f(u, v - h)) / (h * h)
    xuv = (f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h) + f(u - h, v - h)) / (
        4.0 * h * h
    )
    return Jet2(x, xu, xv, xuu, xuv, xvv)


@dataclasses.dataclass(frozen=True)
class OnH3Report:
    """Residuals of the hyperboloid constraints at one point."""

    on_h3_residual: float  # | <x,x> + 1 |
    xu_tangency_residual: float  # | <x, x_u> |
    xv_tangency_residual: float  # | <x, x_v> |
    positive_branch: bool  # x1 > 0

    def ok(self, tol: float) -> bool:
        return (
            self.positive_branch
            and self.on_h3_residual <= tol
            and self.xu_tangency_residual <= tol
            and self.xv_tangency_residual <= tol
        )


def check_on_h3(m: ParametricMap4, u: float, v: float) -> OnH3Report:
    """Residuals telling how far the map is from H^3 at (u, v)."""
    x, xu, xv = first_partials(m, u, v)
    if x.shape != (4,):
        raise ValueError(f"check_on_h3 needs a map into R^4_1, got shape {x.shape}")
    return OnH3Report(
        on_h3_residual=abs(minkowski_dot4(x, x) + 1.0),
        xu_tangency_residual=abs(minkowski_dot4(x, xu)),
        xv_tangency_residual=abs(minkowski_dot4(x, xv)),
        positive_branch=bool(x[0] > 0),
    )


def fd_convergence_ratio(m: ParametricMap4, u: float, v: float, order: int = 1):
    """Error-reduction factor when the FD step is halved.

    Compares the stencil at the map's configured step and at half that step
    against closed-form derivatives (which the map must carry for the
    requested order).  Returns the max-norm error ratio err(h) / err(h/2);
    second-order stencils give ratios near 4 while truncation dominates.
    """
    if order == 1:
        if not m.has_closed_firsts:
            raise ValueError("need closed-form first partials as reference")
        exact = np.concatenate((m.du(u, v), m.dv(u, v)))
        stripped = m.without_derivatives()
        approx = []
        for h in (m.h1, m.h1 / 2.0):
            probe = dataclasses.replace(stripped, h1=h)
            _, xu, xv = first_partials(probe, u, v)
            approx.append(np.concatenate((xu, xv)))
    elif order == 2:
        if not m.has_closed_seconds:
            raise ValueError("need closed-form second partials as reference")
        exact = np.concatenate((m.duu(u, v), m.duv(u, v), m.dvv(u, v)))
        stripped = m.without_derivatives()
        approx = []
        for h in (m.h2, m.h2 / 2.0):
            probe = dataclasses.replace(stripped, h2=h)
            jet = evaluate_jet(probe, u, v)
            approx.append(np.concatenate((jet.xuu, jet.xuv, jet.xvv)))
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")

    err_h = float(np.max(np.abs(approx[0] - exact)))
    err_h2 = float(np.max(np.abs(approx[1] - exact)))
    if err_h2 == 0.0:
        return float("inf")
    return err_h / err_h2
