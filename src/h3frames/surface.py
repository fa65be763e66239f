"""Parametric maps, first partials and rectangular domains.

A :class:`ParametricMap4` wraps either a value ``(u, v) -> x`` or a
closed-form jet ``(u, v) -> (x, x_u, x_v)``: the value and both first
partials from one call, which computes their shared terms once.
Evaluators broadcast: ``u`` and ``v`` are Python floats or arrays of one
shape, and the value (and each partial) is component-first, of shape
``(k, *shape)`` - ``(k,)`` for floats, or one constant ``(k,)`` vector
that evaluation broadcasts over the grid.  Build results with
:func:`components`, which accepts constant components beside array ones,
and write formulas with ``np.`` functions rather than ``math.``, and
powers as products.  Every grid sweep evaluates a whole ``(nv, nu)`` grid
(:meth:`Domain.mesh`, v-major) in one call, and a refusal names the first
offending point in v-major order.

First partials are the map's one jet call when it has a jet, and
otherwise complex-step derivatives Im f(u + ih, v) / h, with h far
below rounding (Squire & Trapp 1998; Martins, Sturdza & Alonso 2003): one
evaluation per direction, no subtraction, exact to rounding wherever the
map is defined, up to its boundary.  So map values must be
complex-analytic numpy formulas of u and v: no ``math.`` functions, no
``abs``, ``np.hypot`` or float casts, and refusal checks read the real
part.  A value read of a jet map evaluates the whole jet, at complex
points too, so its partials must be finite wherever its value is read.
Only a partial taken inside another complex step is a central difference
(:func:`_complex_step`); the fallback normal of
:func:`h3frames.projections.lift_from_r31` is the one map that takes one.
No map needs second partials: classification reads second-order
information from the invariants on a complex torus
(:mod:`h3frames.singularities`).

Despite the name, the same machinery evaluates maps into R^3: the ball
model's framed surfaces are such maps.

Partials are recomputed on every call - no caching, so perturbed
evaluators behave predictably in convergence studies.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Domain",
    "MAX_GRID_POINTS",
    "ParametricMap4",
    "components",
    "evaluate",
    "first_true",
    "zero4",
    "first_partials",
    "fd_convergence_ratio",
]

#: Most points a :class:`Domain` grid may have (2048 x 2048); a sweep holds
#: several arrays of that size, so a larger grid is refused before any is
#: allocated.
MAX_GRID_POINTS = 1 << 22

#: Step of a central-difference partial taken inside a complex step.
_H_NESTED = 1e-5

#: Central-difference step that :func:`fd_convergence_ratio` halves.
_FD_STEP = 1e-3

#: Imaginary step of the complex-step derivative.  Its product with any
#: derivative is far below the rounding of the value, so the imaginary
#: part carries the derivative alone.
_STEP = 1e-20

VecFn = Callable[[float, float], np.ndarray]


@dataclasses.dataclass(frozen=True)
class Domain:
    """Closed rectangle [u_min, u_max] x [v_min, v_max] with a sampling grid.

    A window is an argument of each call that samples; maps and framed
    surfaces carry none.  ``nu`` / ``nv`` are the number of grid points per
    direction (>= 2, at most :data:`MAX_GRID_POINTS` in all).
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
        box = f"[{self.u_min}, {self.u_max}] x [{self.v_min}, {self.v_max}]"
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError(f"empty domain: {box}")
        if not np.isfinite([self.u_min, self.u_max, self.v_min, self.v_max]).all():
            raise ValueError(f"domain bounds must be finite: {box}")
        if self.nu < 2 or self.nv < 2:
            raise ValueError(f"grid needs at least 2x2 points, got {self.nu}x{self.nv}")
        if self.nu * self.nv > MAX_GRID_POINTS:
            raise ValueError(
                f"grid of {self.nu}x{self.nv} points exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )
        if self.u_period is not None and not 0.0 < self.u_period < np.inf:
            raise ValueError(f"u_period must be positive and finite, got {self.u_period}")

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

    def contains(self, u, v, margin: float = 0.0):
        """Whether (u, v) lies in the box pulled in by ``margin``; floats or arrays."""
        return (
            (self.u_min + margin <= u) & (u <= self.u_max - margin)
            & (self.v_min + margin <= v) & (v <= self.v_max - margin)
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
class ParametricMap4:
    """A map given by exactly one of its ``value(u, v) -> x`` or its closed
    ``jet(u, v) -> (x, x_u, x_v)``; a jet map's value is its jet's first item."""

    value: Optional[VecFn] = None
    jet: Optional[Callable[[float, float], tuple]] = None

    def __post_init__(self):
        if (self.value is None) == (self.jet is None):
            raise TypeError("a ParametricMap4 takes exactly one of value and jet")
        if self.value is None:
            jet = self.jet
            object.__setattr__(self, "value", lambda u, v: jet(u, v)[0])

    @property
    def has_closed_firsts(self) -> bool:
        """Whether the first partials are closed-form: the map has a jet."""
        return self.jet is not None

    def without_derivatives(self) -> "ParametricMap4":
        """The value-only map, whose first partials come from the complex step."""
        return ParametricMap4(self.value)


def components(*values) -> np.ndarray:
    """Component-first array from scalars and equal-shape arrays (complex
    when a component is, integer when every component is, else float)."""
    try:
        return np.array(values)
    except ValueError:  # constant components beside grid-shaped ones
        return np.array(np.broadcast_arrays(*values))


def zero4(u, v) -> np.ndarray:
    """The zero map into R^4_1, shaped like ``u``."""
    return np.zeros((4,) + getattr(u, "shape", ()))


def evaluate(fn: VecFn, u, *args) -> np.ndarray:
    """``fn(u, *args)`` as a float (or, at complex arguments, complex)
    array of shape ``(k, *shape(u))``."""
    return _broadcast(fn(u, *args), u)


def _broadcast(out, u) -> np.ndarray:
    """A map's output at ``u`` in :func:`evaluate`'s float, grid-shaped form."""
    out = np.asarray(out)
    out = out.astype(np.result_type(out, float), copy=False)
    shape = getattr(u, "shape", ())  # np.shape costs a microsecond per float
    if out.shape[1:] != shape:  # one constant vector for the whole grid
        out = np.broadcast_to(out.reshape((-1,) + (1,) * len(shape)), out.shape[:1] + shape)
    return out


def first_true(mask) -> Optional[int]:
    """Flat (v-major) index of the first True entry of ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _complex_step(fn, k: int, *args) -> np.ndarray:
    """Partial of ``fn`` in its ``k``-th argument, Im fn(.., a + ih, ..) / h,
    shaped like :func:`evaluate`'s result.  A float point goes in as a
    1-element array: numpy rounds complex scalars differently from arrays,
    and one point must round as it does inside a grid.

    One imaginary unit carries one derivative, so complex steps do not
    nest: inside one (a map whose value takes partials, being itself
    differentiated) the partial is a central difference of step
    :data:`_H_NESTED`, and the outer derivative is good to about 1e-10."""
    if any(np.iscomplexobj(a) for a in args):
        hi, lo = list(args), list(args)
        hi[k], lo[k] = args[k] + _H_NESTED, args[k] - _H_NESTED
        return (evaluate(fn, *hi) - evaluate(fn, *lo)) / (2.0 * _H_NESTED)
    pts = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    shape = pts[0].shape
    pts = [p.reshape(shape or (1,)) for p in pts]
    pts[k] = pts[k] + 1j * _STEP
    d = evaluate(fn, *pts).imag / _STEP
    return d.reshape(d.shape[:1] + shape)


def first_partials(m: ParametricMap4, u, v):
    """(x, x_u, x_v) at (u, v): one call of the map's jet when it has one,
    its value and complex-step derivatives otherwise."""
    if m.jet is None:
        return evaluate(m.value, u, v), _complex_step(m.value, 0, u, v), _complex_step(m.value, 1, u, v)
    return tuple(_broadcast(d, u) for d in m.jet(u, v))


def fd_convergence_ratio(m: ParametricMap4, u: float, v: float):
    """Error-reduction factor of central-difference first partials when
    the step is halved, from 1e-3 to 5e-4.

    Takes the 2-point stencil of the map's values at both steps against
    the map's closed-form first partials, and returns the max-norm error
    ratio err(h) / err(h/2); the 2-point stencil gives ratios near 4
    while truncation dominates.
    """
    if m.jet is None:
        raise ValueError("need closed-form first partials as reference")
    exact = np.concatenate(m.jet(u, v)[1:])
    err = []
    for h in (_FD_STEP, _FD_STEP / 2.0):
        xu = (evaluate(m.value, u + h, v) - evaluate(m.value, u - h, v)) / (2.0 * h)
        xv = (evaluate(m.value, u, v + h) - evaluate(m.value, u, v - h)) / (2.0 * h)
        err.append(float(np.max(np.abs(np.concatenate((xu, xv)) - exact))))
    if err[1] == 0.0:
        return float("inf")
    return err[0] / err[1]
