"""Moving frames and basic invariants of framed surfaces in H^3 and R^3.

A framed surface is a map ``x`` with two unit normal fields ``nu1``,
``nu2``.  In H^3 (maps into R^4_1, x on the hyperboloid) the frame
``{x, nu1, nu2, nu3}`` with ``nu3 = x ^ nu1 ^ nu2`` is pseudo-orthonormal;
in Euclidean R^3 (maps with 3 components, such as the ball model's image)
``{nu1, nu2, nu3}`` with ``nu3 = nu1 x nu2`` is orthonormal.
:func:`_geometry` reads which from the maps' number of components.  Every
call here takes either geometry but ``frame_from_normal``, which refuses
R^3 (:func:`_in_space`).  The twelve basic invariants are the connection
coefficients of that frame, the same inner products in both geometries:

    x_u   =  a1 nu1 + b1 nu2 + c1 nu3
    nu1_u =  a1 x + e1 nu2 + f1 nu3
    nu2_u =  b1 x - e1 nu1 + g1 nu3
    nu3_u =  c1 x - f1 nu1 - g1 nu2

(without the x terms in R^3) and the same with index 2 for
v-derivatives.  The derived quantities

    alpha = b1 c2 - b2 c1,     beta = c1 a2 - c2 a1

vanish simultaneously exactly at the singular points of x.

Frames and invariants are evaluated by one code path for one point and
for whole grids: ``u, v`` may be floats or equal-shape arrays, and then
every field of :class:`FrameAt` / :class:`Invariants` is an array too.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Callable, Optional

import numpy as np

from . import FRAME_TOL
from .errors import DegenerateAnglesError, DegenerateFrameError, PreconditionError
from .minkowski import (
    _bound,
    _gram_deviation,
    _h3_fault,
    _on_h3,
    euclid_cross,
    euclid_dot,
    frame_gram_residual,
    minkowski_dot4,
    wedge3,
)
from .fmt import fmt_rows
from .surface import Domain, ParametricMap4, components, evaluate, first_partials, first_true

__all__ = [
    "FRAME_TOL",
    "GRAM_DEGENERATE_TOL",
    "H_INVARIANT",
    "MAX_STEPS",
    "FramedSurface",
    "FrameAt",
    "Invariants",
    "ReflectVariant",
    "ReductionType",
    "ReductionResult",
    "FamilyCurvature",
    "FramedResidualSummary",
    "IntegrabilityResiduals",
    "FrameTrajectory",
    "frame_at",
    "basic_invariants",
    "invariants_at",
    "invariants_grid",
    "invariant_field",
    "invariant_partials",
    "verify_framed",
    "integrability_residuals",
    "reflect",
    "rotate_frame",
    "rotated_invariants",
    "reparametrize_invariants",
    "frame_from_normal",
    "reduction_type",
    "reduction_type_grid",
    "family_curvatures",
    "integrate_frame_along_line",
    "INVARIANT_CSV_HEADER",
    "write_invariants_csv",
]

#: Pseudo-orthonormality residual beyond which invariant extraction refuses.
GRAM_DEGENERATE_TOL = 1e-4
#: Below this rho = sqrt(n2^2 + n3^2) a normal's spherical angles are undefined.
_ANGLE_TOL = 1e-12
#: Step of every central difference of an invariant field (:func:`invariant_partials`).
H_INVARIANT = 1e-5

_INVARIANT_NAMES = ("a1", "a2", "b1", "b2", "c1", "c2", "e1", "e2", "f1", "f2", "g1", "g2")

INVARIANT_CSV_HEADER = ",".join(("u", "v") + _INVARIANT_NAMES + ("alpha", "beta"))


@dataclasses.dataclass(frozen=True)
class FramedSurface:
    """Surface map plus the two normal fields, all into R^4_1 (a surface
    in H^3) or all into R^3 (a Euclidean one)."""

    x: ParametricMap4
    nu1: ParametricMap4
    nu2: ParametricMap4


@dataclasses.dataclass(frozen=True)
class FrameAt:
    """Frame vectors and first derivatives at a single parameter point."""

    u: float
    v: float
    x: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    nu3: np.ndarray
    xu: np.ndarray
    xv: np.ndarray
    nu1u: np.ndarray
    nu1v: np.ndarray
    nu2u: np.ndarray
    nu2v: np.ndarray

    def gram_residual(self) -> float:
        return _geometry(self.x)[2](self.x, self.nu1, self.nu2, self.nu3)


@dataclasses.dataclass(frozen=True)
class Invariants:
    """The twelve connection coefficients at one point or over a grid.

    ``alpha`` and ``beta`` are derived, so they are exposed as properties
    and always consistent with the defining 2x2 determinants.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float
    e1: float
    e2: float
    f1: float
    f2: float
    g1: float
    g2: float

    @property
    def alpha(self) -> float:
        return self.b1 * self.c2 - self.b2 * self.c1

    @property
    def beta(self) -> float:
        return self.c1 * self.a2 - self.c2 * self.a1

    def constraint_residual(self) -> float:
        """|a1 b2 - a2 b1|, zero for any honest framed surface."""
        return abs(self.a1 * self.b2 - self.a2 * self.b1)

    def row(self, index: int) -> tuple[float, float, float, float, float, float]:
        """(a, b, c, e, f, g) with derivative index 1 (u) or 2 (v)."""
        if index == 1:
            return (self.a1, self.b1, self.c1, self.e1, self.f1, self.g1)
        if index == 2:
            return (self.a2, self.b2, self.c2, self.e2, self.f2, self.g2)
        raise ValueError(f"index must be 1 or 2, got {index}")

    def as_dict(self) -> dict[str, float]:
        d = {k: getattr(self, k) for k in _INVARIANT_NAMES}
        d["alpha"] = self.alpha
        d["beta"] = self.beta
        return d


#: The number of components of a point of each space a framed surface lives in.
_SPACES = {"H^3": 4, "R^3": 3}


def _geometry(x):
    """``(dot, normal, gram_residual, curved)`` of the space of the points
    ``x`` by :data:`_SPACES`: the Minkowski product, x ^ a ^ b, the Gram
    residual of (x, nu1, nu2, nu3) and True in H^3; the Euclidean product,
    a x b, the Gram residual of (nu1, nu2, nu3) and False in R^3.  ``normal(x,
    a, b)`` is orthogonal to the tangent vectors a, b at x."""
    n = len(x)  # no table of functions: a module attribute rebound later is still seen
    if n == _SPACES["H^3"]:
        return minkowski_dot4, wedge3, frame_gram_residual, True
    if n == _SPACES["R^3"]:
        return (euclid_dot, lambda x, a, b: euclid_cross(a, b),
                lambda x, *nus: _gram_deviation(euclid_dot, nus, (1.0, 1.0, 1.0)), False)
    raise PreconditionError(f"a framed surface maps into R^4_1 or R^3, got {n} components")


def _in_space(where: str, x, space: str):
    """The points ``x`` (one vector or a component-first stack) when they lie
    in ``space`` ("H^3" or "R^3"); else a refusal that names the call ``where``."""
    if len(x) != _SPACES[space]:
        raise PreconditionError(f"{where} reads {space} only: got {len(x)} components, not {_SPACES[space]}")
    return x


def _assemble(u, v, x_jet, nu1_jet, nu2_jet) -> FrameAt:
    """The frame at (u, v) from the jets (value, u-partial, v-partial) of
    x, nu1 and nu2, with nu3 = x ^ nu1 ^ nu2 in H^3 and nu1 x nu2 in R^3."""
    (x, xu, xv), (n1, n1u, n1v), (n2, n2u, n2v) = x_jet, nu1_jet, nu2_jet
    return FrameAt(u, v, x, n1, n2, _geometry(x)[1](x, n1, n2), xu, xv, n1u, n1v, n2u, n2v)


def frame_at(fs: FramedSurface, u: float, v: float) -> FrameAt:
    """Evaluate the moving frame and its first derivatives at (u, v)."""
    return _assemble(u, v, *(first_partials(m, u, v) for m in (fs.x, fs.nu1, fs.nu2)))


def basic_invariants(frame: FrameAt) -> Invariants:
    """Extract the twelve invariants from a frame by the inner products of
    its geometry (pseudo ones in H^3, Euclidean ones in R^3).

    Raises :class:`DegenerateFrameError` at the first point (v-major) where
    the frame fails (pseudo-)orthonormality beyond ``GRAM_DEGENERATE_TOL``
    or is not finite - extracted coefficients would be meaningless.
    """
    n1, n2, n3 = frame.nu1, frame.nu2, frame.nu3
    dot = _geometry(frame.x)[0]
    pairs = (  # a1, a2, b1, b2, c1, c2, e1, e2, f1, f2, g1, g2
        (frame.xu, n1), (frame.xv, n1), (frame.xu, n2), (frame.xv, n2), (frame.xu, n3), (frame.xv, n3),
        (frame.nu1u, n2), (frame.nu1v, n2), (frame.nu1u, n3), (frame.nu1v, n3), (frame.nu2u, n3), (frame.nu2v, n3),
    )
    q = np.array([dot(a, b) for a, b in pairs])
    resid = frame.gram_residual()
    ok = (resid <= GRAM_DEGENERATE_TOL) & np.isfinite(q).all(axis=0)
    if not ok.all():
        k = first_true(~ok)
        u, v, r = (np.asarray(a).flat[k] for a in (frame.u, frame.v, resid))
        bad = r > GRAM_DEGENERATE_TOL
        what = f"has Gram residual {r:.3e} > {GRAM_DEGENERATE_TOL:.3e}" if bad else "is not finite"
        raise DegenerateFrameError(f"frame at ({u}, {v}) {what}")
    return Invariants(*q)


def invariants_at(fs: FramedSurface, u: float, v: float) -> Invariants:
    return basic_invariants(frame_at(fs, u, v))


def invariants_grid(fs: FramedSurface, domain: Domain) -> Invariants:
    """The twelve invariants as ``(nv, nu)`` arrays over the grid of ``domain``."""
    return invariants_at(fs, *domain.mesh())


def invariant_field(fs: FramedSurface) -> Callable[[float, float], Invariants]:
    """Invariants as a function of (u, v), floats or equal-shape arrays."""
    return lambda u, v: invariants_at(fs, u, v)


def _field_at(field: Callable[[float, float], Invariants], u, v) -> Invariants:
    """``field(u, v)`` with every component broadcast to the points' shape,
    as :func:`~h3frames.surface.evaluate` does for maps: a field may return
    any component as a constant."""
    q, shape = field(u, v), getattr(u, "shape", ())
    cs = (getattr(q, k) for k in _INVARIANT_NAMES)
    return Invariants(*(c if getattr(c, "shape", ()) == shape else np.broadcast_to(c, shape) for c in cs))


def _alpha_beta(field: Callable[[float, float], Invariants]):
    """(alpha, beta) as a function of (u, v), from one evaluation of the
    invariant field."""

    def ab(u, v):
        inv = field(u, v)
        return inv.alpha, inv.beta

    return ab


def invariant_partials(
    field: Callable[[float, float], Invariants], u, v, h: float
) -> tuple[Invariants, dict]:
    """Invariants at (u, v) and the central differences (step ``h``) of the
    twelve invariants, alpha and beta, keyed like 'a1_u' and 'alpha_v'.

    ``u, v`` are floats or equal-shape arrays; ``h`` outside (0, inf) raises
    ``ValueError``.  The field is called once on the stencil (u, v),
    (u + h, v), (u - h, v), (u, v + h), (u, v - h), stacked on a last axis,
    so a refusal names the first stencil point in that order; it is read by
    :func:`_field_at`, so constant components come out as arrays like the others.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got h = {h}")
    U = np.stack([u, u + h, u - h, u, u], axis=-1)
    V = np.stack([v, v, v, v + h, v - h], axis=-1)
    inv = _field_at(field, U, V)
    cols = {k: getattr(inv, k) for k in _INVARIANT_NAMES + ("alpha", "beta")}
    d = {}
    for k, c in cols.items():
        d[k + "_u"] = (c[..., 1] - c[..., 2]) / (2.0 * h)
        d[k + "_v"] = (c[..., 3] - c[..., 4]) / (2.0 * h)
    return Invariants(*(cols[k][..., 0] for k in _INVARIANT_NAMES)), d


@dataclasses.dataclass(frozen=True)
class FramedResidualSummary:
    """Worst-case residuals of the framed-surface axioms over a grid."""

    max_gram_residual: float
    max_offspan_residual: float  # |<x ^ x_u ^ x_v, nu3>| in H^3, |(x_u x x_v) . nu3| in R^3
    max_constraint_residual: float  # |a1 b2 - a2 b1|


def verify_framed(fs: FramedSurface, domain: Domain) -> FramedResidualSummary:
    """Check the framed-surface axioms on the grid of ``domain``.

    The off-span residual measures the nu3-component of x ^ x_u ^ x_v (of
    x_u x x_v in R^3), which must vanish: the derivative wedge lies in
    span{nu1, nu2}.  It is computed from the raw derivatives, independently
    of the extracted invariants, so it cross-checks the constraint residual.
    """
    fr = frame_at(fs, *domain.mesh())
    return _residual_summary(fr, basic_invariants(fr))


def _residual_summary(fr: FrameAt, inv: Invariants) -> FramedResidualSummary:
    dot, normal, *_ = _geometry(fr.x)
    off = abs(dot(normal(fr.x, fr.xu, fr.xv), fr.nu3))
    return FramedResidualSummary(
        float(np.max(fr.gram_residual())),
        float(np.max(off)),
        float(np.max(inv.constraint_residual())),
    )


@dataclasses.dataclass(frozen=True)
class IntegrabilityResiduals:
    """Signed residuals of the six integrability equations, one per invariant a, b, c, e, f, g.

    Arrays are indexed ``[iv, iu]`` following the v-major grid convention.
    """

    r: tuple[np.ndarray, ...]  # six arrays

    @property
    def max_abs(self) -> tuple[float, ...]:
        return tuple(float(np.max(np.abs(ri))) for ri in self.r)

    @property
    def max_overall(self) -> float:
        return max(self.max_abs)


def integrability_residuals(
    fs: FramedSurface,
    domain: Domain,
    h: float = H_INVARIANT,
) -> IntegrabilityResiduals:
    """Evaluate the six integrability residuals over the grid of ``domain``:
    Y_uv = Y_vu for the frame system Y_u = M1 Y, Y_v = M2 Y
    (:func:`_frame_ode_matrix` in the geometry of x at the window's corner)
    in zero-curvature form, M1_v - M2_u + [M1, M2] = 0.  That matrix is
    fixed by its upper-triangle entries, in the order a, b, c, e, f, g.
    H^3's x-column adds a1 b2 - a2 b1, zero by the framed-surface
    constraint, to the e entry and -beta, alpha to the f, g entries.

    Invariant derivatives are 2-point central differences with step ``h``
    (:func:`invariant_partials`); the grid must be evaluable with that margin.
    """
    curved = _geometry(evaluate(fs.x.value, domain.u_min, domain.v_min))[3]
    q, d = invariant_partials(invariant_field(fs), *domain.mesh(), h)
    m1, m2 = (_frame_ode_matrix(np.stack(q.row(i), -1), curved) for i in (1, 2))
    m1v, m2u = (_frame_ode_matrix(np.stack([d[k + s] for k in "abcefg"], -1), curved) for s in ("1_v", "2_u"))
    r = m1v - m2u + (m1 @ m2 - m2 @ m1)
    return IntegrabilityResiduals(r=tuple(r[..., i, j] for i, j in zip(*np.triu_indices(4, 1))))


class ReflectVariant(enum.Enum):
    NEG_NU1 = "neg_nu1"
    NEG_BOTH = "neg_both"
    SWAP = "swap"


#: (r, det r) of each reflection, as :func:`_normal_pair_law` reads them.
_REFLECTIONS = {
    ReflectVariant.NEG_NU1: (((-1.0, 0.0), (0.0, 1.0)), -1.0),
    ReflectVariant.NEG_BOTH: (((-1.0, 0.0), (0.0, -1.0)), 1.0),
    ReflectVariant.SWAP: (((0.0, 1.0), (1.0, 0.0)), -1.0),
}


def _normal_pair_law(inv: Invariants, r, det: float, omega=(0.0, 0.0)) -> Invariants:
    """Invariants after the O(2) change (nu1, nu2) -> (nu1, nu2) r of the
    normal pair, r = ((r11, r12), (r21, r22)) with ``det`` = det r = +-1,
    so nu3 -> det nu3.  With ``omega`` the connection omega_i = r11,i r12 +
    r21,i r22, row i maps as (a, b) -> (a, b) r, c -> det c,
    e -> det e + omega_i and (f, g) -> det (f, g) r."""
    (r11, r12), (r21, r22) = r
    rows = [(a * r11 + b * r21, a * r12 + b * r22, det * c, det * e + w,
             det * (f * r11 + g * r21), det * (f * r12 + g * r22))
            for (a, b, c, e, f, g), w in zip((inv.row(1), inv.row(2)), omega)]
    return Invariants(*(q for pair in zip(*rows) for q in pair))


def reflect(inv: Invariants, variant: ReflectVariant) -> Invariants:
    """Invariants after a discrete symmetry of the normal pair.

    ``NEG_NU1``: (nu1, nu2) -> (-nu1, nu2);  ``NEG_BOTH``: -> (-nu1, -nu2);
    ``SWAP``: -> (nu2, nu1).  All three are involutions (:data:`_REFLECTIONS`).
    """
    if not isinstance(variant, ReflectVariant):
        raise ValueError(f"unknown reflect variant: {variant!r}")
    return _normal_pair_law(inv, *_REFLECTIONS[variant])


def rotated_invariants(
    inv: Invariants, theta: float, theta_u: float, theta_v: float
) -> Invariants:
    """Invariants after rotating the normal pair by the angle theta.

    The rotation is nu1 -> cos(theta) nu1 - sin(theta) nu2,
    nu2 -> sin(theta) nu1 + cos(theta) nu2 with theta = theta(u, v);
    ``theta_u`` / ``theta_v`` are its partial derivatives at the point.
    It is :func:`_normal_pair_law` with det r = 1 and omega = (-theta_u, -theta_v).
    """
    ct, st = np.cos(theta), np.sin(theta)
    return _normal_pair_law(inv, ((ct, st), (-st, ct)), 1.0, (-theta_u, -theta_v))


def rotate_frame(fs: FramedSurface, theta: Callable[[float, float], float]) -> FramedSurface:
    """Framed surface with the normal pair rotated pointwise by theta(u, v):
    nu1 -> cos(theta) nu1 - sin(theta) nu2, nu2 -> sin(theta) nu1 + cos(theta) nu2.

    The base map is untouched; nu3 is unchanged by construction.  The
    rotated normals are value-only maps, so their partials, theta's
    included, come from the complex step like any derived map's.
    ``theta`` must therefore be a complex-analytic numpy formula that
    broadcasts like a map.
    """

    def rotated(a, b) -> ParametricMap4:
        def value(u, v):  # a(theta) nu1 + b(theta) nu2
            t = theta(u, v)
            return a(t) * evaluate(fs.nu1.value, u, v) + b(t) * evaluate(fs.nu2.value, u, v)

        return ParametricMap4(value=value)

    nu1 = rotated(np.cos, lambda t: -np.sin(t))
    return FramedSurface(x=fs.x, nu1=nu1, nu2=rotated(np.sin, np.cos))


def reparametrize_invariants(inv: Invariants, jac) -> Invariants:
    """Invariants after a parameter change with Jacobian ``jac``.

    ``jac`` is the 2x2 matrix [[u_p, v_p], [u_q, v_q]] of the old parameters
    with respect to the new ones; both invariant rows transform linearly by
    left multiplication, and (alpha, beta) pick up det(jac) automatically.
    """
    j = np.asarray(jac, dtype=float)
    if j.shape != (2, 2):
        raise ValueError(f"jacobian must be 2x2, got {j.shape}")
    if not np.all(np.isfinite(j)):
        raise ValueError("jacobian entries must be finite")
    out = {}
    for name in ("a", "b", "c", "e", "f", "g"):
        r1 = getattr(inv, name + "1")
        r2 = getattr(inv, name + "2")
        out[name + "1"] = j[0, 0] * r1 + j[0, 1] * r2
        out[name + "2"] = j[1, 0] * r1 + j[1, 1] * r2
    return Invariants(**out)


def frame_from_normal(x: ParametricMap4, nu: ParametricMap4, domain: Domain) -> FramedSurface:
    """Framed surface whose normal pair splits the unit normal field ``nu``.

    Writes nu = (n1, n2, n3, n4) in spherical angles for its spatial part,
    (n2, n3, n4) = s (sin t sin p, sin t cos p, cos t), taken algebraically:
    with rho = sqrt(n2^2 + n3^2) and s = sqrt(rho^2 + n4^2),
    cos t = n4 / s, sin t = rho / s, sin p = n2 / rho and cos p = n3 / rho.
    Two explicit tangent candidates are then pseudo-orthonormalized against
    x, and the pair satisfies x ^ nu1 ^ nu2 = nu.  nu1 and nu2 are
    value-only maps: they broadcast and are complex-analytic, so their
    partials come from :func:`first_partials` like any map's.

    Preconditions, checked on the grid of ``domain`` only (the framed surface
    carries no window): x and nu map into R^4_1, x in H^3 (``minkowski._on_h3``),
    nu unit spacelike with <x, nu> = 0, each within ``_bound(FRAME_TOL, ...)`` of its vectors.
    A violation raises :class:`PreconditionError` at the first failing point.
    Evaluating nu1 or nu2 raises :class:`DegenerateAnglesError` at the
    first point where the spherical angles are undefined, rho <= ``_ANGLE_TOL``,
    or where the second tangent candidate degenerates.
    """
    U, V = domain.mesh()
    xg, ng = (_in_space("frame_from_normal", evaluate(m.value, U, V), "H^3") for m in (x, nu))
    (xx, xx_bound, sheet), nn, xn = _on_h3(xg), minkowski_dot4(ng, ng), minkowski_dot4(xg, ng)
    unit_bound, orth_bound = _bound(FRAME_TOL, ng), _bound(FRAME_TOL, xg, ng)
    unit, orth = abs(nn - 1.0) <= unit_bound, abs(xn) <= orth_bound
    k = first_true(~(sheet & unit & orth))
    if k is not None:
        u, v = U.flat[k], V.flat[k]
        if not sheet.flat[k]:
            raise PreconditionError(f"base point at ({u}, {v}) is not on the upper hyperboloid: "
                                    + _h3_fault(xx.flat[k], xx_bound.flat[k], xg[0].flat[k]))
        if not unit.flat[k]:
            raise PreconditionError(f"normal at ({u}, {v}) is not unit spacelike: <nu,nu> = {nn.flat[k]:.6e}, "
                                    f"|<nu,nu> - 1| is not within {unit_bound.flat[k]:.3e}")
        raise PreconditionError(f"normal at ({u}, {v}) is not orthogonal to x: <x,nu> = {xn.flat[k]:.6e}, "
                                f"|<x,nu>| is not within {orth_bound.flat[k]:.3e}")

    def pair(u, v):
        p, n = evaluate(x.value, u, v), evaluate(nu.value, u, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.sqrt(n[1] * n[1] + n[2] * n[2])
            s = np.sqrt(rho * rho + n[3] * n[3])
            ct, st, sp, cp = n[3] / s, rho / s, n[1] / rho, n[2] / rho
            t1 = components(0.0, ct * sp, ct * cp, -st)
            t1 = t1 + minkowski_dot4(t1, p) * p
            n1sq = minkowski_dot4(t1, t1)  # = 1 + <bar1, x>^2 > 0
            bar2 = components(0.0, cp, -sp, 0.0)
            t2 = bar2 + minkowski_dot4(bar2, p) * p - minkowski_dot4(bar2, t1) / n1sq * t1
            n2sq = minkowski_dot4(t2, t2)
        bad = (rho.real <= _ANGLE_TOL) | (n2sq.real <= 0)
        k = first_true(bad)
        if k is not None:
            u, v = (np.real(np.broadcast_to(a, bad.shape)).flat[k] for a in (u, v))
            r, q = np.ravel(rho.real)[k], np.ravel(n2sq.real)[k]
            raise DegenerateAnglesError(
                f"spherical angles undefined at ({u}, {v}): normal has n2 = n3 = 0 (rho = {r:.3e})"
                if r <= _ANGLE_TOL
                else f"second tangent candidate degenerates at ({u}, {v}): <t2,t2> = {q:.3e}"
            )
        return t1 / np.sqrt(n1sq), t2 / np.sqrt(n2sq)

    return FramedSurface(
        x=x,
        nu1=ParametricMap4(value=lambda u, v: pair(u, v)[0]),
        nu2=ParametricMap4(value=lambda u, v: pair(u, v)[1]),
    )


class ReductionType(enum.Enum):
    FRAMED_A_ZERO = "framed_a_zero"
    FRAMED_B_ZERO = "framed_b_zero"
    FAMILY_U = "family_u"
    FAMILY_V = "family_v"
    ROTATABLE_TO_FRAMED = "rotatable_to_framed"
    GENERIC = "generic"


@dataclasses.dataclass(frozen=True)
class ReductionResult:
    tag: ReductionType
    theta: Optional[float] = None


_REDUCTION_LADDER = (
    ReductionType.FAMILY_V,
    ReductionType.FAMILY_U,
    ReductionType.FRAMED_A_ZERO,
    ReductionType.FRAMED_B_ZERO,
    ReductionType.ROTATABLE_TO_FRAMED,
    ReductionType.GENERIC,
)


def _reduction_arrays(inv: Invariants):
    """Index into ``_REDUCTION_LADDER`` and rotation angle (0 unless
    rotatable), elementwise over scalar or grid invariants; zero means
    within ``FRAME_TOL``."""
    small = {k: abs(getattr(inv, k)) <= FRAME_TOL for k in ("a1", "a2", "b1", "b2")}
    tests = (
        small["a2"] & small["b2"],
        small["a1"] & small["b1"],
        small["a1"] & small["a2"],
        small["b1"] & small["b2"],
        inv.constraint_residual() <= FRAME_TOL,
        True,
    )
    index = np.select(tests, range(len(tests)))
    theta = np.where(
        np.hypot(inv.a1, inv.b1) > FRAME_TOL,
        np.arctan2(inv.a1, inv.b1),
        np.where(np.hypot(inv.a2, inv.b2) > FRAME_TOL, np.arctan2(inv.a2, inv.b2), 0.0),
    )
    return index, np.where(index == 4, theta, 0.0)


def reduction_type(inv: Invariants) -> ReductionResult:
    """Classify which reduced form the invariants already have.

    The one-parameter family conditions are the most specific
    descriptions and are tested first: a2 = b2 = 0 tags a v-family,
    then a1 = b1 = 0 a u-family.  A surface can satisfy a family and a
    framed condition simultaneously (e.g. the a-row vanishing on top of
    one of the above); the family tag is deliberately reported in that
    case so a surface carries one stable tag across an entire grid.
    After the family tests come the plain framed tags (a-row zero, then
    b-row zero).  Failing all of those, invariants whose (a, b) rows
    are proportional are rotatable to the a-row-zero form and the angle
    theta that kills the rotated a-row is reported; anything else is
    generic.
    """
    index, theta = _reduction_arrays(inv)
    tag = _REDUCTION_LADDER[int(index)]
    return ReductionResult(tag, float(theta) if tag is ReductionType.ROTATABLE_TO_FRAMED else None)


def reduction_type_grid(fs: FramedSurface, domain: Domain):
    """Reduction tags and rotation angles over the grid of ``domain``.

    The rotation angle is only defined modulo pi; to make the returned
    field usable as a continuous rotation, each grid row (fixed v) is
    unwrapped by multiples of pi against its left neighbour.
    """
    index, theta = _reduction_arrays(invariants_grid(fs, domain))
    turns = np.zeros(theta.shape)
    turns[:, 1:] = np.round((theta[:, :-1] - theta[:, 1:]) / math.pi)
    tags = [[_REDUCTION_LADDER[i] for i in row] for row in index.tolist()]
    return tags, theta + np.cumsum(turns, axis=1) * math.pi


@dataclasses.dataclass(frozen=True)
class FamilyCurvature:
    """Curvature-type data of a one-parameter family (either direction)."""

    m: float
    n: float
    a: float
    b: float
    P: float
    Q: float
    M: float
    N: float
    A: float
    B: float


def family_curvatures(inv: Invariants, direction: str):
    """Relabel the invariants as one-parameter family data.

    ``direction='u'`` requires a1 = b1 = 0 within ``FRAME_TOL`` at every point (the
    u-lines are the degenerate direction), ``direction='v'`` a2 = b2 = 0; a refusal
    names the first point that fails.  With these labels alpha = -m Q, beta = m P
    for the u-direction and alpha = m Q, beta = -m P for the v-direction.
    """
    if direction not in ("u", "v"):
        raise ValueError(f"direction must be 'u' or 'v', got {direction!r}")
    k = 1 if direction == "u" else 2
    a, b, c, e, f, g = inv.row(k)
    i = first_true((abs(a) > FRAME_TOL) | (abs(b) > FRAME_TOL))
    if i is not None:
        a, b = (q.flat[i] for q in np.broadcast_arrays(a, b))
        raise PreconditionError(
            f"{direction}-family needs a{k} = b{k} = 0 within {FRAME_TOL}, got "
            f"a{k} = {a:.3e}, b{k} = {b:.3e}"
        )
    P, Q, M, N, A, B = inv.row(3 - k)
    return FamilyCurvature(m=c, n=e, a=f, b=g, P=P, Q=Q, M=M, N=N, A=A, B=B)


@dataclasses.dataclass(frozen=True)
class FrameTrajectory:
    """Result of integrating the frame ODE along a coordinate line."""

    t: np.ndarray  # parameter values (the varying coordinate)
    frames: np.ndarray  # shape (len(t), 4, n), rows (x, nu1, nu2, nu3) of n components
    max_gram_drift: float

    @property
    def final(self) -> np.ndarray:
        return self.frames[-1]


def _frame_ode_matrix(rows, curved: bool) -> np.ndarray:
    """Matrices M of the frame system Y' = M Y from rows (a, b, c, e, f, g):
    ``(..., 6) -> (..., 4, 4)``, the one statement of that system.  Its x-column
    is (a, b, c) when ``curved`` (H^3, :func:`_geometry`: M in so(1, 3)), else zero
    (R^3: an so(3) normal block).  Complex rows stay complex, for complex-step jets."""
    a, b, c, e, f, g = np.moveaxis(np.asarray(rows), -1, 0)
    z = np.zeros_like(a)
    xa, xb, xc = (a, b, c) if curved else (z, z, z)
    return np.stack(
        [
            np.stack([z, a, b, c], -1),
            np.stack([xa, z, e, f], -1),
            np.stack([xb, -e, z, g], -1),
            np.stack([xc, -f, -g, z], -1),
        ],
        -2,
    )


#: Most steps :func:`integrate_frame_along_line` takes; each holds about
#: 0.6 KB of arrays, so a span that needs more is refused before anything
#: is allocated.
MAX_STEPS = 10**6

#: Offsets of the two Gauss points from the middle of a step, in steps.
_GAUSS = np.array([-math.sqrt(3.0) / 6.0, math.sqrt(3.0) / 6.0])

#: Largest 1-norm at which :func:`_expm` sums its Taylor polynomial
#: directly, and that polynomial's degree: the first omitted term is below
#: 1/19! < 1e-17 of the result, so the sum is exact to rounding.
_EXPM_THETA = 1.0
_EXPM_DEGREE = 18


def _expm(a) -> np.ndarray:
    """Matrix exponentials of a stack ``(..., k, k)`` by scaling and
    squaring (Higham 2005): each matrix is halved s times until its 1-norm
    is at most :data:`_EXPM_THETA`, its Taylor polynomial is summed by
    Horner's rule, and the result is squared s times, each matrix with its
    own s."""
    a = np.asarray(a, dtype=float)
    _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _EXPM_THETA)
    s = np.maximum(s, 0)
    a = np.ldexp(a, -s[..., None, None])
    eye = np.eye(a.shape[-1])
    e = eye + a / _EXPM_DEGREE
    for k in range(_EXPM_DEGREE - 1, 0, -1):
        e = eye + (a @ e) / k
    with np.errstate(all="ignore"):  # a non-finite frame is refused downstream
        for j in range(int(s.max(initial=0))):
            more = s > j
            e[more] = e[more] @ e[more]
    return e


def integrate_frame_along_line(
    inv_field: Callable[[float, float], Invariants],
    initial: FrameAt,
    along: str,
    span: float,
    step: float,
) -> FrameTrajectory:
    """Integrate the linear frame system along a coordinate line with
    fourth-order Magnus steps.

    ``initial`` is the starting frame and fixes the line: ``along="u"``
    varies u from ``initial.u`` at v = ``initial.v``, ``along="v"`` varies
    v from ``initial.v`` at u = ``initial.u``; any other ``along`` raises
    ``ValueError``.  The span is covered by full steps plus one remainder,
    which is dropped when it is below rounding of the span unless it is the
    only step; a span of more than :data:`MAX_STEPS` full steps raises
    ``ValueError``.  Each step multiplies the frame rows by exp(Omega) with

        Omega = dt/2 (M1 + M2) + sqrt(3)/12 dt^2 [M2, M1]

    and M1, M2 the system matrix, in the geometry of ``initial.x``, at the step's two
    Gauss points (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009).  Like M,
    Omega lies in so(1, 3) or has an so(3) normal block, so exp(Omega) keeps the
    frames (pseudo-)orthonormal to rounding; the worst Gram drift over the nodes is
    reported.  The field is called once, on the Gauss points of every step as one
    array, so it must broadcast over ``u, v``.
    """
    *_, gram_residual, curved = _geometry(initial.x)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if along not in ("u", "v"):
        raise ValueError(f"along must be 'u' or 'v', got {along!r}")
    along_u = along == "u"

    n_full, rem = divmod(abs(span), step)
    if not math.isfinite(n_full):
        raise ValueError(f"span {span} in steps of {step} is not a finite step count")
    if n_full > MAX_STEPS:
        raise ValueError(f"span {span} in steps of {step} needs more than MAX_STEPS = {MAX_STEPS} steps")
    dts = [math.copysign(step, span)] * int(n_full)
    if rem > 1e-15 * max(1.0, abs(span)) or (rem and not dts):
        dts.append(math.copysign(rem, span))
    ts = np.cumsum([initial.u if along_u else initial.v, *dts])
    dts = np.array(dts)

    tg = ts[:-1, None] + dts[:, None] * (0.5 + _GAUSS)  # (n, 2) Gauss points
    fixed = np.full(tg.shape, initial.v if along_u else initial.u)
    u, v = (tg, fixed) if along_u else (fixed, tg)
    rows = np.stack(_field_at(inv_field, u, v).row(1 if along_u else 2), -1)
    k = first_true(~np.isfinite(rows).all(axis=-1))
    if k is not None:
        raise PreconditionError(
            f"non-finite invariants at ({u.flat[k]}, {v.flat[k]}): "
            f"{tuple(rows.reshape(-1, 6)[k].tolist())}"
        )

    m = _frame_ode_matrix(rows, curved)
    m1, m2 = m[:, 0], m[:, 1]
    dt = dts[:, None, None]
    steps = _expm(dt / 2.0 * (m1 + m2) + math.sqrt(3.0) / 12.0 * dt * dt * (m2 @ m1 - m1 @ m2))

    frames = np.empty((len(ts), 4, len(initial.x)))
    frames[0] = y = np.vstack([initial.x, initial.nu1, initial.nu2, initial.nu3])
    with np.errstate(all="ignore"):  # a non-finite frame is refused downstream
        for i, e in enumerate(steps, 1):
            frames[i] = y = e @ y
        drift = float(np.max(gram_residual(*frames.transpose(1, 2, 0))))
    return FrameTrajectory(t=ts, frames=frames, max_gram_drift=drift)


def write_invariants_csv(out, fs: FramedSurface, domain: Domain) -> FramedResidualSummary:
    """Write the invariant field over the grid of ``domain`` as CSV to the
    text stream ``out``, which the caller opens: the column header, then
    one row per grid point.  Returns what :func:`verify_framed` would,
    read from the same frame evaluation.

    Rows run v-major (v in the outer loop, u inner); values are printed
    with 17 significant digits so the file round-trips doubles exactly.
    """
    U, V = domain.mesh()
    fr = frame_at(fs, U, V)
    inv = basic_invariants(fr)
    summary = _residual_summary(fr, inv)
    del fr  # the frame arrays go before the CSV text is built
    cols = [U, V, *inv.as_dict().values()]
    out.write(INVARIANT_CSV_HEADER + "\n")
    for block in fmt_rows(np.stack(cols, axis=-1).reshape(-1, len(cols)), sep=","):
        out.write(block)
    return summary
