"""Transports between the hyperboloid, the Poincare ball, and R^3_1.

Three bridges, all pointwise and all broadcasting over grids:

* the ball-model diffeomorphism pi and its inverse, lifted to whole framed
  surfaces by explicit component formulas for the transported normal pair
  (``transport_to_disc`` / ``transport_to_h3``);
* coordinate-dropping projections into Lorentz-Minkowski 3-space, which
  send a framed surface to a lightcone framed base surface whenever the
  projected binormal stays spacelike (``project_to_r31``);
* the square-root lifts going back up, which certify their output through
  the two inner-product identities of the frame-existence theorem
  (``lift_from_r31``).

``ParametricMap4`` evaluation is dimension-agnostic, so the same container
carries the 3-component disc and R^3_1 maps; only the name is ambient-4.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    NonSpacelikeNormalError,
    NormalizationError,
    OffHyperboloidError,
    OutsideDiscError,
    PreconditionError,
)
from .fmt import fmt, fmt_rows
from .frames import FramedSurface
from .minkowski import (
    CAUSAL_TOL,
    causal_character,
    euclid_cross,
    euclid_dot,
    minkowski_dot3,
    minkowski_dot4,
    wedge2_r31,
    wedge3,
)
from .surface import Domain, ParametricMap4, components, evaluate, first_partials, first_true

__all__ = [
    "ON_H3_TOL",
    "NORMALIZATION_TOL",
    "LIFT_MARGIN",
    "Axis",
    "DiscFramedSurface",
    "DiscResidualSummary",
    "LightconeCandidate",
    "to_poincare",
    "from_poincare",
    "transport_to_disc",
    "transport_to_h3",
    "disc_alpha_beta",
    "verify_disc_framed",
    "project_to_r31",
    "lightcone_residual",
    "lift_from_r31",
    "write_disc_mesh",
]

#: Allowed |<x,x> + 1| for points claimed to lie on the hyperboloid.
ON_H3_TOL = 1e-9

#: Below this squared norm a direction that must be normalized counts as zero.
NORMALIZATION_TOL = 1e-12

#: Strictness margin for the lift precondition x1^2 - x2^2 - x3^2 > 1.
LIFT_MARGIN = 1e-10


class Axis(enum.Enum):
    """Spacelike coordinate removed by a projection / inserted by a lift."""

    X2 = 2
    X3 = 3
    X4 = 4

    @property
    def index(self) -> int:
        return self.value - 1


@dataclasses.dataclass(frozen=True)
class DiscFramedSurface:
    """Surface in the unit ball with a Euclidean orthonormal normal pair."""

    xbar: ParametricMap4
    nubar1: ParametricMap4
    nubar2: ParametricMap4
    domain: Domain


@dataclasses.dataclass(frozen=True)
class LightconeCandidate:
    """Projected base surface and the unit spacelike direction certifying it.

    The defining residual <xt_u ^ xt_v, t> vanishes identically for exact
    input; :func:`lightcone_residual` measures it on a grid.
    """

    xtilde: ParametricMap4
    t: ParametricMap4
    domain: Domain
    axis: Axis


# ---------------------------------------------------------------------------
# ball-model point maps
# ---------------------------------------------------------------------------


def to_poincare(x) -> np.ndarray:
    """Ball-model image (x2, x3, x4) / (x1 + 1) of a hyperboloid point.

    Also takes a component-first stack of points; the first point off the
    upper sheet (non-finite ones included) is refused.
    """
    x = np.asarray(x)
    q = minkowski_dot4(x, x).real
    off = ~(abs(q + 1.0) <= ON_H3_TOL)
    k = first_true(off | ~(x[0].real > 0.0))
    if k is not None:
        if off.flat[k]:
            raise OffHyperboloidError(f"<x,x> = {q.flat[k]:.6e}, expected -1 within {ON_H3_TOL}")
        raise OffHyperboloidError(f"x1 = {x[0].real.flat[k]:.6e} is not on the upper branch")
    return x[1:] / (x[0] + 1.0)


def from_poincare(p) -> np.ndarray:
    """Hyperboloid point (1 + |p|^2, 2p) / (1 - |p|^2) over a ball point (or
    a component-first stack of them)."""
    p = np.asarray(p)
    s = euclid_dot(p, p)
    k = first_true(~(s.real < 1.0))
    if k is not None:
        raise OutsideDiscError(f"|p|^2 = {s.real.flat[k]:.6e} is not inside the unit ball")
    return components(1.0 + s, *(2.0 * p)) / (1.0 - s)


# ---------------------------------------------------------------------------
# framed-surface transport H^3 -> D^3
# ---------------------------------------------------------------------------


def _disc_direction(x, y):
    """Unnormalized transported normal y1 * x_spatial - (x1 + 1) * y_spatial."""
    return y[0] * x[1:] - (x[0] + 1.0) * y[1:]


def _normalize(w, n2, where: str, what: str):
    """w / sqrt(n2), refusing the first point where n2 is not clearly positive."""
    k = first_true(~(np.real(n2) > NORMALIZATION_TOL))
    if k is not None:
        raise NormalizationError(
            f"{where}: direction has {what.format(np.real(n2).flat[k])}; "
            "the input does not satisfy the framed-surface axioms"
        )
    return w / np.sqrt(n2)


def transport_to_disc(fs: FramedSurface) -> DiscFramedSurface:
    """Push a framed surface through pi onto the ball.

    The transported pair is the normalized image of
    ``y1 * (x2,x3,x4) - (x1+1) * (y2,y3,y4)`` for each normal; the
    construction keeps ``xbar_u x xbar_v`` inside span{nubar1, nubar2}
    with weights proportional to the original (alpha, beta).  A vanishing
    direction cannot occur for valid input (it would force <x, nu> != 0),
    so :class:`NormalizationError` here means the input was not framed.
    The transported maps carry values only; their first partials come
    from the complex step.
    """
    x_m, n1_m, n2_m = fs.x, fs.nu1, fs.nu2

    def xbar_value(u, v):
        return to_poincare(evaluate(x_m.value, u, v))

    def nub_value_factory(n_m):
        def value(u, v):
            w = _disc_direction(evaluate(x_m.value, u, v), evaluate(n_m.value, u, v))
            return _normalize(w, euclid_dot(w, w), "transport_to_disc", "squared norm {:.3e}")

        return value

    return DiscFramedSurface(
        xbar=ParametricMap4(value=xbar_value),
        nubar1=ParametricMap4(value=nub_value_factory(n1_m)),
        nubar2=ParametricMap4(value=nub_value_factory(n2_m)),
        domain=fs.domain,
    )


# ---------------------------------------------------------------------------
# framed-surface transport D^3 -> H^3
# ---------------------------------------------------------------------------


def _h3_direction(p, y):
    """Unnormalized lifted normal (2 p.y, (1 - |p|^2) y + 2 (p.y) p)."""
    d = euclid_dot(p, y)
    return components(2.0 * d, *((1.0 - euclid_dot(p, p)) * y + 2.0 * d * p))


def _normalize_minkowski(w, where: str):
    return _normalize(w, minkowski_dot4(w, w), where, "pseudo square {:.3e}, expected > 0")


def transport_to_h3(dfs: DiscFramedSurface) -> FramedSurface:
    """Lift a ball-model framed surface back to the hyperboloid.

    The base goes through the inverse ball map; each normal lifts to the
    normalized image of ``(2 p.y, (1-|p|^2) y + 2 (p.y) p)``, which is
    spacelike for valid input (asserted positivity of -p^2+q^2+r^2+s^2).
    Round trips reproduce the base surface exactly; the normal pair is
    only guaranteed back up to an in-plane rotation, so compare spans.
    """
    xb_m, n1_m, n2_m = dfs.xbar, dfs.nubar1, dfs.nubar2

    def x_value(u, v):
        return from_poincare(evaluate(xb_m.value, u, v))

    def nu_value_factory(n_m):
        def value(u, v):
            w = _h3_direction(evaluate(xb_m.value, u, v), evaluate(n_m.value, u, v))
            return _normalize_minkowski(w, "transport_to_h3")

        return value

    return FramedSurface(
        x=ParametricMap4(value=x_value),
        nu1=ParametricMap4(value=nu_value_factory(n1_m)),
        nu2=ParametricMap4(value=nu_value_factory(n2_m)),
        domain=dfs.domain,
    )


def disc_alpha_beta(dfs: DiscFramedSurface, u: float, v: float) -> tuple[float, float]:
    """Weights of xbar_u x xbar_v on the orthonormal pair at one point."""
    _, xu, xv = first_partials(dfs.xbar, u, v)
    cr = euclid_cross(xu, xv)
    n1 = evaluate(dfs.nubar1.value, u, v)
    n2 = evaluate(dfs.nubar2.value, u, v)
    return euclid_dot(cr, n1), euclid_dot(cr, n2)


@dataclasses.dataclass(frozen=True)
class DiscResidualSummary:
    """Grid maxima of the ball-model framed-surface axioms."""

    max_radius: float  # max |xbar|; must stay < 1
    max_unit: float  # max | |nubar_i| - 1 |
    max_orth: float  # max |nubar1 . nubar2|
    max_off_span: float  # max |(xbar_u x xbar_v) . (nubar1 x nubar2)|


def verify_disc_framed(
    dfs: DiscFramedSurface, domain: Optional[Domain] = None
) -> DiscResidualSummary:
    U, V = (domain or dfs.domain).mesh()
    p, pu, pv = first_partials(dfs.xbar, U, V)
    n1 = evaluate(dfs.nubar1.value, U, V)
    n2 = evaluate(dfs.nubar2.value, U, V)
    unit = [abs(np.sqrt(euclid_dot(n, n)) - 1.0) for n in (n1, n2)]
    return DiscResidualSummary(
        float(np.max(np.sqrt(euclid_dot(p, p)))),
        float(np.max(unit)),
        float(np.max(abs(euclid_dot(n1, n2)))),
        float(np.max(abs(euclid_dot(euclid_cross(pu, pv), euclid_cross(n1, n2))))),
    )


# ---------------------------------------------------------------------------
# projections H^3 -> R^3_1
# ---------------------------------------------------------------------------


def _drop(w, axis: Axis) -> np.ndarray:
    return np.delete(w, axis.index, axis=0)


def _insert(w3, value, axis: Axis) -> np.ndarray:
    i = axis.index
    return components(*w3[:i], value, *w3[i:])


def _nu3_value(fs: FramedSurface, u, v) -> np.ndarray:
    return wedge3(*(evaluate(m.value, u, v) for m in (fs.x, fs.nu1, fs.nu2)))


def project_to_r31(
    fs: FramedSurface, axis: Axis, domain: Optional[Domain] = None
) -> LightconeCandidate:
    """Drop one spacelike coordinate, keeping the projected binormal as t.

    The spacelike precondition on the projected binormal is checked at the
    grid points of ``domain`` (default: the surface's own) only — nothing
    is certified between samples.  Failure raises
    :class:`NonSpacelikeNormalError` carrying the first offending point
    (v-major) and its causal character.
    """
    dom = domain or fs.domain
    U, V = dom.mesh()
    w = _drop(_nu3_value(fs, U, V), axis)
    k = first_true(~(minkowski_dot3(w, w) > CAUSAL_TOL))
    if k is not None:
        u, v = U.flat[k], V.flat[k]
        wk = w.reshape(3, -1)[:, k]
        ch = causal_character(wk)
        raise NonSpacelikeNormalError(
            f"projected binormal at ({u:.6g}, {v:.6g}) is {ch.value} "
            f"(<w,w> = {minkowski_dot3(wk, wk):.3e}) for axis {axis.name}",
            u=u,
            v=v,
            character=ch,
        )

    def xt_value(u, v):
        return _drop(evaluate(fs.x.value, u, v), axis)

    def t_value(u, v):
        w = _drop(_nu3_value(fs, u, v), axis)
        return w / np.sqrt(minkowski_dot3(w, w))

    return LightconeCandidate(
        xtilde=ParametricMap4(value=xt_value),
        t=ParametricMap4(value=t_value),
        domain=dom,
        axis=axis,
    )


def lightcone_residual(
    lc: LightconeCandidate, domain: Optional[Domain] = None
) -> float:
    """Grid max of |<xt_u ^ xt_v, t>|, the defining identity of the output."""
    U, V = (domain or lc.domain).mesh()
    _, xu, xv = first_partials(lc.xtilde, U, V)
    t = evaluate(lc.t.value, U, V)
    return float(np.max(abs(minkowski_dot3(wedge2_r31(xu, xv), t))))


# ---------------------------------------------------------------------------
# lifts R^3_1 -> H^3
# ---------------------------------------------------------------------------

Vec3Fn = Callable[[float, float], Sequence[float]]

_BASIS4 = np.eye(4)


def _fallback_normal(x, xu, xv) -> np.ndarray:
    """Unit spacelike nu with <nu, x> = 0 and <nu, x ^ x_u ^ x_v> = 0.

    Wedging x with W = x ^ x_u ^ x_v and the best coordinate direction
    gives both orthogonalities by alternation; when W (nearly) vanishes
    any unit spacelike vector orthogonal to x does the job, produced by
    pseudo-projecting the best coordinate direction against x.  "Best"
    is the largest pseudo square, the first candidate on ties.
    """
    w = wedge3(x, xu, xv)
    basis = [e.reshape((4,) + (1,) * (np.ndim(x) - 1)) for e in _BASIS4]
    cands = np.array(
        np.broadcast_arrays(
            *[wedge3(x, w, e) for e in basis], *[e + minkowski_dot4(e, x) * x for e in basis]
        )
    )
    n2 = np.array([minkowski_dot4(c, c) for c in cands])
    wedged = np.argmax(n2[:4].real, axis=0)  # a complex step keeps the choice
    pick = np.where(
        np.take_along_axis(n2.real, wedged[None], 0)[0] > NORMALIZATION_TOL,
        wedged,
        np.argmax(n2.real, axis=0),
    )
    best = np.take_along_axis(cands, pick[None, None], 0)[0]
    return best / np.sqrt(np.take_along_axis(n2, pick[None], 0)[0])


def lift_from_r31(
    xt: ParametricMap4,
    axis: Axis,
    domain: Optional[Domain] = None,
    lplus: Optional[Vec3Fn] = None,
    lminus: Optional[Vec3Fn] = None,
) -> tuple[ParametricMap4, ParametricMap4]:
    """Insert the positive square root sqrt(x1^2 - x2^2 - x3^2 - 1).

    Returns ``(x, nu)``: the lifted base map and one unit spacelike normal
    satisfying <nu, x> = <nu, x ^ x_u ^ x_v> = 0, which is exactly what
    the frame-existence theorem needs.  ``frame_from_normal(x, nu)``
    (:func:`h3frames.frames.frame_from_normal`) splits nu into a normal
    pair when a full framed surface is wanted.

    When the lightcone pair (lplus, lminus) of the source surface is
    supplied, nu uses its explicit formula: spatial part x4 * (l+ ^ l-)
    arranged around the inserted slot, last component -<xt, l+ ^ l->,
    pseudo-normalized.  Otherwise nu falls back to the wedge construction
    of :func:`_fallback_normal`.

    The precondition x1^2 - x2^2 - x3^2 > 1 is grid-checked on ``domain``
    (default: the map's own); violation raises
    :class:`~h3frames.errors.PreconditionError` reporting the minimum.
    """
    if (lplus is None) != (lminus is None):
        raise ValueError("supply both lightcone maps or neither")
    dom = domain or xt.domain
    if dom is None:
        raise ValueError("an explicit domain is required when the map carries none")

    p = evaluate(xt.value, *dom.mesh())
    worst = np.min(p[0] * p[0] - p[1] * p[1] - p[2] * p[2])
    if not worst > 1.0 + LIFT_MARGIN:
        raise PreconditionError(
            f"lift needs x1^2 - x2^2 - x3^2 > 1 on the grid; minimum is {worst:.6e}"
        )

    def inserted(u, v):
        p = evaluate(xt.value, u, v)
        return p, np.sqrt(p[0] * p[0] - p[1] * p[1] - p[2] * p[2] - 1.0)

    def x_value(u, v):
        p, x4 = inserted(u, v)
        return _insert(p, x4, axis)

    x_map = ParametricMap4(value=x_value, domain=dom)

    if lplus is not None:

        def nu_value(u, v):
            p, x4 = inserted(u, v)
            lw = wedge2_r31(evaluate(lplus, u, v), evaluate(lminus, u, v))
            raw = _insert(x4 * lw, -minkowski_dot3(p, lw), axis)
            return _normalize_minkowski(raw, "lift_from_r31")

    else:

        def nu_value(u, v):
            x, xu, xv = first_partials(x_map, u, v)
            return _fallback_normal(x, xu, xv)

    nu_map = ParametricMap4(value=nu_value, domain=dom)
    return x_map, nu_map


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------


def write_disc_mesh(
    dest,
    fs: FramedSurface,
    domain: Optional[Domain] = None,
    markers: Optional[Sequence[tuple[float, float]]] = None,
) -> None:
    """Write the ball-model image of the surface as a plain polygon mesh.

    Vertices are the grid samples projected through the ball map, written
    v-major as ``v x y z`` lines; every grid quad is split into two
    triangles wound counterclockwise as seen from outside the ball (the
    outward side is decided per triangle against its centroid direction).
    Marker parameter points, when given, are appended as extra vertices
    referenced from ``p`` lines.

    ``dest`` may be a path or a writable text stream.
    """
    dom = domain or fs.domain
    if hasattr(dest, "write"):
        _write_disc_mesh(dest, fs, dom, markers or ())
    else:
        with open(dest, "w", encoding="ascii") as fh:
            _write_disc_mesh(fh, fs, dom, markers or ())


def _write_disc_mesh(fh, fs, dom, markers) -> None:
    U, V = dom.mesh()
    nv, nu = U.shape
    pts = to_poincare(evaluate(fs.x.value, U, V)).reshape(3, -1)  # v-major vertices

    # Each grid quad gives the triangles (00, 10, 11) and (00, 11, 01); a
    # triangle whose normal points into the ball against its centroid is
    # flipped.  Vertex numbers are integers, exact in the number formatter.
    i00 = (np.arange(nv - 1)[:, None] * nu + np.arange(nu - 1)).ravel()
    tri = np.stack(
        [np.stack([i00, i00 + 1, i00 + nu + 1], -1), np.stack([i00, i00 + nu + 1, i00 + nu], -1)],
        axis=1,
    ).reshape(-1, 3)
    a, b, c = (pts[:, tri[:, j]] for j in range(3))
    flip = euclid_dot(euclid_cross(b - a, c - a), (a + b + c) / 3.0) < 0.0
    tri[flip, 1:] = tri[flip, :0:-1]

    for block in (*fmt_rows(pts.T, prefix="v "), *fmt_rows(tri + 1, prefix="f ")):
        fh.write(block)
    if markers:
        mu, mv = np.asarray(markers, dtype=float).T
        marks = to_poincare(evaluate(fs.x.value, mu, mv)).T
        base = nv * nu
        fh.write("".join(
            f"v {' '.join(map(fmt, p))}\np {base + k + 1}\n" for k, p in enumerate(marks)
        ))
