"""Transports between the hyperboloid, the Poincare ball, and R^3_1.

Three bridges, all pointwise and all broadcasting over grids:

* the ball-model diffeomorphism pi and its inverse, lifted to whole framed
  surfaces by explicit component formulas for the transported normal pair
  (``transport_to_disc`` / ``transport_to_h3``, each one push of the three
  maps: the base through the point map, each normal along its direction).
  The ball side is a :class:`~h3frames.frames.FramedSurface` of maps into
  R^3, which the frame extractor reads as a Euclidean framed surface;
* coordinate-dropping projections into Lorentz-Minkowski 3-space, which
  send a framed surface to a lightcone framed base surface whenever the
  projected binormal stays spacelike (``project_to_r31``);
* the square-root lifts going back up (``lift_from_r31`` and ``project --from
  r31``, one rule in :func:`_lift`), which certify their output through the
  two inner-product identities of the frame-existence theorem.

``ParametricMap4`` evaluation is dimension-agnostic, so the same container
carries the 3-component ball and R^3_1 maps.  ``to_poincare``,
``transport_to_disc``, ``write_disc_mesh`` and ``project_to_r31`` take H^3,
and ``from_poincare``, ``transport_to_h3`` and ``verify_disc_framed`` R^3;
each refuses the other (the transports' maps when evaluated) through
:func:`h3frames.frames._in_space`, which never sees R^3_1 points.  H^3 is the
upper sheet, and :func:`h3frames.minkowski._on_h3` alone decides membership.
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
from .fmt import fmt_rows
from .frames import FramedSurface, _in_space
from .minkowski import (
    CAUSAL_TOL,
    ON_H3_TOL,  # re-exported
    _bound,
    _h3_fault,
    _on_h3,
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
    "DiscResidualSummary",
    "LightconeCandidate",
    "to_poincare",
    "from_poincare",
    "transport_to_disc",
    "transport_to_h3",
    "verify_disc_framed",
    "project_to_r31",
    "lightcone_residual",
    "lift_from_r31",
    "write_disc_mesh",
]

#: Below this squared norm a direction that must be normalized counts as zero.
NORMALIZATION_TOL = 1e-12

#: Strictness margin for the precondition x1^2 - x2^2 - x3^2 > 1 of every lift.
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
class LightconeCandidate:
    """Projected base surface and the unit spacelike direction certifying it.

    ``domain`` is the window whose grid :func:`project_to_r31` checked.  The
    defining residual <xt_u ^ xt_v, t> vanishes identically for exact
    input; :func:`lightcone_residual` measures it on that grid.
    """

    xtilde: ParametricMap4
    t: ParametricMap4
    domain: Domain


# ---------------------------------------------------------------------------
# ball-model point maps
# ---------------------------------------------------------------------------


def to_poincare(x) -> np.ndarray:
    """Ball-model image (x2, x3, x4) / (x1 + 1) of a hyperboloid point.

    Also takes a component-first stack of points; points not in R^4_1, and the
    first one not in H^3 (``minkowski._on_h3``, non-finite ones too), are refused.
    """
    x = _in_space("to_poincare", np.asarray(x), "H^3")
    r, bound, ok = _on_h3(x)
    k = first_true(~ok)
    if k is not None:
        raise OffHyperboloidError(_h3_fault(r.flat[k], bound.flat[k], x[0].real.flat[k]))
    return _ball(x)


def _ball(x) -> np.ndarray:
    """:func:`to_poincare` of points already known to lie in H^3, unchecked."""
    return x[1:] / (x[0] + 1.0)


def from_poincare(p) -> np.ndarray:
    """Hyperboloid point (1 + |p|^2, 2p) / (1 - |p|^2) over a ball point (or
    a component-first stack of them); points not in R^3 are refused."""
    p = _in_space("from_poincare", np.asarray(p), "R^3")
    s = euclid_dot(p, p)
    k = first_true(~(s.real < 1.0))
    if k is not None:
        raise OutsideDiscError(f"|p|^2 = {s.real.flat[k]:.6e} is not inside the unit ball")
    return components(1.0 + s, *(2.0 * p)) / (1.0 - s)


# ---------------------------------------------------------------------------
# framed-surface transport H^3 -> D^3
# ---------------------------------------------------------------------------


def _pushed(where, space, fs, point, direction, normalize) -> FramedSurface:
    """Value-only images of the maps of a framed surface in ``space`` (each
    refuses a base value of the other, naming ``where``): the base goes through
    ``point``, each normal through ``normalize(direction(base, normal))``."""

    def base(u, v):
        return _in_space(where, evaluate(fs.x.value, u, v), space)

    def normal(n):
        return ParametricMap4(value=lambda u, v: normalize(direction(base(u, v), evaluate(n.value, u, v))))

    return FramedSurface(ParametricMap4(value=lambda u, v: point(base(u, v))), normal(fs.nu1), normal(fs.nu2))


def _disc_direction(x, y):
    """Unnormalized transported normal y1 * x_spatial - (x1 + 1) * y_spatial."""
    return y[0] * x[1:] - (x[0] + 1.0) * y[1:]


def _normalize(w, n2, where: str, what: str):
    """w / sqrt(n2), refusing the first point where n2 is not above ``_bound(NORMALIZATION_TOL, w)``."""
    bound = _bound(NORMALIZATION_TOL, w)
    k = first_true(~(np.real(n2) > bound))
    if k is not None:
        raise NormalizationError(f"{where}: direction has {what} {np.real(n2).flat[k]:.3e}, not above "
                                 f"{bound.flat[k]:.3e}; the input does not satisfy the framed-surface axioms")
    return w / np.sqrt(n2)


def transport_to_disc(fs: FramedSurface) -> FramedSurface:
    """Push a framed surface in H^3 through pi onto the ball: a framed
    surface of maps into R^3 with a Euclidean orthonormal normal pair.

    The transported pair is the normalized image of
    ``y1 * (x2,x3,x4) - (x1+1) * (y2,y3,y4)`` for each normal; the
    construction keeps ``x_u x x_v`` of the ball map inside span{nu1, nu2}
    with weights proportional to the original (alpha, beta).  A vanishing
    direction cannot occur for valid input (it would force <x, nu> != 0),
    so :class:`NormalizationError` here means the input was not framed.
    The transported maps carry values only, and no window; their first
    partials come from the complex step.
    """
    return _pushed(
        "transport_to_disc", "H^3", fs, to_poincare, _disc_direction,
        lambda w: _normalize(w, euclid_dot(w, w), "transport_to_disc", "squared norm"),
    )


# ---------------------------------------------------------------------------
# framed-surface transport D^3 -> H^3
# ---------------------------------------------------------------------------


def _h3_direction(p, y):
    """Unnormalized lifted normal (2 p.y, (1 - |p|^2) y + 2 (p.y) p)."""
    d = euclid_dot(p, y)
    return components(2.0 * d, *((1.0 - euclid_dot(p, p)) * y + 2.0 * d * p))


def _normalize_minkowski(w, where: str):
    return _normalize(w, minkowski_dot4(w, w), where, "pseudo square")


def transport_to_h3(dfs: FramedSurface) -> FramedSurface:
    """Lift a ball-model framed surface (maps into R^3) back to the
    hyperboloid.

    The base goes through the inverse ball map; each normal lifts to the
    normalized image of ``(2 p.y, (1-|p|^2) y + 2 (p.y) p)``, which is
    spacelike for valid input (asserted positivity of -p^2+q^2+r^2+s^2).
    Round trips reproduce the base surface exactly; the normal pair is
    only guaranteed back up to an in-plane rotation, so compare spans.
    No window goes in or comes out: the calls that sample take one.
    """
    return _pushed(
        "transport_to_h3", "R^3", dfs, from_poincare, _h3_direction,
        lambda w: _normalize_minkowski(w, "transport_to_h3"),
    )


@dataclasses.dataclass(frozen=True)
class DiscResidualSummary:
    """Grid maxima of the ball-model framed-surface axioms."""

    max_radius: float  # max |x|; must stay < 1
    max_unit: float  # max | |nu_i| - 1 |
    max_orth: float  # max |nu1 . nu2|
    max_off_span: float  # max |(x_u x x_v) . (nu1 x nu2)|


def verify_disc_framed(dfs: FramedSurface, domain: Domain) -> DiscResidualSummary:
    """The ball-model axioms' worst residuals over the grid of ``domain``.
    A surface in H^3 (maps into R^4_1) raises :class:`PreconditionError`."""
    U, V = domain.mesh()
    p, pu, pv = first_partials(dfs.x, U, V)
    _in_space("verify_disc_framed", p, "R^3")
    n1 = evaluate(dfs.nu1.value, U, V)
    n2 = evaluate(dfs.nu2.value, U, V)
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


def _lift(p, axis: Axis):
    """``(q, x, r, bound, rises, ok)`` of the R^3_1 points ``p``: q = x1^2 - x2^2 - x3^2, the lift x with sqrt(q - 1)
    at ``axis``, r = <x,x> and its bound, rises where q - 1 > ``LIFT_MARGIN``, and ok = rises and x in H^3."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = p[0] * p[0] - p[1] * p[1] - p[2] * p[2]
        x = _insert(p, np.sqrt(q - 1.0), axis)
        r, bound, on_h3 = _on_h3(x)
    rises = np.real(q) - 1.0 > LIFT_MARGIN
    return q, x, r, bound, rises, rises & on_h3


def _nu3_value(fs: FramedSurface, u, v) -> np.ndarray:
    x = _in_space("project_to_r31", evaluate(fs.x.value, u, v), "H^3")
    return wedge3(x, *(evaluate(m.value, u, v) for m in (fs.nu1, fs.nu2)))


def project_to_r31(fs: FramedSurface, axis: Axis, domain: Domain) -> LightconeCandidate:
    """Drop one spacelike coordinate, keeping the projected binormal as t.

    The spacelike precondition on the projected binormal is checked at the
    grid points of ``domain`` only — nothing is certified between samples —
    and the candidate keeps that window.  Failure raises
    :class:`NonSpacelikeNormalError` carrying the first offending point
    (v-major) and its causal character.
    """
    U, V = domain.mesh()
    w = _drop(_nu3_value(fs, U, V), axis)
    bound = _bound(CAUSAL_TOL, w)
    k = first_true(~(minkowski_dot3(w, w) > bound))
    if k is not None:
        u, v, tol, wk = U.flat[k], V.flat[k], bound.flat[k], w.reshape(3, -1)[:, k]
        ch = causal_character(wk, tol)
        raise NonSpacelikeNormalError(
            f"projected binormal at ({u:.6g}, {v:.6g}) is {ch.value} "
            f"(<w,w> = {minkowski_dot3(wk, wk):.3e} is not above {tol:.3e}) for axis {axis.name}",
            u=u, v=v, character=ch,
        )

    def xt_value(u, v):
        return _drop(evaluate(fs.x.value, u, v), axis)

    def t_value(u, v):
        w = _drop(_nu3_value(fs, u, v), axis)
        return w / np.sqrt(minkowski_dot3(w, w))

    return LightconeCandidate(
        xtilde=ParametricMap4(value=xt_value),
        t=ParametricMap4(value=t_value),
        domain=domain,
    )


def lightcone_residual(lc: LightconeCandidate) -> float:
    """Max of |<xt_u ^ xt_v, t>|, the defining identity of the output, over
    the grid that :func:`project_to_r31` checked."""
    U, V = lc.domain.mesh()
    _, xu, xv = first_partials(lc.xtilde, U, V)
    t = evaluate(lc.t.value, U, V)
    return float(np.max(abs(minkowski_dot3(wedge2_r31(xu, xv), t))))


# ---------------------------------------------------------------------------
# lifts R^3_1 -> H^3
# ---------------------------------------------------------------------------

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
    domain: Domain,
    lightcone: Optional[Callable[[float, float], np.ndarray]] = None,
) -> tuple[ParametricMap4, ParametricMap4]:
    """Insert the positive square root sqrt(x1^2 - x2^2 - x3^2 - 1).

    Returns ``(x, nu)``: the lifted base map and one unit spacelike normal
    satisfying <nu, x> = <nu, x ^ x_u ^ x_v> = 0, which is exactly what
    the frame-existence theorem needs.  ``frame_from_normal(x, nu, domain)``
    (:func:`h3frames.frames.frame_from_normal`) splits nu into a normal
    pair when a full framed surface is wanted.

    When ``lightcone``, the source surface's lightcone pair (u, v) -> (l+, l-) as one
    ``(6, *shape)`` stack, is supplied, nu uses its explicit formula: spatial part x4 * (l+ ^ l-)
    arranged around the inserted slot, last component -<xt, l+ ^ l->,
    pseudo-normalized.  Otherwise nu falls back to the wedge construction
    of :func:`_fallback_normal`.

    Every grid point of ``domain`` must lift by the rule of :func:`_lift`,
    which ``project --from r31`` shares; else :class:`PreconditionError` reports the grid's minimum of
    x1^2 - x2^2 - x3^2 where the q rule fails, or the first grid point (v-major) lifting off H^3.
    ``lightcone`` is read once on that grid too, and refused with :class:`PreconditionError`
    unless it returns a ``(6, *shape)`` stack (or one constant 6-vector).
    """
    U, V = domain.mesh()
    q, x, r, bound, rises, ok = _lift(evaluate(xt.value, U, V), axis)
    if not rises.all():
        raise PreconditionError(f"lift needs x1^2 - x2^2 - x3^2 > 1 on the grid; minimum is {np.min(q):.6e}, "
                                f"and minimum - 1 = {np.min(q) - 1.0:.3e} is not above LIFT_MARGIN = {LIFT_MARGIN}")
    k = first_true(~ok)
    if k is not None:
        raise PreconditionError(f"lift at ({U.flat[k]}, {V.flat[k]}) is off H^3: "
                                + _h3_fault(r.flat[k], bound.flat[k], x[0].flat[k]))

    def x_value(u, v):
        return _lift(evaluate(xt.value, u, v), axis)[1]

    x_map = ParametricMap4(value=x_value)

    if lightcone is not None:
        shape = np.shape(lightcone(U, V))
        if shape[:1] != (6,) or shape[1:] not in ((), U.shape):
            raise PreconditionError(f"lift_from_r31 reads the lightcone pair (l+, l-) as one (6, *shape) stack: "
                                    f"got shape {shape} on a grid of shape {U.shape}")

        def nu_value(u, v):
            p = evaluate(xt.value, u, v)
            x4 = _lift(p, axis)[1][axis.index]
            lw = wedge2_r31(*np.split(evaluate(lightcone, u, v), 2))
            raw = _insert(x4 * lw, -minkowski_dot3(p, lw), axis)
            return _normalize_minkowski(raw, "lift_from_r31")

    else:

        def nu_value(u, v):
            x, xu, xv = first_partials(x_map, u, v)
            return _fallback_normal(x, xu, xv)

    return x_map, ParametricMap4(value=nu_value)


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------


def write_disc_mesh(
    out,
    fs: FramedSurface,
    domain: Domain,
    markers: Optional[Sequence[tuple[float, float]]] = None,
) -> None:
    """Write the ball-model image of the surface as a plain polygon mesh to
    the text stream ``out``, which the caller opens.

    Vertices are the samples of the grid of ``domain`` projected through
    the ball map, written v-major as ``v x y z`` lines; every grid quad is
    split into two triangles wound counterclockwise as seen from outside
    the ball (the outward side is decided per triangle against its
    centroid direction).
    Marker parameter points ``(u, v)``, a sequence of pairs or an
    ``(n, 2)`` array, are appended as extra vertices referenced from ``p``
    lines; None or no points write none.
    """
    U, V = domain.mesh()
    nv, nu = U.shape
    x = _in_space("write_disc_mesh", evaluate(fs.x.value, U, V), "H^3")
    pts = to_poincare(x).reshape(3, -1)  # v-major vertices

    # Each grid quad gives the triangles (00, 10, 11) and (00, 11, 01); a
    # triangle whose normal points into the ball against its centroid is
    # flipped, unless its plane passes through the centre: there the sign is
    # rounding noise (|dot| <= 1e-12 |normal| |centroid|), and grid order
    # stays.  Vertex numbers are integers, exact in the number formatter.
    i00 = (np.arange(nv - 1)[:, None] * nu + np.arange(nu - 1)).ravel()
    tri = np.stack(
        [np.stack([i00, i00 + 1, i00 + nu + 1], -1), np.stack([i00, i00 + nu + 1, i00 + nu], -1)],
        axis=1,
    ).reshape(-1, 3)
    a, b, c = (pts[:, tri[:, j]] for j in range(3))
    normal, centroid = euclid_cross(b - a, c - a), (a + b + c) / 3.0
    tie = 1e-12 * np.linalg.norm(normal, axis=0) * np.linalg.norm(centroid, axis=0)
    flip = euclid_dot(normal, centroid) < -tie
    tri[flip, 1:] = tri[flip, :0:-1]

    for block in (*fmt_rows(pts.T, prefix="v "), *fmt_rows(tri + 1, prefix="f ")):
        out.write(block)
    if markers is not None and len(markers):
        marks = to_poincare(evaluate(fs.x.value, *np.asarray(markers, dtype=float).T))
        lines = "".join(fmt_rows(marks.T, prefix="v ")).splitlines(keepends=True)
        out.write("".join(f"{line}p {nv * nu + k}\n" for k, line in enumerate(lines, 1)))
