"""Locating and classifying singular points of framed surfaces.

The singular set of a framed surface is the common zero set of the wedge
coefficients (alpha, beta).  A grid screen seeds only the cells where
both components come within their corner-to-corner spread of zero; each
seed is refined by a damped Newton iteration, and each distinct root is
classified through invariant-level criteria:

* corank-one screen: all four of (a1, a2, b1, b2) vanish at the point
  while (c1, c2) does not — otherwise the point is ``not_corank_one``;
* the determinant pairing

      D = det(b_u c) det(a_v c) - det(b_v c) det(a_u c),

  built from central differences of the invariant rows, equal to
  alpha_v beta_u - alpha_u beta_v at singular points — nonzero means a
  cross cap;
* otherwise the sign of det Hess(phi), where phi is the 3x3 determinant
  evaluated by :func:`phi` below, separates S1+ (negative, together with
  a nonvanishing independence pair) from S1- (positive).

Values that straddle a threshold are reported ``unclassified`` rather
than guessed.  The degenerate direction eta = c2 d/du - c1 d/dv and its
transverse companion xi = c1 d/du + c2 d/dv are fixed once and for all;
phi refuses to evaluate when both c-invariants vanish (eta undefined).

Surfaces whose singular set is a curve rather than isolated points (the
second ruled example degenerates along an entire line) come out as a
deduplicated sample of points along the curve, at most a cell apart: a
root where the Jacobian of (alpha, beta) has rank one lies on such a
curve, and the curve is sampled half a cell to either side of it too.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from . import __version__
from .errors import CDegenerateError
from .frames import FramedSurface, Invariants, invariant_field
from .surface import Domain

__all__ = [
    "REFINE_TOL",
    "CORANK_TOL",
    "D_TOL",
    "HESS_TOL",
    "PAIR_TOL",
    "H_INVARIANT",
    "H_PHI",
    "SingularityClass",
    "SingularityDiagnostics",
    "SingularityReport",
    "RefinementRecord",
    "find_singular_points",
    "phi",
    "classify_singularity",
    "horocyclic_classify_singularity",
    "singularity_scan",
    "reports_to_json",
]

#: Newton convergence: |alpha| + |beta| below this at the refined root.
REFINE_TOL = 1e-10
#: Max Newton iterations before a candidate is abandoned.
MAX_NEWTON_ITERS = 50
#: Jacobian singular values below this fraction of the largest count as
#: zero (rounding noise of a component that vanishes identically).
RANK_TOL = 1e-8
#: Corank screen: (a, b) must be below / (c1, c2) above this.
CORANK_TOL = 1e-6
#: |D| above this is a cross cap.
D_TOL = 1e-4
#: det Hess(phi) must clear this to decide S1+/S1-.
HESS_TOL = 1e-3
#: The S1+ independence pair must exceed this in norm.
PAIR_TOL = 1e-6
#: Step for central differences of invariants (alpha_u, a1_v, ...).
H_INVARIANT = 1e-5
#: Step for the second differences of phi (phi already differentiates once,
#: so a larger step keeps the noise floor ~1e-6).
H_PHI = 1e-4

InvariantField = Callable[[float, float], Invariants]
FieldLike = Union[FramedSurface, InvariantField]


class SingularityClass(enum.Enum):
    CROSS_CAP = "cross_cap"
    S1_PLUS = "s1_plus"
    S1_MINUS = "s1_minus"
    UNCLASSIFIED = "unclassified"
    NOT_CORANK_ONE = "not_corank_one"


@dataclasses.dataclass(frozen=True)
class SingularityDiagnostics:
    """Everything the classification looked at, for auditing."""

    alpha: float
    beta: float
    a_pair: tuple[float, float]
    b_pair: tuple[float, float]
    c_pair: tuple[float, float]
    D: float
    hess_phi: float
    independence_pair: tuple[float, float]
    newton_iters: int
    converged: bool

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(self).items()}


@dataclasses.dataclass(frozen=True)
class SingularityReport:
    u: float
    v: float
    classification: SingularityClass
    diagnostics: SingularityDiagnostics

    def as_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "classification": self.classification.value,
            "diagnostics": self.diagnostics.as_dict(),
        }


@dataclasses.dataclass(frozen=True)
class RefinementRecord:
    """One Newton run: the seed, where it went, and how it ended."""

    seed_u: float
    seed_v: float
    u: float
    v: float
    residual: float
    iterations: int
    converged: bool
    tangent: Optional[tuple[float, float]] = None  # of a singular curve through the root


def _as_field(fs: FieldLike) -> InvariantField:
    if isinstance(fs, FramedSurface):
        return invariant_field(fs)
    if callable(fs):
        return fs
    raise TypeError(f"expected a FramedSurface or an invariant field, got {type(fs)!r}")


def _alpha_beta(field: InvariantField, u: float, v: float) -> np.ndarray:
    inv = field(u, v)
    return np.array([inv.alpha, inv.beta])


def _safe_alpha_beta(field: InvariantField, u: float, v: float) -> Optional[np.ndarray]:
    """(alpha, beta), or None where the surface cannot be evaluated (a wild
    Newton step can leave the numerically representable range entirely)."""
    try:
        with np.errstate(all="ignore"):
            f = _alpha_beta(field, u, v)
    except (ArithmeticError, ValueError):
        return None
    if not np.all(np.isfinite(f)):
        return None
    return f


def _newton_refine(
    field: InvariantField, u0: float, v0: float, tol: float, find_tangent: bool = True
) -> RefinementRecord:
    """Damped 2D Newton on (alpha, beta) with a finite-difference Jacobian.

    Steps are halved until the residual decreases.  A Jacobian of rank one
    (on a singular *curve*, where one direction is flat) gives the
    minimum-norm least-squares step, which walks to the nearest zero
    instead of along the curve by the rounding noise of the flat part.
    With ``find_tangent``, the Jacobian at a converged root tells whether
    it lies on such a curve.
    """
    p = np.array([u0, v0])
    f = _safe_alpha_beta(field, *p)
    if f is None:
        return RefinementRecord(u0, v0, u0, v0, math.inf, 0, False)
    res = float(np.sum(np.abs(f)))
    iters = 0
    while res >= tol and iters < MAX_NEWTON_ITERS:
        jac = _jacobian(field, p)
        if jac is None:
            break
        step = np.linalg.lstsq(jac, -f, rcond=RANK_TOL)[0]
        if not np.all(np.isfinite(step)):
            break
        # damping: halve until the residual actually drops
        lam = 1.0
        for _ in range(25):
            q = p + lam * step
            fq = _safe_alpha_beta(field, *q)
            if fq is not None:
                rq = float(np.sum(np.abs(fq)))
                if rq < res:
                    p, f, res = q, fq, rq
                    break
            lam *= 0.5
        else:
            break  # no useful step at any damping; give up on this seed
        iters += 1
    tangent = None
    jac = _jacobian(field, p) if res < tol and find_tangent else None
    if jac is not None:
        _, sv, vt = np.linalg.svd(jac)
        if sv[1] <= RANK_TOL * sv[0]:
            tangent = (float(vt[1, 0]), float(vt[1, 1]))
    return RefinementRecord(
        seed_u=u0,
        seed_v=v0,
        u=float(p[0]),
        v=float(p[1]),
        residual=res,
        iterations=iters,
        converged=res < tol,
        tangent=tangent,
    )


def _jacobian(field: InvariantField, p: np.ndarray) -> Optional[np.ndarray]:
    """Central-difference Jacobian of (alpha, beta), or None where the
    stencil cannot be evaluated."""
    h = H_INVARIANT
    stencil = [
        _safe_alpha_beta(field, p[0] + h, p[1]),
        _safe_alpha_beta(field, p[0] - h, p[1]),
        _safe_alpha_beta(field, p[0], p[1] + h),
        _safe_alpha_beta(field, p[0], p[1] - h),
    ]
    if any(s is None for s in stencil):
        return None
    return np.column_stack(
        [(stencil[0] - stencil[1]) / (2.0 * h), (stencil[2] - stencil[3]) / (2.0 * h)]
    )


def _canonicalize_u(u: float, dom: Domain, snap: float = 0.0) -> float:
    """Fold a refined u into (u_min, u_min + period] using the declared period.

    A root within ``snap`` of the left seam is the same physical point as
    the right edge when the window spans a whole period; it is re-expressed
    on the right so duplicate pairs like (-pi, 0) / (pi, 0) collapse.
    """
    if dom.u_period is None:
        return u
    period = dom.u_period
    u = dom.u_min + math.fmod(u - dom.u_min, period)
    if u <= dom.u_min:
        u += period
    if u < dom.u_min + snap and u + period <= dom.u_max + snap:
        u += period
    return u


def find_singular_points(
    fs: FieldLike,
    domain: Optional[Domain] = None,
    tol: float = REFINE_TOL,
    full_output: bool = False,
):
    """Grid-scan for zeros of (alpha, beta), refine, deduplicate.

    A grid cell seeds a Newton run from its centre when, for alpha and beta
    separately, the smallest corner magnitude is at most the corner-to-corner
    spread (max - min).  That keeps every sign change, every exactly-zero
    corner and the cells beside a double zero such as alpha = v^2, and skips
    cells where either component stays clear of zero.  Refined roots outside
    the domain are dropped; period-equivalent u values are folded into one
    window first.  A root on a singular curve (a record with a ``tangent``)
    seeds two more Newton runs half a cell along the curve to either side,
    so the curve sample has no gap wider than a cell.  Returns the sorted
    (u, v) list, plus every :class:`RefinementRecord` (one per grid seed,
    v-major, then the curve seeds) when ``full_output``.
    """
    if domain is None:
        if not isinstance(fs, FramedSurface):
            raise ValueError("an explicit domain is required for a bare invariant field")
        domain = fs.domain
    field = _as_field(fs)

    ug, vg = domain.u_grid(), domain.v_grid()
    alpha = np.empty((len(vg), len(ug)))
    beta = np.empty_like(alpha)
    for iv, v in enumerate(vg):
        for iu, u in enumerate(ug):
            inv = field(u, v)
            alpha[iv, iu] = inv.alpha
            beta[iv, iu] = inv.beta

    def candidate(g: np.ndarray) -> np.ndarray:
        corners = np.stack([g[:-1, :-1], g[:-1, 1:], g[1:, :-1], g[1:, 1:]])
        return np.abs(corners).min(axis=0) <= corners.max(axis=0) - corners.min(axis=0)

    records = [
        _newton_refine(field, 0.5 * (ug[iu] + ug[iu + 1]), 0.5 * (vg[iv] + vg[iv + 1]), tol)
        for iv, iu in zip(*np.nonzero(candidate(alpha) & candidate(beta)))  # v-major
    ]
    du, dv = domain.cell()
    records += [
        _newton_refine(field, r.u + s * du * r.tangent[0], r.v + s * dv * r.tangent[1], tol, False)
        for r in records
        if r.tangent is not None
        for s in (-0.5, 0.5)
    ]

    points = [(u, v) for u, v, _ in _merge_roots(records, domain)]
    if full_output:
        return points, records
    return points


def _merge_roots(
    records: Sequence[RefinementRecord], domain: Domain
) -> list[tuple[float, float, int]]:
    """Deduplicate converged roots into sorted (u, v, newton_iters) triples.

    Roots within a tenth of a cell (periodically in u) are one point;
    ``newton_iters`` is the fewest iterations among the merged records.
    """
    du, dv = domain.cell()
    dedup_dist = min(du, dv) / 10.0

    def dist(u1, v1, u2, v2):
        d_u = abs(u1 - u2)
        if domain.u_period is not None:
            d_u = min(d_u, domain.u_period - d_u)
        return math.hypot(d_u, v1 - v2)

    roots: list[list] = []
    for rec in sorted(records, key=lambda r: (r.u, r.v)):
        if not rec.converged:
            continue
        u = _canonicalize_u(rec.u, domain, snap=dedup_dist)
        v = rec.v
        if not domain.contains(u, v, margin=-1e-9):
            continue
        root = next((r for r in roots if dist(u, v, r[0], r[1]) <= dedup_dist), None)
        if root is None:
            roots.append([u, v, rec.iterations])
        else:
            root[2] = min(root[2], rec.iterations)
    return sorted(tuple(r) for r in roots)


def _stencil_field(fs: FieldLike, u: float, v: float, h: float, h_phi: float) -> InvariantField:
    """The field that classifying (u, v) reads.  For a FramedSurface, the 45
    points behind the partials and det Hess(phi) come from one array call,
    equal bit for bit to one-point calls; otherwise, or if that call fails,
    points are evaluated one by one and raise in evaluation order."""
    field = _as_field(fs)
    if not isinstance(fs, FramedSurface):
        return field
    pts = [
        p
        for uu in (u, u + h_phi, u - h_phi)
        for vv in (v, v + h_phi, v - h_phi)
        for p in ((uu, vv), (uu + h, vv), (uu - h, vv), (uu, vv + h), (uu, vv - h))
    ]
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            inv = field(*np.array(pts).T)
    except Exception:
        return field
    cols = [getattr(inv, f.name) for f in dataclasses.fields(inv)]
    table = {p: Invariants(*(c[k] for c in cols)) for k, p in enumerate(pts)}
    return lambda uu, vv: table[uu, vv] if (uu, vv) in table else field(uu, vv)


def _invariant_partials(
    field: InvariantField, u: float, v: float, h: float
) -> tuple[Invariants, dict[str, float]]:
    """Center value plus central differences of all twelve invariants,
    alpha, and beta; keys are like 'a1_u', 'alpha_v'."""
    q = field(u, v)
    pu, mu = field(u + h, v), field(u - h, v)
    pv, mv = field(u, v + h), field(u, v - h)
    d: dict[str, float] = {}
    for name in ("a1", "a2", "b1", "b2", "c1", "c2", "alpha", "beta"):
        d[name + "_u"] = (getattr(pu, name) - getattr(mu, name)) / (2.0 * h)
        d[name + "_v"] = (getattr(pv, name) - getattr(mv, name)) / (2.0 * h)
    return q, d


def _require_c(q: Invariants, u: float, v: float, tol: float) -> None:
    if math.hypot(q.c1, q.c2) <= tol:
        raise CDegenerateError(f"both c-invariants vanish at ({u}, {v}): (c1, c2) = ({q.c1:.3e}, {q.c2:.3e})")


def phi(
    fs: FieldLike,
    u: float,
    v: float,
    h: float = H_INVARIANT,
    c_tol: float = CORANK_TOL,
) -> float:
    """The 3x3 degeneracy determinant at (u, v).

    Rows are the frame components of xi x, eta x and eta eta x, written
    out in invariants (alpha/beta partials by central differences with
    step ``h``):

        | a1 c1 + a2 c2   -beta   c1 beta_v - c2 beta_u + alpha (c1 e2 - c2 e1) |
        | b1 c1 + b2 c2   alpha   c2 alpha_u - c1 alpha_v + beta (c1 e2 - c2 e1) |
        | c1^2 + c2^2       0     beta (c1 f2 - c2 f1) + alpha (c2 g1 - c1 g2)   |

    Raises :class:`CDegenerateError` when both c-invariants vanish within
    ``c_tol`` — the degenerate direction eta is undefined there.
    """
    q, d = _invariant_partials(_as_field(fs), u, v, h)
    _require_c(q, u, v, c_tol)
    al, be = q.alpha, q.beta
    ce = q.c1 * q.e2 - q.c2 * q.e1
    m = np.array(
        [
            [q.a1 * q.c1 + q.a2 * q.c2, -be, q.c1 * d["beta_v"] - q.c2 * d["beta_u"] + al * ce],
            [q.b1 * q.c1 + q.b2 * q.c2, al, q.c2 * d["alpha_u"] - q.c1 * d["alpha_v"] + be * ce],
            [q.c1 ** 2 + q.c2 ** 2, 0.0, be * (q.c1 * q.f2 - q.c2 * q.f1) + al * (q.c2 * q.g1 - q.c1 * q.g2)],
        ]
    )
    return float(np.linalg.det(m))


def _hess_phi_det(
    field: InvariantField,
    u: float,
    v: float,
    h_phi: float,
    h_inv: float,
    c_tol: float,
) -> float:
    """det Hess(phi) by 3-point / 4-corner second differences of phi."""

    def p(uu, vv):
        return phi(field, uu, vv, h=h_inv, c_tol=c_tol)

    center = p(u, v)
    fuu = (p(u + h_phi, v) - 2.0 * center + p(u - h_phi, v)) / h_phi ** 2
    fvv = (p(u, v + h_phi) - 2.0 * center + p(u, v - h_phi)) / h_phi ** 2
    fuv = (
        p(u + h_phi, v + h_phi)
        - p(u + h_phi, v - h_phi)
        - p(u - h_phi, v + h_phi)
        + p(u - h_phi, v - h_phi)
    ) / (4.0 * h_phi ** 2)
    return fuu * fvv - fuv ** 2


def _row_dets(q: Invariants, d: Mapping[str, float]) -> dict[str, float]:
    """The four 2x2 determinants det(row_u c), det(row_v c) for rows a, b.

    det(a_u c) pairs the column vector (a1_u, a2_u) with (c1, c2).
    """
    return {
        "au_c": d["a1_u"] * q.c2 - d["a2_u"] * q.c1,
        "av_c": d["a1_v"] * q.c2 - d["a2_v"] * q.c1,
        "bu_c": d["b1_u"] * q.c2 - d["b2_u"] * q.c1,
        "bv_c": d["b1_v"] * q.c2 - d["b2_v"] * q.c1,
    }


def _report(
    u0: float, v0: float, q: Invariants, not_corank_one: bool, cross_cap: bool, D: float, hess: float,
    pair: tuple[float, float], hess_tol: float, pair_tol: float, newton_iters: int, refine_tol: float,
) -> SingularityReport:
    """The decision ladder of both classifiers, from the corank-one and the
    cross-cap tests that each makes its own way, and the report."""
    if not_corank_one:
        tag = SingularityClass.NOT_CORANK_ONE
    elif cross_cap:
        tag = SingularityClass.CROSS_CAP
    elif hess < -hess_tol and math.hypot(*pair) > pair_tol:
        tag = SingularityClass.S1_PLUS
    elif hess > hess_tol:
        tag = SingularityClass.S1_MINUS
    else:
        tag = SingularityClass.UNCLASSIFIED

    diag = SingularityDiagnostics(
        alpha=q.alpha,
        beta=q.beta,
        a_pair=(q.a1, q.a2),
        b_pair=(q.b1, q.b2),
        c_pair=(q.c1, q.c2),
        D=D,
        hess_phi=hess,
        independence_pair=pair,
        newton_iters=newton_iters,
        converged=bool(abs(q.alpha) + abs(q.beta) < refine_tol),
    )
    return SingularityReport(u=u0, v=v0, classification=tag, diagnostics=diag)


def classify_singularity(
    fs: FieldLike,
    u0: float,
    v0: float,
    corank_tol: float = CORANK_TOL,
    d_tol: float = D_TOL,
    hess_tol: float = HESS_TOL,
    pair_tol: float = PAIR_TOL,
    h: float = H_INVARIANT,
    h_phi: float = H_PHI,
    refine_tol: float = REFINE_TOL,
    newton_iters: int = 0,
) -> SingularityReport:
    """Classify a (previously refined) singular point.

    Decision ladder: corank-one screen, then |D| > ``d_tol`` for a cross
    cap, then the sign of det Hess(phi) with the independence pair for
    S1+/S1-; anything that straddles a threshold is ``unclassified``.
    ``newton_iters`` is carried into the diagnostics verbatim so scan
    pipelines can stamp their refinement effort.
    """
    field = _stencil_field(fs, u0, v0, h, h_phi)
    q, d = _invariant_partials(field, u0, v0, h)
    _require_c(q, u0, v0, corank_tol)

    dets = _row_dets(q, d)
    D = dets["bu_c"] * dets["av_c"] - dets["bv_c"] * dets["au_c"]
    pair = (
        -q.c1 * dets["av_c"] + q.c2 * dets["au_c"],
        q.c2 * dets["bu_c"] - q.c1 * dets["bv_c"],
    )
    hess = _hess_phi_det(field, u0, v0, h_phi, h, corank_tol)

    corank_one = max(abs(q.a1), abs(q.a2), abs(q.b1), abs(q.b2)) <= corank_tol
    return _report(u0, v0, q, not corank_one, abs(D) > d_tol, D, hess, pair,
                   hess_tol, pair_tol, newton_iters, refine_tol)


def horocyclic_classify_singularity(
    inv_field: FieldLike,
    u0: float,
    v0: float,
    tol: float = CORANK_TOL,
    d_tol: float = D_TOL,
    hess_tol: float = HESS_TOL,
    pair_tol: float = PAIR_TOL,
    h: float = H_INVARIANT,
    h_phi: float = H_PHI,
    refine_tol: float = REFINE_TOL,
    newton_iters: int = 0,
) -> SingularityReport:
    """Specialized classifier for the horocyclic invariant structure.

    There a2 = b2 = 0 identically and c2 = -1, so a point is singular
    exactly when a1 = b1 = 0, the cross-cap test collapses to the bracket
    a1_u b1_v - a1_v b1_u != 0, and the independence pair becomes
    (c1 a1_v + a1_u, c1 b1_v + b1_u).  The Hessian test is unchanged.
    A point violating a1 = b1 = 0 within ``tol`` is regular, reported
    ``not_corank_one``.
    """
    field = _stencil_field(inv_field, u0, v0, h, h_phi)
    q, d = _invariant_partials(field, u0, v0, h)

    bracket = d["a1_u"] * d["b1_v"] - d["a1_v"] * d["b1_u"]
    dets = _row_dets(q, d)
    D = dets["bu_c"] * dets["av_c"] - dets["bv_c"] * dets["au_c"]
    pair = (q.c1 * d["a1_v"] + d["a1_u"], q.c1 * d["b1_v"] + d["b1_u"])
    hess = _hess_phi_det(field, u0, v0, h_phi, h, tol)

    return _report(u0, v0, q, max(abs(q.a1), abs(q.b1)) > tol, abs(bracket) > d_tol, D, hess, pair,
                   hess_tol, pair_tol, newton_iters, refine_tol)


def singularity_scan(
    fs: FieldLike,
    domain: Optional[Domain] = None,
    tol: float = REFINE_TOL,
    **classify_kwargs,
) -> list[SingularityReport]:
    """find_singular_points followed by classify_singularity on each root.

    Each report's ``newton_iters`` is the fewest iterations among the
    Newton runs that the deduplication merged into its point.
    """
    if domain is None and isinstance(fs, FramedSurface):
        domain = fs.domain
    _, records = find_singular_points(fs, domain=domain, tol=tol, full_output=True)
    return [
        classify_singularity(fs, u, v, newton_iters=iters, **classify_kwargs)
        for u, v, iters in _merge_roots(records, domain)
    ]


def reports_to_json(
    reports: Sequence[SingularityReport],
    tolerances: Optional[Mapping[str, float]] = None,
) -> str:
    """Serialize reports (plus the tolerances used) as a JSON document."""
    tols = dict(tolerances) if tolerances is not None else {
        "refine": REFINE_TOL,
        "corank": CORANK_TOL,
        "D": D_TOL,
        "hess": HESS_TOL,
        "pair": PAIR_TOL,
    }
    doc = {
        "tool_version": __version__,
        "tolerances": tols,
        "reports": [r.as_dict() for r in reports],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
