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

This one ladder classifies every field.  On a horocyclic field
(a2 = b2 = 0, c2 = -1) D is minus the paper's bracket
a1_u b1_v - a1_v b1_u, so its cross-cap criterion needs no classifier of
its own; ``horocyclic_classify_singularity`` is kept as another name of
:func:`classify_singularity`.

Invariant fields broadcast like maps, and so does the classifier: ``(u, v)``
are floats or equal-shape arrays, and constant components are allowed.
Each stage is one field call: the screen over the whole grid, each Newton
stage over every seed (the Jacobians through
:func:`h3frames.frames.invariant_partials`, over all their stencils at
once), and the classification of a scan over every root, 45 points each.

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
from .frames import FramedSurface, Invariants, invariant_field, invariant_partials
from .surface import Domain, first_true

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


def _alpha_beta(field: InvariantField, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(alpha, beta) at the points (u, v), one row per point."""
    inv = field(u, v)
    return np.stack([np.broadcast_to(inv.alpha, u.shape), np.broadcast_to(inv.beta, u.shape)], axis=-1)


def _jacobians(field: InvariantField, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians of (alpha, beta) at the points (u, v),
    one row (alpha_u, alpha_v, beta_u, beta_v) per point, from one field
    call over their stencils."""
    _, d = invariant_partials(field, u, v, H_INVARIANT)
    return np.stack([d["alpha_u"], d["alpha_v"], d["beta_u"], d["beta_v"]], axis=-1)


def _rows(fn: Callable, field: InvariantField, u: np.ndarray, v: np.ndarray, width: int) -> np.ndarray:
    """``fn(field, u, v)``, one row of ``width`` values per point, with nan
    rows where a point cannot be evaluated: its values are not finite, or
    the field refuses it (a wild Newton step can leave the numerically
    representable range entirely).  A refused call is split in halves until
    each refusing point stands alone; no points make no call."""
    if not len(u):
        return np.empty((0, width))
    try:
        with np.errstate(all="ignore"):
            out = fn(field, u, v)
    except (ArithmeticError, ValueError):
        if len(u) == 1:
            return np.full((1, width), np.nan)
        k = len(u) // 2
        return np.concatenate([_rows(fn, field, u[:k], v[:k], width),
                               _rows(fn, field, u[k:], v[k:], width)])
    out[~np.isfinite(out).all(axis=1)] = np.nan
    return out


def _newton_refine(
    field: InvariantField, seeds, tol: float, find_tangent: bool = True
) -> list[RefinementRecord]:
    """Damped 2D Newton on (alpha, beta) with a finite-difference Jacobian,
    from each (u, v) row of ``seeds``; one record per seed, in order.

    Steps are halved until the residual decreases, 25 times at most.  A
    Jacobian of rank one (on a singular *curve*, where one direction is
    flat) gives the minimum-norm least-squares step, which walks to the
    nearest zero instead of along the curve by the rounding noise of the
    flat part.  With ``find_tangent``, the Jacobian at a converged root
    tells whether it lies on such a curve.  A run ends where its point,
    stencil or step cannot be evaluated.

    All seeds step together: each iteration makes one field call over the
    Jacobian stencils of the running seeds, each halving one over the seeds
    still waiting for a lower residual, and the tangent test one over the
    converged roots.  Each seed takes the steps a run of its own would.
    """
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    p = seeds.copy()
    f = _rows(_alpha_beta, field, p[:, 0], p[:, 1], 2)
    res = np.abs(f).sum(axis=1)
    running = np.isfinite(res)
    res[~running] = math.inf
    iters = np.zeros(len(p), dtype=int)
    while True:
        running &= (res >= tol) & (iters < MAX_NEWTON_ITERS)
        idx = np.flatnonzero(running)
        if not idx.size:
            break
        steps = np.full((idx.size, 2), np.nan)
        for k, (i, j) in enumerate(zip(idx, _rows(_jacobians, field, p[idx, 0], p[idx, 1], 4))):
            if np.all(np.isfinite(j)):
                steps[k] = np.linalg.lstsq(j.reshape(2, 2), -f[i], rcond=RANK_TOL)[0]
        ok = np.isfinite(steps).all(axis=1)
        running[idx[~ok]] = False
        idx, steps = idx[ok], steps[ok]
        # damping: halve until the residual actually drops
        lam = 1.0
        for _ in range(25):
            if not idx.size:
                break
            q = p[idx] + lam * steps
            fq = _rows(_alpha_beta, field, q[:, 0], q[:, 1], 2)
            rq = np.abs(fq).sum(axis=1)
            lower = rq < res[idx]  # False where fq is nan
            done = idx[lower]
            p[done], f[done], res[done] = q[lower], fq[lower], rq[lower]
            iters[done] += 1
            idx, steps = idx[~lower], steps[~lower]
            lam *= 0.5
        running[idx] = False  # no useful step at any damping; give up on these seeds
    tangents = [None] * len(p)
    roots = np.flatnonzero((res < tol) & find_tangent)
    for i, j in zip(roots, _rows(_jacobians, field, p[roots, 0], p[roots, 1], 4)):
        if np.all(np.isfinite(j)):
            _, sv, vt = np.linalg.svd(j.reshape(2, 2))
            if sv[1] <= RANK_TOL * sv[0]:
                tangents[i] = (float(vt[1, 0]), float(vt[1, 1]))
    return [
        RefinementRecord(*s, *x, r, k, r < tol, t)
        for s, x, r, k, t in zip(seeds.tolist(), p.tolist(), res.tolist(), iters.tolist(), tangents)
    ]


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
    cells where either component stays clear of zero.  All grid seeds are
    refined together, then all curve seeds.  Refined roots outside
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

    U, V = domain.mesh()
    inv = field(U, V)
    alpha, beta = np.broadcast_to(inv.alpha, U.shape), np.broadcast_to(inv.beta, U.shape)

    def candidate(g: np.ndarray) -> np.ndarray:
        corners = np.stack([g[:-1, :-1], g[:-1, 1:], g[1:, :-1], g[1:, 1:]])
        return np.abs(corners).min(axis=0) <= corners.max(axis=0) - corners.min(axis=0)

    ug, vg = domain.u_grid(), domain.v_grid()
    iv, iu = np.nonzero(candidate(alpha) & candidate(beta))  # v-major
    records = _newton_refine(field, 0.5 * np.stack([ug[iu] + ug[iu + 1], vg[iv] + vg[iv + 1]], -1), tol)
    du, dv = domain.cell()
    curve_seeds = [(r.u + s * du * r.tangent[0], r.v + s * dv * r.tangent[1])
                   for r in records if r.tangent is not None for s in (-0.5, 0.5)]
    records += _newton_refine(field, curve_seeds, tol, find_tangent=False)

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
    kept = np.empty((len(records), 2))  # (u, v) of the roots kept so far
    iters: list[int] = []
    for rec in sorted(records, key=lambda r: (r.u, r.v)):
        if not rec.converged:
            continue
        u = _canonicalize_u(rec.u, domain, snap=dedup_dist)
        v = rec.v
        if not domain.contains(u, v, margin=-1e-9):
            continue
        n = len(iters)
        d_u = np.abs(kept[:n, 0] - u)
        if domain.u_period is not None:
            d_u = np.minimum(d_u, domain.u_period - d_u)
        k = first_true(np.hypot(d_u, kept[:n, 1] - v) <= dedup_dist)
        if k is None:
            kept[n] = u, v
            iters.append(rec.iterations)
        else:
            iters[k] = min(iters[k], rec.iterations)
    return sorted(zip(*kept[:len(iters)].T.tolist(), iters))


def _require_c(q: Invariants, u, v, tol: float) -> None:
    """Refuse at the first point (flat order of ``u, v``) where both
    c-invariants vanish."""
    k = first_true(np.hypot(q.c1, q.c2) <= tol)
    if k is not None:
        u, v, c1, c2 = (float(np.ravel(a)[k]) for a in (u, v, q.c1, q.c2))
        raise CDegenerateError(f"both c-invariants vanish at ({u}, {v}): (c1, c2) = ({c1:.3e}, {c2:.3e})")


def phi(
    fs: FieldLike,
    u: float,
    v: float,
    h: float = H_INVARIANT,
    c_tol: float = CORANK_TOL,
) -> float:
    """The 3x3 degeneracy determinant at (u, v), floats or equal-shape arrays.

    Rows are the frame components of xi x, eta x and eta eta x, written
    out in invariants (alpha/beta partials by central differences with
    step ``h``):

        | a1 c1 + a2 c2   -beta   c1 beta_v - c2 beta_u + alpha (c1 e2 - c2 e1) |
        | b1 c1 + b2 c2   alpha   c2 alpha_u - c1 alpha_v + beta (c1 e2 - c2 e1) |
        | c1^2 + c2^2       0     beta (c1 f2 - c2 f1) + alpha (c2 g1 - c1 g2)   |

    Raises :class:`CDegenerateError` when both c-invariants vanish within
    ``c_tol`` — the degenerate direction eta is undefined there.
    """
    q, d = invariant_partials(_as_field(fs), u, v, h)
    _require_c(q, u, v, c_tol)
    return _phi(q, d)


def _phi(q: Invariants, d: Mapping[str, np.ndarray]) -> np.ndarray:
    """phi from the invariants and their partials, one 3x3 determinant per point."""
    al, be = q.alpha, q.beta
    ce = q.c1 * q.e2 - q.c2 * q.e1
    m = np.stack(np.broadcast_arrays(
        q.a1 * q.c1 + q.a2 * q.c2, -be, q.c1 * d["beta_v"] - q.c2 * d["beta_u"] + al * ce,
        q.b1 * q.c1 + q.b2 * q.c2, al, q.c2 * d["alpha_u"] - q.c1 * d["alpha_v"] + be * ce,
        q.c1 * q.c1 + q.c2 * q.c2, 0.0, be * (q.c1 * q.f2 - q.c2 * q.f1) + al * (q.c2 * q.g1 - q.c1 * q.g2),
    ), axis=-1)
    return np.linalg.det(m.reshape(m.shape[:-1] + (3, 3)))


def _read_point(
    fs: FieldLike, u0, v0, h: float, h_phi: float, c_tol: float
) -> tuple[Invariants, dict, np.ndarray]:
    """What classifying (u0, v0), floats or 1-d arrays, reads from one field
    call: the invariants and their partials at each point, and det Hess(phi)
    by second differences of phi (step ``h_phi``) at the centre, u+-, v+- and
    then the corners, on a last axis, each with its partials stencil: 45
    points per point.  Refuses at the first of them where c1 = c2 = 0."""
    up, um, vp, vm = u0 + h_phi, u0 - h_phi, v0 + h_phi, v0 - h_phi
    us = np.stack([u0, up, um, u0, u0, up, up, um, um], axis=-1)
    vs = np.stack([v0, v0, v0, vp, vm, vp, vm, vp, vm], axis=-1)
    q, d = invariant_partials(_as_field(fs), us, vs, h)
    _require_c(q, us, vs, c_tol)
    center, pu, mu, pv, mv, pp, pm, mp, mm = np.moveaxis(_phi(q, d), -1, 0)
    fuu = (pu - 2.0 * center + mu) / h_phi ** 2
    fvv = (pv - 2.0 * center + mv) / h_phi ** 2
    fuv = (pp - pm - mp + mm) / (4.0 * h_phi ** 2)
    q0 = Invariants(**{f.name: getattr(q, f.name)[..., 0] for f in dataclasses.fields(q)})
    return q0, {k: x[..., 0] for k, x in d.items()}, fuu * fvv - fuv ** 2


def _row_dets(q: Invariants, d: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The four 2x2 determinants det(row_u c), det(row_v c) for rows a, b.

    det(a_u c) pairs the column vector (a1_u, a2_u) with (c1, c2).
    """
    return {
        "au_c": d["a1_u"] * q.c2 - d["a2_u"] * q.c1,
        "av_c": d["a1_v"] * q.c2 - d["a2_v"] * q.c1,
        "bu_c": d["b1_u"] * q.c2 - d["b2_u"] * q.c1,
        "bv_c": d["b1_v"] * q.c2 - d["b2_v"] * q.c1,
    }


def classify_singularity(
    fs: FieldLike,
    u0,
    v0,
    corank_tol: float = CORANK_TOL,
    d_tol: float = D_TOL,
    hess_tol: float = HESS_TOL,
    pair_tol: float = PAIR_TOL,
    h: float = H_INVARIANT,
    h_phi: float = H_PHI,
    refine_tol: float = REFINE_TOL,
    newton_iters=0,
) -> Union[SingularityReport, list[SingularityReport]]:
    """Classify (previously refined) singular points.

    ``u0, v0`` are floats, giving one report, or 1-d arrays, giving one
    report per point in order; all points are read in one field call.
    Decision ladder: corank-one screen, then |D| > ``d_tol`` for a cross
    cap, then the sign of det Hess(phi) with the independence pair for
    S1+/S1-; anything that straddles a threshold is ``unclassified``.
    ``newton_iters`` (an int, or an array like ``u0``) is carried into the
    diagnostics verbatim so scan pipelines can stamp their refinement effort.
    On a horocyclic field the independence pair is
    (c1 a1_v + a1_u, c1 b1_v + b1_u).
    """
    q, d, hess = _read_point(fs, u0, v0, h, h_phi, corank_tol)
    dets = _row_dets(q, d)
    D = dets["bu_c"] * dets["av_c"] - dets["bv_c"] * dets["au_c"]
    pair = (
        -q.c1 * dets["av_c"] + q.c2 * dets["au_c"],
        q.c2 * dets["bu_c"] - q.c1 * dets["bv_c"],
    )
    corank_one = np.maximum.reduce([abs(q.a1), abs(q.a2), abs(q.b1), abs(q.b2)]) <= corank_tol
    cols = np.broadcast_arrays(u0, v0, q.alpha, q.beta, q.a1, q.a2, q.b1, q.b2, q.c1, q.c2,
                               corank_one, D, hess, *pair, newton_iters)
    reports = []
    rows = zip(*(c.ravel().tolist() for c in cols))
    for u, v, al, be, a1, a2, b1, b2, c1, c2, cr, dd, hs, p1, p2, iters in rows:
        if not cr:
            tag = SingularityClass.NOT_CORANK_ONE
        elif abs(dd) > d_tol:
            tag = SingularityClass.CROSS_CAP
        elif hs < -hess_tol and math.hypot(p1, p2) > pair_tol:
            tag = SingularityClass.S1_PLUS
        elif hs > hess_tol:
            tag = SingularityClass.S1_MINUS
        else:
            tag = SingularityClass.UNCLASSIFIED

        diag = SingularityDiagnostics(
            alpha=al, beta=be, a_pair=(a1, a2), b_pair=(b1, b2), c_pair=(c1, c2), D=dd, hess_phi=hs,
            independence_pair=(p1, p2), newton_iters=iters, converged=abs(al) + abs(be) < refine_tol,
        )
        reports.append(SingularityReport(u=u, v=v, classification=tag, diagnostics=diag))
    return reports if np.ndim(u0) else reports[0]


horocyclic_classify_singularity = classify_singularity


def singularity_scan(
    fs: FieldLike,
    domain: Optional[Domain] = None,
    tol: float = REFINE_TOL,
    **classify_kwargs,
) -> list[SingularityReport]:
    """find_singular_points followed by one classify_singularity call over
    every merged root (none when there are no roots).

    Each report's ``newton_iters`` is the fewest iterations among the
    Newton runs that the deduplication merged into its point.
    """
    if domain is None and isinstance(fs, FramedSurface):
        domain = fs.domain
    _, records = find_singular_points(fs, domain=domain, tol=tol, full_output=True)
    roots = _merge_roots(records, domain)
    if not roots:
        return []
    u, v, iters = map(np.array, zip(*roots))
    return classify_singularity(fs, u, v, newton_iters=iters, **classify_kwargs)


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
