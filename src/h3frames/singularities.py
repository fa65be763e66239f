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

  built from the first partials of the invariant rows, equal to
  alpha_v beta_u - alpha_u beta_v at singular points — nonzero means a
  cross cap;
* otherwise the sign of det Hess(phi), where phi is the 3x3 determinant
  evaluated by :func:`phi` below, separates S1+ (negative, together with
  a nonvanishing independence pair) from S1- (positive).

Classification reads these derivatives on a torus of complex points
(u0 + r w^j, v0 + r w^k), w = exp(2 pi i / N), around each point: map
values are analytic, so one FFT (the trapezoid rule of the Cauchy
integral; Lyness & Moler 1967, Bornemann 2011) gives Taylor coefficients
to rounding, with no difference step to choose.  The torus frame is
assembled, and (alpha, beta) read, by the same code as any frame's in
:mod:`h3frames.frames`.

This one ladder classifies every field.  On a horocyclic field
(a2 = b2 = 0, c2 = -1) D is minus the paper's bracket
a1_u b1_v - a1_v b1_u, so its cross-cap criterion needs no classifier of
its own; ``horocyclic_classify_singularity`` is kept as another name of
:func:`classify_singularity`.

Invariant fields broadcast like maps, and so does the classifier: ``(u, v)``
are floats or equal-shape arrays, and constant components are allowed;
every stage reads the field through :func:`h3frames.frames._field_at`,
which broadcasts them, so the closed-form oracles of
:mod:`h3frames.examples` scan like any field.
Each stage is one field call: the screen over the whole grid, each Newton
stage over every seed (the Jacobians over all their four-point stencils at
once), and the classification of a scan over every root and its torus.

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

from . import REFINE_TOL, __version__
from .errors import CDegenerateError
from .frames import FramedSurface, Invariants, _assemble, _field_at, basic_invariants, invariant_field
from .surface import Domain, evaluate, first_true

__all__ = [
    "REFINE_TOL",
    "CORANK_TOL",
    "D_TOL",
    "HESS_TOL",
    "PAIR_TOL",
    "H_INVARIANT",
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
#: Step of the central-difference Jacobians of Newton's refinement.
H_INVARIANT = 1e-5
#: Points per direction and radius of the torus on which classification
#: reads its derivatives (:func:`_torus_read`).  N = 9 reads det Hess(phi)
#: of the S1+- germs to rounding, where N = 8 leaves 1.3e-6 of it.
_TORUS_N = 9
_TORUS_R = 1e-2
_TORUS_M = np.arange(_TORUS_N)  # Taylor powers along one circle
_TORUS_Z = _TORUS_R * np.exp(2j * np.pi * _TORUS_M / _TORUS_N)  # r w^j
_TORUS_ZU, _TORUS_ZV = np.meshgrid(_TORUS_Z, _TORUS_Z, indexing="ij")
#: Torus point (j, k) is the conjugate of (-j, -k), where a field real at
#: real points takes the conjugate value: only rows j <= N // 2 are evaluated.
_TORUS_ROWS = _TORUS_N // 2 + 1

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
    refine_tol: float  # the bound that ``converged`` was judged against

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
    q = _field_at(field, u, v)
    return np.stack([q.alpha, q.beta], axis=-1)


def _jacobians(field: InvariantField, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians of (alpha, beta) at the points (u, v),
    one row (alpha_u, alpha_v, beta_u, beta_v) per point, from one field
    call over their stencils (u + h, v), (u - h, v), (u, v + h), (u, v - h)."""
    h = H_INVARIANT
    U, V = np.stack([u + h, u - h, u, u], axis=-1), np.stack([v, v, v + h, v - h], axis=-1)
    f = _alpha_beta(field, U, V)
    return np.stack([f[:, 0] - f[:, 1], f[:, 2] - f[:, 3]], axis=-1).reshape(-1, 4) / (2.0 * h)


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
    running seeds' Jacobian stencils and one pseudo-inverse of their stack,
    each halving one call over the seeds still waiting for a lower residual,
    and the tangent test one call and one SVD over the converged roots.
    Each seed takes the steps a run of its own would.
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
        jac = _rows(_jacobians, field, p[idx, 0], p[idx, 1], 4).reshape(-1, 2, 2)
        steps = np.einsum("nij,nj->ni", np.linalg.pinv(np.nan_to_num(jac), rcond=RANK_TOL), -f[idx])
        steps[np.isnan(jac[:, 0, 0])] = np.nan  # _rows marks a whole row nan
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
    tangents = np.full((len(p), 2), np.nan)
    roots = np.flatnonzero((res < tol) & find_tangent)
    jac = _rows(_jacobians, field, p[roots, 0], p[roots, 1], 4).reshape(-1, 2, 2)
    _, sv, vt = np.linalg.svd(np.nan_to_num(jac))
    flat = (sv[:, 1] <= RANK_TOL * sv[:, 0]) & ~np.isnan(jac[:, 0, 0])
    tangents[roots[flat]] = vt[flat, 1]
    return [
        RefinementRecord(*s, *x, r, k, r < tol, None if math.isnan(t[0]) else tuple(t))
        for s, x, r, k, t in zip(seeds.tolist(), p.tolist(), res.tolist(), iters.tolist(), tangents.tolist())
    ]


def find_singular_points(
    fs: FieldLike,
    domain: Domain,
    tol: float = REFINE_TOL,
    full_output: bool = False,
):
    """Grid-scan ``domain`` for zeros of (alpha, beta), refine, deduplicate.

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
    (u, v) list; with ``full_output``, the sorted (u, v, newton_iters)
    triples of :func:`_merge_roots` instead, and every
    :class:`RefinementRecord` (one per grid seed, v-major, then the curve
    seeds).
    """
    field = _as_field(fs)

    U, V = domain.mesh()
    inv = _field_at(field, U, V)
    alpha, beta = inv.alpha, inv.beta

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

    roots = _merge_roots(records, domain)
    if full_output:
        return roots, records
    return [(u, v) for u, v, _ in roots]


def _merge_roots(
    records: Sequence[RefinementRecord], domain: Domain
) -> list[tuple[float, float, int]]:
    """Deduplicate converged roots into sorted (u, v, newton_iters) triples.

    The roots are taken in (u, v) order.  u is folded into (u_min, u_min +
    period]; a root within a tenth of a cell of the left seam is
    re-expressed on the right when that keeps it inside the window (within
    the domain test's 1e-9 margin), so pairs like (-pi, 0) / (pi, 0)
    collapse.  Roots outside the domain (beyond a 1e-9 margin) are dropped.  The first root not yet merged is a point, and
    takes in every unmerged root within a tenth of a cell of it
    (periodically in u); ``newton_iters`` is the fewest iterations among
    them.  The loop runs once per point, not once per record.
    """
    du, dv = domain.cell()
    dedup_dist = min(du, dv) / 10.0
    u, v, iters = np.array([(r.u, r.v, r.iterations) for r in records if r.converged]).reshape(-1, 3).T
    order = np.lexsort((v, u))
    u, v, iters = u[order], v[order], iters[order]
    period = domain.u_period
    if period is not None:
        u = domain.u_min + np.fmod(u - domain.u_min, period)
        u = np.where(u <= domain.u_min, u + period, u)
        u = np.where((u < domain.u_min + dedup_dist) & (u + period <= domain.u_max + 1e-9), u + period, u)
    inside = domain.contains(u, v, margin=-1e-9)
    u, v, iters = u[inside], v[inside], iters[inside]
    free = np.ones(len(u), dtype=bool)
    points = []
    while free.any():
        i = int(np.argmax(free))
        d_u = np.abs(u - u[i])
        if period is not None:
            d_u = np.minimum(d_u, period - d_u)
        near = free & (np.hypot(d_u, v - v[i]) <= dedup_dist)
        points.append((float(u[i]), float(v[i]), int(iters[near].min())))
        free &= ~near
    return sorted(points)


def phi(fs: FieldLike, u: float, v: float) -> float:
    """The 3x3 degeneracy determinant at (u, v), floats or equal-shape arrays.

    Rows are the frame components of xi x, eta x and eta eta x, written
    out in invariants (alpha/beta partials from the torus of
    :func:`_torus_read`):

        | a1 c1 + a2 c2   -beta   c1 beta_v - c2 beta_u + alpha (c1 e2 - c2 e1) |
        | b1 c1 + b2 c2   alpha   c2 alpha_u - c1 alpha_v + beta (c1 e2 - c2 e1) |
        | c1^2 + c2^2       0     beta (c1 f2 - c2 f1) + alpha (c2 g1 - c1 g2)   |

    Raises :class:`CDegenerateError` when both c-invariants vanish within
    ``CORANK_TOL`` — the degenerate direction eta is undefined there.
    """
    q, d, _ = _torus_read(fs, u, v)
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


def _full(f: np.ndarray) -> np.ndarray:
    """Torus values on two last axes from their evaluated rows: row N - j is
    row j conjugated, with k -> -k."""
    return np.concatenate([f, np.conj(f[..., (_TORUS_N - 1) // 2:0:-1, -_TORUS_M % _TORUS_N])], axis=-2)


def _spectral(f: np.ndarray, k: int) -> np.ndarray:
    """Partial in u (``k`` = 0) or v (1) of torus values at the evaluated rows:
    each circle's Taylor coefficients by FFT, times their powers, over r w^j."""
    m, axis = (_TORUS_M[:, None], -2) if k == 0 else (_TORUS_M, -1)
    df = np.fft.ifft(m * np.fft.fft(_full(f), axis=axis), axis=axis) / (_TORUS_ZU, _TORUS_ZV)[k]
    return df[..., :_TORUS_ROWS, :]


def _torus_invariants(fs: FramedSurface, u0, v0, U, V) -> Invariants:
    def jet(m):  # values, and closed first partials or spectral ones
        x = evaluate(m.value, U, V)
        if m.has_closed_firsts:
            return x, evaluate(m.du, U, V), evaluate(m.dv, U, V)
        return x, _spectral(x, 0), _spectral(x, 1)

    return basic_invariants(_assemble(u0, v0, *map(jet, (fs.x, fs.nu1, fs.nu2))))


def _torus_read(fs: FieldLike, u0, v0) -> tuple[Invariants, dict, np.ndarray]:
    """The invariants at (u0, v0), floats or equal-shape arrays, the first
    partials of the ones classification reads (a1, a2, b1, b2, alpha and
    beta) and det Hess(phi), in stages: the field at the points, a
    refusal where c1 = c2 = 0 (within ``CORANK_TOL``) there, the torus of
    every point on two last axes.  An array call refuses at the first point
    of the first stage that refuses.  The torus values' Taylor coefficients
    c_mn r^(m + n) (one 2-d FFT per quantity) give the partials c10, c01;
    spectral partials of alpha and beta make phi there, and its
    coefficients det Hess(phi) = 4 c20 c02 - c11^2.  A framed surface's
    maps are read there by :func:`basic_invariants`, whose refusals name
    the point."""
    q = _field_at(_as_field(fs), u0, v0)
    k = first_true(np.hypot(q.c1, q.c2) <= CORANK_TOL)
    if k is not None:
        u, v, c1, c2 = (float(np.ravel(a)[k]) for a in (u0, v0, q.c1, q.c2))
        raise CDegenerateError(f"both c-invariants vanish at ({u}, {v}): (c1, c2) = ({c1:.3e}, {c2:.3e})")
    u0, v0 = (np.broadcast_to(np.asarray(c, dtype=float)[..., None, None], np.shape(c) + (_TORUS_ROWS, _TORUS_N))
              for c in (u0, v0))
    U, V = u0 + _TORUS_ZU[:_TORUS_ROWS], v0 + _TORUS_ZV[:_TORUS_ROWS]
    t = _torus_invariants(fs, u0, v0, U, V) if isinstance(fs, FramedSurface) else _field_at(fs, U, V)
    d = {}
    for k in ("a1", "a2", "b1", "b2", "alpha", "beta"):
        c = np.fft.fft2(_full(getattr(t, k))).real[..., :2, :2] / (_TORUS_N ** 2 * _TORUS_R)
        d[k + "_u"], d[k + "_v"] = c[..., 1, 0], c[..., 0, 1]
    al, be = t.alpha, t.beta
    ab = {"alpha_u": _spectral(al, 0), "alpha_v": _spectral(al, 1),
          "beta_u": _spectral(be, 0), "beta_v": _spectral(be, 1)}
    p = np.fft.fft2(_full(_phi(t, ab))).real / _TORUS_N ** 2
    return q, d, (4.0 * p[..., 2, 0] * p[..., 0, 2] - p[..., 1, 1] ** 2) / _TORUS_R ** 4


def classify_singularity(
    fs: FieldLike,
    u0,
    v0,
    refine_tol: float = REFINE_TOL,
    newton_iters=0,
) -> Union[SingularityReport, list[SingularityReport]]:
    """Classify (previously refined) singular points.

    ``u0, v0`` are floats, giving one report, or 1-d arrays, giving one
    report per point in order; all points are read together, in the
    stages of :func:`_torus_read`.  Decision ladder: corank-one screen
    (``CORANK_TOL``), then |D| > ``D_TOL`` for a cross cap, then the sign
    of det Hess(phi) beyond ``HESS_TOL`` with the independence pair beyond
    ``PAIR_TOL`` for S1+/S1-; anything that straddles a threshold is
    ``unclassified``.  ``converged`` means |alpha| + |beta| < ``refine_tol``.
    ``newton_iters`` (an int, or an array like ``u0``) is carried into the
    diagnostics verbatim so scan pipelines can stamp their refinement effort.
    On a horocyclic field the independence pair is
    (c1 a1_v + a1_u, c1 b1_v + b1_u).
    """
    q, d, hess = _torus_read(fs, u0, v0)
    # det(a_u c) pairs the column vector (a1_u, a2_u) with (c1, c2)
    au_c, av_c, bu_c, bv_c = (d[r + "1_" + z] * q.c2 - d[r + "2_" + z] * q.c1 for r in "ab" for z in "uv")
    D = bu_c * av_c - bv_c * au_c
    pair = (-q.c1 * av_c + q.c2 * au_c, q.c2 * bu_c - q.c1 * bv_c)
    corank_one = np.maximum.reduce([abs(q.a1), abs(q.a2), abs(q.b1), abs(q.b2)]) <= CORANK_TOL
    cols = np.broadcast_arrays(u0, v0, q.alpha, q.beta, q.a1, q.a2, q.b1, q.b2, q.c1, q.c2,
                               corank_one, D, hess, *pair, newton_iters)
    reports = []
    rows = zip(*(c.ravel().tolist() for c in cols))
    for u, v, al, be, a1, a2, b1, b2, c1, c2, cr, dd, hs, p1, p2, iters in rows:
        if not cr:
            tag = SingularityClass.NOT_CORANK_ONE
        elif abs(dd) > D_TOL:
            tag = SingularityClass.CROSS_CAP
        elif hs < -HESS_TOL and math.hypot(p1, p2) > PAIR_TOL:
            tag = SingularityClass.S1_PLUS
        elif hs > HESS_TOL:
            tag = SingularityClass.S1_MINUS
        else:
            tag = SingularityClass.UNCLASSIFIED

        diag = SingularityDiagnostics(
            alpha=al, beta=be, a_pair=(a1, a2), b_pair=(b1, b2), c_pair=(c1, c2), D=dd, hess_phi=hs,
            independence_pair=(p1, p2), newton_iters=iters, converged=abs(al) + abs(be) < refine_tol,
            refine_tol=refine_tol,
        )
        reports.append(SingularityReport(u=u, v=v, classification=tag, diagnostics=diag))
    return reports if np.ndim(u0) else reports[0]


horocyclic_classify_singularity = classify_singularity


def singularity_scan(
    fs: FieldLike,
    domain: Domain,
    tol: float = REFINE_TOL,
) -> list[SingularityReport]:
    """find_singular_points followed by one classify_singularity call over
    every merged root (none when there are no roots); ``tol`` is both the
    Newton tolerance and the ``refine_tol`` of ``converged``.

    Each report's ``newton_iters`` is the fewest iterations among the
    Newton runs that the deduplication merged into its point; the roots
    are merged once, in :func:`find_singular_points`.
    """
    roots, _ = find_singular_points(fs, domain, tol=tol, full_output=True)
    if not roots:
        return []
    u, v, iters = map(np.array, zip(*roots))
    return classify_singularity(fs, u, v, refine_tol=tol, newton_iters=iters)


def reports_to_json(reports: Sequence[SingularityReport]) -> str:
    """Serialize reports (plus the tolerances they were judged against) as a
    JSON document.  ``refine`` is the reports' ``refine_tol``, or
    ``REFINE_TOL`` when there are none; reports judged against different
    ones raise ``ValueError``."""
    refine = {r.diagnostics.refine_tol for r in reports} or {REFINE_TOL}
    if len(refine) > 1:
        raise ValueError(f"reports judged against different refine tolerances: {sorted(refine)}")
    tols = {"refine": refine.pop(), "corank": CORANK_TOL, "D": D_TOL, "hess": HESS_TOL, "pair": PAIR_TOL}
    doc = {"tool_version": __version__, "tolerances": tols, "reports": [r.as_dict() for r in reports]}
    return json.dumps(doc, indent=2, sort_keys=True)
