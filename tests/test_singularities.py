"""Singular-point location, the phi determinant, and classification.

The built-in surfaces only exhibit cross caps and a degenerate singular
line, so the S1+/S1- and unclassified branches are driven by synthetic
invariant fields: classification reads nothing but the twelve invariants
(and their derivatives), so a callable (u, v) -> Invariants is a complete
test double.  Each synthetic field's alpha/beta/phi are simple
polynomials worked out by hand in the comments.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h3frames import __version__
from h3frames.errors import CDegenerateError, GeometryError
from h3frames.examples import corank_one_surface, get_example
from h3frames.frames import (
    FramedSurface,
    Invariants,
    frame_from_normal,
    invariant_field,
    invariants_at,
    rotate_frame,
    verify_framed,
)
from h3frames.horocyclic import horocyclic_invariants, integrate_frame_curves
from h3frames.projections import transport_to_disc, transport_to_h3
from h3frames.singularities import (
    CORANK_TOL,
    D_TOL,
    HESS_TOL,
    PAIR_TOL,
    REFINE_TOL,
    RefinementRecord,
    SingularityClass,
    classify_singularity,
    find_singular_points,
    phi,
    reports_to_json,
    singularity_scan,
)
from h3frames.singularities import RANK_TOL, _TORUS_N, _TORUS_ROWS, _jacobians, _newton_refine, _torus_read
from h3frames.minkowski import wedge3
from h3frames.surface import Domain, ParametricMap4, components, evaluate

# |D| at the ruled_A cross caps, ~10.8080; derived exactly from the defining
# maps in test_examples.py::test_ruled_a_cross_cap_d_exact_derivation.
TRUE_RULED_A_D = 156.0 * math.sqrt(3.0) / 25.0


def _field(a2=None, b2=None, a1=None, b1=None, c=(1.0, 0.0), e1=0.0, e2=0.0):
    """Invariant field with the given entries as callables or constants."""

    def at(u, v):
        def ev(f, default=0.0):
            if f is None:
                return default
            return f(u, v) if callable(f) else float(f)

        return Invariants(
            a1=ev(a1), a2=ev(a2), b1=ev(b1), b2=ev(b2),
            c1=c[0], c2=c[1],
            e1=e1, e2=e2, f1=0.1, f2=0.0, g1=-0.2, g2=0.0,
        )

    return at


# ---------------------------------------------------------------------------
# locating singular points
# ---------------------------------------------------------------------------


def test_find_singular_points_ruled_a_two_cross_cap_locations():
    ex = get_example("ruled_A")
    pts, _ = find_singular_points(ex.framed, ex.domain)
    assert len(pts) == 2
    (u0, v0, _), (u1, v1, _) = pts
    assert math.hypot(u0 - 0.0, v0) < 1e-8
    assert math.hypot(u1 - math.pi, v1) < 1e-8


def test_find_singular_points_cross_cap_origin():
    ex = get_example("cross_cap")
    pts, records = find_singular_points(ex.framed, ex.domain)
    assert len(pts) == 1
    assert math.hypot(*pts[0][:2]) < 1e-8
    assert any(isinstance(r, RefinementRecord) and r.converged for r in records)
    for r in records:
        if r.converged:
            assert r.residual < 1e-10


@pytest.mark.parametrize("name, max_seeds", [("ruled_A", 64), ("cross_cap", 16)])
def test_screen_seeds_only_cells_near_the_zeros(name, max_seeds):
    # ruled_A's 40x20 grid has 800 cells and cross_cap's 400; only the
    # few around each isolated root need a Newton run.
    ex = get_example(name)
    _, records = find_singular_points(ex.framed, ex.domain)
    assert 0 < len(records) <= max_seeds


def test_find_singular_points_samples_the_ruled_b_line():
    ex = get_example("ruled_B")
    dom = ex.domain
    pts, _ = find_singular_points(ex.framed, dom)
    assert len(pts) > 50  # a whole line of zeros, sampled
    assert max(abs(v) for _, v, _ in pts) < 1e-8
    us = sorted(u for u, _, _ in pts)
    assert us[0] < -2.5 and us[-1] > 2.5  # spread across the u-window
    gaps = [b - a for a, b in zip(us, us[1:])]
    gaps.append(us[0] - dom.u_min + dom.u_max - us[-1])  # across the periodic seam
    assert max(gaps) <= dom.cell()[0]


def test_find_singular_points_empty_on_regular_band():
    fs = get_example("ruled_A").framed
    band = Domain(-math.pi, math.pi, 0.2, 1.0, nu=21, nv=9, u_period=2.0 * math.pi)
    assert find_singular_points(fs, domain=band)[0] == []


def test_find_singular_points_bare_field_needs_domain():
    field = _field(a2=lambda u, v: v, b2=lambda u, v: u)
    with pytest.raises(TypeError):  # the window is a required argument
        find_singular_points(field)
    dom = Domain(-1.0, 1.0, -1.0, 1.0, nu=9, nv=9)
    pts, _ = find_singular_points(field, domain=dom)
    assert len(pts) == 1 and math.hypot(*pts[0][:2]) < 1e-8


def test_a_scan_refuses_what_is_neither_a_framed_surface_nor_a_field():
    with pytest.raises(TypeError, match="expected a FramedSurface or an invariant field, got <class 'int'>"):
        singularity_scan(42, Domain(-1.0, 1.0, -1.0, 1.0, nu=5, nv=5))


@pytest.mark.parametrize("error, refused", [(GeometryError, True), (ValueError, False)])
def test_a_scan_skips_only_the_points_the_geometry_refuses(error, refused):
    # the cross cap's oracle, raising on Newton's 1-d batches only: a
    # GeometryError refuses those points (no seed converges), anything
    # else is a fault and leaves the scan
    ex = get_example("cross_cap")

    def field(u, v):
        if np.ndim(u) == 1:
            raise error("raised on a Newton batch")
        return ex.oracle_invariants(u, v)

    if refused:
        assert singularity_scan(field, ex.domain) == []
    else:
        with pytest.raises(ValueError, match="raised on a Newton batch"):
            singularity_scan(field, ex.domain)


def test_find_singular_points_narrow_window_merges_one_root():
    # on u in [-1e-12, 1e-12] a tenth of a cell is 1e-14, finer than where
    # Newton leaves the origin; the 1e-9 floor of the merge distance keeps
    # the cross cap one point (the merge without it gave 3)
    ex = get_example("cross_cap")
    dom = Domain(-1e-12, 1e-12, ex.domain.v_min, ex.domain.v_max, nu=ex.domain.nu, nv=ex.domain.nv)
    pts, records = find_singular_points(ex.framed, dom)
    assert sum(r.converged for r in records) > 1
    assert len(pts) == 1 and math.hypot(*pts[0][:2]) < 1e-11


def test_find_singular_points_double_zero_inside_a_cell():
    # alpha = -b2 = -(v - 0.125)^2 never changes sign and beta = a2 = u - 0.02;
    # the root sits inside the cell [0, 0.25]^2, whose alpha corners are
    # equal, so only the neighbouring cells can seed it.  Newton converges
    # linearly onto a double zero: |alpha| < 1e-10 puts v within 1e-5.
    field = _field(a2=lambda u, v: u - 0.02, b2=lambda u, v: (v - 0.125) ** 2)
    dom = Domain(-1.0, 1.0, -1.0, 1.0, nu=9, nv=9)
    pts, _ = find_singular_points(field, domain=dom)
    assert len(pts) == 1
    (u0, v0, _), = pts
    assert abs(u0 - 0.02) < 1e-8 and abs(v0 - 0.125) < 1e-5


def test_each_stage_makes_one_field_call():
    # the classifier reads its points through one call of the field, and
    # each Newton stage through one call over every seed
    shapes = []

    def counted(base):
        def field(u, v):
            shapes.append(np.shape(u))
            return base(u, v)

        return field

    field = counted(_field(a2=lambda u, v: v + u * u, b2=lambda u, v: u * u + v * v))  # S1+ below
    classify_singularity(field, 0.0, 0.0)
    assert shapes == [(), (_TORUS_ROWS, _TORUS_N)]  # the point, then the half of its torus it evaluates
    shapes.clear()
    # alpha = v, beta = u: the screen seeds 16 cells, and Newton reaches
    # the root from each in one step
    field = counted(_field(a2=lambda u, v: u, b2=lambda u, v: -v))
    dom = Domain(-1.0, 1.0, -1.0, 1.0, nu=9, nv=9)
    _, records = find_singular_points(field, domain=dom)
    assert [r.iterations for r in records] == [1] * 16
    # the screen, then Newton: start values, Jacobians, trial step, tangent test
    assert shapes == [(9, 9), (16,), (16, 5), (16,), (16, 5)]


@pytest.mark.parametrize("n", [1, 100])
def test_newton_linear_algebra_is_one_pinv_per_stage_and_one_svd(n, monkeypatch):
    # every seed's step comes from one batched pseudo-inverse per stage, and
    # the tangent test from one batched SVD, however many seeds run
    calls = []

    def counted(name):
        base = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append(name)
            return base(*args, **kwargs)

        return call

    def refused(*args, **kwargs):
        raise AssertionError("lstsq called")

    for name in ("pinv", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    seeds = np.random.default_rng(3).uniform(-0.05, 0.05, size=(n, 2))
    records = _newton_refine(invariant_field(get_example("cross_cap").framed), seeds, REFINE_TOL)
    assert all(r.converged for r in records)  # so each stage steps every running seed
    stages = max(r.iterations for r in records)
    assert stages > 1
    assert calls == ["pinv"] * stages + ["svd"]


def test_ruled_b_roots_keep_their_tangents():
    # the batched SVD flags the same roots, with the same null direction up
    # to sign, as one SVD per root of that root's Jacobian
    ex = get_example("ruled_B")
    field = invariant_field(ex.framed)
    _, records = find_singular_points(ex.framed, ex.domain)
    flagged = [r for r in records if r.tangent is not None]
    grid = records[:len(records) - 2 * len(flagged)]  # the curve seeds come last, two per tangent
    assert len(flagged) == 154
    for r in grid:
        if not r.converged:
            assert r.tangent is None
            continue
        _, sv, vt = np.linalg.svd(_jacobians(field, np.array([r.u]), np.array([r.v])).reshape(2, 2))
        assert (r.tangent is not None) == (sv[1] <= RANK_TOL * sv[0]), (r.u, r.v)
        if r.tangent is not None:
            assert min(np.abs(np.subtract(r.tangent, vt[1])).max(),
                       np.abs(np.add(r.tangent, vt[1])).max()) <= 1e-12, (r.u, r.v)


# ---------------------------------------------------------------------------
# the phi determinant
# ---------------------------------------------------------------------------


def test_phi_zero_at_corank_one_singular_point_nonzero_nearby():
    fs = get_example("ruled_A").framed
    assert phi(fs, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert abs(phi(fs, 0.5, 0.4)) > 1e-6


def test_phi_identically_zero_when_alpha_beta_vanish():
    # a- and b-rows identically zero: the middle determinant column is 0
    field = _field(c=(0.8, -0.6), e1=0.3, e2=-0.1)
    for u, v in ((0.0, 0.0), (0.3, -0.2), (-1.0, 0.7)):
        assert phi(field, u, v) == pytest.approx(0.0, abs=1e-14)


def test_phi_c_degenerate_error():
    field = _field(a2=lambda u, v: v, b2=lambda u, v: u, c=(0.0, 0.0))
    with pytest.raises(CDegenerateError):
        phi(field, 0.0, 0.0)
    with pytest.raises(CDegenerateError):
        classify_singularity(field, 0.0, 0.0)


def test_phi_closed_form_on_synthetic_field():
    """With c = (1, 0), a1 = b1 = 0 and e = 0 the determinant collapses to
    a2_v b2 - a2 b2_v; the numeric route must reproduce it."""
    a2 = lambda u, v: v + u * u
    b2 = lambda u, v: u * u - v * v
    field = _field(a2=a2, b2=b2)
    for u, v in ((0.2, 0.1), (-0.4, 0.3), (0.0, 0.0)):
        want = 1.0 * b2(u, v) - a2(u, v) * (-2.0 * v)
        assert phi(field, u, v) == pytest.approx(want, abs=1e-9)


def test_phi_broadcasts_over_arrays():
    fs = get_example("ruled_A").framed
    U, V = np.meshgrid([0.2, 0.5, 1.0], [-0.3, 0.4])
    got = phi(fs, U, V)
    assert got.shape == (2, 3)
    for k in range(got.size):
        assert got.flat[k] == phi(fs, float(U.flat[k]), float(V.flat[k]))
    field = _field(a2=lambda u, v: v, b2=lambda u, v: u, c=(0.0, 0.0))
    with pytest.raises(CDegenerateError, match=r"at \(0\.2, -0\.3\)"):
        phi(field, U, V)


def test_phi_gradient_matches_closed_bracket_on_ruled_a():
    """Two routes to d(phi): finite differences of phi itself versus the
    closed bracket c_i (c1^2 + c2^2) D at the singular point."""
    fs = get_example("ruled_A").framed
    rep = classify_singularity(fs, 0.0, 0.0)
    q = invariants_at(fs, 0.0, 0.0)
    csq = q.c1 ** 2 + q.c2 ** 2
    h = 1e-4
    phi_u = (phi(fs, h, 0.0) - phi(fs, -h, 0.0)) / (2.0 * h)
    phi_v = (phi(fs, 0.0, h) - phi(fs, 0.0, -h)) / (2.0 * h)
    assert phi_u == pytest.approx(q.c1 * csq * rep.diagnostics.D, abs=1e-6)
    assert phi_v == pytest.approx(q.c2 * csq * rep.diagnostics.D, abs=1e-6)
    # and the bracket itself pins the diagnostic value of D
    assert phi_v / (q.c2 * csq) == pytest.approx(TRUE_RULED_A_D, abs=1e-6)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_ruled_a_cross_caps_and_d_value():
    fs = get_example("ruled_A").framed
    for u0 in (0.0, math.pi):
        rep = classify_singularity(fs, u0, 0.0)
        assert rep.classification is SingularityClass.CROSS_CAP
        assert abs(rep.diagnostics.D) == pytest.approx(TRUE_RULED_A_D, abs=1e-6)
        assert rep.diagnostics.converged
        assert abs(rep.diagnostics.alpha) < 1e-12 and abs(rep.diagnostics.beta) < 1e-12


def test_classify_cross_cap_example():
    fs = get_example("cross_cap").framed
    rep = classify_singularity(fs, 0.0, 0.0)
    assert rep.classification is SingularityClass.CROSS_CAP
    assert rep.diagnostics.c_pair == pytest.approx((1.0, 0.0), abs=1e-12)


def test_classify_ruled_b_line_point_unclassified():
    # On the singular line everything degenerates: D = 0 and the Hessian
    # of phi vanishes (phi ~ -alpha^2 * smooth with alpha ~ v), so the
    # classifier must decline rather than guess, at every root of the scan.
    ex = get_example("ruled_B")
    reps = [classify_singularity(ex.framed, 0.37, 0.0)] + singularity_scan(ex.framed, ex.domain)
    assert len(reps) == 1 + 130
    for rep in reps:
        assert rep.classification is SingularityClass.UNCLASSIFIED, (rep.u, rep.v)
        assert abs(rep.diagnostics.D) < 1e-4
        assert abs(rep.diagnostics.hess_phi) < 1e-6


def test_classify_regular_point_not_corank_one():
    fs = get_example("cross_cap").framed
    rep = classify_singularity(fs, 0.5, 0.5)
    assert rep.classification is SingularityClass.NOT_CORANK_ONE
    assert not rep.diagnostics.converged


def test_classify_s1_minus_synthetic():
    # alpha = -b2 = v^2 - u^2, beta = a2 = v + u^2:
    # D = alpha_v beta_u - alpha_u beta_v = 0 at the origin,
    # phi = a2_v b2 - a2 b2_v = u^2 + v^2 + 2 u^2 v, det Hess = +4.
    field = _field(a2=lambda u, v: v + u * u, b2=lambda u, v: u * u - v * v)
    rep = classify_singularity(field, 0.0, 0.0)
    assert rep.classification is SingularityClass.S1_MINUS
    assert rep.diagnostics.hess_phi == pytest.approx(4.0, abs=1e-5)
    assert abs(rep.diagnostics.D) < 1e-10


def test_classify_s1_plus_synthetic():
    # b2 = u^2 + v^2 flips the sign: phi = u^2 - v^2 - 2 u^2 v,
    # det Hess = -4; independence pair = (a2_v, b2_v)(0,0) = (1, 0).
    field = _field(a2=lambda u, v: v + u * u, b2=lambda u, v: u * u + v * v)
    rep = classify_singularity(field, 0.0, 0.0)
    assert rep.classification is SingularityClass.S1_PLUS
    assert rep.diagnostics.hess_phi == pytest.approx(-4.0, abs=1e-5)
    assert rep.diagnostics.independence_pair == pytest.approx((1.0, 0.0), abs=1e-9)


def _s1_germ(k):
    """Mond's S1+- germ (u, v^2, v^3 + k u^2 v) as a corank-one surface:
    det Hess(phi) = -48 k at the origin (derived in
    test_s1_germ_hess_phi_exact_derivation)."""
    return corank_one_surface(ParametricMap4(
        jet=lambda u, v: (components(v * v, v * v * v + k * u * u * v), components(0.0, 2.0 * k * u * v),
                          components(2.0 * v, 3.0 * v * v + k * u * u)),
    ))


@pytest.mark.xfail(strict=True, reason="Newton stops 1e-6 to 1e-5 short of the degenerate S1+- "
                   "root (rank-one Jacobian), where k = +-10 and +-100 read as cross caps")
@pytest.mark.parametrize("k", [1, -1, 10, -10, 100, -100])
def test_s1_germ_scans_to_one_point_at_the_origin(k):
    # the scan of the unit box finds the germ's one singular point where it
    # is, and classes it there; a deflated Newton step must make this pass
    reps = singularity_scan(_s1_germ(k), Domain(-1.0, 1.0, -1.0, 1.0))
    assert len(reps) == 1, [(r.u, r.v) for r in reps]
    assert math.hypot(reps[0].u, reps[0].v) <= 1e-9, (reps[0].u, reps[0].v)
    assert reps[0].classification is (SingularityClass.S1_PLUS if k > 0 else SingularityClass.S1_MINUS)


@pytest.mark.parametrize("k", [1, -1, 10, -10, 100, -100])
def test_classify_s1_germs_at_the_origin(k):
    rep = classify_singularity(_s1_germ(k), 0.0, 0.0)
    assert rep.classification is (SingularityClass.S1_PLUS if k > 0 else SingularityClass.S1_MINUS)
    assert rep.diagnostics.hess_phi == pytest.approx(-48.0 * k, rel=1e-9, abs=0.0)
    assert abs(rep.diagnostics.D) < 1e-12


def test_s1_germ_hess_phi_exact_derivation():
    """det Hess(phi) at the origin of the germs, derived exactly: -48 k.

    The germ's x, nu1 and nu2 are restated from ``corank_one_surface`` as
    truncated series in (u, v) with coefficients polynomial in k: the maps
    to degree 4, so the invariants (the pseudo inner products of
    ``frames.py``, with <y, nu3> = det(y, x, nu1, nu2)) hold to degree 3 and
    phi (the determinant of ``singularities.phi``) to degree 2, enough for
    its Hessian at the origin.  Square roots are binomial series about 1.
    """
    sp = pytest.importorskip("sympy")
    R, u, v, k = sp.ring("u v k", sp.QQ)

    def trunc(p, n):
        return R({m: c for m, c in p.items() if m[0] + m[1] <= n})

    def power(p, e, n=4):  # p^e for p = 1 + w, w(0) = 0
        out, term, w = R(1), R(1), p - 1
        for j in range(1, n // 2 + 1):  # w has no linear term here
            term = trunc(term * w, n) * (e - j + 1) / j
            out += term
        return out

    f, g = v ** 2, v ** 3 + k * u ** 2 * v
    fu, gu = f.diff(u), g.diff(u)
    sq_s = power(trunc(u * u + f * f + g * g + 1, 4), sp.Rational(1, 2))
    x = [sq_s, u, f, g]
    q = trunc((g - u * gu) ** 2 + gu * gu + 1, 4)
    bar2 = [trunc((u * gu - g) * xi, 4) + c for xi, c in zip(x, (0, gu, 0, -1))]
    bar1 = [trunc((f - u * fu) * sq_s, 4), u * f - (1 + u * u) * fu, 1 + f * f - u * f * fu, f * g - u * g * fu]
    kq = trunc((-(g * f + gu * fu) + u * (gu * f + g * fu) - u * u * fu * gu) * power(q, sp.Integer(-1)), 4)
    r1, r2, r3 = f - u * fu, g - u * gu, fu * g - gu * f
    p = trunc(r1 * r1 + r2 * r2 + r3 * r3 + fu * fu + gu * gu + 1, 4)
    scale = trunc(power(q, sp.Rational(1, 2)) * power(p, -sp.Rational(1, 2)), 4)
    nu1 = [trunc(scale * (b1 - trunc(kq * b2, 4)), 4) for b1, b2 in zip(bar1, bar2)]
    nu2 = [trunc(b * power(q, -sp.Rational(1, 2)), 4) for b in bar2]

    # The series are the program's maps, up to their truncation.
    fs = _s1_germ(3)
    for u0, v0 in ((sp.Rational(1, 100), sp.Rational(-2, 100)), (sp.Rational(-3, 200), sp.Rational(1, 200))):
        for sym, m in ((x, fs.x), (nu1, fs.nu1), (nu2, fs.nu2)):
            got = [float(R(c)(u0, v0, 3)) for c in sym]
            assert np.allclose(got, m.value(float(u0), float(v0)), rtol=0.0, atol=1e-8)

    def det3(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    def dot(a, b):
        return trunc(-a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3], 3)

    def dot_nu3(y):  # det(y, x, nu1, nu2) along its first column
        minors = [det3(*[[trunc(m[j], 3) for j in range(4) if j != i] for m in (x, nu1, nu2)]) for i in range(4)]
        return trunc(sum((-1) ** i * y[i] * trunc(minors[i], 3) for i in range(4)), 3)

    def d(vec, z):
        return [R(c).diff(z) for c in vec]

    xu, xv = d(x, u), d(x, v)
    a1, a2, b1, b2 = dot(xu, nu1), dot(xv, nu1), dot(xu, nu2), dot(xv, nu2)
    c1, c2 = dot_nu3(xu), dot_nu3(xv)
    e1, e2 = dot(d(nu1, u), nu2), dot(d(nu1, v), nu2)
    f1, f2, g1, g2 = (dot_nu3(d(n, z)) for n in (nu1, nu2) for z in (u, v))
    al, be = trunc(b1 * c2 - b2 * c1, 3), trunc(c1 * a2 - c2 * a1, 3)
    ce = c1 * e2 - c2 * e1
    phi = trunc(det3(
        [a1 * c1 + a2 * c2, b1 * c1 + b2 * c2, c1 * c1 + c2 * c2],
        [-be, al, R(0)],
        [c1 * be.diff(v) - c2 * be.diff(u) + al * ce, c2 * al.diff(u) - c1 * al.diff(v) + be * ce,
         be * (c1 * f2 - c2 * f1) + al * (c2 * g1 - c1 * g2)],
    ), 2)

    def coeff(i, j):
        return R({(0, 0, m[2]): c for m, c in phi.items() if m[:2] == (i, j)})  # a polynomial in k

    assert 4 * coeff(2, 0) * coeff(0, 2) - coeff(1, 1) ** 2 == -48 * k


def test_classify_degenerate_hessian_unclassified():
    # a2 = v, b2 = u v makes phi identically zero: nothing to decide on.
    field = _field(a2=lambda u, v: v, b2=lambda u, v: u * v)
    rep = classify_singularity(field, 0.0, 0.0)
    assert rep.classification is SingularityClass.UNCLASSIFIED


def test_classification_is_rotation_invariant():
    fs = get_example("cross_cap").framed
    fs_rot = rotate_frame(fs, lambda u, v: 0.3 * u - 0.2 * v)
    base = classify_singularity(fs, 0.0, 0.0)
    rot = classify_singularity(fs_rot, 0.0, 0.0)
    assert rot.classification is base.classification is SingularityClass.CROSS_CAP
    assert rot.diagnostics.D == pytest.approx(base.diagnostics.D, abs=1e-6)


def test_classification_survives_coordinate_swap():
    """Under (u, v) -> (v, u) the singular set swaps coordinates and the
    tags stay put."""
    fs = get_example("ruled_A").framed

    def swap(m):
        def jet(u, v):
            x, du, dv = m.jet(v, u)
            return x, dv, du

        return ParametricMap4(jet=jet)

    dom = Domain(-1.0, 1.0, -0.5, 3.5, nu=11, nv=21)
    swapped = FramedSurface(swap(fs.x), swap(fs.nu1), swap(fs.nu2))
    pts = [(u, v) for u, v, _ in find_singular_points(swapped, dom)[0]]
    assert len(pts) == 2
    by_v = sorted(pts, key=lambda p: p[1])
    assert math.hypot(by_v[0][0], by_v[0][1]) < 1e-8
    assert math.hypot(by_v[1][0], by_v[1][1] - math.pi) < 1e-8
    for u, v in pts:
        rep = classify_singularity(swapped, u, v)
        assert rep.classification is SingularityClass.CROSS_CAP


@pytest.mark.parametrize("name", ["cross_cap", "corank_one", "ruled_A", "ruled_B"])
def test_frame_from_normal_keeps_singular_points_and_classes(name):
    # the singular set and the classes depend on x and nu3 alone, so the
    # pair split from nu3 scans like the built-in pair
    ex = get_example(name)
    fs, dom = ex.framed, ex.domain

    def nu3(u, v):
        return wedge3(*(evaluate(m.value, u, v) for m in (fs.x, fs.nu1, fs.nu2)))

    got = singularity_scan(frame_from_normal(fs.x, ParametricMap4(value=nu3), dom), dom)
    if name == "ruled_B":  # a singular line: its sample stays on v = 0, unclassified
        assert got and max(abs(r.v) for r in got) <= 1e-9
        assert {r.classification for r in got} == {SingularityClass.UNCLASSIFIED}
        return
    want = singularity_scan(fs, dom)
    assert [r.classification for r in got] == [r.classification for r in want]
    for a, b in zip(got, want):
        assert math.hypot(a.u - b.u, a.v - b.v) <= 1e-9


def _planted_horocyclic(tmp_path):
    """The planted cross-cap profile of the golden CLI runs, as an example entry."""
    from test_golden_cli import PLANTED_ROWS

    path = tmp_path / "planted.csv"
    path.write_text("u,h1,h2,h3,h4,h5,h6\n" + "".join(",".join(map(repr, row)) + "\n" for row in PLANTED_ROWS))
    return get_example(f"horocyclic:{path}")


@pytest.mark.parametrize("name", ["cross_cap", "corank_one", "ruled_A", "ruled_B", "planted"])
def test_classes_do_not_depend_on_the_representation(name, tmp_path):
    # A class is an A-equivalence invariant: rotating the normal pair, or
    # sending the surface to the ball model and back, moves neither the
    # singular points nor their classes.  Nor does scanning the example's
    # closed-form invariant oracle instead of its frames (corank_one has none).
    ex = _planted_horocyclic(tmp_path) if name == "planted" else get_example(name)
    fs = ex.framed
    want = singularity_scan(fs, ex.domain)
    assert want
    rotated = rotate_frame(fs, lambda u, v: 0.7 + 0.3 * u - 0.2 * v + 0.1 * u * v)
    others = (rotated, transport_to_h3(transport_to_disc(fs)), ex.oracle_invariants)
    for other in filter(None, others):
        got = singularity_scan(other, ex.domain)
        if name == "ruled_B":  # a singular line, unclassified everywhere
            for reps in (want, got):
                assert {r.classification for r in reps} == {SingularityClass.UNCLASSIFIED}
                assert max(abs(r.v) for r in reps) <= 1e-9
            if other is rotated:  # det Hess phi vanishes on the line
                assert max(abs(r.diagnostics.hess_phi) for r in got) <= 1e-6
            if other is ex.oracle_invariants:  # the same sample of the line
                assert len(got) == len(want)
            continue
        assert [r.classification for r in got] == [r.classification for r in want]
        for a, b in zip(got, want):
            assert math.hypot(a.u - b.u, a.v - b.v) <= 1e-9


def _perfbench_planted(tmp_path, monkeypatch):
    """The benchmark's planted cross-cap profile (rng seed 3, u in [0, 2]),
    as an example entry."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up there
    spec.loader.exec_module(workloads)
    coeffs, _ = workloads.planted_profile(np.random.default_rng(3), (0.0, 2.0))
    workloads.write_profile(tmp_path / "planted.csv", workloads.profile_values(coeffs, (0.0, 2.0)))
    return get_example(f"horocyclic:{tmp_path / 'planted.csv'}")


@pytest.mark.parametrize("name", ["cross_cap", "corank_one", "ruled_A", "ruled_B", "planted"])
def test_the_ball_model_scans_as_itself_like_the_hyperboloid(name, tmp_path, monkeypatch):
    # The ball image is a framed surface of maps into R^3, read by the
    # Euclidean extractor and the one ladder, not lifted back to H^3; a
    # point and its image are singular together, and the classes agree.
    ex = _perfbench_planted(tmp_path, monkeypatch) if name == "planted" else get_example(name)
    ball = transport_to_disc(ex.framed)
    res = verify_framed(ball, ex.domain)
    assert res.max_gram_residual <= 1e-10 and res.max_offspan_residual <= 1e-10
    got = singularity_scan(ball, ex.domain)
    if name == "ruled_B":  # a singular line: its sample stays on v = 0, unclassified
        assert got and max(abs(r.v) for r in got) <= 1e-9
        assert {r.classification for r in got} == {SingularityClass.UNCLASSIFIED}
        return
    want = singularity_scan(ex.framed, ex.domain)
    assert [r.classification for r in got] == [r.classification for r in want]
    for a, b in zip(got, want):
        assert math.hypot(a.u - b.u, a.v - b.v) <= 1e-9
    if name == "planted":
        assert [r.classification for r in got] == [SingularityClass.CROSS_CAP]


@pytest.mark.xfail(strict=True, reason="D is not model-invariant: the hyperboloid reads the "
                   "k = +-10 germs as cross caps, the ball as S1+-")
@pytest.mark.parametrize("k", [10, -10])
def test_s1_germ_classes_agree_on_the_ball(k):
    dom = Domain(-1.0, 1.0, -1.0, 1.0)
    want = singularity_scan(_s1_germ(k), dom)
    got = singularity_scan(transport_to_disc(_s1_germ(k)), dom)
    assert [r.classification for r in got] == [r.classification for r in want]


def _cross_cap_germ():
    """Mond's cross cap (u, v^2, u v) through corank_one_surface."""
    return corank_one_surface(ParametricMap4(
        jet=lambda u, v: (components(v * v, u * v), components(0.0, v), components(2.0 * v, u)),
    ))


@st.composite
def _windows_round_the_origin(draw):
    """A window inside [-0.9, 0.9]^2 whose each side keeps the origin at
    least a quarter of the window away, with 3 to 9 grid points a side."""
    bounds = []
    for _ in range(2):
        width, at = draw(st.floats(0.2, 1.2)), draw(st.floats(0.25, 0.75))
        bounds += [-at * width, (1.0 - at) * width]
    return Domain(*bounds, nu=draw(st.integers(3, 9)), nv=draw(st.integers(3, 9)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(dom=_windows_round_the_origin(), t=st.tuples(*[st.floats(-2.0, 2.0)] * 3))
def test_planted_cross_cap_is_found_under_transforms(dom, t):
    # The planted cross cap at the origin is the one point of every scan:
    # of the germ as given, with its normal pair rotated by theta = a + b u
    # + c v, and sent to the ball model and back.  The S1+- germs are left
    # out (Newton stops short of their degenerate roots) and so are the
    # horocyclic profiles, whose singular sets have no closed form yet.
    fs = _cross_cap_germ()
    rotated = rotate_frame(fs, lambda u, v: t[0] + t[1] * u + t[2] * v)
    for surface in (fs, rotated, transport_to_h3(transport_to_disc(fs))):
        reps = singularity_scan(surface, dom)
        assert len(reps) == 1, [(r.u, r.v) for r in reps]
        assert math.hypot(reps[0].u, reps[0].v) <= 1e-9
        assert reps[0].classification is SingularityClass.CROSS_CAP


# ---------------------------------------------------------------------------
# horocyclic fields: the one ladder against the horocyclic formulas
# ---------------------------------------------------------------------------


def _horocyclic_like(a1, b1, c1=0.7):
    """Field with the horocyclic invariant shape: a2 = b2 = 0, c2 = -1."""

    def at(u, v):
        return Invariants(
            a1=a1(u, v), a2=0.0, b1=b1(u, v), b2=0.0,
            c1=c1, c2=-1.0,
            e1=0.2, e2=0.0, f1=-0.4, f2=0.0, g1=0.3, g2=0.0,
        )

    return at


def _reference_horocyclic(field, u0, v0):
    """Class, D and independence pair by the paper's horocyclic criterion:
    a point is singular when a1 = b1 = 0, a cross cap when the bracket
    a1_u b1_v - a1_v b1_u clears ``D_TOL`` (D is minus the bracket), and
    S1+/S1- by det Hess(phi) with the pair (c1 a1_v + a1_u, c1 b1_v + b1_u):
    the reference of the one classification ladder on fields with
    a2 = b2 = 0 and c2 = -1.  It reads the invariants, their partials and
    det Hess(phi) as the classifier does, from the torus."""
    q, d, hess = _torus_read(field, u0, v0)
    bracket = d["a1_u"] * d["b1_v"] - d["a1_v"] * d["b1_u"]
    pair = (q.c1 * d["a1_v"] + d["a1_u"], q.c1 * d["b1_v"] + d["b1_u"])
    if max(abs(q.a1), abs(q.b1)) > CORANK_TOL:
        tag = SingularityClass.NOT_CORANK_ONE
    elif abs(bracket) > D_TOL:
        tag = SingularityClass.CROSS_CAP
    elif hess < -HESS_TOL and math.hypot(*pair) > PAIR_TOL:
        tag = SingularityClass.S1_PLUS
    elif hess > HESS_TOL:
        tag = SingularityClass.S1_MINUS
    else:
        tag = SingularityClass.UNCLASSIFIED
    return tag, -bracket, tuple(float(p) for p in pair)


def _classify_as_reference(field, u0, v0):
    """classify_singularity at (u0, v0), checked bit for bit against the
    horocyclic reference."""
    rep = classify_singularity(field, u0, v0)
    tag, D, pair = _reference_horocyclic(field, u0, v0)
    assert rep.classification is tag, (u0, v0)
    assert rep.diagnostics.D == D and rep.diagnostics.independence_pair == pair, (u0, v0)
    return rep


def test_horocyclic_classifier_agrees_with_generic_on_cross_cap_field():
    field = _horocyclic_like(a1=lambda u, v: u, b1=lambda u, v: v)
    rep = _classify_as_reference(field, 0.0, 0.0)
    assert rep.classification is SingularityClass.CROSS_CAP


def test_horocyclic_classifier_agrees_on_degenerate_field():
    field = _horocyclic_like(a1=lambda u, v: u * u, b1=lambda u, v: u * u - v * v)
    _classify_as_reference(field, 0.0, 0.0)


def test_horocyclic_classifier_regular_point():
    field = _horocyclic_like(a1=lambda u, v: 1.0 + u, b1=lambda u, v: v)
    rep = _classify_as_reference(field, 0.0, 0.0)
    assert rep.classification is SingularityClass.NOT_CORANK_ONE


def test_horocyclic_never_cross_cap_when_a1_b1_identically_zero():
    field = _horocyclic_like(a1=lambda u, v: 0.0, b1=lambda u, v: 0.0)
    rep = _classify_as_reference(field, 0.3, -0.2)
    assert rep.classification is not SingularityClass.CROSS_CAP


def test_classifier_matches_horocyclic_formulas_on_closed_form_field():
    # h1 - h4 = 0.8 and h2 = 0 make alpha = 0.8 v, and h3 = 0.75 (u - 0.13)
    # makes beta = h3 on v = 0: one cross cap, at (0.13, 0)
    h_funcs = lambda u: components(1.0, 0.0, 0.75 * (u - 0.13), 0.2, 0.15 - 0.2 * u, 0.1 + 0.25 * u)
    field = horocyclic_invariants(integrate_frame_curves(h_funcs, *np.eye(4)[:3], -1.0, 1.0))
    dom = Domain(-1.0, 1.0, -1.5, 1.5, nu=21, nv=21)
    ((u0, v0, _),), _ = find_singular_points(field, domain=dom)
    assert _classify_as_reference(field, u0, v0).classification is SingularityClass.CROSS_CAP
    for u, v in zip(*(g.ravel()[::7] for g in Domain(-0.9, 0.9, -1.4, 1.4, nu=5, nv=5).mesh())):
        _classify_as_reference(field, u, v)


# ---------------------------------------------------------------------------
# scan pipeline and serialization
# ---------------------------------------------------------------------------


def test_singularity_scan_and_json_roundtrip():
    ex = get_example("cross_cap")
    reports = singularity_scan(ex.framed, ex.domain)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.classification is SingularityClass.CROSS_CAP
    assert rep.diagnostics.newton_iters >= 1

    doc = json.loads(reports_to_json(reports))
    assert doc["tool_version"] == __version__
    assert set(doc["tolerances"]) == {"refine", "corank", "D", "hess", "pair"}
    (entry,) = doc["reports"]
    assert entry["classification"] == "cross_cap"
    assert abs(entry["u"]) < 1e-8 and abs(entry["v"]) < 1e-8
    diag = entry["diagnostics"]
    for key in (
        "alpha", "beta", "a_pair", "b_pair", "c_pair",
        "D", "hess_phi", "independence_pair", "newton_iters", "converged",
    ):
        assert key in diag
    # serialization is deterministic
    assert reports_to_json(reports) == reports_to_json(reports)


def test_reports_to_json_records_the_refine_tolerance_of_its_reports():
    ex = get_example("ruled_A")
    reports = singularity_scan(ex.framed, ex.domain, tol=1e-3)
    assert reports and all(r.diagnostics.refine_tol == 1e-3 for r in reports)
    assert json.loads(reports_to_json(reports))["tolerances"]["refine"] == 1e-3
    assert json.loads(reports_to_json([]))["tolerances"]["refine"] == REFINE_TOL
    strict = singularity_scan(ex.framed, ex.domain)
    with pytest.raises(ValueError):
        reports_to_json(reports + strict)
