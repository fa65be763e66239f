"""Singular-point location, the phi determinant, and classification.

The built-in surfaces only exhibit cross caps and a degenerate singular
line, so the S1+/S1- and unclassified branches are driven by synthetic
invariant fields: classification reads nothing but the twelve invariants
(and their differences), so a callable (u, v) -> Invariants is a complete
test double.  Each synthetic field's alpha/beta/phi are simple
polynomials worked out by hand in the comments.
"""

import json
import math

import numpy as np
import pytest

from h3frames import __version__
from h3frames.errors import CDegenerateError
from h3frames.examples import get_example
from h3frames.frames import (
    FramedSurface,
    Invariants,
    invariant_field,
    invariants_at,
    rotate_frame,
)
from h3frames.singularities import (
    RefinementRecord,
    SingularityClass,
    classify_singularity,
    find_singular_points,
    horocyclic_classify_singularity,
    phi,
    reports_to_json,
    singularity_scan,
)
from h3frames.surface import Domain, ParametricMap4

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
    fs = get_example("ruled_A").framed
    pts = find_singular_points(fs)
    assert len(pts) == 2
    (u0, v0), (u1, v1) = pts
    assert math.hypot(u0 - 0.0, v0) < 1e-8
    assert math.hypot(u1 - math.pi, v1) < 1e-8


def test_find_singular_points_cross_cap_origin():
    fs = get_example("cross_cap").framed
    pts, records = find_singular_points(fs, full_output=True)
    assert len(pts) == 1
    assert math.hypot(*pts[0]) < 1e-8
    assert any(isinstance(r, RefinementRecord) and r.converged for r in records)
    for r in records:
        if r.converged:
            assert r.residual < 1e-10


@pytest.mark.parametrize("name, max_seeds", [("ruled_A", 64), ("cross_cap", 16)])
def test_screen_seeds_only_cells_near_the_zeros(name, max_seeds):
    # ruled_A's 40x20 grid has 800 cells and cross_cap's 400; only the
    # few around each isolated root need a Newton run.
    _, records = find_singular_points(get_example(name).framed, full_output=True)
    assert 0 < len(records) <= max_seeds


def test_find_singular_points_samples_the_ruled_b_line():
    fs = get_example("ruled_B").framed
    pts = find_singular_points(fs)
    assert len(pts) > 50  # a whole line of zeros, sampled
    assert max(abs(v) for _, v in pts) < 1e-8
    us = sorted(u for u, _ in pts)
    assert us[0] < -2.5 and us[-1] > 2.5  # spread across the u-window
    dom = fs.domain
    gaps = [b - a for a, b in zip(us, us[1:])]
    gaps.append(us[0] - dom.u_min + dom.u_max - us[-1])  # across the periodic seam
    assert max(gaps) <= dom.cell()[0]


def test_find_singular_points_empty_on_regular_band():
    fs = get_example("ruled_A").framed
    band = Domain(-math.pi, math.pi, 0.2, 1.0, nu=21, nv=9, u_period=2.0 * math.pi)
    assert find_singular_points(fs, domain=band) == []


def test_find_singular_points_bare_field_needs_domain():
    field = _field(a2=lambda u, v: v, b2=lambda u, v: u)
    with pytest.raises(ValueError):
        find_singular_points(field)
    dom = Domain(-1.0, 1.0, -1.0, 1.0, nu=9, nv=9)
    pts = find_singular_points(field, domain=dom)
    assert len(pts) == 1 and math.hypot(*pts[0]) < 1e-8


def test_find_singular_points_double_zero_inside_a_cell():
    # alpha = -b2 = -(v - 0.125)^2 never changes sign and beta = a2 = u - 0.02;
    # the root sits inside the cell [0, 0.25]^2, whose alpha corners are
    # equal, so only the neighbouring cells can seed it.  Newton converges
    # linearly onto a double zero: |alpha| < 1e-10 puts v within 1e-5.
    field = _field(a2=lambda u, v: u - 0.02, b2=lambda u, v: (v - 0.125) ** 2)
    dom = Domain(-1.0, 1.0, -1.0, 1.0, nu=9, nv=9)
    pts = find_singular_points(field, domain=dom)
    assert len(pts) == 1
    (u0, v0), = pts
    assert abs(u0 - 0.02) < 1e-8 and abs(v0 - 0.125) < 1e-5


def test_each_stage_makes_one_field_call():
    # each classifier reads its points through one call of the field, and
    # each Newton stage through one call over every seed
    shapes = []

    def counted(base):
        def field(u, v):
            shapes.append(np.shape(u))
            return base(u, v)

        return field

    field = counted(_field(a2=lambda u, v: v + u * u, b2=lambda u, v: u * u + v * v))  # S1+ below
    classify_singularity(field, 0.0, 0.0)
    horocyclic_classify_singularity(field, 0.0, 0.0)
    assert shapes == [(9, 5), (9, 5)]  # 9 phi points, 5 stencil points each
    shapes.clear()
    # alpha = v, beta = u: the screen seeds 16 cells, and Newton reaches
    # the root from each in one step
    field = counted(_field(a2=lambda u, v: u, b2=lambda u, v: -v))
    dom = Domain(-1.0, 1.0, -1.0, 1.0, nu=9, nv=9)
    _, records = find_singular_points(field, domain=dom, full_output=True)
    assert [r.iterations for r in records] == [1] * 16
    # the screen, then Newton: start values, Jacobians, trial step, tangent test
    assert shapes == [(9, 9), (16,), (16, 5), (16,), (16, 5)]


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
    # classifier must decline rather than guess.
    fs = get_example("ruled_B").framed
    rep = classify_singularity(fs, 0.37, 0.0)
    assert rep.classification is SingularityClass.UNCLASSIFIED
    assert abs(rep.diagnostics.D) < 1e-4
    assert abs(rep.diagnostics.hess_phi) < 1e-3


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


def test_classify_degenerate_hessian_unclassified():
    # a2 = v, b2 = u v makes phi identically zero: nothing to decide on.
    field = _field(a2=lambda u, v: v, b2=lambda u, v: u * v)
    rep = classify_singularity(field, 0.0, 0.0)
    assert rep.classification is SingularityClass.UNCLASSIFIED


def test_classification_is_rotation_invariant():
    fs = get_example("cross_cap").framed
    fs_rot = rotate_frame(
        fs,
        lambda u, v: 0.3 * u - 0.2 * v,
        lambda u, v: 0.3,
        lambda u, v: -0.2,
    )
    base = classify_singularity(fs, 0.0, 0.0)
    rot = classify_singularity(fs_rot, 0.0, 0.0)
    assert rot.classification is base.classification is SingularityClass.CROSS_CAP
    assert rot.diagnostics.D == pytest.approx(base.diagnostics.D, abs=1e-6)


def test_classification_survives_coordinate_swap():
    """Under (u, v) -> (v, u) the singular set swaps coordinates and the
    tags stay put."""
    fs = get_example("ruled_A").framed

    def swap(m):
        return ParametricMap4(
            value=lambda u, v: m.value(v, u),
            du=lambda u, v: m.dv(v, u),
            dv=lambda u, v: m.du(v, u),
            h1=m.h1,
        )

    dom = Domain(-1.0, 1.0, -0.5, 3.5, nu=11, nv=21)
    swapped = FramedSurface(swap(fs.x), swap(fs.nu1), swap(fs.nu2), dom)
    pts = find_singular_points(swapped)
    assert len(pts) == 2
    by_v = sorted(pts, key=lambda p: p[1])
    assert math.hypot(by_v[0][0], by_v[0][1]) < 1e-8
    assert math.hypot(by_v[1][0], by_v[1][1] - math.pi) < 1e-8
    for u, v in pts:
        rep = classify_singularity(swapped, u, v)
        assert rep.classification is SingularityClass.CROSS_CAP


# ---------------------------------------------------------------------------
# the horocyclic-structure classifier
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


def test_horocyclic_classifier_agrees_with_generic_on_cross_cap_field():
    field = _horocyclic_like(a1=lambda u, v: u, b1=lambda u, v: v)
    horo = horocyclic_classify_singularity(field, 0.0, 0.0)
    generic = classify_singularity(field, 0.0, 0.0)
    assert horo.classification is generic.classification is SingularityClass.CROSS_CAP
    # bracket and generic D agree up to sign when c2 = -1
    assert horo.diagnostics.D == pytest.approx(generic.diagnostics.D, abs=1e-9)


def test_horocyclic_classifier_agrees_on_degenerate_field():
    field = _horocyclic_like(
        a1=lambda u, v: u * u, b1=lambda u, v: u * u - v * v
    )
    horo = horocyclic_classify_singularity(field, 0.0, 0.0)
    generic = classify_singularity(field, 0.0, 0.0)
    assert horo.classification is generic.classification
    assert horo.diagnostics.independence_pair == pytest.approx(
        generic.diagnostics.independence_pair, abs=1e-9
    )


def test_horocyclic_classifier_regular_point():
    field = _horocyclic_like(a1=lambda u, v: 1.0 + u, b1=lambda u, v: v)
    rep = horocyclic_classify_singularity(field, 0.0, 0.0)
    assert rep.classification is SingularityClass.NOT_CORANK_ONE


def test_horocyclic_never_cross_cap_when_a1_b1_identically_zero():
    field = _horocyclic_like(a1=lambda u, v: 0.0, b1=lambda u, v: 0.0)
    rep = horocyclic_classify_singularity(field, 0.3, -0.2)
    assert rep.classification is not SingularityClass.CROSS_CAP


# ---------------------------------------------------------------------------
# scan pipeline and serialization
# ---------------------------------------------------------------------------


def test_singularity_scan_and_json_roundtrip():
    fs = get_example("cross_cap").framed
    reports = singularity_scan(fs)
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
