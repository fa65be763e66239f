"""Horocyclic sweeps: construction, h extraction, flatness classes."""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h3frames import frames, horocyclic
from h3frames.errors import DegenerateFrameError, NotHorocyclicError, PreconditionError
from h3frames.examples import get_example
from h3frames.frames import (
    ReductionType,
    invariant_field,
    reduction_type,
    verify_framed,
)
from h3frames.horocyclic import (
    Curve4,
    HoroClass,
    HoroTag,
    HorocyclicData,
    HProfile,
    _spline_slopes,
    build_horocyclic,
    classify_horocyclic,
    extract_h,
    horocyclic_alpha_beta,
    horocyclic_invariants,
    integrate_frame_curves,
    invariant_form_classify,
    load_h_profile,
)
from h3frames.minkowski import frame_gram_residual, minkowski_dot4, wedge3
from h3frames.projections import transport_to_disc
from h3frames.singularities import (
    SingularityClass,
    classify_singularity,
    find_singular_points,
    singularity_scan,
)
from h3frames.surface import Domain, components, evaluate, first_partials

ON_H3_TOL = 1e-12
BRIDGE_TOL = 1e-7
ORACLE_TOL = 1e-8
ROUND_TRIP_TOL = 1e-6

INVARIANT_NAMES = ("a1", "a2", "b1", "b2", "c1", "c2", "e1", "e2", "f1", "f2", "g1", "g2")

E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0, 0.0])


def _helix_data():
    """a0 boosts in the x1-x2 plane; the exact curvature tuple is (1,0,0,0,0,0)."""

    def frame(u):
        c, s, z = np.cosh(u), np.sinh(u), 0.0 * u
        return np.array([[c, s, z, z], [s, c, z, z], [z, z, z + 1.0, z]])

    return HorocyclicData(frame=frame, h=_const_h((1, 0, 0, 0, 0, 0)))


def _const_frame(a0, a1, a2):
    return lambda u: np.array([a0, a1, a2])


def _const_h(values):
    return lambda u: components(*values)


GENERIC_H = (0.3, 0.7, 0.2, -0.1, 0.5, 0.4)

# profile -> (h functions, expected tag); the generalized cone uses a
# non-constant h5 so the constant-ratio test cannot poach it.
PROFILES = {
    "horo_flat": (_const_h((1, 0, 0.4, 1, 0.3, 0.5)), HoroTag.HORO_FLAT),
    "generalized_horo_cone": (
        lambda u: components(0, 0, 0, 0, np.sin(u) + 2.0, 1),
        HoroTag.GENERALIZED_HORO_CONE,
    ),
    "single_vertex": (_const_h((0, 0, 0, 0, 0, 1)), HoroTag.HORO_CONE_SINGLE_VERTEX),
    "two_vertices": (_const_h((0, 0, 0, 0, 2, 1)), HoroTag.HORO_CONE_TWO_VERTICES),
    "conical_horosphere": (_const_h((0, 0, 0, 0, 1, 0)), HoroTag.CONICAL_HOROSPHERE),
    "generic": (_const_h(GENERIC_H), HoroTag.GENERIC),
}

DOMAIN = Domain(-1.0, 1.0, -1.2, 1.2, nu=9, nv=9)


def _integrated(h_funcs, step=1e-3):
    return integrate_frame_curves(h_funcs, E0, E1, E2, -1.0, 1.0, step=step)


# ---------------------------------------------------------------------------
# extract_h
# ---------------------------------------------------------------------------


def test_extract_h_helix():
    data = _helix_data()
    for u in (-0.8, 0.0, 0.3, 1.1):
        got = extract_h(data.a0, data.a1, data.a2, u)
        assert np.allclose(got, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-14)


def test_extract_h_constant_frame_is_zero():
    a0 = Curve4(value=lambda u: E0.copy())
    a1 = Curve4(value=lambda u: E1.copy())
    a2 = Curve4(value=lambda u: E2.copy())
    assert np.allclose(extract_h(a0, a1, a2, 0.25), np.zeros(6), atol=1e-12)


def test_extract_h_rejects_degenerate_frame():
    a0 = Curve4(value=lambda u: E0.copy())
    bad = Curve4(value=lambda u: 2.0 * E1)  # not unit
    a2 = Curve4(value=lambda u: E2.copy())
    with pytest.raises(DegenerateFrameError, match=re.escape("exceeds 4.000e-08 at u = 0.0")):
        extract_h(a0, bad, a2, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_curve_frame_with_a_non_finite_vector_is_refused(bad):
    # a nan Gram residual fails the axiom check like a large one does, and
    # an infinite vector is refused without a numpy warning on the way
    vec = np.array([bad, 1.0, 0.0, 0.0])
    a0, a2 = Curve4(value=lambda u: E0.copy()), Curve4(value=lambda u: E2.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateFrameError, match=re.escape("curve frame is not finite at u = 0.5")):
            extract_h(a0, Curve4(value=lambda u: vec.copy()), a2, 0.5)
        with pytest.raises(DegenerateFrameError, match=re.escape("is not finite at the start u = 0.0")):
            integrate_frame_curves(_const_h(GENERIC_H), E0, vec, E2, 0.0, 1.0)
        with pytest.raises(DegenerateFrameError, match=re.escape("curve frame is not finite on the u grid")):
            build_horocyclic(HorocyclicData(frame=_const_frame(E0, vec, E2), h=_const_h(GENERIC_H)), DOMAIN)


# ---------------------------------------------------------------------------
# surface construction
# ---------------------------------------------------------------------------


def test_built_surface_lies_on_hyperboloid():
    fs = build_horocyclic(_helix_data(), DOMAIN)
    worst = max(
        abs(minkowski_dot4(fs.x.value(u, v), fs.x.value(u, v)) + 1.0)
        for u in DOMAIN.u_grid()
        for v in DOMAIN.v_grid()
    )
    assert worst < ON_H3_TOL


def test_built_surface_is_properly_framed():
    fs = build_horocyclic(_helix_data(), DOMAIN)
    summary = verify_framed(fs, DOMAIN)
    assert summary.max_gram_residual < 1e-10
    assert summary.max_offspan_residual < 1e-8
    assert summary.max_constraint_residual < 1e-8


def test_built_surface_reduces_to_v_family_everywhere():
    fs = build_horocyclic(_integrated(_const_h(GENERIC_H)), DOMAIN)
    field = invariant_field(fs)
    tags = {
        reduction_type(field(u, v)).tag
        for u in DOMAIN.u_grid()[::2]
        for v in DOMAIN.v_grid()[::2]
    }
    assert tags == {ReductionType.FAMILY_V}


def test_build_rejects_degenerate_curve_data():
    bad = HorocyclicData(frame=_const_frame(E0, 3.0 * E1, E2), h=_const_h((0, 0, 0, 0, 0, 0)))
    with pytest.raises(DegenerateFrameError):
        build_horocyclic(bad, DOMAIN)


def test_closed_form_invariants_match_extraction():
    for data in (_helix_data(), _integrated(_const_h(GENERIC_H))):
        fs = build_horocyclic(data, DOMAIN)
        oracle = horocyclic_invariants(data)
        field = invariant_field(fs)
        worst = 0.0
        for u in DOMAIN.u_grid()[::2]:
            for v in DOMAIN.v_grid()[::2]:
                o, g = oracle(u, v), field(u, v)
                worst = max(
                    worst,
                    max(abs(getattr(o, n) - getattr(g, n)) for n in INVARIANT_NAMES),
                )
        assert worst < ORACLE_TOL


@settings(max_examples=100, deadline=None)
@given(
    h=st.tuples(*[st.floats(-3.0, 3.0)] * 6),
    u=st.floats(-1.0, 1.0),
    v=st.floats(-1.5, 1.5),
)
def test_alpha_beta_closed_form(h, u, v):
    # (alpha, beta) are those of the closed-form invariants, exactly, and
    # equal alpha = v h1 - h2 - v h4, beta = (1 + v^2/2) h3 + v h5 + (v^2/2) h6
    data = HorocyclicData(frame=_const_frame(E0, E1, E2), h=_const_h(h))
    q = horocyclic_invariants(data)(u, v)
    assert horocyclic_alpha_beta(data)(u, v) == (q.alpha, q.beta)
    h1, h2, h3, h4, h5, h6 = h
    w = v * v / 2.0
    assert q.alpha == pytest.approx(v * h1 - h2 - v * h4, abs=1e-12)
    assert q.beta == pytest.approx((1.0 + w) * h3 + v * h5 + w * h6, abs=1e-12)


@functools.cache
def _derived_horocyclic():
    """The swept maps and the twelve invariants of a horocyclic surface,
    derived exactly with sympy and lambdified over (h1, .., h6, v).

    Vectors are coefficient rows over the curve frame (a0, a1, a2, a3),
    whose metric is diag(-1, 1, 1, 1).  The u-partial of a row c is
    c_u + c M(h), with the rows a0', a1', a2' of the frame system and the
    row a3' taken from <a3', a_k> = -<a3, a_k'>; nu3 = x ^ nu1 ^ nu2 is
    ``wedge3`` of the rows, with the sign that makes a0 ^ a1 ^ a2 = a3.
    Returns ``rows`` (x, nu1, nu2 and their u- and v-partials, in the
    order of :func:`first_partials`) and ``invariants`` (in
    ``INVARIANT_NAMES`` order)."""
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v", real=True)
    hs = h1, h2, h3, h4, h5, h6 = sp.symbols("h1:7", real=True)
    metric = sp.diag(-1, 1, 1, 1)

    def dot(c, d):
        return (c * metric * d.T)[0, 0]

    m = sp.Matrix([[0, h1, h2, h3], [h1, 0, h4, h5], [h2, -h4, 0, h6]])
    a3 = sp.Matrix([[0, 0, 0, 1]])
    m = m.col_join(sp.Matrix([[-metric[k, k] * dot(a3, m[k, :]) for k in range(3)] + [0]]))
    sign = int(wedge3(*np.eye(4, dtype=int)[:3])[3])  # e0 ^ e1 ^ e2 = sign e3, and sign^2 = 1
    w = v * v / 2
    x = sp.Matrix([[1 + w, v, w, 0]])
    nu1 = a3
    nu2 = sp.Matrix([[-w, -v, 1 - w, 0]])
    nu3 = sign * sp.Matrix([list(wedge3(list(x), list(nu1), list(nu2)))])

    def du(c):
        return c.diff(u) + c * m

    rows = [r for c in (x, nu1, nu2) for r in (c, du(c), c.diff(v))]
    invariants = [
        dot(d(c), n)
        for c, n in ((x, nu1), (x, nu2), (x, nu3), (nu1, nu2), (nu1, nu3), (nu2, nu3))
        for d in (du, lambda c: c.diff(v))
    ]
    args = (*hs, v)
    return (
        sp.lambdify(args, [list(r) for r in rows], "math"),
        sp.lambdify(args, [sp.expand(q) for q in invariants], "math"),
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    h=st.tuples(*[st.floats(-3.0, 3.0)] * 6),
    u=st.floats(-1.0, 1.0),
    v=st.floats(-1.5, 1.5),
)
def test_closed_forms_match_exact_derivation(h, u, v):
    # on the constant frame (e0, e1, e2) a swept map's value and closed
    # partials are its coefficient rows times the frame (e0, e1, e2, a3),
    # so the maps of build_horocyclic are checked against the rows the
    # derivation starts from
    rows, invariants = _derived_horocyclic()
    data = HorocyclicData(frame=_const_frame(E0, E1, E2), h=_const_h(h))
    fs = build_horocyclic(data, DOMAIN)
    scale = 1.0 + max(abs(c) for c in h) * (1.0 + v * v)
    got = [r for m in (fs.x, fs.nu1, fs.nu2) for r in first_partials(m, u, v)]
    derived = np.array(rows(*h, v), dtype=float) @ np.vstack([E0, E1, E2, wedge3(E0, E1, E2)])
    assert np.max(np.abs(np.array(got) - derived)) <= 1e-14 * scale
    q = horocyclic_invariants(data)(u, v)
    for name, want in zip(INVARIANT_NAMES, invariants(*h, v)):
        assert abs(getattr(q, name) - want) <= 1e-14 * scale, name


@settings(max_examples=150, deadline=None)
@given(
    h=st.tuples(*([st.floats(-3, 3)] * 6)),
    v=st.floats(-2, 2),
)
def test_bridge_identities_hold_for_closed_forms(h, v):
    """The invariant combinations that recover h1..h6 are exact identities."""
    data = HorocyclicData(frame=_const_frame(E0, E1, E2), h=_const_h(h))
    q = horocyclic_invariants(data)(0.0, v)
    h1, h2, h3, h4, h5, h6 = h
    scale = 1.0 + max(abs(c) for c in h) * (1.0 + v * v)
    tol = 1e-12 * scale
    assert abs((q.c1 + q.g1) - (h4 - h1)) < tol
    assert abs((q.b1 - v * (q.c1 + q.g1)) - h2) < tol
    assert abs((q.a1 - q.e1) - (h3 + h6)) < tol
    assert abs((q.f1 - v * (q.a1 - q.e1)) - h5) < tol
    assert abs(((v * v + 2.0) * q.a1 - v * v * q.e1 - 2.0 * v * q.f1) - 2.0 * h3) < tol


def test_bridge_identities_on_built_surface():
    h_funcs = _const_h(GENERIC_H)
    fs = build_horocyclic(_integrated(h_funcs), DOMAIN)
    field = invariant_field(fs)
    worst = 0.0
    for u in DOMAIN.u_grid()[::2]:
        hs = h_funcs(u)
        for v in DOMAIN.v_grid()[::2]:
            q = field(u, v)
            checks = (
                (q.c1 + q.g1) - (hs[3] - hs[0]),
                (q.b1 - v * (q.c1 + q.g1)) - hs[1],
                (q.a1 - q.e1) - (hs[2] + hs[5]),
                (q.f1 - v * (q.a1 - q.e1)) - hs[4],
                ((v * v + 2.0) * q.a1 - v * v * q.e1 - 2.0 * v * q.f1) - 2.0 * hs[2],
            )
            worst = max(worst, max(abs(c) for c in checks))
    assert worst < BRIDGE_TOL


# ---------------------------------------------------------------------------
# curve integration
# ---------------------------------------------------------------------------


def test_integrate_then_extract_recovers_h():
    h_funcs = lambda u: components(0.3 * np.sin(u) + 0.1, 0.7, 0.2 * u, -0.1, 0.5 * np.cos(u), 0.4)
    data = _integrated(h_funcs)
    worst = 0.0
    for u in np.linspace(-0.95, 0.95, 9):
        got = extract_h(data.a0, data.a1, data.a2, u)
        worst = max(worst, max(abs(g - h) for g, h in zip(got, h_funcs(u))))
    assert worst < ROUND_TRIP_TOL


def test_integrated_curves_stay_orthonormal_between_nodes():
    # sample off the integration nodes too: the pointwise polish must hold
    # everywhere, not just where the integrator stopped
    data = _integrated(_const_h(GENERIC_H))
    frame = data.at(np.linspace(-1.0, 1.0, 101)[:-1] + 2.71e-4)
    assert np.max(frame_gram_residual(*frame, wedge3(*frame))) < 1e-12


def test_long_integration_keeps_node_frames_orthonormal(monkeypatch):
    # the 8-unit two-vertex profile of the CLI test, integrated in one
    # call; no node frame is re-orthonormalized
    runs = []

    def spy(*args):
        runs.append(frames.integrate_frame_along_line(*args))
        return runs[-1]

    monkeypatch.setattr(horocyclic, "integrate_frame_along_line", spy)
    h6 = lambda u: 0.5 + 0.2 * u * u
    integrate_frame_curves(lambda u: components(0, 0, 0, 0, 2.0 * h6(u), h6(u)), E0, E1, E2, -4.0, 4.0)
    (traj,) = runs
    assert len(traj.t) == 8001
    assert traj.max_gram_drift <= 1e-13  # worst Gram residual over the nodes


def test_integrated_curves_are_fourth_order():
    # node error against a 2^-10 step reference falls ~16x per halving
    h_funcs = PROFILES["generalized_horo_cone"][0]
    ref = _integrated(h_funcs, step=2.0**-10)
    nodes = np.linspace(-1.0, 1.0, 9)

    def node_error(step):
        data = _integrated(h_funcs, step=step)
        return max(
            float(np.max(np.abs(evaluate(c.value, nodes) - evaluate(r.value, nodes))))
            for c, r in ((data.a0, ref.a0), (data.a1, ref.a1), (data.a2, ref.a2))
        )

    assert 12.0 <= node_error(0.25) / node_error(0.125) <= 20.0


def test_complex_step_through_integrated_curves():
    # the disc image has no closed firsts, so its partials are complex steps
    # through the Hermite pieces of the integrated curves; they must equal
    # the quotient rule on (x2, x3, x4) / (x1 + 1) with the frame system's
    # exact x_u, x_v (a Hermite evaluator that drops the imaginary part
    # gives x_u = 0 on the ball)
    fs = build_horocyclic(_integrated(_const_h(GENERIC_H)), DOMAIN)
    U, V = DOMAIN.mesh()
    _, pu, pv = first_partials(transport_to_disc(fs).x, U, V)
    x, xu, xv = first_partials(fs.x, U, V)
    for got, dx in ((pu, xu), (pv, xv)):
        want = (dx[1:] * (x[0] + 1.0) - x[1:] * dx[0]) / ((x[0] + 1.0) * (x[0] + 1.0))
        assert np.max(np.abs(got - want)) < 1e-12
    # the closed firsts of every swept map (u-partials from the frame
    # system) match the complex step of the map's own values
    for data, tol in ((_integrated(_const_h(GENERIC_H)), 1e-11), (_helix_data(), 1e-14)):
        fs = build_horocyclic(data, DOMAIN)
        for m in (fs.x, fs.nu1, fs.nu2):
            closed = first_partials(m, U, V)[1:]
            stepped = first_partials(m.without_derivatives(), U, V)[1:]
            for got, want in zip(closed, stepped):
                assert np.max(np.abs(got - want)) < tol


def test_one_frame_evaluation_per_map_call(monkeypatch, tmp_path):
    # one grid frame_at on a profile-driven surface: each of the three maps
    # evaluates the node-frame spline once for its value and once for its
    # closed firsts, which read the (n, 6) h table once
    prof = _load_text(tmp_path, _profile_text())
    data = integrate_frame_curves(prof.h_funcs, E0, E1, E2, prof.u_min, prof.u_max)
    fs = build_horocyclic(data, DOMAIN)
    calls = []
    hermite = horocyclic._hermite

    def spy(x, y, dy, u):
        calls.append(y.shape[1:])  # (4, 4) for the node stack, (6,) for the h table
        return hermite(x, y, dy, u)

    monkeypatch.setattr(horocyclic, "_hermite", spy)
    frames.frame_at(fs, *DOMAIN.mesh())
    assert calls.count((4, 4)) == 6
    assert calls.count((6,)) == 3


def test_integrate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        integrate_frame_curves(_const_h((0, 0, 0)), E0, E1, E2, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_frame_curves(_const_h(GENERIC_H), E0, E1, E2, 1.0, 1.0)
    with pytest.raises(DegenerateFrameError):
        integrate_frame_curves(_const_h(GENERIC_H), E0, 2.0 * E1, E2, 0.0, 1.0)
    holed = lambda u: components(np.where(u > 0.5, np.nan, 0.3), *GENERIC_H[1:])
    with pytest.raises(PreconditionError, match=r"non-finite invariants at \(0\.5\d*, 0\.0\): "
                       r"\(nan, 0\.7, 0\.2, -0\.1, 0\.5, 0\.4\)$"):
        integrate_frame_curves(holed, E0, E1, E2, 0.0, 1.0, step=0.25)


def test_integrate_refuses_an_h_that_is_not_finite_at_a_node_only():
    # nan within 1e-9 of the node u = 0.5 but finite at every Gauss point:
    # the frame steps across it, and the node table of h refuses it
    pinched = lambda u: components(np.where(abs(u - 0.5) < 1e-9, np.nan, 0.3), *GENERIC_H[1:])
    with pytest.raises(PreconditionError, match="^non-finite curvature function at an integration node$"):
        integrate_frame_curves(pinched, E0, E1, E2, 0.0, 1.0, step=0.25)


# ---------------------------------------------------------------------------
# flatness classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_classify_h_form(name):
    h_funcs, want = PROFILES[name]
    us = np.linspace(-1.0, 1.0, 11)
    samples = evaluate(h_funcs, us).T
    got = classify_horocyclic(samples)
    assert got.tag is want
    if want is HoroTag.HORO_CONE_TWO_VERTICES:
        assert got.two_vertex_ratio == pytest.approx(2.0, abs=1e-12)
    else:
        assert got.two_vertex_ratio is None


def test_classify_flat_tuple_with_h3_zero():
    samples = np.array([[1.0, 0.0, 0.0, 1.0, 0.3, 0.5]] * 5)
    assert classify_horocyclic(samples).tag is HoroTag.HORO_FLAT


def test_classify_needs_two_samples():
    with pytest.raises(ValueError):
        classify_horocyclic(np.zeros((1, 6)))
    with pytest.raises(ValueError):
        classify_horocyclic(np.zeros((3, 5)))


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_invariant_form_agrees_with_h_form(name):
    h_funcs, want = PROFILES[name]
    fs = build_horocyclic(_integrated(h_funcs), DOMAIN)
    got = invariant_form_classify(invariant_field(fs), DOMAIN)
    assert got.tag is want
    if want is HoroTag.HORO_CONE_TWO_VERTICES:
        assert got.two_vertex_ratio == pytest.approx(2.0, abs=1e-6)


def test_invariant_form_rejects_non_horocyclic_field():
    entry = get_example("cross_cap")
    small = Domain(0.1, 0.4, 0.1, 0.4, nu=3, nv=3)
    with pytest.raises(NotHorocyclicError):
        invariant_form_classify(invariant_field(entry.framed), small)


def test_horoclass_is_plain_dataclass():
    c = HoroClass(HoroTag.GENERIC)
    assert c.two_vertex_ratio is None
    assert c == HoroClass(HoroTag.GENERIC)


# ---------------------------------------------------------------------------
# singularities of a horocyclic sweep
# ---------------------------------------------------------------------------


def test_singular_point_location_and_classifier_agreement():
    # b1 = h2 = u vanishes on u = 0; a1 = 0.5 (1 + v^2/2) - v vanishes at
    # v = 2 - sqrt(2); the bracket a1_u b1_v - a1_v b1_u is nonzero there.
    h_funcs = lambda u: components(0.0, u, 0.5, 0.0, -1.0, 0.0)
    dom = Domain(-1.0, 1.0, -1.5, 1.5, nu=21, nv=21)
    fs = build_horocyclic(_integrated(h_funcs), dom)

    pts, _ = find_singular_points(fs, dom)
    assert len(pts) == 1
    u0, v0, _ = pts[0]
    assert math.hypot(u0 - 0.0, v0 - (2.0 - math.sqrt(2.0))) < 1e-8

    generic = classify_singularity(fs, u0, v0)
    via_field = classify_singularity(invariant_field(fs), u0, v0)
    assert generic.classification is SingularityClass.CROSS_CAP
    assert via_field.classification is generic.classification
    assert via_field.diagnostics.D == pytest.approx(generic.diagnostics.D, abs=1e-9)
    for a, b in zip(
        via_field.diagnostics.independence_pair, generic.diagnostics.independence_pair
    ):
        assert a == pytest.approx(b, abs=1e-9)
    # closed-form bracket at the root: -(0.5 v - 1)
    assert abs(generic.diagnostics.D) == pytest.approx(1.0 - 0.5 * v0, abs=1e-5)


def test_profile_cross_cap_matches_closed_form_diagnostics(tmp_path):
    # h1 - h4 = 0.8 and h2 = 0 make alpha = 0.8 v; h3 = 0.75 (u - u0) makes
    # beta = 0.75 (u - u0) on v = 0: a cross cap at (u0, 0).  The curve
    # derivatives come from the frame system, so the surface's D and
    # hess_phi match the closed-form invariant field's.
    u0 = 0.13
    u = np.linspace(-1.0, 1.0, 21)
    h4 = 0.2 + 0.1 * u
    table = np.column_stack([u, h4 + 0.8, 0.0 * u, 0.75 * (u - u0), h4, 0.15 - 0.2 * u, 0.1 + 0.25 * u])
    path = tmp_path / "planted.csv"
    path.write_text(_profile_csv(table))
    entry = get_example(f"horocyclic:{path}")

    got = classify_singularity(entry.framed, u0, 0.0)
    want = classify_singularity(entry.oracle_invariants, u0, 0.0)
    assert got.classification is want.classification is SingularityClass.CROSS_CAP
    assert abs(got.diagnostics.D - want.diagnostics.D) < 1e-9
    assert abs(got.diagnostics.hess_phi - want.diagnostics.hess_phi) < 1e-5


# ---------------------------------------------------------------------------
# h-profile CSV and the example registry
# ---------------------------------------------------------------------------

_PROFILE_TEXT = None


def _profile_text():
    global _PROFILE_TEXT
    if _PROFILE_TEXT is None:
        rows = ["u,h1,h2,h3,h4,h5,h6"]
        for u in np.linspace(-1.0, 1.0, 21):
            vals = (u, 0.3 * math.sin(u) + 0.1, 0.7, 0.2 * u, -0.1,
                    0.5 * math.cos(u), 0.4)
            rows.append(",".join(format(x, ".17g") for x in vals))
        _PROFILE_TEXT = "\n".join(rows) + "\n"
    return _PROFILE_TEXT


def test_profile_loader_reproduces_nodes(tmp_path):
    prof = _load_text(tmp_path, _profile_text())
    assert prof.u_min == -1.0 and prof.u_max == 1.0
    for i, u in enumerate(prof.u):
        assert np.allclose(prof.h_funcs(u), prof.values[i], atol=1e-14)
    # spline of a smooth function: mid-sample error stays small
    assert prof.h_funcs(0.37)[4] == pytest.approx(0.5 * math.cos(0.37), abs=1e-6)


def _load_text(tmp_path, text):
    """load_h_profile of the CSV ``text``, written to a file first."""
    path = tmp_path / "profile.csv"
    path.write_text(text, encoding="ascii")
    return load_h_profile(path)


def _profile_csv(table):
    return "u,h1,h2,h3,h4,h5,h6\n" + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


@pytest.mark.parametrize(
    "n,knots", [(2, "uneven"), (3, "uneven"), (4, "uneven"), (5, "uneven"), (21, "even"),
                (21, "uneven"), (20000, "uneven")]
)
def test_profile_spline_matches_cubic_spline(n, knots, tmp_path):
    # scipy is the oracle: not-a-knot ends from four samples, natural below
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(n)
    x = np.linspace(-1.0, 1.0, n) if knots == "even" else np.cumsum(rng.uniform(0.05, 1.0, n))
    y = rng.normal(size=(n, 6))
    prof = _load_text(tmp_path, _profile_csv(np.column_stack([x, y])))
    ref = interpolate.CubicSpline(x, y, bc_type="not-a-knot" if n >= 4 else "natural")
    dx = np.diff(x)
    # nodes, between nodes, and half an end piece beyond either end
    u = np.concatenate([x, x[:-1] + 0.37 * dx, [x[0] - 0.5 * dx[0], x[-1] + 0.5 * dx[-1]]])
    for got, want in ((prof.slopes, ref(x, 1)), (prof.h_funcs(u).T, ref(u))):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_hermite_matches_cubic_hermite_spline():
    # frame-shaped (n, 4, 4) node data, evaluated at a float and an array
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.uniform(0.05, 1.0, 12))
    y, dy = rng.normal(size=(2, 12, 4, 4))
    ref = interpolate.CubicHermiteSpline(x, y, dy, axis=0)
    u = rng.uniform(x[0] - 1.0, x[-1] + 1.0, (3, 5))
    u[0, :3] = x[[0, 5, -1]]
    for at in (u, float(u[1, 2]), float(x[4])):
        got = horocyclic._hermite(x, y, dy, at)
        assert got.shape == np.shape(at) + (4, 4)
        assert np.max(np.abs(got - ref(at))) <= 1e-14 * np.max(np.abs(ref(at)))


def test_profile_loader_validation(tmp_path):
    with pytest.raises(ValueError, match="header"):
        _load_text(tmp_path, "u,h1,h2,h3,h4,h5\n0,0,0,0,0,0\n1,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="increasing"):
        _load_text(tmp_path, "u,h1,h2,h3,h4,h5,h6\n1,0,0,0,0,0,0\n0,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="malformed"):
        _load_text(tmp_path, "u,h1,h2,h3,h4,h5,h6\n0,x,0,0,0,0,0\n1,0,0,0,0,0,0\n")
    with pytest.raises(ValueError):
        _load_text(tmp_path, "u,h1,h2,h3,h4,h5,h6\n0,0,0,0,0,0,0\n")
    # spans whose spline set-up overflows (natural and not-a-knot ends)
    for u in ((0.0, 1e308), (0.0, 1e160, 2e160, 3e160)):
        table = np.column_stack([u, np.outer(np.arange(len(u)), np.arange(1, 7) / 10.0)])
        want = f"h-profile spline overflows on the u span [0.0, {u[-1]!r}]"
        with pytest.raises(ValueError, match=re.escape(want)):
            _load_text(tmp_path, _profile_csv(table))


@pytest.mark.parametrize("h3", [1.0, 1000.0], ids=["lightlike-spline", "overflow"])
def test_profile_with_a_non_finite_frame_is_refused_quietly(h3, tmp_path):
    # h3 = 1 takes the spline of the node frames through a null a0 (a
    # division by zero in the Gram-Schmidt), h3 = 1000 overflows the
    # integration; each is refused without a numpy warning
    table = np.zeros((3, 7))
    table[:, 0] = (-1.0, 0.0, 0.00390625)
    table[2, 3] = h3
    prof = _load_text(tmp_path, _profile_csv(table))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateFrameError, match="is not finite"):
            dom = prof.domain()
            fs = build_horocyclic(prof.curve_frame(), dom)
            invariant_form_classify(invariant_field(fs), dom)


def test_example_from_profile(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text(_profile_text())
    entry = get_example(f"horocyclic:{path}")

    dom = entry.domain
    assert dom == load_h_profile(path).domain()
    summary = verify_framed(entry.framed, dom)
    assert summary.max_gram_residual < 1e-10
    assert summary.max_offspan_residual < 1e-8
    assert summary.max_constraint_residual < 1e-8

    field = invariant_field(entry.framed)
    worst = 0.0
    for u in dom.u_grid()[::4]:
        for v in dom.v_grid()[::4]:
            o, g = entry.oracle_invariants(u, v), field(u, v)
            worst = max(
                worst, max(abs(getattr(o, n) - getattr(g, n)) for n in INVARIANT_NAMES)
            )
    assert worst < ORACLE_TOL
    a, b = entry.oracle_alpha_beta(0.3, 0.8)
    q = entry.oracle_invariants(0.3, 0.8)
    assert (a, b) == (q.alpha, q.beta)
    with pytest.raises(TypeError):  # no keyword is silently dropped
        get_example(f"horocyclic:{path}", domian=dom)


def _drawn_profiles(seed):
    """Six generic profiles on 21 nodes of [-1, 1]: each h_j (j = 0..5) a
    cubic with ``default_rng(seed).normal(size=(4, 6))`` coefficients plus
    0.05 sin(5u + j)."""
    rng, u = np.random.default_rng(seed), np.linspace(-1.0, 1.0, 21)
    for _ in range(6):
        c = rng.normal(size=(4, 6))
        values = np.column_stack([sum(c[i, j] * u**i for i in range(4)) + 0.05 * np.sin(5 * u + j) for j in range(6)])
        yield HProfile(u=u, values=values, slopes=_spline_slopes(u, values))


def _closed_form_points(profile):
    """Zeros of P = d^2 h3 + d h2 h5 + (h2^2/2)(h3 + h6), d = h1 - h4, at
    v = h2 / d: sign changes of P on 200,001 u samples, bisected to the end."""

    def P(u):
        h1, h2, h3, h4, h5, h6 = profile.h_funcs(u)
        d = h1 - h4
        return d * d * h3 + d * h2 * h5 + h2 * h2 / 2.0 * (h3 + h6)

    us = np.linspace(profile.u_min, profile.u_max, 200_001)
    signs = np.sign(P(us))
    points = []
    for k in np.flatnonzero(signs[:-1] != signs[1:]):
        lo, hi = us[k], us[k + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.sign(P(mid)) == signs[k] else (lo, mid)
        h = profile.h_funcs(lo)
        points.append((lo, h[1] / (h[0] - h[3])))
    return points


def test_generic_profiles_build_and_scan_to_their_closed_form():
    # every profile of the seed 0-3 draw builds; the second of seed 1 has
    # frame components up to 1.3e3 and a curve frame Gram residual of
    # 7.7e-8, which is rounding at that size.  Its scan finds exactly the
    # closed-form singular points, both cross caps
    profiles = [p for seed in range(4) for p in _drawn_profiles(seed)]
    surfaces = [build_horocyclic(p.curve_frame(), p.domain()) for p in profiles]
    profile, fs = profiles[7], surfaces[7]
    reports = singularity_scan(fs, profile.domain())
    want = _closed_form_points(profile)
    assert len(reports) == len(want) == 2
    for rep, (u, v) in zip(reports, want):
        assert math.hypot(rep.u - u, rep.v - v) <= 1e-9, (rep.u, rep.v, u, v)
        assert rep.classification is SingularityClass.CROSS_CAP
