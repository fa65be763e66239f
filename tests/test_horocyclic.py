"""Horocyclic sweeps: construction, h extraction, flatness classes."""

import io
import math
import re

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
    build_horocyclic,
    classify_horocyclic,
    extract_h,
    horocyclic_alpha_beta,
    horocyclic_invariants,
    integrate_frame_curves,
    invariant_form_classify,
    load_h_profile,
    verify_horocyclic_data,
)
from h3frames.minkowski import minkowski_dot4
from h3frames.projections import transport_to_disc
from h3frames.singularities import (
    SingularityClass,
    classify_singularity,
    find_singular_points,
)
from h3frames.surface import Domain, evaluate, first_partials

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

    one = lambda u: 1.0
    zero = lambda u: 0.0
    return HorocyclicData(frame=frame, h=(one, zero, zero, zero, zero, zero))


def _const_frame(a0, a1, a2):
    return lambda u: np.array([a0, a1, a2])


def _const_h(values):
    return tuple((lambda c: lambda u: float(c))(c) for c in values)


GENERIC_H = (0.3, 0.7, 0.2, -0.1, 0.5, 0.4)

# profile -> (h functions, expected tag); the generalized cone uses a
# non-constant h5 so the constant-ratio test cannot poach it.
PROFILES = {
    "horo_flat": (_const_h((1, 0, 0.4, 1, 0.3, 0.5)), HoroTag.HORO_FLAT),
    "generalized_horo_cone": (
        _const_h((0, 0, 0, 0)) + (lambda u: np.sin(u) + 2.0, lambda u: 1.0),
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
    with pytest.raises(DegenerateFrameError):
        extract_h(a0, bad, a2, 0.0)


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
    summary = verify_framed(fs)
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


def test_alpha_beta_closed_form():
    data = _integrated(_const_h(GENERIC_H))
    ab = horocyclic_alpha_beta(data)
    oracle = horocyclic_invariants(data)
    for u in (-0.7, 0.1, 0.9):
        for v in (-1.0, 0.0, 0.8):
            a, b = ab(u, v)
            q = oracle(u, v)
            assert a == pytest.approx(q.alpha, abs=1e-14)
            assert b == pytest.approx(q.beta, abs=1e-14)
    # spot value: alpha = v h1 - h2 - v h4 at v = 1
    h1, h2, _, h4, _, _ = GENERIC_H
    assert ab(0.0, 1.0)[0] == pytest.approx(h1 - h2 - h4, abs=1e-12)


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
        hs = [f(u) for f in h_funcs]
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
    h_funcs = (
        lambda u: 0.3 * np.sin(u) + 0.1,
        lambda u: 0.7,
        lambda u: 0.2 * u,
        lambda u: -0.1,
        lambda u: 0.5 * np.cos(u),
        lambda u: 0.4,
    )
    data = _integrated(h_funcs)
    worst = 0.0
    for u in np.linspace(-0.95, 0.95, 9):
        got = extract_h(data.a0, data.a1, data.a2, u)
        worst = max(worst, max(abs(g - f(u)) for g, f in zip(got, h_funcs)))
    assert worst < ROUND_TRIP_TOL


def test_integrated_curves_stay_orthonormal_between_nodes():
    # sample off the integration nodes too: the pointwise polish must hold
    # everywhere, not just where the integrator stopped
    data = _integrated(_const_h(GENERIC_H))
    us = np.linspace(-1.0, 1.0, 101) + 2.71e-4
    assert verify_horocyclic_data(data, us[:-1]) < 1e-12


def test_long_integration_keeps_node_frames_orthonormal(monkeypatch):
    # the 8-unit two-vertex profile of the CLI test, integrated in one
    # call; no node frame is re-orthonormalized
    runs = []

    def spy(*args):
        runs.append(frames.integrate_frame_along_line(*args))
        return runs[-1]

    monkeypatch.setattr(horocyclic, "integrate_frame_along_line", spy)
    h6 = lambda u: 0.5 + 0.2 * u * u
    integrate_frame_curves(_const_h((0, 0, 0, 0)) + (lambda u: 2.0 * h6(u), h6), E0, E1, E2, -4.0, 4.0)
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
    # gives xbar_u = 0)
    fs = build_horocyclic(_integrated(_const_h(GENERIC_H)), DOMAIN)
    U, V = DOMAIN.mesh()
    _, pu, pv = first_partials(transport_to_disc(fs).xbar, U, V)
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


def test_one_frame_evaluation_per_map_call(monkeypatch):
    # one grid frame_at on a profile-driven surface: each of the eight maps
    # that are not identically zero evaluates the node-frame spline once,
    # and each of the three u-partials reads h1..h6 once
    prof = load_h_profile(io.StringIO(_profile_text()))
    data = integrate_frame_curves(prof.h_funcs, E0, E1, E2, prof.u_min, prof.u_max)
    fs = build_horocyclic(data, DOMAIN)
    calls = []
    hermite = horocyclic._hermite

    def spy(x, y, dy, u):
        calls.append(y.ndim)  # 3 for the (n, 4, 4) node stack, 1 for an h column
        return hermite(x, y, dy, u)

    monkeypatch.setattr(horocyclic, "_hermite", spy)
    frames.frame_at(fs, *DOMAIN.mesh())
    assert 0 < calls.count(3) <= 8
    assert 0 < calls.count(1) <= 18


def test_integrate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        integrate_frame_curves(_const_h((0, 0, 0)), E0, E1, E2, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_frame_curves(_const_h(GENERIC_H), E0, E1, E2, 1.0, 1.0)
    with pytest.raises(DegenerateFrameError):
        integrate_frame_curves(_const_h(GENERIC_H), E0, 2.0 * E1, E2, 0.0, 1.0)
    holed = (lambda u: np.where(u > 0.5, np.nan, 0.3),) + _const_h(GENERIC_H[1:])
    with pytest.raises(PreconditionError, match=r"non-finite invariants at \(0\.5\d*, 0\.0\): "
                       r"\(nan, 0\.7, 0\.2, -0\.1, 0\.5, 0\.4\)$"):
        integrate_frame_curves(holed, E0, E1, E2, 0.0, 1.0, step=0.25)


# ---------------------------------------------------------------------------
# flatness classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_classify_h_form(name):
    h_funcs, want = PROFILES[name]
    us = np.linspace(-1.0, 1.0, 11)
    samples = np.array([[f(u) for f in h_funcs] for u in us])
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
    h_funcs = (
        lambda u: 0.0,
        lambda u: u,
        lambda u: 0.5,
        lambda u: 0.0,
        lambda u: -1.0,
        lambda u: 0.0,
    )
    dom = Domain(-1.0, 1.0, -1.5, 1.5, nu=21, nv=21)
    fs = build_horocyclic(_integrated(h_funcs), dom)

    pts = find_singular_points(fs)
    assert len(pts) == 1
    u0, v0 = pts[0]
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


def test_profile_loader_reproduces_nodes():
    prof = load_h_profile(io.StringIO(_profile_text()))
    assert prof.u_min == -1.0 and prof.u_max == 1.0
    for i, u in enumerate(prof.u):
        assert np.allclose(prof.at(u), prof.values[i], atol=1e-14)
    # spline of a smooth function: mid-sample error stays small
    assert prof.h_funcs[4](0.37) == pytest.approx(0.5 * math.cos(0.37), abs=1e-6)


def _profile_csv(table):
    return "u,h1,h2,h3,h4,h5,h6\n" + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


@pytest.mark.parametrize(
    "n,knots", [(2, "uneven"), (3, "uneven"), (4, "uneven"), (5, "uneven"), (21, "even"),
                (21, "uneven"), (20000, "uneven")]
)
def test_profile_spline_matches_cubic_spline(n, knots):
    # scipy is the oracle: not-a-knot ends from four samples, natural below
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(n)
    x = np.linspace(-1.0, 1.0, n) if knots == "even" else np.cumsum(rng.uniform(0.05, 1.0, n))
    y = rng.normal(size=(n, 6))
    prof = load_h_profile(io.StringIO(_profile_csv(np.column_stack([x, y]))))
    ref = interpolate.CubicSpline(x, y, bc_type="not-a-knot" if n >= 4 else "natural")
    dx = np.diff(x)
    # nodes, between nodes, and half an end piece beyond either end
    u = np.concatenate([x, x[:-1] + 0.37 * dx, [x[0] - 0.5 * dx[0], x[-1] + 0.5 * dx[-1]]])
    for got, want in ((prof.slopes, ref(x, 1)), (prof.at(u), ref(u))):
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


def test_profile_loader_validation():
    with pytest.raises(ValueError, match="header"):
        load_h_profile(io.StringIO("u,h1,h2,h3,h4,h5\n0,0,0,0,0,0\n1,0,0,0,0,0\n"))
    with pytest.raises(ValueError, match="increasing"):
        load_h_profile(
            io.StringIO("u,h1,h2,h3,h4,h5,h6\n1,0,0,0,0,0,0\n0,0,0,0,0,0,0\n")
        )
    with pytest.raises(ValueError, match="malformed"):
        load_h_profile(
            io.StringIO("u,h1,h2,h3,h4,h5,h6\n0,x,0,0,0,0,0\n1,0,0,0,0,0,0\n")
        )
    with pytest.raises(ValueError):
        load_h_profile(io.StringIO("u,h1,h2,h3,h4,h5,h6\n0,0,0,0,0,0,0\n"))
    # spans whose spline set-up overflows (natural and not-a-knot ends)
    for u in ((0.0, 1e308), (0.0, 1e160, 2e160, 3e160)):
        table = np.column_stack([u, np.outer(np.arange(len(u)), np.arange(1, 7) / 10.0)])
        want = f"h-profile spline overflows on the u span [0.0, {u[-1]!r}]"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_h_profile(io.StringIO(_profile_csv(table)))


def test_example_from_profile(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text(_profile_text())
    entry = get_example(f"horocyclic:{path}")

    summary = verify_framed(entry.framed)
    assert summary.max_gram_residual < 1e-10
    assert summary.max_offspan_residual < 1e-8
    assert summary.max_constraint_residual < 1e-8

    dom = entry.framed.domain
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
