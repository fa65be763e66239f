"""Ball-model transports, R^3_1 projections and lifts, mesh export."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from h3frames import projections
from h3frames.errors import (
    NonSpacelikeNormalError,
    NormalizationError,
    OffHyperboloidError,
    OutsideDiscError,
    PreconditionError,
)
from h3frames.examples import get_example
from h3frames.frames import (
    FramedSurface,
    frame_at,
    frame_from_normal,
    integrability_residuals,
    integrate_frame_along_line,
    invariant_field,
    invariants_at,
    verify_framed,
)
from h3frames.horocyclic import Curve4, extract_h, integrate_frame_curves
from h3frames.minkowski import (
    minkowski_dot3,
    minkowski_dot4,
    wedge2_r31,
    wedge3,
)
from h3frames.projections import (
    ON_H3_TOL,
    Axis,
    LightconeCandidate,
    from_poincare,
    lift_from_r31,
    lightcone_residual,
    project_to_r31,
    to_poincare,
    transport_to_disc,
    transport_to_h3,
    verify_disc_framed,
    write_disc_mesh,
)
from h3frames.surface import Domain, ParametricMap4, components, first_partials

ROUND_TRIP_TOL = 1e-12
IDENTITY_TOL = 1e-10

# Windows where the cross cap's projected binormal is spacelike AND the
# dropped coordinate is positive (so projection and lift invert):
# x = (sqrt(W), u, v^2, u v).
_AXIS_WINDOWS = {
    Axis.X2: Domain(0.05, 0.3, 0.6, 0.9, nu=7, nv=7),
    Axis.X3: Domain(0.2, 0.5, 0.2, 0.5, nu=7, nv=7),
    Axis.X4: Domain(0.2, 0.5, 0.2, 0.5, nu=7, nv=7),
}


def _constant_frame_surface():
    e = np.eye(4)
    zero = lambda u, v: np.zeros(4)

    def const(w):
        return ParametricMap4(value=lambda u, v: w, firsts=lambda u, v: (zero(u, v), zero(u, v)))

    return FramedSurface(x=const(e[0]), nu1=const(e[1]), nu2=const(e[2]))


# ---------------------------------------------------------------------------
# point maps
# ---------------------------------------------------------------------------


def test_to_poincare_vertex_and_known_point():
    assert to_poincare([1.0, 0.0, 0.0, 0.0]) == pytest.approx((0.0, 0.0, 0.0))
    x = np.array([math.sqrt(2.0), 1.0, 0.0, 0.0])
    assert minkowski_dot4(x, x) == pytest.approx(-1.0, abs=1e-15)
    p = to_poincare(x)
    assert p == pytest.approx((1.0 / (math.sqrt(2.0) + 1.0), 0.0, 0.0), abs=1e-15)


def test_from_poincare_known_points():
    assert from_poincare([0.0, 0.0, 0.0]) == pytest.approx((1.0, 0.0, 0.0, 0.0))
    x = from_poincare([0.5, 0.0, 0.0])
    assert x == pytest.approx((5.0 / 3.0, 4.0 / 3.0, 0.0, 0.0), abs=1e-15)
    assert minkowski_dot4(x, x) == pytest.approx(-1.0, abs=1e-15)


def test_point_round_trips_bulk():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        p = rng.uniform(-1.0, 1.0, 3)
        if np.dot(p, p) >= 0.95:
            continue
        assert np.max(np.abs(to_poincare(from_poincare(p)) - p)) < 1e-14
    for _ in range(2000):
        sp = rng.normal(size=3) * 1.5
        x = np.concatenate([[math.sqrt(1.0 + np.dot(sp, sp))], sp])
        assert np.max(np.abs(from_poincare(to_poincare(x)) - x)) < ROUND_TRIP_TOL


@given(
    st.floats(-0.55, 0.55),
    st.floats(-0.55, 0.55),
    st.floats(-0.55, 0.55),
)
def test_from_poincare_lands_on_upper_sheet(p1, p2, p3):
    x = from_poincare([p1, p2, p3])
    assert x[0] > 0.0
    assert abs(minkowski_dot4(x, x) + 1.0) < 1e-12 * max(1.0, x[0] ** 2)


def test_to_poincare_rejects_bad_input():
    with pytest.raises(OffHyperboloidError):
        to_poincare([1.01, 0.0, 0.0, 0.0])  # off the quadric
    with pytest.raises(OffHyperboloidError):
        to_poincare([-1.0, 0.0, 0.0, 0.0])  # lower branch


def test_from_poincare_rejects_outside():
    with pytest.raises(OutsideDiscError):
        from_poincare([1.0, 0.0, 0.0])
    with pytest.raises(OutsideDiscError):
        from_poincare([0.8, 0.8, 0.0])


# ---------------------------------------------------------------------------
# disc transports
# ---------------------------------------------------------------------------


def test_transport_to_disc_cross_cap_residuals():
    ex = get_example("cross_cap")
    res = verify_disc_framed(transport_to_disc(ex.framed), ex.domain)
    assert res.max_radius < 1.0
    assert res.max_unit < 1e-10
    assert res.max_orth < 1e-10
    assert res.max_off_span < 1e-8


def test_transport_to_disc_constant_frame():
    dfs = transport_to_disc(_constant_frame_surface())
    assert dfs.x.value(0.5, 0.5) == pytest.approx((0.0, 0.0, 0.0))
    assert dfs.nu1.value(0.5, 0.5) == pytest.approx((-1.0, 0.0, 0.0))
    n2 = dfs.nu2.value(0.5, 0.5)
    assert np.dot(dfs.nu1.value(0.5, 0.5), n2) == pytest.approx(0.0, abs=1e-15)


def test_disc_alpha_beta_proportional_to_invariants():
    fs = get_example("cross_cap").framed
    dfs = transport_to_disc(fs)
    for u in np.linspace(-0.8, 0.8, 5):
        for v in np.linspace(-0.8, 0.8, 5):
            inv = invariants_at(fs, u, v)
            if inv.alpha**2 + inv.beta**2 <= 1e-6:
                continue
            disc = invariants_at(dfs, u, v)
            ab = (disc.alpha, disc.beta)
            x = np.asarray(fs.x.value(u, v), dtype=float)
            for got, want, nu_m in ((ab[0], inv.alpha, fs.nu1), (ab[1], inv.beta, fs.nu2)):
                y = np.asarray(nu_m.value(u, v), dtype=float)
                w = y[0] * x[1:] - (x[0] + 1.0) * y[1:]
                lam = math.sqrt(float(np.dot(w, w))) / (x[0] + 1.0) ** 3
                assert lam > 0.0
                assert got == pytest.approx(lam * want, rel=1e-6, abs=1e-12)


def test_transport_round_trip_base_and_normal_plane():
    ex = get_example("cross_cap")
    fs = ex.framed
    back = transport_to_h3(transport_to_disc(fs))
    assert verify_framed(back, ex.domain).max_gram_residual < 1e-10
    for u in np.linspace(-0.9, 0.9, 5):
        for v in np.linspace(-0.9, 0.9, 5):
            assert np.max(np.abs(back.x.value(u, v) - fs.x.value(u, v))) < 1e-8
            # the pair may come back rotated in-plane; the wedge direction
            # nu3 pins the plane itself
            n3a = wedge3(fs.x.value(u, v), fs.nu1.value(u, v), fs.nu2.value(u, v))
            n3b = wedge3(back.x.value(u, v), back.nu1.value(u, v), back.nu2.value(u, v))
            rej = n3a - (minkowski_dot4(n3a, n3b) / minkowski_dot4(n3b, n3b)) * n3b
            assert np.max(np.abs(rej)) < 1e-8


def test_transport_to_h3_flat_patch():
    dom = Domain(0.1, 0.4, 0.1, 0.4, nu=5, nv=5)
    zero3 = lambda u, v: np.zeros(3)

    def n2_value(u, v):
        n = np.sqrt(u * u + v * v)
        return components(-v / n, u / n, 0.0)

    def n2_du(u, v):
        n = np.sqrt(u * u + v * v)
        return components(u * v / n**3, v * v / n**3, 0.0)

    def n2_dv(u, v):
        n = np.sqrt(u * u + v * v)
        return components(-u * u / n**3, -u * v / n**3, 0.0)

    dfs = FramedSurface(
        x=ParametricMap4(
            value=lambda u, v: components(u, v, 0.0),
            firsts=lambda u, v: (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
        ),
        nu1=ParametricMap4(
            value=lambda u, v: np.array([0.0, 0.0, 1.0]), firsts=lambda u, v: (zero3(u, v), zero3(u, v))
        ),
        nu2=ParametricMap4(value=n2_value, firsts=lambda u, v: (n2_du(u, v), n2_dv(u, v))),
    )
    fs = transport_to_h3(dfs)
    for u in np.linspace(0.1, 0.4, 4):
        for v in np.linspace(0.1, 0.4, 4):
            x = fs.x.value(u, v)
            for nu_m in (fs.nu1, fs.nu2):
                nu = nu_m.value(u, v)
                assert abs(minkowski_dot4(x, nu)) < 1e-12
                assert minkowski_dot4(nu, nu) == pytest.approx(1.0, abs=1e-12)
    assert verify_framed(fs, dom).max_gram_residual < 1e-10
    # the patch itself is a Euclidean framed surface, nu3 = nu1 x nu2 =
    # -(u, v, 0) / n, with closed-form invariants
    U, V = dom.mesh()
    n = np.sqrt(U * U + V * V)
    inv = invariants_at(dfs, U, V)
    want = {"a1": 0.0, "a2": 0.0, "b1": -V / n, "b2": U / n, "c1": -U / n, "c2": -V / n,
            "e1": 0.0, "e2": 0.0, "f1": 0.0, "f2": 0.0, "g1": -V / (n * n), "g2": U / (n * n),
            "alpha": 1.0, "beta": 0.0}
    for key, value in want.items():
        assert np.allclose(inv.as_dict()[key], value, rtol=0.0, atol=1e-14), key


def test_transport_to_h3_rejects_degenerate_normal():
    dfs = FramedSurface(
        x=ParametricMap4(value=lambda u, v: np.array([0.2, 0.0, 0.0])),
        nu1=ParametricMap4(value=lambda u, v: np.zeros(3)),
        nu2=ParametricMap4(value=lambda u, v: np.array([0.0, 0.0, 1.0])),
    )
    with pytest.raises(NormalizationError):
        transport_to_h3(dfs).nu1.value(0.5, 0.5)


#: One call of each one-geometry entry of the ``geometry`` fixture's table on
#: a framed surface and a window, reading the maps a transport returns; the
#: horocyclic calls read (x, nu1, nu2), a curve frame along u on H^3.
_ONE_GEOMETRY_CALLS = {
    "frames.frame_from_normal": lambda fs, dom: frame_from_normal(fs.x, fs.nu1, dom).nu1.value(0.3, 0.4),
    "frames.integrability_residuals": integrability_residuals,
    "frames.integrate_frame_along_line": lambda fs, dom: integrate_frame_along_line(
        invariant_field(fs), frame_at(fs, 0.3, 0.4), "u", 0.1, 0.05),
    "horocyclic.extract_h": lambda fs, dom: extract_h(
        *(Curve4(value=lambda u, m=m: m.value(u, 0.4)) for m in (fs.x, fs.nu1, fs.nu2)), 0.3),
    "horocyclic.integrate_frame_curves": lambda fs, dom: integrate_frame_curves(
        lambda u: np.zeros(6), *(m.value(0.3, 0.4) for m in (fs.x, fs.nu1, fs.nu2)), 0.3, 0.4),
    "projections.from_poincare": lambda fs, dom: from_poincare(fs.x.value(0.3, 0.4)),
    "projections.project_to_r31": lambda fs, dom: project_to_r31(fs, Axis.X4, dom),
    "projections.to_poincare": lambda fs, dom: to_poincare(fs.x.value(0.3, 0.4)),
    "projections.transport_to_disc": lambda fs, dom: invariants_at(transport_to_disc(fs), 0.3, 0.4),
    "projections.transport_to_h3": lambda fs, dom: invariants_at(transport_to_h3(fs), 0.3, 0.4),
    "projections.verify_disc_framed": verify_disc_framed,
    "projections.write_disc_mesh": lambda fs, dom: write_disc_mesh(io.StringIO(), fs, dom),
}


def test_each_geometry_only_call_refuses_the_other(geometry):
    # unchecked, the other geometry would give 0.36 from the H^3 integrability
    # equations on the ball cross cap, a radius of 2.29 from the ball axioms on
    # the hyperboloid's, and an IndexError, a numpy broadcast error or an
    # OutsideDiscError from the other calls
    ex = get_example("cross_cap")
    surfaces = {"H^3": ex.framed, "R^3": transport_to_disc(ex.framed)}
    components_of = {"H^3": 4, "R^3": 3}
    one = {key: space for key, space in geometry.items() if space != "either"}
    assert one.keys() == _ONE_GEOMETRY_CALLS.keys()
    for key, space in one.items():
        call, (other,) = _ONE_GEOMETRY_CALLS[key], surfaces.keys() - {space}
        call(surfaces[space], _AXIS_WINDOWS[Axis.X4])  # its own geometry runs
        message = (f"{key.split('.')[1]} reads {space} only: "
                   f"got {components_of[other]} components, not {components_of[space]}")
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            call(surfaces[other], _AXIS_WINDOWS[Axis.X4])


# ---------------------------------------------------------------------------
# projections to R^3_1
# ---------------------------------------------------------------------------


def test_project_to_r31_residual_and_first_coordinate():
    fs = get_example("cross_cap").framed
    for axis, dom in _AXIS_WINDOWS.items():
        lc = project_to_r31(fs, axis, domain=dom)
        assert isinstance(lc, LightconeCandidate)
        assert lightcone_residual(lc) < 1e-8
        xt = lc.xtilde.value(0.25, 0.25) if axis is not Axis.X2 else lc.xtilde.value(0.2, 0.7)
        u0, v0 = (0.25, 0.25) if axis is not Axis.X2 else (0.2, 0.7)
        assert xt[0] == pytest.approx(fs.x.value(u0, v0)[0], abs=1e-14)
        # t is unit spacelike
        t = lc.t.value(u0, v0)
        assert minkowski_dot3(t, t) == pytest.approx(1.0, abs=1e-12)


def test_project_to_r31_nonspacelike_error():
    with pytest.raises(NonSpacelikeNormalError) as exc:
        project_to_r31(_constant_frame_surface(), Axis.X4, Domain(0.0, 1.0, 0.0, 1.0, nu=3, nv=3))
    err = exc.value
    assert (err.u, err.v) == (0.0, 0.0)
    assert err.character.value == "lightlike"


# ---------------------------------------------------------------------------
# lifts from R^3_1
# ---------------------------------------------------------------------------


def _sheet():
    """x1^2 - x2^2 - x3^2 = 2 everywhere: a clean lift input."""
    r = lambda u, v: np.sqrt(2.0 + u * u + v * v)
    return ParametricMap4(
        value=lambda u, v: components(r(u, v), u, v),
        firsts=lambda u, v: (components(u / r(u, v), 1.0, 0.0), components(v / r(u, v), 0.0, 1.0)),
    )


def test_lift_known_sheet_fallback_normal():
    dom = Domain(0.2, 0.8, 0.1, 0.6, nu=7, nv=7)
    x_map, nu_map = lift_from_r31(_sheet(), Axis.X4, domain=dom)
    for u in np.linspace(0.2, 0.8, 5):
        for v in np.linspace(0.1, 0.6, 5):
            x, xu, xv = first_partials(x_map, u, v)
            nu = nu_map.value(u, v)
            assert abs(minkowski_dot4(x, x) + 1.0) < 1e-12
            assert abs(minkowski_dot4(nu, x)) < IDENTITY_TOL
            assert abs(minkowski_dot4(nu, wedge3(x, xu, xv))) < IDENTITY_TOL
            assert minkowski_dot4(nu, nu) == pytest.approx(1.0, abs=1e-12)


def test_lift_fallback_normal_partials():
    # the fallback normal's value takes the lifted map's partials, which
    # cannot be a second complex step inside the one that differentiates
    # the normal; its partials must still be those of its values
    dom = Domain(0.2, 0.8, 0.1, 0.6, nu=7, nv=7)
    _, nu_map = lift_from_r31(ParametricMap4(value=_sheet().value), Axis.X4, domain=dom)
    h = 1e-4
    for u, v in [(0.3, 0.2), (0.5, 0.4), (0.7, 0.5)]:
        _, nu_u, nu_v = first_partials(nu_map, u, v)
        fd_u = (nu_map.value(u + h, v) - nu_map.value(u - h, v)) / (2.0 * h)
        fd_v = (nu_map.value(u, v + h) - nu_map.value(u, v - h)) / (2.0 * h)
        assert np.max(np.abs(nu_u - fd_u)) < 1e-7 and np.max(np.abs(nu_v - fd_v)) < 1e-7
        assert np.max(np.abs(nu_u)) > 0.01  # the normal turns


def test_lift_with_lightcone_pair():
    xt = _sheet()

    def plane_angle(u, v):
        _, xu, xv = first_partials(xt, u, v)
        m = wedge2_r31(xu, xv)
        return math.atan2(m[2], m[1])

    def lplus(u, v):
        phi = plane_angle(u, v)
        return np.array([1.0, math.cos(phi), math.sin(phi)])

    def lminus(u, v):
        phi = plane_angle(u, v)
        return np.array([1.0, -math.cos(phi), -math.sin(phi)])

    dom = Domain(0.2, 0.8, 0.1, 0.6, nu=7, nv=7)
    x_map, nu_map = lift_from_r31(xt, Axis.X4, domain=dom, lplus=lplus, lminus=lminus)
    for u in np.linspace(0.2, 0.8, 5):
        for v in np.linspace(0.1, 0.6, 5):
            x, xu, xv = first_partials(x_map, u, v)
            nu = nu_map.value(u, v)
            assert minkowski_dot3(lplus(u, v), lplus(u, v)) == pytest.approx(0.0, abs=1e-14)
            assert abs(minkowski_dot4(nu, x)) < IDENTITY_TOL
            assert abs(minkowski_dot4(nu, wedge3(x, xu, xv))) < IDENTITY_TOL
            assert minkowski_dot4(nu, nu) == pytest.approx(1.0, abs=1e-12)


def test_project_then_lift_is_identity():
    fs = get_example("cross_cap").framed
    for axis, dom in _AXIS_WINDOWS.items():
        lc = project_to_r31(fs, axis, domain=dom)
        x_map, _ = lift_from_r31(lc.xtilde, axis, domain=dom)
        for u in np.linspace(dom.u_min, dom.u_max, 4):
            for v in np.linspace(dom.v_min, dom.v_max, 4):
                assert np.max(np.abs(x_map.value(u, v) - fs.x.value(u, v))) < IDENTITY_TOL


def test_project_lift_and_split_give_a_full_frame():
    # R^3_1 -> H^3 -> frame: the lifted base map and its normal, split by
    # frame_from_normal, satisfy every framed-surface axiom
    fs = get_example("cross_cap").framed
    for axis, dom in _AXIS_WINDOWS.items():
        x_map, nu_map = lift_from_r31(project_to_r31(fs, axis, domain=dom).xtilde, axis, domain=dom)
        U, V = dom.mesh()
        assert np.max(np.abs(x_map.value(U, V) - fs.x.value(U, V))) <= ROUND_TRIP_TOL
        residuals = dataclasses.astuple(verify_framed(frame_from_normal(x_map, nu_map, dom), dom))
        assert max(residuals) <= ROUND_TRIP_TOL, (axis, residuals)


def test_lift_precondition_and_argument_errors():
    dom = Domain(0.0, 1.0, 0.0, 1.0, nu=3, nv=3)
    boundary = ParametricMap4(value=lambda u, v: np.array([1.0, 0.0, 0.0]))
    with pytest.raises(PreconditionError) as exc:
        lift_from_r31(boundary, Axis.X4, domain=dom)
    assert "1.000000e+00" in str(exc.value)
    with pytest.raises(ValueError):
        lift_from_r31(_sheet(), Axis.X4, domain=dom, lplus=lambda u, v: np.ones(3))


@pytest.mark.parametrize("x1, where, got", [
    (1e154, "(0.0, 0.0)", "0.000000e+00"),  # <x,x> is all rounding
    (1e200, "(0.0, 0.0)", "nan"),  # x1^2 overflows
])
def test_lift_refuses_a_grid_point_whose_lift_leaves_h3(x1, where, got):
    # x1^2 - x2^2 - x3^2 passes the precondition, but the lift is not on
    # H^3: the first such grid point is named, as the CLI's project refuses
    # it; the lift's squared size overflows, so its bound is nan
    dom = Domain(0.0, 1.0, 0.0, 1.0, nu=3, nv=3)
    xt = ParametricMap4(value=lambda u, v: components(x1 + 0.0 * u, 1.0 + 0.0 * u, v))
    with pytest.raises(PreconditionError) as exc:
        lift_from_r31(xt, Axis.X4, domain=dom)
    assert str(exc.value) == f"lift at {where} is off H^3: <x,x> = {got}: |x|^2 is not finite"


@pytest.mark.parametrize("p", [(1000.0005, 1000.0, 0.0), (math.sqrt(101.0 + 1e-9), 10.0, 0.0)],
                         ids=["1e3", "1e1"])
def test_lift_margin_is_absolute(p):
    # q - 1 = 2.5e-7 and 1e-9 clear LIFT_MARGIN = 1e-10 by far more than
    # q's rounding (2e-10 and 2e-14): the lift rises, lies on H^3, and
    # lift_from_r31 accepts the map, as project --from r31 does the point.
    # A margin scaled by |(x2, x3)|^2 would refuse both
    q, x, _, _, rises, ok = projections._lift(np.array(p), Axis.X4)
    assert q - 1.0 > projections.LIFT_MARGIN and rises and ok
    xt = ParametricMap4(value=lambda u, v: components(*(c + 0.0 * u for c in p)))
    x_map, _ = lift_from_r31(xt, Axis.X4, domain=Domain(0.0, 1.0, 0.0, 1.0, nu=2, nv=2))
    assert np.array_equal(x_map.value(0.5, 0.5), x)


def _boost(r, d):
    """The Lorentz boost of rapidity ``r`` along the unit spatial direction ``d``."""
    b = np.eye(4)
    b[0, 0] = math.cosh(r)
    b[0, 1:] = b[1:, 0] = math.sinh(r) * d
    b[1:, 1:] += (math.cosh(r) - 1.0) * np.outer(d, d)
    return b


_J = np.diag([-1.0, 1.0, 1.0, 1.0])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(r=st.floats(0.0, 15.0), t=st.floats(0.0, math.pi / 2), p=st.floats(0.0, 2 * math.pi),
       b=st.floats(0.0, 2 * math.pi), c=st.floats(0.0, 2 * math.pi))
@example(r=15.0, t=0.3, p=1.0, b=0.5, c=2.0)
def test_boosted_inputs_are_judged_against_their_size(r, t, p, b, c):
    # a point of H^3 and a unit normal orthogonal to it, boosted up to
    # distance 15 from the origin, are accepted as they round; moved off
    # H^3, unit length or orthogonality by a relative 1e-6 they are refused.
    # v + 1e-6 J v moves <v,v> by 2e-6 |v|^2, whatever the size of v
    a = 0.5
    boost = _boost(r, np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]))
    x = boost @ np.array([math.cosh(a), 0.0, 0.0, math.sinh(a)])
    nu = boost @ (math.cos(b) * np.array([0.0, math.cos(c), math.sin(c), 0.0])
                  + math.sin(b) * np.array([math.sinh(a), 0.0, 0.0, math.cosh(a)]))
    dom = Domain(0.0, 1.0, 0.0, 1.0, nu=2, nv=2)

    def const(w):
        return ParametricMap4(value=lambda u, v: components(*(wi + 0.0 * u for wi in w)))

    to_poincare(x)
    assert projections._lift(x[:3], Axis.X4)[-1]  # x4 >= sinh(a) > 0, so q - 1 >= 0.27
    frame_from_normal(const(x), const(nu), dom)

    off = x + 1e-6 * _J @ x
    with pytest.raises(OffHyperboloidError):
        to_poincare(off)
    with pytest.raises(PreconditionError, match="is not on the upper hyperboloid"):
        frame_from_normal(const(off), const(nu), dom)
    with pytest.raises(PreconditionError, match="is not unit spacelike"):
        frame_from_normal(const(x), const(nu + 1e-6 * _J @ nu), dom)
    s = max(np.linalg.norm(x), np.linalg.norm(nu))
    tilted = nu + 1e-6 * s * s / np.dot(x, x) * _J @ x  # <x, tilted> = 1e-6 s^2; <nu,nu> moves too
    with pytest.raises(PreconditionError, match="normal at"):
        frame_from_normal(const(x), const(tilted), dom)


def test_lift_refuses_a_map_onto_the_lower_sheet():
    # x1 < 0 lifts onto <x,x> = -1 but not onto H^3, which frame_from_normal
    # would refuse after the lift
    dom = Domain(0.0, 1.0, 0.0, 1.0, nu=3, nv=3)
    xt = ParametricMap4(value=lambda u, v: components(-2.0 - u + 0.0 * v, 0.3 * u + 0.0 * v, 0.2 * v + 0.0 * u))
    with pytest.raises(PreconditionError) as exc:
        lift_from_r31(xt, Axis.X4, domain=dom)
    assert str(exc.value) == "lift at (0.0, 0.0) is off H^3: x1 = -2.000000e+00 is not on the upper branch"


def test_to_poincare_refusal_prints_the_deviation_it_judged():
    # at distance 9 from the origin |<x,x> + 1| = 3.7e-9 is rounding, within
    # ON_H3_TOL times |x|^2; moved off H^3 by a relative 1e-6 the point is
    # refused, and the refusal prints the deviation beside that bound
    x = np.array([math.cosh(9.0), 0.6 * math.sinh(9.0), 0.8 * math.sinh(9.0), 0.0])
    assert abs(minkowski_dot4(x, x) + 1.0) > ON_H3_TOL
    assert np.array_equal(to_poincare(x), x[1:] / (x[0] + 1.0))
    y = x * np.array([1.0 + 1e-6, 1.0, 1.0, 1.0])
    r = minkowski_dot4(y, y)
    with pytest.raises(OffHyperboloidError) as exc:
        to_poincare(y)
    assert str(exc.value) == (f"<x,x> = {r:.6e}: |<x,x> + 1| = {abs(r + 1.0):.3e} "
                              f"is not within {ON_H3_TOL * np.dot(y, y):.3e}")


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------


def test_write_disc_mesh_layout():
    fs = get_example("cross_cap").framed
    dom = Domain(-0.4, 0.4, -0.4, 0.4, nu=3, nv=4)
    buf = io.StringIO()
    write_disc_mesh(buf, fs, domain=dom, markers=[(0.0, 0.0)])
    lines = buf.getvalue().splitlines()

    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    points = [l for l in lines if l.startswith("p ")]
    assert len(verts) == 3 * 4 + 1
    assert len(faces) == 2 * (3 - 1) * (4 - 1)
    assert points == [f"p {3 * 4 + 1}"]

    coords = np.array([[float(t) for t in l.split()[1:]] for l in verts])
    assert np.max(np.linalg.norm(coords, axis=1)) < 1.0
    # v-major: the first nu vertices share the first v row
    expect = [to_poincare(fs.x.value(u, dom.v_min)) for u in dom.u_grid()]
    assert np.allclose(coords[:3], expect, atol=1e-15)

    for l in faces:
        i, j, k = (int(t) for t in l.split()[1:])
        assert len({i, j, k}) == 3 and 1 <= min(i, j, k) and max(i, j, k) <= 12
        a, b, c = coords[i - 1], coords[j - 1], coords[k - 1]
        # counterclockwise from outside: outward normal against centroid,
        # unless the face's plane passes through the centre (an exact tie,
        # whose sign is rounding noise)
        normal, centroid = np.cross(b - a, c - a), (a + b + c) / 3.0
        dot = np.dot(normal, centroid)
        assert dot > 0.0 or abs(dot) <= 1e-12 * np.linalg.norm(normal) * np.linalg.norm(centroid)

    # deterministic output: a second write is identical
    again = io.StringIO()
    write_disc_mesh(again, fs, domain=dom, markers=[(0.0, 0.0)])
    assert again.getvalue() == buf.getvalue()


def test_write_disc_mesh_markers_as_array():
    # an (n, 2) array of markers writes what the same list of pairs does;
    # None and an empty list write no p line
    fs = get_example("cross_cap").framed
    dom = Domain(-0.4, 0.4, -0.4, 0.4, nu=3, nv=4)

    def mesh(markers):
        buf = io.StringIO()
        write_disc_mesh(buf, fs, domain=dom, markers=markers)
        return buf.getvalue()

    pairs = [(0.0, 0.0), (0.1, 0.1)]
    got = mesh(np.array(pairs))
    assert got == mesh(pairs)
    assert [l for l in got.splitlines() if l.startswith("p ")] == ["p 13", "p 14"]
    for empty in (None, []):
        assert mesh(empty) == mesh(None)
        assert not [l for l in mesh(empty).splitlines() if l.startswith("p ")]


@pytest.mark.parametrize("name", ["ruled_A", "cross_cap"])
def test_disc_mesh_winding_survives_last_digit_vertex_changes(name, monkeypatch):
    # both grids hold faces whose plane passes through the centre (80 of
    # ruled_A's 1,600, 78 of cross_cap's 800): their winding is grid order,
    # not the sign of a dot product at rounding level
    ex = get_example(name)

    def faces():
        buf = io.StringIO()
        write_disc_mesh(buf, ex.framed, ex.domain)
        return [l for l in buf.getvalue().splitlines() if l.startswith("f ")]

    want = faces()
    sign = np.random.default_rng(7).choice([-1.0, 1.0], size=(3,) + ex.domain.mesh()[0].shape)
    exact = projections.to_poincare
    monkeypatch.setattr(projections, "to_poincare", lambda x: exact(x) + 1e-16 * sign)
    assert faces() == want
