"""Ball-model transports, R^3_1 projections and lifts, mesh export."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h3frames.errors import (
    NonSpacelikeNormalError,
    NormalizationError,
    OffHyperboloidError,
    OutsideDiscError,
    PreconditionError,
)
from h3frames.examples import get_example
from h3frames.frames import FramedSurface, invariants_at, rotate_frame, verify_framed
from h3frames.minkowski import (
    minkowski_dot3,
    minkowski_dot4,
    wedge2_r31,
    wedge3,
)
from h3frames.projections import (
    Axis,
    DiscFramedSurface,
    LightconeCandidate,
    disc_alpha_beta,
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
        return ParametricMap4(value=lambda u, v: w, du=zero, dv=zero)

    return FramedSurface(
        x=const(e[0]), nu1=const(e[1]), nu2=const(e[2]),
        domain=Domain(0.0, 1.0, 0.0, 1.0, nu=3, nv=3),
    )


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
    dfs = transport_to_disc(get_example("cross_cap").framed)
    res = verify_disc_framed(dfs)
    assert res.max_radius < 1.0
    assert res.max_unit < 1e-10
    assert res.max_orth < 1e-10
    assert res.max_off_span < 1e-8


def test_transport_to_disc_constant_frame():
    dfs = transport_to_disc(_constant_frame_surface())
    assert dfs.xbar.value(0.5, 0.5) == pytest.approx((0.0, 0.0, 0.0))
    assert dfs.nubar1.value(0.5, 0.5) == pytest.approx((-1.0, 0.0, 0.0))
    n2 = dfs.nubar2.value(0.5, 0.5)
    assert np.dot(dfs.nubar1.value(0.5, 0.5), n2) == pytest.approx(0.0, abs=1e-15)


def test_disc_alpha_beta_proportional_to_invariants():
    fs = get_example("cross_cap").framed
    dfs = transport_to_disc(fs)
    for u in np.linspace(-0.8, 0.8, 5):
        for v in np.linspace(-0.8, 0.8, 5):
            inv = invariants_at(fs, u, v)
            if inv.alpha**2 + inv.beta**2 <= 1e-6:
                continue
            ab = disc_alpha_beta(dfs, u, v)
            x = np.asarray(fs.x.value(u, v), dtype=float)
            for got, want, nu_m in ((ab[0], inv.alpha, fs.nu1), (ab[1], inv.beta, fs.nu2)):
                y = np.asarray(nu_m.value(u, v), dtype=float)
                w = y[0] * x[1:] - (x[0] + 1.0) * y[1:]
                lam = math.sqrt(float(np.dot(w, w))) / (x[0] + 1.0) ** 3
                assert lam > 0.0
                assert got == pytest.approx(lam * want, rel=1e-6, abs=1e-12)


def test_transport_round_trip_base_and_normal_plane():
    fs = get_example("cross_cap").framed
    back = transport_to_h3(transport_to_disc(fs))
    assert verify_framed(back).max_gram_residual < 1e-10
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
        n = np.hypot(u, v)
        return components(-v / n, u / n, 0.0)

    def n2_du(u, v):
        n = np.hypot(u, v)
        return components(u * v / n**3, v * v / n**3, 0.0)

    def n2_dv(u, v):
        n = np.hypot(u, v)
        return components(-u * u / n**3, -u * v / n**3, 0.0)

    dfs = DiscFramedSurface(
        xbar=ParametricMap4(
            value=lambda u, v: components(u, v, 0.0),
            du=lambda u, v: np.array([1.0, 0.0, 0.0]),
            dv=lambda u, v: np.array([0.0, 1.0, 0.0]),
        ),
        nubar1=ParametricMap4(
            value=lambda u, v: np.array([0.0, 0.0, 1.0]), du=zero3, dv=zero3
        ),
        nubar2=ParametricMap4(value=n2_value, du=n2_du, dv=n2_dv),
        domain=dom,
    )
    fs = transport_to_h3(dfs)
    for u in np.linspace(0.1, 0.4, 4):
        for v in np.linspace(0.1, 0.4, 4):
            x = fs.x.value(u, v)
            for nu_m in (fs.nu1, fs.nu2):
                nu = nu_m.value(u, v)
                assert abs(minkowski_dot4(x, nu)) < 1e-12
                assert minkowski_dot4(nu, nu) == pytest.approx(1.0, abs=1e-12)
    assert verify_framed(fs).max_gram_residual < 1e-10


def test_transport_to_h3_rejects_degenerate_normal():
    dom = Domain(0.0, 1.0, 0.0, 1.0, nu=3, nv=3)
    dfs = DiscFramedSurface(
        xbar=ParametricMap4(value=lambda u, v: np.array([0.2, 0.0, 0.0])),
        nubar1=ParametricMap4(value=lambda u, v: np.zeros(3)),
        nubar2=ParametricMap4(value=lambda u, v: np.array([0.0, 0.0, 1.0])),
        domain=dom,
    )
    with pytest.raises(NormalizationError):
        transport_to_h3(dfs).nu1.value(0.5, 0.5)


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
        project_to_r31(_constant_frame_surface(), Axis.X4)
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
        du=lambda u, v: components(u / r(u, v), 1.0, 0.0),
        dv=lambda u, v: components(v / r(u, v), 0.0, 1.0),
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


def test_derived_maps_keep_their_source_step():
    # every map built from another one carries its source's h1, so a
    # finite-difference partial of a derived map uses the step it was given
    fs = get_example("cross_cap").framed
    x, n1, n2 = (dataclasses.replace(m, h1=h) for m, h in
                 ((fs.x, 1e-3), (fs.nu1, 2e-3), (fs.nu2, 3e-3)))
    fs = FramedSurface(x=x, nu1=n1, nu2=n2, domain=fs.domain)

    rot = rotate_frame(fs, lambda u, v: 0.3 * u)
    assert (rot.x.h1, rot.nu1.h1, rot.nu2.h1) == (1e-3, 2e-3, 3e-3)
    disc = transport_to_disc(fs)
    assert (disc.xbar.h1, disc.nubar1.h1, disc.nubar2.h1) == (1e-3, 2e-3, 3e-3)
    back = transport_to_h3(disc)
    assert (back.x.h1, back.nu1.h1, back.nu2.h1) == (1e-3, 2e-3, 3e-3)
    lc = project_to_r31(fs, Axis.X4, domain=_AXIS_WINDOWS[Axis.X4])
    assert (lc.xtilde.h1, lc.t.h1) == (1e-3, 1e-3)
    x_map, nu_map = lift_from_r31(lc.xtilde, Axis.X4, domain=_AXIS_WINDOWS[Axis.X4])
    assert (x_map.h1, nu_map.h1) == (1e-3, 1e-3)


def test_lift_precondition_and_argument_errors():
    dom = Domain(0.0, 1.0, 0.0, 1.0, nu=3, nv=3)
    boundary = ParametricMap4(value=lambda u, v: np.array([1.0, 0.0, 0.0]))
    with pytest.raises(PreconditionError) as exc:
        lift_from_r31(boundary, Axis.X4, domain=dom)
    assert "1.000000e+00" in str(exc.value)
    with pytest.raises(ValueError):
        lift_from_r31(_sheet(), Axis.X4, domain=dom, lplus=lambda u, v: np.ones(3))
    with pytest.raises(ValueError):
        lift_from_r31(_sheet(), Axis.X4)  # no domain anywhere


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------


def test_write_disc_mesh_layout(tmp_path):
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
        # counterclockwise from outside: outward normal against centroid
        assert np.dot(np.cross(b - a, c - a), (a + b + c) / 3.0) >= 0.0

    # deterministic output, stream and file identical
    path = tmp_path / "mesh.obj"
    write_disc_mesh(path, fs, domain=dom, markers=[(0.0, 0.0)])
    assert path.read_text(encoding="ascii") == buf.getvalue()
