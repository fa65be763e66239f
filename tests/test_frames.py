"""Frame evaluation, invariant extraction, transformation laws, reduction
tags, family relabelling, the frame ODE, and the CSV writer."""

import collections
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h3frames.errors import (
    DegenerateAnglesError,
    DegenerateFrameError,
    PreconditionError,
)
from h3frames.examples import get_example
from h3frames.frames import (
    FRAME_TOL,
    INVARIANT_CSV_HEADER,
    FramedSurface,
    Invariants,
    ReductionType,
    ReflectVariant,
    _expm,
    _frame_ode_matrix,
    family_curvatures,
    fixed_u,
    fixed_v,
    frame_at,
    frame_from_normal,
    integrability_residuals,
    integrate_frame_along_line,
    invariant_field,
    invariant_partials,
    invariants_at,
    reduction_type,
    reduction_type_grid,
    reflect,
    reparametrize_invariants,
    rotate_frame,
    rotated_invariants,
    verify_framed,
    write_invariants_csv,
)
from h3frames.minkowski import minkowski_dot4, wedge3
from h3frames.surface import Domain, ParametricMap4, _partial, components, evaluate, first_partials

GRAM_TOL = 1e-10
OFFSPAN_TOL = 1e-8
CONSTRAINT_TOL = 1e-8

ALL_EXAMPLES = ("cross_cap", "corank_one", "ruled_A", "ruled_B")

finite = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)
invariants_strategy = st.builds(
    Invariants,
    a1=finite, a2=finite, b1=finite, b2=finite, c1=finite, c2=finite,
    e1=finite, e2=finite, f1=finite, f2=finite, g1=finite, g2=finite,
)


# ---------------------------------------------------------------------------
# axioms on the built-in surfaces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_examples_satisfy_framed_axioms(name):
    fs = get_example(name).framed
    summary = verify_framed(fs)
    assert summary.max_gram_residual < GRAM_TOL
    assert summary.max_offspan_residual < OFFSPAN_TOL
    assert summary.max_constraint_residual < CONSTRAINT_TOL


def test_degenerate_frame_refuses_extraction():
    fs = get_example("cross_cap").framed
    bad_nu2 = ParametricMap4(value=lambda u, v: 1.01 * fs.nu2.value(u, v))
    bad = FramedSurface(x=fs.x, nu1=fs.nu1, nu2=bad_nu2, domain=fs.domain)
    with pytest.raises(DegenerateFrameError):
        invariants_at(bad, 0.3, 0.2)


def test_integrability_residuals_small_on_cross_cap():
    fs = get_example("cross_cap").framed
    dom = Domain(-0.8, 0.8, -0.8, 0.8, nu=5, nv=5)
    res = integrability_residuals(fs, domain=dom, h=1e-5)
    assert len(res.r) == 6
    assert res.r[0].shape == (5, 5)
    assert res.max_overall < 1e-5
    assert res.max_abs == tuple(float(np.max(np.abs(ri))) for ri in res.r)


def test_integrability_residuals_reject_bad_step():
    fs = get_example("cross_cap").framed
    with pytest.raises(ValueError):
        integrability_residuals(fs, h=0.0)


# ---------------------------------------------------------------------------
# discrete symmetries and rotations
# ---------------------------------------------------------------------------


@given(inv=invariants_strategy, variant=st.sampled_from(list(ReflectVariant)))
def test_reflect_is_an_involution(inv, variant):
    twice = reflect(reflect(inv, variant), variant)
    assert twice == inv  # negation and swapping are exact on floats


@pytest.mark.parametrize("variant", list(ReflectVariant))
def test_reflect_matches_reflected_frame_extraction(variant):
    fs = get_example("cross_cap").framed

    def flip(m, sign):
        return ParametricMap4(
            value=lambda u, v: sign * m.value(u, v),
            du=(lambda u, v: sign * m.du(u, v)) if m.has_closed_firsts else None,
            dv=(lambda u, v: sign * m.dv(u, v)) if m.has_closed_firsts else None,
        )

    if variant is ReflectVariant.NEG_NU1:
        fs2 = FramedSurface(fs.x, flip(fs.nu1, -1.0), fs.nu2, fs.domain)
    elif variant is ReflectVariant.NEG_BOTH:
        fs2 = FramedSurface(fs.x, flip(fs.nu1, -1.0), flip(fs.nu2, -1.0), fs.domain)
    else:
        fs2 = FramedSurface(fs.x, fs.nu2, fs.nu1, fs.domain)

    for u, v in ((0.4, 0.2), (-0.5, 0.6), (0.1, -0.7)):
        want = reflect(invariants_at(fs, u, v), variant)
        got = invariants_at(fs2, u, v)
        for k, val in got.as_dict().items():
            assert val == pytest.approx(want.as_dict()[k], abs=1e-12), (variant, k)


@given(
    inv=invariants_strategy,
    theta=st.floats(-math.pi, math.pi),
    theta_u=finite,
    theta_v=finite,
)
def test_rotation_preserves_alpha_beta_norm_and_c_row(inv, theta, theta_u, theta_v):
    rot = rotated_invariants(inv, theta, theta_u, theta_v)
    scale = max(1.0, inv.alpha ** 2 + inv.beta ** 2)
    assert rot.alpha ** 2 + rot.beta ** 2 == pytest.approx(
        inv.alpha ** 2 + inv.beta ** 2, abs=1e-10 * scale
    )
    assert rot.c1 == inv.c1 and rot.c2 == inv.c2
    assert rot.e1 == pytest.approx(inv.e1 - theta_u, abs=1e-12)
    assert rot.e2 == pytest.approx(inv.e2 - theta_v, abs=1e-12)


@given(
    inv=invariants_strategy,
    theta=st.floats(-math.pi, math.pi),
    theta_u=finite,
    theta_v=finite,
)
def test_rotation_round_trip(inv, theta, theta_u, theta_v):
    back = rotated_invariants(
        rotated_invariants(inv, theta, theta_u, theta_v), -theta, -theta_u, -theta_v
    )
    for k, val in back.as_dict().items():
        assert val == pytest.approx(inv.as_dict()[k], abs=1e-12), k


def test_rotate_frame_two_routes_agree():
    """Rotating the frame then extracting == extracting then rotating."""
    fs = get_example("cross_cap").framed
    fs_rot = rotate_frame(fs, lambda u, v: u + v)
    for u, v in ((0.4, 0.2), (-0.3, 0.5), (0.6, -0.6)):
        via_invariants = rotated_invariants(invariants_at(fs, u, v), u + v, 1.0, 1.0)
        via_frame = invariants_at(fs_rot, u, v)
        for k, val in via_frame.as_dict().items():
            assert val == pytest.approx(via_invariants.as_dict()[k], abs=1e-9), k


def test_rotate_frame_complex_steps_theta():
    """theta's partials come from the complex step of the rotated normals."""
    fs = get_example("cross_cap").framed
    fs_rot = rotate_frame(fs, lambda u, v: 0.5 * u * u - v)
    inv = invariants_at(fs_rot, 0.4, 0.2)
    want = rotated_invariants(invariants_at(fs, 0.4, 0.2), 0.5 * 0.16 - 0.2, 0.4, -1.0)
    for k, val in inv.as_dict().items():
        assert val == pytest.approx(want.as_dict()[k], abs=1e-7), k


def test_rotate_frame_reads_no_partial_of_the_normals():
    # the rotated normals are value-only maps, differentiated by the
    # complex step of their values: a rotated frame reads none of the
    # original normals' closed firsts
    fs = get_example("cross_cap").framed
    calls = collections.Counter()

    def counted(name, m):
        def wrap(key, fn):
            def f(u, v):
                calls[name, key] += 1
                return fn(u, v)

            return f

        return dataclasses.replace(m, du=wrap("du", m.du), dv=wrap("dv", m.dv))

    counted_fs = dataclasses.replace(fs, nu1=counted("nu1", fs.nu1), nu2=counted("nu2", fs.nu2))
    theta = lambda u, v: 0.7 + 0.3 * u - 0.2 * v
    fr = frame_at(rotate_frame(counted_fs, theta), 0.4, 0.2)
    assert not calls, calls
    want = frame_at(rotate_frame(fs, theta), 0.4, 0.2)
    for k in ("nu1", "nu2", "nu1u", "nu1v", "nu2u", "nu2v"):
        assert np.array_equal(getattr(fr, k), getattr(want, k)), k


# ---------------------------------------------------------------------------
# reparametrization
# ---------------------------------------------------------------------------


@given(inv=invariants_strategy, j11=finite, j12=finite, j21=finite, j22=finite)
def test_reparametrize_scales_alpha_beta_by_det(inv, j11, j12, j21, j22):
    jac = np.array([[j11, j12], [j21, j22]])
    out = reparametrize_invariants(inv, jac)
    det = j11 * j22 - j12 * j21
    scale = max(1.0, abs(inv.alpha), abs(inv.beta), abs(det))
    assert out.alpha == pytest.approx(det * inv.alpha, abs=1e-10 * scale * scale)
    assert out.beta == pytest.approx(det * inv.beta, abs=1e-10 * scale * scale)


def test_reparametrize_identity_and_validation():
    inv = Invariants(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
    assert reparametrize_invariants(inv, np.eye(2)) == inv
    with pytest.raises(ValueError):
        reparametrize_invariants(inv, np.eye(3))
    with pytest.raises(ValueError):
        reparametrize_invariants(inv, [[1.0, float("nan")], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# constructing the orthonormal pair from a single normal
# ---------------------------------------------------------------------------


def _nu3_map(fs):
    """nu3 = x ^ nu1 ^ nu2 of a framed surface, as a value-only map."""

    def nu3(u, v):
        return wedge3(*(evaluate(m.value, u, v) for m in (fs.x, fs.nu1, fs.nu2)))

    return ParametricMap4(value=nu3, domain=fs.domain)


def _rotation_angle(fs, other):
    """theta with other.nu1 = cos(theta) fs.nu1 - sin(theta) fs.nu2 over the
    grid of ``fs``, and its partials, from complex steps of cos and sin."""

    def cos_sin(u, v):
        n = evaluate(other.nu1.value, u, v)
        return components(minkowski_dot4(n, evaluate(fs.nu1.value, u, v)),
                          -minkowski_dot4(n, evaluate(fs.nu2.value, u, v)))

    (c, s), (c_u, s_u), (c_v, s_v) = first_partials(ParametricMap4(value=cos_sin), *fs.domain.mesh())
    return np.arctan2(s, c), c * s_u - s * c_u, c * s_v - s * c_v


def test_frame_from_normal_reproduces_normal():
    fs = get_example("cross_cap").framed
    nf = frame_from_normal(fs.x, _nu3_map(fs))
    assert nf.x is fs.x and nf.domain == fs.domain
    assert not nf.nu1.has_closed_firsts and not nf.nu2.has_closed_firsts
    U, V = fs.domain.mesh()
    fr = frame_at(nf, U, V)
    assert np.max(fr.gram_residual()) < 1e-12
    assert np.max(np.abs(fr.nu3 - _nu3_map(fs).value(U, V))) < 1e-12
    # one point evaluates as inside the grid
    one = frame_at(nf, U[4, 7], V[4, 7])
    for k in ("nu1", "nu2", "nu1u", "nu1v", "nu2u", "nu2v"):
        assert np.array_equal(getattr(one, k), getattr(fr, k)[:, 4, 7]), k


def test_frame_from_normal_precondition_errors():
    fs = get_example("cross_cap").framed
    nu3 = _nu3_map(fs)
    U, V = fs.domain.mesh()
    bad = (U > 0.5) & (V > 0.0)
    k = np.flatnonzero(bad)[0]  # the first bad point, v-major
    at = f"at ({U.flat[k]}, {V.flat[k]})"

    def scaled(m, factor):
        return ParametricMap4(value=lambda u, v: np.where((u > 0.5) & (v > 0.0), factor, 1.0) * m.value(u, v))

    cases = (
        (scaled(fs.x, 2.0), nu3, f"base point {at} is not on the upper hyperboloid"),
        (fs.x, scaled(nu3, 1.5), f"normal {at} is not unit spacelike"),
        (fs.x, ParametricMap4(value=lambda u, v: np.where(bad, fs.nu1.value(0.9, 0.9)[:, None, None],
                                                          nu3.value(u, v))),
         f"normal {at} is not orthogonal to x"),
    )
    for x_map, nu_map, message in cases:
        with pytest.raises(PreconditionError, match=re.escape(message)):
            frame_from_normal(x_map, nu_map, fs.domain)
    with pytest.raises(ValueError, match="domain"):
        frame_from_normal(ParametricMap4(value=fs.x.value), ParametricMap4(value=nu3.value))


def test_frame_from_normal_degenerate_angles():
    # unit spacelike, orthogonal to x, and with spatial part along e4 on the
    # line v = 0: the spherical angles have rho = 0 there
    x_map = ParametricMap4(value=lambda u, v: components(np.cosh(u), np.sinh(u), 0.0, 0.0))
    nu_map = ParametricMap4(value=lambda u, v: components(0.0, 0.0, np.sin(v), np.cos(v)))
    nf = frame_from_normal(x_map, nu_map, Domain(-0.5, 0.5, -1.0, 1.0, nu=5, nv=5))
    U, V = nf.domain.mesh()
    for m in (nf.nu1, nf.nu2):
        with pytest.raises(DegenerateAnglesError, match=re.escape("undefined at (-0.5, 0.0)")):
            evaluate(m.value, U, V)
        with pytest.raises(DegenerateAnglesError, match=re.escape("undefined at (0.25, 0.0)")):
            _partial(m, 0, 0.25, 0.0)  # the complex step names the real point
    assert np.all(np.isfinite(frame_at(nf, U[:2], V[:2]).nu1u))  # v < 0 is fine


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_frame_from_normal_rotates_the_built_in_pair(name):
    # the two pairs differ by a rotation theta(u, v): the a/b and f/g rows
    # rotate, c stays and e shifts by the partials of theta
    fs = get_example(name).framed
    nf = frame_from_normal(fs.x, _nu3_map(fs))
    U, V = fs.domain.mesh()
    want = rotated_invariants(invariants_at(fs, U, V), *_rotation_angle(fs, nf))
    got = invariants_at(nf, U, V)
    for k, val in got.as_dict().items():
        assert np.max(np.abs(val - want.as_dict()[k])) <= 1e-10, k


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(ALL_EXAMPLES),
    t=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)
def test_frame_from_normal_depends_only_on_x_and_nu3(name, t):
    # rotating the pair changes nu3 by rounding only; the split magnifies
    # that by its condition number |nu| / rho (rho = |(n2, n3)|), which
    # is 1 on cross_cap and corank_one and reaches ~44 on ruled_B
    fs = get_example(name).framed
    rot = rotate_frame(fs, lambda u, v: t[0] + t[1] * u + t[2] * v)
    dom = dataclasses.replace(fs.domain, nu=7, nv=7)
    U, V = dom.mesh()
    want = frame_at(frame_from_normal(fs.x, _nu3_map(fs), dom), U, V)
    got = frame_at(frame_from_normal(fs.x, _nu3_map(rot), dom), U, V)
    nu = want.nu3
    cond = np.abs(nu).max(axis=0) / np.hypot(nu[1], nu[2])
    for k in ("nu1", "nu2", "nu1u", "nu1v", "nu2u", "nu2v"):
        assert np.all(np.abs(getattr(got, k) - getattr(want, k)).max(axis=0) <= 1e-13 * cond), k


# ---------------------------------------------------------------------------
# reduction tags
# ---------------------------------------------------------------------------


def test_reduction_tags_on_examples():
    cc = get_example("cross_cap").framed
    assert reduction_type(invariants_at(cc, 1.0, 1.0)).tag is ReductionType.FAMILY_U
    assert reduction_type(invariants_at(cc, 0.3, -0.4)).tag is ReductionType.FAMILY_U

    rb = get_example("ruled_B").framed
    for u in np.linspace(-3.0, 3.0, 7):
        for v in (-1.0, -0.5, 0.0, 0.5, 1.0):  # v = 0: every a/b entry vanishes
            assert reduction_type(invariants_at(rb, u, v)).tag is ReductionType.FAMILY_V


def test_reduction_tags_synthetic_fallthrough():
    base = dict(c1=1.0, c2=0.2, e1=0.0, e2=0.0, f1=0.0, f2=0.0, g1=0.0, g2=0.0)
    framed_a = Invariants(a1=0.0, a2=0.0, b1=0.5, b2=0.7, **base)
    assert reduction_type(framed_a).tag is ReductionType.FRAMED_A_ZERO
    framed_b = Invariants(a1=0.5, a2=0.7, b1=0.0, b2=0.0, **base)
    assert reduction_type(framed_b).tag is ReductionType.FRAMED_B_ZERO
    all_zero = Invariants(a1=0.0, a2=0.0, b1=0.0, b2=0.0, **base)
    assert reduction_type(all_zero).tag is ReductionType.FAMILY_V

    rotatable = Invariants(a1=0.3, a2=0.6, b1=0.1, b2=0.2, **base)
    res = reduction_type(rotatable)
    assert res.tag is ReductionType.ROTATABLE_TO_FRAMED
    assert res.theta == pytest.approx(math.atan2(0.3, 0.1))
    # rotating by the reported angle kills the a-row
    rot = rotated_invariants(rotatable, res.theta, 0.0, 0.0)
    assert abs(rot.a1) < 1e-12 and abs(rot.a2) < 1e-12

    generic = Invariants(a1=0.3, a2=0.6, b1=0.1, b2=0.9, **base)
    assert reduction_type(generic).tag is ReductionType.GENERIC


def _sheared_rotated_ruled_b(theta):
    """Ruled surface B reparametrized by (u, v) = (p + q, q), then rotated.

    The shear makes the b-row (b1, b1) with both slots nonzero wherever
    sinh(v) != 0; the pointwise rotation then mixes the rows into two
    proportional nonzero rows, the rotatable-to-framed normal form.
    """
    fs = get_example("ruled_B").framed

    def remap(m):
        return ParametricMap4(
            value=lambda p, q: m.value(p + q, q),
            du=lambda p, q: m.du(p + q, q),
            dv=lambda p, q: m.du(p + q, q) + m.dv(p + q, q),
        )

    # offset so no grid point has sin(0.7 p) = 0 (there the rotated a-row
    # would vanish exactly and the tag would honestly drop to framed_a_zero)
    dom = Domain(-2.99, 3.01, 0.5, 1.0, nu=25, nv=3)
    sheared = FramedSurface(remap(fs.x), remap(fs.nu1), remap(fs.nu2), dom)
    return rotate_frame(sheared, theta)


def test_reduction_grid_unwraps_rotation_angle():
    fs = _sheared_rotated_ruled_b(lambda p, q: 0.7 * p)
    tags, thetas = reduction_type_grid(fs)
    for row in tags:
        assert all(t is ReductionType.ROTATABLE_TO_FRAMED for t in row)
    # the raw angle is only defined mod pi; unwrapped it must be continuous
    jumps = np.max(np.abs(np.diff(thetas, axis=1)))
    assert jumps < math.pi / 2.0
    # and rotating by the reported angle still kills the a-row
    field = invariant_field(fs)
    ug, vg = fs.domain.u_grid(), fs.domain.v_grid()
    for iv in (0, 2):
        for iu in (0, 12, 24):
            rot = rotated_invariants(field(ug[iu], vg[iv]), thetas[iv, iu], 0.0, 0.0)
            assert abs(rot.a1) < 1e-9 and abs(rot.a2) < 1e-9


def test_rotation_leaves_reduction_tags_alone_on_families():
    """A pointwise rotation cannot change a family_v tag: the (a2, b2)
    column transforms among itself."""
    fs = get_example("ruled_A").framed
    fs_rot = rotate_frame(fs, lambda u, v: 0.7 * u)
    for u, v in ((0.0, 0.0), (1.3, -0.8), (-2.1, 0.4)):
        before = reduction_type(invariants_at(fs, u, v)).tag
        after = reduction_type(invariants_at(fs_rot, u, v)).tag
        assert before is after is ReductionType.FAMILY_V


# ---------------------------------------------------------------------------
# one-parameter family relabelling
# ---------------------------------------------------------------------------


def test_family_curvatures_identities():
    cc = get_example("cross_cap").framed
    inv = invariants_at(cc, 1.0, 1.0)
    fam = family_curvatures(inv, "u")
    assert inv.alpha == pytest.approx(-fam.m * fam.Q, abs=1e-12)
    assert inv.beta == pytest.approx(fam.m * fam.P, abs=1e-12)
    assert (fam.m, fam.n, fam.a, fam.b) == (inv.c1, inv.e1, inv.f1, inv.g1)
    assert (fam.P, fam.Q, fam.M) == (inv.a2, inv.b2, inv.c2)

    rb = get_example("ruled_B").framed
    inv = invariants_at(rb, 0.7, 0.4)
    fam = family_curvatures(inv, "v")
    assert inv.alpha == pytest.approx(fam.m * fam.Q, abs=1e-12)
    assert inv.beta == pytest.approx(-fam.m * fam.P, abs=1e-12)
    assert (fam.m, fam.P, fam.Q) == (inv.c2, inv.a1, inv.b1)


def test_family_curvatures_preconditions():
    inv = invariants_at(get_example("cross_cap").framed, 1.0, 1.0)  # a2, b2 != 0
    with pytest.raises(PreconditionError):
        family_curvatures(inv, "v")
    with pytest.raises(ValueError):
        family_curvatures(inv, "w")


# ---------------------------------------------------------------------------
# frame ODE along coordinate lines
# ---------------------------------------------------------------------------


def test_integrate_frame_reaches_closed_form_frame():
    fs = get_example("cross_cap").framed
    field = invariant_field(fs)
    start = frame_at(fs, -0.5, 0.0)
    traj = integrate_frame_along_line(field, start, fixed_v(0.0), span=1.0, step=1e-3)
    want = frame_at(fs, 0.5, 0.0)
    final = traj.final
    for got, ref in zip(final, (want.x, want.nu1, want.nu2, want.nu3)):
        assert np.max(np.abs(got - ref)) < 1e-9
    assert traj.max_gram_drift < 1e-10
    assert traj.t[0] == -0.5 and traj.t[-1] == pytest.approx(0.5, abs=1e-12)


def test_integrate_frame_partial_last_step_and_direction():
    fs = get_example("cross_cap").framed
    field = invariant_field(fs)
    start = frame_at(fs, 0.0, 0.3)
    traj = integrate_frame_along_line(field, start, fixed_u(0.0), span=-0.55, step=0.1)
    # 5 full steps of 0.1 plus a final 0.05, all in the negative direction
    assert traj.t[-1] == pytest.approx(-0.25, abs=1e-12)
    assert len(traj.t) == 7
    want = frame_at(fs, 0.0, -0.25)
    assert np.max(np.abs(traj.final[0] - want.x)) < 1e-6


def test_integrate_frame_calls_field_once():
    fs = get_example("cross_cap").framed
    field = invariant_field(fs)
    shapes = []

    def counting(u, v):
        shapes.append(np.shape(u))
        return field(u, v)

    integrate_frame_along_line(counting, frame_at(fs, 0.0, 0.3), fixed_u(0.0), span=-0.55, step=0.1)
    # one array call on the two Gauss points of each of the 6 steps
    assert shapes == [(6, 2)]


def test_integrate_frame_rejects_bad_step():
    fs = get_example("cross_cap").framed
    start = frame_at(fs, 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate_frame_along_line(invariant_field(fs), start, fixed_v(0.0), 1.0, 0.0)


@pytest.mark.parametrize(
    "norm,rtol",
    [(1e-6, 1e-15), (1e-3, 1e-15), (0.1, 1e-15), (1.0, 1e-12), (3.0, 1e-12), (10.0, 1e-12),
     (30.0, 1e-12)],
)
def test_expm_matches_scipy_on_so13(norm, rtol):
    # scipy is the oracle; Magnus exponents of the usual steps (~1e-3)
    # have 1-norms far below 0.1
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(7)
    m = _frame_ode_matrix(rng.normal(size=(32, 6)))
    m *= (norm / np.abs(m).sum(axis=-2).max(axis=-1))[:, None, None]
    got, want = _expm(m), linalg.expm(m)
    err = np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
    assert err.max() <= rtol
    if norm <= 0.1:  # each factor keeps the Gram matrix to rounding
        gram = np.diag([-1.0, 1.0, 1.0, 1.0])
        assert np.max(np.abs(np.swapaxes(got, -1, -2) @ gram @ got - gram)) <= 1e-15


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_write_invariants_csv_layout_and_roundtrip():
    fs = get_example("cross_cap").framed
    dom = Domain(-0.4, 0.4, -0.2, 0.2, nu=3, nv=2)
    buf = io.StringIO()
    write_invariants_csv(buf, fs, domain=dom)
    lines = buf.getvalue().splitlines()
    assert lines[0] == INVARIANT_CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    # v-major: the first nu rows share v = v_min while u sweeps
    assert [float(r[1]) for r in rows[:3]] == [-0.2, -0.2, -0.2]
    assert [float(r[0]) for r in rows[:3]] == [-0.4, 0.0, 0.4]
    # 17 significant digits round-trip the doubles exactly
    inv = invariants_at(fs, 0.4, 0.2)
    last = rows[-1]
    assert float(last[2]) == inv.a1
    assert float(last[6]) == inv.c1
    assert float(last[14]) == inv.alpha
    assert float(last[15]) == inv.beta


def test_write_invariants_csv_to_path(tmp_path):
    fs = get_example("cross_cap").framed
    dom = Domain(-0.1, 0.1, -0.1, 0.1, nu=2, nv=2)
    target = tmp_path / "inv.csv"
    write_invariants_csv(target, fs, domain=dom)
    text = target.read_text(encoding="utf-8")
    assert text.splitlines()[0] == INVARIANT_CSV_HEADER
    assert len(text.splitlines()) == 5


def test_invariant_partials_one_call_broadcasting_constants():
    # a1 = u^2 v, b1 = u - v, c2 = 1 and the rest constant: alpha = b1,
    # beta = -a1 (c1 = 0)
    calls = []

    def field(u, v):
        calls.append(np.shape(u))
        return Invariants(a1=u * u * v, a2=0.0, b1=u - v, b2=0.0, c1=0.0, c2=1.0,
                          e1=0.5, e2=0.0, f1=0.0, f2=0.0, g1=0.0, g2=0.0)

    u = np.array([[0.3, -0.2, 1.0], [0.0, 0.5, -1.0]])
    v = np.array([[0.1, 0.4, -0.7], [2.0, 0.0, 0.3]])
    q, d = invariant_partials(field, u, v, 1e-5)
    assert calls == [(2, 3, 5)]
    assert q.a1.shape == q.e1.shape == d["c2_u"].shape == (2, 3)
    np.testing.assert_array_equal(q.a1, u * u * v)
    np.testing.assert_allclose(d["a1_u"], 2.0 * u * v, atol=1e-9)
    np.testing.assert_allclose(d["a1_v"], u * u, atol=1e-9)
    np.testing.assert_allclose(d["alpha_v"], -1.0, atol=1e-9)
    np.testing.assert_allclose(d["beta_u"], -2.0 * u * v, atol=1e-9)
    assert not d["e1_u"].any() and not d["c2_v"].any()
    q, d = invariant_partials(field, 0.3, 0.1, 1e-5)  # one point: one call of five
    assert calls[-1] == (5,) and q.a1 == 0.3 * 0.3 * 0.1
