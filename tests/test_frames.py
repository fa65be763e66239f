"""Frame evaluation, invariant extraction, transformation laws, reduction
tags, family relabelling, the frame ODE, and the CSV writer."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    frame_at,
    frame_from_normal,
    integrability_residuals,
    integrate_frame_along_line,
    invariant_field,
    invariant_partials,
    invariants_at,
    invariants_grid,
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
from h3frames.projections import transport_to_disc
from h3frames.surface import Domain, ParametricMap4, _complex_step, components, evaluate, first_partials

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
    ex = get_example(name)
    summary = verify_framed(ex.framed, ex.domain)
    assert summary.max_gram_residual < GRAM_TOL
    assert summary.max_offspan_residual < OFFSPAN_TOL
    assert summary.max_constraint_residual < CONSTRAINT_TOL


def test_degenerate_frame_refuses_extraction():
    fs = get_example("cross_cap").framed
    bad_nu2 = ParametricMap4(value=lambda u, v: 1.01 * fs.nu2.value(u, v))
    bad = FramedSurface(x=fs.x, nu1=fs.nu1, nu2=bad_nu2)
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


def test_integrability_residuals_are_the_six_compatibility_equations(monkeypatch):
    # the zero-curvature form written out, one equation per invariant, on
    # invariants and partials that satisfy none of them; in H^3 the
    # e-equation carries a1 b2 - a2 b1 and the f and g equations -beta and
    # alpha, which the zero x-column of R^3 drops
    rng = np.random.default_rng(5)
    q = Invariants(*rng.normal(size=(12, 3, 4)))
    d = {k + i + z: rng.normal(size=(3, 4)) for k in "abcefg" for i in "12" for z in ("_u", "_v")}
    monkeypatch.setattr("h3frames.frames.invariant_partials", lambda field, u, v, h: (q, d))
    ex = get_example("cross_cap")
    want = (
        (d["a1_v"] - q.b1 * q.e2 - q.c1 * q.f2) - (d["a2_u"] - q.b2 * q.e1 - q.c2 * q.f1),
        (d["b1_v"] + q.a1 * q.e2 - q.c1 * q.g2) - (d["b2_u"] + q.a2 * q.e1 - q.c2 * q.g1),
        (d["c1_v"] + q.a1 * q.f2 + q.b1 * q.g2) - (d["c2_u"] + q.a2 * q.f1 + q.b2 * q.g1),
        (d["e1_v"] + q.a1 * q.b2 - q.f1 * q.g2) - (d["e2_u"] + q.a2 * q.b1 - q.f2 * q.g1),
        (d["f1_v"] + q.e1 * q.g2 + q.a1 * q.c2) - (d["f2_u"] + q.e2 * q.g1 + q.a2 * q.c1),
        (d["g1_v"] - q.e1 * q.f2 + q.b1 * q.c2) - (d["g2_u"] - q.e2 * q.f1 + q.b2 * q.c1),
    )
    got = integrability_residuals(ex.framed, ex.domain).r
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-14)
    want = (
        (d["a1_v"] - q.b1 * q.e2 - q.c1 * q.f2) - (d["a2_u"] - q.b2 * q.e1 - q.c2 * q.f1),
        (d["b1_v"] + q.a1 * q.e2 - q.c1 * q.g2) - (d["b2_u"] + q.a2 * q.e1 - q.c2 * q.g1),
        (d["c1_v"] + q.a1 * q.f2 + q.b1 * q.g2) - (d["c2_u"] + q.a2 * q.f1 + q.b2 * q.g1),
        (d["e1_v"] - q.f1 * q.g2) - (d["e2_u"] - q.f2 * q.g1),
        (d["f1_v"] + q.e1 * q.g2) - (d["f2_u"] + q.e2 * q.g1),
        (d["g1_v"] - q.e1 * q.f2) - (d["g2_u"] - q.e2 * q.f1),
    )
    got = integrability_residuals(transport_to_disc(ex.framed), ex.domain).r
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-14)


def test_integrability_residuals_reject_bad_step():
    ex = get_example("cross_cap")
    for h in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"step h must be positive and finite, got h = {h}")):
            integrability_residuals(ex.framed, ex.domain, h=h)


def test_invariant_partials_reject_bad_step():
    # unchecked, a nan step gives nan partials and 0 or inf a RuntimeWarning
    field = invariant_field(get_example("cross_cap").framed)
    for h in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"step h must be positive and finite, got h = {h}")):
            invariant_partials(field, 0.3, 0.4, h)


# ---------------------------------------------------------------------------
# discrete symmetries and rotations
# ---------------------------------------------------------------------------


@given(inv=invariants_strategy, variant=st.sampled_from(list(ReflectVariant)))
def test_reflect_is_an_involution(inv, variant):
    twice = reflect(reflect(inv, variant), variant)
    assert twice == inv  # negation and swapping are exact on floats


def test_reflect_refuses_what_is_not_a_variant():
    # the variant's value is not the variant
    inv = Invariants(*map(float, range(12)))
    with pytest.raises(ValueError, match=re.escape("unknown reflect variant: 'swap'")):
        reflect(inv, "swap")


def test_invariants_row_refuses_an_index_other_than_1_or_2():
    inv = Invariants(*map(float, range(12)))
    assert inv.row(1) == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0) and inv.row(2) == (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)
    with pytest.raises(ValueError, match="^index must be 1 or 2, got 3$"):
        inv.row(3)


@pytest.mark.parametrize("variant", list(ReflectVariant))
def test_reflect_matches_reflected_frame_extraction(variant):
    fs = get_example("cross_cap").framed

    def flip(m, sign):
        if m.has_closed_firsts:
            return ParametricMap4(jet=lambda u, v: tuple(sign * d for d in m.jet(u, v)))
        return ParametricMap4(value=lambda u, v: sign * m.value(u, v))

    if variant is ReflectVariant.NEG_NU1:
        fs2 = FramedSurface(fs.x, flip(fs.nu1, -1.0), fs.nu2)
    elif variant is ReflectVariant.NEG_BOTH:
        fs2 = FramedSurface(fs.x, flip(fs.nu1, -1.0), flip(fs.nu2, -1.0))
    else:
        fs2 = FramedSurface(fs.x, fs.nu2, fs.nu1)

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


def _assert_invariants_close(got, want):
    for k, val in got.as_dict().items():
        assert val == pytest.approx(want.as_dict()[k], abs=1e-12), k


# reflect and rotated_invariants are one O(2) action on the normal pair
@given(inv=invariants_strategy)
def test_negating_both_normals_is_the_rotation_by_pi(inv):
    _assert_invariants_close(reflect(inv, ReflectVariant.NEG_BOTH), rotated_invariants(inv, math.pi, 0.0, 0.0))


@given(inv=invariants_strategy)
def test_negate_then_swap_is_the_rotation_by_minus_half_pi(inv):
    # (nu1, nu2) -> (-nu1, nu2) -> (nu2, -nu1)
    _assert_invariants_close(reflect(reflect(inv, ReflectVariant.NEG_NU1), ReflectVariant.SWAP),
                             rotated_invariants(inv, -math.pi / 2, 0.0, 0.0))


@given(
    inv=invariants_strategy,
    thetas=st.tuples(st.floats(-math.pi, math.pi), finite, finite),
    phis=st.tuples(st.floats(-math.pi, math.pi), finite, finite),
)
def test_rotations_compose_by_summing_angles_and_partials(inv, thetas, phis):
    twice = rotated_invariants(rotated_invariants(inv, *thetas), *phis)
    _assert_invariants_close(twice, rotated_invariants(inv, *(t + p for t, p in zip(thetas, phis))))


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
    # complex step of their values: a rotated frame uses none of the
    # original normals' closed partials, so rotating value-only copies of
    # the normals gives the same frame, bit for bit
    fs = get_example("cross_cap").framed
    theta = lambda u, v: 0.7 + 0.3 * u - 0.2 * v
    rotated = rotate_frame(fs, theta)
    assert not rotated.nu1.has_closed_firsts and not rotated.nu2.has_closed_firsts
    bare = dataclasses.replace(fs, nu1=fs.nu1.without_derivatives(), nu2=fs.nu2.without_derivatives())
    fr = frame_at(rotate_frame(bare, theta), 0.4, 0.2)
    want = frame_at(rotated, 0.4, 0.2)
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

    return ParametricMap4(value=nu3)


def _rotation_angle(fs, other, domain):
    """theta with other.nu1 = cos(theta) fs.nu1 - sin(theta) fs.nu2 over the
    grid of ``domain``, and its partials, from complex steps of cos and sin."""

    def cos_sin(u, v):
        n = evaluate(other.nu1.value, u, v)
        return components(minkowski_dot4(n, evaluate(fs.nu1.value, u, v)),
                          -minkowski_dot4(n, evaluate(fs.nu2.value, u, v)))

    (c, s), (c_u, s_u), (c_v, s_v) = first_partials(ParametricMap4(value=cos_sin), *domain.mesh())
    return np.arctan2(s, c), c * s_u - s * c_u, c * s_v - s * c_v


def test_frame_from_normal_reproduces_normal():
    ex = get_example("cross_cap")
    fs = ex.framed
    nf = frame_from_normal(fs.x, _nu3_map(fs), ex.domain)
    assert nf.x is fs.x
    assert not nf.nu1.has_closed_firsts and not nf.nu2.has_closed_firsts
    U, V = ex.domain.mesh()
    fr = frame_at(nf, U, V)
    assert np.max(fr.gram_residual()) < 1e-12
    assert np.max(np.abs(fr.nu3 - _nu3_map(fs).value(U, V))) < 1e-12
    # one point evaluates as inside the grid
    one = frame_at(nf, U[4, 7], V[4, 7])
    for k in ("nu1", "nu2", "nu1u", "nu1v", "nu2u", "nu2v"):
        assert np.array_equal(getattr(one, k), getattr(fr, k)[:, 4, 7]), k


def test_a_framed_surface_of_five_components_is_refused():
    # a framed surface lives in H^3 (4 components) or R^3 (3)
    five = ParametricMap4(value=lambda u, v: components(1.0, u, v, 0.0, 0.0))
    with pytest.raises(PreconditionError, match=r"maps into R\^4_1 or R\^3, got 5 components$"):
        invariants_at(FramedSurface(five, five, five), 0.3, 0.4)


def test_frame_from_normal_precondition_errors():
    ex = get_example("cross_cap")
    fs = ex.framed
    nu3 = _nu3_map(fs)
    U, V = ex.domain.mesh()
    bad = (U > 0.5) & (V > 0.0)
    k = np.flatnonzero(bad)[0]  # the first bad point, v-major
    at = f"at ({U.flat[k]}, {V.flat[k]})"

    def scaled(m, factor):
        return ParametricMap4(value=lambda u, v: np.where((u > 0.5) & (v > 0.0), factor, 1.0) * m.value(u, v))

    def within(*vecs):  # the refusal's bound at the first bad point: FRAME_TOL held to the vectors' size
        return f" is not within {FRAME_TOL * max(1.0, *(np.dot(w, w) for w in vecs)):.3e}"

    x, nu1 = fs.x.value(U.flat[k], V.flat[k]), fs.nu1.value(0.9, 0.9)
    cases = (
        (scaled(fs.x, 2.0), nu3, f"base point {at} is not on the upper hyperboloid"),
        # |<x,x> + 1| = 5e-9: within FRAME_TOL, but not in H^3 as to_poincare reads it
        (scaled(fs.x, 1 + 2.5e-9), nu3, f"base point {at} is not on the upper hyperboloid"),
        (fs.x, scaled(nu3, 1.5), f"normal {at} is not unit spacelike: <nu,nu> = 2.250000e+00, |<nu,nu> - 1|"
         + within(1.5 * nu3.value(U.flat[k], V.flat[k]))),
        (fs.x, ParametricMap4(value=lambda u, v: np.where(bad, nu1[:, None, None], nu3.value(u, v))),
         f"normal {at} is not orthogonal to x: <x,nu> = {minkowski_dot4(x, nu1):.6e}, |<x,nu>|" + within(x, nu1)),
    )
    for x_map, nu_map, message in cases:
        with pytest.raises(PreconditionError, match=re.escape(message)):
            frame_from_normal(x_map, nu_map, ex.domain)


def test_frame_from_normal_degenerate_angles():
    # unit spacelike, orthogonal to x, and with spatial part along e4 on the
    # line v = 0: the spherical angles have rho = 0 there
    x_map = ParametricMap4(value=lambda u, v: components(np.cosh(u), np.sinh(u), 0.0, 0.0))
    nu_map = ParametricMap4(value=lambda u, v: components(0.0, 0.0, np.sin(v), np.cos(v)))
    dom = Domain(-0.5, 0.5, -1.0, 1.0, nu=5, nv=5)
    nf = frame_from_normal(x_map, nu_map, dom)
    U, V = dom.mesh()
    for m in (nf.nu1, nf.nu2):
        with pytest.raises(DegenerateAnglesError, match=re.escape("undefined at (-0.5, 0.0)")):
            evaluate(m.value, U, V)
        with pytest.raises(DegenerateAnglesError, match=re.escape("undefined at (0.25, 0.0)")):
            _complex_step(m.value, 0, 0.25, 0.0)  # the complex step names the real point
    assert np.all(np.isfinite(frame_at(nf, U[:2], V[:2]).nu1u))  # v < 0 is fine


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_frame_from_normal_rotates_the_built_in_pair(name):
    # the two pairs differ by a rotation theta(u, v): the a/b and f/g rows
    # rotate, c stays and e shifts by the partials of theta
    ex = get_example(name)
    fs = ex.framed
    nf = frame_from_normal(fs.x, _nu3_map(fs), ex.domain)
    U, V = ex.domain.mesh()
    want = rotated_invariants(invariants_at(fs, U, V), *_rotation_angle(fs, nf, ex.domain))
    got = invariants_at(nf, U, V)
    for k, val in got.as_dict().items():
        assert np.max(np.abs(val - want.as_dict()[k])) <= 1e-10, k


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(ALL_EXAMPLES),
    t=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)
@example(name="ruled_B", t=(0.08778110198724454, 0.08778110198724454, 1e-10)).xfail(
    raises=AssertionError,
    reason="nu2u is about -72 at (pi, -1), where the split's condition number is 43.5: it moves by "
           "5.19e-12, over the absolute bound 4.35e-12",
)
def test_frame_from_normal_depends_only_on_x_and_nu3(name, t):
    # rotating the pair changes nu3 by rounding only; the split magnifies
    # that by its condition number |nu| / rho (rho = |(n2, n3)|), which
    # is 1 on cross_cap and corank_one and reaches ~44 on ruled_B
    ex = get_example(name)
    fs = ex.framed
    rot = rotate_frame(fs, lambda u, v: t[0] + t[1] * u + t[2] * v)
    dom = dataclasses.replace(ex.domain, nu=7, nv=7)
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


# offset so no grid point has sin(0.7 p) = 0 (there the rotated a-row
# would vanish exactly and the tag would honestly drop to framed_a_zero)
_SHEARED_WINDOW = Domain(-2.99, 3.01, 0.5, 1.0, nu=25, nv=3)


def _sheared_rotated_ruled_b(theta):
    """Ruled surface B reparametrized by (u, v) = (p + q, q), then rotated.

    The shear makes the b-row (b1, b1) with both slots nonzero wherever
    sinh(v) != 0; the pointwise rotation then mixes the rows into two
    proportional nonzero rows, the rotatable-to-framed normal form.
    """
    fs = get_example("ruled_B").framed

    def remap(m):
        def jet(p, q):
            x, du, dv = m.jet(p + q, q)
            return x, du, du + dv

        return ParametricMap4(jet=jet)

    return rotate_frame(FramedSurface(remap(fs.x), remap(fs.nu1), remap(fs.nu2)), theta)


def test_reduction_grid_unwraps_rotation_angle():
    fs = _sheared_rotated_ruled_b(lambda p, q: 0.7 * p)
    tags, thetas = reduction_type_grid(fs, _SHEARED_WINDOW)
    for row in tags:
        assert all(t is ReductionType.ROTATABLE_TO_FRAMED for t in row)
    # the raw angle is only defined mod pi; unwrapped it must be continuous
    jumps = np.max(np.abs(np.diff(thetas, axis=1)))
    assert jumps < math.pi / 2.0
    # and rotating by the reported angle still kills the a-row
    field = invariant_field(fs)
    ug, vg = _SHEARED_WINDOW.u_grid(), _SHEARED_WINDOW.v_grid()
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
    # each direction refuses with its own row index, and only beyond FRAME_TOL
    inv = Invariants(a1=0.25, a2=-3e-8, b1=-2e-3, b2=0.0, c1=1.0, c2=1.0,
                     e1=0.0, e2=0.0, f1=0.0, f2=0.0, g1=0.0, g2=0.0)
    for direction, message in (
        ("u", "u-family needs a1 = b1 = 0 within 1e-08, got a1 = 2.500e-01, b1 = -2.000e-03"),
        ("v", "v-family needs a2 = b2 = 0 within 1e-08, got a2 = -3.000e-08, b2 = 0.000e+00"),
    ):
        with pytest.raises(PreconditionError) as err:
            family_curvatures(inv, direction)
        assert str(err.value) == message
    assert family_curvatures(dataclasses.replace(inv, a2=1e-8), "v").P == 0.25


def test_family_curvatures_on_grid_invariants():
    # ruled_A is a v-family over its whole window (a2 = b2 = 0 to 9e-16)
    ex = get_example("ruled_A")
    q = invariants_grid(ex.framed, ex.domain)
    fam = family_curvatures(q, "v")
    assert fam.m.shape == fam.P.shape == (ex.domain.nv, ex.domain.nu)
    assert (fam.m, fam.n, fam.a, fam.b) == (q.c2, q.e2, q.f2, q.g2)
    assert (fam.P, fam.Q, fam.M, fam.N, fam.A, fam.B) == (q.a1, q.b1, q.c1, q.e1, q.f1, q.g1)
    np.testing.assert_allclose(q.alpha, fam.m * fam.Q, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(q.beta, -fam.m * fam.P, rtol=0.0, atol=1e-12)
    # a grid is refused at its first failing point (v-major), and a constant
    # component broadcasts against the others
    a1 = np.array([[0.0, 5e-9, 0.0], [0.25, 0.0, -2e-3]])
    inv = Invariants(a1=a1, a2=1.0, b1=0.0, b2=0.0, c1=1.0, c2=1.0,
                     e1=0.0, e2=0.0, f1=0.0, f2=0.0, g1=0.0, g2=0.0)
    with pytest.raises(PreconditionError) as err:
        family_curvatures(inv, "u")
    assert str(err.value) == "u-family needs a1 = b1 = 0 within 1e-08, got a1 = 2.500e-01, b1 = 0.000e+00"
    assert family_curvatures(dataclasses.replace(inv, a1=a1 * 1e-8), "u").P == 1.0


# ---------------------------------------------------------------------------
# frame ODE along coordinate lines
# ---------------------------------------------------------------------------


def test_integrate_frame_reaches_closed_form_frame():
    fs = get_example("cross_cap").framed
    field = invariant_field(fs)
    start = frame_at(fs, -0.5, 0.0)
    traj = integrate_frame_along_line(field, start, "u", span=1.0, step=1e-3)
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
    traj = integrate_frame_along_line(field, start, "v", span=-0.55, step=0.1)
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

    integrate_frame_along_line(counting, frame_at(fs, 0.0, 0.3), "v", span=-0.55, step=0.1)
    # one array call on the two Gauss points of each of the 6 steps
    assert shapes == [(6, 2)]


def test_integrate_frame_rejects_bad_step():
    fs = get_example("cross_cap").framed
    start = frame_at(fs, 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate_frame_along_line(invariant_field(fs), start, "u", 1.0, 0.0)


@pytest.mark.parametrize("along", ["fixed_v", "U", "", None])
def test_integrate_frame_rejects_unknown_direction(along):
    fs = get_example("cross_cap").framed
    with pytest.raises(ValueError, match="along"):
        integrate_frame_along_line(invariant_field(fs), frame_at(fs, 0.0, 0.0), along, 1.0, 0.1)


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
    m = _frame_ode_matrix(rng.normal(size=(32, 6)), curved=True)
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


@pytest.mark.parametrize("name, r", [("cross_cap", 15.0), ("ruled_A", 12.0), ("ruled_A", 15.0)])
def test_boosted_frames_whose_invariants_would_be_wrong_are_refused(name, r):
    # GRAM_DEGENERATE_TOL stays absolute: it bounds the error of the
    # invariants extraction returns, not the rounding of its input.  A boost
    # along x2 leaves (a1, .., c2) unchanged, so any change is error: where
    # the Gram residual passes (cross_cap at r = 12, ruled_A at r = 9) it is
    # at most 1.2e-5 and 7.0e-7 over the grid; unchecked, these three frames
    # return errors of 5.7e-3, 2.8e-4 and 9.5e-2, so they are refused
    entry = get_example(name)
    boost = np.eye(4)
    boost[:2, :2] = [[math.cosh(r), math.sinh(r)], [math.sinh(r), math.cosh(r)]]

    def boosted(m):
        return ParametricMap4(value=lambda u, v: np.tensordot(boost, evaluate(m.value, u, v), axes=1))

    fs = entry.framed
    with pytest.raises(DegenerateFrameError, match="has Gram residual"):
        invariants_grid(FramedSurface(boosted(fs.x), boosted(fs.nu1), boosted(fs.nu2)), entry.domain)
