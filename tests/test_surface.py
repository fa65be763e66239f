"""Tests for parametric maps, first partials and domains."""

import math

import numpy as np
import pytest

from h3frames.surface import (
    Domain,
    ParametricMap4,
    check_on_h3,
    components,
    fd_convergence_ratio,
    first_partials,
)


def _poly_map():
    # Componentwise polynomial, all derivatives known exactly.
    return ParametricMap4(
        value=lambda u, v: np.array([u * u * v, u + v, v * v * v, 2.0 * u * v]),
        du=lambda u, v: np.array([2.0 * u * v, 1.0, 0.0, 2.0 * v]),
        dv=lambda u, v: np.array([u * u, 1.0, 3.0 * v * v, 2.0 * u]),
    )


def _trig_map():
    return ParametricMap4(
        value=lambda u, v: np.array(
            [math.sin(u + 2 * v), math.cos(u - v), math.sin(3 * u) * math.cos(v), u * v]
        ),
        du=lambda u, v: np.array(
            [math.cos(u + 2 * v), -math.sin(u - v), 3 * math.cos(3 * u) * math.cos(v), v]
        ),
        dv=lambda u, v: np.array(
            [2 * math.cos(u + 2 * v), math.sin(u - v), -math.sin(3 * u) * math.sin(v), u]
        ),
    )


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Domain(0.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        Domain(0.0, 1.0, 0.0, 1.0, nu=1)
    with pytest.raises(ValueError):
        Domain(0.0, 1.0, 0.0, 1.0, u_period=-1.0)


def test_domain_grid_and_cell():
    d = Domain(0.0, 1.0, -1.0, 1.0, nu=11, nv=21)
    assert d.u_grid().shape == (11,)
    assert d.v_grid()[0] == -1.0 and d.v_grid()[-1] == 1.0
    du, dv = d.cell()
    assert abs(du - 0.1) < 1e-15 and abs(dv - 0.1) < 1e-15
    assert d.contains(0.5, 0.0)
    assert not d.contains(0.5, 0.999, margin=0.01)
    s = d.shrunk(0.1, 0.2)
    assert (s.u_min, s.u_max, s.v_min, s.v_max) == (0.1, 0.9, -0.8, 0.8)


def test_map_requires_paired_firsts():
    with pytest.raises(ValueError):
        ParametricMap4(value=lambda u, v: np.zeros(4), du=lambda u, v: np.zeros(4))


def test_first_partials_closed_form_exact():
    m = _poly_map()
    x, xu, xv = first_partials(m, 0.7, -0.3)
    assert np.array_equal(x, m.value(0.7, -0.3))
    assert np.array_equal(xu, m.du(0.7, -0.3))
    assert np.array_equal(xv, m.dv(0.7, -0.3))


def test_complex_step_partials_exact_at_the_boundary():
    # A map with a domain and no closed firsts is differentiated exactly
    # on the whole closed domain, corners and edges included: the complex
    # step leaves the domain by nothing.
    d = Domain(0.0, 1.0, 0.0, 1.0)
    m = ParametricMap4(
        value=lambda u, v: components(
            np.sin(u + 2 * v), np.cos(u - v), np.sin(3 * u) * np.cos(v), u * v
        ),
        domain=d,
    )
    exact = _trig_map()
    for u, v in [(0.0, 0.0), (1e-6, 0.5), (0.5, 1.0 - 1e-6), (1.0, 1.0), (0.0, 1.0)]:
        x, xu, xv = first_partials(m, u, v)
        np.testing.assert_allclose(xu, exact.du(u, v), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(xv, exact.dv(u, v), rtol=0.0, atol=1e-15)


def test_fd_first_order_halving_ratio():
    # The studied steps (1e-3, 5e-4) let truncation dominate rounding; the
    # 2-point stencil is O(h^2), so halving must shrink the error by about 4.
    m = _trig_map()
    for (u, v) in [(0.3, -0.4), (1.1, 0.6), (-0.8, 0.2)]:
        r = fd_convergence_ratio(m, u, v)
        assert 3.5 <= r <= 4.5


def test_check_on_h3():
    # Hyperboloid slice: x = (cosh u cosh v, sinh u cosh v, sinh v, 0).
    good = ParametricMap4(
        value=lambda u, v: components(
            np.cosh(u) * np.cosh(v), np.sinh(u) * np.cosh(v), np.sinh(v), 0.0
        )
    )
    rep = check_on_h3(good, 0.3, -0.7)
    assert rep.ok(1e-9)
    assert rep.positive_branch

    off = ParametricMap4(value=lambda u, v: components(1.0 + u, v, 0.0, 0.0))
    rep = check_on_h3(off, 0.2, 0.1)
    assert not rep.ok(1e-9)
    assert rep.on_h3_residual > 0.1

    # Lower branch is flagged even though <x,x> = -1.
    lower = ParametricMap4(
        value=lambda u, v: components(
            -np.cosh(u) * np.cosh(v), np.sinh(u) * np.cosh(v), np.sinh(v), 0.0
        )
    )
    assert not check_on_h3(lower, 0.1, 0.1).positive_branch

    with pytest.raises(ValueError):
        check_on_h3(
            ParametricMap4(value=lambda u, v: np.array([1.0, 0.0, 0.0])), 0.0, 0.0
        )
