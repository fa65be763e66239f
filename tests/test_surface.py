"""Tests for parametric maps, first partials and domains."""

import math

import numpy as np
import pytest

from h3frames.surface import (
    Domain,
    ParametricMap4,
    components,
    fd_convergence_ratio,
    first_partials,
)


def _poly_map():
    # Componentwise polynomial, all derivatives known exactly.
    return ParametricMap4(
        jet=lambda u, v: (
            np.array([u * u * v, u + v, v * v * v, 2.0 * u * v]),
            np.array([2.0 * u * v, 1.0, 0.0, 2.0 * v]),
            np.array([u * u, 1.0, 3.0 * v * v, 2.0 * u]),
        ),
    )


def _trig_map():
    return ParametricMap4(
        jet=lambda u, v: (
            np.array([math.sin(u + 2 * v), math.cos(u - v), math.sin(3 * u) * math.cos(v), u * v]),
            np.array([math.cos(u + 2 * v), -math.sin(u - v), 3 * math.cos(3 * u) * math.cos(v), v]),
            np.array([2 * math.cos(u + 2 * v), math.sin(u - v), -math.sin(3 * u) * math.sin(v), u]),
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
    # a nan period would merge nothing and an infinite one no seam
    for period in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^u_period must be positive and finite, got {period}$"):
            Domain(0.0, 1.0, 0.0, 1.0, u_period=period)


def test_domain_refuses_a_grid_above_the_point_bound():
    # refused on the sizes alone: a Domain allocates nothing
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        Domain(0, 1, 0, 1, nu=2, nv=100_000_000)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        Domain(0, 1, 0, 1, nu=2049, nv=2048)
    Domain(0, 1, 0, 1, nu=2048, nv=2048)


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


def test_a_map_takes_exactly_one_of_value_and_jet():
    m = _poly_map()
    for kwargs in ({}, {"value": m.value, "jet": m.jet}):
        with pytest.raises(TypeError, match="^a ParametricMap4 takes exactly one of value and jet$"):
            ParametricMap4(**kwargs)
    # a jet map's value is its jet's first item
    assert np.array_equal(m.value(0.7, -0.3), m.jet(0.7, -0.3)[0])
    assert m.has_closed_firsts and not m.without_derivatives().has_closed_firsts


def test_first_partials_closed_form_exact():
    m = _poly_map()
    x, xu, xv = first_partials(m, 0.7, -0.3)
    assert np.array_equal(x, m.value(0.7, -0.3))
    assert np.array_equal(xu, m.jet(0.7, -0.3)[1])
    assert np.array_equal(xv, m.jet(0.7, -0.3)[2])


def test_first_partials_makes_one_call_of_a_closed_map():
    calls = []
    m = ParametricMap4(jet=lambda u, v: calls.append((u, v)) or (components(u * v, u), components(v, 1.0),
                                                                   components(u, 0.0)))
    U, V = Domain(0.0, 1.0, 0.0, 1.0, nu=3, nv=2).mesh()
    for point in ((0.7, -0.3), (U, V)):
        calls.clear()
        first_partials(m, *point)
        assert len(calls) == 1


def test_complex_step_partials_exact_at_the_boundary():
    # A map with no closed jet is differentiated exactly on the whole
    # closed window [0, 1]^2, corners and edges included: the complex step
    # leaves the window by nothing.
    m = ParametricMap4(
        value=lambda u, v: components(
            np.sin(u + 2 * v), np.cos(u - v), np.sin(3 * u) * np.cos(v), u * v
        ),
    )
    exact = _trig_map()
    for u, v in [(0.0, 0.0), (1e-6, 0.5), (0.5, 1.0 - 1e-6), (1.0, 1.0), (0.0, 1.0)]:
        x, xu, xv = first_partials(m, u, v)
        _, exact_u, exact_v = exact.jet(u, v)
        np.testing.assert_allclose(xu, exact_u, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(xv, exact_v, rtol=0.0, atol=1e-15)


def test_fd_first_order_halving_ratio():
    # The studied steps (1e-3, 5e-4) let truncation dominate rounding; the
    # 2-point stencil is O(h^2), so halving must shrink the error by about 4.
    m = _trig_map()
    for (u, v) in [(0.3, -0.4), (1.1, 0.6), (-0.8, 0.2)]:
        r = fd_convergence_ratio(m, u, v)
        assert 3.5 <= r <= 4.5


def test_fd_convergence_ratio_needs_closed_firsts_and_is_inf_without_error():
    with pytest.raises(ValueError, match="^need closed-form first partials as reference$"):
        fd_convergence_ratio(_trig_map().without_derivatives(), 0.3, -0.4)
    # a linear map at the origin: both steps' differences are exact, so
    # neither step has an error to reduce
    linear = ParametricMap4(
        jet=lambda u, v: (
            np.array([u, v, u + v, 2.0 * u - v]), np.array([1.0, 0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0, -1.0])
        ),
    )
    assert fd_convergence_ratio(linear, 0.0, 0.0) == math.inf
