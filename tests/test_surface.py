"""Tests for parametric maps, first partials and domains."""

import math

import numpy as np
import pytest

from h3frames.errors import BoundaryError
from h3frames.surface import (
    Domain,
    ParametricMap4,
    check_on_h3,
    fd_convergence_ratio,
    first_partials,
)


def _poly_map(**kw):
    # Componentwise polynomial, all derivatives known exactly.
    return ParametricMap4(
        value=lambda u, v: np.array([u * u * v, u + v, v * v * v, 2.0 * u * v]),
        du=lambda u, v: np.array([2.0 * u * v, 1.0, 0.0, 2.0 * v]),
        dv=lambda u, v: np.array([u * u, 1.0, 3.0 * v * v, 2.0 * u]),
        **kw,
    )


def _trig_map(**kw):
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
        **kw,
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
    with pytest.raises(ValueError):
        ParametricMap4(value=lambda u, v: np.zeros(4), h1=0.0)
    with pytest.raises(ValueError):
        ParametricMap4(value=lambda u, v: np.zeros(4), h1=math.nan)


def test_first_partials_closed_form_exact():
    m = _poly_map()
    x, xu, xv = first_partials(m, 0.7, -0.3)
    assert np.array_equal(x, m.value(0.7, -0.3))
    assert np.array_equal(xu, m.du(0.7, -0.3))
    assert np.array_equal(xv, m.dv(0.7, -0.3))


def test_fd_mode_boundary_margin():
    d = Domain(0.0, 1.0, 0.0, 1.0)
    m = _trig_map().without_derivatives()
    m = ParametricMap4(value=m.value, domain=d)
    with pytest.raises(BoundaryError):
        first_partials(m, 1e-6, 0.5)
    with pytest.raises(BoundaryError):
        first_partials(m, 0.5, 1.0 - 1e-6)
    # Closed-form mode has no margin requirement.
    mc = _trig_map(domain=d)
    first_partials(mc, 0.0, 0.0)
    # Far enough inside is fine in FD mode too.
    first_partials(m, 0.5, 0.5)


def test_fd_first_order_halving_ratio():
    # Step chosen so truncation dominates rounding; the 2-point stencil is
    # O(h^2), so halving must shrink the error by about 4.
    m = _trig_map(h1=1e-3)
    for (u, v) in [(0.3, -0.4), (1.1, 0.6), (-0.8, 0.2)]:
        r = fd_convergence_ratio(m, u, v, order=1)
        assert 3.5 <= r <= 4.5
    # First partials are the only derivatives a map carries.
    for order in (0, 2):
        with pytest.raises(ValueError):
            fd_convergence_ratio(m, 0.3, -0.4, order=order)


def test_check_on_h3():
    # Hyperboloid slice: x = (cosh u cosh v, sinh u cosh v, sinh v, 0).
    good = ParametricMap4(
        value=lambda u, v: np.array(
            [
                math.cosh(u) * math.cosh(v),
                math.sinh(u) * math.cosh(v),
                math.sinh(v),
                0.0,
            ]
        )
    )
    rep = check_on_h3(good, 0.3, -0.7)
    assert rep.ok(1e-9)
    assert rep.positive_branch

    off = ParametricMap4(value=lambda u, v: np.array([1.0 + u, v, 0.0, 0.0]))
    rep = check_on_h3(off, 0.2, 0.1)
    assert not rep.ok(1e-9)
    assert rep.on_h3_residual > 0.1

    # Lower branch is flagged even though <x,x> = -1.
    lower = ParametricMap4(
        value=lambda u, v: np.array(
            [
                -math.cosh(u) * math.cosh(v),
                math.sinh(u) * math.cosh(v),
                math.sinh(v),
                0.0,
            ]
        )
    )
    assert not check_on_h3(lower, 0.1, 0.1).positive_branch

    with pytest.raises(ValueError):
        check_on_h3(
            ParametricMap4(value=lambda u, v: np.array([1.0, 0.0, 0.0])), 0.0, 0.0
        )
