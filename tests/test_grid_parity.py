"""One evaluation path: a grid sweep gives, bit for bit, what one-point
calls give at each node, and refuses at the same first point (v-major) with
the same message as a loop over the nodes."""

import numpy as np
import pytest

from h3frames.errors import (
    BoundaryError,
    DegenerateFrameError,
    NonSpacelikeNormalError,
    PreconditionError,
)
from h3frames.examples import get_example
from h3frames.frames import (
    FramedSurface,
    integrability_residuals,
    invariant_field,
    invariants_at,
    invariants_grid,
    reduction_type_grid,
    rotate_frame,
    verify_framed,
    write_invariants_csv,
)
from h3frames.horocyclic import build_horocyclic, integrate_frame_curves
from h3frames.minkowski import causal_character, minkowski_dot3, wedge3
from h3frames.projections import (
    Axis,
    lift_from_r31,
    project_to_r31,
    transport_to_disc,
)
from h3frames.singularities import (
    _safe_alpha_beta,
    classify_singularity,
    find_singular_points,
    horocyclic_classify_singularity,
)
from h3frames.surface import Domain, ParametricMap4, components, first_partials

NAMES = ("a1", "a2", "b1", "b2", "c1", "c2", "e1", "e2", "f1", "f2", "g1", "g2", "alpha", "beta")


def _nodes(dom):
    """Grid nodes as Python floats, v-major."""
    U, V = dom.mesh()
    return [(float(u), float(v)) for u, v in zip(U.ravel(), V.ravel())]


def _inner(dom, nu=9, nv=7):
    """A grid strictly inside ``dom`` (finite-difference margins hold)."""
    du, dv = 0.05 * (dom.u_max - dom.u_min), 0.05 * (dom.v_max - dom.v_min)
    return Domain(dom.u_min + du, dom.u_max - 2 * du, dom.v_min + dv, dom.v_max - du, nu=nu, nv=nv)


def _horocyclic():
    h = (lambda u: 0.3, lambda u: 0.0, lambda u: 0.2 * u, lambda u: 0.1,
         lambda u: 0.5, lambda u: -0.4)
    e = np.eye(4)
    data = integrate_frame_curves(h, e[0], e[1], e[2], -1.0, 1.0, step=1e-2)
    return build_horocyclic(data, Domain(-0.9, 0.9, -1.2, 1.2, nu=7, nv=5))


def _surfaces():
    out = {name: get_example(name).framed for name in ("cross_cap", "corank_one", "ruled_A", "ruled_B")}
    out["horocyclic"] = _horocyclic()
    cc = out["cross_cap"]
    out["rotate_frame"] = rotate_frame(cc, lambda u, v: 0.7 * u - v * v, lambda u, v: 0.7, lambda u, v: -2.0 * v)
    out["rotate_frame_fd"] = rotate_frame(cc, lambda u, v: np.sin(u + v))
    return out


@pytest.mark.parametrize("name, fs", list(_surfaces().items()))
def test_invariants_grid_equals_one_point_calls(name, fs):
    dom = _inner(fs.domain)
    grid = invariants_grid(fs, dom)
    for k, (u, v) in enumerate(_nodes(dom)):
        one = invariants_at(fs, u, v)
        for key in NAMES:
            assert getattr(one, key) == getattr(grid, key).flat[k], (name, key, u, v)


def _maps_of_transports():
    cc = get_example("cross_cap").framed
    dfs = transport_to_disc(cc)
    out = {"transport_to_disc." + k: getattr(dfs, k) for k in ("xbar", "nubar1", "nubar2")}
    for axis, box in ((Axis.X2, (0.05, 0.3, 0.6, 0.9)), (Axis.X3, (0.2, 0.5, 0.2, 0.5))):
        lc = project_to_r31(cc, axis, Domain(*box, nu=5, nv=5))
        out[f"project_to_r31.{axis.name}.xtilde"] = lc.xtilde
        out[f"project_to_r31.{axis.name}.t"] = lc.t
        x_map, nu_map = lift_from_r31(lc.xtilde, axis, domain=lc.domain)
        out[f"lift_from_r31.{axis.name}.x"] = x_map
        out[f"lift_from_r31.{axis.name}.nu"] = nu_map
    return out


@pytest.mark.parametrize("name, m", list(_maps_of_transports().items()))
def test_transported_maps_equal_one_point_calls(name, m):
    dom = Domain(0.21, 0.29, 0.61, 0.69, nu=4, nv=3) if ".X2." in name else Domain(
        0.22, 0.48, 0.22, 0.48, nu=4, nv=3
    )
    U, V = dom.mesh()
    grid = first_partials(m, U, V)
    for k, (u, v) in enumerate(_nodes(dom)):
        one = first_partials(m, u, v)
        for g, o in zip(grid, one):
            assert np.array_equal(g.reshape(len(o), -1)[:, k], o), (name, u, v)


def _outcome(call):
    try:
        rep = call()
    except Exception as exc:
        return type(exc), str(exc)
    return rep.classification, rep.diagnostics.as_dict()


@pytest.mark.parametrize("name, fs", list(_surfaces().items()))
def test_classify_singularity_equals_one_point_calls(name, fs):
    # a bare invariant field is evaluated one point at a time
    field = invariant_field(fs)
    points = find_singular_points(fs)[:3] + _nodes(_inner(fs.domain, nu=2, nv=2))
    for classify in (classify_singularity, horocyclic_classify_singularity):
        for u, v in points:
            want = _outcome(lambda: classify(field, u, v))
            assert _outcome(lambda: classify(fs, u, v)) == want, (name, classify.__name__, u, v)


# ---------------------------------------------------------------------------
# refusals name the same first point as a loop over the nodes
# ---------------------------------------------------------------------------


def _first_error(points, call, kind):
    for u, v in points:
        try:
            call(u, v)
        except kind as exc:
            return str(exc)
    raise AssertionError("the reference loop raised nothing")


def _cross_cap_with(nu2_value=None, x_value=None):
    cc = get_example("cross_cap").framed
    x = cc.x if x_value is None else ParametricMap4(value=x_value, du=cc.x.du, dv=cc.x.dv)
    nu2 = cc.nu2 if nu2_value is None else ParametricMap4(value=nu2_value)
    return FramedSurface(x, cc.nu1, nu2, Domain(-0.9, 0.9, -0.9, 0.9, nu=5, nv=5))


class _Sink(list):
    write = list.append


def _grid_sweeps(fs):
    return {
        "invariants_grid": lambda: invariants_grid(fs),
        "verify_framed": lambda: verify_framed(fs),
        "write_invariants_csv": lambda: write_invariants_csv(_Sink(), fs),
        "reduction_type_grid": lambda: reduction_type_grid(fs),
    }


@pytest.mark.parametrize("case", ["gram", "non_finite"])
def test_degenerate_frame_grid_names_first_point(case):
    cc = get_example("cross_cap").framed
    if case == "gram":  # nu2 stretched by 1 % where u > 0.2
        fs = _cross_cap_with(nu2_value=lambda u, v: np.where(u > 0.2, 1.01, 1.0) * cc.nu2.value(u, v))
    else:  # x is nan where u > 0.5
        fs = _cross_cap_with(x_value=lambda u, v: np.where(u > 0.5, np.nan, cc.x.value(u, v)))
    want = _first_error(_nodes(fs.domain), lambda u, v: invariants_at(fs, u, v), DegenerateFrameError)
    if case == "gram":
        assert want.startswith("frame at (0.45000000000000007, -0.9) has Gram residual")
    else:
        assert want == "frame at (0.9, -0.9) is not finite"
    for name, sweep in _grid_sweeps(fs).items():
        with pytest.raises(DegenerateFrameError) as exc:
            sweep()
        assert str(exc.value) == want, name

    # the finite-difference stencils of the integrability check run
    # (u, v), (u + h, v), (u - h, v), (u, v + h), (u, v - h) per node
    h = 1e-5
    stencil = [
        (u + du, v + dv)
        for u, v in _nodes(fs.domain)
        for du, dv in ((0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))
    ]
    want = _first_error(stencil, lambda u, v: invariants_at(fs, u, v), DegenerateFrameError)
    with pytest.raises(DegenerateFrameError) as exc:
        integrability_residuals(fs, h=h)
    assert str(exc.value) == want


def test_non_finite_point_is_one_newton_cannot_evaluate():
    cc = get_example("cross_cap").framed
    fs = _cross_cap_with(x_value=lambda u, v: np.where(u > 0.5, np.nan, cc.x.value(u, v)))
    field = lambda u, v: invariants_at(fs, u, v)
    assert _safe_alpha_beta(field, 0.7, 0.1) is None
    assert _safe_alpha_beta(field, 0.3, 0.1) is not None


def test_negative_radicand_refuses_on_both_paths():
    # sqrt of a negative number is nan (numpy), not a math domain error
    cc = get_example("cross_cap").framed
    fs = _cross_cap_with(
        x_value=lambda u, v: components(
            np.sqrt(np.sign(0.3 - u) * (u * u + v * v * v * v + u * u * v * v + 1.0)),
            u, v * v, u * v,
        )
    )
    dom = Domain(0.0, 0.6, 0.0, 0.4, nu=4, nv=3)
    with np.errstate(invalid="ignore"):
        want = _first_error(_nodes(dom), lambda u, v: invariants_at(fs, u, v), DegenerateFrameError)
        with pytest.raises(DegenerateFrameError) as exc:
            invariants_grid(fs, dom)
    assert str(exc.value) == want
    assert want == "frame at (0.39999999999999997, 0.0) is not finite"


def test_boundary_error_grid_names_first_point():
    cc = get_example("cross_cap").framed
    # nu1 by finite differences, valid on [-0.9, 0.5] x [-0.9, 0.9] only
    nu1 = ParametricMap4(value=cc.nu1.value, domain=Domain(-0.9, 0.5, -0.9, 0.9))
    fs = FramedSurface(cc.x, nu1, cc.nu2, Domain(0.0, 0.5, -0.5, 0.5, nu=4, nv=3))
    want = _first_error(_nodes(fs.domain), lambda u, v: invariants_at(fs, u, v), BoundaryError)
    assert "(0.5, -0.5)" in want
    for name, sweep in _grid_sweeps(fs).items():
        with pytest.raises(BoundaryError) as exc:
            sweep()
        assert str(exc.value) == want, name


def _reference_nonspacelike(fs, axis, dom):
    """The per-point precondition loop of project_to_r31, written out."""
    for u, v in _nodes(dom):
        w = np.delete(wedge3(fs.x.value(u, v), fs.nu1.value(u, v), fs.nu2.value(u, v)), axis.index)
        ch = causal_character(w)
        if ch.value != "spacelike":
            msg = (f"projected binormal at ({u:.6g}, {v:.6g}) is {ch.value} "
                   f"(<w,w> = {minkowski_dot3(w, w):.3e}) for axis {axis.name}")
            return msg, u, v, ch
    raise AssertionError("every projected binormal is spacelike")


def test_nonspacelike_error_grid_names_first_point():
    fs = get_example("cross_cap").framed
    dom = Domain(0.05, 0.9, 0.6, 0.9, nu=6, nv=5)
    msg, u, v, ch = _reference_nonspacelike(fs, Axis.X2, dom)
    with pytest.raises(NonSpacelikeNormalError) as exc:
        project_to_r31(fs, Axis.X2, dom)
    assert str(exc.value) == msg
    assert (exc.value.u, exc.value.v, exc.value.character) == (u, v, ch)
    assert (u, v) != _nodes(dom)[0]  # the first offending point is not the first node


def test_lift_precondition_grid_reports_the_loop_minimum():
    xt = ParametricMap4(value=lambda u, v: components(1.0 + u * v, 0.5 * u, v - 0.2))
    dom = Domain(0.0, 1.0, 0.0, 1.0, nu=5, nv=4)
    worst = min(
        float(xt.value(u, v)[0] ** 2 - xt.value(u, v)[1] ** 2 - xt.value(u, v)[2] ** 2)
        for u, v in _nodes(dom)
    )
    with pytest.raises(PreconditionError) as exc:
        lift_from_r31(xt, Axis.X4, domain=dom)
    assert str(exc.value) == (
        f"lift needs x1^2 - x2^2 - x3^2 > 1 on the grid; minimum is {worst:.6e}"
    )


def test_classify_singularity_refuses_at_the_first_point_it_reads():
    # nu2 stretched where u or v > 0.30005: classifying (0.3, 0.3) reads
    # (0.3 + h_phi, 0.3) before (0.3, 0.3 + h_phi), the array of its stencil
    # points holds them the other way round
    cc = get_example("cross_cap").framed
    fs = _cross_cap_with(
        nu2_value=lambda u, v: np.where((u > 0.30005) | (v > 0.30005), 1.01, 1.0) * cc.nu2.value(u, v)
    )
    want = _outcome(lambda: classify_singularity(invariant_field(fs), 0.3, 0.3))
    assert want[0] is DegenerateFrameError
    assert want[1].startswith("frame at (0.3001, 0.3) ")
    assert _outcome(lambda: classify_singularity(fs, 0.3, 0.3)) == want
