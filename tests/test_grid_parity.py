"""One evaluation path: a grid sweep gives, bit for bit, what one-point
calls give at each node, and refuses at the same first point (v-major) with
the same message as a loop over the nodes.  The singular-set and horocyclic
pipelines are checked against an invariant field written here that makes
one-point calls, the batched Newton refinement against a run of one seed at
a time written here, and the one-call classification of a scan against a
loop over its roots written here."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from h3frames import singularities
from h3frames.errors import (
    CDegenerateError,
    DegenerateFrameError,
    NonSpacelikeNormalError,
    NotHorocyclicError,
    PreconditionError,
)
from h3frames.examples import get_example
from h3frames.frames import (
    FramedSurface,
    Invariants,
    integrability_residuals,
    invariant_field,
    invariant_partials,
    invariants_at,
    invariants_grid,
    reduction_type_grid,
    rotate_frame,
    verify_framed,
    write_invariants_csv,
)
from h3frames.horocyclic import build_horocyclic, integrate_frame_curves, invariant_form_classify
from h3frames.minkowski import causal_character, minkowski_dot3, wedge3
from h3frames.projections import (
    Axis,
    lift_from_r31,
    project_to_r31,
    transport_to_disc,
)
from h3frames.singularities import (
    H_INVARIANT,
    MAX_NEWTON_ITERS,
    RANK_TOL,
    REFINE_TOL,
    RefinementRecord,
    _alpha_beta,
    _merge_roots,
    _rows,
    classify_singularity,
    find_singular_points,
    reports_to_json,
    singularity_scan,
)
from h3frames.surface import Domain, ParametricMap4, components, evaluate, first_partials

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
    out["rotate_frame"] = rotate_frame(cc, lambda u, v: 0.7 * u - v * v)
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


def _one_point_field(fs):
    """The invariant field of ``fs`` by one-point calls at each point (in
    flat order), stacked: the per-point reference of the array pipeline."""

    def field(u, v):
        u, v = np.broadcast_arrays(u, v)
        pts = [invariants_at(fs, float(a), float(b)) for a, b in zip(u.ravel(), v.ravel())]
        return Invariants(*(np.reshape([getattr(q, k) for q in pts], u.shape) for k in NAMES[:12]))

    return field


def _outcome(call):
    """What a call gives: its result (a report as its class and diagnostics)
    or its error."""
    try:
        rep = call()
    except Exception as exc:
        return type(exc), str(exc)
    if hasattr(rep, "diagnostics"):
        return rep.classification, rep.diagnostics.as_dict()
    return rep


def _one_point_surface(fs):
    """``fs`` with maps that evaluate one point at a time (in flat order),
    stacked: the per-point reference of the classification torus, whose
    points are complex.  Each point goes in as a 1-element array, as one
    point of a grid does."""

    def one_point(fn):
        def at(u, v):
            u, v = np.broadcast_arrays(u, v)
            pts = [evaluate(fn, np.array([a]), np.array([b]))[:, 0] for a, b in zip(u.ravel(), v.ravel())]
            return np.stack(pts, axis=-1).reshape((-1,) + u.shape)

        return at

    def wrap(m):
        if m.has_closed_firsts:
            return ParametricMap4(value=one_point(m.value), du=one_point(m.du), dv=one_point(m.dv))
        return ParametricMap4(value=one_point(m.value))

    return FramedSurface(wrap(fs.x), wrap(fs.nu1), wrap(fs.nu2), fs.domain)


@pytest.mark.parametrize("name, fs", list(_surfaces().items()))
def test_classify_singularity_equals_one_point_calls(name, fs):
    ref = _one_point_surface(fs)
    points = find_singular_points(fs)[:3] + _nodes(_inner(fs.domain, nu=2, nv=2))
    for u, v in points:
        want = _outcome(lambda: classify_singularity(ref, u, v))
        assert _outcome(lambda: classify_singularity(fs, u, v)) == want, (name, u, v)


@pytest.mark.parametrize("name, fs", list(_surfaces().items()))
def test_find_singular_points_equals_one_point_calls(name, fs):
    want = find_singular_points(_one_point_field(fs), fs.domain, full_output=True)
    assert find_singular_points(fs, full_output=True) == want, name


@pytest.mark.parametrize("name", ["horocyclic", "cross_cap"])
def test_invariant_form_classify_equals_one_point_calls(name):
    fs = _surfaces()[name]
    dom = _inner(fs.domain, nu=5, nv=4)
    want = _outcome(lambda: invariant_form_classify(_one_point_field(fs), dom))
    assert _outcome(lambda: invariant_form_classify(invariant_field(fs), dom)) == want
    refused = isinstance(want, tuple) and want[0] is NotHorocyclicError
    assert refused == (name != "horocyclic")


_HORO_CONSTANTS = (("a2", 0.0), ("b2", 0.0), ("c2", -1.0), ("e2", 0.0), ("f2", 0.0), ("g2", 1.0))


def test_not_horocyclic_names_the_first_node_then_its_first_name():
    # off the horocyclic shape at two nodes: a2 at (u0, v2), which comes
    # first u-major; c2 and f2 at (u2, v1), which comes first v-major
    dom = Domain(0.0, 0.3, 0.0, 0.2, nu=4, nv=3)

    def field(u, v):
        at = lambda uu, vv: np.isclose(u, uu) & np.isclose(v, vv)
        bad = np.where(at(0.2, 0.1), 0.5, 0.0)
        return Invariants(
            a1=u, a2=np.where(at(0.0, 0.2), 0.25, 0.0), b1=v, b2=0.0, c1=0.1, c2=-1.0 + bad,
            e1=0.0, e2=0.0, f1=0.0, f2=bad, g1=0.0, g2=1.0,
        )

    def one_point_check():  # the loop over nodes and names, written out
        for u, v in _nodes(dom):
            q = field(u, v)
            for k, c in _HORO_CONSTANTS:
                if abs(getattr(q, k) - c) > 1e-7:
                    return (f"invariant {k} = {float(getattr(q, k)):.6g} at ({u:.6g}, {v:.6g}), "
                            f"expected the horocyclic constant {c}")

    want = one_point_check()
    assert want == "invariant c2 = -0.5 at (0.2, 0.1), expected the horocyclic constant -1.0"
    with pytest.raises(NotHorocyclicError) as exc:
        invariant_form_classify(field, dom)
    assert str(exc.value) == want


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
    rows = _rows(_alpha_beta, field, np.array([0.7, 0.3]), np.array([0.1, 0.1]), 2)
    q = invariants_at(fs, 0.3, 0.1)
    assert np.isnan(rows[0]).all()
    assert rows[1].tolist() == [q.alpha, q.beta]


def _finite_or_none(call):
    try:
        with np.errstate(all="ignore"):
            f = call()
    except (ArithmeticError, ValueError):
        return None
    return f if np.all(np.isfinite(f)) else None


def _reference_newton(field, u0, v0, tol, find_tangent=True):
    """The Newton run of one seed, one point (or one Jacobian stencil) per
    field call: the per-seed reference of the batched refinement."""

    def alpha_beta(p):
        inv = field(p[0], p[1])
        return np.array([inv.alpha, inv.beta])

    def jacobian(p):
        _, d = invariant_partials(field, p[0], p[1], H_INVARIANT)
        return np.array([[d["alpha_u"], d["alpha_v"]], [d["beta_u"], d["beta_v"]]])

    p = np.array([u0, v0])
    f = _finite_or_none(lambda: alpha_beta(p))
    if f is None:
        return RefinementRecord(u0, v0, u0, v0, math.inf, 0, False)
    res = float(np.sum(np.abs(f)))
    iters = 0
    while res >= tol and iters < MAX_NEWTON_ITERS:
        jac = _finite_or_none(lambda: jacobian(p))
        if jac is None:
            break
        # the batched refinement's minimum-norm step, on a batch of one
        step = np.einsum("nij,nj->ni", np.linalg.pinv(jac[None], rcond=RANK_TOL), -f[None])[0]
        if not np.all(np.isfinite(step)):
            break
        lam = 1.0
        for _ in range(25):
            q = p + lam * step
            fq = _finite_or_none(lambda: alpha_beta(q))
            if fq is not None:
                rq = float(np.sum(np.abs(fq)))
                if rq < res:
                    p, f, res = q, fq, rq
                    break
            lam *= 0.5
        else:
            break
        iters += 1
    tangent = None
    jac = _finite_or_none(lambda: jacobian(p)) if res < tol and find_tangent else None
    if jac is not None:
        _, sv, vt = np.linalg.svd(jac)
        if sv[1] <= RANK_TOL * sv[0]:
            tangent = (float(vt[1, 0]), float(vt[1, 1]))
    return RefinementRecord(u0, v0, float(p[0]), float(p[1]), res, iters, res < tol, tangent)


def _per_seed_newton(field, seeds, tol, find_tangent=True):
    return [_reference_newton(field, u, v, tol, find_tangent) for u, v in np.reshape(seeds, (-1, 2)).tolist()]


def _double_zero(u, v):
    # alpha = -(v - 0.125)^2, beta = u - 0.02: Newton converges linearly
    return Invariants(a1=0.0, a2=u - 0.02, b1=0.0, b2=(v - 0.125) * (v - 0.125), c1=1.0, c2=0.0,
                      e1=0.0, e2=0.0, f1=0.1, f2=0.0, g1=-0.2, g2=0.0)


def _refusing_cross_caps():
    """Cross cap fields that refuse every point with u > 0.5: by a nan x,
    and by raising."""
    cc = get_example("cross_cap").framed
    nan_x = _cross_cap_with(x_value=lambda u, v: np.where(u > 0.5, np.nan, cc.x.value(u, v)))

    def raises(u, v):
        if np.any(np.asarray(u) > 0.5):
            raise DegenerateFrameError("refused")
        return invariants_at(cc, u, v)

    return {"nan_x": invariant_field(nan_x), "raises": raises}


def _newton_cases():
    out = {name: (fs, fs.domain) for name, fs in _surfaces().items()}  # ruled_B on its default domain
    out["double_zero"] = (_double_zero, Domain(-1.0, 1.0, -1.0, 1.0, nu=9, nv=9))
    for name, field in _refusing_cross_caps().items():  # the screen grid stays where they evaluate
        out["cross_cap_" + name] = (field, Domain(-0.9, 0.5, -0.9, 0.9, nu=8, nv=9))
    return out


@pytest.mark.parametrize("name, case", list(_newton_cases().items()))
def test_batched_newton_equals_per_seed_runs(name, case, monkeypatch):
    fs, dom = case
    got = find_singular_points(fs, dom, full_output=True)
    assert got[1], name
    monkeypatch.setattr(singularities, "_newton_refine", _per_seed_newton)
    assert got == find_singular_points(fs, dom, full_output=True), name


@pytest.mark.parametrize("name", ["nan_x", "raises"])
def test_batched_newton_refusals_equal_per_seed_runs(name):
    # seeds on both sides of u = 0.5, and two whose Jacobian stencils cross it
    field = _refusing_cross_caps()[name]
    U, V = np.meshgrid(np.linspace(-0.9, 0.9, 10), np.linspace(-0.9, 0.9, 7))
    seeds = np.concatenate([np.stack([U.ravel(), V.ravel()], -1), [(0.5 - 5e-6, 0.2), (0.5 - 5e-6, -0.4)]])
    got = singularities._newton_refine(field, seeds, REFINE_TOL)
    assert got == _per_seed_newton(field, seeds, REFINE_TOL)
    assert sum(r.residual == math.inf for r in got) == 21  # refused at the seed
    assert [r.iterations for r in got if not r.converged and r.residual < math.inf] == [0, 0]


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


def _c_degenerate_cross_cap():
    """The cross cap's invariant field with c1 = c2 = 0 where u > 0.40005."""
    base = invariant_field(get_example("cross_cap").framed)

    def field(u, v):
        q = base(u, v)
        on = np.where(np.real(u) > 0.40005, 0.0, 1.0)
        return dataclasses.replace(q, c1=q.c1 * on, c2=q.c2 * on)

    return field


def test_classify_singularity_refuses_at_the_first_point_it_reads():
    # nu2 stretched where Re u or Re v > 0.305: classifying (0.3, 0.3) reads
    # the centre, which evaluates, and then its torus of radius 0.01, which
    # crosses the stretch; the refusal names the centre, not a torus point
    cc = get_example("cross_cap").framed
    fs = _cross_cap_with(
        nu2_value=lambda u, v: np.where((u.real > 0.305) | (v.real > 0.305), 1.01, 1.0) * cc.nu2.value(u, v)
    )
    want = _outcome(lambda: classify_singularity(_one_point_surface(fs), 0.3, 0.3))
    assert want[0] is DegenerateFrameError
    assert want[1].startswith("frame at (0.3, 0.3) has Gram residual")
    assert _outcome(lambda: classify_singularity(fs, 0.3, 0.3)) == want

    # one call over several points reads every centre, checks c at them,
    # then reads every torus, and refuses at the first point of the first
    # stage that refuses: a torus refusal, as a loop over the points does;
    # a later centre refused by the field, or c-degenerate, before it
    for field, pts, start in (
        (fs, [(0.1, 0.1), (-0.2, 0.0), (0.3, 0.3), (0.2, -0.5)], "frame at (0.3, 0.3) "),
        (fs, [(0.1, 0.1), (0.3, 0.3), (0.5, -0.5)], "frame at (0.5, -0.5) "),
        (_c_degenerate_cross_cap(), [(0.1, 0.1), (-0.2, 0.0), (0.45, 0.0), (0.6, 0.2)],
         "both c-invariants vanish at (0.45, 0.0)"),
    ):
        u, v = np.array(pts).T
        got = _outcome(lambda: classify_singularity(field, u, v))
        assert got[0] in (DegenerateFrameError, CDegenerateError)
        assert got[1].startswith(start)
        if start.startswith("frame at (0.3, 0.3)"):
            assert got == _outcome(lambda: [classify_singularity(field, a, b) for a, b in pts])


# ---------------------------------------------------------------------------
# one classification call per scan
# ---------------------------------------------------------------------------


def _canonicalize_u(u, dom, snap=0.0):
    """Fold a refined u into (u_min, u_min + period] using the declared period.

    A root within ``snap`` of the left seam is the same physical point as
    the right edge when the window spans a whole period; it is re-expressed
    on the right so duplicate pairs like (-pi, 0) / (pi, 0) collapse.
    """
    if dom.u_period is None:
        return u
    period = dom.u_period
    u = dom.u_min + math.fmod(u - dom.u_min, period)
    if u <= dom.u_min:
        u += period
    if u < dom.u_min + snap and u + period <= dom.u_max + snap:
        u += period
    return u


def _reference_merge_roots(records, domain):
    """Root merging by a generator scan of the kept roots for each record:
    the reference of the array comparison of ``_merge_roots``."""
    du, dv = domain.cell()
    dedup_dist = min(du, dv) / 10.0

    def dist(u1, v1, u2, v2):
        d_u = abs(u1 - u2)
        if domain.u_period is not None:
            d_u = min(d_u, domain.u_period - d_u)
        return math.hypot(d_u, v1 - v2)

    roots = []
    for rec in sorted(records, key=lambda r: (r.u, r.v)):
        if not rec.converged:
            continue
        u = _canonicalize_u(rec.u, domain, snap=dedup_dist)
        v = rec.v
        if not domain.contains(u, v, margin=-1e-9):
            continue
        root = next((r for r in roots if dist(u, v, r[0], r[1]) <= dedup_dist), None)
        if root is None:
            roots.append([u, v, rec.iterations])
        else:
            root[2] = min(root[2], rec.iterations)
    return sorted(tuple(r) for r in roots)


def _per_root_scan(fs, domain):
    """singularity_scan with one classify_singularity call per merged root:
    the per-root reference of the one-call scan."""
    _, records = find_singular_points(fs, domain=domain, full_output=True)
    return [classify_singularity(fs, u, v, newton_iters=iters)
            for u, v, iters in _reference_merge_roots(records, domain)]


SCANNED = ("cross_cap", "corank_one", "ruled_A", "ruled_B", "horocyclic")


def _fields(rep):
    return rep.classification, rep.u, rep.v, rep.diagnostics.as_dict()


@pytest.mark.parametrize("name", SCANNED)
def test_broadcast_classifiers_equal_one_point_calls(name):
    # every default root (129 on ruled_B's line), with its Newton
    # iterations, and the nodes of a 2 x 2 grid inside the domain
    fs = _surfaces()[name]
    _, records = find_singular_points(fs, full_output=True)
    pts = _merge_roots(records, fs.domain) + [(u, v, 0) for u, v in _nodes(_inner(fs.domain, nu=2, nv=2))]
    assert len(pts) == {"ruled_A": 6, "ruled_B": 133}.get(name, 5)
    u, v, iters = (np.array(c) for c in zip(*pts))
    got = classify_singularity(fs, u, v, newton_iters=iters)
    want = [classify_singularity(fs, a, b, newton_iters=k) for a, b, k in pts]
    assert [_fields(r) for r in got] == [_fields(r) for r in want]
    assert all(type(r.diagnostics.newton_iters) is int for r in got)
    assert reports_to_json(got) == reports_to_json(want)


@pytest.mark.parametrize("name", SCANNED)
def test_singularity_scan_equals_per_root_scan(name):
    fs = _surfaces()[name]
    dom = fs.domain
    _, records = find_singular_points(fs, full_output=True)
    assert _merge_roots(records, dom) == _reference_merge_roots(records, dom)
    if dom.u_period is not None:  # roots on both sides of the seam u = +-pi
        du = dom.cell()[0]
        us = [r.u for r in records if r.converged]
        assert min(us) < dom.u_min + du and max(us) > dom.u_max - du
    got = singularity_scan(fs)
    assert [_fields(r) for r in got] == [_fields(r) for r in _per_root_scan(fs, dom)]


MERGE_DOMAINS = (
    Domain(-math.pi, math.pi, -1.0, 1.0, nu=41, nv=21, u_period=2 * math.pi),  # one whole period
    Domain(0.0, 3.0, -1.0, 1.0, nu=31, nv=11, u_period=2 * math.pi),  # part of a period
    Domain(-0.5, 0.5, -0.25, 0.75, nu=21, nv=11),
)


@st.composite
def _merge_cases(draw):
    """Newton records around a few anchors, with unconverged runs, copies at
    exactly the merge distance and just past it, copies a period away, and
    anchors at the domain's edges, its -1e-9 margin and the u seam."""
    dom = draw(st.sampled_from(MERGE_DOMAINS))
    du, dv = dom.cell()
    dist = min(du, dv) / 10.0

    def coord(lo, hi):
        if draw(st.booleans()):
            return draw(st.floats(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)))
        edge = draw(st.sampled_from([lo, hi]))
        return edge + draw(st.sampled_from([0.0, -1e-9, 1e-9, -2e-9, 2e-9, -0.5 * dist, 0.5 * dist]))

    points = []
    for _ in range(draw(st.integers(1, 6))):
        u, v = coord(dom.u_min, dom.u_max), coord(dom.v_min, dom.v_max)
        points.append((u, v))
        for _ in range(draw(st.integers(0, 4))):
            r = dist * draw(st.sampled_from([0.0, 0.5, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.5, 2.0]))
            angle = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0)) * math.pi
            shift = draw(st.sampled_from([-1, 0, 0, 1])) * (dom.u_period or 0.0)
            points.append((u + shift + r * math.cos(angle), v + r * math.sin(angle)))
    records = [RefinementRecord(0.0, 0.0, u, v, 0.0, draw(st.integers(0, 50)), draw(st.booleans()) or k == 0)
               for k, (u, v) in enumerate(points)]
    return draw(st.permutations(records)), dom


@settings(max_examples=500, deadline=None)
@given(case=_merge_cases())
# one root kept by the margin past the right seam, one a tenth of a cell
# right of the left seam: within reach only across the seam
@example(case=([RefinementRecord(0.0, 0.0, math.pi + 5e-10, 0.0, 0.0, 3, True),
                RefinementRecord(0.0, 0.0, -math.pi + 0.01 + 2e-10, 0.0, 0.0, 7, True)], MERGE_DOMAINS[0]))
def test_merge_roots_equals_the_record_loop(case):
    records, dom = case
    assert _merge_roots(records, dom) == _reference_merge_roots(records, dom)


@pytest.mark.parametrize("name", ("ruled_B", "horocyclic"))
def test_singularity_scan_merges_once(monkeypatch, name):
    calls = []
    merge = singularities._merge_roots
    monkeypatch.setattr(singularities, "_merge_roots", lambda *a: calls.append(a) or merge(*a))
    reports = singularity_scan(_surfaces()[name])
    assert len(calls) == 1
    assert [(r.u, r.v, r.diagnostics.newton_iters) for r in reports] == merge(*calls[0])


def test_scan_without_roots_makes_no_classification_call(monkeypatch):
    calls = []
    monkeypatch.setattr(singularities, "classify_singularity", lambda *a, **k: calls.append(a))
    fs = get_example("ruled_A").framed  # singular only at (0, 0) and (pi, 0)
    assert singularity_scan(fs, Domain(0.5, 1.4, 0.2, 0.6, nu=7, nv=5)) == []
    assert calls == []
