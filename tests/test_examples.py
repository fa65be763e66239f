"""The built-in example surfaces: defining properties, derivative
consistency, and the closed-form invariant oracles."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h3frames import examples
from h3frames.errors import PreconditionError
from h3frames.examples import (
    corank_one_alpha_beta,
    corank_one_surface,
    cross_cap_oracle,
    cross_cap_surface,
    example_names,
    get_example,
    ruled_a_oracle,
    ruled_a_surface,
    ruled_b_oracle,
    ruled_b_surface,
)
from h3frames.frames import Invariants, frame_at, invariants_at, invariants_grid
from h3frames.minkowski import minkowski_dot4
from h3frames.singularities import classify_singularity
from h3frames.surface import Domain, ParametricMap4, components

CLOSED_VS_STEP_TOL = 1e-13
ORACLE_TOL = 1e-10

GRID_EXAMPLES = ("cross_cap", "corank_one", "ruled_A", "ruled_B")
BOX = Domain(-0.9, 0.9, -0.9, 0.9)  # the default window of cross_cap and corank_one
RULED = Domain(-math.pi, math.pi, -1.0, 1.0)  # and of ruled_A and ruled_B

#: What an invariant oracle gives: the twelve invariants, then (alpha, beta).
_ORACLE_NAMES = tuple(f.name for f in dataclasses.fields(Invariants)) + ("alpha", "beta")


def _sample_points(domain, n=5, margin=0.05):
    us = np.linspace(domain.u_min + margin, domain.u_max - margin, n)
    vs = np.linspace(domain.v_min + margin, domain.v_max - margin, n)
    return [(u, v) for u in us for v in vs]


def _sample_arrays(domain, n):
    """The points of :func:`_sample_points` as two arrays, for one field call."""
    return np.array(_sample_points(domain, n)).T


def _max_gap(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)))


def _complex_step_firsts(value, u, v, h=1e-20):
    """Exact-to-rounding reference partials, Im value(u + ih, v) / h."""
    return value(u + 1j * h, v).imag / h, value(u, v + 1j * h).imag / h


@pytest.mark.parametrize("name", GRID_EXAMPLES)
def test_closed_firsts_match_complex_step(name):
    """Every hand-coded derivative must agree with the complex-step
    derivative of its value, which has no truncation error."""
    ex = get_example(name)
    fs = ex.framed
    for label, m in (("x", fs.x), ("nu1", fs.nu1), ("nu2", fs.nu2)):
        if not m.has_closed_firsts:
            continue
        for u, v in _sample_points(ex.domain):
            du_cs, dv_cs = _complex_step_firsts(m.value, u, v)
            _, du, dv = m.jet(u, v)
            assert np.max(np.abs(du - du_cs)) < CLOSED_VS_STEP_TOL, (
                f"{name}.{label} du mismatch at {(u, v)}"
            )
            assert np.max(np.abs(dv - dv_cs)) < CLOSED_VS_STEP_TOL, (
                f"{name}.{label} dv mismatch at {(u, v)}"
            )


def test_cross_cap_base_point_form():
    fs = cross_cap_surface()
    for u, v in _sample_points(BOX):
        x = fs.x.value(u, v)
        W = u * u + v ** 4 + u * u * v * v + 1.0
        assert np.allclose(x, [math.sqrt(W), u, v * v, u * v], atol=1e-15)
        assert abs(minkowski_dot4(x, x) + 1.0) < 1e-12


@pytest.mark.parametrize("name", ("ruled_A", "ruled_B"))
def test_ruled_generators_are_pseudo_orthonormal(name):
    """x = cosh(v) gamma + sinh(v) delta needs <gamma,gamma> = -1,
    <delta,delta> = 1, <gamma,delta> = 0; the surface then stays on the
    hyperboloid for every v."""
    fs = get_example(name).framed
    for u in np.linspace(-math.pi, math.pi, 17):
        gamma = fs.x.value(u, 0.0)
        # x_v at v = 0 is exactly delta.
        delta = fs.x.jet(u, 0.0)[2]
        assert abs(minkowski_dot4(gamma, gamma) + 1.0) < 1e-12
        assert abs(minkowski_dot4(delta, delta) - 1.0) < 1e-12
        assert abs(minkowski_dot4(gamma, delta)) < 1e-12
        n1 = fs.nu1.value(u, 0.0)
        assert abs(minkowski_dot4(n1, n1) - 1.0) < 1e-12
        assert abs(minkowski_dot4(n1, gamma)) < 1e-12
        assert abs(minkowski_dot4(n1, delta)) < 1e-12


@pytest.mark.parametrize(
    "name,oracle",
    (
        ("cross_cap", cross_cap_oracle),
        ("ruled_A", ruled_a_oracle),
        ("ruled_B", ruled_b_oracle),
    ),
)
def test_extracted_invariants_match_oracle(name, oracle):
    ex = get_example(name)
    u, v = _sample_arrays(ex.domain, n=7)
    got = invariants_at(ex.framed, u, v).as_dict()
    want = oracle(u, v).as_dict()
    for k in got:
        assert _max_gap(got[k], want[k]) <= ORACLE_TOL, f"{name} {k}"


def test_alpha_beta_oracles_match_field():
    for name in GRID_EXAMPLES:
        ex = get_example(name)
        if ex.oracle_alpha_beta is None:
            continue
        u, v = _sample_arrays(ex.domain, n=4)
        inv = invariants_at(ex.framed, u, v)
        alpha, beta = ex.oracle_alpha_beta(u, v)
        assert _max_gap(inv.alpha, alpha) <= ORACLE_TOL, name
        assert _max_gap(inv.beta, beta) <= ORACLE_TOL, name


def test_every_oracle_is_an_invariant_field(tmp_path):
    # Over every registry entry: an oracle broadcasts over an (nv, nu) grid
    # (a component may be a constant), and at complex points it is
    # complex-analytic: its imaginary part over the step is the central
    # difference of its real values, in u and in v.
    from test_singularities import _planted_horocyclic

    h, step = 1e-20, 1e-6
    for name in example_names():
        ex = _planted_horocyclic(tmp_path) if name.startswith("horocyclic:") else get_example(name)
        U, V = ex.domain.shrunk(2 * step, 2 * step).mesh()
        for oracle in (ex.oracle_invariants, ex.oracle_alpha_beta):
            if oracle is None:
                continue

            def parts(u, v):  # every component a grid array, or a constant
                out = oracle(u, v)
                out = [getattr(out, k) for k in _ORACLE_NAMES] if isinstance(out, Invariants) else out
                assert all(np.shape(c) in ((), U.shape) for c in out), name
                return [np.broadcast_to(c, U.shape) for c in out]

            real = parts(U, V)
            assert all(np.isfinite(c).all() and c.dtype.kind == "f" for c in real), name
            for du, dv in ((1, 0), (0, 1)):
                cs = parts(U + 1j * h * du, V + 1j * h * dv)
                fd = zip(parts(U + step * du, V + step * dv), parts(U - step * du, V - step * dv))
                for c, r, (hi, lo) in zip(cs, real, fd):
                    assert _max_gap(c.real, r) <= 1e-13 * (1.0 + np.max(np.abs(r))), name
                    d = (hi - lo) / (2.0 * step)
                    assert _max_gap(c.imag / h, d) <= 1e-6 * (1.0 + np.max(np.abs(d))), name


# Frozen oracle rows.  These literals were produced by the closed forms at
# the time the formulas were verified against independent frame extraction;
# they guard both routes against silent edits.
_FROZEN = {
    ("cross_cap", (0.5, -0.3)): {
        "a1": 0.0,
        "a2": -0.5975846633059372,
        "b1": 0.0,
        "b2": -0.47891314261057566,
        "c1": 0.9263141700254184,
        "c2": -0.10266490163305259,
        "e1": 0.0,
        "e2": -0.04292867236195937,
        "f1": 0.08303267121152375,
        "f2": -0.009202645601358734,
        "g1": 0.0,
        "g2": 1.0340188201966813,
        "alpha": 0.4436240302115802,
        "beta": -0.5535511414101583,
    },
    ("ruled_A", (0.7, 0.4)): {
        "a1": -0.314985323417662,
        "a2": 0.0,
        "b1": -1.585068725307562,
        "b2": 0.0,
        "c1": 0.0,
        "c2": 1.0,
        "e1": 0.0,
        "e2": 0.0,
        "f1": 0.8290200914039489,
        "f2": 0.0,
        "g1": -2.3478592087150667,
        "g2": 0.0,
        "alpha": -1.585068725307562,
        "beta": 0.314985323417662,
    },
    ("ruled_B", (0.7, 0.4)): {
        "a1": 0.0,
        "a2": 0.0,
        "b1": -1.3100026944038974,
        "b2": 0.0,
        "c1": 2.677962637032473,
        "c2": -1.0,
        "e1": 0.7668497623282428,
        "e2": 0.0,
        "f1": 0.0,
        "f2": 0.0,
        "g1": -3.4478385902891957,
        "g2": 0.0,
        "alpha": 1.3100026944038974,
        "beta": 0.0,
    },
}


@pytest.mark.parametrize("key", sorted(_FROZEN, key=str))
def test_frozen_oracle_rows(key):
    name, (u, v) = key
    got = get_example(name).oracle_invariants(u, v).as_dict()
    for k, want in _FROZEN[key].items():
        assert got[k] == pytest.approx(want, abs=1e-14), f"{name} {k}"


def test_default_corank_one_is_the_cross_cap():
    cc = get_example("cross_cap")
    co = get_example("corank_one")
    u, v = _sample_arrays(cc.domain, n=4)
    assert _max_gap(cc.framed.x.value(u, v), co.framed.x.value(u, v)) < 1e-14
    for got, want in zip(cc.oracle_alpha_beta(u, v), co.oracle_alpha_beta(u, v)):
        assert _max_gap(got, want) <= 1e-13


def test_corank_one_invariants_equal_the_cross_cap_oracle():
    # the default corank-one surface is the cross cap, and its normals have
    # no closed jet: complex-step partials make its invariants exact to
    # rounding (central differences missed the oracle by 1.2e-10)
    dom = dataclasses.replace(BOX, nu=31, nv=31)
    got = invariants_grid(get_example("corank_one").framed, dom).as_dict()
    for name, want in cross_cap_oracle(*dom.mesh()).as_dict().items():
        assert _max_gap(got[name], want) < 1e-14, name


def test_corank_one_rejects_nonsingular_origin():
    # f = v: f_v(0,0) != 0, so the origin would not be singular
    fg = ParametricMap4(jet=lambda u, v: (components(v, 0.0), components(0.0, 0.0), components(1.0, 0.0)))
    with pytest.raises(PreconditionError):
        corank_one_surface(fg)


#: f = v^2 + u v, g = u v, with partials (f_u, g_u) = (v, v) and
#: (f_v, g_v) = (2 v + u, u): a corank-one instance that is not the cross cap.
_CUSTOM_CORANK_FG = ParametricMap4(
    jet=lambda u, v: (components(v * v + u * v, u * v), components(v, v), components(2.0 * v + u, u)),
)


def test_corank_one_refuses_a_map_without_closed_firsts():
    # both constructors refuse it when built, not at a first evaluation
    for construct in (corank_one_surface, corank_one_alpha_beta):
        with pytest.raises(PreconditionError, match="closed jet"):
            construct(_CUSTOM_CORANK_FG.without_derivatives())


def _counted(fg, calls):
    """``fg``, appending one entry to ``calls`` at each call."""
    return ParametricMap4(jet=lambda u, v: calls.append("jet") or fg.jet(u, v))


def test_corank_one_grid_frame_reads_the_user_map_7_times():
    # one grid frame_at: x's jet calls fg's jet once, and each normal's
    # value and two complex steps once each: 1 + 2 * 3
    calls = []
    fs = corank_one_surface(_counted(_CUSTOM_CORANK_FG, calls))
    calls.clear()  # the construction's check of f_v and g_v at the origin
    frame_at(fs, *BOX.mesh())
    assert len(calls) == 7


def test_cross_cap_grid_frame_takes_sqrt_w_twice(monkeypatch):
    # once in each jet of x and nu1
    calls = []
    sqrt_w = examples._cc_sqrt_w
    monkeypatch.setattr(examples, "_cc_sqrt_w", lambda u, v: calls.append(1) or sqrt_w(u, v))
    frame_at(cross_cap_surface(), *BOX.mesh())
    assert len(calls) == 2


@pytest.mark.parametrize("surface", [ruled_a_surface, ruled_b_surface])
def test_ruled_grid_frame_takes_w_twice(surface, monkeypatch):
    # once in each of the two curves with w in them: delta_A in x (ruled_A)
    # or nu2 (ruled_B), and nu1
    calls = []
    w = examples._w
    monkeypatch.setattr(examples, "_w", lambda u: calls.append(1) or w(u))
    frame_at(surface(), *RULED.mesh())
    assert len(calls) == 2


def test_corank_one_custom_instance_alpha_beta():
    """f = v^2 + u v, g = u v: alpha/beta closed forms vs extraction."""
    fs = corank_one_surface(_CUSTOM_CORANK_FG)
    ab = corank_one_alpha_beta(_CUSTOM_CORANK_FG)
    u, v = _sample_arrays(BOX, n=4)
    inv = invariants_at(fs, u, v)
    alpha, beta = ab(u, v)
    # e/f/g come through complex-step partials of the normal maps, but
    # alpha/beta only involve a, b, c - closed-form accurate.
    assert _max_gap(inv.alpha, alpha) <= 1e-9
    assert _max_gap(inv.beta, beta) <= 1e-9


def test_corank_one_normals_read_each_user_function_once():
    # one nu1 or nu2 evaluation, at a point or on a grid, makes one jet
    # call of the (f, g) map
    calls = []
    fs = corank_one_surface(_counted(_CUSTOM_CORANK_FG, calls))
    U, V = BOX.mesh()
    for m in (fs.nu1, fs.nu2):
        for point in ((0.3, -0.2), (U, V)):
            calls.clear()
            m.value(*point)
            assert calls == ["jet"], calls


def test_known_singularities_kill_alpha_beta():
    """At every advertised singular point the wedge coefficients vanish."""
    for name in ("cross_cap", "ruled_A"):
        ex = get_example(name)
        assert ex.known_singularities
        for u0, v0, tag in ex.known_singularities:
            alpha, beta = ex.oracle_alpha_beta(u0, v0)
            assert abs(alpha) < 1e-12 and abs(beta) < 1e-12, (name, u0, v0)
            assert tag == "cross_cap"


@functools.cache
def _exact_maps(name):
    """(u, v, x, nu1, nu2) of a built-in example restated in sympy, as
    ``examples.py`` defines the maps.

    cross_cap: x = (sqrt(W), u, v^2, u v) with W = u^2 + v^4 + u^2 v^2 + 1.
    ruled_A and ruled_B: x = cosh v gamma + sinh v delta over the closed
    curve gamma, with w = 144 sin^2 u + 25; ruled_A takes delta = delta_A
    and nu2 = delta_B, ruled_B the two the other way round."""
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v", real=True)
    if name == "cross_cap":
        sW, P, Q = sp.sqrt(u**2 + v**4 + u**2 * v**2 + 1), sp.sqrt(v**4 + 1), sp.sqrt(v**2 + 1)
        x = sp.Matrix([sW, u, v**2, u * v])
        return u, v, x, sp.Matrix([v**2 * sW / P, u * v**2 / P, P, u * v**3 / P]), sp.Matrix([0, v / Q, 0, -1 / Q])
    s3 = sp.sqrt(3)
    w = 144 * sp.sin(u) ** 2 + 25
    gamma = sp.Matrix(
        [
            sp.Rational(13, 5),
            (9 * sp.cos(u) - 3 * sp.cos(3 * u)) / 5,
            (9 * sp.sin(u) - 3 * sp.sin(3 * u)) / 5,
            6 * s3 * sp.cos(u) / 5,
        ]
    )
    delta_a = sp.Matrix(
        [
            -156 * sp.sin(u),
            -97 * sp.sin(2 * u) + 18 * sp.sin(4 * u),
            -50 * sp.sin(u) ** 2 - 144 * sp.sin(u) ** 4 + 25,
            -36 * s3 * sp.sin(2 * u),
        ]
    ) / (5 * sp.sqrt(w))
    nu1 = sp.Matrix(
        [24 * sp.cos(u), 13 * sp.cos(2 * u), 13 * sp.sin(2 * u), 13 * s3]
    ) / (2 * sp.sqrt(w))
    delta_b = sp.Matrix([0, -s3 / 2 * sp.cos(2 * u), -s3 / 2 * sp.sin(2 * u), sp.Rational(1, 2)])
    delta, nu2 = (delta_a, delta_b) if name == "ruled_A" else (delta_b, delta_a)
    return u, v, sp.cosh(v) * gamma + sp.sinh(v) * delta, nu1, nu2


def _dot(a, b):
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _derive(u, v, x, nu1, nu2):
    """The twelve invariants and (alpha, beta) of the framed surface with
    the sympy maps (x, nu1, nu2) over (u, v), derived exactly and
    lambdified to mpmath, in ``_ORACLE_NAMES`` order.

    The invariants follow their definitions in ``frames.py``: x_u = a1 nu1
    + b1 nu2 + c1 nu3, nu1_u = a1 x + e1 nu2 + f1 nu3, nu2_u = b1 x - e1 nu1
    + g1 nu3 (index 2 for v), with nu3 = x ^ nu1 ^ nu2, i.e. <y, nu3> =
    det(y, x, nu1, nu2), taken by Laplace expansion; alpha = b1 c2 - b2 c1
    and beta = c1 a2 - c2 a1.  Nothing is simplified."""
    sp = pytest.importorskip("sympy")

    def dot3(y):  # <y, nu3>
        return sp.Matrix.hstack(y, x, nu1, nu2).det(method="laplace")

    q = {}
    for k, s in ((1, u), (2, v)):
        xs, n1s, n2s = x.diff(s), nu1.diff(s), nu2.diff(s)
        q |= {f"a{k}": _dot(xs, nu1), f"b{k}": _dot(xs, nu2), f"c{k}": dot3(xs),
              f"e{k}": _dot(n1s, nu2), f"f{k}": dot3(n1s), f"g{k}": dot3(n2s)}
    q["alpha"], q["beta"] = q["b1"] * q["c2"] - q["b2"] * q["c1"], q["c1"] * q["a2"] - q["c2"] * q["a1"]
    return sp.lambdify((u, v), [q[n] for n in _ORACLE_NAMES], "mpmath")


@functools.cache
def _derived(name):
    return _derive(*_exact_maps(name))


def _assert_oracles_match_derivation(name, u, v):
    # both oracles of the entry, to 1e-14 of the largest derived value
    mpmath = pytest.importorskip("mpmath")
    ex = get_example(name)
    with mpmath.workdps(40):
        want = [float(e) for e in _derived(name)(mpmath.mpf(u), mpmath.mpf(v))]
    got = [*dataclasses.astuple(ex.oracle_invariants(u, v)), *ex.oracle_alpha_beta(u, v)]
    scale = 1.0 + max(abs(w) for w in want)
    for n, g, w in zip(_ORACLE_NAMES, got, want):
        assert abs(g - w) <= 1e-14 * scale, (name, n, u, v, g, w)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(u=st.floats(BOX.u_min, BOX.u_max), v=st.floats(BOX.v_min, BOX.v_max))
def test_cross_cap_oracles_match_exact_derivation(u, v):
    _assert_oracles_match_derivation("cross_cap", u, v)


@pytest.mark.parametrize("name", ("ruled_A", "ruled_B"))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(u=st.floats(RULED.u_min, RULED.u_max), v=st.floats(RULED.v_min, RULED.v_max))
def test_ruled_oracles_match_exact_derivation(name, u, v):
    _assert_oracles_match_derivation(name, u, v)


@functools.cache
def _custom_corank_one_derived():
    """The custom corank-one instance (f = v^2 + u v, g = u v) restated in
    sympy as ``examples.py`` defines it, lambdified to mpmath: a function
    of (u, v) giving x, nu1, nu2 (each a 4-vector) and (alpha, beta).

    x = (sqrt(S), u, f, g) with S = u^2 + f^2 + g^2 + 1; nu2 = bar2 /
    sqrt(Q) with bar2 = (u g_u - g) x + (0, g_u, 0, -1) and Q = (g -
    u g_u)^2 + g_u^2 + 1; nu1 = sqrt(Q) / sqrt(p) (bar1 - k bar2) with
    bar1 = ((f - u f_u) sqrt(S), u f - (1 + u^2) f_u, 1 + f^2 - u f f_u,
    f g - u g f_u), k Q = -(g f + g_u f_u) + u (g_u f + g f_u) - u^2 f_u
    g_u and p = (f - u f_u)^2 + (g - u g_u)^2 + (f_u g - g_u f)^2 + f_u^2
    + g_u^2 + 1.  (alpha, beta) follow the definitions of :func:`_derive`
    and need only a, b and c, so only x is differentiated."""
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v", real=True)
    f, g = v**2 + u * v, u * v
    f_u, g_u = f.diff(u), g.diff(u)
    sS = sp.sqrt(u**2 + f**2 + g**2 + 1)
    x = sp.Matrix([sS, u, f, g])
    Q = (g - u * g_u) ** 2 + g_u**2 + 1
    p = (f - u * f_u) ** 2 + (g - u * g_u) ** 2 + (f_u * g - g_u * f) ** 2 + f_u**2 + g_u**2 + 1
    bar2 = (u * g_u - g) * x + sp.Matrix([0, g_u, 0, -1])
    bar1 = sp.Matrix([(f - u * f_u) * sS, u * f - (1 + u**2) * f_u, 1 + f**2 - u * f * f_u, f * g - u * g * f_u])
    k = (-(g * f + g_u * f_u) + u * (g_u * f + g * f_u) - u**2 * f_u * g_u) / Q
    nu1, nu2 = sp.sqrt(Q) / sp.sqrt(p) * (bar1 - k * bar2), bar2 / sp.sqrt(Q)
    q = {}
    for n, s in ((1, u), (2, v)):
        xs = x.diff(s)
        q[f"a{n}"], q[f"b{n}"] = _dot(xs, nu1), _dot(xs, nu2)
        q[f"c{n}"] = sp.Matrix.hstack(xs, x, nu1, nu2).det(method="laplace")  # <x_s, nu3>
    ab = [q["b1"] * q["c2"] - q["b2"] * q["c1"], q["c1"] * q["a2"] - q["c2"] * q["a1"]]
    return sp.lambdify((u, v), [list(x), list(nu1), list(nu2), ab], "mpmath")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(u=st.floats(BOX.u_min, BOX.u_max), v=st.floats(BOX.v_min, BOX.v_max))
def test_corank_one_alpha_beta_matches_exact_derivation(u, v):
    # the restated maps are a frame and are the program's maps, and the
    # closed-form (alpha, beta) is theirs, to 1e-14 of the largest value
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x, nu1, nu2, ab = _custom_corank_one_derived()(mpmath.mpf(u), mpmath.mpf(v))
        for a, b, want in ((x, x, -1), (nu1, nu1, 1), (nu2, nu2, 1), (x, nu1, 0), (x, nu2, 0), (nu1, nu2, 0)):
            assert abs(_dot(a, b) - want) < 1e-30
        maps = [float(e) for m in (x, nu1, nu2) for e in m]
        want = [float(e) for e in ab]
    fs = corank_one_surface(_CUSTOM_CORANK_FG)
    got = np.concatenate([m.value(u, v) for m in (fs.x, fs.nu1, fs.nu2)])
    assert _max_gap(got, maps) <= 1e-14 * (1.0 + max(map(abs, maps)))
    got = corank_one_alpha_beta(_CUSTOM_CORANK_FG)(u, v)
    scale = 1.0 + max(map(abs, want))
    for n, g, w in zip(("alpha", "beta"), got, want):
        assert abs(g - w) <= 1e-14 * scale, (n, u, v, g, w)


def test_ruled_a_cross_cap_d_exact_derivation():
    """D at the two ruled_A cross caps, derived exactly from the maps.

    gamma, delta_A, nu1 and nu2 = delta_B are restated in sympy
    (:func:`_exact_maps`).  The invariants follow their definitions in ``frames.py``: a1 = <x_u, nu1>,
    b1 = <x_u, nu2>, (a2, b2) likewise with x_v, and c = <x_{u,v}, nu3>
    with nu3 = x ^ nu1 ^ nu2, i.e. <y, nu3> = det(y, x, nu1, nu2).  D is
    the determinant pairing of ``singularities.py``.  At (0, 0) and
    (pi, 0) this gives c = (0, 1),
    (a1_u, a1_v, b1_u, b1_v) = (0, -13/5, -+12 sqrt(3)/5, sqrt(3)) and
    D = +-156 sqrt(3)/25.  Only values at the two points are simplified,
    never the general expressions, which keeps this to about a second.
    """
    sp = pytest.importorskip("sympy")
    s3 = sp.sqrt(3)
    u, v, x, nu1, nu2 = _exact_maps("ruled_A")
    xu, xv = x.diff(u), x.diff(v)
    rows = {"a1": _dot(xu, nu1), "a2": _dot(xv, nu1), "b1": _dot(xu, nu2), "b2": _dot(xv, nu2)}
    fs = get_example("ruled_A").framed
    for u0, sign in ((0, 1), (sp.pi, -1)):
        at = {u: u0, v: 0}

        def exact(e):
            return sp.simplify(e.subs(at))

        X, Xu, Xv, N1, N2 = (m.subs(at) for m in (x, xu, xv, nu1, nu2))
        # The symbolic maps are the program's maps.
        for sym, field in ((X, fs.x), (N1, fs.nu1), (N2, fs.nu2)):
            got = field.value(float(u0), 0.0)
            assert np.allclose([float(e) for e in sym], got, rtol=0.0, atol=1e-12)
        # {x, nu1, nu2} is pseudo-orthonormal, and x_v is a unit vector
        # orthogonal to all three, so x_v = +-nu3.
        frame = (X, N1, N2, Xv)
        for i, p in enumerate(frame):
            for j, q in enumerate(frame[i:], start=i):
                want = (-1 if i == 0 else 1) if i == j else 0
                assert exact(_dot(p, q)) == want, (u0, i, j)

        c = tuple(exact(sp.Matrix.hstack(y, X, N1, N2).T.det()) for y in (Xu, Xv))
        assert c == (0, 1)
        for name, e in rows.items():
            assert exact(e) == 0, (u0, name)  # corank one at the point
        d = {f"{n}_{s}": exact(e.diff(s)) for n, e in rows.items() for s in (u, v)}
        want = {
            "a1_u": 0, "a1_v": sp.Rational(-13, 5), "a2_u": 0, "a2_v": 0,
            "b1_u": -sign * 12 * s3 / 5, "b1_v": s3, "b2_u": 0, "b2_v": 0,
        }
        for k in want:
            assert sp.simplify(d[k] - want[k]) == 0, (u0, k, d[k])

        def det_c(n, s):
            return d[f"{n}1_{s}"] * c[1] - d[f"{n}2_{s}"] * c[0]

        D = det_c("b", "u") * det_c("a", "v") - det_c("b", "v") * det_c("a", "u")
        assert sp.simplify(D - sign * 156 * s3 / 25) == 0

        rep = classify_singularity(fs, float(u0), 0.0)
        assert rep.diagnostics.D == pytest.approx(float(D), abs=1e-6)
        assert rep.diagnostics.c_pair == pytest.approx((0.0, 1.0), abs=1e-6)


def test_ruled_b_singular_along_v_zero():
    ex = get_example("ruled_B")
    for u in np.linspace(-3.0, 3.0, 13):
        alpha, beta = ex.oracle_alpha_beta(u, 0.0)
        assert abs(alpha) < 1e-12 and abs(beta) < 1e-12
    # ... and nowhere off that line
    alpha, beta = ex.oracle_alpha_beta(0.3, 0.5)
    assert math.hypot(alpha, beta) > 1e-3


def test_registry_names_and_unknown():
    names = example_names()
    for required in ("cross_cap", "corank_one", "ruled_A", "ruled_B"):
        assert required in names
    with pytest.raises(KeyError):
        get_example("moebius_band")


def test_registry_names_are_the_entries_it_builds():
    # one table gives the names and the entries; a horocyclic name is a pattern
    names = example_names()
    assert names[-1] == "horocyclic:<profile.csv>"
    for name in names[:-1]:
        entry = get_example(name)
        assert entry.name == name and isinstance(entry.domain, Domain)
    assert get_example("ruled_A").domain.u_period == 2.0 * math.pi
    assert get_example("corank_one").domain == get_example("cross_cap").domain == BOX
