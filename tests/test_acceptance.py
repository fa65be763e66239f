"""Acceptance gate: numbered end-to-end checks, one PASS/FAIL line each.

Every criterion prints ``[ACCEPT] criterion N (name): PASS|FAIL`` straight
to the terminal (bypassing capture) so a test-log scrape sees the verdicts
in order.  Tolerances are pinned here on purpose; do not loosen them to
make a criterion pass.
"""

import math

import numpy as np
import pytest

from h3frames.examples import example_names, get_example
from h3frames.frames import (
    FramedSurface,
    ReductionType,
    frame_at,
    integrability_residuals,
    integrate_frame_along_line,
    invariant_field,
    reduction_type,
    rotate_frame,
    rotated_invariants,
    verify_framed,
)
from h3frames.horocyclic import (
    build_horocyclic,
    classify_horocyclic,
    integrate_frame_curves,
    invariant_form_classify,
)
from h3frames.minkowski import minkowski_dot4, wedge3
from h3frames.projections import (
    Axis,
    from_poincare,
    lift_from_r31,
    lightcone_residual,
    project_to_r31,
    to_poincare,
    transport_to_disc,
    transport_to_h3,
    verify_disc_framed,
)
from h3frames.singularities import (
    SingularityClass,
    classify_singularity,
    find_singular_points,
    horocyclic_classify_singularity,
)
from h3frames.surface import (
    Domain,
    ParametricMap4,
    components,
    evaluate,
    fd_convergence_ratio,
    first_partials,
)

INVARIANT_NAMES = ("a1", "a2", "b1", "b2", "c1", "c2", "e1", "e2", "f1", "f2", "g1", "g2")

E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0, 0.0])

SEED = 20260815


@pytest.fixture
def gate(request):
    """Run a criterion body and print the verdict uncaptured."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def run(number, name, body):
        ok = False
        try:
            body()
            ok = True
        finally:
            line = f"[ACCEPT] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
            if capman is not None:
                with capman.global_and_fixture_disabled():
                    print("\n" + line, flush=True)
            else:
                print(line, flush=True)

    return run


def _builtin_names():
    return [n for n in example_names() if ":" not in n]


def _grid(dom):
    return [(u, v) for v in dom.v_grid() for u in dom.u_grid()]


def _field_gap(field_a, field_b, dom):
    """Largest gap between two invariant fields over the grid of ``dom``,
    each read in one call."""
    U, V = dom.mesh()
    qa, qb = field_a(U, V), field_b(U, V)
    return max(float(np.max(np.abs(getattr(qa, n) - getattr(qb, n)))) for n in INVARIANT_NAMES)


# ---------------------------------------------------------------------------


def test_criterion_01_cross_cap_oracle(gate):
    def body():
        entry = get_example("cross_cap")
        dom = entry.domain
        assert (dom.nu, dom.nv) == (21, 21)

        field = invariant_field(entry.framed)
        assert _field_gap(field, entry.oracle_invariants, dom) < 1e-8
        U, V = dom.mesh()
        inv, (alpha, beta) = field(U, V), entry.oracle_alpha_beta(U, V)
        worst_ab = max(np.max(np.abs(inv.alpha - alpha)), np.max(np.abs(inv.beta - beta)))
        assert worst_ab < 1e-8

        fd = FramedSurface(
            x=entry.framed.x.without_derivatives(),
            nu1=entry.framed.nu1.without_derivatives(),
            nu2=entry.framed.nu2.without_derivatives(),
        )
        fd_field = invariant_field(fd)
        assert _field_gap(fd_field, entry.oracle_invariants, dom) < 1e-6

    gate(1, "cross cap closed-form oracle", body)


def _ruled_a_roots():
    entry = get_example("ruled_A")
    roots, _ = find_singular_points(entry.framed, entry.domain)
    return entry, [(u, v) for u, v, _ in roots]


def test_criterion_02_ruled_a_locations_and_classes(gate):
    def body():
        entry, pts = _ruled_a_roots()
        assert len(pts) == 2
        period = entry.domain.u_period

        def dist(p, target):
            du = abs(p[0] - target[0])
            du = min(du, period - du)
            return math.hypot(du, p[1] - target[1])

        by_u = sorted(pts, key=lambda p: abs(p[0]))
        assert dist(by_u[0], (0.0, 0.0)) < 1e-8
        assert dist(by_u[1], (math.pi, 0.0)) < 1e-8
        for u, v in pts:
            rep = classify_singularity(entry.framed, u, v)
            assert rep.classification is SingularityClass.CROSS_CAP

    gate(2, "ruled_A singular locations and classes", body)


def test_criterion_02_ruled_a_d_diagnostic_value(gate):
    def body():
        entry, pts = _ruled_a_roots()
        u0, v0 = min(pts, key=lambda p: abs(p[0]))
        rep = classify_singularity(entry.framed, u0, v0)
        assert abs(rep.diagnostics.D) == pytest.approx(156.0 * math.sqrt(3.0) / 25.0, abs=1e-3)

    gate(2, "ruled_A D diagnostic equals 156*sqrt(3)/25", body)


def test_ruled_a_d_diagnostic_regression():
    """Pin D = 156 sqrt(3)/25 at 1e-6, the value derived exactly from the
    defining maps in test_examples.py::test_ruled_a_cross_cap_d_exact_derivation."""
    entry, pts = _ruled_a_roots()
    u0, v0 = min(pts, key=lambda p: abs(p[0]))
    rep = classify_singularity(entry.framed, u0, v0)
    assert abs(rep.diagnostics.D) == pytest.approx(156.0 * math.sqrt(3.0) / 25.0, abs=1e-6)


def test_criterion_03_ruled_b_alpha_beta_reduction(gate):
    def body():
        entry = get_example("ruled_B")
        field = invariant_field(entry.framed)
        worst_beta = 0.0
        worst_alpha = 0.0
        for u, v in _grid(entry.domain):
            q = field(u, v)
            worst_beta = max(worst_beta, abs(q.beta))
            formula = math.sqrt(432.0 * math.sin(u) ** 2 + 75.0) * math.sinh(v) / 5.0
            worst_alpha = max(worst_alpha, abs(q.alpha - formula))
            assert reduction_type(q).tag is ReductionType.FAMILY_V
        assert worst_beta < 1e-10
        assert worst_alpha < 1e-8

    gate(3, "ruled_B alpha/beta and reduction", body)


def test_criterion_04_frame_identities(gate):
    def body():
        for name in _builtin_names():
            entry = get_example(name)
            summary = verify_framed(entry.framed, entry.domain)
            assert summary.max_gram_residual < 1e-10, name
            assert summary.max_offspan_residual < 1e-8, name
            assert summary.max_constraint_residual < 1e-8, name

    gate(4, "frame identities on built-ins", body)


def test_criterion_05_integrability(gate):
    def body():
        for name in _builtin_names():
            entry = get_example(name)
            fs, dom = entry.framed, entry.domain
            assert integrability_residuals(fs, dom, h=1e-5).max_overall < 1e-5, name
            base = integrability_residuals(fs, dom, h=1e-3).max_overall
            half = integrability_residuals(fs, dom, h=5e-4).max_overall
            assert base / half >= 3.5, name

    gate(5, "integrability residuals", body)


def test_criterion_06_rotation_consistency(gate):
    def body():
        entry = get_example("cross_cap")
        fs = entry.framed
        theta = lambda u, v: u + v
        rotated = rotate_frame(fs, theta)
        re_extracted = invariant_field(rotated)
        field = invariant_field(fs)
        dom = Domain(-0.9, 0.9, -0.9, 0.9, nu=11, nv=11)
        worst = 0.0
        worst_sq = 0.0
        for u, v in _grid(dom):
            q = field(u, v)
            algebraic = rotated_invariants(q, theta(u, v), 1.0, 1.0)
            got = re_extracted(u, v)
            worst = max(
                worst,
                max(abs(getattr(algebraic, n) - getattr(got, n)) for n in INVARIANT_NAMES),
            )
            worst_sq = max(
                worst_sq,
                abs(
                    (got.alpha ** 2 + got.beta ** 2) - (q.alpha ** 2 + q.beta ** 2)
                ),
            )
        assert worst < 1e-7
        assert worst_sq < 1e-10

    gate(6, "rotation consistency", body)


def test_criterion_07_ball_round_trips_and_transport(gate):
    def body():
        rng = np.random.default_rng(SEED)
        ys = rng.normal(size=(10_000, 3))
        worst = 0.0
        for y in ys:
            x = np.concatenate(([math.sqrt(1.0 + y @ y)], y))
            back = from_poincare(to_poincare(x))
            worst = max(worst, float(np.max(np.abs(back - x))))
        assert worst < 1e-12

        dirs = rng.normal(size=(10_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = 0.97 * rng.random(10_000) ** (1.0 / 3.0)
        worst = 0.0
        for p in dirs * radii[:, None]:
            back = to_poincare(from_poincare(p))
            worst = max(worst, float(np.max(np.abs(back - p))))
        assert worst < 1e-12

        entry = get_example("cross_cap")
        dfs = transport_to_disc(entry.framed)
        assert verify_disc_framed(dfs, entry.domain).max_off_span < 1e-8

        again = transport_to_disc(transport_to_h3(dfs))
        worst = max(
            float(np.max(np.abs(again.x.value(u, v) - dfs.x.value(u, v))))
            for u, v in _grid(entry.domain)
        )
        assert worst < 1e-10

    gate(7, "ball-model round trips and transport", body)


_AXIS_WINDOWS = {
    Axis.X2: Domain(0.05, 0.3, 0.6, 0.9, nu=7, nv=7),
    Axis.X3: Domain(0.2, 0.5, 0.2, 0.5, nu=7, nv=7),
    Axis.X4: Domain(0.2, 0.5, 0.2, 0.5, nu=7, nv=7),
}


def test_criterion_08_r31_bridge(gate):
    def body():
        fs = get_example("cross_cap").framed
        for axis, window in _AXIS_WINDOWS.items():
            lc = project_to_r31(fs, axis, window)
            assert lightcone_residual(lc) < 1e-8, axis

        def sheet(u, v):
            return components(np.sqrt(2.0 + u * u + v * v), u, v)

        def sheet_du(u, v):
            return components(u / np.sqrt(2.0 + u * u + v * v), 1.0, 0.0)

        def sheet_dv(u, v):
            return components(v / np.sqrt(2.0 + u * u + v * v), 0.0, 1.0)

        xt = ParametricMap4(value=sheet, firsts=lambda u, v: (sheet_du(u, v), sheet_dv(u, v)))
        dom = Domain(0.2, 0.5, 0.2, 0.5, nu=7, nv=7)
        for axis in Axis:
            xm, num = lift_from_r31(xt, axis, domain=dom)
            for u, v in _grid(dom):
                x = xm.value(u, v)
                nu = num.value(u, v)
                _, xu, xv = first_partials(xm, u, v)
                w = wedge3(x, xu, xv)
                assert abs(minkowski_dot4(x, x) + 1.0) < 1e-10
                assert abs(minkowski_dot4(x, nu)) < 1e-10
                assert abs(minkowski_dot4(w, nu)) < 1e-10

    gate(8, "three-space bridge", body)


def _const_h(values):
    return lambda u: components(*values)


def test_criterion_09_horocyclic_suite(gate):
    def body():
        dom = Domain(-1.0, 1.0, -1.2, 1.2, nu=9, nv=9)
        profiles = {
            "horo_flat": _const_h((1, 0, 0.4, 1, 0.3, 0.5)),
            "generalized_horo_cone": lambda u: components(0, 0, 0, 0, np.sin(u) + 2.0, 1),
            "single_vertex": _const_h((0, 0, 0, 0, 0, 1)),
            "two_vertices": _const_h((0, 0, 0, 0, 2, 1)),
            "conical_horosphere": _const_h((0, 0, 0, 0, 1, 0)),
            "generic": _const_h((0.3, 0.7, 0.2, -0.1, 0.5, 0.4)),
        }
        for name, h_funcs in profiles.items():
            data = integrate_frame_curves(h_funcs, E0, E1, E2, -1.0, 1.0)
            fs = build_horocyclic(data, dom)

            worst_h3 = max(
                abs(minkowski_dot4(fs.x.value(u, v), fs.x.value(u, v)) + 1.0)
                for u, v in _grid(dom)
            )
            assert worst_h3 < 1e-12, name

            field = invariant_field(fs)
            worst_bridge = 0.0
            for u in dom.u_grid()[::2]:
                hs = h_funcs(u)
                for v in dom.v_grid()[::2]:
                    q = field(u, v)
                    checks = (
                        (q.c1 + q.g1) - (hs[3] - hs[0]),
                        (q.b1 - v * (q.c1 + q.g1)) - hs[1],
                        (q.a1 - q.e1) - (hs[2] + hs[5]),
                        (q.f1 - v * (q.a1 - q.e1)) - hs[4],
                        ((v * v + 2.0) * q.a1 - v * v * q.e1 - 2.0 * v * q.f1)
                        - 2.0 * hs[2],
                    )
                    worst_bridge = max(worst_bridge, max(abs(c) for c in checks))
            assert worst_bridge < 1e-7, name

            samples = evaluate(h_funcs, dom.u_grid()).T
            assert (
                classify_horocyclic(samples).tag
                is invariant_form_classify(field, dom).tag
            ), name

        # singular sweep: every refined point classified identically both ways
        h_funcs = lambda u: components(0.0, u, 0.5, 0.0, -1.0, 0.0)
        sdom = Domain(-1.0, 1.0, -1.5, 1.5, nu=21, nv=21)
        sfs = build_horocyclic(
            integrate_frame_curves(h_funcs, E0, E1, E2, -1.0, 1.0), sdom
        )
        pts, _ = find_singular_points(sfs, sdom)
        assert pts
        sfield = invariant_field(sfs)
        for u, v, _ in pts:
            generic = classify_singularity(sfs, u, v)
            horo = horocyclic_classify_singularity(sfield, u, v)
            assert generic.classification is horo.classification

    gate(9, "horocyclic suite", body)


def test_criterion_10_frame_integration_uniqueness(gate):
    def body():
        fs = get_example("ruled_B").framed
        start = frame_at(fs, 0.37, -0.5)
        # each line runs through the start frame: u = 0.37 along v, v = -0.5 along u
        for along, end in (("v", (0.37, 0.5)), ("u", (1.37, -0.5))):
            traj = integrate_frame_along_line(invariant_field(fs), start, along, 1.0, 1e-3)
            terminal = frame_at(fs, *end)
            want = np.vstack([terminal.x, terminal.nu1, terminal.nu2, terminal.nu3])
            assert float(np.max(np.abs(traj.final - want))) < 1e-6, along
            assert traj.max_gram_drift < 1e-8, along

    gate(10, "frame integration uniqueness", body)


def test_criterion_11_property_suite(gate):
    def body():
        rng = np.random.default_rng(SEED)
        quads = rng.normal(size=(10_000, 4, 4))
        dets = np.linalg.det(quads)
        worst = 0.0
        for quad, det in zip(quads, dets):
            x, a, b, c = quad
            worst = max(worst, abs(minkowski_dot4(x, wedge3(a, b, c)) - det))
        assert worst < 1e-12

        # the studied steps (1e-3, 5e-4) let truncation dominate rounding
        # in the halving ratio
        smooth = ParametricMap4(
            value=lambda u, v: np.array(
                [math.sin(u + 2.0 * v), u * u * v, math.cos(u), math.exp(0.3 * v)]
            ),
            firsts=lambda u, v: (
                np.array([math.cos(u + 2.0 * v), 2.0 * u * v, -math.sin(u), 0.0]),
                np.array([2.0 * math.cos(u + 2.0 * v), u * u, 0.0, 0.3 * math.exp(0.3 * v)]),
            ),
        )
        for u, v in ((0.3, -0.2), (-0.7, 0.4)):
            assert 3.5 <= fd_convergence_ratio(smooth, u, v) <= 4.5

        entry = get_example("ruled_A")
        rotated = rotate_frame(entry.framed, lambda u, v: 0.7 * u)
        for u, v, _ in find_singular_points(entry.framed, entry.domain)[0]:
            before = classify_singularity(entry.framed, u, v).classification
            after = classify_singularity(rotated, u, v).classification
            assert before is after

    gate(11, "property suite", body)
