"""The generator's known answers hold by construction.

Run with ``python3 -m pytest perfbench/tests``.
"""

import math

import numpy as np
import pytest

import workloads as wl
from h3frames.horocyclic import (
    HoroTag,
    classify_horocyclic,
    horocyclic_alpha_beta,
    horocyclic_invariants,
    integrate_frame_curves,
    load_h_profile,
)
from h3frames.singularities import (
    SingularityClass,
    horocyclic_classify_singularity,
)

SEEDS = range(6)
E = np.eye(4)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cls", wl.HORO_CLASSES)
def test_profile_class_is_known(tmp_path, seed, cls):
    rng = np.random.default_rng(seed)
    coeffs, ratio = wl.h_profile(rng, cls)
    path = tmp_path / "p.csv"
    wl.write_profile(path, wl.profile_values(coeffs, (-0.3, 1.7)))
    got = classify_horocyclic(load_h_profile(path).values)
    assert got.tag is HoroTag(cls)
    if ratio is None:
        assert got.two_vertex_ratio is None
    else:
        assert got.two_vertex_ratio == pytest.approx(ratio, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_planted_profile_has_one_cross_cap(tmp_path, seed):
    rng = np.random.default_rng(seed)
    u_range = (-1.1, 0.9)
    coeffs, u0 = wl.planted_profile(rng, u_range)
    path = tmp_path / "q.csv"
    wl.write_profile(path, wl.profile_values(coeffs, u_range))
    prof = load_h_profile(path)
    data = integrate_frame_curves(prof.h_funcs, E[0], E[1], E[2], *u_range)
    ab = horocyclic_alpha_beta(data)

    alpha, beta = ab(u0, 0.0)
    assert abs(alpha) < 1e-12 and abs(beta) < 1e-12
    # alpha = k v vanishes only on v = 0, where beta = s (u - u0).
    for u in np.linspace(*u_range, 41):
        for v in np.linspace(*wl.HORO_V_SPAN, 31):
            if math.hypot(u - u0, v) > 0.05:
                assert max(map(abs, ab(u, v))) > 1e-3
    report = horocyclic_classify_singularity(horocyclic_invariants(data), u0, 0.0)
    assert report.classification is SingularityClass.CROSS_CAP


@pytest.mark.parametrize("seed", SEEDS)
def test_windows_hold_their_point(seed):
    rng = np.random.default_rng(seed)
    box = wl.UNIT_BOX
    for _ in range(20):
        u0, u1, v0, v1 = wl.sub_window(rng, box, (1.4, 1.4), margin=0.05)
        assert box[0] + 0.05 <= u0 < u1 <= box[1] - 0.05
        assert box[2] + 0.05 <= v0 < v1 <= box[3] - 0.05
        wu, wv = 0.9, 0.8
        u0, u1, v0, v1 = wl.window_around(rng, (0.0, 0.0), (wu, wv), box)
        assert u0 + 0.25 * wu - 1e-12 <= 0.0 <= u1 - 0.25 * wu + 1e-12
        assert v0 + 0.25 * wv - 1e-12 <= 0.0 <= v1 - 0.25 * wv + 1e-12
        assert box[0] <= u0 and u1 <= box[1] and box[2] <= v0 and v1 <= box[3]


def test_r31_points_lift():
    pts = wl.r31_points(np.random.default_rng(0), 1000)
    q = pts[:, 0] ** 2 - pts[:, 1] ** 2 - pts[:, 2] ** 2
    assert np.all(q - 1.0 >= 0.05 ** 2 * (1 - 1e-12))


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, workload):
    def inputs(seed):
        d = tmp_path / str(seed)
        d.mkdir(exist_ok=True)
        ops = wl.build(workload, seed, d)
        assert len({op.name for op in ops}) == len(ops)
        argvs = [tuple(x.replace(str(d), "") for x in op.argv) for op in ops]
        return argvs, sorted((f.name, f.read_bytes()) for f in d.iterdir())

    first = inputs(7)
    (tmp_path / "7").rename(tmp_path / "old")
    assert inputs(7) == first
    assert inputs(8) != first
