import numpy as np
import pytest

import h3frames.frames as frames
import h3frames.minkowski as minkowski
import tracing
from h3frames.examples import get_example


def test_self_time_subtracts_the_union_of_children():
    # 0 root [0, 10]
    # 1   child [1, 3]     2 child [2, 5] overlaps 1    3 child [8, 12] sticks out
    # 4     grandchild [1.5, 2.5] inside 1
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    got = tracing.self_times(start, end, parent)
    # root: children cover [1, 5] and [8, 10]
    assert got.tolist() == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_sequential_children():
    start = [0.0, 0.5, 2.0, 2.25]
    end = [3.0, 1.5, 2.5, 2.5]
    parent = [-1, 0, 0, 2]
    got = tracing.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([1.5, 1.0, 0.25, 0.25])


def test_nearest_owner_skips_other_layers():
    # layers: 0 = owner A, 1 = owner B, 2 = other
    layer = [0, 2, 1, 2, 2]
    parent = [-1, 0, 1, 2, 0]
    got = tracing.nearest_owner(layer, parent, {0, 1})
    assert got.tolist() == [-1, 0, 0, 2, 0]


def test_tracer_sees_calls_through_the_field_lambda_and_restores():
    fs = get_example("cross_cap").framed
    field = frames.invariant_field(fs)
    originals = (frames.invariants_at, frames.minkowski_dot4, minkowski.minkowski_dot4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        field(0.3, -0.2)
        field(0.1, 0.4)
    finally:
        tracer.uninstall()
    assert (frames.invariants_at, frames.minkowski_dot4, minkowski.minkowski_dot4) == originals

    metrics, per_op = tracing.layer_metrics(tracer)
    assert metrics["frames.invariants_at.calls"] == 2
    assert metrics["frames.frame_at.calls"] == 2
    assert metrics["surface.first_partials.calls"] == 6
    assert metrics["minkowski.dot4.calls"] > 0
    assert per_op[0]["frames.invariants_at.calls"] == 2
    for layer in ("frames.invariants_at", "frames.frame_at"):
        assert 0 <= metrics[layer + ".self_s"] <= metrics[layer + ".s"]
    spans = tracer.spans()
    assert np.all(spans["end"] >= spans["start"])


def test_missing_name_is_absent_not_zero():
    probe = tracing.Probe("frames.gone", "h3frames.frames", "no_such_function")
    tracer = tracing.Tracer(probes=(probe,))
    with pytest.warns(UserWarning, match="frames.gone"):
        tracer.install()
    tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer)
    assert not any(k.startswith("frames.gone") for k in metrics)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        50 |         50 | h3frames",
        "import time:       300 |        300 |       scipy.interpolate",
        "import time:        20 |       2000 |   h3frames.horocyclic",
        "import time:        10 |       3000 | h3frames.cli",
    ])
    got = tracing.parse_importtime(text)
    assert got["import.h3frames_s"] == pytest.approx(3050e-6)
    assert got["import.scipy_interpolate_s"] == pytest.approx(300e-6)
