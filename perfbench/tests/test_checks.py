"""Each check accepts the program's real output and rejects a wrong one."""

import contextlib
import io

import pytest

import checks
from h3frames import cli
from workloads import Op, window_args


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def _replace_value(text, key, new):
    lines = text.splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if ln.startswith(key + " = "))
    lines[k] = f"{key} = {new}\n"
    return "".join(lines)


def test_invariants_check():
    box = (-0.5, 0.3, -0.2, 0.6)
    op = Op("inv", "invariants",
            ("invariants", "--example", "cross_cap") + window_args(box, (6, 5)),
            {"example": "cross_cap", "box": box, "grid": (6, 5)})
    text = _run(op.argv)
    checks.check(op, text)
    rows = text.splitlines(keepends=True)
    k = next(i for i, ln in enumerate(rows) if ln.startswith("u,v,")) + 1
    cells = rows[k].rstrip("\n").split(",")
    cells[5] = repr(float(cells[5]) + 1e-9)
    bad = "".join(rows[:k] + [",".join(cells) + "\n"] + rows[k + 1:])
    with pytest.raises(checks.CheckError, match="oracle"):
        checks.check(op, bad)
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check(op, "".join(rows[:k] + rows[k + 1:]))


def test_singular_check():
    box = (-0.4, 0.5, -0.45, 0.45)
    op = Op("sing", "singular",
            ("singular", "--example", "cross_cap") + window_args(box, (5, 5)),
            {"example": "cross_cap", "box": box})
    text = _run(op.argv)
    checks.check(op, text)
    with pytest.raises(checks.CheckError, match="expected cross_cap"):
        checks.check(op, _replace_value(text, "classification", "s1_plus"))
    with pytest.raises(checks.CheckError, match="near"):
        checks.check(op, _replace_value(text, "u", "0.001"))


def test_mesh_check_finds_misplaced_marker():
    box = (-0.4, 0.5, -0.45, 0.45)
    op = Op("mesh", "mesh",
            ("mesh", "--example", "cross_cap", "--markers") + window_args(box, (5, 5)),
            {"example": "cross_cap", "box": box, "grid": (5, 5), "markers": ((0.0, 0.0),)})
    text = _run(op.argv)
    checks.check(op, text)
    lines = text.splitlines(keepends=True)
    k = max(i for i, ln in enumerate(lines) if ln.startswith("v "))
    lines[k] = "v 0.001 0 0\n"
    with pytest.raises(checks.CheckError, match="marker"):
        checks.check(op, "".join(lines))


def test_classify_check():
    op = Op("cls", "classify", (), {"class": "horo_cone_two_vertices", "ratio": 2.0})
    good = ("# command = classify\nh_form = horo_cone_two_vertices\n"
            "invariant_form = horo_cone_two_vertices\nagree = true\n"
            "two_vertex_ratio = 2.0000000000000004\n")
    checks.check(op, good)
    with pytest.raises(checks.CheckError, match="ratio"):
        checks.check(op, _replace_value(good, "two_vertex_ratio", "2.001"))
    with pytest.raises(checks.CheckError, match="invariant_form"):
        checks.check(op, _replace_value(good, "invariant_form", "generic"))


def test_library_limits():
    op = Op("lib", "library", (), {})
    good = "".join(f"{k} = 1e-12\n" for k in checks.LIBRARY_LIMITS) + "disc_max_radius = 0.9\n"
    checks.check(op, good)
    with pytest.raises(checks.CheckError, match="lightcone"):
        checks.check(op, _replace_value(good, "lightcone_residual", "1e-7"))
