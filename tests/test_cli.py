"""End-to-end checks of the command-line front door."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h3frames
from h3frames import frames
from h3frames.cli import main
from h3frames.examples import get_example
from h3frames.projections import to_poincare
from h3frames.singularities import singularity_scan

ALPHA_COL = 14  # u,v,a1..g2,alpha,beta
BETA_COL = 15


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _data_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # importing scipy.interpolate would cost most of a run's start-up; no
    # code path, the horocyclic splines and frame exponentials included,
    # loads scipy
    prof = tmp_path / "prof.csv"
    _write_profile(prof, (0.3, 0.7, 0.2, -0.1, 0.5, 0.4))
    src = str(Path(h3frames.__file__).resolve().parents[1])
    code = (
        "import sys, h3frames.cli; "
        f"assert h3frames.cli.main(['classify', '--profile', {str(prof)!r}]) == 0; "
        "assert h3frames.cli.main(['singular', '--example', "
        f"{'horocyclic:' + str(prof)!r}, '--grid', '5', '5']) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "[]"


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_grid_row_count(capsys):
    code, out, _ = _run(capsys, ["invariants", "--example", "cross_cap", "--grid", "21", "21"])
    assert code == 0
    rows = _data_lines(out)
    assert rows[0].startswith("u,v,a1")
    assert len(rows) == 1 + 441  # header + 21*21


def test_invariants_alpha_zero_at_origin(capsys):
    # 3-point grids hit u = v = 0 exactly (odd default grids only get to ~1e-16)
    code, out, _ = _run(capsys, ["invariants", "--example", "cross_cap",
                                 "--grid", "3", "3"])
    assert code == 0
    for row in _data_lines(out)[1:]:
        cells = row.split(",")
        if float(cells[0]) == 0.0 and float(cells[1]) == 0.0:
            assert cells[ALPHA_COL] == "0"
            break
    else:
        pytest.fail("grid did not contain the origin")


def test_invariants_residual_footer(capsys):
    code, out, _ = _run(capsys, ["invariants", "--example", "ruled_B", "--grid", "7", "7"])
    assert code == 0
    footer = out.splitlines()[-1]
    assert footer.startswith("# residuals: ")
    values = [float(m) for m in re.findall(r"= ([-0-9.e+]+)", footer)]
    assert len(values) == 3
    assert max(values) < 1e-8


def test_invariants_embeds_resolved_config(capsys):
    code, out, _ = _run(capsys, ["invariants", "--example", "cross_cap", "--grid", "3", "3"])
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("# ")]
    keys = {l.split(" = ")[0][2:] for l in header}
    for want in ("command", "example", "u_min", "u_max", "v_min", "v_max",
                 "nu", "nv", "frame_tol", "singular_tol", "classify_tol",
                 "h1", "h2", "output", "tool_version"):
        assert want in keys
    assert "# nu = 3" in header and "# nv = 3" in header


def test_byte_identical_reruns(tmp_path, capsys):
    target = tmp_path / "run.csv"
    argv = ["invariants", "--example", "cross_cap", "--grid", "5", "5",
            "--output", str(target)]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    capsys.readouterr()


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nexample = cross_cap\nnu = 3\nnv = 4\n")
    code, out, _ = _run(capsys, ["invariants", "--config", str(cfg)])
    assert code == 0
    assert len(_data_lines(out)) == 1 + 12
    code, out, _ = _run(capsys, ["invariants", "--config", str(cfg), "--grid", "3", "5"])
    assert code == 0
    assert len(_data_lines(out)) == 1 + 15


def test_config_file_markers_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example = ruled_A\nmarkers = true\n")
    code, out, _ = _run(capsys, ["mesh", "--config", str(cfg)])
    assert code == 0
    assert "# markers = true" in out.splitlines()
    assert len([l for l in out.splitlines() if l.startswith("p ")]) == 2


def test_config_file_axis_key_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("axis = x2\n")
    argv = ["project", "--config", str(cfg), "--from", "r31", "--to", "h3",
            "--point", "1.5", "0.5", "0.5"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert "# axis = x2" in out.splitlines()
    assert _data_lines(out)[0].split()[1] != "1.5"  # x2 is the lifted coordinate
    code, out, _ = _run(capsys, argv + ["--axis", "x3"])
    assert code == 0
    assert "# axis = x3" in out.splitlines()
    cfg.write_text("axis = x5\n")
    code, _, err = _run(capsys, argv)
    assert code == 4 and "axis" in err


def test_config_file_and_profile_read_once(tmp_path, capsys, monkeypatch):
    import h3frames.cli as cli

    calls = []
    for name in ("_read_config_file", "load_h_profile"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda path, real=real, name=name: calls.append(name) or real(path))
    prof = tmp_path / "prof.csv"
    _write_profile(prof, (0, 0, 0, 0, 1, 0))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"profile = {prof}\nnu = 5\nnv = 5\n")
    code, out, _ = _run(capsys, ["classify", "--config", str(cfg)])
    assert code == 0 and "agree = true" in out
    assert calls == ["_read_config_file", "load_h_profile"]
    calls.clear()
    cfg.write_text("example = cross_cap\nnu = 3\nnv = 3\n")
    assert _run(capsys, ["invariants", "--config", str(cfg)])[0] == 0
    assert calls == ["_read_config_file"]


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("H3FRAMES_OUT_DIR", str(tmp_path))
    assert main(["invariants", "--example", "cross_cap", "--grid", "3", "3",
                 "--output", "rel.csv"]) == 0
    capsys.readouterr()
    assert (tmp_path / "rel.csv").exists()


# ---------------------------------------------------------------------------
# singular
# ---------------------------------------------------------------------------


def test_singular_ruled_a_two_cross_caps(capsys):
    code, out, _ = _run(capsys, ["singular", "--example", "ruled_A"])
    assert code == 0
    assert "points = 2" in out
    tags = re.findall(r"^classification = (\w+)$", out, flags=re.M)
    assert tags == ["cross_cap", "cross_cap"]
    us = [float(m) for m in re.findall(r"^u = (\S+)$", out, flags=re.M)]
    assert min(abs(u) for u in us) < 1e-8
    assert min(abs(u - math.pi) for u in us) < 1e-8
    # the report carries the full diagnostics
    for key in ("alpha", "beta", "D", "hess_phi", "independence_pair",
                "newton_iters", "converged", "# tolerances:"):
        assert key in out


def test_singular_ruled_b_window_conservative_tags(capsys):
    # the v = 0 line of ruled_B is singular but not corank-one-isolated;
    # a small window keeps the scan cheap and every tag conservative
    code, out, _ = _run(capsys, [
        "singular", "--example", "ruled_B",
        "--u-min", "0.2", "--u-max", "0.6", "--v-min", "-0.2", "--v-max", "0.2",
        "--grid", "7", "7",
    ])
    assert code == 0
    assert "points = " in out and "points = 0" not in out
    vs = [float(m) for m in re.findall(r"^v = (\S+)$", out, flags=re.M)]
    assert max(abs(v) for v in vs) < 1e-8
    tags = set(re.findall(r"^classification = (\w+)$", out, flags=re.M))
    assert tags <= {"unclassified", "not_corank_one"}


@pytest.mark.parametrize("name", ["ruled_A", "ruled_B", "cross_cap"])
def test_singular_evaluates_no_single_points(name, capsys, monkeypatch):
    # every stage of the singular-set pipeline reads arrays of points; a
    # one-point invariant evaluation would mean a per-point loop is back
    scalar_calls = []
    original = frames.invariants_at

    def invariants_at(fs, u, v, *args, **kwargs):
        if np.ndim(u) == 0:
            scalar_calls.append((u, v))
        return original(fs, u, v, *args, **kwargs)

    monkeypatch.setattr(frames, "invariants_at", invariants_at)
    code, _, _ = _run(capsys, ["singular", "--example", name])
    assert code == 0
    assert scalar_calls == []


def test_singular_classifies_every_root_in_one_call(capsys, monkeypatch):
    # the 45-point classification stencils of all 129 ruled_B roots are
    # read in one field call; a loop over the roots would make 129
    shapes = []
    original = frames.invariants_at

    def invariants_at(fs, u, v, *args, **kwargs):
        shapes.append(np.shape(u))
        return original(fs, u, v, *args, **kwargs)

    monkeypatch.setattr(frames, "invariants_at", invariants_at)
    code, out, _ = _run(capsys, ["singular", "--example", "ruled_B"])
    assert code == 0
    assert "points = 129" in out
    assert [s for s in shapes if s[-2:] == (9, 5)] == [(129, 9, 5)]


def test_singular_h1_h2_set_the_classification_steps(capsys):
    # --h1 and --h2 are the steps of the classification's differences:
    # Newton finds the same two cross caps, and D is read anew
    _, default, _ = _run(capsys, ["singular", "--example", "ruled_A"])
    code, out, _ = _run(capsys, ["singular", "--example", "ruled_A", "--h1", "2e-5", "--h2", "2e-4"])
    assert code == 0
    values = lambda text, key: re.findall(rf"^{key} = (.+)$", text, flags=re.M)
    assert values(out, "classification") == ["cross_cap", "cross_cap"]
    assert values(out, "u") == values(default, "u") and values(out, "v") == values(default, "v")
    assert values(out, "D") != values(default, "D")
    with pytest.raises(SystemExit):
        main(["singular", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "fd step" not in help_text
    assert "--h1 H1 singular only: classification step of invariant partials" in help_text


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("key", ["h1", "h2", "singular_tol", "classify_tol", "frame_tol"])
def test_steps_and_tolerances_must_be_finite_and_positive(capsys, key, value):
    flag = "--" + key.replace("_", "-")
    code, out, err = _run(capsys, ["singular", "--example", "cross_cap", flag, value])
    assert (code, out) == (4, "")
    assert err.startswith(f"error: {key} must be finite and positive") and err.count("\n") == 1


def test_config_file_step_must_be_positive(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h1 = 0\n", encoding="utf-8")
    code, out, err = _run(capsys, ["singular", "--example", "cross_cap", "--config", str(cfg)])
    assert (code, out) == (4, "")
    assert err == "error: h1 must be finite and positive, got 0\n"


def test_singular_empty_for_regular_band(tmp_path, capsys):
    prof = tmp_path / "regular.csv"
    prof.write_text(
        "u,h1,h2,h3,h4,h5,h6\n"
        "-1,0.3,0.7,0.2,-0.1,0.5,0.4\n"
        "0,0.3,0.7,0.2,-0.1,0.5,0.4\n"
        "1,0.3,0.7,0.2,-0.1,0.5,0.4\n"
    )
    code, out, _ = _run(capsys, ["singular", "--example", f"horocyclic:{prof}"])
    assert code == 0
    assert "points = 0" in out
    assert "classification" not in out


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def test_mesh_vertex_count_and_ball_bound(capsys):
    code, out, _ = _run(capsys, ["mesh", "--example", "cross_cap", "--grid", "6", "5"])
    assert code == 0
    verts = [l for l in out.splitlines() if l.startswith("v ")]
    assert len(verts) == 30
    for line in verts:
        coords = np.array([float(c) for c in line.split()[1:]])
        assert np.linalg.norm(coords) < 1.0
    faces = [l for l in out.splitlines() if l.startswith("f ")]
    assert len(faces) == 2 * 5 * 4


def test_mesh_markers_coincide_with_refined_singularities(capsys):
    code, out, _ = _run(capsys, ["mesh", "--example", "ruled_A", "--markers"])
    assert code == 0
    lines = out.splitlines()
    marker_ids = [int(l.split()[1]) for l in lines if l.startswith("p ")]
    assert len(marker_ids) == 2
    verts = [l for l in lines if l.startswith("v ")]
    marker_xyz = [np.array([float(c) for c in verts[i - 1].split()[1:]])
                  for i in marker_ids]

    entry = get_example("ruled_A")
    reports = sorted(singularity_scan(entry.framed), key=lambda r: (r.u, r.v))
    assert len(reports) == 2
    for got, rep in zip(marker_xyz, reports):
        want = to_poincare(entry.framed.x.value(rep.u, rep.v))
        assert np.linalg.norm(got - want) < 1e-6


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _write_profile(path, consts):
    rows = ["u,h1,h2,h3,h4,h5,h6"]
    for u in (-1.0, -0.5, 0.0, 0.5, 1.0):
        rows.append(",".join(str(x) for x in (u, *consts)))
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize(
    "consts,tag,ratio",
    [
        ((0, 0, 0, 0, 2, 1), "horo_cone_two_vertices", "2"),
        ((0, 0, 0, 0, 1, 0), "conical_horosphere", None),
        ((0.3, 0.7, 0.2, -0.1, 0.5, 0.4), "generic", None),
    ],
)
def test_classify_profiles(tmp_path, capsys, consts, tag, ratio):
    prof = tmp_path / "prof.csv"
    _write_profile(prof, consts)
    code, out, _ = _run(capsys, ["classify", "--profile", str(prof), "--grid", "7", "7"])
    assert code == 0
    assert f"h_form = {tag}" in out
    assert f"invariant_form = {tag}" in out
    assert "agree = true" in out
    if ratio is None:
        assert "two_vertex_ratio" not in out
    else:
        assert f"two_vertex_ratio = {ratio}" in out


def test_classify_long_profile_agrees(tmp_path, capsys):
    # the golden two-vertex cone (h5 = 2 h6, h6 = 0.5 + 0.2 u^2) over 8
    # units of u: the integrated curve frame must be accurate enough that
    # the invariant form reads the same class as the h form
    prof = tmp_path / "long.csv"
    rows = ["u,h1,h2,h3,h4,h5,h6"]
    for u in np.linspace(-4.0, 4.0, 33):
        h6 = 0.5 + 0.2 * u * u
        rows.append(",".join(repr(float(x)) for x in (u, 0, 0, 0, 0, 2.0 * h6, h6)))
    prof.write_text("\n".join(rows) + "\n")
    code, out, _ = _run(capsys, ["classify", "--profile", str(prof)])
    assert code == 0
    assert "h_form = horo_cone_two_vertices" in out
    assert "invariant_form = horo_cone_two_vertices" in out
    assert "agree = true" in out


@pytest.mark.parametrize("row,col,cell", [(2, 1, "nan"), (5, 0, "inf")])
@pytest.mark.parametrize("command", ["classify", "singular"])
def test_non_finite_profile_exit_4(tmp_path, capsys, command, row, col, cell):
    # a nan in h1 of data row 2, or an inf u in the last row (where the u
    # column still increases): refused by name before any spline is built
    prof = tmp_path / "prof.csv"
    _write_profile(prof, (0.3, 0.7, 0.2, -0.1, 0.5, 0.4))
    lines = prof.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = cell
    lines[row] = ",".join(cells)
    prof.write_text("\n".join(lines) + "\n")
    argv = (["classify", "--profile", str(prof)] if command == "classify"
            else ["singular", "--example", f"horocyclic:{prof}", "--grid", "5", "5"])
    code, _, err = _run(capsys, argv)
    assert code == 4
    assert err == f"error: h-profile data row {row} is not finite: {lines[row]}\n"


def _two_row_profile(path, u_max):
    rows = ["u,h1,h2,h3,h4,h5,h6", *(f"{u},0.3,0.7,0.2,-0.1,0.5,0.4" for u in (0.0, u_max))]
    path.write_text("\n".join(rows) + "\n")


def test_classify_profile_span_below_one_step(tmp_path, capsys):
    # a span shorter than the rounding cutoff of a remainder step is still
    # integrated, in that one step
    prof = tmp_path / "tiny.csv"
    _two_row_profile(prof, 1e-300)
    code, out, err = _run(capsys, ["classify", "--profile", str(prof)])
    assert (code, err) == (0, "")
    assert "h_form = generic" in out and "agree = true" in out


def test_classify_profile_with_uncountable_steps_exit_4(tmp_path, capsys):
    prof = tmp_path / "huge.csv"
    _two_row_profile(prof, 1e306)
    code, _, err = _run(capsys, ["classify", "--profile", str(prof)])
    assert code == 4
    assert err == "error: span 1e+306 in steps of 0.001 is not a finite step count\n"
    # at 1e308 the spline set-up overflows first (with a RuntimeWarning, so
    # this one runs in a process of its own), and the count is refused alike
    _two_row_profile(prof, 1e308)
    src = str(Path(h3frames.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "h3frames.cli", "classify", "--profile", str(prof)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 4 and "Traceback" not in done.stderr
    assert done.stderr.endswith("error: span 1e+308 in steps of 0.001 is not a finite step count\n")


def test_classify_rejects_malformed_profile(tmp_path, capsys):
    prof = tmp_path / "bad.csv"
    prof.write_text("not,a,profile\n1,2,3\n")
    code, _, err = _run(capsys, ["classify", "--profile", str(prof)])
    assert code == 4
    assert "header" in err


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def test_project_h3_disc_round_trip(capsys):
    x = [math.sqrt(1.0 + 0.09 + 0.25 + 0.04), 0.3, -0.5, 0.2]
    code, out, _ = _run(capsys, ["project", "--from", "h3", "--to", "disc",
                                 "--point", *[repr(c) for c in x]])
    assert code == 0
    disc = [float(c) for c in _data_lines(out)[0].split()]
    code, out, _ = _run(capsys, ["project", "--from", "disc", "--to", "h3",
                                 "--point", *[repr(c) for c in disc]])
    assert code == 0
    back = [float(c) for c in _data_lines(out)[0].split()]
    assert max(abs(a - b) for a, b in zip(back, x)) < 1e-12


def test_project_r31_lift_and_axis(capsys):
    code, out, _ = _run(capsys, ["project", "--from", "r31", "--to", "h3",
                                 "--axis", "x4", "--point", "1.5", "0.5", "0.5"])
    assert code == 0
    x = [float(c) for c in _data_lines(out)[0].split()]
    assert x[3] == pytest.approx(math.sqrt(1.5 ** 2 - 0.25 - 0.25 - 1.0), abs=1e-15)
    # projecting back along the same axis recovers the input
    code, out, _ = _run(capsys, ["project", "--from", "h3", "--to", "r31",
                                 "--axis", "x4", "--point", *[repr(c) for c in x]])
    assert code == 0
    assert _data_lines(out)[0] == "1.5 0.5 0.5"


def test_project_file_input(tmp_path, capsys):
    src = tmp_path / "pts.txt"
    src.write_text("# two upper-sheet points\n1 0 0 0\n1.4142135623730951 1 0 0\n")
    code, out, _ = _run(capsys, ["project", "--from", "h3", "--to", "disc",
                                 "--input", str(src)])
    assert code == 0
    rows = _data_lines(out)
    assert len(rows) == 2
    assert rows[0] == "0 0 0"


@pytest.mark.parametrize(
    "argv",
    [
        ["--from", "h3", "--to", "disc", "--point", "nan", "0", "0", "0"],
        ["--from", "disc", "--to", "h3", "--point", "nan", "0", "0"],
        ["--from", "h3", "--to", "r31", "--point", "1", "0", "0", "nan"],
    ],
)
def test_project_rejects_non_finite_point(capsys, argv):
    code, out, err = _run(capsys, ["project", *argv])
    assert code == 4
    assert err.startswith("error: --point: non-finite coordinate")
    assert out == ""


def test_project_rejects_non_finite_file_row(tmp_path, capsys):
    src = tmp_path / "pts.txt"
    src.write_text("1 0 0 0\n\n-inf 0 0 0\n")
    code, out, err = _run(capsys, ["project", "--from", "h3", "--to", "disc", "--input", str(src)])
    assert code == 4
    assert err.startswith(f"error: {src}:3: non-finite coordinate")
    assert out == ""


@pytest.mark.parametrize("to", ["disc", "r31"])
def test_project_refuses_h3_input_off_the_upper_sheet(capsys, to):
    code, out, err = _run(capsys, ["project", "--from", "h3", "--to", to,
                                   "--point", "2", "0", "0", "0"])
    assert (code, out) == (2, "")
    assert err == "error: <x,x> = -4.000000e+00, expected -1 within 1e-09\n"
    code, out, err = _run(capsys, ["project", "--from", "h3", "--to", to,
                                   "--point", "-1.4142135623730951", "1", "0", "0"])
    assert (code, out) == (2, "")
    assert err == "error: x1 = -1.414214e+00 is not on the upper branch\n"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_unknown_example(capsys):
    code, _, err = _run(capsys, ["invariants", "--example", "nope"])
    assert code == 4 and "unknown example" in err


def test_exit_code_geometry_failure(capsys):
    code, _, err = _run(capsys, ["project", "--from", "r31", "--to", "h3",
                                 "--point", "1.0", "0.5", "0.5"])
    assert code == 2 and "does not lift" in err


@pytest.mark.parametrize("to", ["h3", "disc"])
def test_project_r31_overflow_does_not_lift(capsys, to):
    # x1^2 - x2^2 - x3^2 overflows to inf; that is no liftable point either
    code, out, err = _run(capsys, ["project", "--from", "r31", "--to", to,
                                   "--point", "1e155", "0", "0"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: point does not lift")


@pytest.mark.parametrize("to", ["h3", "disc"])
@pytest.mark.parametrize("point, shown", [(("1e5", "0.5", "0.25"), "(100000 0.5 0.25)"),
                                          (("1e154", "0", "0"), "(1e+154 0 0)")],
                         ids=["1e5", "1e154"])
def test_project_r31_lift_off_h3_is_refused(capsys, to, point, shown):
    # x1^2 - x2^2 - x3^2 > 1 holds, but the lifted point's <x,x> rounds
    # away from -1 (to -1.000002 and to 0); the refusal names the point given
    code, out, err = _run(capsys, ["project", "--from", "r31", "--to", to, "--point", *point])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: point does not lift: {shown} ")


def test_project_r31_moderate_point_still_lifts(capsys):
    code, out, _ = _run(capsys, ["project", "--from", "r31", "--to", "h3",
                                 "--point", "1e3", "0.5", "0.25"])
    assert code == 0
    x = np.array([float(c) for c in _data_lines(out)[0].split()])
    assert abs(-x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3] + 1.0) <= 1e-9


def test_exit_code_io_failure(tmp_path, capsys):
    code, _, err = _run(capsys, ["invariants", "--example", "cross_cap",
                                 "--grid", "3", "3",
                                 "--output", str(tmp_path / "no_dir" / "x.csv")])
    assert code == 3


def test_exit_code_usage(capsys):
    assert _run(capsys, ["project", "--from", "h3", "--to", "h3",
                         "--point", "1", "0", "0", "0"])[0] == 4
    assert _run(capsys, ["project", "--from", "h3", "--to", "disc",
                         "--point", "1", "0"])[0] == 4
    assert _run(capsys, ["invariants"])[0] == 4  # no example anywhere
    assert _run(capsys, ["nonsense"])[0] == 4


def test_exit_code_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("example = cross_cap\nwibble = 3\n")
    code, _, err = _run(capsys, ["invariants", "--config", str(cfg)])
    assert code == 4 and "wibble" in err
