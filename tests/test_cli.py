"""End-to-end checks of the command-line front door."""

import argparse
import contextlib
import dataclasses
import gzip
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import h3frames
from h3frames import cli, fmt, frames, projections, singularities
from h3frames.errors import PreconditionError
from h3frames.cli import main
from h3frames.examples import get_example
from h3frames.projections import to_poincare
from h3frames.singularities import _TORUS_N, _TORUS_ROWS, singularity_scan
from h3frames.surface import MAX_GRID_POINTS, Domain, ParametricMap4, components

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


def test_singular_leaves_json_unloaded():
    # only reports_to_json serializes to JSON; a singular run prints text,
    # so it does not import json
    src = str(Path(h3frames.__file__).resolve().parents[1])
    code = (
        "import sys, runpy\n"
        "sys.argv = ['h3frames', 'singular', '--example', 'ruled_A']\n"
        "try:\n"
        "    runpy.run_module('h3frames.cli', run_name='__main__')\n"
        "finally:\n"
        "    print('json' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "False"


#: The library modules ``import h3frames.cli`` registers without executing.
_LAZY = ("minkowski", "surface", "fmt", "frames", "examples", "singularities",
         "projections", "horocyclic")
#: What the front end (parsing, config files, settings, usage errors)
#: leaves unexecuted: numpy and every library module.
_FRONT_END = ("numpy", *_LAZY)


@pytest.mark.parametrize("argv, exit_code, unexecuted", [
    (["--version"], 0, _FRONT_END),
    (["--help"], 0, _FRONT_END),
    (["singular", "--bogus"], 4, _FRONT_END),
    (["invariants", "--config", "{cfg}"], 4, _FRONT_END),
    (["singular", "--example", "ruled_A"], 0, ("projections", "horocyclic")),
    (["project", "--from", "h3", "--to", "disc", "--point", "1.4142135623730951", "1", "0", "0"],
     0, ("examples", "singularities", "horocyclic")),
    (["invariants", "--example", "cross_cap"], 0, ("singularities", "projections", "horocyclic")),
    (["classify", "--profile", "{prof}"], 0, ("examples", "projections", "singularities")),
    (["singular", "--example", "horocyclic:{prof}", "--grid", "5", "5"], 0, ("projections",)),
], ids=["version", "help", "unknown-flag", "unknown-config-key", "singular", "project", "invariants",
        "classify-profile", "singular-horocyclic"])
def test_subcommand_executes_only_the_modules_it_runs(argv, exit_code, unexecuted, tmp_path):
    # a registered module executes on its first attribute read, and then its
    # class turns from the lazy subclass into types.ModuleType.  The front
    # end runs without numpy; every computation executes it.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("example = cross_cap\nwibble = 3\n")
    prof = tmp_path / "prof.csv"
    _write_profile(prof, (0.3, 0.7, 0.2, -0.1, 0.5, 0.4))
    argv = [a.format(cfg=cfg, prof=prof) for a in argv]
    src = str(Path(h3frames.__file__).resolve().parents[1])
    code = (
        "import sys, types\n"
        "sys.argv = ['h3frames', *sys.argv[1:]]\n"
        "try:\n"
        "    import runpy; runpy.run_module('h3frames.cli', run_name='__main__')\n"
        "finally:\n"
        "    print(sorted(n.removeprefix('h3frames.') for n, m in sys.modules.items()\n"
        "                 if (n == 'numpy' or n.startswith('h3frames.'))\n"
        "                 and type(m) is not types.ModuleType), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == exit_code, done.stderr
    assert done.stderr.splitlines()[-1] == str(sorted(unexecuted))


def test_cli_import_after_numpy_keeps_the_real_numpy():
    src = str(Path(h3frames.__file__).resolve().parents[1])
    code = (
        "import sys, types, numpy\n"
        "import h3frames.cli\n"
        "assert sys.modules['numpy'] is numpy and h3frames.cli.np is numpy\n"
        "assert type(numpy) is types.ModuleType\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_grid_row_count(capsys):
    code, out, _ = _run(capsys, ["invariants", "--example", "cross_cap", "--grid", "21", "21"])
    assert code == 0
    rows = _data_lines(out)
    assert rows[0].startswith("u,v,a1")
    assert len(rows) == 1 + 441  # header + 21*21


@pytest.mark.parametrize("example", ["cross_cap", "horocyclic:profile.csv"])
def test_invariants_evaluates_its_frame_once(example, capsys, monkeypatch, tmp_path):
    # the CSV and its residual footer read one grid frame evaluation
    monkeypatch.chdir(tmp_path)
    _write_profile(tmp_path / "profile.csv", (0.3, 0.7, 0.2, -0.1, 0.5, 0.4))
    grids = []
    frame_at = frames.frame_at

    def counted(fs, u, v):
        grids.append(np.shape(u))
        return frame_at(fs, u, v)

    monkeypatch.setattr(frames, "frame_at", counted)
    code, out, _ = _run(capsys, ["invariants", "--example", example, "--grid", "21", "11"])
    assert code == 0
    assert grids == [(11, 21)]
    assert "# residuals: max_gram = " in out


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
                 "nu", "nv", "frame_tol", "output", "tool_version"):
        assert want in keys
    # classification has no steps to record, and invariants reads no tolerance
    assert not keys & {"h1", "h2", "singular_tol", "classify_tol"}
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
    import h3frames.horocyclic as horocyclic

    calls = []
    for owner, name in ((cli, "_read_config_file"), (horocyclic, "load_h_profile")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda path, real=real, name=name: calls.append(name) or real(path))
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


def test_config_file_bad_boolean_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("markers = maybe\n")
    code, out, err = _run(capsys, ["mesh", "--example", "cross_cap", "--config", str(cfg)])
    assert (code, out) == (4, "")
    assert err == f"error: {cfg}:1: bad value for markers: expected a boolean, got 'maybe'\n"


#: The settings each subcommand's computation reads, as its header records
#: them.  A new flag or config key is added here on purpose.
READS = {
    "invariants": {"example", "u_min", "u_max", "v_min", "v_max", "nu", "nv", "output"},
    "singular": {"example", "u_min", "u_max", "v_min", "v_max", "nu", "nv", "singular_tol", "output"},
    "mesh": {"example", "u_min", "u_max", "v_min", "v_max", "nu", "nv", "singular_tol", "output",
             "markers"},
    "classify": {"profile", "u_min", "u_max", "v_min", "v_max", "nu", "nv", "classify_tol", "output"},
    "project": {"from", "to", "axis", "point", "input", "output"},
}

#: The flags of each subcommand (43 in all).
_WINDOW_FLAGS = {"--config", "--u-min", "--u-max", "--v-min", "--v-max", "--grid", "--output"}
FLAGS = {
    "invariants": _WINDOW_FLAGS | {"--example"},
    "singular": _WINDOW_FLAGS | {"--example", "--singular-tol"},
    "mesh": _WINDOW_FLAGS | {"--example", "--singular-tol", "--markers"},
    "classify": _WINDOW_FLAGS | {"--profile", "--classify-tol"},
    "project": {"--config", "--from", "--to", "--axis", "--point", "--input", "--output"},
}

#: The keys a config file may set (13).
CONFIG_KEYS = {"example", "profile", "u_min", "u_max", "v_min", "v_max", "nu", "nv",
               "singular_tol", "classify_tol", "output", "markers", "axis"}

#: Header lines that record no setting: facts of the run.
FACTS = {"invariants": {"frame_tol"}, "project": {"points"}}


def test_each_subcommand_has_only_the_flags_it_reads():
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {command: {flag for action in parser._actions for flag in action.option_strings}
             - {"-h", "--help"} for command, parser in sub.choices.items()}
    assert found == FLAGS
    assert sum(map(len, found.values())) == 43
    assert set(cli._CONFIG_KEYS) == CONFIG_KEYS and len(CONFIG_KEYS) == 13


#: A run of each subcommand; the default grid of every example and profile
#: used below is 21 x 21.  {a} and {b} stand for two h-profile paths.
_BASE = {
    "invariants": ["invariants", "--example", "cross_cap", "--grid", "3", "3"],
    "singular": ["singular", "--example", "cross_cap", "--grid", "5", "5"],
    "mesh": ["mesh", "--example", "cross_cap", "--grid", "5", "5", "--markers"],
    "classify": ["classify", "--profile", "{a}", "--grid", "5", "5"],
    "project": ["project", "--from", "r31", "--to", "h3", "--point", "1.5", "0.5", "0.5"],
}


def _profiles(tmp_path):
    paths = {"a": tmp_path / "a.csv", "b": tmp_path / "b.csv"}
    _write_profile(paths["a"], (0, 0, 0, 0, 2, 1))
    _write_profile(paths["b"], (0, 0, 0, 0, 1, 0))
    return paths


@pytest.mark.parametrize("command", sorted(READS))
def test_header_records_exactly_the_settings_the_run_reads(command, tmp_path, capsys, monkeypatch):
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            if not name.startswith("__"):
                reads.add(name)
            return super().__getattribute__(name)

    settings_of = cli._settings

    def recorded(argv):
        settings, ignored = settings_of(argv)
        return Recorder(**vars(settings)), ignored

    monkeypatch.setattr(cli, "_settings", recorded)
    code, out, err = _run(capsys, [arg.format(**_profiles(tmp_path)) for arg in _BASE[command]])
    assert (code, err) == (0, "")
    header = set(re.findall(r"^# (\w+) = ", out, flags=re.M))
    recorded_keys = header - {"command", "tool_version"} - FACTS.get(command, set())
    assert recorded_keys == reads - {"command"} == READS[command]


#: Per config key: a value A for the config file, the flags that set A, and
#: another value B.
_KEY_CASES = {
    "example": ("cross_cap", ["--example", "cross_cap"], "ruled_A"),
    "profile": ("{a}", ["--profile", "{a}"], "{b}"),
    "u_min": ("-0.5", ["--u-min", "-0.5"], "-0.3"),
    "u_max": ("0.5", ["--u-max", "0.5"], "0.3"),
    "v_min": ("-0.5", ["--v-min", "-0.5"], "-0.3"),
    "v_max": ("0.5", ["--v-max", "0.5"], "0.3"),
    "nu": ("3", ["--grid", "3", "21"], "4"),
    "nv": ("3", ["--grid", "21", "3"], "4"),
    "singular_tol": ("1e-8", ["--singular-tol", "1e-8"], "1e-9"),
    "classify_tol": ("1e-6", ["--classify-tol", "1e-6"], "1e-7"),
    "output": ("a.csv", ["--output", "a.csv"], "b.csv"),
    "markers": ("true", ["--markers"], "false"),
    "axis": ("x2", ["--axis", "x2"], "x3"),
}


def _without(argv, flag):
    """``argv`` without ``flag`` and the values after it."""
    if flag not in argv:
        return argv
    i = j = argv.index(flag)
    while j + 1 < len(argv) and not argv[j + 1].startswith("--"):
        j += 1
    return argv[:i] + argv[j + 1:]


@pytest.mark.parametrize("key", list(cli._CONFIG_KEYS))
def test_config_file_line_equals_its_flag_and_a_flag_beats_the_file(key, tmp_path, capsys, monkeypatch):
    # on every subcommand that reads the key
    outdir = tmp_path / "out"
    outdir.mkdir()
    monkeypatch.setenv("H3FRAMES_OUT_DIR", str(outdir))
    paths = _profiles(tmp_path)
    a, flag_a, b = (x.format(**paths) if isinstance(x, str) else [arg.format(**paths) for arg in x]
                    for x in _KEY_CASES[key])
    cfg = tmp_path / "run.cfg"
    setting = cli._CONFIG_KEYS[key]

    def outcome(base, value, flags):
        argv = base + flags
        if value is not None:
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        files = {}
        for path in outdir.iterdir():
            files[path.name] = path.read_text()
            path.unlink()
        return out, files

    for command in setting.commands:
        base = [arg.format(**paths) for arg in _without(_BASE[command], setting.flag)]
        by_flag = outcome(base, None, flag_a)
        assert outcome(base, a, []) == by_flag
        assert outcome(base, b, flag_a) == by_flag
        assert outcome(base, b, []) != by_flag


def test_config_key_of_another_subcommand_is_listed_as_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example = cross_cap\nprofile = nowhere.csv\nnu = 3\nnv = 3\n"
                   "markers = true\naxis = x2\n")
    code, out, err = _run(capsys, ["invariants", "--config", str(cfg)])
    assert (code, err) == (0, "")
    header = [l for l in out.splitlines() if l.startswith("# ")]
    assert header.count("# ignored = profile, markers, axis") == 1
    assert not [l for l in header if l.startswith(("# profile", "# markers", "# axis"))]
    assert "# nu = 3" in header
    # a key that no subcommand reads is still refused
    cfg.write_text("example = cross_cap\nframe_tol = 1e-8\n")
    code, out, err = _run(capsys, ["invariants", "--config", str(cfg)])
    assert (code, out) == (4, "")
    assert err == f"error: {cfg}:2: unknown config key 'frame_tol'\n"


@pytest.mark.parametrize("argv, unread", [
    (["project", "--from", "h3", "--to", "disc", "--point", "1", "0", "0", "0",
      "--example", "ruled_A"], "--example ruled_A"),
    (["invariants", "--example", "cross_cap", "--classify-tol", "1e-6"], "--classify-tol 1e-6"),
    (["classify", "--profile", "p.csv", "--example", "cross_cap", "--singular-tol", "1e-6"],
     "--example cross_cap --singular-tol 1e-6"),
    (["singular", "--example", "cross_cap", "--markers", "--axis", "x2"], "--markers --axis x2"),
])
def test_a_flag_the_subcommand_does_not_read_is_unrecognized(capsys, argv, unread):
    assert _run(capsys, argv) == (4, "", f"error: unrecognized arguments: {unread}\n")


@pytest.mark.parametrize("value", ["-1e-1", "-1.", "-.5", "-1E+00", "-0.25"])
def test_negative_numbers_in_every_form_are_values(capsys, value):
    # argparse's own pattern takes -1e-1 or -1. for an option; %.17g writes such values
    argv = ["singular", "--example", "cross_cap", "--grid", "5", "5"]
    spaced = _run(capsys, argv + ["--u-min", value])
    assert spaced[0] == 0
    assert _run(capsys, argv + [f"--u-min={value}"]) == spaced
    point = ["project", "--from", "r31", "--to", "h3", "--point", "2"]
    spaced = _run(capsys, point + [value, "0"])
    assert spaced[0] == 0
    assert spaced == _run(capsys, point + [repr(float(value)), "0"])


def test_negative_non_finite_point_is_refused_as_a_value(capsys):
    code, out, err = _run(capsys, ["project", "--from", "disc", "--to", "h3", "--point", "-nan", "0", "0"])
    assert (code, out) == (4, "")
    assert err.startswith("error: --point: non-finite coordinate")


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


def _singular_blocks(out):
    """The ``[k]`` blocks of a ``singular`` output, each as its (key, value) lines."""
    return [[tuple(line.split(" = ", 1)) for line in block.splitlines()[1:]]
            for block in out.split("\n\n")[1:]]


def test_singular_prints_each_report_field_in_the_report_order(capsys):
    # a block is the report's as_dict(), flattened, without the refine
    # tolerance that the header prints: a new diagnostics field prints
    # with no edit of the front end
    code, out, _ = _run(capsys, ["singular", "--example", "ruled_A"])
    assert code == 0
    fields = [f.name for f in dataclasses.fields(singularities.SingularityDiagnostics)]
    blocks = _singular_blocks(out)
    assert len(blocks) == 2
    for block in blocks:
        assert [key for key, _ in block] == ["u", "v", "classification", *fields[:-1]]
    assert fields[-1] == "refine_tol"


def test_singular_header_tolerances_are_the_json_tolerances(capsys):
    code, out, _ = _run(capsys, ["singular", "--example", "ruled_A", "--singular-tol", "1e-9"])
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("# tolerances: "))
    printed = [tuple(p.split(" = ")) for p in line.removeprefix("# tolerances: ").split(", ")]
    entry = get_example("ruled_A")
    reports = singularity_scan(entry.framed, entry.domain, tol=1e-9)
    want = json.loads(singularities.reports_to_json(reports))["tolerances"]
    assert {name: float(val) for name, val in printed} == want
    assert len(printed) == len(want) and want["refine"] == 1e-9


def test_singular_loose_tolerance_marks_accepted_roots_converged(capsys):
    # --singular-tol is both the Newton tolerance and the bound of
    # "converged", so every root the scan accepts at 1e-3 reads converged
    code, out, _ = _run(capsys, ["singular", "--example", "ruled_A", "--singular-tol", "1e-3"])
    assert code == 0
    assert "# tolerances: refine = 0.001," in out and "points = 2" in out
    assert re.findall(r"^converged = (\w+)$", out, flags=re.M) == ["true", "true"]


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
    # the classification tori of all 130 ruled_B roots are read in one
    # call; a loop over the roots would make 130
    shapes = []
    original = singularities.basic_invariants

    def basic_invariants(frame, *args, **kwargs):
        shapes.append(np.shape(frame.u))
        return original(frame, *args, **kwargs)

    monkeypatch.setattr(singularities, "basic_invariants", basic_invariants)
    code, out, _ = _run(capsys, ["singular", "--example", "ruled_B"])
    assert code == 0
    assert "points = 130" in out
    assert shapes == [(130, _TORUS_ROWS, _TORUS_N)]


def test_singular_h1_h2_are_unknown(tmp_path, capsys):
    # classification reads exact derivatives from a torus and has no steps
    # to set: the flags and keys that set them are refused like any other
    # unknown one
    for key in ("h1", "h2"):
        code, out, err = _run(capsys, ["singular", "--example", "ruled_A", f"--{key}", "2e-5"])
        assert (code, out) == (4, "")
        assert err == f"error: unrecognized arguments: --{key} 2e-5\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2e-5\n", encoding="utf-8")
        code, out, err = _run(capsys, ["singular", "--example", "ruled_A", "--config", str(cfg)])
        assert (code, out) == (4, "")
        assert err == f"error: {cfg}:1: unknown config key '{key}'\n"
    with pytest.raises(SystemExit):
        main(["singular", "--help"])
    help_text = capsys.readouterr().out
    assert "--h1" not in help_text and "--h2" not in help_text


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("key", ["h1", "h2", "singular_tol", "classify_tol", "frame_tol"])
def test_steps_and_tolerances_must_be_finite_and_positive(capsys, tmp_path, key, value):
    # h1 and h2 were classification steps, and frame_tol a bound no
    # computation read; their flags are gone, so every value of them is
    # refused as an unrecognized argument.  Each tolerance is tried on a
    # subcommand that reads it.
    flag = "--" + key.replace("_", "-")
    prof = tmp_path / "prof.csv"
    _write_profile(prof, (0, 0, 0, 0, 1, 0))
    run = (["classify", "--profile", str(prof)] if key == "classify_tol"
           else ["singular", "--example", "cross_cap"])
    code, out, err = _run(capsys, [*run, flag, value])
    assert (code, out) == (4, "")
    if key in ("h1", "h2", "frame_tol"):
        assert err == f"error: unrecognized arguments: {flag} {value}\n"
    else:
        assert err.startswith(f"error: {key} must be finite and positive") and err.count("\n") == 1


def test_config_file_step_must_be_positive(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("singular_tol = 0\n", encoding="utf-8")
    code, out, err = _run(capsys, ["singular", "--example", "cross_cap", "--config", str(cfg)])
    assert (code, out) == (4, "")
    assert err == "error: singular_tol must be finite and positive, got 0\n"


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
    reports = sorted(singularity_scan(entry.framed, entry.domain), key=lambda r: (r.u, r.v))
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
    # at 1e308 the spline set-up overflows first, and the profile is refused
    # without a RuntimeWarning
    _two_row_profile(prof, 1e308)
    code, _, err = _run(capsys, ["classify", "--profile", str(prof)])
    assert code == 4
    assert err == "error: h-profile spline overflows on the u span [0.0, 1e+308]\n"


def _limit_address_space():
    # a step count that is no longer refused fails fast instead of
    # allocating until the host runs out of memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("u_max", [1e300, 1e9])
def test_classify_profile_with_too_many_steps_exit_4(tmp_path, u_max):
    # finite step counts: 1e303 overflowed building the step list, 1e12
    # asked for ~1e12 list slots
    prof = tmp_path / "long.csv"
    _two_row_profile(prof, u_max)
    src = str(Path(h3frames.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "h3frames.cli", "classify", "--profile", str(prof)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == (
        f"error: span {u_max!r} in steps of 0.001 needs more than "
        f"MAX_STEPS = {frames.MAX_STEPS} steps\n"
    )


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


@pytest.mark.parametrize("text", ["", "# only a comment\n\n   \n"], ids=["empty", "comments"])
def test_project_file_without_points_prints_zero_points(tmp_path, capsys, text):
    src = tmp_path / "pts.txt"
    src.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on a file with no data
        code, out, err = _run(capsys, ["project", "--from", "h3", "--to", "disc", "--input", str(src)])
    assert (code, err) == (0, "")
    assert out.endswith("# points = 0\n# tool_version = 0.1.0\n")


#: Tokens ``float`` takes or refuses that ``np.loadtxt`` may judge otherwise.
_ODD_TOKENS = ["1_0", "nan", "-inf", "+Infinity", "1e400", ".5", "5.", "-0", "0x1p3", "1d5",
               "abc", "1,2", "\u0661", "\ufeff1", "\"1\"", "1;"]
_SEPARATORS = [" ", "   ", "\t", " \t", "\x0b", "\x0c", "\xa0", "\u2003", "\x1c", "\x85"]


@st.composite
def _point_files(draw):
    """Text of a points file: rows of one width with a few odd lines among
    them, comments, blank lines and one kind of line end."""
    width = draw(st.integers(1, 5))
    numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        st.integers(-10**20, 10**20).map(str))
    row = st.lists(numbers, min_size=width, max_size=width)
    ragged = st.lists(st.one_of(numbers, st.sampled_from(_ODD_TOKENS)), min_size=1, max_size=6)
    lines = []
    for tokens in draw(st.lists(st.one_of(row, row, row, ragged, st.just([])), max_size=8)):
        sep = draw(st.sampled_from(_SEPARATORS))
        tail = draw(st.sampled_from(["", " ", " # note", "#", "\t"]))
        lines.append(sep.join(tokens) + tail)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _read_outcome(read, path, frm):
    try:
        coords = read(path, frm)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return coords.shape, coords.tobytes()


def _read_points_by_line(path, frm):
    with open(path, encoding="utf-8") as fh:
        return cli._parse_points(fh, path, frm)


@settings(max_examples=300, deadline=None)
@given(text=_point_files(), frm=st.sampled_from(["h3", "r31"]))
@example(text="1_0 2 3 4\n", frm="h3")
@example(text="1 2 3\r\n4 5 6\r\n", frm="r31")
@example(text="1 2 3\nnan 5 6\n", frm="r31")
@example(text="1\t2 3\n4 5\n", frm="r31")
def test_bulk_point_reader_agrees_with_the_line_reader(tmp_path_factory, text, frm):
    path = str(tmp_path_factory.getbasetemp() / "points.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    bulk = _read_outcome(cli._read_points, path, frm)
    assert bulk == _read_outcome(_read_points_by_line, path, frm)


def test_project_input_is_the_named_file_only(tmp_path, capsys):
    # np.loadtxt, given a path, would decompress a missing file's .gz sibling
    src = tmp_path / "pts.txt"
    with gzip.open(tmp_path / "pts.txt.gz", "wt") as fh:
        fh.write("1 0 0 0\n")
    argv = ["project", "--from", "h3", "--to", "disc", "--input", str(src)]
    code, out, _ = _run(capsys, argv)
    assert (code, out) == (3, "")
    # ... and decompress a compressed file, which is no text file of points
    src.write_bytes((tmp_path / "pts.txt.gz").read_bytes())
    code, out, _ = _run(capsys, argv)
    assert (code, out) == (4, "")


@pytest.mark.parametrize("to", ["disc", "r31"])
def test_project_refuses_h3_input_off_the_upper_sheet(capsys, to):
    code, out, err = _run(capsys, ["project", "--from", "h3", "--to", to,
                                   "--point", "2", "0", "0", "0"])
    assert (code, out) == (2, "")
    assert err == "error: <x,x> = -4.000000e+00: |<x,x> + 1| = 3.000e+00 is not within 4.000e-09\n"
    code, out, err = _run(capsys, ["project", "--from", "h3", "--to", to,
                                   "--point", "-1.4142135623730951", "1", "0", "0"])
    assert (code, out) == (2, "")
    assert err == "error: x1 = -1.414214e+00 is not on the upper branch\n"


@pytest.mark.parametrize("to", ["disc", "r31"])
def test_project_refuses_spacelike_h3_input_within_the_bound(capsys, to):
    # <x,x> = +1e11 is within ON_H3_TOL times |x|^2 = 2e20 of -1, but x is
    # spacelike, not on H^3: its disc image would leave the ball
    code, out, err = _run(capsys, ["project", "--from", "h3", "--to", to,
                                   "--point", "1e10", "1.0000000005e10", "0", "0"])
    assert (code, out) == (2, "")
    assert err == "error: <x,x> = 1.000000e+11: x is not timelike\n"


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


def test_project_r31_lift_refusal_prints_an_unsigned_zero(capsys):
    # q = x1^2 - x2^2 - x3^2 is summed as written, so it is 0 here, not -0
    code, _, err = _run(capsys, ["project", "--from", "r31", "--to", "h3", "--point", "1", "1", "0"])
    assert code == 2 and "x1^2 - x2^2 - x3^2 = 0 " in err


@pytest.mark.parametrize("to", ["h3", "disc"])
def test_project_r31_overflow_does_not_lift(capsys, to):
    # x1^2 - x2^2 - x3^2 overflows to inf; that is no liftable point either
    code, out, err = _run(capsys, ["project", "--from", "r31", "--to", to,
                                   "--point", "1e155", "0", "0"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: point does not lift")


@pytest.mark.parametrize("to", ["h3", "disc"])
@pytest.mark.parametrize("point, shown", [(("1e154", "0", "0"), "(1e+154 0 0)"),
                                          (("-2", "0", "0"), "(-2 0 0)"),
                                          (("1.000000000025", "0", "0"), "(1.000000000025 0 0)")],
                         ids=["1e154", "lower-sheet", "in-margin"])
def test_project_r31_lift_off_h3_is_refused(capsys, to, point, shown):
    # x1^2 - x2^2 - x3^2 > 1 holds, but the lifted point's <x,x> is all
    # rounding (0) and its size overflows, the lift is on the lower sheet,
    # or q - 1 = 5e-11 is within LIFT_MARGIN, which lift_from_r31 refuses
    # too; the refusal names the point given
    code, out, err = _run(capsys, ["project", "--from", "r31", "--to", to, "--point", *point])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: point does not lift: {shown} ")


@pytest.mark.parametrize("point, why", [
    (("1.000000000025", "0", "0"), "1.00000000005 and lifts to x1 = 1.000000000025; "
                                   "q - 1 = 5.000e-11 is not above LIFT_MARGIN = 1e-10"),
    (("-2", "0", "0"), "4 and lifts to x1 = -2; its lift is off H^3: x1 = -2.000000e+00 is not on the upper branch"),
    (("1e154", "0", "0"), "1e+308 and lifts to x1 = 1e+154; "
                          "its lift is off H^3: <x,x> = 0.000000e+00: |x|^2 is not finite"),
], ids=["in-margin", "lower-sheet", "1e154"])
def test_project_r31_refusal_names_the_rule_that_failed(capsys, point, why):
    # the q rule's deviation beside LIFT_MARGIN, or the lift's H^3 fault as
    # lift_from_r31 prints it
    code, out, err = _run(capsys, ["project", "--from", "r31", "--to", "h3", "--point", *point])
    assert (code, out) == (2, "")
    assert err == f"error: point does not lift: ({' '.join(point).replace('1e154', '1e+154')}) has q = " \
                  f"x1^2 - x2^2 - x3^2 = {why}\n"


@settings(max_examples=200, deadline=None)
@given(x1=st.one_of(st.floats(-3.0, 3.0), st.floats(1.0, 1.0 + 1e-9), st.floats(9e4, 2e5)),
       x2=st.floats(-1.0, 1.0), x3=st.floats(-1.0, 1.0))
@example(x1=1.000000000025, x2=0.0, x3=0.0)
@example(x1=-2.0, x2=0.0, x3=0.0)
@example(x1=1e5, x2=0.5, x3=0.25)
def test_project_and_lift_from_r31_lift_the_same_points(x1, x2, x3):
    # both read the one lift rule of projections._lift
    axis = projections.Axis.X4
    p = np.array([x1, x2, x3])
    xt = ParametricMap4(value=lambda u, v: components(*(c + 0.0 * u for c in p)))
    outcomes = []
    for lift in (lambda: cli._convert_points(p[:, None], "r31", "h3", axis),
                 lambda: projections.lift_from_r31(xt, axis, Domain(0.0, 1.0, 0.0, 1.0, nu=2, nv=2))):
        try:
            lift()
            outcomes.append(True)
        except PreconditionError:
            outcomes.append(False)
    event(f"lifts: {outcomes[0]}")
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("to", ["h3", "disc"])
def test_project_r31_far_lift_is_accepted(capsys, to):
    # |<x,x> + 1| = 1.9e-6 at |x|^2 = 2e10 is rounding, within ON_H3_TOL
    # times that size: the lift prints the correctly rounded point, whose
    # q = 1e10 - 0.3125 and sqrt(q - 1) are exact and correctly rounded
    code, out, _ = _run(capsys, ["project", "--from", "r31", "--to", to, "--point", "1e5", "0.5", "0.25"])
    x = np.array([1e5, 0.5, 0.25, math.sqrt(9999999998.6875)])
    want = x if to == "h3" else x[1:] / (x[0] + 1.0)
    assert (code, _data_lines(out)) == (0, [" ".join(map(fmt.fmt, want))])


@pytest.mark.parametrize("r", [9.0, 12.0, 15.0])
def test_project_h3_far_point_reaches_the_disc(capsys, r):
    # |<x,x> + 1| of the rounded point grows like its size, up to 2.4e-4 at
    # r = 15, and stays within ON_H3_TOL times |x|^2
    x = np.array([math.cosh(r), 0.6 * math.sinh(r), 0.8 * math.sinh(r), 0.0])
    code, out, _ = _run(capsys, ["project", "--from", "h3", "--to", "disc", "--point", *(repr(float(c)) for c in x)])
    assert (code, _data_lines(out)) == (0, [" ".join(map(fmt.fmt, x[1:] / (x[0] + 1.0)))])


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


@pytest.mark.parametrize("argv, message", [
    (["project", "--from", "h3", "--to", "disc"], "give exactly one of --point or --input"),
    (["project", "--from", "h3", "--to", "disc", "--point", "1", "0", "0", "0", "--input", "{pts}"],
     "give exactly one of --point or --input"),
    (["classify"], "classify needs an h-profile (--profile)"),
], ids=["project-no-points", "project-both-points", "classify-no-profile"])
def test_a_missing_input_is_a_usage_error(tmp_path, capsys, argv, message):
    pts = tmp_path / "pts.txt"
    pts.write_text("1 0 0 0\n")
    code, out, err = _run(capsys, [a.format(pts=pts) for a in argv])
    assert (code, out, err) == (4, "", f"error: {message}\n")


@pytest.mark.parametrize("bound", ["--u-max=inf", "--u-min=-inf", "--v-max=inf", "--u-min -inf"])
def test_infinite_domain_bound_exit_4(capsys, bound):
    # refused when the domain is built, before any point is evaluated
    code, out, err = _run(capsys, ["singular", "--example", "cross_cap", *bound.split()])
    assert (code, out) == (4, "")
    assert err.count("\n") == 1 and err.startswith("error: domain bounds must be finite: [")


def test_out_of_memory_exit_4(capsys, monkeypatch):
    # an oversized grid fails to allocate in Domain.mesh; simulated here, so
    # the test allocates nothing large
    def mesh(self):
        raise MemoryError("Unable to allocate 32.0 MiB for an array with shape (2048, 2048)")

    monkeypatch.setattr(Domain, "mesh", mesh)
    code, out, err = _run(capsys, ["mesh", "--example", "cross_cap", "--grid", "2048", "2048"])
    assert (code, out) == (4, "")
    assert err == ("error: out of memory (Unable to allocate 32.0 MiB for an array with shape "
                   "(2048, 2048)); try a smaller --grid\n")


def test_grid_above_the_point_bound_exit_4(capsys, monkeypatch):
    # refused when the domain is built; should the bound fail, the patched
    # grids fail the test before anything large is allocated
    def no_grid(self):
        raise AssertionError("the grid was built")

    for name in ("u_grid", "v_grid", "mesh"):
        monkeypatch.setattr(Domain, name, no_grid)
    code, out, err = _run(capsys, ["singular", "--example", "cross_cap", "--grid", "2", "100000000"])
    assert (code, out) == (4, "")
    assert err == f"error: grid of 2x100000000 points exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}\n"


def test_exit_code_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("example = cross_cap\nwibble = 3\n")
    code, _, err = _run(capsys, ["invariants", "--config", str(cfg)])
    assert code == 4 and "wibble" in err


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def _number(x):
    return "%.17g" % x  # the CLI's own format: -1e-05, not -0.00001


def _mostly(valid, invalid):
    """``valid`` about seven times in eight."""
    return st.integers(0, 7).flatmap(lambda k: valid if k else invalid)


_NUMBERS = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-4, 1e-4)).map(_number)
_BAD = st.sampled_from(["", "nope", "nan", "-inf", "0", "-1", "1e-8", "maybe", "x5", "no_dir/out.txt"])
#: Values each config key may hold, those no subcommand reads included.
_KEY_VALUES = {
    "example": st.sampled_from(["cross_cap", "corank_one", "ruled_A", "ruled_B",
                                "horocyclic:{dir}/profile.csv"]),
    "profile": st.just("{dir}/profile.csv"),
    "u_min": _NUMBERS, "u_max": _NUMBERS, "v_min": _NUMBERS, "v_max": _NUMBERS,
    "nu": st.integers(2, 12).map(str), "nv": st.integers(2, 12).map(str),
    "singular_tol": st.sampled_from(["1e-10", "1e-3"]),
    "classify_tol": st.sampled_from(["1e-7", "1e-3"]),
    "output": st.just("out.txt"),
    "markers": st.sampled_from(["true", "false", "no"]),
    "axis": st.sampled_from(["x2", "x3", "x4"]),
    "frame_tol": st.just("1e-8"), "h1": st.just("1e-5"), "wibble": st.just("3"),
}
_CONFIG_LINES = st.one_of(
    *(st.builds(f"{key} = {{}}".format, values) for key, values in _KEY_VALUES.items()),
    st.sampled_from(["# comment", ""]),
)
_BAD_CONFIG_LINES = st.one_of(st.sampled_from(sorted(_KEY_VALUES)).map("{} = ".format),
                              _BAD.map("nu = {}".format), st.just("no equals sign"))


def _spoiled(draw, lines, bad):
    """``lines``, one of them replaced by a draw of ``bad`` one time in eight."""
    if lines and draw(_mostly(st.just(False), st.just(True))):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(bad)
    return "\n".join(lines) + "\n"


@st.composite
def _cli_runs(draw):
    """Arguments of one run, with the text of the files they name; {dir}
    stands for their directory."""
    command = draw(st.sampled_from(sorted(READS)))
    files = {"run.cfg": _spoiled(draw, draw(st.lists(_CONFIG_LINES, max_size=5)), _BAD_CONFIG_LINES)}
    us = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6, unique=True)))
    rows = [",".join(map(repr, [u, *draw(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))]))
            for u in us]
    bad_row = st.sampled_from(["nan", "inf", "x", "1,2"]).map(lambda cell: rows[-1] + "," + cell)
    files["profile.csv"] = _spoiled(draw, ["u,h1,h2,h3,h4,h5,h6", *rows], bad_row | st.just("u,h"))
    files["points.txt"] = draw(_point_files())
    argv = [command]
    if draw(st.booleans()):
        argv += ["--config", "{dir}/run.cfg"]
    if command == "project":
        frm, to = draw(st.permutations(["h3", "disc", "r31"]))[:2]
        argv += ["--from", frm, "--to", draw(_mostly(st.just(to), st.just(frm)))]
        if draw(st.booleans()):
            arity = cli._MODEL_ARITY[frm]
            size = draw(_mostly(st.just(arity), st.integers(1, 5)))
            argv += ["--point", *draw(st.lists(_NUMBERS, min_size=size, max_size=size))]
        else:
            argv += ["--input", "{dir}/points.txt"]
        return argv, files
    # a grid by flag always: the config file cannot make a run large
    grid = st.lists(st.integers(2, 12), min_size=2, max_size=2)
    argv += ["--grid", *map(str, draw(_mostly(grid, st.just([1, 5]))))]
    for lo, hi in (("--u-min", "--u-max"), ("--v-min", "--v-max")):
        bounds = sorted(draw(st.lists(_NUMBERS.map(float), min_size=2, max_size=2)))
        for flag, x in zip((lo, hi), draw(_mostly(st.just(bounds), st.just(bounds[::-1])))):
            if draw(st.booleans()):
                argv += [flag, _number(x)]
    if command == "classify":
        argv += ["--profile", "{dir}/profile.csv"]
        if draw(st.booleans()):
            argv += ["--classify-tol", draw(_mostly(_KEY_VALUES["classify_tol"], _BAD))]
        return argv, files
    example = draw(_mostly(_KEY_VALUES["example"], st.sampled_from(["nope", None])))
    if example is not None:
        argv += ["--example", example]
    if command != "invariants" and draw(st.booleans()):
        argv += ["--singular-tol", draw(_mostly(_KEY_VALUES["singular_tol"], _BAD))]
    if command == "mesh" and draw(st.booleans()):
        argv += ["--markers"]
    return argv, files


@settings(max_examples=100, deadline=None)
@given(run=_cli_runs())
@example(run=(["singular", "--example", "cross_cap", "--grid", "5", "5", "--u-min", "-1e-05"], {}))
@example(run=(["classify", "--grid", "2", "2", "--profile", "{dir}/steep.csv"], {
    # numpy warns on the way to refusing this profile's frame
    "steep.csv": "u,h1,h2,h3,h4,h5,h6\n-1,0,0,0,0,0,0\n0,0,0,0,0,0,0\n0.00390625,0,0,1,0,0,0\n"}))
def test_fuzzed_runs_exit_0_2_3_or_4_with_one_error_line(tmp_path_factory, run):
    argv, files = run
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    for name, text in files.items():
        (work / name).write_text(text.replace("{dir}", str(work)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"H3FRAMES_OUT_DIR": str(work)}), \
            warnings.catch_warnings(record=True) as shown, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("default")  # as in a process of its own, which would print them
        code = main([arg.replace("{dir}", str(work)) for arg in argv])
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == "" and shown == []
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
