"""Command-line front door.

Subcommands evaluate the built-in examples (or an h-profile driven
horocyclic sweep), emit invariant grids as CSV, singularity reports,
flatness classifications, ball-model meshes, and convert points between
the hyperboloid, the ball model and the three-space obtained by dropping
a spacelike coordinate.

Each subcommand accepts only the settings its computation reads.  Every
output is deterministic and starts with '# key = value' comment lines:
the subcommand, each of its settings as resolved, facts of the run (the
config-file keys it ignored among them) and the tool version.  Exit
codes: 0 success, 2 geometric precondition failure, 3 I/O failure, 4 bad
arguments.

Library modules and numpy execute on first use, so a subcommand executes
only the modules its computation reads.  The front end -- argument
parsing, config files, settings, ``--help``, ``--version`` and the usage
errors they find -- executes none of them but ``errors`` (and ``fmt``,
with numpy, to print a tolerance it refuses); numpy executes with the
first library module a computation reads.  Importing this module still
registers all of them in ``sys.modules``, unexecuted: the benchmark's
tracer wraps functions only on modules it finds there.  This module reads
library code through module attributes at call time
(``singularities.singularity_scan(...)``), never through names bound at
import.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import math
import os
import re
import sys
import types
import warnings
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import CLASS_TOL, FRAME_TOL, REFINE_TOL, __version__
from .errors import GeometryError, PreconditionError


def _lazy(name: str) -> types.ModuleType:
    """Module ``name``, put in ``sys.modules`` now but executed when one of
    its attributes is first read (unless it was imported before)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


# Literal names: run as ``python -m h3frames.cli``, this module is __main__.
np = _lazy("numpy")
minkowski = _lazy("h3frames.minkowski")
surface = _lazy("h3frames.surface")
fmt = _lazy("h3frames.fmt")
frames = _lazy("h3frames.frames")
examples = _lazy("h3frames.examples")
singularities = _lazy("h3frames.singularities")
projections = _lazy("h3frames.projections")
horocyclic = _lazy("h3frames.horocyclic")

__all__ = ["main", "entry_point"]

#: Environment variable naming the default directory for relative outputs.
OUTPUT_DIR_ENV = "H3FRAMES_OUT_DIR"

_MODELS = ("h3", "disc", "r31")
_AXES = ("x2", "x3", "x4")
_MODEL_ARITY = {"h3": 4, "disc": 3, "r31": 3}


class _UsageError(Exception):
    """Bad command line, config file, or input data (exit code 4)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses -1e-3, -inf and -1., which %.17g writes
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):  # argparse would sys.exit(2); we want 4
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# settings: each declared once, for the subparsers, config files and headers
# ---------------------------------------------------------------------------


class _Setting:
    """One setting: its flag with the options of ``add_argument``, the
    subcommands whose computation reads it, and its value when neither the
    flag nor the config file sets it.  The flag sets ``keys`` (by default
    its own name; ``--grid NU NV`` sets ``nu`` and ``nv``), and each key is
    an attribute of the run's settings, a '# key = value' header line and,
    unless ``config`` is false, a config-file key.  A ``positive`` setting
    must be finite and positive."""

    def __init__(self, flag, commands, *, keys=None, default=None, config=True, positive=False,
                 **options):
        self.flag = flag
        self.dest = flag[2:].replace("-", "_")
        self.keys = (keys or self.dest).split()
        self.commands = commands.split()
        self.default = default
        self.config = config
        self.positive = positive
        self.options = options

    def parse(self, text: str):
        """The value of the config-file line ``key = text``."""
        if self.options.get("action") == "store_true":
            if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
                raise ValueError(f"expected a boolean, got {text!r}")
            return text.lower() in ("true", "1", "yes")
        val = self.options.get("type", str)(text)
        choices = self.options.get("choices")
        if choices and val not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return val


_EXAMPLE = "invariants singular mesh"
_SWEEP = _EXAMPLE + " classify"

#: Every setting, in the order of the header lines.
_SETTINGS = (
    _Setting("--example", _EXAMPLE, help="built-in example name or horocyclic:<csv>"),
    _Setting("--profile", "classify", help="h-profile CSV path"),
    _Setting("--u-min", _SWEEP, type=float),
    _Setting("--u-max", _SWEEP, type=float),
    _Setting("--v-min", _SWEEP, type=float),
    _Setting("--v-max", _SWEEP, type=float),
    _Setting("--grid", _SWEEP, keys="nu nv", nargs=2, type=int, metavar=("NU", "NV"),
             help="samples per direction"),
    _Setting("--singular-tol", "singular mesh", default=REFINE_TOL, positive=True, type=float,
             help="Newton stops, and a root is converged, below this |alpha| + |beta|"),
    _Setting("--classify-tol", "classify", default=CLASS_TOL, positive=True, type=float,
             help="zero threshold of the flatness classification"),
    _Setting("--output", _SWEEP + " project", help="output path (default stdout)"),
    _Setting("--markers", "mesh", default=False, action="store_true",
             help="embed refined singular points as point markers"),
    _Setting("--from", "project", config=False, required=True, choices=_MODELS),
    _Setting("--to", "project", config=False, required=True, choices=_MODELS),
    _Setting("--axis", "project", default="x4", choices=_AXES),
    _Setting("--point", "project", config=False, nargs="+", type=float, help="one point inline"),
    _Setting("--input", "project", config=False, help="file of whitespace-separated points"),
)

_CONFIG_KEYS = {key: s for s in _SETTINGS if s.config for key in s.keys}


def _read_config_file(path: str) -> dict:
    """Plain ``key = value`` lines; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = (s.strip() for s in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key].parse(val)
            except ValueError as exc:
                raise _UsageError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="h3frames", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"h3frames {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, run in _COMMANDS.items():
        # an unset flag stays out of the namespace, so the config file can fill it
        p = sub.add_parser(command, help=run.__doc__, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key = value defaults file")
        for s in _SETTINGS:
            if command in s.commands:
                p.add_argument(s.flag, **s.options)
    return parser


def _settings(argv: Optional[Sequence[str]]) -> tuple[argparse.Namespace, list[str]]:
    """The subcommand and each setting its computation reads, in header
    order: from its flag, else the config file, else the setting's default
    (None for the window and grid, which the example or profile gives).
    Also the config-file keys that only other subcommands read."""
    given = vars(_build_parser().parse_args(argv))
    command = given.pop("command")
    values = _read_config_file(given.pop("config")) if "config" in given else {}
    reads = [s for s in _SETTINGS if command in s.commands]
    ignored = [key for key in values if not any(key in s.keys for s in reads)]
    for s in reads:  # a flag beats the file
        if s.dest in given:
            values.update(zip(s.keys, given[s.dest] if len(s.keys) > 1 else [given[s.dest]]))
    settings = argparse.Namespace(command=command)
    for s in reads:
        for key in s.keys:
            val = values.get(key, s.default)
            if s.positive and not 0.0 < val < math.inf:  # else the run breaks
                raise _UsageError(f"{key} must be finite and positive, got {fmt.fmt(val)}")
            setattr(settings, key, val)
    return settings, ignored


def _text(val) -> str:
    """A header or report value: floats with 17 digits, lists space-separated."""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return fmt.fmt(val)
    if isinstance(val, list):
        return " ".join(map(_text, val))
    return "none" if val is None else str(val)


def _header(settings: argparse.Namespace, facts: dict) -> list[str]:
    """'# key = value' lines: the subcommand and its settings, the facts of
    the run, the tool version."""
    pairs = [*vars(settings).items(), *facts.items(), ("tool_version", __version__)]
    return [f"# {key} = {_text(val)}\n" for key, val in pairs]


def _domain(settings: argparse.Namespace, default: surface.Domain) -> surface.Domain:
    """The sampled domain of the settings' window and grid; each one unset
    is taken from ``default`` and recorded in the settings."""
    for key in ("u_min", "u_max", "v_min", "v_max", "nu", "nv"):
        if getattr(settings, key) is None:
            setattr(settings, key, getattr(default, key))
    return surface.Domain(
        settings.u_min, settings.u_max, settings.v_min, settings.v_max,
        nu=settings.nu, nv=settings.nv, u_period=default.u_period,
    )


def _load_example(settings: argparse.Namespace):
    if not settings.example:
        raise _UsageError("an example name is required (--example)")
    try:
        return examples.get_example(settings.example)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0]))


def _emit(blocks: Iterable[str], output: Optional[str]) -> None:
    """Write the output blocks to ``output``, or to stdout when it is None."""
    if output is None:
        sys.stdout.writelines(blocks)
        return
    path = Path(output)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(blocks)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


class _Blocks(list):
    """Output text, written block by block and emitted without joining, and
    the ``facts`` of the run that the header records after the settings."""

    def __init__(self, **facts):
        super().__init__()
        self.facts = facts

    write = list.append


def cmd_invariants(settings: argparse.Namespace) -> _Blocks:
    """invariant grid as CSV"""
    entry = _load_example(settings)
    dom = _domain(settings, entry.domain)
    # not a setting: the bound the residual footer is read against
    out = _Blocks(frame_tol=FRAME_TOL)
    summary = frames.write_invariants_csv(out, entry.framed, dom)
    out.write(
        "# residuals: max_gram = %s, max_offspan = %s, max_constraint = %s\n"
        % (
            fmt.fmt(summary.max_gram_residual),
            fmt.fmt(summary.max_offspan_residual),
            fmt.fmt(summary.max_constraint_residual),
        )
    )
    return out


def cmd_singular(settings: argparse.Namespace) -> _Blocks:
    """singularity report"""
    entry = _load_example(settings)
    dom = _domain(settings, entry.domain)
    reports = singularities.singularity_scan(entry.framed, dom, tol=settings.singular_tol)
    out = _Blocks()
    tols = singularities._tolerances(settings.singular_tol).items()
    out.write(f"# tolerances: {', '.join(f'{key} = {_text(val)}' for key, val in tols)}\n")
    out.write(f"points = {len(reports)}\n")
    for k, rep in enumerate(reports, 1):
        fields = rep.as_dict()
        fields.update(fields.pop("diagnostics"))
        del fields["refine_tol"]  # the header prints it
        out.write(f"\n[{k}]\n")
        out.extend(f"{key} = {_text(val)}\n" for key, val in fields.items())
    return out


def cmd_mesh(settings: argparse.Namespace) -> _Blocks:
    """ball-model polygon mesh"""
    entry = _load_example(settings)
    dom = _domain(settings, entry.domain)
    markers = None
    if settings.markers:
        roots, _ = singularities.find_singular_points(entry.framed, dom, tol=settings.singular_tol)
        markers = [(u, v) for u, v, _ in roots]
    out = _Blocks()
    projections.write_disc_mesh(out, entry.framed, dom, markers=markers)
    return out


def cmd_classify(settings: argparse.Namespace) -> _Blocks:
    """flatness classes"""
    if not settings.profile:
        raise _UsageError("classify needs an h-profile (--profile)")
    profile = horocyclic.load_h_profile(settings.profile)
    h_form = horocyclic.classify_horocyclic(profile.values, tol=settings.classify_tol)

    dom = _domain(settings, profile.domain())
    fs = horocyclic.build_horocyclic(profile.curve_frame(), dom)
    inv_form = horocyclic.invariant_form_classify(
        frames.invariant_field(fs), dom, tol=settings.classify_tol
    )

    out = _Blocks()
    out.write(f"h_form = {h_form.tag.value}\n")
    out.write(f"invariant_form = {inv_form.tag.value}\n")
    agree = h_form.tag is inv_form.tag
    out.write(f"agree = {'true' if agree else 'false'}\n")
    if h_form.two_vertex_ratio is not None:
        out.write(f"two_vertex_ratio = {fmt.fmt(h_form.two_vertex_ratio)}\n")
    return out


def _convert_points(x: np.ndarray, frm: str, to: str, axis: projections.Axis) -> np.ndarray:
    """Convert a component-first stack of points between models."""
    if frm == "disc":
        x = projections.from_poincare(x)
    elif frm == "r31":
        q, lifted, r, bound, rises, ok = projections._lift(x, axis)  # the rule of lift_from_r31
        k = surface.first_true(~ok)
        if k is not None:
            why = (f"q - 1 = {q[k] - 1.0:.3e} is not above LIFT_MARGIN = {projections.LIFT_MARGIN}" if not rises[k]
                   else "its lift is off H^3: " + minkowski._h3_fault(r[k], bound[k], lifted[0, k]))
            raise PreconditionError(f"point does not lift: ({' '.join(map(fmt.fmt, x[:, k]))}) has q = x1^2 - x2^2 - "
                                    f"x3^2 = {fmt.fmt(q[k])} and lifts to x1 = {fmt.fmt(x[0, k])}; {why}")
        x = lifted
    elif to != "disc":
        projections.to_poincare(x)  # h3 input must lie on the upper sheet, whatever the target
    if to == "disc":
        return projections.to_poincare(x)
    if to == "r31":
        return projections._drop(x, axis)
    return x


def _checked_points(rows: Sequence[Sequence[float]], frm: str, where: Callable[[int], str]) -> np.ndarray:
    """The rows as an (n, arity) array of ``frm`` points; ``where(k)`` names
    row k in the message that refuses a non-finite coordinate."""
    arity = _MODEL_ARITY[frm]
    for row in rows:
        if len(row) != arity:
            raise _UsageError(f"{frm} points have {arity} coordinates, got {row}")
    coords = np.array(rows, dtype=float).reshape(-1, arity)
    k = surface.first_true(~np.isfinite(coords).all(axis=1))
    if k is not None:
        raise _UsageError(f"{where(k)}: non-finite coordinate in {rows[k]}")
    return coords


def _parse_points(lines: Sequence[str], path: str, frm: str) -> np.ndarray:
    """The points of a file's lines, one line at a time with ``float``:
    every message names the line at fault."""
    rows, linenos = [], []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([float(c) for c in line.split()])
        except ValueError:
            raise _UsageError(f"{path}:{lineno}: malformed point")
        linenos.append(lineno)
    return _checked_points(rows, frm, lambda k: f"{path}:{linenos[k]}")


def _read_points(path: str, frm: str) -> np.ndarray:
    """The points of a file, read once.  ``np.loadtxt`` parses well-formed
    lines in bulk; lines it refuses, or whose rows are none or would be
    refused, go through :func:`_parse_points`, which gives the same values
    and names the line at fault.  loadtxt gets the lines, never the path:
    given a path it would fetch URLs and open compressed siblings."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            coords = np.loadtxt(lines, comments="#", ndmin=2)
        except ValueError:
            coords = None
    if coords is None or not (
        len(coords) and coords.shape[1] == _MODEL_ARITY[frm] and np.isfinite(coords).all()
    ):
        return _parse_points(lines, path, frm)
    return coords


def cmd_project(settings: argparse.Namespace) -> _Blocks:
    """convert points between models"""
    frm, to = getattr(settings, "from"), settings.to  # 'from' is a keyword
    if frm == to:
        raise _UsageError("--from and --to must differ")
    if (settings.point is None) == (settings.input is None):
        raise _UsageError("give exactly one of --point or --input")

    if settings.point is not None:
        coords = _checked_points([settings.point], frm, lambda k: "--point")
    else:
        coords = _read_points(settings.input, frm)

    out = _Blocks(points=len(coords))
    axis = projections.Axis[settings.axis.upper()]
    out.extend(fmt.fmt_rows(_convert_points(coords.T, frm, to, axis).T))
    return out


_COMMANDS = {run.__name__[4:]: run for run in (cmd_invariants, cmd_singular, cmd_mesh, cmd_classify,
                                                cmd_project)}


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        # a failed run writes its one error line, not the warnings on the way
        with warnings.catch_warnings(record=True) as caught:
            settings, ignored = _settings(argv)
            out = _COMMANDS[settings.command](settings)
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        if ignored:
            out.facts["ignored"] = ", ".join(ignored)
        _emit(itertools.chain(_header(settings, out.facts), out), settings.output)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # GeometryError is a ValueError; order matters
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'no detail'}); try a smaller --grid", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
