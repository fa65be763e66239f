"""Command-line front door.

Subcommands evaluate the built-in examples (or an h-profile driven
horocyclic sweep), emit invariant grids as CSV, singularity reports,
flatness classifications, ball-model meshes, and convert points between
the hyperboloid, the ball model and the three-space obtained by dropping
a spacelike coordinate.

Everything is deterministic: identical resolved configuration produces
byte-identical output, and every output starts with the resolved
configuration as '# key = value' comment lines.  Exit codes: 0 success,
2 geometric precondition failure, 3 I/O failure, 4 bad arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .errors import GeometryError, PreconditionError
from .examples import get_example
from .fmt import fmt, fmt_rows
from .frames import FRAME_TOL, invariant_field, verify_framed, write_invariants_csv
from .horocyclic import (
    CLASS_TOL,
    build_horocyclic,
    classify_horocyclic,
    invariant_form_classify,
    load_h_profile,
)
from .minkowski import minkowski_dot3, minkowski_dot4
from .projections import ON_H3_TOL, Axis, from_poincare, to_poincare, write_disc_mesh
from .singularities import (
    CORANK_TOL,
    D_TOL,
    HESS_TOL,
    PAIR_TOL,
    REFINE_TOL,
    find_singular_points,
    singularity_scan,
)
from .surface import Domain, components, first_true

__all__ = ["RunConfig", "main", "entry_point"]

#: Environment variable naming the default directory for relative outputs.
OUTPUT_DIR_ENV = "H3FRAMES_OUT_DIR"

_MODELS = ("h3", "disc", "r31")
_AXES = ("x2", "x3", "x4")
_MODEL_ARITY = {"h3": 4, "disc": 3, "r31": 3}


class _UsageError(Exception):
    """Bad command line, config file, or input data (exit code 4)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 4
        raise _UsageError(message)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; no field is left implicit."""

    command: str
    example: Optional[str]
    profile: Optional[str]
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    nu: int
    nv: int
    frame_tol: float
    singular_tol: float
    classify_tol: float
    output: Optional[str]

    def header_lines(self, extra: Sequence[tuple[str, object]] = ()) -> list[str]:
        pairs = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)]
        pairs += list(extra)
        lines = []
        for key, val in pairs:
            if isinstance(val, bool):
                txt = "true" if val else "false"
            elif isinstance(val, float):
                txt = fmt(val)
            elif val is None:
                txt = "none"
            else:
                txt = str(val)
            lines.append(f"{key} = {txt}")
        lines.append(f"tool_version = {__version__}")
        return lines


# ---------------------------------------------------------------------------
# argument and config-file plumbing
# ---------------------------------------------------------------------------

_KEY_TYPES = {
    "example": str,
    "profile": str,
    "u_min": float,
    "u_max": float,
    "v_min": float,
    "v_max": float,
    "nu": int,
    "nv": int,
    "frame_tol": float,
    "singular_tol": float,
    "classify_tol": float,
    "output": str,
    "markers": bool,
    "axis": str,
}

_TOL_DEFAULTS = {
    "frame_tol": FRAME_TOL,
    "singular_tol": REFINE_TOL,
    "classify_tol": CLASS_TOL,
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


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
            if key not in _KEY_TYPES:
                raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            caster = _parse_bool if _KEY_TYPES[key] is bool else _KEY_TYPES[key]
            try:
                values[key] = caster(val)
            except ValueError as exc:
                raise _UsageError(f"{path}:{lineno}: bad value for {key}: {exc}")
            if key == "axis" and val not in _AXES:
                raise _UsageError(f"{path}:{lineno}: bad value for axis: expected one of {', '.join(_AXES)}")
    return values


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key = value defaults file")
    common.add_argument("--example", help="built-in example name or horocyclic:<csv>")
    common.add_argument("--u-min", dest="u_min", type=float)
    common.add_argument("--u-max", dest="u_max", type=float)
    common.add_argument("--v-min", dest="v_min", type=float)
    common.add_argument("--v-max", dest="v_max", type=float)
    common.add_argument(
        "--grid", nargs=2, type=int, metavar=("NU", "NV"), help="samples per direction"
    )
    common.add_argument("--frame-tol", dest="frame_tol", type=float,
                        help="bound recorded for the residual footer; changes no computation")
    common.add_argument("--singular-tol", dest="singular_tol", type=float,
                        help="Newton stops, and a root is converged, below this |alpha| + |beta|")
    common.add_argument("--classify-tol", dest="classify_tol", type=float,
                        help="zero threshold of the flatness classification")
    common.add_argument("--output", help="output path (default stdout)")

    parser = _Parser(prog="h3frames", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"h3frames {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("invariants", parents=[common], help="invariant grid as CSV")
    sub.add_parser("singular", parents=[common], help="singularity report")
    mesh = sub.add_parser("mesh", parents=[common], help="ball-model polygon mesh")
    mesh.add_argument(
        "--markers",
        action="store_true",
        default=None,
        help="embed refined singular points as point markers",
    )
    classify = sub.add_parser("classify", parents=[common], help="flatness classes")
    classify.add_argument("--profile", help="h-profile CSV path")
    project = sub.add_parser(
        "project", parents=[common], help="convert points between models"
    )
    project.add_argument("--from", dest="frm", choices=_MODELS, required=True)
    project.add_argument("--to", dest="to", choices=_MODELS, required=True)
    project.add_argument("--axis", choices=_AXES)
    project.add_argument("--point", nargs="+", type=float, help="one point inline")
    project.add_argument("--input", help="file of whitespace-separated points")
    return parser


def _resolve_config(args: argparse.Namespace, dom: Domain) -> RunConfig:
    """The run configuration from the flags and config-file values already
    in ``args``; what neither sets comes from the default domain ``dom``
    and the module tolerance constants."""
    vals = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    defaults = {
        "u_min": dom.u_min, "u_max": dom.u_max, "v_min": dom.v_min, "v_max": dom.v_max,
        "nu": dom.nu, "nv": dom.nv, **_TOL_DEFAULTS,
    }
    for key, default in defaults.items():
        if vals[key] is None:
            vals[key] = default
    for key in _TOL_DEFAULTS:
        if not 0.0 < vals[key] < np.inf:  # a zero, negative or non-finite tolerance breaks the run
            raise _UsageError(f"{key} must be finite and positive, got {fmt(vals[key])}")
    return RunConfig(**vals)


def _config_domain(cfg: RunConfig, template: Optional[Domain]) -> Domain:
    period = template.u_period if template is not None else None
    return Domain(
        cfg.u_min, cfg.u_max, cfg.v_min, cfg.v_max,
        nu=cfg.nu, nv=cfg.nv, u_period=period,
    )


def _load_example(args: argparse.Namespace):
    """The example must be known before defaults resolve (domain comes from it)."""
    if not args.example:
        raise _UsageError("an example name is required (--example)")
    try:
        return get_example(args.example)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0]))


def _emit(blocks: Sequence[str], output: Optional[str]) -> None:
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
    """Output text: the resolved configuration as '# key = value' lines,
    then blocks written one by one and emitted without joining."""

    def __init__(self, cfg: RunConfig, extra: Sequence[tuple[str, object]] = ()):
        super().__init__(f"# {line}\n" for line in cfg.header_lines(extra))

    write = list.append


def cmd_invariants(cfg: RunConfig, entry) -> _Blocks:
    dom = _config_domain(cfg, entry.framed.domain)
    summary = verify_framed(entry.framed, dom)  # before the CSV text holds memory
    out = _Blocks(cfg)
    write_invariants_csv(out, entry.framed, dom)
    out.write(
        "# residuals: max_gram = %s, max_offspan = %s, max_constraint = %s\n"
        % (
            fmt(summary.max_gram_residual),
            fmt(summary.max_offspan_residual),
            fmt(summary.max_constraint_residual),
        )
    )
    return out


_DIAG_SCALARS = ("alpha", "beta", "D", "hess_phi")


def cmd_singular(cfg: RunConfig, entry) -> _Blocks:
    dom = _config_domain(cfg, entry.framed.domain)
    reports = sorted(singularity_scan(entry.framed, dom, tol=cfg.singular_tol), key=lambda r: (r.u, r.v))
    out = _Blocks(cfg)
    out.write(
        "# tolerances: refine = %s, corank = %s, D = %s, hess = %s, pair = %s\n"
        % tuple(fmt(t) for t in (cfg.singular_tol, CORANK_TOL, D_TOL, HESS_TOL, PAIR_TOL))
    )
    out.write(f"points = {len(reports)}\n")
    for k, rep in enumerate(reports, 1):
        d = rep.diagnostics
        out.write(f"\n[{k}]\n")
        out.write(f"u = {fmt(rep.u)}\n")
        out.write(f"v = {fmt(rep.v)}\n")
        out.write(f"classification = {rep.classification.value}\n")
        for name in _DIAG_SCALARS:
            out.write(f"{name} = {fmt(getattr(d, name))}\n")
        for name in ("a_pair", "b_pair", "c_pair", "independence_pair"):
            pair = getattr(d, name)
            out.write(f"{name} = {fmt(pair[0])} {fmt(pair[1])}\n")
        out.write(f"newton_iters = {d.newton_iters}\n")
        out.write(f"converged = {'true' if d.converged else 'false'}\n")
    return out


def cmd_mesh(cfg: RunConfig, entry, markers: bool) -> _Blocks:
    dom = _config_domain(cfg, entry.framed.domain)
    marker_pts = None
    if markers:
        marker_pts = find_singular_points(entry.framed, dom, tol=cfg.singular_tol)
    out = _Blocks(cfg, [("markers", markers)])
    write_disc_mesh(out, entry.framed, dom, markers=marker_pts)
    return out


def cmd_classify(cfg: RunConfig, profile) -> _Blocks:
    h_form = classify_horocyclic(profile.values, tol=cfg.classify_tol)

    dom = _config_domain(cfg, None)
    fs = build_horocyclic(profile.curve_frame(), dom)
    inv_form = invariant_form_classify(
        invariant_field(fs), dom, tol=cfg.classify_tol
    )

    out = _Blocks(cfg)
    out.write(f"h_form = {h_form.tag.value}\n")
    out.write(f"invariant_form = {inv_form.tag.value}\n")
    agree = h_form.tag is inv_form.tag
    out.write(f"agree = {'true' if agree else 'false'}\n")
    if h_form.two_vertex_ratio is not None:
        out.write(f"two_vertex_ratio = {fmt(h_form.two_vertex_ratio)}\n")
    return out


def _convert_points(x: np.ndarray, frm: str, to: str, axis: Axis) -> np.ndarray:
    """Convert a component-first stack of points between models."""
    if frm == "disc":
        x = from_poincare(x)
    elif frm == "r31":
        i = axis.index
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are refused below
            q = -minkowski_dot3(x, x)  # x1^2 - x2^2 - x3^2
            lifted = components(*x[:i], np.sqrt(q - 1.0), *x[i:])
            r = minkowski_dot4(lifted, lifted)  # -1 up to rounding, which grows with x1^2
        k = first_true(~(np.isfinite(q) & (q > 1.0) & (abs(r + 1.0) <= ON_H3_TOL)))
        if k is not None:
            raise PreconditionError(
                f"point does not lift: ({' '.join(map(fmt, x[:, k]))}) has x1^2 - x2^2 - x3^2 = "
                f"{fmt(q[k])} and lifts to <x,x> = {fmt(r[k])}, not a finite number > 1 "
                f"and -1 within {ON_H3_TOL}"
            )
        x = lifted
    elif to != "disc":
        to_poincare(x)  # h3 input must lie on the upper sheet, whatever the target
    if to == "disc":
        return to_poincare(x)
    if to == "r31":
        return np.delete(x, axis.index, axis=0)
    return x


def cmd_project(cfg: RunConfig, args: argparse.Namespace, axis: Axis) -> _Blocks:
    frm, to = args.frm, args.to
    if frm == to:
        raise _UsageError("--from and --to must differ")
    if (args.point is None) == (args.input is None):
        raise _UsageError("give exactly one of --point or --input")

    arity = _MODEL_ARITY[frm]
    rows, linenos = [], []
    if args.point is not None:
        rows.append(list(args.point))
    else:
        with open(args.input, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    rows.append([float(c) for c in line.split()])
                except ValueError:
                    raise _UsageError(f"{args.input}:{lineno}: malformed point")
                linenos.append(lineno)
    for row in rows:
        if len(row) != arity:
            raise _UsageError(f"{frm} points have {arity} coordinates, got {row}")
    coords = np.array(rows, dtype=float).reshape(-1, arity)
    k = first_true(~np.isfinite(coords).all(axis=1))
    if k is not None:
        where = "--point" if args.point is not None else f"{args.input}:{linenos[k]}"
        raise _UsageError(f"{where}: non-finite coordinate in {rows[k]}")

    extra = [("from", frm), ("to", to), ("axis", axis.name.lower()), ("input", args.input), ("points", len(rows))]
    out = _Blocks(cfg, extra)
    out.extend(fmt_rows(_convert_points(coords.T, frm, to, axis).T))
    return out


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.nu, args.nv = args.grid or (None, None)
        if args.config:  # file values fill what no flag set
            for key, val in _read_config_file(args.config).items():
                if getattr(args, key, None) is None:
                    setattr(args, key, val)
        if args.command in ("invariants", "singular", "mesh"):
            entry = _load_example(args)
            cfg = _resolve_config(args, entry.framed.domain)
            if args.command == "invariants":
                out = cmd_invariants(cfg, entry)
            elif args.command == "singular":
                out = cmd_singular(cfg, entry)
            else:
                out = cmd_mesh(cfg, entry, bool(args.markers))
        elif args.command == "classify":
            if not args.profile:
                raise _UsageError("classify needs an h-profile (--profile)")
            prof = load_h_profile(args.profile)
            cfg = _resolve_config(args, prof.domain())
            out = cmd_classify(cfg, prof)
        elif args.command == "project":
            unit = Domain(0.0, 1.0, 0.0, 1.0, nu=2, nv=2)  # unused placeholder
            cfg = _resolve_config(args, unit)
            out = cmd_project(cfg, args, Axis[(args.axis or "x4").upper()])
        else:  # pragma: no cover - argparse enforces the choices
            raise _UsageError(f"unknown command {args.command!r}")
        _emit(out, cfg.output)
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
