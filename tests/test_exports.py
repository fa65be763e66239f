"""Every public name a module of the package declares is importable, and
its tolerance and step knobs and its defaulted parameters are the allowed
ones."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import h3frames

MODULES = sorted(m.name for m in pkgutil.iter_modules(h3frames.__path__, "h3frames."))


def test_modules_are_found():
    assert "h3frames.surface" in MODULES and "h3frames.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()


#: Every public parameter or dataclass field that reads like a tolerance or
#: a step (named h, h1, h2, step or margin, or containing "tol"), as
#: module.function(parameter) or module.Class.field.  A new one must be
#: added here on purpose: a knob that no caller sets belongs in a constant.
KNOBS = {
    "cli.RunConfig.classify_tol",
    "cli.RunConfig.frame_tol",
    "cli.RunConfig.singular_tol",
    "frames.IntegrabilityResiduals.h",
    "frames.integrability_residuals(h)",
    "frames.integrate_frame_along_line(step)",
    "frames.invariant_partials(h)",
    "horocyclic.HorocyclicData.h",
    "horocyclic.classify_horocyclic(tol)",
    "horocyclic.integrate_frame_curves(step)",
    "horocyclic.invariant_form_classify(tol)",
    "minkowski.causal_character(tol)",
    "singularities.SingularityDiagnostics.refine_tol",
    "singularities.classify_singularity(refine_tol)",
    "singularities.find_singular_points(tol)",
    "singularities.singularity_scan(tol)",
    "surface.Domain.contains(margin)",
    "surface.OnH3Report.ok(tol)",
}


def _is_knob(name: str) -> bool:
    return name in {"h", "h1", "h2", "step", "margin"} or "tol" in name


def _knobs(module: str, tree: ast.Module) -> set[str]:
    public = next(
        (ast.literal_eval(n.value) for n in tree.body
         if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets)),
        [],
    )
    found = set()

    def params(fn, owner):
        a = fn.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]:
            if _is_knob(arg.arg):
                found.add(f"{module}.{owner}({arg.arg})")

    for node in tree.body:
        if getattr(node, "name", None) not in public:
            continue
        if isinstance(node, ast.FunctionDef):
            params(node, node.name)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and _is_knob(getattr(item.target, "id", "")):
                    found.add(f"{module}.{node.name}.{item.target.id}")
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    params(item, f"{node.name}.{item.name}")
    return found


def test_public_tolerance_and_step_knobs_are_the_allowed_ones():
    found = set()
    for path in sorted(Path(h3frames.__path__[0]).glob("*.py")):
        found |= _knobs(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert found == KNOBS


#: Every parameter with a default value, and every ``**kwargs``, of the
#: public functions and methods, as module.function(parameter).  An option
#: that no caller sets is dead weight: a new one must be added here on
#: purpose, with a caller.
OPTIONS = {
    "cli.RunConfig.header_lines(extra)",
    "cli.main(argv)",
    "fmt.fmt_rows(prefix)",
    "fmt.fmt_rows(sep)",
    "frames.frame_from_normal(domain)",
    "frames.integrability_residuals(domain)",
    "frames.integrability_residuals(h)",
    "frames.invariants_grid(domain)",
    "frames.reduction_type_grid(domain)",
    "frames.verify_framed(domain)",
    "frames.write_invariants_csv(domain)",
    "horocyclic.classify_horocyclic(tol)",
    "horocyclic.integrate_frame_curves(step)",
    "horocyclic.invariant_form_classify(tol)",
    "minkowski.causal_character(tol)",
    "projections.lift_from_r31(domain)",
    "projections.lift_from_r31(lminus)",
    "projections.lift_from_r31(lplus)",
    "projections.lightcone_residual(domain)",
    "projections.project_to_r31(domain)",
    "projections.verify_disc_framed(domain)",
    "projections.write_disc_mesh(domain)",
    "projections.write_disc_mesh(markers)",
    "singularities.classify_singularity(newton_iters)",
    "singularities.classify_singularity(refine_tol)",
    "singularities.find_singular_points(domain)",
    "singularities.find_singular_points(full_output)",
    "singularities.find_singular_points(tol)",
    "singularities.singularity_scan(domain)",
    "singularities.singularity_scan(tol)",
    "surface.Domain.contains(margin)",
}


def _options(module: str, tree: ast.Module) -> set[str]:
    public = next(
        (ast.literal_eval(n.value) for n in tree.body
         if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets)),
        [],
    )
    functions = []
    for node in tree.body:
        if getattr(node, "name", None) not in public:
            continue
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{item.name}", item) for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    found = set()
    for owner, fn in functions:
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):]
        defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        found |= {f"{module}.{owner}({arg.arg})" for arg in defaulted}
        if a.kwarg:
            found.add(f"{module}.{owner}(**{a.kwarg.arg})")
    return found


def test_public_defaulted_parameters_are_the_allowed_ones():
    found = set()
    for path in sorted(Path(h3frames.__path__[0]).glob("*.py")):
        found |= _options(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert found == OPTIONS
    assert len(OPTIONS) == 31
