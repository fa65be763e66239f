"""Every public name a module of the package declares is importable, and
its tolerance and step knobs are the allowed ones."""

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
