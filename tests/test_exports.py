"""Every public name a module of the package declares is importable, and
its tolerance and step knobs and its defaulted parameters are the allowed
ones."""

import ast
import dataclasses
import graphlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import h3frames
from h3frames.frames import FramedSurface
from h3frames.surface import ParametricMap4

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
    "cli.main(argv)",
    "fmt.fmt_rows(prefix)",
    "fmt.fmt_rows(sep)",
    "frames.integrability_residuals(h)",
    "horocyclic.classify_horocyclic(tol)",
    "horocyclic.integrate_frame_curves(step)",
    "horocyclic.invariant_form_classify(tol)",
    "minkowski.causal_character(tol)",
    "projections.lift_from_r31(lminus)",
    "projections.lift_from_r31(lplus)",
    "projections.write_disc_mesh(markers)",
    "singularities.classify_singularity(newton_iters)",
    "singularities.classify_singularity(refine_tol)",
    "singularities.find_singular_points(tol)",
    "singularities.singularity_scan(tol)",
    "surface.Domain.contains(margin)",
}


def _public_functions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """``(name, node)`` of each function in ``__all__`` and each public
    method of a class in it, the method named ``Class.method``."""
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
    return functions


def _options(module: str, tree: ast.Module) -> set[str]:
    found = set()
    for owner, fn in _public_functions(tree):
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
    assert len(OPTIONS) == 16


#: Entries of the ``geometry`` fixture's table (tests/conftest.py) that no
#: annotation finds: ``frame_from_normal`` takes maps, the horocyclic calls
#: take curves or vectors of a curve frame, the ball-model point maps points.
BY_HAND = {
    "frames.frame_from_normal",
    "horocyclic.extract_h",
    "horocyclic.integrate_frame_curves",
    "projections.from_poincare",
    "projections.to_poincare",
}

_SURFACE_TYPES = {"FramedSurface", "FrameAt", "FieldLike"}


def _surface_calls(module: str, tree: ast.Module) -> set[str]:
    """The public functions and methods of ``module`` with a parameter
    annotated by one of :data:`_SURFACE_TYPES`, alone or inside a type."""
    found = set()
    for owner, fn in _public_functions(tree):
        a = fn.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            if arg.annotation and {getattr(n, "id", None) for n in ast.walk(arg.annotation)} & _SURFACE_TYPES:
                found.add(f"{module}.{owner}")
    return found


def test_every_call_that_takes_a_framed_surface_declares_its_geometry(geometry):
    found = set()
    for path in sorted(Path(h3frames.__path__[0]).glob("*.py")):
        found |= _surface_calls(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert found == geometry.keys() - BY_HAND
    assert BY_HAND <= geometry.keys()
    assert set(geometry.values()) == {"either", "H^3", "R^3"}


def test_framed_surfaces_are_their_three_maps():
    # the sampling window is an argument of each call that samples
    assert [f.name for f in dataclasses.fields(FramedSurface)] == ["x", "nu1", "nu2"]


def test_maps_are_a_value_and_its_closed_firsts():
    # the two first partials are one callable, so they cannot come unpaired
    assert [f.name for f in dataclasses.fields(ParametricMap4)] == ["value", "firsts"]


def _package_imports(tree: ast.Module) -> set[str]:
    """Modules of the package that a module imports anywhere in its source,
    inside functions too: ``from . import x`` names the module ``x`` when
    there is one, and the package otherwise."""
    package = h3frames.__name__
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join([package] + ([node.module] if node.module else []))
            elif (node.module or "").split(".")[0] == package:
                base = node.module
            else:
                continue
            subs = {f"{base}.{a.name}" for a in node.names} & set(MODULES)
            found |= subs or {base}
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.split(".")[0] == package}
    return found


def test_package_imports_have_no_cycle():
    # a cycle makes the import order matter and hides which module owns
    # what; prepare() raises CycleError naming the cycle
    graph = {
        f"{h3frames.__name__}.{path.stem}".removesuffix(".__init__"):
            _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(Path(h3frames.__path__[0]).glob("*.py"))
    }
    graphlib.TopologicalSorter(graph).prepare()


#: Tolerances of geometric checks.  A comparison reads each only through
#: ``minkowski._bound``, which holds it to the size of what is compared.
_TOLERANCES = ("ON_H3_TOL", "LIFT_MARGIN", "ORTHONORMAL_TOL", "NORMALIZATION_TOL", "CAUSAL_TOL",
               "FRAME_TOL", "GRAM_DEGENERATE_TOL")

#: The comparisons that read a tolerance bare, each with its reason.
_ABSOLUTE = {
    ("frames.basic_invariants", "GRAM_DEGENERATE_TOL"):
        "extraction is absolute: it bounds the error of the invariants it returns",
    ("frames._reduction_arrays", "FRAME_TOL"): "an invariant tolerance, in units of the parameter scale",
    ("frames.family_curvatures", "FRAME_TOL"): "an invariant tolerance, in units of the parameter scale",
    ("projections._fallback_normal", "NORMALIZATION_TOL"): "a choice among candidates, not a refusal",
    ("projections._lift", "LIFT_MARGIN"): "a margin on the lift's squared height q - 1; _on_h3 then judges the "
        "lift relative to its size, and scaled by |(x2, x3)|^2 the margin refused lifts 500 times above q's rounding",
}


def _bare_reads(node) -> set[str]:
    """Names read under ``node``, as variables or attributes, outside any
    call of ``_bound``."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_bound":
        return set()
    own = {getattr(node, "id", None), getattr(node, "attr", None)} - {None}
    return own.union(*(_bare_reads(child) for child in ast.iter_child_nodes(node)))


def _comparing(names, tree: ast.Module) -> set[tuple[str, str]]:
    """``(owner, name)`` for each of ``names`` that a comparison reads bare,
    owner the innermost function (``<module>`` outside any) holding it."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare):
                found.update((owner, name) for name in _bare_reads(child) & set(names))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, "<module>")
    return found


def test_every_tolerance_is_compared_through_its_bound():
    # every input precondition judges its residual against _bound(tol,
    # ...), so H^3 membership (of lifts too), the normals' checks, the
    # curve frame, the transports' normalization and the spacelike
    # projection scale alike with the size of their inputs; _ABSOLUTE
    # names the rest
    found = set()
    for path in sorted(Path(h3frames.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(f"{path.stem}.{owner}", name) for owner, name in _comparing(_TOLERANCES, tree)}
    assert found == set(_ABSOLUTE)
