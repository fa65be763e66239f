"""Every public name a module of the package declares is importable."""

import importlib
import pkgutil

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
