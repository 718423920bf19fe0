"""Every name in a module's ``__all__`` resolves, so ``import *`` works, and the
input rules stay in ``noise.py``."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import shakyladder

MODULES = ["shakyladder", *(f"shakyladder.{info.name}"
                            for info in pkgutil.iter_modules(shakyladder.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


@pytest.mark.parametrize("name", [name for name in MODULES if name != "shakyladder.noise"])
def test_finiteness_is_checked_only_in_noise(name):
    # a noise level or scale is checked by the rules in noise.py, not by a
    # local math.isfinite or np.isfinite
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "isfinite"
             or isinstance(node, ast.Name) and node.id == "isfinite"
             or isinstance(node, ast.alias) and node.name == "isfinite"]
    assert calls == []
