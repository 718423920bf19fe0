"""Every name in a module's ``__all__`` resolves, so ``import *`` works."""

import importlib
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
