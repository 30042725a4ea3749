"""Every name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import latticewaves as lw

MODULES = ["latticewaves"] + [
    "latticewaves." + info.name for info in pkgutil.iter_modules(lw.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
