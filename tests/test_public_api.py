"""Every name a semlink module lists in __all__ is defined in that module, so
a deletion that leaves a stale entry fails here, not at a star-import."""

import importlib
import pkgutil

import pytest

import semlink

MODULES = sorted(m.name for m in pkgutil.iter_modules(semlink.__path__, "semlink."))


def test_modules_found():
    assert "semlink.tensor" in MODULES and "semlink.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
