"""Every name a semlink module lists in __all__ is defined in that module, so
a deletion that leaves a stale entry fails here, not at a star-import.  Every
name a module (not the package's __init__, which re-exports) imports is used
there, so a deletion that leaves a stale import fails here too.  The module
dependencies kept out on purpose stay out."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{name} imports unused names {sorted(imported - used)}"


def _imported_modules(path: Path) -> set:
    """Every module path a file imports, with each from-imported name appended."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["semlink" if node.level else "", node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_sharing_does_not_import_the_link_module():
    # multi-user transport reaches the channel through semlink.channel alone
    imported = _imported_modules(Path(semlink.__path__[0]) / "sharing.py")
    assert "semlink.channel" in imported
    assert not {m for m in imported if m == "semlink.link" or m.startswith("semlink.link.")}
