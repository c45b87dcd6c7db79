"""Tests for the package surface: every name a module exports resolves,
and every name a module imports is used."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import directseek

MODULES = [m.name for m in pkgutil.iter_modules(directseek.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"directseek.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def _unused_imports(path) -> list[str]:
    """Names the module at ``path`` imports but neither reads nor lists in
    ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read | exported]


# `__init__` is exempt: its imports are the package's re-exports.
SOURCES = sorted(p for p in Path(directseek.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_import_is_used(path):
    assert _unused_imports(path) == []
