"""Tests for the package surface: every name a module exports resolves."""
import importlib
import pkgutil

import pytest

import directseek

MODULES = [m.name for m in pkgutil.iter_modules(directseek.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"directseek.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
