"""Public API surface: every exported name resolves, so a deletion cannot
leave a stale export behind."""

import importlib
import pkgutil

import pytest

import attocell

MODULES = ["attocell", *(f"attocell.{m.name}" for m in pkgutil.iter_modules(attocell.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from attocell import *", namespace)
    assert set(attocell.__all__) <= set(namespace)
