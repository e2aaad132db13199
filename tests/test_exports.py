import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import thomplink

MODULES = sorted(m.name for m in pkgutil.iter_modules(thomplink.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"thomplink.{name}")
    names = getattr(module, "__all__", [])  # the cli module declares none
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    # every name the package imports from its modules, read off its source
    tree = ast.parse(Path(thomplink.__file__).read_text())
    imported = [
        (node.module, alias)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, alias in imported:
        assert hasattr(importlib.import_module(f"thomplink.{module}"), alias.name)
        assert hasattr(thomplink, alias.asname or alias.name)
        assert (alias.asname or alias.name) in thomplink.__all__
