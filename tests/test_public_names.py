"""Every public name the package declares resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import n2sid

MODULES = sorted(f"n2sid.{info.name}" for info in pkgutil.iter_modules(n2sid.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(n2sid.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        source = importlib.import_module(f"n2sid.{node.module}")
        for alias in node.names:
            assert getattr(n2sid, alias.asname or alias.name) is getattr(source, alias.name)
            # a re-exported name is public where it is defined
            assert alias.name in getattr(source, "__all__", [alias.name]), (node.module, alias.name)
