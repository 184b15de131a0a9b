import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import popuc

MODULES = sorted(info.name for info in pkgutil.iter_modules(popuc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"popuc.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    """Each module-level import is read somewhere in its module or re-exported."""
    tree = ast.parse(Path(popuc.__path__[0], f"{name}.py").read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(importlib.import_module(f"popuc.{name}"), "__all__", ()))
    assert sorted(imported - used - exported) == []
