import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import popuc
from test_tracing import _load_tracing

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


ROOT = Path(__file__).resolve().parents[1]


def _traced_names():
    """The names perfbench/tracing.py wraps."""
    tracing = _load_tracing()
    return set(tracing.SPANS + tracing.TIMED_LEAVES + tracing.COUNTED)


def _public_definitions():
    """(qualified name, path, node) of each public function, class and method in src/popuc."""
    for path in sorted(Path(popuc.__path__[0]).glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", path, node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", path, item


def _readers():
    """name -> [(path, line)] of each Name, Attribute and ImportFrom that reads it
    in src/popuc (but its __init__.py) or perfbench/."""
    paths = [p for p in Path(popuc.__path__[0]).glob("*.py") if p.name != "__init__.py"]
    readers = {}
    for path in paths + list((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                readers.setdefault(name, []).append((path, node.lineno))
    return readers


def test_every_public_definition_has_a_reader():
    """A public function, class or method that nothing in the pipeline or the
    benchmark reads outside its own definition is code to delete; a name the
    benchmark's tracer wraps counts as read."""
    traced, readers = _traced_names(), _readers()
    unread = [
        name for name, path, node in _public_definitions()
        if name not in traced and all(
            p == path and node.lineno <= line <= node.end_lineno for p, line in readers.get(node.name, ())
        )
    ]
    assert unread == []
