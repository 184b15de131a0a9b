import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


# a sweep, its verdicts and a balance check per theorem, on closed-kind measures
_SOLVE_IMPORTS = """
import sys
import popuc
loaded = set(sys.modules)
from popuc.dynamics import SweepConfig, ZeroPolicy, balance_check, solve_at, sweep, sweep_verdicts
from popuc.measures import ACWeight, MassPoint, Measure
bs = Measure.of(ACWeight.bernstein_szego(-1j / 3), [MassPoint.of("t", "2*pi/3")])
pair = Measure.of(ACWeight.lebesgue("1 - t/2"), [MassPoint.of("0.5 + 0.2*t", w) for w in ("1.0", "-1.0")])
for m, policy, theorem in ((bs, ZeroPolicy.fixed_xi(1j), "t23"), (bs, ZeroPolicy.fixed_xi(1j), "t21"),
                           (pair, ZeroPolicy.fixed_b(1), "t22")):
    cfg = SweepConfig(m, 5, 0.2, 0.8, 7, policy, theorem=theorem)
    sweep_verdicts(cfg, sweep(cfg))
    zs = solve_at(m, 5, policy, 0.5).zero_set
    tracked = next(k for k, p in enumerate(zs.phases) if 1e-3 < p < 3.1 and k != zs.fixed_index)
    balance_check(m, 5, policy, 0.5, float(zs.phases[tracked]), theorem)
print(" ".join(sorted(set(sys.modules) - loaded)))
"""


def test_solves_load_no_module_that_import_popuc_did_not():
    # numpy.ma (from np.unique) or numpy.fft, loaded on first use, adds to every
    # benchmark's peak RSS: a solve path should need only what import popuc loads
    src = str(Path(popuc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _SOLVE_IMPORTS], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
