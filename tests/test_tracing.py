"""The benchmark's tracer (perfbench/tracing.py) wraps popuc functions by
name, so renaming or removing one of them must fail here, not only in a
traced benchmark run."""
import importlib.util
import sys
from pathlib import Path

import popuc.dynamics  # noqa: F401  (imports every traced module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(name):
    module, _, rest = name.partition(".")
    owner = sys.modules[f"popuc.{module}"]
    for attr in rest.split("."):
        owner = getattr(owner, attr)
    return owner


def test_tracer_installs_and_restores_every_traced_name():
    tracing = _load_tracing()
    names = tracing.SPANS + tracing.TIMED_LEAVES + tracing.COUNTED
    originals = {name: _lookup(name) for name in names}
    patches = tracing.Patches()
    try:
        tracing.Tracer().install(patches)
        wrapped = [name for name in names if _lookup(name) is not originals[name]]
    finally:
        patches.restore()
    assert wrapped == list(names)
    assert all(_lookup(name) is originals[name] for name in names)
