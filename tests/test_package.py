import importlib
import pkgutil

import pytest

import popuc

MODULES = sorted(info.name for info in pkgutil.iter_modules(popuc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"popuc.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
