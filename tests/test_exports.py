import importlib
import pkgutil

import pytest

import kcut

_MODULES = [m.name for m in pkgutil.iter_modules(kcut.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"kcut.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"kcut.{name}.__all__ names {missing}"
