import importlib
import pkgutil

import pytest

import hardykit

MODULES = ["hardykit"] + [f"hardykit.{m.name}" for m in pkgutil.iter_modules(hardykit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
