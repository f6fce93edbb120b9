import importlib
import pkgutil

import pytest

import diracline

MODULES = [info.name for info in pkgutil.iter_modules(diracline.__path__)]


def test_package_all_resolves():
    missing = [name for name in diracline.__all__ if not hasattr(diracline, name)]
    assert missing == []
    assert len(set(diracline.__all__)) == len(diracline.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"diracline.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from diracline import *", namespace)
    assert set(diracline.__all__) <= set(namespace)
