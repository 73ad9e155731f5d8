"""Every name a qserieslab module lists in __all__ resolves in that module."""

import importlib
import pkgutil

import pytest

import qserieslab


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(qserieslab.__path__)))
def test_all_names_resolve(name):
    module = importlib.import_module(f"qserieslab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
