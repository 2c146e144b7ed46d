"""Every name a module of the package lists in ``__all__`` resolves on it.

A stale entry passes ``import`` and fails only on a star import, so it
is checked here by name.
"""

import importlib
import pkgutil

import pytest

import spinfringe

MODULES = [spinfringe.__name__] + [
    f"{spinfringe.__name__}.{info.name}" for info in pkgutil.iter_modules(spinfringe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public)
    assert [n for n in public if not hasattr(module, n)] == []
