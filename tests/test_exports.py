"""Every public name resolves where it is listed.

Tools that wrap the library's layers (such as the benchmark tracer) look up
each name of a module's `__all__`, so a stale entry breaks them even though
nothing in the library reads it.
"""

import importlib
import pkgutil
import types

import pytest

import nubes

SUBMODULES = sorted(name for _, name, _ in pkgutil.iter_modules(nubes.__path__) if not name.startswith("_"))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"nubes.{name}")
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_reexports_are_listed_by_their_module():
    listed = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"nubes.{name}")
        listed.update({attr: getattr(module, attr) for attr in module.__all__})
    reexports = {
        attr: obj
        for attr, obj in vars(nubes).items()
        if not attr.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert reexports
    for attr, obj in reexports.items():
        assert attr in listed, attr
        assert listed[attr] is obj, attr
