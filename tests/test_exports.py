"""Every public name resolves where it is listed.

Tools that wrap the library's layers (such as the benchmark tracer) look up
each name of a module's `__all__`, so a stale entry breaks them even though
nothing in the library reads it.
"""

import importlib
import pkgutil

import pytest

import nubes

SUBMODULES = sorted(name for _, name, _ in pkgutil.iter_modules(nubes.__path__) if not name.startswith("_"))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"nubes.{name}")
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []

