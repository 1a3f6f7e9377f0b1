"""Every name a bihkit module lists in `__all__` resolves in that module, so
that a deleted or renamed function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import bihkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(bihkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"bihkit.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"bihkit.{name}.__all__ names missing attributes {missing}"


def test_modules_with_exports_are_listed():
    """The package modules that declare `__all__` (all but the CLI)."""
    exporting = [name for name in MODULES
                 if hasattr(importlib.import_module(f"bihkit.{name}"), "__all__")]
    assert exporting == [name for name in MODULES if name != "cli"]
