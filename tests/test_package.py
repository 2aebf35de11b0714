"""The package namespace: each public name has one import path, its defining module."""

import importlib
import pkgutil

import phamlab


def test_namespace_holds_only_submodules():
    submodules = sorted(info.name for info in pkgutil.iter_modules(phamlab.__path__))
    for name in submodules:
        importlib.import_module(f"phamlab.{name}")
    assert sorted(name for name in vars(phamlab) if not name.startswith("_")) == submodules
    assert not hasattr(phamlab, "__version__")  # pyproject.toml holds the one version
