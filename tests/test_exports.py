"""Every exported name resolves.

A function deleted from a module must leave that module's __all__ and
the package namespace with it; a stale export would break
``from psn import *`` and ``from psn.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import psn

MODULES = sorted(info.name for info in pkgutil.iter_modules(psn.__path__))


def test_every_module_is_covered():
    assert {"cli", "erm", "linalg", "matrixio", "rates", "sampling", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"psn.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_names_resolve():
    imported = [
        attr for attr, value in vars(psn).items()
        if not attr.startswith("_") and not isinstance(value, type(psn))
    ]
    assert imported
    for attr in imported:
        owner = getattr(psn, attr).__module__
        assert attr in importlib.import_module(owner).__all__, attr
