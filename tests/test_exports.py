"""Every name a module exports resolves, so ``from nc_lab.<module> import *``
cannot break on a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import nc_lab

MODULES = ["nc_lab"] + [f"nc_lab.{m.name}" for m in pkgutil.iter_modules(nc_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
