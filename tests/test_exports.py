"""Every name a module exports resolves, so ``from nc_lab.<module> import *``
cannot break on a stale ``__all__`` entry; the CLI reaches the other modules
only through their public names; and the package exports only what a
command, a check or the benchmark reaches."""

import ast
import importlib
import os
import pkgutil

import pytest

import nc_lab

MODULES = ["nc_lab"] + [f"nc_lab.{m.name}" for m in pkgutil.iter_modules(nc_lab.__path__)]
SRC = os.path.dirname(nc_lab.__file__)
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "perfbench")

# Exported names that nothing in the package or the benchmark reaches yet,
# each with the reason it stays.
UNREACHED_ON_PURPOSE = {
    "ode_alpha_bound": "the envelope of the momentum check that ROADMAP item 9 adds",
}


def _tree(path) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _sources(directory) -> dict:
    return {name: _tree(os.path.join(directory, name))
            for name in sorted(os.listdir(directory)) if name.endswith(".py")}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_cli_imports_no_private_name():
    tree = _tree(os.path.join(SRC, "cli.py"))
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or node.module.startswith("nc_lab"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("filename", sorted(_sources(SRC)))
def test_every_imported_name_is_read(filename):
    """A module reads each name it imports, or exports it in ``__all__``."""
    tree = _tree(os.path.join(SRC, filename))
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = {n.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    assert sorted(imported - read - exported) == []


def _used_names(node) -> set:
    """The identifiers a piece of code reads, as names or attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_exported_function_is_reached_outside_its_definition():
    """A function or class in a module's ``__all__`` is read by the code of
    the package (outside its own definition and the re-exports of
    ``__init__``) or named by the benchmark, which traces some targets by
    their dotted name. Exported constants (column and kind lists) are
    formats, and are not checked."""
    reached, exported = set(), []
    for filename, tree in _sources(SRC).items():
        if filename == "__init__.py":
            continue
        public = getattr(importlib.import_module("nc_lab." + filename[:-3]), "__all__", ())
        for node in tree.body:
            defined = getattr(node, "name", None)
            reached |= _used_names(node) - {defined}
            if defined in public:
                exported.append(defined)
    for tree in _sources(PERFBENCH).values():
        reached |= _used_names(tree)
        reached |= {part for n in ast.walk(tree) if isinstance(n, ast.Constant)
                    and isinstance(n.value, str) for part in n.value.split(".")}
    unreached = sorted(name for name in exported if name not in reached)
    assert unreached == sorted(UNREACHED_ON_PURPOSE)
