"""Every layer module exports only names it defines and imports only names
it uses.

For each `steinberg.<name>` module (the package `__init__` aside): every
name in `__all__` is an attribute of the module, and every name bound by a
relative `from .x import ...` is read somewhere in the module's code, so a
helper whose last caller is deleted does not stay behind as an import.
`modrep` builds its modules through the public MeatAxe constructors alone,
so it imports no private `meataxe` name.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import steinberg

MODULES = sorted(info.name for info in pkgutil.iter_modules(steinberg.__path__))


def _tree(name):
    return ast.parse(Path(steinberg.__path__[0], f"{name}.py").read_text())


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"steinberg.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_every_relative_import_is_used(name):
    tree = _tree(name)
    imported = [alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n in imported if n not in read] == []


def test_modrep_imports_no_private_meataxe_name():
    private = [alias.name for node in ast.walk(_tree("modrep"))
               if isinstance(node, ast.ImportFrom) and node.level
               and node.module == "meataxe"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
