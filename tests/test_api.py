from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import mixloci

MODULES = ["loci", "mixing", "numeric", "states", "io", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"mixloci.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_every_package_import_is_public_in_its_module():
    # a name the package re-exports is one its module still defines and, where
    # the module has __all__, still lists there
    tree = ast.parse(Path(mixloci.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mixloci.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert public is None or alias.name in public, f"{node.module}.{alias.name}"
            assert getattr(mixloci, alias.name) is getattr(module, alias.name)
