"""The package's public names: ``__all__`` and the imports of ``__init__``."""

from __future__ import annotations

import ast
from pathlib import Path

import prmhull


def test_all_entries_resolve_once():
    assert len(set(prmhull.__all__)) == len(prmhull.__all__)
    assert [n for n in prmhull.__all__ if not hasattr(prmhull, n)] == []


def test_every_relative_import_is_exported():
    # read from the source, since `from __future__ import annotations`
    # also binds a name on the package
    tree = ast.parse(Path(prmhull.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported and imported <= set(prmhull.__all__)
