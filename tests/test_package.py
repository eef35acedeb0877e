import ast
from pathlib import Path

import dskit


def test_every_public_name_imported_by_the_package_is_exported():
    tree = ast.parse(Path(dskit.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert "standard_parahorics" in imported
    assert sorted(imported - set(dskit.__all__)) == []
    assert all(hasattr(dskit, name) for name in dskit.__all__)
