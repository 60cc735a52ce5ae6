"""Every module-level import in the package is used in its module."""

from __future__ import annotations

import ast
from pathlib import Path

import lyndonbar

PACKAGE = Path(lyndonbar.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_guard_catches_an_unused_import():
    source = "from .words import check_word, lyndon_words\nprint(lyndon_words(3))\n"
    assert unused_imports(source) == ["check_word"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        assert unused_imports(path.read_text()) == [], path.name
