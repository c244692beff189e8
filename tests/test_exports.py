"""Every name the package exports has a caller outside ``__init__``."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringline"


def _exported_names() -> list[str]:
    """The names ``__init__`` imports from the package's own modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def _names_read(path: Path) -> set[str]:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr of a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    """A name counts as called when another module of the package or a
    benchmark module reads it; a definition alone does not count."""
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    modules += sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*map(_names_read, modules))
    exported = _exported_names()
    assert len(exported) > 50
    assert [name for name in exported if name not in read] == []
