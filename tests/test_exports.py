"""Every name the package exports has a caller outside ``__init__``, and
every name a module of the package defines is read somewhere in the package."""

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


def _read_by(statement: ast.stmt) -> set[str]:
    """The names a statement reads: ``ast.Name`` ids not assigned to,
    ``ast.Attribute`` attrs and the names it imports."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _defined(statement: ast.stmt) -> set[str]:
    """The module-level names a top-level statement defines: a function, a
    class or the names an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def test_every_export_has_a_caller():
    """A name counts as called when another module of the package or a
    benchmark module reads it; a definition alone does not count."""
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    modules += sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*map(_names_read, modules))
    exported = _exported_names()
    assert len(exported) > 50
    assert [name for name in exported if name not in read] == []


def test_every_definition_is_read():
    """Each module-level function, class and constant of the package, dunders
    excepted, is read by some other top-level statement of the package: a
    name read only inside its own definition, or not at all, is dead code."""
    statements = [
        statement
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [_read_by(statement) for statement in statements]
    unread = [
        name
        for i, statement in enumerate(statements)
        for name in sorted(_defined(statement))
        if not (name.startswith("__") and name.endswith("__"))
        and not any(name in read for j, read in enumerate(reads) if j != i)
    ]
    assert len(statements) > 100
    assert unread == []
