"""The README's Library example runs, and gives the values its comments state."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import ringline

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> list[str]:
    """The lines of the first python code block under the Library heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    return block.group(1).splitlines()


def test_library_example_values():
    """Each line runs in order; a line commented with a value evaluates to
    that value, and one commented 'raises E' raises ringline's E."""
    namespace: dict = {}
    checked = []
    for line in library_example():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        if comment.startswith("raises "):
            error = getattr(ringline, comment.removeprefix("raises "))
            with pytest.raises(error):
                exec(code, namespace)
        elif comment:
            assert eval(code, namespace) == ast.literal_eval(comment), line
        else:
            exec(code, namespace)
            continue
        checked.append(comment)
    assert checked == [
        "(16, 6, 10, 2, 1, 3, 3, 1, False)",
        "(35, 26, 18, 9, 3, 5)",
        "raises RightLineBreakdown",
    ]
