"""The README's Library example runs, and gives the values its comments
state; its recipe table shows every form of recipe the parser accepts."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import ringline
from ringline import RingRecipe, parse_recipe
from ringline.build import _RECIPE_HEADS

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


def recipe_table() -> list[str]:
    """The recipes in the first column of the table under the Recipes heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Recipes\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([^`]+)`", section, re.MULTILINE)


def test_recipe_table_shows_every_head_and_arity():
    """Each argument list that each recipe head accepts is used by some
    recipe in the table, at its top or nested inside it."""
    shown = set()

    def walk(recipe: RingRecipe) -> None:
        kinds = tuple(
            "ring" if isinstance(a, RingRecipe) else "integer" if isinstance(a, int) else "name"
            for a in recipe.args
        )
        shown.add((recipe.kind, kinds))
        for a in recipe.args:
            if isinstance(a, RingRecipe):
                walk(a)

    for text in recipe_table():
        walk(parse_recipe(text))
    accepted = {(head, kinds) for head, (arities, _) in _RECIPE_HEADS.items() for kinds in arities}
    assert accepted - shown == set()
