"""The modules that count points, pairs and triples keep every count an
integer: no float dtype and no ``einsum`` appears in them."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringline"
COUNTING_MODULES = ("line.py", "stats.py", "clique.py")
FORBIDDEN_NAMES = {"float16", "float32", "float64", "einsum"}


def _is_float_dtype(node: ast.expr) -> bool:
    """``float`` or a string naming a float dtype (a float name or attribute
    is found as such)."""
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return np.dtype(node.value).kind == "f"
        except TypeError:
            return False
    return False


def float_uses(source: str) -> list[str]:
    """Each float name, attribute or import, ``einsum``, and float dtype
    argument (a ``dtype=`` keyword, or the argument of ``astype``) in the
    source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.alias) and node.name in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: import {node.name}")
        elif isinstance(node, ast.Call):
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                dtypes += node.args[:1]
            floats = [d for d in dtypes if _is_float_dtype(d)]
            found += [f"line {d.lineno}: dtype {ast.unparse(d)}" for d in floats]
    return found


@pytest.mark.parametrize("module", COUNTING_MODULES)
def test_counts_stay_integer(module):
    assert float_uses((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "w = sizes.astype(np.float32)",
        "np.einsum('ij,j->i', a, w)",
        "x = np.zeros(3, dtype=float)",
        "x = np.zeros(3, dtype='f8')",
        "x = a.astype('float64')",
        "from numpy import float16",
    ],
)
def test_each_float_use_is_found(source):
    assert float_uses(source)


def test_integer_dtypes_pass():
    assert float_uses("x = np.zeros(3, dtype=np.int64).astype(bool); y = a.astype('u1')") == []
