"""The path that builds and evaluates one ring calls numpy's kernels
directly: no Python-level numpy helper appears in build.py, line.py, stats.py
or clique.py, nor in core.py outside the slow paths that name a witness once
a check has failed, and none of that code reads a broadcast outer-index
gather such as ``x[a[:, None], b]``.
At catalog sizes a helper's fixed cost per call, not its cell count, sets
the time (np.ix_ costs about 2.8 us more per gather than ``a[:, None], b``),
and ``x.take(a, 0).take(b, 1)`` takes about a quarter of the time of
``x[a[:, None], b]``: 23 against 97 us for the 162 x 162 bool gather of a
right line's adjacency (numpy 2.4.6, Python 3.11, a 2-vCPU Xeon VM).
np.unique is called only where a right line breaks down, to count its class
sizes: the twin classes come from one lexsort of 64-bit words, which took
a tenth off the time of np.unique over the rows as void scalars."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringline"
HELPERS = {"ix_", "flatnonzero", "triu", "r_", "put_along_axis", "issubdtype"}
PER_RING_MODULES = ("build.py", "line.py", "stats.py", "clique.py")
# core.py functions that run only after a failed check, to name its witness
SLOW_PATHS = {"_check_associative", "_check_distributive"}


def nodes(source: str, skip: set[str]):
    """The syntax nodes of the source, outside the functions named in ``skip``."""
    tree = ast.parse(source)
    skipped = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in skip
        for inner in ast.walk(node)
    }
    return (node for node in ast.walk(tree) if id(node) not in skipped)


def index_parts(node: ast.Subscript) -> list[ast.expr]:
    return node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]


def helper_uses(source: str, skip: set[str] = frozenset()) -> list[str]:
    """Each helper name, attribute or import in the source, outside the
    functions named in ``skip``."""
    found = []
    for node in nodes(source, skip):
        if isinstance(node, ast.Attribute) and node.attr in HELPERS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in HELPERS:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name in HELPERS:
            found.append(f"line {node.lineno}: import {node.name}")
    return found


def outer_gathers(source: str, skip: set[str] = frozenset()) -> list[str]:
    """Each broadcast outer-index gather read in the source, outside the
    functions named in ``skip``: a subscript load with an index part that is
    itself indexed with None, as in ``x[a[:, None], b]``. Stores such as
    ``mask[a[:, None], b] = True`` and broadcast operands outside an index
    pass."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in nodes(source, skip)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
        and any(
            isinstance(part, ast.Subscript)
            and any(isinstance(p, ast.Constant) and p.value is None for p in index_parts(part))
            for part in index_parts(node)
        )
    ]


def unique_owners(source: str) -> list[str]:
    """The innermost function around each use of numpy's unique or its
    unique_* variants in the source, as name, attribute or import;
    "<module>" outside every function."""
    tree = ast.parse(source)
    owner = {}
    for func in ast.walk(tree):  # breadth first: an inner function's name overwrites
        if isinstance(func, ast.FunctionDef):
            owner.update((id(node), func.name) for node in ast.walk(func))
    return [
        owner.get(id(node), "<module>")
        for node in ast.walk(tree)
        if any(
            isinstance(node, kind) and getattr(node, field).startswith("unique")
            for kind, field in ((ast.Attribute, "attr"), (ast.Name, "id"), (ast.alias, "name"))
        )
    ]


def read(module: str) -> str:
    return (PACKAGE / module).read_text(encoding="utf-8")


@pytest.mark.parametrize("module", PER_RING_MODULES)
def test_per_ring_modules_call_no_helper(module):
    assert helper_uses(read(module)) == []


def test_core_calls_helpers_only_on_slow_paths():
    assert helper_uses(read("core.py"), SLOW_PATHS) == []


@pytest.mark.parametrize("module", PER_RING_MODULES)
def test_per_ring_modules_read_no_outer_gather(module):
    assert outer_gathers(read(module)) == []


def test_core_reads_outer_gathers_only_on_slow_paths():
    assert outer_gathers(read("core.py"), SLOW_PATHS) == []


def test_slow_paths_exist():
    """The skipped names are functions of core.py, so a rename cannot widen the scan's gap."""
    tree = ast.parse(read("core.py"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert SLOW_PATHS <= defined


@pytest.mark.parametrize(
    "source",
    [
        "x = add[np.ix_(a, b)]",
        "x = numpy.flatnonzero(mask)",
        "x = np.triu(adj)",
        "starts = np.r_[True, x[1:] != x[:-1]]",
        "np.put_along_axis(principal, mul, True, axis=1)",
        "ok = np.issubdtype(arr.dtype, np.integer)",
        "from numpy import ix_",
        "from numpy import flatnonzero as nz",
        "x = triu(adj)",
        "def validate_ring():\n    return add[np.ix_(a, b)]",
        "class FiniteRing:\n    def __init__(self):\n        self.neg = np.flatnonzero(x)",
        "def _check_associative():\n    pass\ndef semisimple_blocks():\n    np.ix_(a, a)",
    ],
)
def test_each_helper_use_is_found(source):
    assert helper_uses(source, SLOW_PATHS)


def test_slow_paths_are_skipped():
    source = (
        "def _check_distributive(add, row):\n"
        "    return add[np.ix_(row, row)]\n"
        "def _check_associative(table):\n"
        "    return np.flatnonzero(table)\n"
    )
    assert helper_uses(source, SLOW_PATHS) == []
    assert len(helper_uses(source)) == 2


def test_plain_indexing_passes():
    source = "x = add[a[:, None], b]; y = mask.nonzero()[0]; z = adj & (i[:, None] < i)"
    assert helper_uses(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = add[a[:, None], b]",
        "x = add[rows[:, :, None], rows[:, None, g]]",
        "x = mul[g[:, None, None], prod]",
        "ok = (mul[prod[:, :, None], g] == rows).all()",
        "def semisimple_blocks():\n    return mul[idem[:, None], idem]",
    ],
)
def test_each_outer_gather_is_found(source):
    assert outer_gathers(source, SLOW_PATHS)


@pytest.mark.parametrize(
    "source",
    [
        "principal[np.arange(n)[:, None], mul] = True",
        "later = adj & (span[:, None] < span)",
        "cand = cand[adjacency[v, cand]]",
        "x = add.take(a, 0).take(b, 1)",
        "def _check_distributive(add, row):\n    return add[row[:, None], row]",
    ],
)
def test_stores_and_plain_gathers_pass(source):
    assert outer_gathers(source, SLOW_PATHS) == []


def test_unique_only_in_the_breakdown_histogram():
    """np.unique appears in src/ only where _line_record counts the class
    sizes of a right line that breaks down."""
    owners = {path.name: unique_owners(read(path.name)) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: found for module, found in owners.items() if found} == {
        "line.py": ["_line_record", "_line_record"]
    }


@pytest.mark.parametrize(
    "source,owners",
    [
        ("x = np.unique(rows, axis=0)", ["<module>"]),
        ("def f():\n    return numpy.unique_counts(x)", ["f"]),
        ("from numpy import unique", ["<module>"]),
        ("def f():\n    def g():\n        return unique(x)\n    return g", ["g"]),
        ("def f():\n    return np.lexsort(x.T)", []),
    ],
)
def test_each_unique_use_is_found(source, owners):
    assert unique_owners(source) == owners
