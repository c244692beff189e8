"""Shared fixtures: catalog rings and lines are built once per session."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringline import build_line, build_recipe, builtin_catalog, run_catalog

RECIPES = {e.name: e.recipe for e in builtin_catalog() if e.recipe is not None}
RECIPES.update(
    {
        "z4": "zn:4",
        "gf2": "gf:2",
        "gf3": "gf:3",
        "gf4": "gf:4",
        "dualf2": "dual(gf:2)",
    }
)


def run_python(flags: list[str], script: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run a script with the interpreter flags, on this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=timeout,
    )


@functools.lru_cache(maxsize=None)
def ring_of(name: str):
    return build_recipe(RECIPES[name])


@functools.lru_cache(maxsize=None)
def line_of(name: str, side: str = "left"):
    return build_line(ring_of(name), side)


@functools.lru_cache(maxsize=None)
def catalog_report():
    return run_catalog()


def catalog_entry(name: str):
    """The built-in catalog entry of that name; KeyError if there is none."""
    return {e.name: e for e in builtin_catalog()}[name]


def result_of(report, name: str):
    """The report's result for the entry of that name; KeyError if there is none."""
    return {r.entry.name: r for r in report.results}[name]


@pytest.fixture(scope="session")
def report():
    return catalog_report()
