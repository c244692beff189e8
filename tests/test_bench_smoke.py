"""The benchmark harness runs one smoke pass per workload and checks its ops.

``perfbench/run.py`` exits 0 even when ops fail, so each run is judged by
the JSON object on the last line of its standard output. The traced runs
replay ``stats`` and ``clique`` through their public names, so they also
guard the API the benchmark depends on. The smoke pass runs one ring, so
the traced replay's MD call is also checked against every golden ring.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ringline import build_line, build_recipe, clique

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))["rings"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["catalog-cli", "lines32", "structure64"])
def test_smoke_run_is_correct(workload, trace):
    run = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--smoke", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0


@pytest.mark.parametrize("recipe", sorted(r for r, record in GOLDEN.items() if "left" in record))
def test_traced_md_matches_golden(recipe):
    """The traced replay's own call, ``clique.max_clique(line.adjacency)``,
    gives the golden MD on each side with a golden row."""
    record, ring = GOLDEN[recipe], build_recipe(recipe)
    sides = [side for side in ("left", "right") if "row" in record[side]]
    assert "left" in sides
    for side in sides:
        line = build_line(ring, side)
        assert len(clique.max_clique(line.adjacency)) == record[side]["row"][5], side
