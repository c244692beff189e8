"""The benchmark harness runs one smoke pass per workload and checks its ops.

``perfbench/run.py`` exits 0 even when ops fail, so each run is judged by
the JSON object on the last line of its standard output. The traced runs
replay ``stats`` and ``clique`` through their public names, so they also
guard the API the benchmark depends on.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
