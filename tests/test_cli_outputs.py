"""CLI outputs pinned byte for byte against tests/data/cli_outputs.json.

Each case runs ``ringline.cli.main`` in process and records its exit code,
its stdout and the file it writes, if any. The path of that file is replaced
by ``<PATH>``, and the run-dependent ``elapsedMs`` lines are cut from the
Table-1 JSON. Recapture from a known-good checkout with

    PYTHONPATH=<checkout>/src python tests/test_cli_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from ringline.cli import main

DATA_PATH = Path(__file__).resolve().parent / "data" / "cli_outputs.json"
PATH = "<PATH>"

CASES = {
    "catalog table1": ["catalog", "table1", "--json", PATH],
    "catalog run": ["catalog", "run"],
    **{
        f"ring show {spec}": ["ring", "show", spec]
        for spec in ("zn:4", "tri(gf:3,2)", "mat(gf:2,2)")
    },
    **{
        f"line compute {spec} {side}": ["line", "compute", spec, "--side", side, "--export", PATH]
        for spec in ("zn:4", "tri(gf:3,2)", "mat(gf:2,2)")
        for side in ("left", "right")
    },
}


def run_case(argv: list[str], tmp_dir: Path) -> dict:
    path = tmp_dir / "out.json"
    path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([str(path) if a == PATH else a for a in argv])
    out = {"code": code, "stdout": stdout.getvalue().replace(str(path), PATH)}
    if PATH in argv:
        # elapsedMs is the last key of an entry, so its line follows a comma
        out["file"] = re.sub(r',\n *"elapsedMs": [^\n,]+', "", path.read_text(encoding="utf-8"))
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA_PATH.read_text(encoding="utf-8"))


def test_cases_all_pinned(pinned):
    assert set(pinned) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_unchanged(case, pinned, tmp_path):
    assert run_case(CASES[case], tmp_path) == pinned[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {case: run_case(argv, Path(tmp)) for case, argv in CASES.items()}
    DATA_PATH.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} cases to {DATA_PATH}", file=sys.stderr)
