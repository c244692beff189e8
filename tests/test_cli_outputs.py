"""CLI outputs pinned byte for byte against tests/data/cli_outputs.json.

Each case runs ``ringline.cli.main`` in process and records its exit code,
its stdout and the file it writes, if any. The path of that file is replaced
by ``<PATH>``, and the run-dependent ``elapsedMs`` lines are cut from the
Table-1 JSON. The SUBPROCESS cases also run as ``python -m ringline``, which
exits through ``cli.entry``, and must match the same pinned outputs, with
nothing on stderr. Recapture from a known-good checkout with

    PYTHONPATH=<checkout>/src python tests/test_cli_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import src_env
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
SUBPROCESS = (
    "catalog run",
    "catalog table1",
    "ring show mat(gf:2,2)",
    "line compute mat(gf:2,2) right",
)


def run_case(argv: list[str], tmp_dir: Path, in_subprocess: bool = False) -> dict:
    path = tmp_dir / "out.json"
    path.unlink(missing_ok=True)
    argv = [str(path) if a == PATH else a for a in argv]
    if in_subprocess:
        run = subprocess.run(
            [sys.executable, "-m", "ringline", *argv],
            env=src_env(), capture_output=True, encoding="utf-8", timeout=300,
        )
        assert run.stderr == ""
        code, stdout = run.returncode, run.stdout
    else:
        with contextlib.redirect_stdout(io.StringIO()) as buffer:
            code = main(argv)
        stdout = buffer.getvalue()
    out = {"code": code, "stdout": stdout.replace(str(path), PATH)}
    if str(path) in argv:
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


@pytest.mark.parametrize("case", SUBPROCESS)
def test_output_unchanged_through_python_m(case, pinned, tmp_path):
    assert run_case(CASES[case], tmp_path, in_subprocess=True) == pinned[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {case: run_case(argv, Path(tmp)) for case, argv in CASES.items()}
    DATA_PATH.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} cases to {DATA_PATH}", file=sys.stderr)
