"""Command-line interface end to end (in process, plus subprocess checks of
`python -m ringline`, its exit path and python -O)."""

from __future__ import annotations

import gc
import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import catalog_entry, run_python, src_env
from helpers import emit_ring_file_oracle

from ringline import (
    build_recipe,
    builtin_catalog,
    emit_ring_file,
    evaluate_entry,
    ring_zn,
    run_catalog,
)
from ringline.cli import _format_entry_line, main
from ringline.catalog import CatalogEntry, RunReport


def test_ring_show_recipe(capsys):
    assert main(["ring", "show", "zn:4"]) == 0
    out = capsys.readouterr().out
    assert "ring Z4" in out and "order 4" in out
    assert "# order/zero-divisors: 4/2" in out


def test_ring_show_file(tmp_path, capsys):
    path = tmp_path / "z6.ring"
    path.write_text(emit_ring_file(ring_zn(6)))
    assert main(["ring", "show", str(path)]) == 0
    assert "order 6" in capsys.readouterr().out


@pytest.mark.parametrize("entry", [e for e in builtin_catalog() if e.recipe is not None],
                         ids=lambda e: e.name)
def test_ring_show_and_validate_match_oracle_emitter(entry, tmp_path, capsys):
    """`ring show` prints the fingerprint comments, then the file the per-entry
    emitter writes; `ring validate` of that file prints the same comments."""
    ring = build_recipe(entry.recipe)
    text = emit_ring_file_oracle(ring)
    assert main(["ring", "show", entry.recipe]) == 0
    comments, tables = capsys.readouterr().out.split(f"ring {ring.name}\n", 1)
    assert f"ring {ring.name}\n" + tables == text
    assert all(line.startswith("# ") for line in comments.splitlines())
    path = tmp_path / "ring.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["ring", "validate", str(path)]) == 0
    assert capsys.readouterr().out == (
        f"{ring.name}: valid ring of order {ring.order}\n" + comments
    )


def test_ring_show_bad_recipe(capsys):
    assert main(["ring", "show", "nonsense:9"]) == 1
    assert "error:" in capsys.readouterr().err


_ENTRY_SCRIPT = """
import gc, runpy, sys
sys.argv = ["ringline", *{argv!r}]
try:
    runpy.run_module("ringline", run_name="__main__")
except SystemExit as exc:
    status = exc.code
print(gc.get_freeze_count() > 0, status)
"""


@pytest.mark.parametrize(
    "argv, status", [(["ring", "show", "zn:4"], 0), (["ring", "show", "nonsense:9"], 1)]
)
def test_python_m_freezes_the_heap_before_exit(argv, status):
    """`python -m ringline` freezes the heap once main has returned, so the
    interpreter's final collection skips it, and exits with main's status."""
    run = run_python([], _ENTRY_SCRIPT.format(argv=argv))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"True {status}"


def test_main_leaves_the_heap_unfrozen(capsys):
    """main, which tests and the traced benchmark call in process, freezes
    nothing: a frozen heap would keep its garbage cycles for good."""
    frozen = gc.get_freeze_count()
    assert main(["ring", "show", "zn:4"]) == 0
    assert gc.get_freeze_count() == frozen


def test_console_script_is_the_python_m_entry(monkeypatch):
    """The `ringline` script that pyproject.toml names is the function that
    `python -m ringline` calls."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        module, _, name = tomllib.load(fh)["project"]["scripts"]["ringline"].partition(":")
    calls = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: calls.append(name))
    runpy.run_module("ringline", run_name="__main__")
    assert calls == [name]


def _assert_input_error(*argv: str) -> str:
    """The CLI in a subprocess exits 1 with an error line, no traceback;
    returns its stderr."""
    run = subprocess.run(
        [sys.executable, "-m", "ringline", *argv],
        env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr
    return run.stderr


def test_ring_show_wrong_argument_kind():
    """An integer where a ring belongs is an input error, not an AttributeError."""
    _assert_input_error("ring", "show", "mat(2,2)")


def test_ring_show_deeply_nested_recipe():
    """A recipe nested 1,500 deep is an input error, not a RecursionError."""
    _assert_input_error("ring", "show", "dual(" * 1500 + "gf:2" + ")" * 1500)


def test_ring_show_oversized_recipe():
    """64 nested duals pass the depth limit but are refused by the order cap."""
    _assert_input_error("ring", "show", "dual(" * 64 + "gf:2" + ")" * 64)


def test_ring_show_beyond_ideal_cap(capsys):
    """Order 256, past the ideal enumeration cap: the full fingerprint prints,
    its maximal ideal counts read off the blocks of R/J."""
    assert main(["ring", "show", "mat(zn:4,2)"]) == 0
    out = capsys.readouterr().out
    assert "# order/zero-divisors: 256/160" in out
    assert "# radical size: 16  commutative: False" in out
    assert "# maximal ideals (left/right/two-sided): 3/3/1" in out


def test_ring_validate(tmp_path, capsys):
    path = tmp_path / "z4.ring"
    path.write_text(emit_ring_file(ring_zn(4)))
    assert main(["ring", "validate", str(path)]) == 0
    assert "valid ring of order 4" in capsys.readouterr().out


def test_ring_validate_beyond_ideal_cap(tmp_path, capsys):
    path = tmp_path / "t2f7.ring"
    path.write_text(emit_ring_file(build_recipe("tri(gf:7,2)")))
    assert main(["ring", "validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "valid ring of order 343" in out
    assert "# maximal ideals (left/right/two-sided): 2/2/2" in out


def test_ring_validate_rejects_corrupt_file(tmp_path, capsys):
    text = emit_ring_file(ring_zn(4)).splitlines()
    text[8] = "2 3 1 0"  # corrupt one multiplication row
    path = tmp_path / "bad.ring"
    path.write_text("\n".join(text) + "\n")
    assert main(["ring", "validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [2**63, 99999999999999999999])
def test_ring_validate_entry_beyond_int64(tmp_path, entry):
    """An addition entry too large for int64 is an input error, not an OverflowError."""
    text = emit_ring_file(ring_zn(4)).splitlines()
    text[4] = f"0 1 2 {entry}"  # first addition row
    path = tmp_path / "huge.ring"
    path.write_text("\n".join(text) + "\n")
    _assert_input_error("ring", "validate", str(path))


def test_line_compute_z4(capsys):
    assert main(["line", "compute", "zn:4"]) == 0
    out = capsys.readouterr().out
    assert "Tot 6" in out
    assert "1N 1 (constant)" in out


def test_line_compute_right_breakdown(capsys):
    assert main(["line", "compute", "mat(gf:2,2)", "--side", "right"]) == 0
    out = capsys.readouterr().out
    assert "BREAKDOWN" in out
    assert "classes of size" in out


def test_line_compute_at_the_cap(capsys):
    """Lines are enumerated up to the same order 64 as ideal lattices."""
    assert main(["line", "compute", "tri(gf:4,2)"]) == 0
    assert "Tot 100" in capsys.readouterr().out


def test_line_compute_past_the_cap():
    stderr = _assert_input_error("line", "compute", "prod(tri(gf:4,2),zn:2)")  # order 128
    assert "capped at order 64" in stderr


def test_line_compute_right_breakdown_export(tmp_path, capsys):
    """A broken-down right line still writes its export: the class sizes, in
    the form the catalog report gives them."""
    out_path = tmp_path / "right.json"
    argv = ["line", "compute", "mat(gf:2,2)", "--side", "right", "--export", str(out_path)]
    assert main(argv) == 0
    assert f"exported line to {out_path}" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    catalog_right = evaluate_entry(catalog_entry("m2f2")).to_json_dict()["right"]
    assert payload == {
        "ring": "M2(GF(2))",
        "side": "right",
        "status": "breakdown",
        "classSizes": {"3": 6, "6": 32},
    }
    assert payload["classSizes"] == catalog_right["classSizes"]


def test_line_compute_export(tmp_path, capsys):
    out_path = tmp_path / "line.json"
    assert main(["line", "compute", "tri(gf:2,2)", "--export", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["signature"]["tot"] == 18
    assert len(payload["points"]) == 18
    assert len(payload["distantAdjacency"]) == 18


def test_catalog_run_single_entry(capsys):
    assert main(["catalog", "run", "--entry", "m2f2"]) == 0
    out = capsys.readouterr().out
    assert "m2f2" in out and "PASS" in out
    assert "right BREAKDOWN" in out
    assert "overall: PASS" in out


def test_catalog_run_unknown_entry(capsys):
    assert main(["catalog", "run", "--entry", "nope"]) == 1
    assert "no catalog entry" in capsys.readouterr().err


def test_catalog_run_repeated_entry_evaluated_once(tmp_path, monkeypatch, capsys):
    """A repeated --entry name is dropped; names keep their first order."""
    evaluated = []
    monkeypatch.setattr(
        "ringline.cli.run_catalog",
        lambda entries: evaluated.append([e.name for e in entries]) or run_catalog(entries),
    )
    json_path = tmp_path / "report.json"
    argv = ["catalog", "run", "--entry", "t2f2", "--entry", "skewgf4", "--entry", "t2f2",
            "--json", str(json_path)]
    assert main(argv) == 0
    assert evaluated == [["t2f2", "skewgf4"]]
    out = capsys.readouterr().out
    assert sum(line.startswith("t2f2 ") for line in out.splitlines()) == 1
    payload = json.loads(json_path.read_text())
    assert [e["name"] for e in payload["entries"]] == ["skewgf4", "t2f2"]


def test_catalog_run_repeated_then_unknown_entry(capsys):
    assert main(["catalog", "run", "--entry", "t2f2", "--entry", "t2f2", "--entry", "nope"]) == 1
    assert "no catalog entry 'nope'" in capsys.readouterr().err


def test_catalog_run_exports(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(
        ["catalog", "run", "--entry", "t2f2", "--entry", "skewgf4",
         "--json", str(json_path), "--csv", str(csv_path)]
    )
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["passed"] is True
    assert [e["name"] for e in payload["entries"]] == ["skewgf4", "t2f2"]
    header = csv_path.read_text().splitlines()[0]
    assert header == "type,Tot,TpI,1N,cap2N,cap3N,MD,JcbA,JcbB,JcbC,rightLineStatus"


def test_catalog_run_failure_exit_code(monkeypatch, capsys):
    doctored = CatalogEntry(
        name="t2f2bad",
        paper_row="8/6",
        provenance="paper-row",
        recipe="tri(gf:2,2)",
        expected=(18, 14, 9, 4, 0, 4),  # wrong MD
        jcb=1,
    )
    monkeypatch.setattr("ringline.cli.builtin_catalog", lambda: (doctored,))
    assert main(["catalog", "run"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_catalog_run_right_line_differs(capsys):
    """A right signature that exists but differs from the left is not
    printed as right=left."""
    result = evaluate_entry(catalog_entry("t2f2"))
    doctored = result._replace(right=result.right._replace(md=4))
    line = _format_entry_line(doctored)
    assert line.endswith("[right!=left (unexpected)]")
    assert "right=left" not in line
    assert _format_entry_line(result).endswith("[right=left]")


def test_catalog_table1_fail_row(tmp_path, monkeypatch, capsys):
    """Row 8/6 with one FAIL and one UNRESOLVED entry is a FAIL row, as the
    exit code and the overall line already say."""
    wrong_md = catalog_entry("t2f2")._replace(expected=(18, 14, 9, 4, 0, 4))
    results = (evaluate_entry(wrong_md), evaluate_entry(wrong_md._replace(provenance="candidate")))
    monkeypatch.setattr("ringline.cli.run_catalog", lambda: RunReport(results=results))
    path = tmp_path / "table1.json"
    assert main(["catalog", "table1", "--json", str(path)]) == 2
    assert "overall: FAIL" in capsys.readouterr().out
    rows = {r["row"]: r for r in json.loads(path.read_text())}
    assert [e["status"] for e in rows["8/6"]["entries"]] == ["FAIL", "UNRESOLVED"]
    assert rows["8/6"]["status"] == "FAIL"


def test_catalog_table1(capsys):
    assert main(["catalog", "table1"]) == 0
    out = capsys.readouterr().out
    assert "16/10" in out and "16/12" in out
    assert "UNRESOLVED" in out
    assert "overall: PASS" in out


def test_catalog_table1_json(tmp_path, capsys):
    path = tmp_path / "table1.json"
    assert main(["catalog", "table1", "--json", str(path)]) == 0
    rows = json.loads(path.read_text())
    assert [r["row"] for r in rows] == [
        "27/15", "24/20", "16/4", "16/8", "16/10", "16/12", "16/14", "8/6",
    ]
    by_row = {r["row"]: r for r in rows}
    assert by_row["16/12"]["status"] == "UNRESOLVED"
    assert by_row["16/10"]["status"] == "PASS"
    assert len(by_row["16/10"]["entries"]) == 3  # paper row plus two counterparts


def test_catalog_table1_under_optimize():
    """Stripping asserts (python -O) changes neither exit code nor output."""
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "ringline", "catalog", "table1"],
            env=src_env(), capture_output=True, text=True, timeout=300,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout


_THREADS_SCRIPT = """
import os, sys
{imports}
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as status:
        threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
print(repr(os.environ.get("OPENBLAS_NUM_THREADS")), threads)
"""


@pytest.mark.parametrize(
    "preset, imports, seen",
    [
        (None, "import ringline", "1"),
        ("3", "import ringline", "3"),
        (None, "import numpy, ringline", None),
    ],
)
def test_openblas_pool_pinned_before_numpy(monkeypatch, preset, imports, seen):
    """Importing ringline before numpy pins OpenBLAS to one thread, so no
    worker pool starts; a value the user set, or a process that imported
    numpy first, is left alone."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    run = run_python([], _THREADS_SCRIPT.format(imports=imports))
    assert run.returncode == 0, run.stderr
    value, threads = run.stdout.split()
    assert value == repr(seen)
    if seen == "1" and sys.platform.startswith("linux"):
        assert threads == "1"


def test_acceptance_under_optimize():
    """The acceptance module passes under python -O. Pytest rewrites the
    asserts of test modules into checks that -O keeps, so this shows that the
    library's own invariants do not rest on assert statements."""
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "tests/test_acceptance.py"],
        cwd=Path(__file__).resolve().parent.parent,
        env=src_env(), capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


def test_full_catalog_names_unique():
    names = [e.name for e in builtin_catalog()]
    assert len(names) == len(set(names))
