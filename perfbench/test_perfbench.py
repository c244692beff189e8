"""Tests of the benchmark itself, on its one-ring, one-pass smoke mode.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(workloads.WORKLOADS)


def bench(*args: str, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def in_process(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_trace_reports_every_per_layer_metric(workload):
    result = smoke(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    spans = json.loads(
        (ROOT / ".perfbench_out" / f"trace-{workload}-seed1.json").read_text(encoding="utf-8")
    )["spans"]
    assert spans and any(s["name"] == "pass" and s["parent"] is None for s in spans)
    for s in spans:
        assert 0 <= s["self_ms"] <= s["end_ms"] - s["start_ms"] + 1e-9
        assert s["parent"] is None or spans[s["parent"]]["start_ms"] <= s["start_ms"]


def test_layer_counts_repeat_across_seeds():
    counts = {}
    for seed in (1, 2):
        metrics = smoke("lines32", trace=1, seed=seed)["metrics"]
        counts[seed] = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    assert counts[1] == counts[2]
    assert counts[1]["line.points"] == 36  # both lines over T2(GF(2)), 18 points each


def _wrong_signature(golden):
    golden["rings"][workloads.SMOKE_RING["lines32"]]["left"]["row"][0] += 1


def _wrong_fingerprint(golden):
    golden["rings"][workloads.SMOKE_RING["structure64"]]["fingerprint"][1] += 1


def _wrong_csv(golden):
    golden["catalog"]["csv"] = golden["catalog"]["csv"].replace("8/6,18,", "8/6,19,")


@pytest.mark.parametrize(
    "workload, plant",
    [("lines32", _wrong_signature), ("structure64", _wrong_fingerprint),
     ("catalog-cli", _wrong_csv)],
)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_planted_wrong_golden_entry_counts_as_failure(monkeypatch, workload, plant, trace):
    golden = copy.deepcopy(workloads.load_golden())
    plant(golden)
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    result = in_process(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--smoke"])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["failed"] <= result["attempted"]


def test_inputs_are_seeded_relabellings():
    ring = workloads.build_recipe("tri(gf:2,2)")
    a = workloads.relabelled_tables(ring, workloads.op_rng(5, "lines32", 0, 0))
    b = workloads.relabelled_tables(ring, workloads.op_rng(5, "lines32", 0, 0))
    c = workloads.relabelled_tables(ring, workloads.op_rng(6, "lines32", 0, 0))
    assert all((x == y).all() for x, y in zip(a[:2], b[:2])) and a[2] == b[2]
    assert not all((x == y).all() for x, y in zip(a[:2], c[:2]))
    text = workloads.ring_file_text("t", *a)
    parsed = workloads.parse_ring_file(text)
    assert workloads.emit_ring_file(parsed) == text
    assert workloads.structure_record(parsed) == workloads.structure_record(ring)


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("pass"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("c"):
                pass
    dur, own = tr.durations(), tr.self_times()
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert own[2] == pytest.approx(dur[2] - dur[3])
    assert tr.roots() == [0, 0, 0, 0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_has_a_calibration_kernel(workload):
    kind = workloads.WORKLOADS[workload].calibration
    assert calibrate.measure(kind) > 0


def test_speed_scales_to_the_reference_round():
    speed = run.Speed("line", every_cpu=False)
    ref = calibrate.reference_seconds("line")
    speed.walls, speed.cpus = [ref, 3 * ref, 5 * ref], [2 * ref, 2 * ref, 2 * ref]
    assert speed.wall_scale(0) == pytest.approx(0.5)
    assert speed.wall_scale(1) == pytest.approx(0.25)
    assert speed.cpu_scale(1) == pytest.approx(0.5)


def test_round_on_every_cpu_restores_the_affinity():
    allowed = os.sched_getaffinity(0)
    speed = run.Speed("line", every_cpu=True)
    speed.round()
    assert os.sched_getaffinity(0) == allowed
    assert len(speed.walls) == len(speed.cpus) == 1 and speed.walls[0] > 0


def test_calibration_round_with_a_wrong_result_is_refused(monkeypatch):
    kernel, expected, ref = calibrate.KERNELS["core"]
    monkeypatch.setitem(calibrate.KERNELS, "core", (kernel, expected + 1, ref))
    with pytest.raises(RuntimeError):
        calibrate.measure("core")


def test_tail_has_ten_values_beyond_it():
    values = [float(i) for i in range(40)]
    assert run.tail(values) == (29.0, 75.0)
    assert run.tail(values[:9]) == (4.0, 5 / 9 * 100)


def test_refuses_to_run_with_thread_cap():
    env = dict(os.environ, RINGLINE_THREADS="1")
    proc = bench("--workload", "lines32", "--seed", "1", "--seconds", "1", "--smoke", env=env)
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lines32", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
