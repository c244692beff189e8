#!/usr/bin/env python3
"""The ringline benchmark.

    python3 perfbench/run.py --workload lines32 --seed 1 --seconds 30 --trace 0

Run it from the root of a ringline checkout; it imports ringline from
``src/`` and builds nothing. One client drives a closed loop: each op is
issued after the previous one returns, and a pass runs every op of the
workload once. Passes repeat until ``--seconds`` have gone by. Every op is
checked against ``perfbench/golden.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. On a shared
2-vCPU host the speed drifts by up to 1.7x over minutes, slowing every op
alike, so an untraced pass also times rounds of a fixed reference kernel
(calibrate.py) before, between and after its ops, and each op's time is
scaled to the speed at which one round takes the kernel's reference time.
The raw times are kept too.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the spans of the traced ones, scaled by rounds taken
before and after each traced pass; the difference between the two kinds of
pass is reported as the tracing overhead. ``--smoke`` runs one ring (or one
catalog entry) for one pass of each kind.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details, the run's
environment and the spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
ROUND_EVERY_S = 0.25  # a round after an op once this much op time has gone by
THREADS_ENV_VAR = "RINGLINE_THREADS"


def src_digest(src: Path) -> str:
    """sha256 over the relative paths and contents of the Python sources."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(src: Path) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "src_sha256": src_digest(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def cpu_seconds() -> float:
    """User plus system time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten values beyond it.

    With fewer than 21 values no percentile above the median has ten beyond
    it; the upper median is reported then. Returns (value, percentile).
    """
    xs = sorted(values)
    k = max(len(xs) - 11, len(xs) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs)


class Speed:
    """Calibration rounds taken between stretches of measured work.

    ``wall_scale(i)`` and ``cpu_scale(i)`` turn the wall and CPU seconds of
    work done between rounds i and i + 1 into seconds at the reference speed:
    the kernel's reference time over the mean of those two rounds.

    The CPUs of the host change speed independently of each other. Work done
    in this process runs on the CPU that the rounds just before and after it
    ran on; work done by a child process may run on any, so with
    ``every_cpu`` a round runs the kernel once pinned to each CPU this
    process may use and records the mean.
    """

    def __init__(self, kind: str, every_cpu: bool):
        self.kind = kind
        self.every_cpu = every_cpu
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def round(self) -> None:
        cpu0 = cpu_seconds()
        if self.every_cpu:
            allowed = os.sched_getaffinity(0)
            try:
                walls = []
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    walls.append(calibrate.measure(self.kind))
            finally:
                os.sched_setaffinity(0, allowed)
        else:
            walls = [calibrate.measure(self.kind)]
        self.walls.append(statistics.fmean(walls))
        self.cpus.append((cpu_seconds() - cpu0) / len(walls))

    def wall_scale(self, i: int = 0) -> float:
        return 2 * calibrate.reference_seconds(self.kind) / (self.walls[i] + self.walls[i + 1])

    def cpu_scale(self, i: int = 0) -> float:
        return 2 * calibrate.reference_seconds(self.kind) / (self.cpus[i] + self.cpus[i + 1])


def set_up(workloads, name: str, seed: int, smoke: bool):
    """Import cost plus golden loading and input generation for the first pass.

    Returns the workload, the first pass's inputs, the set-up time at the
    reference speed, the raw set-up time and the cold start at the reference
    speed.
    """
    cls = workloads.WORKLOADS[name]
    speed = Speed(cls.calibration, every_cpu=cls.child_processes)
    speed.round()
    t0 = time.perf_counter()
    cold = workloads.cold_start(ROOT)
    wl = cls(ROOT, seed, smoke, workloads.load_golden())
    wl.prepare()
    first = wl.op_inputs(0)
    raw = time.perf_counter() - t0
    speed.round()
    return wl, first, raw * speed.wall_scale(), raw, cold * speed.wall_scale()


class Loop:
    """Runs passes until the time is up and keeps what each one measured."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.walls = {False: [], True: []}  # traced? -> raw pass wall seconds
        self.op_walls: list[list[float]] = []  # untraced passes: raw seconds per op
        self.cpus: list[float] = []  # untraced passes: raw CPU seconds
        self.rounds: list[list[float]] = []  # untraced passes: calibration round seconds
        # pass times at the reference speed
        self.scaled_walls = {False: [], True: []}
        self.scaled_cpus: list[float] = []
        self.traced_scales: list[float] = []  # traced passes: wall scale
        self.counts: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one_pass(self, pass_no: int, inputs: list, traced: bool) -> None:
        wl, tr = self.wl, self.tracer
        results = []
        if traced:
            counts: dict = {}
            speed = Speed(wl.calibration, every_cpu=wl.child_processes)
            speed.round()
            t0 = time.perf_counter()
            with tr.span("pass"):
                for op_no, x in enumerate(inputs):
                    tr.op = f"{pass_no}.{op_no}"
                    try:
                        results.append(wl.run_op_traced(x, tr, counts))
                    except Exception as exc:  # counted as a failed op
                        results.append(exc)
            tr.op = None
            wall = time.perf_counter() - t0
            speed.round()
            self.walls[True].append(wall)
            self.scaled_walls[True].append(wall * speed.wall_scale())
            self.traced_scales.append(speed.wall_scale())
            self.counts.append(counts)
        else:
            # The pass's times are its ops' times; the rounds between them are
            # not counted. Each op is scaled by the rounds just before and after
            # it, so the long ops that make most of a pass weigh most.
            speed = Speed(wl.calibration, every_cpu=wl.child_processes)
            speed.round()
            op_walls, op_cpus, brackets, since_round = [], [], [], 0.0
            for op_no, x in enumerate(inputs):
                brackets.append(len(speed.walls) - 1)
                cpu0 = cpu_seconds()
                t_op = time.perf_counter()
                try:
                    results.append(wl.run_op(x))
                except Exception as exc:  # counted as a failed op
                    results.append(exc)
                op_walls.append(time.perf_counter() - t_op)
                op_cpus.append(cpu_seconds() - cpu0)
                since_round += op_walls[-1]
                if since_round >= ROUND_EVERY_S or op_no == len(inputs) - 1:
                    speed.round()
                    since_round = 0.0
            self.walls[False].append(sum(op_walls))
            self.op_walls.append(op_walls)
            self.cpus.append(sum(op_cpus))
            self.rounds.append(speed.walls)
            self.scaled_walls[False].append(
                sum(w * speed.wall_scale(i) for w, i in zip(op_walls, brackets))
            )
            self.scaled_cpus.append(sum(c * speed.cpu_scale(i) for c, i in zip(op_cpus, brackets)))
        for x, out in zip(inputs, results):
            self.attempted += 1
            if not self.check(x, out):
                self.failed += 1

    def check(self, x, out) -> bool:
        if isinstance(out, Exception):
            self.errors.append("".join(traceback.format_exception(out)))
            return False
        try:
            return self.wl.check_op(x, out)
        except Exception:  # a check that cannot read the output is a failure
            self.errors.append(traceback.format_exc())
            return False


def run_loop(wl, first: list, seconds: float, smoke: bool, trace: bool, tracer) -> Loop:
    loop = Loop(wl, tracer)
    start = time.perf_counter()
    inputs = first
    pass_no = 0
    min_passes = 2 if trace else 1  # a traced run needs one pass of each kind
    while True:
        loop.one_pass(pass_no, inputs, traced=trace and pass_no % 2 == 1)
        pass_no += 1
        if pass_no >= min_passes and (smoke or time.perf_counter() - start >= seconds):
            return loop
        inputs = wl.op_inputs(pass_no)


def end_to_end(loop: Loop, setups: list[float], child_processes: bool) -> tuple[dict, dict]:
    """Metrics in seconds at the reference speed, and the raw medians beside them."""
    walls, cpus = loop.scaled_walls[False], loop.scaled_cpus
    tail_s, tail_pct = tail(walls)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if child_processes else resource.RUSAGE_SELF)
    metrics = {
        "pass_s_p50": (statistics.median(walls), "s"),
        "pass_s_tail": (tail_s, "s"),
        "ops_per_s": ((loop.attempted - loop.failed) / sum(walls), "1/s"),
        "cpu_s_per_pass": (statistics.median(cpus), "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),  # ru_maxrss is in KiB on Linux
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {
        "pass_s_tail_percentile": tail_pct,
        "passes": len(walls),
        "raw_pass_s_p50": statistics.median(loop.walls[False]),
        "raw_cpu_s_per_pass": statistics.median(loop.cpus),
        "calibration_round_ms_p50": 1e3 * statistics.median(w for r in loop.rounds for w in r),
    }
    return metrics, extra


def ms_median(values) -> float:
    return statistics.median(values) * 1e3


def scaled(per_pass: list[dict], scales: list[float]) -> list[dict]:
    """Span totals of each traced pass at the reference speed."""
    return [{name: t * k for name, t in d.items()} for d, k in zip(per_pass, scales)]


def per_layer(loop: Loop, tracer, colds: list[float]) -> tuple[dict, dict]:
    """Span times at the reference speed; counts as made."""
    incl = scaled(tracer.totals_by_root("pass"), loop.traced_scales)
    own = scaled(tracer.totals_by_root("pass", self_time=True), loop.traced_scales)

    def ms(*names, per=incl):
        return ms_median([sum(d.get(n, 0.0) for n in names) for d in per])

    counts = loop.counts
    count_keys = sorted({k for c in counts for k in c})

    def count(key):
        return statistics.median([c.get(key, 0) for c in counts])

    admissible, space = count("line.admissible_pairs"), count("line.pair_space")
    metrics = {
        "build.validate_ms": (ms("build.validate"), "ms"),
        "build.recipe_ms": (ms("build.recipe"), "ms"),
        "build.emit_ms": (ms("build.emit"), "ms"),
        "core.units_ms": (ms("core.units"), "ms"),
        "core.radical_ms": (ms("core.radical"), "ms"),
        "core.ideals_one_sided_ms": (ms("core.ideals_left", "core.ideals_right"), "ms"),
        "core.ideals_two_sided_ms": (ms("core.ideals_two_sided"), "ms"),
        "core.fingerprint_ms": (ms("core.fingerprint"), "ms"),
        "core.ideals_count": (count("core.ideals_count"), "count"),
        "line.left_ms": (ms("line.left"), "ms"),
        "line.right_ms": (ms("line.right"), "ms"),
        "line.points": (count("line.points"), "count"),
        "line.admissible_pairs": (admissible, "count"),
        "line.pair_space": (space, "count"),
        "line.admissible_ratio": (admissible / space if space else 0.0, "ratio"),
        "line.distant_edges": (count("line.distant_edges"), "count"),
        "line.right_breakdowns": (count("line.right_breakdowns"), "count"),
        "stats.signature_ms": (ms("stats.signature"), "ms"),
        "stats.one_n_ms": (ms("stats.one_n"), "ms"),
        "stats.cap2n_ms": (ms("stats.cap2n"), "ms"),
        "stats.cap3n_ms": (ms("stats.cap3n"), "ms"),
        "stats.jcb_ms": (ms("stats.jcb"), "ms"),
        "stats.distant_pairs": (count("stats.distant_pairs"), "count"),
        "stats.distant_triples": (count("stats.distant_triples"), "count"),
        "clique.max_clique_ms": (ms("clique.max_clique"), "ms"),
        "clique.md_total": (count("clique.md_total"), "count"),
        "catalog.run_ms": (ms("catalog.run"), "ms"),
        "catalog.pool_overhead_ms": (
            ms_median([d.get("catalog.run", 0.0) - d.get("catalog.entry", 0.0) for d in incl]),
            "ms",
        ),
        "catalog.serialize_ms": (ms("catalog.serialize"), "ms"),
        "cli.cold_start_ms": (ms_median(colds), "ms"),
        "cli.self_ms": (ms("cli.main", per=own), "ms"),
        "trace.overhead_ms": (
            ms_median(loop.scaled_walls[True]) - ms_median(loop.scaled_walls[False]),
            "ms",
        ),
    }
    extra = {
        "traced_passes": len(loop.walls[True]),
        "untraced_passes": len(loop.walls[False]),
        "counts_repeat_exactly": all(
            len({c.get(k, 0) for c in counts}) == 1 for k in count_keys
        ),
        "self_ms_by_span": {
            name: ms_median([d.get(name, 0.0) for d in own])
            for name in sorted({n for d in own for n in d})
        },
    }
    return metrics, extra


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("catalog-cli", "lines32", "structure64"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one ring or entry, one pass per kind")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if os.environ.get(THREADS_ENV_VAR) is not None:
        print(f"perfbench: unset {THREADS_ENV_VAR}; the default pool is what is measured",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "ringline" / "__init__.py").is_file():
        print(f"perfbench: no ringline sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ringline
    import workloads
    from spans import Tracer

    if not Path(ringline.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported ringline from {ringline.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env_record = environment(src)

    setups, raw_setups, colds = [], [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        wl, first, setup_s, raw_setup_s, cold_s = set_up(
            workloads, args.workload, args.seed, args.smoke
        )
        setups.append(setup_s)
        raw_setups.append(raw_setup_s)
        colds.append(cold_s)

    tracer = Tracer()
    try:
        loop = run_loop(wl, first, args.seconds, args.smoke, bool(args.trace), tracer)
    finally:
        wl.cleanup()

    if args.trace:
        metrics, extra = per_layer(loop, tracer, colds)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics, extra = end_to_end(loop, setups, wl.child_processes)

    fail_ratio = loop.failed / loop.attempted
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env_record,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fail_ratio": fail_ratio,
        "extra": extra,
        "pass_walls_s": loop.walls[False],
        "op_walls_s": loop.op_walls,
        "calibration_round_walls_s": loop.rounds,
        "scaled_pass_walls_s": loop.scaled_walls[False],
        "scaled_pass_cpus_s": loop.scaled_cpus,
        "traced_pass_walls_s": loop.walls[True],
        "scaled_traced_pass_walls_s": loop.scaled_walls[True],
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "cold_start_s": colds,
        "errors": loop.errors[:5],
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {tag}: {loop.attempted} ops, {loop.failed} failed, "
          f"{len(loop.walls[False])} untraced and {len(loop.walls[True])} traced passes")
    print("environment: " + json.dumps(env_record))
    for name, (value, unit) in {**metrics, "fail_ratio": (fail_ratio, "ratio")}.items():
        print(f"  {name:<28} {value:>14.6f} {unit}")
    for name, value in extra.items():
        if not isinstance(value, dict):
            print(f"  {name:<28} {value}")
    for err in loop.errors[:1]:
        print(err, file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
