"""Workloads of the ringline benchmark: generated inputs, ops, golden checks.

Every op is built from inputs the benchmark generates itself: base tables come
from ringline's recipe constructors once, then each op relabels them with a
permutation drawn from the seed (0 stays fixed) and hands ringline only the
relabelled tables or the ring-file text written from them. All checked values
(fingerprints, ideal counts, signatures, breakdown histograms) are invariant
under relabelling, so one golden file checks every seed.

Traced ops split the work into layers from outside: they call ringline's
public functions one after another, in the order the program itself calls
them, each inside a span. Nothing inside ringline is instrumented.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import ringline.cli
from ringline import clique, stats
from ringline.build import build_recipe, emit_ring_file, parse_ring_file
from ringline.catalog import RunReport, builtin_catalog
from ringline.core import (
    fingerprint,
    ideal_lattice,
    jacobson_radical,
    unit_elements,
    validate_ring,
)
from ringline.errors import RightLineBreakdown
from ringline.line import build_line, point_type

from spans import Tracer

# The 9 catalog recipes, then rings at the largest order LINE_ORDER_CAP allows.
LINES32_RINGS = (
    "tri(gf:2,2)",
    "tri(gf:3,2)",
    "prod(zn:3,tri(gf:2,2))",
    "mat(gf:2,2)",
    "prod(zn:2,tri(gf:2,2))",
    "prod(gf:4,zn:4)",
    "prod(gf:4,dual(gf:2))",
    "skew(gf:4)",
    "algebra:f2xy",
    "zn:32",  # chain ring: one maximal ideal
    "gf:32",  # field: the distant graph is complete, MD is 33
    "prod(zn:2,mat(gf:2,2))",  # 105 points; the right line breaks down
    "prod(zn:2,prod(zn:2,tri(gf:2,2)))",  # 162 points, non-commutative
    "prod(gf:2,prod(gf:2,prod(gf:2,dual(gf:2))))",  # 162 points, commutative
)

# Orders 27 to 64, past the line cap: only validation and the fingerprint run.
STRUCTURE64_RINGS = (
    "tri(gf:4,2)",
    "prod(zn:4,mat(gf:2,2))",
    "zn:64",
    "gf:64",
    "tri(zn:4,2)",
    "prod(tri(gf:2,2),tri(gf:2,2))",
    "prod(zn:2,prod(zn:2,prod(zn:2,tri(gf:2,2))))",
    "tri(gf:3,2)",
    "prod(zn:3,prod(zn:3,zn:3))",
)

SMOKE_RING = {"lines32": "tri(gf:2,2)", "structure64": "tri(gf:3,2)"}
SMOKE_ENTRY = "t2f2"

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


CHILD_TIME_LIMIT_S = 120


def run_child(argv: list[str], env: dict, cwd: Path) -> int:
    """Run a child process to its end and return its exit code.

    Waits with a blocking wait: subprocess.run with a timeout polls, and
    its poll interval (up to 50 ms) would show up in the measured times.
    A timer kills a child that outlives CHILD_TIME_LIMIT_S.
    """
    with subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ) as proc:
        timer = threading.Timer(CHILD_TIME_LIMIT_S, proc.kill)
        timer.start()
        try:
            return proc.wait()
        finally:
            timer.cancel()


def child_env(root: Path) -> dict:
    """This environment with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + rest if rest else "")
    return env


def cold_start(root: Path) -> float:
    """Seconds for a fresh interpreter to import ringline and exit."""
    t0 = time.perf_counter()
    code = run_child([sys.executable, "-c", "import ringline"], child_env(root), root)
    if code != 0:
        raise RuntimeError(f"importing ringline in a fresh interpreter exited with {code}")
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# input generation


def op_rng(seed: int, workload: str, pass_no: int, op_no: int) -> random.Random:
    """One generator per op, so the inputs of a pass do not depend on earlier passes."""
    return random.Random(f"{seed}:{workload}:{pass_no}:{op_no}")


def relabelled_tables(ring, rng: random.Random) -> tuple[np.ndarray, np.ndarray, int]:
    """Tables of ``ring`` moved along a random permutation that fixes 0."""
    rest = list(range(1, ring.order))
    rng.shuffle(rest)
    perm = np.array([0] + rest)  # perm[old] = new
    inv = np.argsort(perm)
    add = perm[np.asarray(ring.add)[np.ix_(inv, inv)]]
    mul = perm[np.asarray(ring.mul)[np.ix_(inv, inv)]]
    return add, mul, int(perm[ring.one])


def ring_file_text(name: str, add: np.ndarray, mul: np.ndarray, one: int) -> str:
    """The ring file format, written without ringline's emitter."""
    out = [f"ring {name}", f"order {add.shape[0]}", f"one {one}", "add"]
    out.extend(" ".join(map(str, row)) for row in add.tolist())
    out.append("mul")
    out.extend(" ".join(map(str, row)) for row in mul.tolist())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# records compared with the golden file (JSON-native: lists, string keys)


def stat_record(s: stats.StatValue) -> list:
    return [s.value, s.constant, s.lo, s.hi, s.count]


def signature_record(sig: stats.LineSignature) -> dict:
    return {
        "row": list(sig.as_row()),
        "oneN": stat_record(sig.one_n),
        "cap2N": stat_record(sig.cap2n),
        "cap3N": stat_record(sig.cap3n),
        "jcb": {k: sig.jcb[k] for k in sorted(sig.jcb)},
    }


def breakdown_record(exc: RightLineBreakdown) -> dict:
    return {"breakdown": {str(k): v for k, v in sorted(exc.class_sizes.items())}}


def structure_record(ring) -> dict:
    return {
        "fingerprint": list(fingerprint(ring).as_tuple()),
        "ideals": [len(ideal_lattice(ring, side)) for side in ("left", "right", "two_sided")],
    }


def lines_record(ring) -> dict:
    rec = {"left": signature_record(stats.signature(build_line(ring, "left")))}
    try:
        rec["right"] = signature_record(stats.signature(build_line(ring, "right")))
    except RightLineBreakdown as exc:
        rec["right"] = breakdown_record(exc)
    return rec


def drop_timings(report: dict) -> dict:
    return {
        **report,
        "entries": [{k: v for k, v in e.items() if k != "elapsedMs"} for e in report["entries"]],
    }


def catalog_golden(golden: dict, names: tuple[str, ...] | None) -> tuple[dict, str]:
    """The golden report and CSV, restricted to the named entries when given."""
    report, csv_text = golden["catalog"]["report"], golden["catalog"]["csv"]
    if names is None:
        return report, csv_text
    rows = csv_text.splitlines(keepends=True)
    keep = [i for i, e in enumerate(report["entries"]) if e["name"] in names]
    entries = [report["entries"][i] for i in keep]
    matrix = {}
    for cand, row in report["jcbMatrix"].items():
        sub = {n: ok for n, ok in row.items() if n in names}
        if sub:
            matrix[cand] = sub
    restricted = {
        "passed": all(e["status"] != "FAIL" for e in entries),
        "jcbMatrix": matrix,
        "entries": entries,
    }
    return restricted, rows[0] + "".join(rows[i + 1] for i in keep)


# ---------------------------------------------------------------------------
# traced replays of ringline's own sequences


def traced_signature(tr: Tracer, line) -> stats.LineSignature:
    """stats.signature, one statistic per span."""
    with tr.span("stats.signature"):
        tpi = sum(1 for i in range(len(line.points)) if point_type(line, i) == "TypeI")
        with tr.span("stats.one_n"):
            one_n = stats.one_neighbourhood_stat(line)
        with tr.span("stats.cap2n"):
            cap2n = stats.pair_intersection_stat(line)
        with tr.span("stats.cap3n"):
            cap3n = stats.triple_intersection_stat(line)
        with tr.span("clique.max_clique"):
            md = len(clique.max_clique(line.adjacency))
        with tr.span("stats.jcb"):
            jcb = {c: stats.jacobson_stat(line, c) for c in stats.JACOBSON_CANDIDATES}
        return stats.LineSignature(
            tot=len(line.points), tpi=tpi, one_n=one_n, cap2n=cap2n, cap3n=cap3n, md=md, jcb=jcb
        )


def traced_structure(tr: Tracer, ring) -> dict:
    """core.fingerprint with its parts computed first, each in a span.

    fingerprint reads the units, radical and ideal lattices from the ring's
    cache, so its own span holds only the rest (characteristic, maximality).
    """
    with tr.span("core.units"):
        unit_elements(ring)
    with tr.span("core.radical"):
        jacobson_radical(ring)
    with tr.span("core.ideals_left"):
        ideal_lattice(ring, "left")
    with tr.span("core.ideals_right"):
        ideal_lattice(ring, "right")
    with tr.span("core.ideals_two_sided"):
        ideal_lattice(ring, "two_sided")
    with tr.span("core.fingerprint"):
        fingerprint(ring)
    return structure_record(ring)


def traced_lines(tr: Tracer, ring) -> tuple[dict, dict]:
    """Both lines and their signatures; returns (record, work counts)."""
    with tr.span("line.left"):
        left = build_line(ring, "left")
    rec = {"left": signature_record(traced_signature(tr, left))}
    lines = [left]
    try:
        with tr.span("line.right"):
            right = build_line(ring, "right")
    except RightLineBreakdown as exc:
        rec["right"] = breakdown_record(exc)
    else:
        rec["right"] = signature_record(traced_signature(tr, right))
        lines.append(right)
    sigs = [rec[side] for side in ("left", "right") if "row" in rec[side]]
    counts = {
        "line.points": sum(len(line) for line in lines),
        "line.admissible_pairs": sum(len(p.members) for p in left.points),
        "line.pair_space": ring.order**2,
        "line.distant_edges": sum(int(line.adjacency.sum()) // 2 for line in lines),
        "line.right_breakdowns": int("breakdown" in rec["right"]),
        "stats.distant_pairs": sum(sig["cap2N"][4] for sig in sigs),
        "stats.distant_triples": sum(sig["cap3N"][4] for sig in sigs),
        "clique.md_total": sum(sig["row"][5] for sig in sigs),
    }
    return rec, counts


def add_counts(total: dict, counts: dict) -> None:
    for k, v in counts.items():
        total[k] = total.get(k, 0) + v


# ---------------------------------------------------------------------------
# workloads


class RingWorkload:
    """One op per ring; an op sees only the relabelled tables of its ring."""

    name = ""
    recipes: tuple[str, ...] = ()
    child_processes = False
    calibration = ""  # the calibrate.py kernel that follows this workload's work

    def __init__(self, root: Path, seed: int, smoke: bool, golden: dict):
        self.root = root
        self.seed = seed
        self.golden = golden
        self.chosen = (SMOKE_RING[self.name],) if smoke else self.recipes
        self.base = []

    def prepare(self) -> None:
        self.base = [build_recipe(r) for r in self.chosen]

    def op_inputs(self, pass_no: int) -> list:
        out = []
        for op_no, (recipe, ring) in enumerate(zip(self.chosen, self.base)):
            add, mul, one = relabelled_tables(ring, op_rng(self.seed, self.name, pass_no, op_no))
            out.append(self.make_input(recipe, add, mul, one))
        return out

    def expected(self, recipe: str, rec: dict) -> dict:
        want = self.golden["rings"][recipe]
        return {k: want[k] for k in rec}

    def cleanup(self) -> None:
        pass


class Lines32(RingWorkload):
    """validate_ring, then both lines and their signatures."""

    name = "lines32"
    recipes = LINES32_RINGS
    calibration = "line"

    def make_input(self, recipe, add, mul, one):
        return (recipe, add, mul, one)

    def run_op(self, x) -> dict:
        recipe, add, mul, one = x
        return lines_record(validate_ring(add, mul, one, name=recipe))

    def run_op_traced(self, x, tr: Tracer, counts: dict) -> dict:
        recipe, add, mul, one = x
        with tr.span("build.validate"):
            ring = validate_ring(add, mul, one, name=recipe)
        # build_line and signature read these from the ring's cache
        with tr.span("core.units"):
            unit_elements(ring)
        with tr.span("core.radical"):
            jacobson_radical(ring)
        rec, line_counts = traced_lines(tr, ring)
        add_counts(counts, line_counts)
        return rec

    def check_op(self, x, rec: dict) -> bool:
        return rec == self.expected(x[0], rec)


class Structure64(RingWorkload):
    """The `ring validate`/`ring show` path: parse, fingerprint, emit."""

    name = "structure64"
    recipes = STRUCTURE64_RINGS
    calibration = "core"

    def make_input(self, recipe, add, mul, one):
        return (recipe, ring_file_text(recipe, add, mul, one))

    def run_op(self, x) -> tuple[dict, str]:
        ring = parse_ring_file(x[1])
        fp = fingerprint(ring)
        return {"fingerprint": list(fp.as_tuple())}, emit_ring_file(ring)

    def run_op_traced(self, x, tr: Tracer, counts: dict) -> tuple[dict, str]:
        with tr.span("build.validate"):
            ring = parse_ring_file(x[1])
        rec = traced_structure(tr, ring)
        with tr.span("build.emit"):
            text = emit_ring_file(ring)
        add_counts(counts, {"core.ideals_count": sum(rec["ideals"])})
        return rec, text

    def check_op(self, x, out) -> bool:
        rec, text = out
        return text == x[1] and rec == self.expected(x[0], rec)


class CatalogCli:
    """`python -m ringline catalog run --json --csv` in a fresh interpreter.

    A traced op runs the same command in-process, with run_catalog and the
    report serializers wrapped in spans, then replays evaluate_entry's steps
    for every entry so the layers below the catalog can be split.
    """

    name = "catalog-cli"
    child_processes = True
    calibration = "line"  # the lines are most of a catalog run

    def __init__(self, root: Path, seed: int, smoke: bool, golden: dict):
        self.root = root
        self.golden = golden
        self.entries = (SMOKE_ENTRY,) if smoke else None
        out_dir = root / ".perfbench_out"
        self.json_path = out_dir / f"catalog-{os.getpid()}.json"
        self.csv_path = out_dir / f"catalog-{os.getpid()}.csv"
        self.env = child_env(root)

    def prepare(self) -> None:
        self.want_report, self.want_csv = catalog_golden(self.golden, self.entries)

    def argv(self) -> list[str]:
        args = ["catalog", "run", "--json", str(self.json_path), "--csv", str(self.csv_path)]
        for name in self.entries or ():
            args += ["--entry", name]
        return args

    def op_inputs(self, pass_no: int) -> list:
        self.cleanup()  # a stale report must not pass the check
        return [pass_no]

    def run_op(self, x) -> tuple[int, list]:
        return run_child([sys.executable, "-m", "ringline", *self.argv()], self.env, self.root), []

    def run_op_traced(self, x, tr: Tracer, counts: dict) -> tuple[int, list]:
        with tr.span("cli.main"), wrapped_catalog(tr):
            with contextlib.redirect_stdout(io.StringIO()):
                code = ringline.cli.main(self.argv())
        replayed = []
        for entry in builtin_catalog():
            if self.entries is not None and entry.name not in self.entries:
                continue
            with tr.span("catalog.entry"):
                if entry.recipe is None:
                    continue
                with tr.span("build.recipe"):
                    ring = build_recipe(entry.recipe)
                rec = traced_structure(tr, ring)
                lines, line_counts = traced_lines(tr, ring)
            rec.update(lines)
            add_counts(counts, line_counts)
            add_counts(counts, {"core.ideals_count": sum(rec["ideals"])})
            replayed.append((entry.recipe, rec))
        return code, replayed

    def check_op(self, x, out: tuple[int, list]) -> bool:
        code, replayed = out
        if code != 0 or not (self.json_path.is_file() and self.csv_path.is_file()):
            return False
        report = json.loads(self.json_path.read_text(encoding="utf-8"))
        if drop_timings(report) != self.want_report:
            return False
        if self.csv_path.read_text(encoding="utf-8") != self.want_csv:
            return False
        golden = self.golden["rings"]
        return all(rec == {k: golden[recipe][k] for k in rec} for recipe, rec in replayed)

    def cleanup(self) -> None:
        for path in (self.json_path, self.csv_path):
            path.unlink(missing_ok=True)


@contextlib.contextmanager
def wrapped_catalog(tr: Tracer):
    """Spans around run_catalog and the report serializers while the CLI runs."""
    run, to_json, to_csv = ringline.cli.run_catalog, RunReport.to_json_dict, RunReport.to_csv_text

    def traced_run(*args, **kwargs):
        with tr.span("catalog.run"):
            return run(*args, **kwargs)

    def traced_json(self):
        with tr.span("catalog.serialize"):
            return to_json(self)

    def traced_csv(self):
        with tr.span("catalog.serialize"):
            return to_csv(self)

    ringline.cli.run_catalog = traced_run
    RunReport.to_json_dict, RunReport.to_csv_text = traced_json, traced_csv
    try:
        yield
    finally:
        ringline.cli.run_catalog = run
        RunReport.to_json_dict, RunReport.to_csv_text = to_json, to_csv


WORKLOADS = {w.name: w for w in (CatalogCli, Lines32, Structure64)}
