"""Command-line interface.

Commands:
    ring show <recipe|file>          print a ring (file format + fingerprint)
    ring validate <file>             validate a ring file
    line compute <recipe|file>       build a line and print its signature
    catalog run                      evaluate catalog entries, JSON/CSV export
    catalog table1                   reproduce the classification table

Exit codes: 0 all comparisons pass, 1 input error, 2 comparison failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import NoReturn

from .build import emit_ring_file, parse_ring_file, ring_from_spec
from .catalog import (
    TABLE1_ROW_ORDER,
    EntryResult,
    _class_sizes_record,
    builtin_catalog,
    row_status,
    run_catalog,
)
from .core import fingerprint
from .errors import RightLineBreakdown, RinglineError
from .line import build_line, type_one
from .stats import signature


def _print_fingerprint_comments(ring) -> None:
    fp = fingerprint(ring)
    print(f"# order/zero-divisors: {fp.order}/{fp.zero_divisor_count}")
    print(f"# units: {fp.unit_count}  characteristic: {fp.characteristic}")
    print(f"# radical size: {fp.radical_size}  commutative: {fp.commutative}")
    print(
        "# maximal ideals (left/right/two-sided): "
        f"{fp.maximal_left_ideal_count}/{fp.maximal_right_ideal_count}"
        f"/{fp.maximal_two_sided_ideal_count}"
    )


def _write(path: str, text: str, done: str) -> None:
    """Write a report file, then print ``done`` followed by its path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{done} {path}")


def _cmd_ring_show(args) -> int:
    ring = ring_from_spec(args.spec)
    _print_fingerprint_comments(ring)
    sys.stdout.write(emit_ring_file(ring))
    return 0


def _cmd_ring_validate(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        ring = parse_ring_file(fh.read())
    print(f"{ring.name}: valid ring of order {ring.order}")
    _print_fingerprint_comments(ring)
    return 0


def _print_signature(sig) -> None:
    def flag(stat):
        if stat.vacuous:
            return " (no witness)"
        return " (constant)" if stat.constant else f" (varies {stat.lo}..{stat.hi})"

    print(f"Tot {sig.tot}  TpI {sig.tpi}  MD {sig.md}")
    print(f"1N {sig.one_n.value}{flag(sig.one_n)}")
    print(f"cap2N {sig.cap2n.value}{flag(sig.cap2n)}")
    print(f"cap3N {sig.cap3n.value}{flag(sig.cap3n)}")
    print("Jcb candidates: " + "  ".join(f"{k}={v}" for k, v in sorted(sig.jcb.items())))


def _cmd_line_compute(args) -> int:
    ring = ring_from_spec(args.spec)
    try:
        line = build_line(ring, args.side)
    except RightLineBreakdown as exc:
        line, sizes = None, _class_sizes_record(exc.class_sizes)
    print(f"ring: {ring.name} (order {ring.order})")
    print(f"side: {args.side}")
    payload = {"ring": ring.name, "side": args.side}
    if line is None:
        print("right line BREAKDOWN: admissible classes have unequal sizes")
        for size, count in sizes.items():
            print(f"  {count} classes of size {size}")
        payload["status"] = "breakdown"
        payload["classSizes"] = sizes
    else:
        sig = signature(line)
        _print_signature(sig)
        if args.export:
            n, types = ring.order, type_one(ring, line.codes).tolist()
            payload.update(
                signature=sig.to_json_dict(),
                jacobsonCandidates=dict(sig.jcb),
                points=[
                    {
                        "rep": list(divmod(code, n)),
                        "members": [list(divmod(c, n)) for c in row],
                        "type": "TypeI" if t else "TypeII",
                    }
                    for code, row, t in zip(line.codes.tolist(), line.rows.tolist(), types)
                ],
                distantAdjacency=line.adjacency.astype(int).tolist(),
            )
    if args.export:
        _write(args.export, json.dumps(payload, indent=2), "exported line to")
    return 0


def _format_entry_line(r: EntryResult) -> str:
    head = f"{r.entry.name:<12} {r.entry.paper_row:<6} {r.status:<10}"
    if r.left is None:
        return f"{head} (no construction shipped)"
    cols = []
    for name, c in r.comparison["perColumn"].items():
        mark = "ok" if c["pass"] else f"FAIL(exp {c['expected']})"
        cols.append(f"{name} {c['observed']} {mark}")
    same = "right=left" if r.right == r.left else "right!=left"
    right = "right BREAKDOWN" if r.right is None else same
    right_mark = "" if r.right_ok else " (unexpected)"
    return f"{head} " + "  ".join(cols) + f"  [{right}{right_mark}]"


def _cmd_catalog_run(args) -> int:
    entries = builtin_catalog()
    if args.entry:
        by_name = {e.name: e for e in entries}
        for name in args.entry:
            if name not in by_name:
                raise RinglineError(f"no catalog entry {name!r} (known: {', '.join(by_name)})")
        # a repeated name is evaluated once, at its first position
        entries = tuple(by_name[name] for name in dict.fromkeys(args.entry))
    report = run_catalog(entries)
    for r in report.results:
        print(_format_entry_line(r))
    matrix = report.jcb_matrix()
    if matrix:
        print("Jcb candidate match matrix (informational):")
        for cand in sorted(matrix):
            row = "  ".join(
                f"{name}:{'y' if ok else 'n'}" for name, ok in sorted(matrix[cand].items())
            )
            print(f"  {cand}: {row}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    if args.json:
        _write(args.json, json.dumps(report.to_json_dict(), indent=2), "wrote JSON report to")
    if args.csv:
        _write(args.csv, report.to_csv_text(), "wrote CSV report to")
    return 0 if report.passed else 2


def _cmd_catalog_table1(args) -> int:
    report = run_catalog()
    by_row: dict[str, list[EntryResult]] = {}
    for r in report.results:
        by_row.setdefault(r.entry.paper_row, []).append(r)
    header = f"{'row':<7} {'entry':<12} {'Tot':>7} {'TpI':>7} {'1N':>7} {'2N':>7} {'3N':>7} {'MD':>7}  status"
    print(header)
    print("-" * len(header))
    rows_json = []
    for row_label in TABLE1_ROW_ORDER:
        group = by_row.get(row_label, [])
        for r in sorted(group, key=lambda x: (x.entry.provenance != "paper-row", x.entry.name)):
            if r.left is None:
                cells = ["-"] * 6
            else:
                cells = [
                    f"{c['observed']}{'' if c['pass'] else '!'}"
                    for c in r.comparison["perColumn"].values()
                ]
            print(
                f"{row_label:<7} {r.entry.name:<12} "
                + " ".join(f"{c:>7}" for c in cells)
                + f"  {r.status}"
            )
        rows_json.append(
            {
                "row": row_label,
                "entries": [r.to_json_dict() for r in group],
                "status": row_status(group),
            }
        )
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    if args.json:
        _write(args.json, json.dumps(rows_json, indent=2), "wrote Table-1 JSON to")
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringline",
        description="Finite rings with unity and the classification of their projective lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring_p = sub.add_parser("ring", help="ring construction and validation")
    ring_sub = ring_p.add_subparsers(dest="subcommand", required=True)
    show_p = ring_sub.add_parser("show", help="print a ring in file format")
    show_p.add_argument("spec", help="recipe string (e.g. zn:4, mat(gf:2,2)) or file path")
    show_p.set_defaults(func=_cmd_ring_show)
    val_p = ring_sub.add_parser("validate", help="validate a ring file")
    val_p.add_argument("file")
    val_p.set_defaults(func=_cmd_ring_validate)

    line_p = sub.add_parser("line", help="projective line computations")
    line_sub = line_p.add_subparsers(dest="subcommand", required=True)
    comp_p = line_sub.add_parser("compute", help="build a line and print its signature")
    comp_p.add_argument("spec", help="recipe string or ring file path")
    comp_p.add_argument("--side", choices=("left", "right"), default="left")
    comp_p.add_argument("--export", metavar="PATH", help="write the line as JSON")
    comp_p.set_defaults(func=_cmd_line_compute)

    cat_p = sub.add_parser("catalog", help="run the built-in catalog")
    cat_sub = cat_p.add_subparsers(dest="subcommand", required=True)
    run_p = cat_sub.add_parser("run", help="evaluate catalog entries")
    run_p.add_argument("--entry", action="append", help="restrict to a named entry")
    run_p.add_argument("--json", metavar="PATH", help="write the JSON report")
    run_p.add_argument("--csv", metavar="PATH", help="write the CSV report")
    run_p.set_defaults(func=_cmd_catalog_run)
    t1_p = cat_sub.add_parser("table1", help="reproduce the classification table")
    t1_p.add_argument("--json", metavar="PATH", help="write one JSON object per row")
    t1_p.set_defaults(func=_cmd_catalog_table1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (RinglineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> NoReturn:
    """Run main on the process's arguments and exit with its status: the one
    entry of ``python -m ringline`` and the ``ringline`` script.

    The heap is frozen first, so the interpreter's final collection skips
    every object alive when main returned, most of them made by importing
    numpy and ringline, whose memory the OS reclaims anyway. Exit handlers
    and stream flushes run as before. main itself never freezes, so an
    in-process caller still collects its garbage.
    """
    status = main()
    gc.freeze()
    raise SystemExit(status)
