"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from conftest import catalog_entry, catalog_report, line_of, result_of, ring_of
from helpers import (
    brute_has_clique,
    det_is_unit,
    is_admissible,
    is_invertible_2x2,
    member_pairs,
)

from ringline import (
    RightLineBreakdown,
    build_line,
    evaluate_entry,
    ideal_lattice,
    max_distant_set,
    maximal_ideal_count,
    unit_elements,
)

CONFIRMED_ROWS = {
    "t2f2": (18, 14, 9, 4, 0, 3),
    "t2f3": (48, 42, 20, 6, 0, 4),
    "z3xt2f2": (72, 44, 47, 28, 12, 3),
    "m2f2": (35, 26, 18, 9, 3, 5),
    "z2xt2f2": (54, 30, 37, 24, 12, 3),
}
BRACKET_ROW = (30, 26, 13, 4, 0, 3)
CANDIDATE_ROWS = {"skewgf4": (20, 20, 3, 0, 0, 5), "f2xy": (24, 24, 7, 0, 0, 3)}
ALL_RING_ENTRIES = (
    list(CONFIRMED_ROWS) + ["gf4xz4", "gf4xdualf2"] + list(CANDIDATE_ROWS)
)
PRODUCT_ENTRIES = {
    "z3xt2f2": ("gf3", "t2f2"),
    "z2xt2f2": ("gf2", "t2f2"),
    "gf4xz4": ("gf4", "z4"),
    "gf4xdualf2": ("gf4", "dualf2"),
}


def _verdict(num: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE] criterion {num} ({title}): {status}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_confirmed_rows_exact():
    failures = []
    report = catalog_report()
    for name, expected in CONFIRMED_ROWS.items():
        result = result_of(report, name)
        sig = result.left
        if sig.as_row() != expected:
            failures.append(f"{name}: {sig.as_row()} != {expected}")
        if not (sig.one_n.constant and sig.cap2n.constant and sig.cap3n.constant):
            failures.append(f"{name}: constancy flag false")
        if result.elapsed_ms >= 60_000:
            failures.append(f"{name}: took {result.elapsed_ms:.0f} ms")
        if result.status != "PASS":
            failures.append(f"{name}: status {result.status}")
    _verdict(1, "Table-1 reproduction, exact", failures)


def test_criterion_2_commutative_counterparts():
    failures = []
    for name in ("gf4xz4", "gf4xdualf2"):
        sig = result_of(catalog_report(), name).left
        if sig.as_row() != BRACKET_ROW:
            failures.append(f"{name}: {sig.as_row()} != {BRACKET_ROW}")
    _verdict(2, "commutative counterpart brackets, exact", failures)


def test_criterion_3_candidate_rows():
    failures = []
    report = catalog_report()
    for name, expected in CANDIDATE_ROWS.items():
        result = result_of(report, name)
        if result.left.as_row() != expected:
            failures.append(f"{name}: {result.left.as_row()} != {expected}")
        if result.status != "PASS":
            failures.append(f"{name}: status {result.status}")
    # a failing candidate must surface as UNRESOLVED, never as silent PASS
    doctored = catalog_entry("skewgf4")._replace(expected=(20, 20, 3, 0, 0, 4))
    outcome = evaluate_entry(doctored)
    if outcome.status != "UNRESOLVED":
        failures.append(f"failing candidate reported as {outcome.status}")
    if outcome.comparison["pass"]:
        failures.append("failing candidate comparison did not report the mismatch")
    if result_of(catalog_report(), "row16_12").status != "UNRESOLVED":
        failures.append("row 16/12 slot must be UNRESOLVED")
    _verdict(3, "candidate rows with honest fallback", failures)


def test_criterion_4_ideal_structure():
    failures = []
    m2 = ring_of("m2f2")
    if maximal_ideal_count(m2, "right") != 3:
        failures.append("m2f2 right maximal count != 3")
    if maximal_ideal_count(m2, "left") != 3:
        failures.append("m2f2 left maximal count != 3")
    proper_two_sided = [
        i for i in ideal_lattice(m2, "two_sided") if 1 < len(i) < m2.order
    ]
    if proper_two_sided:
        failures.append("m2f2 has a proper nonzero two-sided ideal")
    for name in ("gf4xz4", "gf4xdualf2"):
        if maximal_ideal_count(ring_of(name), "two_sided") != 2:
            failures.append(f"{name}: maximal two-sided count != 2")
    _verdict(4, "ideal structure of the exceptional ring", failures)


def test_criterion_5_right_line_behavior():
    failures = []
    try:
        build_line(ring_of("m2f2"), "right")
        failures.append("m2f2 right line did not break down")
    except RightLineBreakdown as exc:
        if len(exc.class_sizes) < 2:
            failures.append(f"class sizes constant: {exc.class_sizes}")
    report = catalog_report()
    for result in report.results:
        if result.entry.name in ("m2f2", "row16_12"):
            continue
        if result.right_status != "ok":
            failures.append(f"{result.entry.name}: right status {result.right_status}")
        elif result.right != result.left:
            failures.append(f"{result.entry.name}: right signature differs from left")
    # the right relation must itself be well defined (class-representative free)
    for name in ALL_RING_ENTRIES:
        if name == "m2f2":
            continue
        line = line_of(name, "right")
        rng = random.Random(f"right-swap-{name}")
        for _ in range(100):
            i, j = rng.sample(range(len(line.points)), 2)
            row1 = rng.choice(member_pairs(line, i))
            row2 = rng.choice(member_pairs(line, j))
            if is_invertible_2x2(line.ring, (row1, row2)) != line.adjacency[i, j]:
                failures.append(f"{name}: right distant depends on representatives")
                break
    _verdict(5, "right-line existence and the 16/10 breakdown", failures)


def _count_admissible_pairs(ring) -> int:
    """Completion-search oracle over all pairs, with per-row cached masks.

    Same predicate as is_admissible (solve MX=I column-wise), organised for
    bulk evaluation; stays independent of the orbit reduction in build_line.
    """
    n = ring.order
    add, mul, one = ring.add, ring.mul, ring.one
    ones: dict[tuple[int, int], np.ndarray] = {}
    zeros: dict[tuple[int, int], np.ndarray] = {}

    def masks(a, b):
        key = (a, b)
        if key not in ones:
            f = add[np.ix_(mul[a], mul[b])].ravel()
            ones[key] = f == one
            zeros[key] = f == 0
        return ones[key], zeros[key]

    pairs = [(a, b) for a in range(n) for b in range(n)]
    count = 0
    for a, b in pairs:
        m1, m0 = masks(a, b)
        for c, d in pairs:
            c1, c0 = masks(c, d)
            if (m1 & c0).any() and (m0 & c1).any():
                count += 1
                break
    return count


def test_criterion_6_property_suite():
    failures = []
    for name in ALL_RING_ENTRIES:
        line = line_of(name)
        ring = line.ring
        nunits = len(unit_elements(ring))
        adj = line.adjacency

        if not np.array_equal(adj, adj.T) or adj.diagonal().any():
            failures.append(f"{name}: distant not symmetric/irreflexive")
        if not all(len(p.members) == nunits for p in line.points):
            failures.append(f"{name}: left class size != unit count")

        admissible = _count_admissible_pairs(ring)
        if len(line.points) * nunits != admissible:
            failures.append(
                f"{name}: Tot*|units| = {len(line.points) * nunits} != {admissible}"
            )
        rng = random.Random(f"adm-{name}")
        for _ in range(20):  # tie the bulk oracle to the public scan
            pair = (rng.randrange(ring.order), rng.randrange(ring.order))
            in_line = any(pair in member_pairs(line, i) for i in range(len(line.points)))
            if is_admissible(ring, pair) != in_line:
                failures.append(f"{name}: is_admissible disagrees at {pair}")
                break

        rng = random.Random(f"swap-{name}")
        for _ in range(200):
            i, j = rng.sample(range(len(line.points)), 2)
            row1 = rng.choice(member_pairs(line, i))
            row2 = rng.choice(member_pairs(line, j))
            if is_invertible_2x2(ring, (row1, row2)) != adj[i, j]:
                failures.append(f"{name}: distant depends on representatives")
                break

        chosen = max_distant_set(line)
        if not all(adj[u, v] for u, v in combinations(chosen, 2)):
            failures.append(f"{name}: clique certificate failed")
        if len(line.points) <= 40:
            if not brute_has_clique(adj, len(chosen)):
                failures.append(f"{name}: brute force missed the clique")
            if brute_has_clique(adj, len(chosen) + 1):
                failures.append(f"{name}: brute force found a larger clique")

    for name in ("gf4xz4", "gf4xdualf2"):  # determinant route, commutative only
        line = line_of(name)
        ring = line.ring
        det_adj = np.zeros_like(line.adjacency)
        for i in range(len(line.points)):
            for j in range(i + 1, len(line.points)):
                verdict = det_is_unit(ring, (line.points[i].rep, line.points[j].rep))
                det_adj[i, j] = det_adj[j, i] = verdict
        if not np.array_equal(det_adj, line.adjacency):
            failures.append(f"{name}: determinant oracle disagrees with solver")

    for name, q in (("gf2", 2), ("gf3", 3), ("gf4", 4)):
        line = line_of(name)
        if len(line.points) != q + 1 or not all(
            line.adjacency[i, j]
            for i, j in combinations(range(len(line.points)), 2)
        ):
            failures.append(f"GF({q}) line is not a ({q + 1})-point clique")

    for name, (f1, f2) in PRODUCT_ENTRIES.items():
        tot = len(line_of(name).points)
        if tot != len(line_of(f1).points) * len(line_of(f2).points):
            failures.append(f"{name}: Tot not multiplicative")

    _verdict(6, "line property suite on every catalog ring", failures)


def test_criterion_7_jacobson_candidate_matrix():
    failures = []
    report = catalog_report()
    expected_jcb = {
        "t2f2": 1, "t2f3": 2, "z3xt2f2": 3, "m2f2": 0, "z2xt2f2": 1,
        "gf4xz4": 5, "gf4xdualf2": 5,
    }
    for name, value in expected_jcb.items():
        entry = catalog_entry(name)
        if entry.jcb != value:
            failures.append(f"{name}: informational Jcb {entry.jcb} != {value}")
    matrix = report.jcb_matrix()
    if set(matrix) != {"A", "B", "C"}:
        failures.append(f"matrix candidates {sorted(matrix)}")
    else:
        for cand in ("A", "B", "C"):
            if set(expected_jcb) - set(matrix[cand]):
                failures.append(f"candidate {cand} missing rows")
    for result in report.results:
        if result.left is not None and set(result.left.jcb) != {"A", "B", "C"}:
            failures.append(f"{result.entry.name}: candidate values missing")
    # determinism: an independent evaluation reproduces every candidate value
    for name in ("m2f2", "z3xt2f2"):
        again = evaluate_entry(catalog_entry(name))
        if again.left.jcb != result_of(report, name).left.jcb:
            failures.append(f"{name}: candidate values not deterministic")
    _verdict(7, "Jcb candidate-match matrix, informational", failures)
