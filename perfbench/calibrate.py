"""Fixed reference computations that measure how fast the host runs now.

The benchmark runs on a shared host whose speed drifts by up to 1.7x over
minutes. The drift slows every op of a pass alike, so the benchmark times
rounds of a kernel between ops and scales each pass by the kernel's speed at
that moment (see run.py). The kernels are the benchmark's own code and call
nothing in ringline, so a change to ringline cannot move them.

The drift does not slow every kind of code by the same factor, so there is
one kernel per kind of work a workload spends its time on:

- ``line`` follows ringline's line kernel: tuple-keyed dict work in the
  interpreter and boolean reductions over small numpy masks.
- ``core`` follows ringline's ideal lattice: frozensets built element by
  element from numpy scalar lookups in an addition table.

Each kernel's result is checked, so a round that computes anything else
raises instead of being timed.
"""

from __future__ import annotations

import time

import numpy as np

ORDER = 32  # the line kernel's tables: Z/32


def _line_tables() -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(ORDER)
    return (x[:, None] + x[None, :]) % ORDER, (x[:, None] * x[None, :]) % ORDER


def _core_table() -> np.ndarray:
    """Addition in (Z/4)^3, its 64 elements coded in base 4."""
    x = np.arange(64)
    d = np.stack([x // 16, x // 4 % 4, x % 4], axis=1)
    s = (d[:, None, :] + d[None, :, :]) % 4
    return s[..., 0] * 16 + s[..., 1] * 4 + s[..., 2]


LINE_ADD, LINE_MUL = _line_tables()
CORE_ADD = _core_table()


def line_kernel() -> int:
    """Orbits of pairs under the units of Z/32, then masks compared pairwise."""
    n = ORDER
    add, mul = LINE_ADD, LINE_MUL
    units = [u for u in range(n) if u % 2]
    seen = bytearray(n * n)
    reps = []
    for code in range(n * n):
        if seen[code]:
            continue
        a, b = divmod(code, n)
        orbit = frozenset((int(mul[u, a]), int(mul[u, b])) for u in units)
        for x, y in orbit:
            seen[x * n + y] = 1
        reps.append(min(orbit))
    masks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for a, b in reps:
        f = add[np.ix_(mul[a], mul[b])]
        masks[(a, b)] = ((f == 1).ravel(), (f == 0).ravel())
    verdicts: dict[tuple, bool] = {}
    hits = 0
    for r1 in reps:
        one1, zero1 = masks[r1]
        for r2 in reps:
            one2, zero2 = masks[r2]
            ok = bool((one1 & zero2).any()) and bool((zero1 & one2).any())
            verdicts[(r1, r2)] = ok
            hits += ok
    return hits + len(verdicts)


def core_kernel() -> int:
    """Cyclic subgroups of (Z/4)^3 and all their pairwise sums, five times over."""
    add = CORE_ADD
    found = 0
    for _ in range(5):
        cyclic = set()
        for g in range(64):
            members, y = {0}, g
            while y != 0:
                members.add(y)
                y = int(add[y, g])
            cyclic.add(frozenset(members))
        subgroups = set(cyclic)
        for a in cyclic:
            for b in cyclic:
                subgroups.add(frozenset(int(add[x, y]) for x in a for y in b))
        found += len(subgroups)
    return found


# kind -> (kernel, its result, seconds a round takes at the reference speed)
KERNELS = {
    "line": (line_kernel, 10372, 0.025),
    "core": (core_kernel, 565, 0.025),
}


def measure(kind: str) -> float:
    """Wall seconds of one round of the kernel of ``kind``."""
    kernel, expected, _ = KERNELS[kind]
    t0 = time.perf_counter()
    out = kernel()
    elapsed = time.perf_counter() - t0
    if out != expected:
        raise RuntimeError(f"calibration kernel {kind} gave {out}, expected {expected}")
    return elapsed


def reference_seconds(kind: str) -> float:
    return KERNELS[kind][2]
