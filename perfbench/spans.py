"""In-memory spans recorded around calls into ringline's public functions.

A span is (name, start, end, parent, op). Spans are kept in a list while the
benchmark runs and written out once at exit. The span stack is a plain list,
so a tracer belongs to one thread; every traced call is made from the thread
that owns it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.ops: list[str | None] = []
        self._stack: list[int] = []
        self.op: str | None = None  # id shared by the spans of one op

    @contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.ops.append(self.op)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children run inside their parent on the same thread, so their
        intervals never overlap and subtracting their sum is exact.
        """
        own = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent is not None:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def roots(self) -> list[int]:
        """Index of the outermost span enclosing each span (itself for a root)."""
        root: list[int] = []
        for idx, parent in enumerate(self.parents):
            root.append(idx if parent is None else root[parent])
        return root

    def totals_by_root(self, root_name: str, self_time: bool = False) -> list[dict[str, float]]:
        """Per root span called ``root_name``: seconds summed by span name."""
        values = self.self_times() if self_time else self.durations()
        roots = self.roots()
        order = [i for i, n in enumerate(self.names) if n == root_name and self.parents[i] is None]
        per_root: dict[int, dict[str, float]] = {i: {} for i in order}
        for idx, name in enumerate(self.names):
            bucket = per_root.get(roots[idx])
            if bucket is not None:
                bucket[name] = bucket.get(name, 0.0) + values[idx]
        return [per_root[i] for i in order]

    def dump(self, path: Path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        own = self.self_times()
        spans = [
            {
                "name": self.names[i],
                "start_ms": (self.starts[i] - t0) * 1e3,
                "end_ms": (self.ends[i] - t0) * 1e3,
                "self_ms": own[i] * 1e3,
                "parent": self.parents[i],
                "op": self.ops[i],
            }
            for i in range(len(self.names))
        ]
        path.write_text(json.dumps({"spans": spans}, indent=1) + "\n", encoding="utf-8")
