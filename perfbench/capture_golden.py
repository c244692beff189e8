#!/usr/bin/env python3
"""Write perfbench/golden.json from the ringline sources next to it.

    python3 perfbench/capture_golden.py

Run it only at a commit whose outputs are known to be right: the benchmark
counts every later difference from this file as a failed op. Rings are built
from their recipes without relabelling; the values kept are invariant under
relabelling.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ringline.build import build_recipe  # noqa: E402
from ringline.catalog import run_catalog  # noqa: E402

from run import src_digest  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_PATH,
    LINES32_RINGS,
    STRUCTURE64_RINGS,
    drop_timings,
    lines_record,
    structure_record,
)


def main() -> int:
    report = run_catalog(threads=1)
    rings = {}
    for recipe in LINES32_RINGS + STRUCTURE64_RINGS:
        ring = build_recipe(recipe)
        rec = {"order": ring.order, **structure_record(ring)}
        if recipe in LINES32_RINGS:
            rec.update(lines_record(ring))
        rings[recipe] = rec
    golden = {
        "src_sha256": src_digest(ROOT / "src"),
        "catalog": {
            "report": drop_timings(report.to_json_dict()),
            "csv": report.to_csv_text(),
        },
        "rings": rings,
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
