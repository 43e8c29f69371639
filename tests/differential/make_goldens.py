"""Regenerate the differential-equivalence goldens.

Run from the repo root::

    PYTHONPATH=src:tests python tests/differential/make_goldens.py

The committed goldens were produced before the executor changes they pin
(see ``harness.py``); regenerate them only if the executor's observable
semantics change intentionally (and say so in the change — every byte diff
here is a semantic diff of the platform).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from differential.harness import (
    GOLDEN_DIR,
    GRID,
    TYPED_CELL,
    golden_paths,
    record_run,
    write_golden_trace,
)


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    cells = [(s, seed, "fig13") for s, seed in GRID]
    cells.append((*TYPED_CELL, "heterogeneous"))
    for scheduler, seed, scenario in cells:
        trace, metrics = record_run(scheduler, seed, scenario_name=scenario)
        trace_path, metrics_path = golden_paths(scheduler, seed, scenario)
        write_golden_trace(trace_path, trace)
        metrics_path.write_text(metrics)
        print(f"wrote {trace_path.name} ({len(trace)} bytes raw) and {metrics_path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
