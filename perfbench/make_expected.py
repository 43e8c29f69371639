"""Regenerate ``expected.json``, the output check's committed values.

Run from the repository root::

    python3 perfbench/make_expected.py

Each workload runs once per seed, untraced, exactly as ``run.py`` runs
it, one process per CPU; the simulated statistics and counts of every
simulation are written per workload and seed.  The default seeds are
the committed set; ``--seeds`` and ``--out`` write a subset elsewhere,
for comparison.  Regenerate only when a change is meant to alter
simulated behaviour, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Seeds ``expected.json`` covers: 0-63, and 1009 held out (see README.md).
SEEDS = ("0-63", "1009")


def _init() -> None:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _expected(
    job: Tuple[str, int]
) -> Tuple[str, int, Dict[str, Dict[str, float]], List[str]]:
    import harness

    workload, seed = job
    it = harness.run_iteration(harness.WORKLOADS[workload], seed)
    return workload, seed, it.stats, it.problems


def parse_seeds(tokens: List[str]) -> List[int]:
    seeds: List[int] = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", default=list(SEEDS))
    parser.add_argument("--out", type=Path, default=HERE / "expected.json")
    args = parser.parse_args()
    _init()
    import harness

    jobs = [(w, s) for s in parse_seeds(args.seeds) for w in harness.WORKLOADS]
    expected: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {
        w: {} for w in harness.WORKLOADS
    }
    context = multiprocessing.get_context("spawn")
    failing = 0
    workers = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_init) as pool:
        for workload, seed, stats, problems in pool.map(_expected, jobs):
            # Statistics are recorded even when a recording check fails:
            # they are the simulation's output, and run.py still fails the
            # seed on the recording check itself.
            expected[workload][str(seed)] = stats
            failing += bool(problems)
            for problem in problems or ["ok"]:
                print(f"{workload} seed {seed}: {problem}", file=sys.stderr)
    for by_seed in expected.values():
        ordered = sorted(by_seed.items(), key=lambda kv: int(kv[0]))
        by_seed.clear()
        by_seed.update(ordered)
    args.out.write_text(json.dumps(expected, indent=1) + "\n")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
