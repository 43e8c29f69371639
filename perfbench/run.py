"""Host cost of the paper's own simulator runs, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig13-hcperf --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with no spans and reports the end-to-end
metrics; ``--trace 1`` runs it once untraced, then with spans around every
layer seam, and reports the per-layer metrics.  Timings of both are in
reference seconds (see speed.py).  Every simulation's output
is checked against ``expected.json``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when an output check failed and 2 when the
simulator sources are missing.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from speed import IMPORT_REF_S, PROBE_REF_S, speed_probe, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
#: Names, units and directions of every reported metric.
BENCHMARK = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 7

#: Speed probes a setup run takes before and after the build.
SPEED_PROBES = 32

#: Span names whose call count and self time are reported per layer.
SPAN_METRICS = (
    "rt.run", "rt.pop_best", "rt.drop_expired",
    "schedulers.rank", "schedulers.eligible", "schedulers.dispatch_round",
    "schedulers.on_window",
    "core.resolve_gamma", "core.sample_controller", "core.adapt_rates",
    "vehicle.step", "vehicle.compute_command",
    "obs.record",
)

#: Layers whose summed self time is reported as a share of all self time.
LAYERS = ("rt", "schedulers", "core", "vehicle", "obs")

#: Spans making up the coordination cost of paper §VII-E.
COORDINATION = (
    "core.resolve_gamma", "core.sample_controller", "core.adapt_rates",
    "schedulers.rank",
)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="time one import and build, print it as JSON and exit",
    )
    return parser.parse_args(argv)


def pct(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> int:
    """Child side of a setup measurement: import, build, report.

    The import is reported in wall seconds, for the parent to scale by
    import probes; speed probes around the build put it on the
    reference scale.
    """
    t0 = time.perf_counter()
    import harness

    import_s = time.perf_counter() - t0
    probes = [speed_probe() for _ in range(SPEED_PROBES)]
    build_s = harness.build_only(harness.WORKLOADS[workload], seed)
    probes += [speed_probe() for _ in range(SPEED_PROBES)]
    print(json.dumps({"import_s": import_s, "build_s": to_reference(build_s, probes)}))
    return 0


def _child(args: Sequence[str]) -> str:
    """Last line a fresh interpreter running ``args`` prints."""
    out = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def measure_setup(workload: str, seed: int) -> Dict[str, float]:
    """Median import and build time over fresh interpreters.

    Each import is scaled to reference seconds by the mean of two import
    probes (speed.py), taken in fresh interpreters just before and after.
    """
    imports: List[float] = []
    builds: List[float] = []
    for _ in range(SETUP_RUNS):
        before = float(_child([str(HERE / "speed.py")]))
        run = json.loads(_child([
            str(Path(__file__)), "--setup-probe",
            "--workload", workload, "--seed", str(seed),
        ]))
        after = float(_child([str(HERE / "speed.py")]))
        imports.append(run["import_s"] * IMPORT_REF_S * 2 / (before + after))
        builds.append(run["build_s"])
    return {
        "setup_s": statistics.median(i + b for i, b in zip(imports, builds)),
        "setup.import_s": statistics.median(imports),
        "setup.build_s": statistics.median(builds),
    }


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def check(
    harness: Any,
    it: Any,
    want: Optional[Dict[str, Dict[str, float]]],
    reference: Optional[Any],
) -> Dict[str, List[str]]:
    """Problems per simulation of one iteration.

    ``want`` holds the committed expected values for this workload and
    seed.  Every iteration must also reproduce ``reference`` (the run's
    first untraced iteration) exactly, traced or not.
    """
    problems: Dict[str, List[str]] = {}
    for scheduler, stats in it.stats.items():
        found = list(it.problems)
        if want is not None:
            found += harness.compare_stats(stats, want[scheduler], scheduler)
        if reference is not None and stats != reference.stats[scheduler]:
            found.append(f"{scheduler}: statistics differ from the first iteration")
        problems[scheduler] = found
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(its: List[Any], setup: Dict[str, float]) -> Dict[str, float]:
    """End-to-end metrics; every timing is in reference seconds."""
    windows_ms = [
        w * PROBE_REF_S / p * 1e3
        for it in its
        for w, p in zip(it.window_s, it.window_probe_s)
    ]
    stats = list(its[-1].stats.values())
    return {
        "setup_s": setup["setup_s"],
        "host_s": statistics.median(it.host_ref_s for it in its),
        "sim_rate": statistics.median(it.sim_s / it.sim_ref_s for it in its),
        "window_ms.p50": pct(windows_ms, 50),
        "window_ms.p90": pct(windows_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim.hit_ratio": 1.0 - mean([s["miss_ratio"] for s in stats]),
        "sim.tracking_rms": mean([s["tracking_rms"] for s in stats]),
        "sim.control_hz": mean([s["control_hz"] for s in stats]),
    }


def per_layer(it: Any, reference: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration; times in reference seconds."""
    spans, counts = it.spans, it.counts
    m: Dict[str, float] = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = spans.calls(name)
        m[f"{name}.self_s"] = spans.self_s(name)
    stats = list(it.stats.values())
    waits_ms = [w * 1e3 for w in counts.waits] or [0.0]
    m["rt.queue_depth.mean"] = counts.pop_depth_sum / max(1, counts.pops)
    m["rt.queue_depth.max"] = counts.pop_depth_max
    m["rt.jobs_released"] = sum(s["released"] for s in stats)
    m["rt.jobs_completed"] = sum(s["completed"] for s in stats)
    m["rt.jobs_missed"] = sum(s["missed"] for s in stats)
    m["rt.job_wait_ms.p50"] = pct(waits_ms, 50)
    m["rt.job_wait_ms.p90"] = pct(waits_ms, 90)

    resolves = spans.calls("core.resolve_gamma")
    resolve_us = [d * 1e6 for d in spans.call_s("core.resolve_gamma")] or [0.0]
    m["core.resolve_gamma.us.p50"] = pct(resolve_us, 50)
    m["core.resolve_gamma.us.p90"] = pct(resolve_us, 90)
    m["core.gamma.queue_depth.mean"] = counts.gamma_depth_sum / max(1, resolves)
    m["core.gamma.queue_depth.max"] = counts.gamma_depth_max
    m["core.gamma.top_feasible_share"] = counts.gamma_top / max(1, resolves)
    m["core.gamma.overload_share"] = counts.gamma_overloaded / max(1, resolves)
    m["core.rate_adapter.resets"] = it.resets
    m["core.overhead_ms_per_sim_s"] = (
        sum(spans.self_s(name) for name in COORDINATION) * 1e3 / it.sim_s
    )

    m["obs.events"] = it.obs_events
    m["obs.jsonl_bytes"] = it.jsonl_bytes
    for step in ("to_jsonl", "from_jsonl", "check"):
        m[f"obs.{step}.s"] = spans.self_s(f"obs.{step}")

    self_s = {name: spans.self_s(name) for name in spans.stats}
    total_self = sum(self_s.values())
    for layer in LAYERS:
        own = sum(s for name, s in self_s.items() if name.startswith(layer + "."))
        m[f"{layer}.self_share"] = own / total_self
    m["trace.overhead_s"] = it.host_ref_s - reference.host_ref_s
    m["trace.unaccounted_share"] = 1.0 - total_self / reference.host_ref_s
    m["trace.wrapper_ns"] = (spans.inner_s + spans.outer_s) * 1e9
    m["window_ms.samples"] = len(reference.window_s)
    m["host.wall_s"] = reference.host_s
    m["host.probe_us"] = statistics.fmean(reference.probe_s) * 1e6
    m["sim.miss_ratio"] = mean([s["miss_ratio"] for s in stats])
    return m


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(args: argparse.Namespace, harness: Any) -> Tuple[Dict[str, Any], bool]:
    workload = harness.WORKLOADS[args.workload]
    want = json.loads(EXPECTED.read_text()).get(args.workload, {}).get(str(args.seed))
    if want is None:
        print(
            f"perfbench: no expected values for seed {args.seed}; checking "
            "determinism and invariants only", file=sys.stderr,
        )
    setup = measure_setup(args.workload, args.seed)

    attempted = failed = 0
    untraced: List[Any] = []
    traced: List[Any] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        is_traced = bool(args.trace) and bool(untraced)
        try:
            overhead = harness.calibrate_reference() if is_traced else None
            it = harness.run_iteration(workload, args.seed, overhead)
        except Exception:  # a simulation that raises counts as failed
            traceback.print_exc()
            attempted += len(workload.schedulers)
            failed += len(workload.schedulers)
            break
        reference = untraced[0] if untraced else None
        problems = check(harness, it, want, reference)
        attempted += len(problems)
        failed += sum(1 for p in problems.values() if p)
        for found in problems.values():
            for problem in found:
                print(f"perfbench: {problem}", file=sys.stderr)
        (traced if is_traced else untraced).append(it)
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break

    values: Dict[str, float] = {}
    if traced:
        layer = [per_layer(it, untraced[0]) for it in traced]
        values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        values["setup.import_s"] = setup["setup.import_s"]
        values["setup.build_s"] = setup["setup.build_s"]
    elif untraced and not args.trace:
        values = end_to_end(untraced, setup)
    section = "per_layer" if args.trace else "end_to_end"
    specs = json.loads(BENCHMARK.read_text())[section]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in (specs if values else ())
        },
    }
    return result, failed == 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"perfbench: run from a checkout with src/repro and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    import harness

    if args.workload not in harness.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr,
        )
        return 2
    result, ok = run(args, harness)
    for name, metric in result["metrics"].items():
        print(f"{args.workload}  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
