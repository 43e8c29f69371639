"""Workloads, output checks and layer spans of the paper-run benchmark.

Everything here calls the simulator through its public seams only:
``run_scenario(..., before_run=, recorder=)``, ``Scenario.plant_factory``
and the executor's ``ready``, ``scheduler`` and ``recorder`` instances.
Spans are recorded by replacing bound methods on those *instances* with
timing wrappers, so the program itself carries no benchmark code.  Apart
from spans, a run only adds a timestamp and a speed probe (speed.py) at each
coordination window, outside every timing and span it reports.

The loop is closed and single-threaded: one caller runs each simulation
to completion before starting the next.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.heterogeneous import build_scenario
from repro.experiments.runner import RunResult, run_scenario
from repro.obs import Recorder, check_recording, to_jsonl
from repro.obs.export import from_jsonl
from repro.workloads.scenarios import Scenario, fig13_car_following
from speed import speed_probe, to_reference

#: Simulated seconds of every paper run the benchmark times.
HORIZON = 90.0

#: Relative tolerance for simulated float statistics; counts compare exactly.
FLOAT_RTOL = 1e-9

#: Floats and counts each simulation is checked on.
FLOAT_STATS = ("miss_ratio", "tracking_rms", "control_hz")
COUNT_STATS = ("released", "completed", "missed", "commands")

#: A window's time is scaled by the mean probe of this many windows on
#: either side: the machine's speed drifts within seconds.
LOCAL_PROBES = 10

#: Speed probes taken before and after each export, reload and check step.
BRACKET_PROBES = 16

#: No-op calls per wrapper calibration round, and rounds per calibration.
CALIBRATION_CALLS = 100_000
CALIBRATION_ROUNDS = 7

#: Recorder helpers the program calls while a recorded run is in flight.
RECORDER_METHODS = (
    "release", "span", "drop", "unresolved", "gamma", "controller",
    "rate_adapter", "rate", "window", "control", "bind_run", "finalize_run",
)


def _fig13() -> Scenario:
    return fig13_car_following(horizon=HORIZON)


def _hetero() -> Scenario:
    return build_scenario("heterogeneous", horizon=HORIZON)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: simulations run back to back per iteration."""

    name: str
    scenario: Callable[[], Scenario]
    schedulers: Tuple[str, ...]
    #: Attach an ``obs.Recorder``, then export, reload and check it.
    recorded: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig13-hcperf", _fig13, ("HCPerf",)),
        Workload("fig13-baselines", _fig13, ("HPF", "EDF", "EDF-VD", "Apollo")),
        Workload("hetero-recorded", _hetero, ("EDF",), recorded=True),
    )
}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """Call count, total and self time per span name.

    Self time is a span's duration minus the time its child spans cover,
    minus the cost the timing wrapper itself adds: ``inner_s`` per call
    inside the span's own interval and ``outer_s`` per child call left in
    the parent's (see :func:`calibrate`).  Without that correction a
    parent making millions of cheap child calls (``pop_best`` ranking a
    queue) would be charged for the wrappers rather than for its own work.
    The correction is applied when a self time is read, so raw times from
    runs at different machine speeds can be scaled to reference seconds
    first and summed with :meth:`add`.  Only aggregates are kept, since a
    baseline run makes millions of calls; names listed in ``keep`` also
    keep every call's duration.
    """

    def __init__(
        self, overhead: Tuple[float, float] = (0.0, 0.0), keep: Sequence[str] = ()
    ) -> None:
        self.inner_s, self.outer_s = overhead
        #: name -> [calls, total_s, uncorrected self_s, child calls]
        self.stats: Dict[str, List[float]] = {}
        self.durations: Dict[str, List[float]] = {name: [] for name in keep}
        # Seconds and calls of the child spans of each open span, as two
        # stacks of numbers: the wrapper allocates no container per call,
        # so it adds no garbage-collector work.  The bottom entries absorb
        # root spans.
        self._child_s: List[float] = [0.0]
        self._child_n: List[int] = [0]

    def timer(
        self,
        fn: Callable[..., Any],
        name: str,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record span ``name`` on every call.

        ``before(*args)`` and ``after(result)`` run outside the timed
        interval, for counters that need the call's inputs or result.
        Their time is charged to no span.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        durations = self.durations.get(name)
        child_s, child_n = self._child_s, self._child_n
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            entered = clock()
            if before is not None:
                before(*args)
            child_s.append(0.0)
            child_n.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child_s.pop()
                stat[3] += child_n.pop()
                if durations is not None:
                    durations.append(dt)
            if after is not None:
                after(result)
            # The parent is not charged for anything between ``entered``
            # and here: the span, the hooks and most of the wrapper.
            child_s[-1] += clock() - entered
            child_n[-1] += 1
            return result

        return timed

    def wrap(self, obj: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace the bound method ``obj.attr`` with its :meth:`timer`."""
        setattr(obj, attr, self.timer(getattr(obj, attr), name, **hooks))

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` spent inside the innermost open span to no span."""
        self._child_s[-1] += seconds

    def add(self, other: "Spans", scale: float) -> None:
        """Add ``other``'s raw times, multiplied by ``scale``, to these."""
        for name, (calls, total, own, children) in other.stats.items():
            stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            stat[0] += calls
            stat[1] += total * scale
            stat[2] += own * scale
            stat[3] += children
        for name, durations in other.durations.items():
            self.durations.setdefault(name, []).extend(d * scale for d in durations)

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0, 0))[0])

    def self_s(self, name: str) -> float:
        """Self time of span ``name``, corrected for wrapper cost."""
        calls, _, own, children = self.stats.get(name, (0, 0.0, 0.0, 0))
        return own - calls * self.inner_s - children * self.outer_s

    def call_s(self, name: str) -> List[float]:
        """Corrected duration of every call of a span named in ``keep``."""
        return [d - self.inner_s for d in self.durations[name]]


def calibrate() -> Tuple[float, float]:
    """Per-call wrapper cost inside and outside a span's interval (s).

    Times :data:`CALIBRATION_CALLS` calls of a three-argument no-op, bare
    and wrapped.  ``inner`` is what a span's own duration gains per call;
    ``outer`` is the part of the wrapper's cost that its parent is still
    charged for.
    """
    n = CALIBRATION_CALLS

    def noop(a: Any, b: Any, c: Any) -> None:
        return None

    def per_call(fn: Optional[Callable[..., Any]]) -> float:
        t0 = time.perf_counter()
        if fn is None:
            for _ in range(n):
                pass
        else:
            for _ in range(n):
                fn(1, 2, 3)
        return (time.perf_counter() - t0) / n

    bench = Spans()
    timed = bench.timer(noop, "noop")
    loop = per_call(None)
    direct = per_call(noop)
    wrapped = per_call(timed)
    measured = bench.stats["noop"][1] / n
    uncharged = bench._child_s[0] / n
    # ``direct - loop`` is the call a bare run also pays; whatever the
    # span measured beyond it is wrapper cost inside the interval.
    inner = max(0.0, measured - (direct - loop))
    return inner, max(0.0, wrapped - loop - uncharged)


def calibrate_reference() -> Tuple[float, float]:
    """:func:`calibrate` in reference seconds (see speed.py).

    Each round is scaled by its own speed probes, and the median of the
    rounds is taken, since the machine's speed drifts within seconds.
    """
    inner, outer = [], []
    for _ in range(CALIBRATION_ROUNDS):
        probes = [speed_probe() for _ in range(BRACKET_PROBES // 2)]
        cost = calibrate()
        probes += [speed_probe() for _ in range(BRACKET_PROBES // 2)]
        inner.append(to_reference(cost[0], probes))
        outer.append(to_reference(cost[1], probes))
    return statistics.median(inner), statistics.median(outer)


@dataclass
class LayerCounts:
    """Counters taken at span boundaries during one traced iteration."""

    pop_depth_sum: int = 0
    pop_depth_max: int = 0
    pops: int = 0
    #: Simulated ready-queue wait of every dispatched job (s).
    waits: List[float] = field(default_factory=list)
    gamma_depth_sum: int = 0
    gamma_depth_max: int = 0
    gamma_top: int = 0
    gamma_overloaded: int = 0


def _instrument(executor: Any, spans: Spans, counts: LayerCounts) -> None:
    """Wrap the executor's layer seams (passed as ``before_run``)."""
    ready = executor.ready
    scheduler = executor.scheduler

    def before_pop(*_: Any) -> None:
        depth = len(ready)
        counts.pop_depth_sum += depth
        counts.pop_depth_max = max(counts.pop_depth_max, depth)
        counts.pops += 1

    def after_pop(job: Any) -> None:
        if job is not None:
            counts.waits.append(executor.now - job.release_time)

    spans.wrap(executor, "run", "rt.run")
    spans.wrap(ready, "pop_best", "rt.pop_best", before=before_pop, after=after_pop)
    spans.wrap(ready, "drop_expired", "rt.drop_expired")
    spans.wrap(scheduler, "rank", "schedulers.rank")
    spans.wrap(scheduler, "eligible", "schedulers.eligible")
    spans.wrap(scheduler, "on_dispatch_round", "schedulers.dispatch_round")
    spans.wrap(scheduler, "on_window", "schedulers.on_window")

    coordinator = getattr(scheduler, "coordinator", None)
    if coordinator is not None:
        cap = coordinator.config.priority.gamma_cap

        def before_resolve(now: float, jobs: Sequence[Any], *_: Any) -> None:
            counts.gamma_depth_sum += len(jobs)
            counts.gamma_depth_max = max(counts.gamma_depth_max, len(jobs))

        def after_resolve(result: Any) -> None:
            counts.gamma_top += result.gamma_max == cap
            counts.gamma_overloaded += result.overloaded

        spans.wrap(
            coordinator, "resolve_gamma", "core.resolve_gamma",
            before=before_resolve, after=after_resolve,
        )
        spans.wrap(coordinator, "sample_controller", "core.sample_controller")
        spans.wrap(coordinator, "adapt_rates", "core.adapt_rates")

    if executor.recorder is not None:
        for method in RECORDER_METHODS:
            spans.wrap(executor.recorder, method, "obs.record")


# ----------------------------------------------------------------------
# One iteration of a workload
# ----------------------------------------------------------------------
@dataclass
class Iteration:
    """What one pass over a workload's simulations produced."""

    #: Wall seconds of the whole pass, without the benchmark's own
    #: output check and speed probes, and the same in reference seconds
    #: (see speed.py).
    host_s: float = 0.0
    host_ref_s: float = 0.0
    #: Wall and reference seconds inside the ``run_scenario`` calls,
    #: without probes.
    sim_host_s: float = 0.0
    sim_ref_s: float = 0.0
    sim_s: float = 0.0
    #: Wall and reference seconds of the recording's export, reload and check.
    obs_s: float = 0.0
    obs_ref_s: float = 0.0
    #: Output-check and probe time inside the pass, kept out of ``host_s``.
    excluded_s: float = 0.0
    #: Host seconds between consecutive coordination windows.
    window_s: List[float] = field(default_factory=list)
    #: One :func:`speed.speed_probe` per coordination window.
    probe_s: List[float] = field(default_factory=list)
    #: Per window gap, the mean probe time of the windows around it.
    window_probe_s: List[float] = field(default_factory=list)
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    resets: int = 0
    obs_events: int = 0
    jsonl_bytes: int = 0
    #: Traced passes only: spans in reference seconds, and counters.
    spans: Optional[Spans] = None
    counts: Optional[LayerCounts] = None


def sim_stats(result: RunResult) -> Dict[str, float]:
    """The simulated statistics and counts a run is checked on."""
    per_task = result.metrics.per_task.values()
    return {
        "miss_ratio": result.overall_miss_ratio(),
        "tracking_rms": result.speed_error_rms(),
        "control_hz": result.control_throughput(),
        "released": sum(s.released for s in per_task),
        "completed": sum(s.completed for s in per_task),
        "missed": sum(s.missed for s in per_task),
        "commands": len(result.metrics.control_events),
    }


def run_iteration(
    workload: Workload, seed: int, overhead: Optional[Tuple[float, float]] = None
) -> Iteration:
    """Run every simulation of ``workload`` once, back to back.

    With ``overhead`` (from :func:`calibrate_reference`) the iteration is
    traced.  Either way a speed probe runs at every coordination window,
    and its time is kept out of every timing and span the iteration
    reports.  A traced simulation's spans are scaled to reference seconds
    by that simulation's own probes.
    """
    traced = overhead is not None
    keep = ("core.resolve_gamma",)
    it = Iteration()
    if traced:
        it.spans, it.counts = Spans(overhead, keep=keep), LayerCounts()
    start = time.perf_counter()
    for scheduler in workload.schedulers:
        scenario = workload.scenario()
        stamps: List[float] = []
        probes: List[float] = []
        spans = Spans(keep=keep) if traced else None
        if spans is not None:
            make_plant = scenario.plant_factory

            def traced_plant(plant_seed: int) -> Any:
                plant = make_plant(plant_seed)
                spans.wrap(plant, "step", "vehicle.step")
                spans.wrap(plant, "compute_command", "vehicle.compute_command")
                return plant

            scenario.plant_factory = traced_plant

        def before_run(executor: Any) -> None:
            if spans is not None:
                _instrument(executor, spans, it.counts)
            # Wrapped last, so the probe runs outside the on_window span.
            on_window = executor.scheduler.on_window

            def stamped(*args: Any) -> None:
                t0 = time.perf_counter()
                probes.append(speed_probe())
                stamps.append(time.perf_counter())
                if spans is not None:
                    spans.exclude(stamps[-1] - t0)
                on_window(*args)

            executor.scheduler.on_window = stamped

        recorder = Recorder() if workload.recorded else None
        t0 = time.perf_counter()
        result = run_scenario(
            scenario, scheduler, seed=seed, recorder=recorder, before_run=before_run
        )
        sim_host_s = time.perf_counter() - t0 - sum(probes)
        it.sim_host_s += sim_host_s
        it.sim_ref_s += to_reference(sim_host_s, probes)
        it.sim_s += result.horizon
        # A gap between two stamps also holds the probe taken before the
        # later one.
        it.window_s.extend(b - a - p for a, b, p in zip(stamps, stamps[1:], probes[1:]))
        it.probe_s.extend(probes)
        it.window_probe_s.extend(
            statistics.fmean(probes[max(0, k - LOCAL_PROBES): k + LOCAL_PROBES + 1])
            for k in range(1, len(probes))
        )
        if spans is not None:
            it.spans.add(spans, to_reference(1.0, probes))
        it.stats[scheduler] = sim_stats(result)
        it.resets += result.rate_adapter_resets
        if recorder is not None:
            it.problems.extend(_export_and_check(recorder, it))
    it.host_s = time.perf_counter() - start - it.excluded_s - sum(it.probe_s)
    rest = it.host_s - it.sim_host_s - it.obs_s
    it.host_ref_s = it.sim_ref_s + it.obs_ref_s + to_reference(rest, it.probe_s)
    return it


def _export_and_check(recorder: Recorder, it: Iteration) -> List[str]:
    """Export, reload and check a recording; returns output-check problems.

    The export, reload and invariant check are part of the workload; the
    round-trip comparison is the benchmark's own check and is excluded
    from ``host_s``.  Each step is bracketed by speed probes, since no
    coordination window falls inside it; traced, it is also a root span.
    """
    def step(fn: Callable[[Any], Any], arg: Any, name: str) -> Any:
        spans = Spans() if it.spans is not None else None
        before = [speed_probe() for _ in range(BRACKET_PROBES)]
        t0 = time.perf_counter()
        out = fn(arg) if spans is None else spans.timer(fn, name)(arg)
        elapsed = time.perf_counter() - t0
        after = [speed_probe() for _ in range(BRACKET_PROBES)]
        it.obs_s += elapsed
        it.obs_ref_s += to_reference(elapsed, before + after)
        it.excluded_s += sum(before) + sum(after)
        if spans is not None:
            it.spans.add(spans, to_reference(1.0, before + after))
        return out

    text = step(to_jsonl, recorder, "obs.to_jsonl")
    reloaded = step(from_jsonl, text, "obs.from_jsonl")
    violations = step(check_recording, reloaded, "obs.check")
    paused = time.perf_counter()
    it.obs_events += len(recorder.events)
    it.jsonl_bytes += len(text.encode())
    problems = [f"OBS violation: {v}" for v in violations]
    if reloaded.events != recorder.events or reloaded.meta != recorder.meta:
        problems.append("JSONL round trip changed the recording")
    elif to_jsonl(reloaded) != text:
        problems.append("JSONL re-export is not byte-identical")
    it.excluded_s += time.perf_counter() - paused
    return problems


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def compare_stats(
    got: Dict[str, float], want: Dict[str, float], label: str
) -> List[str]:
    """Mismatches between a run's statistics and their expected values."""
    problems = []
    for key in FLOAT_STATS:
        if not math.isclose(got[key], want[key], rel_tol=FLOAT_RTOL, abs_tol=0.0):
            problems.append(f"{label}: {key} = {got[key]!r}, expected {want[key]!r}")
    for key in COUNT_STATS:
        if got[key] != want[key]:
            problems.append(f"{label}: {key} = {got[key]}, expected {want[key]}")
    return problems


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------
class _Built(Exception):
    """Raised from ``before_run`` to stop a run once it is fully built."""


def build_only(workload: Workload, seed: int) -> float:
    """Seconds to build each simulation's scenario, graph, plant and executor.

    Drives the same ``run_scenario`` path as a timed run and stops it at
    ``before_run``, the point where the event loop would start.
    """
    def stop(_: Any) -> None:
        raise _Built

    start = time.perf_counter()
    for scheduler in workload.schedulers:
        recorder = Recorder() if workload.recorded else None
        try:
            run_scenario(
                workload.scenario(), scheduler, seed=seed,
                recorder=recorder, before_run=stop,
            )
        except _Built:
            pass
        else:
            raise RuntimeError("run_scenario did not reach before_run")
    return time.perf_counter() - start
