"""Trace-invariant checker: structural soundness of any recording.

Every invariant is a pure function over a :class:`~repro.obs.recorder.Recorder`
returning :class:`Violation` records (empty = clean).  The catalog
(docs/observability.md) covers the engine guarantees the paper's claims
rest on:

========  ==============================================================
OBS001    per-processor busy intervals never overlap (non-preemptive
          executor, one job per processor at a time)
OBS002    span timestamps are ordered: release ≤ start ≤ finish, and the
          event stream itself is non-decreasing in ``t``
OBS003    release/resolution bijection — every job release resolves to
          exactly one of {complete, miss, kill, drop, unresolved-at-end},
          and nothing resolves without (or before) a release
OBS004    span outcomes match the deadline: ``complete`` iff the finish
          is at or before the absolute deadline (kills exempt)
OBS005    γ stays in [0, γ_max]: every γ event satisfies
          ``0 ≤ γ ≤ γ_max`` (and ``γ ≤ γ_cap`` when the meta carries one)
OBS006    overload flags imply Eq. (11) infeasibility: ``overloaded`` ⟺
          no feasible γ_max, and an overloaded resolution forces γ = 0
          (the Eq. (12) fallback to pure deadline-driven scheduling)
OBS007    coordination windows tile the run: consecutive windows share
          their boundary and never run backwards
OBS008    window counters reconcile with the event stream: summed window
          completions/misses match the recorded resolutions (modulo
          events at the final window boundary and after the last window)
OBS009    applied rate retunes stay inside each task's allowable range
========  ==============================================================

Count-sensitive checks (OBS003, OBS008) are skipped for truncated
(capacity-bounded) recordings — a recorder that dropped events cannot
account for every job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from .events import (
    ControlEvent,
    DropEvent,
    GammaEvent,
    RateEvent,
    ReleaseEvent,
    SpanEvent,
    UnresolvedEvent,
    WindowEvent,
)
from .recorder import Recorder

__all__ = ["Violation", "INVARIANTS", "check_recording"]

#: Slack for float-time comparisons (matches the executor's trace checks).
_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


_Resolution = Union[SpanEvent, DropEvent, UnresolvedEvent]


class _Split:
    """A recording's events grouped by kind in one pass (stream order kept).

    Every check reads its kinds from here, so :func:`check_recording` walks
    the event stream once for the whole catalog.
    """

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.spans: List[SpanEvent] = []
        self.releases: List[ReleaseEvent] = []
        self.drops: List[DropEvent] = []
        #: Spans, drops and unresolved markers interleaved in stream order.
        self.resolutions: List[_Resolution] = []
        self.gammas: List[GammaEvent] = []
        self.windows: List[WindowEvent] = []
        self.rates: List[RateEvent] = []
        self.controls: List[ControlEvent] = []
        for event in rec.events:
            if isinstance(event, SpanEvent):
                self.spans.append(event)
                self.resolutions.append(event)
            elif isinstance(event, ReleaseEvent):
                self.releases.append(event)
            elif isinstance(event, GammaEvent):
                self.gammas.append(event)
            elif isinstance(event, ControlEvent):
                self.controls.append(event)
            elif isinstance(event, DropEvent):
                self.drops.append(event)
                self.resolutions.append(event)
            elif isinstance(event, UnresolvedEvent):
                self.resolutions.append(event)
            elif isinstance(event, WindowEvent):
                self.windows.append(event)
            elif isinstance(event, RateEvent):
                self.rates.append(event)


_Check = Callable[[Recorder], List[Violation]]
_SplitCheck = Callable[[_Split], List[Violation]]

#: Invariant id -> (description, check function); filled by ``_invariant``.
INVARIANTS: Dict[str, Tuple[str, _Check]] = {}

#: The same checks over a shared :class:`_Split`, for :func:`check_recording`.
_SPLIT_CHECKS: Dict[str, _SplitCheck] = {}


def _invariant(code: str, description: str) -> Callable[[_SplitCheck], _Check]:
    def register(fn: _SplitCheck) -> _Check:
        def check(rec: Recorder) -> List[Violation]:
            return fn(_Split(rec))

        INVARIANTS[code] = (description, check)
        _SPLIT_CHECKS[code] = fn
        return check

    return register


@_invariant("OBS001", "per-processor busy intervals never overlap")
def check_no_overlap(split: _Split) -> List[Violation]:
    by_proc: Dict[int, List[SpanEvent]] = {}
    for span in split.spans:
        by_proc.setdefault(span.processor, []).append(span)
    out: List[Violation] = []
    for proc, spans in sorted(by_proc.items()):
        spans.sort(key=lambda s: (s.start, s.finish))
        for a, b in zip(spans, spans[1:]):
            if b.start < a.finish - _EPS:
                out.append(
                    Violation(
                        "OBS001",
                        f"processor {proc}: {a.task}#{a.cycle} "
                        f"[{a.start:.6f},{a.finish:.6f}) overlaps "
                        f"{b.task}#{b.cycle} [{b.start:.6f},{b.finish:.6f})",
                    )
                )
    return out


@_invariant("OBS002", "span and stream timestamps are ordered")
def check_time_order(split: _Split) -> List[Violation]:
    out: List[Violation] = []
    for span in split.spans:
        if span.start < span.release - _EPS:
            out.append(
                Violation(
                    "OBS002",
                    f"{span.task}#{span.cycle} dispatched at {span.start:.6f} "
                    f"before its release {span.release:.6f}",
                )
            )
        if span.finish < span.start - _EPS:
            out.append(
                Violation(
                    "OBS002",
                    f"{span.task}#{span.cycle} finishes at {span.finish:.6f} "
                    f"before its start {span.start:.6f}",
                )
            )
    last_t = 0.0
    for event in split.rec.events:
        if event.t < last_t - _EPS:
            out.append(
                Violation(
                    "OBS002",
                    f"event stream runs backwards: {event.kind} at {event.t:.6f} "
                    f"after t={last_t:.6f}",
                )
            )
        last_t = max(last_t, event.t)
    return out


@_invariant("OBS003", "every release resolves exactly once")
def check_release_resolution(split: _Split) -> List[Violation]:
    if split.rec.truncated:
        return []
    releases: Dict[Tuple[str, int], int] = {}
    for release in split.releases:
        key = (release.task, release.cycle)
        releases[key] = releases.get(key, 0) + 1
    resolutions: Dict[Tuple[str, int], List[str]] = {}
    for event in split.resolutions:
        label = event.outcome if isinstance(event, SpanEvent) else event.kind  # drop/unresolved
        key = (event.task, event.cycle)
        resolutions.setdefault(key, []).append(label)
    # Sort only the jobs that violate; a clean run sorts nothing.
    bad = [
        key for key, count in releases.items()
        if count > 1 or len(resolutions.get(key, ())) != 1
    ]
    out: List[Violation] = []
    for key in sorted(bad):
        task, cycle = key
        count = releases[key]
        if count > 1:
            out.append(Violation("OBS003", f"{task}#{cycle} released {count} times"))
        resolved = resolutions.get(key, [])
        if len(resolved) != 1:
            what = "+".join(resolved) if resolved else "nothing"
            out.append(
                Violation(
                    "OBS003",
                    f"{task}#{cycle} resolved to {what} "
                    f"(want exactly one of complete/miss/kill/drop/unresolved)",
                )
            )
    for key in sorted(resolutions.keys() - releases.keys()):
        task, cycle = key
        out.append(Violation("OBS003", f"{task}#{cycle} resolved without a release"))
    return out


@_invariant("OBS004", "span outcomes match the deadline")
def check_outcome_deadline(split: _Split) -> List[Violation]:
    out: List[Violation] = []
    for span in split.spans:
        if span.outcome == "kill":
            continue  # a killed job's interval ends at the failure instant
        # The executor's own rule, compared exactly: JSONL floats round-trip
        # bit-exact, so a tolerance would only call one-ulp misses on time.
        on_time = span.finish <= span.deadline
        if span.outcome == "complete" and not on_time:
            out.append(
                Violation(
                    "OBS004",
                    f"{span.task}#{span.cycle} marked complete but finished "
                    f"{span.finish:.6f} > deadline {span.deadline:.6f}",
                )
            )
        if span.outcome == "miss" and on_time:
            out.append(
                Violation(
                    "OBS004",
                    f"{span.task}#{span.cycle} marked miss but finished "
                    f"{span.finish:.6f} <= deadline {span.deadline:.6f}",
                )
            )
    return out


@_invariant("OBS005", "γ stays in [0, γ_max]")
def check_gamma_bounds(split: _Split) -> List[Violation]:
    out: List[Violation] = []
    gamma_cap = split.rec.meta.get("gamma_cap")
    for event in split.gammas:
        if event.gamma < -_EPS:
            out.append(
                Violation("OBS005", f"γ={event.gamma:.6g} < 0 at t={event.t:.6f}")
            )
        if event.gamma_max is not None and event.gamma > event.gamma_max + _EPS:
            out.append(
                Violation(
                    "OBS005",
                    f"γ={event.gamma:.6g} exceeds γ_max={event.gamma_max:.6g} "
                    f"at t={event.t:.6f}",
                )
            )
        if gamma_cap is not None and event.gamma > float(gamma_cap) + _EPS:
            out.append(
                Violation(
                    "OBS005",
                    f"γ={event.gamma:.6g} exceeds the configured cap "
                    f"{float(gamma_cap):.6g} at t={event.t:.6f}",
                )
            )
    return out


@_invariant("OBS006", "overload flags imply Eq. (11) infeasibility")
def check_overload_flags(split: _Split) -> List[Violation]:
    out: List[Violation] = []
    for event in split.gammas:
        if event.overloaded != (event.gamma_max is None):
            out.append(
                Violation(
                    "OBS006",
                    f"overloaded={event.overloaded} but γ_max={event.gamma_max!r} "
                    f"at t={event.t:.6f} (the flag must mirror Eq. (11) "
                    f"infeasibility)",
                )
            )
        if event.overloaded and abs(event.gamma) > _EPS:
            out.append(
                Violation(
                    "OBS006",
                    f"overloaded window at t={event.t:.6f} ran with "
                    f"γ={event.gamma:.6g} instead of the Eq. (12) fallback γ=0",
                )
            )
    return out


@_invariant("OBS007", "coordination windows tile the run")
def check_window_tiling(split: _Split) -> List[Violation]:
    out: List[Violation] = []
    prev_end = 0.0
    for w in split.windows:
        if w.t < w.t_start - _EPS:
            out.append(
                Violation(
                    "OBS007",
                    f"window [{w.t_start:.6f},{w.t:.6f}] runs backwards",
                )
            )
        if abs(w.t_start - prev_end) > _EPS:
            out.append(
                Violation(
                    "OBS007",
                    f"window starts at {w.t_start:.6f}, previous ended at "
                    f"{prev_end:.6f} (windows must tile)",
                )
            )
        prev_end = w.t
    return out


@_invariant("OBS008", "window counters reconcile with the event stream")
def check_window_counts(split: _Split) -> List[Violation]:
    if split.rec.truncated:
        return []
    windows = split.windows
    if not windows:
        return []
    last_end = windows[-1].t
    win_completed = sum(w.completed for w in windows)
    win_missed = sum(w.missed for w in windows)
    win_commands = sum(w.control_commands for w in windows)

    completed = missed = 0
    boundary_completed = boundary_missed = 0  # at the final window close
    resolutions = [(s.finish, s.outcome in ("miss", "kill")) for s in split.spans]
    resolutions.extend((d.t, True) for d in split.drops)
    for resolved_at, is_miss in resolutions:
        if resolved_at > last_end + _EPS:
            continue  # after the last window: not counted anywhere yet
        at_boundary = abs(resolved_at - last_end) <= _EPS
        if is_miss:
            missed += 1
            boundary_missed += int(at_boundary)
        else:
            completed += 1
            boundary_completed += int(at_boundary)
    commands = cmd_boundary = 0
    for control in split.controls:
        if control.t <= last_end + _EPS:
            commands += 1
            if abs(control.t - last_end) <= _EPS:
                cmd_boundary += 1

    out: List[Violation] = []
    # Events timestamped exactly at the final window close may have been
    # processed on either side of it (heap insertion order breaks the tie),
    # so the reconciliation allows that much slack — and no more.
    if abs(win_completed - completed) > boundary_completed:
        out.append(
            Violation(
                "OBS008",
                f"windows account for {win_completed} completions but the "
                f"stream recorded {completed} inside [0,{last_end:.6f}] "
                f"(boundary slack {boundary_completed})",
            )
        )
    if abs(win_missed - missed) > boundary_missed:
        out.append(
            Violation(
                "OBS008",
                f"windows account for {win_missed} misses but the stream "
                f"recorded {missed} inside [0,{last_end:.6f}] "
                f"(boundary slack {boundary_missed})",
            )
        )
    if abs(win_commands - commands) > cmd_boundary:
        out.append(
            Violation(
                "OBS008",
                f"windows account for {win_commands} control commands, "
                f"stream recorded {commands} inside [0,{last_end:.6f}]",
            )
        )
    return out


@_invariant("OBS009", "rate retunes stay inside the allowable range")
def check_rate_ranges(split: _Split) -> List[Violation]:
    task_meta = split.rec.task_meta()
    out: List[Violation] = []
    for event in split.rates:
        meta = task_meta.get(event.task)
        if meta is None:
            out.append(
                Violation("OBS009", f"rate retune of unknown task {event.task!r}")
            )
            continue
        rate_range = meta.get("rate_range")
        if not rate_range:
            continue
        lo, hi = float(rate_range[0]), float(rate_range[1])
        if not (lo - _EPS <= event.rate <= hi + _EPS):
            out.append(
                Violation(
                    "OBS009",
                    f"{event.task} retuned to {event.rate:.6g} Hz outside "
                    f"[{lo:.6g}, {hi:.6g}] at t={event.t:.6f}",
                )
            )
    return out


def check_recording(rec: Recorder) -> List[Violation]:
    """Run the full invariant catalog; empty list = structurally sound."""
    split = _Split(rec)
    out: List[Violation] = []
    for code in sorted(INVARIANTS):
        out.extend(_SPLIT_CHECKS[code](split))
    return out
