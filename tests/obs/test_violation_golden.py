"""Violation golden: the checker's exact output on a corpus of broken recordings.

Each corpus entry takes the committed canonical recording
(``golden/motivation_hcperf_s0_h2.jsonl``), breaks it in a targeted way and
records ``[str(v) for v in check_recording(rec)]``.  The golden pins the
code, the text *and the order* of every violation, so a rewrite of the
checker must reproduce the catalog's output exactly, not just its codes.

Regenerate (only for an intended change of the checker's output) with::

    PYTHONPATH=src python tests/obs/test_violation_golden.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List

from repro.obs.events import (
    ControlEvent,
    DropEvent,
    ReleaseEvent,
    SpanEvent,
    TraceEvent,
    UnresolvedEvent,
)
from repro.obs.export import from_jsonl
from repro.obs.invariants import INVARIANTS, check_recording
from repro.obs.recorder import Recorder

GOLDEN = Path(__file__).parent / "golden"
BASE = GOLDEN / "motivation_hcperf_s0_h2.jsonl"
VIOLATIONS = GOLDEN / "violations.json"

Events = List[TraceEvent]


def _at(events: Events, kind: str) -> List[int]:
    """Stream indices of the events of one kind."""
    return [i for i, e in enumerate(events) if e.kind == kind]


def break_overlap(ev: Events) -> None:
    spans = _at(ev, "span")
    ev[spans[10]] = replace(ev[spans[10]], start=ev[spans[9]].start)
    ev[spans[30]] = replace(ev[spans[30]], start=ev[spans[29]].finish - 0.001)


def break_time_order(ev: Events) -> None:
    spans = _at(ev, "span")
    ev[spans[5]] = replace(ev[spans[5]], start=ev[spans[5]].finish + 0.01)
    ev[spans[6]] = replace(ev[spans[6]], release=ev[spans[6]].start + 0.005)
    i = next(i for i in range(100, len(ev)) if ev[i].t < ev[i + 1].t)
    ev[i], ev[i + 1] = ev[i + 1], ev[i]


def break_bijection(ev: Events) -> None:
    spans = [e for e in ev if isinstance(e, SpanEvent)]
    release = {(e.task, e.cycle): e for e in ev if isinstance(e, ReleaseEvent)}
    dup = ev.index(release[(spans[50].task, spans[50].cycle)])
    ev.insert(dup + 1, ev[dup])
    ev.append(UnresolvedEvent(t=ev[-1].t, task=spans[60].task, cycle=spans[60].cycle,
                              state="ready"))
    ev.remove(spans[70])
    # Several orphaned resolutions, so their report order is really pinned.
    for i in (40, 80, 100, 120, 135):
        ev.remove(release[(spans[i].task, spans[i].cycle)])


def break_deadline(ev: Events) -> None:
    spans = _at(ev, "span")
    ev[spans[12]] = replace(ev[spans[12]], outcome="miss")
    ev[spans[13]] = replace(ev[spans[13]], deadline=ev[spans[13]].finish - 0.001)


def break_gamma_bounds(ev: Events) -> None:
    gammas = _at(ev, "gamma")
    ev[gammas[3]] = replace(ev[gammas[3]], gamma=-0.01)
    ev[gammas[4]] = replace(ev[gammas[4]], gamma=ev[gammas[4]].gamma_max + 0.01)
    ev[gammas[5]] = replace(ev[gammas[5]], gamma=0.03, gamma_max=0.05)


def break_overload(ev: Events) -> None:
    gammas = _at(ev, "gamma")
    ev[gammas[7]] = replace(ev[gammas[7]], overloaded=True)
    ev[gammas[8]] = replace(ev[gammas[8]], gamma=0.01, gamma_max=None, overloaded=True)


def break_tiling(ev: Events) -> None:
    windows = _at(ev, "window")
    ev[windows[1]] = replace(ev[windows[1]], t_start=ev[windows[1]].t_start + 0.1)
    ev[windows[2]] = replace(ev[windows[2]], t_start=ev[windows[2]].t + 0.2)


def break_window_counts(ev: Events) -> None:
    windows = _at(ev, "window")
    ev[windows[0]] = replace(ev[windows[0]], completed=ev[windows[0]].completed + 3)
    ev[windows[1]] = replace(ev[windows[1]], missed=ev[windows[1]].missed + 2)
    ev[windows[2]] = replace(
        ev[windows[2]], control_commands=ev[windows[2]].control_commands + 1
    )


def boundary_slack(ev: Events) -> None:
    """A control command and a drop exactly at the last window's close.

    Either may have been counted on either side of the boundary, so OBS008
    allows one of each; the windows here count neither.
    """
    end = ev[_at(ev, "window")[-1]].t
    ev.append(ReleaseEvent(t=end, task="sensor_fusion", cycle=999, deadline=end + 0.1))
    ev.append(DropEvent(t=end, task="sensor_fusion", cycle=999, release=end,
                        deadline=end + 0.1, reason="evicted"))
    ev.append(ControlEvent(t=end, response=0.05))


def break_rates(ev: Events) -> None:
    rates = _at(ev, "rate")
    ev[rates[0]] = replace(ev[rates[0]], rate=99.0)
    ev[rates[1]] = replace(ev[rates[1]], task="ghost")


def complete_and_drop(ev: Events) -> None:
    """Two jobs resolved twice: span then drop, and drop then span."""
    spans = _at(ev, "span")
    a, b = ev[spans[15]], ev[spans[25]]
    ev.insert(spans[25], DropEvent(t=b.t, task=b.task, cycle=b.cycle, release=b.release,
                                   deadline=b.deadline, reason="evicted"))
    ev.insert(spans[15] + 1, DropEvent(t=a.t, task=a.task, cycle=a.cycle, release=a.release,
                                       deadline=a.deadline, reason="expired"))


def break_everything(ev: Events) -> None:
    for mutate in (
        break_overlap, break_time_order, break_deadline, break_gamma_bounds,
        break_overload, break_tiling, break_window_counts, break_rates,
        complete_and_drop, break_bijection,
    ):
        mutate(ev)


def _recording(mutate: Callable[[Events], None], capacity: int = 0) -> Recorder:
    base = from_jsonl(BASE.read_text())
    events = list(base.events)
    mutate(events)
    rec = Recorder(capacity=capacity or None)
    rec.meta.update(base.meta)
    for event in events:
        rec.emit(event)
    return rec


def corpus() -> Dict[str, Recorder]:
    """Name -> broken recording; covers every code, truncation and resolution order."""
    n_base = len(from_jsonl(BASE.read_text()).events)
    return {
        "clean": _recording(lambda ev: None),
        "OBS001-overlap": _recording(break_overlap),
        "OBS002-time-order": _recording(break_time_order),
        "OBS003-bijection": _recording(break_bijection),
        "OBS003-complete-and-drop": _recording(complete_and_drop),
        "OBS004-deadline": _recording(break_deadline),
        "OBS005-gamma-bounds": _recording(break_gamma_bounds),
        "OBS006-overload": _recording(break_overload),
        "OBS007-tiling": _recording(break_tiling),
        "OBS008-window-counts": _recording(break_window_counts),
        "OBS008-boundary-slack": _recording(boundary_slack),
        "OBS009-rates": _recording(break_rates),
        "everything": _recording(break_everything),
        # Capacity-bounded: OBS003 and OBS008 are skipped, the rest still run.
        "truncated": _recording(break_everything, capacity=n_base - 20),
    }


def render() -> Dict[str, List[str]]:
    return {name: [str(v) for v in check_recording(rec)] for name, rec in corpus().items()}


def test_violations_match_golden():
    assert render() == json.loads(VIOLATIONS.read_text())


def test_each_invariant_runs_on_a_bare_recorder():
    golden = json.loads(VIOLATIONS.read_text())
    for name, rec in corpus().items():
        one_by_one = [str(v) for code in sorted(INVARIANTS) for v in INVARIANTS[code][1](rec)]
        assert one_by_one == golden[name], name


def test_corpus_covers_every_code():
    golden = json.loads(VIOLATIONS.read_text())
    assert golden["clean"] == []
    for i in range(1, 10):
        code = f"OBS00{i}"
        entries = [name for name in golden if name.startswith(code)]
        assert entries and any(line.startswith(code) for line in golden[entries[0]])
    assert golden["OBS008-boundary-slack"] == []
    assert any("complete+drop" in line for line in golden["OBS003-complete-and-drop"])
    assert any("drop+complete" in line for line in golden["OBS003-complete-and-drop"])
    assert not any(line.startswith(("OBS003", "OBS008")) for line in golden["truncated"])
    assert golden["truncated"]


if __name__ == "__main__":
    VIOLATIONS.write_text(json.dumps(render(), indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {VIOLATIONS}")
