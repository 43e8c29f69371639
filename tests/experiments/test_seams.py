"""The dispatch seams are looked up on their instances at call time.

Outside tools (the paper-run benchmark's per-layer spans among them) time
the simulator by replacing bound methods on the executor's ``ready`` queue,
its ``scheduler`` and HCPerf's ``coordinator`` *instances* once the
executor is built, through ``run_scenario(before_run=...)``.  If the
executor or a policy bound one of these methods once at construction, the
replacement would never be called and the layer would silently read zero.
These tests replace every seam the same way, check that each replacement
fires, and that wrapping changes nothing the run produces.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.runner import run_scenario
from repro.workloads import fig13_car_following

HORIZON = 6.0

READY_SEAMS = ("pop_best", "drop_expired")
SCHEDULER_SEAMS = ("rank", "eligible", "on_dispatch_round", "on_window")
COORDINATOR_SEAMS = ("resolve_gamma", "sample_controller", "adapt_rates")


def _wrap(obj, attr: str, calls: Counter, label: str) -> None:
    inner = getattr(obj, attr)

    def counted(*args, **kwargs):
        calls[label] += 1
        return inner(*args, **kwargs)

    setattr(obj, attr, counted)


def _wrap_seams(calls: Counter):
    def before_run(executor) -> None:
        for attr in READY_SEAMS:
            _wrap(executor.ready, attr, calls, f"ready.{attr}")
        for attr in SCHEDULER_SEAMS:
            _wrap(executor.scheduler, attr, calls, f"scheduler.{attr}")
        coordinator = getattr(executor.scheduler, "coordinator", None)
        if coordinator is not None:
            for attr in COORDINATOR_SEAMS:
                _wrap(coordinator, attr, calls, f"coordinator.{attr}")

    return before_run


def _outputs(result):
    """Everything a run produces that the seams could influence."""
    metrics = result.metrics
    return {
        "per_task": dict(metrics.per_task),
        "windows": list(metrics.windows),
        "control_events": list(metrics.control_events),
        "final_rates": result.final_rates,
        "utilization": result.utilization,
        "tracking_rms": result.speed_error_rms(),
        "gamma_history": list(result.gamma_history),
    }


@pytest.mark.parametrize(
    "scheduler, expected",
    [
        (
            "EDF",
            ["ready.pop_best"] + [f"scheduler.{a}" for a in SCHEDULER_SEAMS],
        ),
        (
            "HCPerf",
            [f"ready.{a}" for a in READY_SEAMS]
            + [f"scheduler.{a}" for a in SCHEDULER_SEAMS]
            + [f"coordinator.{a}" for a in COORDINATOR_SEAMS],
        ),
    ],
)
def test_instance_wrappers_fire_and_change_nothing(scheduler, expected):
    calls: Counter = Counter()
    wrapped = run_scenario(
        fig13_car_following(horizon=HORIZON), scheduler, seed=3,
        before_run=_wrap_seams(calls),
    )
    plain = run_scenario(fig13_car_following(horizon=HORIZON), scheduler, seed=3)

    silent = [label for label in expected if calls[label] == 0]
    assert not silent, f"{scheduler}: wrapped seams never called: {silent}"
    # EDF keeps expired jobs queued, so its executor never drops them.
    assert sorted(calls) == sorted(expected)
    # One on_dispatch_round per round, one pop_best per free processor.
    assert calls["ready.pop_best"] >= calls["scheduler.on_dispatch_round"] > 0
    assert _outputs(wrapped) == _outputs(plain)
