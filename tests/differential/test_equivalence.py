"""Differential equivalence: typed model ≡ pre-typed model on identity profiles.

Every cell of the (scheduler × seed) grid replays the canonical fig13 run
under an *explicit* identity :class:`ProcessorProfile` — all-CPU units at
speedup 1.0, every task on the default all-inputs activation — and must
reproduce the committed pre-refactor golden byte for byte, both the JSONL
event trace and the metrics summary.  Passing an explicit profile (rather
than leaving ``processor_profile=None``) is the point: it drives the typed
dispatch path (unit compatibility check, speedup scaling, typed span
metadata gating) and proves it collapses exactly to the old scalar model.

A second pass leaves the config untouched, pinning that the default
no-profile path is also still byte-identical, and a third replays one cell
on the typed ``2xCPU+1xGPU@3`` platform.
"""

from __future__ import annotations

import pytest

from repro.rt.resources import ProcessorProfile

from .harness import GRID, TYPED_CELL, golden_paths, read_golden_trace, record_run

#: fig13's platform is 2 processors; the identity profile mirrors it.
IDENTITY = ProcessorProfile.homogeneous(2)


def _golden(scheduler: str, seed: int, scenario: str = "fig13") -> tuple[str, str]:
    trace_path, metrics_path = golden_paths(scheduler, seed, scenario)
    assert trace_path.exists() and metrics_path.exists(), (
        f"missing golden for ({scheduler}, seed={seed}); "
        "regenerate with make_goldens.py at the pre-refactor commit"
    )
    return read_golden_trace(trace_path), metrics_path.read_text()


class TestIdentityProfileEquivalence:
    """Explicit identity profile → byte-identical to the pre-typed engine."""

    @pytest.mark.parametrize("scheduler,seed", GRID)
    def test_trace_and_metrics_byte_identical(self, scheduler, seed):
        assert IDENTITY.is_identity
        golden_trace, golden_metrics = _golden(scheduler, seed)
        trace, metrics = record_run(
            scheduler, seed, sim_overrides={"processor_profile": IDENTITY}
        )
        assert metrics == golden_metrics, (
            f"({scheduler}, seed={seed}): metrics diverged under identity profile"
        )
        assert trace == golden_trace, (
            f"({scheduler}, seed={seed}): trace diverged under identity profile"
        )


class TestDefaultPathEquivalence:
    """No profile configured → the legacy scalar path is untouched."""

    @pytest.mark.parametrize("seed", [0])
    @pytest.mark.parametrize("scheduler", ["EDF", "HCPerf"])
    def test_default_config_matches_golden(self, scheduler, seed):
        golden_trace, golden_metrics = _golden(scheduler, seed)
        trace, metrics = record_run(scheduler, seed)
        assert metrics == golden_metrics
        assert trace == golden_trace

    def test_string_profile_coerces_to_identity(self):
        """The canonical string form of the identity platform is identity too."""
        golden_trace, golden_metrics = _golden("EDF", 1)
        trace, metrics = record_run("EDF", 1, sim_overrides={"processor_profile": "2xCPU"})
        assert metrics == golden_metrics
        assert trace == golden_trace


class TestTypedPlatform:
    """Typed dispatch (affinity filter, speedup scaling) stays byte-identical."""

    def test_heterogeneous_cell_matches_golden(self):
        scheduler, seed = TYPED_CELL
        golden_trace, golden_metrics = _golden(scheduler, seed, "heterogeneous")
        trace, metrics = record_run(scheduler, seed, scenario_name="heterogeneous")
        assert metrics == golden_metrics
        assert trace == golden_trace
