"""Unit tests for the hierarchical coordinator façade."""

import pytest

from repro.core import GammaHistory, HCPerfConfig, HierarchicalCoordinator
from repro.obs.metrics import MetricsRegistry
from repro.rt import ConstantExecTime, ExecTimeObserver, Job, TaskSpec


def job(name="t", priority=1, exec_time=0.01, deadline=0.1):
    spec = TaskSpec(
        name=name, priority=priority, relative_deadline=deadline,
        exec_model=ConstantExecTime(exec_time),
    )
    return Job(task=spec, release_time=0.0, exec_time=exec_time)


class TestInternalCoordinator:
    def test_report_performance_updates_error(self):
        c = HierarchicalCoordinator()
        c.report_performance(0.0, 1.5)
        assert c.tracking_error == 1.5

    def test_sample_controller_returns_u(self):
        c = HierarchicalCoordinator()
        for i in range(10):
            c.report_performance(i * 0.05, 1.0)
        u = c.sample_controller(0.5)
        assert u == c.mfc.u
        assert u > 0.0

    def test_resolve_gamma_records_history(self):
        c = HierarchicalCoordinator()
        jobs = [job(exec_time=0.001, deadline=1.0)]
        result = c.resolve_gamma(0.0, jobs, lambda j: j.exec_time, 0.0, 2)
        assert c.last_result is result
        assert c.gamma_history == [(0.0, result.gamma)]

    def test_overload_counted(self):
        c = HierarchicalCoordinator()
        doomed = [job(exec_time=0.5, deadline=0.1)]
        result = c.resolve_gamma(0.0, doomed, lambda j: j.exec_time, 0.0, 1)
        assert result.overloaded
        assert c.overload_windows == 1


class TestGammaHistoryRing:
    def test_limit_validation(self):
        with pytest.raises(ValueError):
            GammaHistory(0)
        with pytest.raises(ValueError):
            HCPerfConfig(gamma_history_limit=0)

    def test_list_like_behaviour(self):
        ring = GammaHistory(8)
        ring.append((0.0, 0.1))
        ring.append((0.5, 0.2))
        assert len(ring) == 2
        assert ring[0] == (0.0, 0.1) and ring[-1] == (0.5, 0.2)
        assert ring[:1] == [(0.0, 0.1)]
        assert list(ring) == [(0.0, 0.1), (0.5, 0.2)]
        assert ring == [(0.0, 0.1), (0.5, 0.2)]

    def test_eviction_keeps_newest_and_counts(self):
        ring = GammaHistory(3)
        for i in range(5):
            ring.append((float(i), 0.0))
        assert len(ring) == 3
        assert ring.total == 5 and ring.dropped == 2
        assert [t for t, _ in ring] == [2.0, 3.0, 4.0]

    def test_wrap_around_keeps_time_order(self):
        # Evicting several times moves the oldest slot around the buffer;
        # every view must still read oldest-to-newest.
        ring = GammaHistory(3)
        for i in range(7):
            ring.append((float(i), i / 10))
        expected = [(4.0, 0.4), (5.0, 0.5), (6.0, 0.6)]
        assert list(ring) == expected and ring == expected
        assert [ring[i] for i in range(3)] == expected
        assert ring.total == 7 and ring.dropped == 4

    def test_negative_indices_and_slices_after_wrap(self):
        ring = GammaHistory(4)
        for i in range(6):
            ring.append((float(i), 2.0 * i))
        samples = [(2.0, 4.0), (3.0, 6.0), (4.0, 8.0), (5.0, 10.0)]
        for i in range(-4, 4):
            assert ring[i] == samples[i]
        for index in (-5, 4):
            with pytest.raises(IndexError):
                ring[index]
        assert ring[1:3] == samples[1:3]
        assert ring[::-1] == samples[::-1]
        assert ring[-2:] == samples[-2:]
        assert ring[::2] == samples[::2]

    def test_equality_between_rings(self):
        a, b = GammaHistory(2), GammaHistory(5)
        for i in range(3):
            a.append((float(i), 0.5))
        b.append((1.0, 0.5))
        b.append((2.0, 0.5))
        assert a == b and a == ((1.0, 0.5), (2.0, 0.5))
        b.append((3.0, 0.5))
        assert a != b

    def test_clear_resets_counters(self):
        ring = GammaHistory(2)
        for i in range(4):
            ring.append((float(i), 0.0))
        ring.clear()
        assert len(ring) == 0 and ring.total == 0 and ring.dropped == 0

    def test_coordinator_bounds_history_and_reports_metric(self):
        metrics = MetricsRegistry()
        c = HierarchicalCoordinator(
            HCPerfConfig(gamma_history_limit=4), metrics=metrics
        )
        jobs = [job(exec_time=0.001, deadline=1.0)]
        for i in range(10):
            c.resolve_gamma(i * 0.01, jobs, lambda j: j.exec_time, 0.0, 2)
        assert len(c.gamma_history) == 4
        assert c.gamma_history.total == 10
        assert c.gamma_history.dropped == 6
        assert metrics.counter("gamma_history_dropped").value == 6

    def test_default_limit_is_generous(self):
        c = HierarchicalCoordinator()
        assert c.gamma_history.limit == HCPerfConfig().gamma_history_limit >= 65536


class TestExternalCoordinator:
    def test_adapt_rates_disabled_returns_none(self):
        c = HierarchicalCoordinator(HCPerfConfig(enable_external=False))
        obs = ExecTimeObserver()
        assert c.adapt_rates(0.1, {"cam": 20.0}, obs) is None

    def test_adapt_rates_applies_update(self):
        c = HierarchicalCoordinator()
        c.rate_adapter.set_rate_range("cam", 10.0, 40.0)
        obs = ExecTimeObserver()
        out = c.adapt_rates(0.0, {"cam": 20.0}, obs)
        assert out is not None and out["cam"] > 20.0

    def test_drift_triggers_stable_remark(self):
        c = HierarchicalCoordinator()
        c.rate_adapter.set_rate_range("cam", 10.0, 40.0)
        obs = ExecTimeObserver(alpha=1.0)
        obs.observe("t", 0.02)
        obs.mark_stable()
        obs.observe("t", 0.06)  # 200% drift
        assert obs.max_drift() > c.config.rate.drift_reset_threshold
        c.adapt_rates(0.0, {"cam": 20.0}, obs)
        # The coordinator re-baselines the observer after the reset.
        assert obs.max_drift() == pytest.approx(0.0)
        assert c.rate_adapter.resets == 1


class TestReset:
    def test_reset_restores_everything(self):
        c = HierarchicalCoordinator()
        c.report_performance(0.0, 2.0)
        c.sample_controller(0.5)
        c.resolve_gamma(0.0, [job()], lambda j: j.exec_time, 0.0, 2)
        c.reset()
        assert c.tracking_error == 0.0
        assert c.gamma_history == []
        assert c.last_result is None
        assert c.overload_windows == 0
        assert c.mfc.history == []
