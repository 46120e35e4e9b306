"""Tests for the baseline monitors and rejuvenation policies."""

from __future__ import annotations

import pytest

from repro.baselines.blackbox import BlackBoxMonitor
from repro.baselines.pinpoint import PinpointAnalyzer
from repro.baselines.rejuvenation import (
    FULL_RESTART,
    MICRO_REBOOT,
    NoActionPolicy,
    PolicyObservation,
    ProactiveRejuvenationPolicy,
    RejuvenationAction,
    TimeBasedRejuvenationPolicy,
    exposure_seconds,
)
from repro.db.engine import Database
from repro.db.jdbc import DataSource
from repro.db.table import Column, ColumnType
from repro.jvm.runtime import JvmRuntime
from repro.sim.metrics import TimeSeries


class TestBlackBoxMonitor:
    def _datasource(self):
        database = Database("x")
        database.create_table("t", [Column("id", ColumnType.INTEGER, primary_key=True)])
        return DataSource(database, pool_size=4)

    def test_detects_heap_trend_but_names_no_component(self):
        runtime = JvmRuntime(heap_bytes=100 * 1024 * 1024)
        monitor = BlackBoxMonitor(runtime, self._datasource())
        # Steadily leak rooted memory and sample.
        for step in range(20):
            runtime.allocate("Leak", 1024 * 1024, owner="whoever", root=True)
            monitor.sample(timestamp=float(step * 60))
        report = monitor.analyze()
        assert report.aging_detected
        assert "heap_used" in report.trending_metrics
        assert report.root_cause_component is None
        assert report.time_to_exhaustion_seconds is not None
        assert report.time_to_exhaustion_seconds > 0

    def test_no_trend_no_alarm(self):
        runtime = JvmRuntime()
        monitor = BlackBoxMonitor(runtime)
        for step in range(10):
            monitor.sample(timestamp=float(step))
        report = monitor.analyze()
        assert not report.aging_detected
        assert report.time_to_exhaustion_seconds is None

    def test_unknown_metric_rejected(self):
        monitor = BlackBoxMonitor(JvmRuntime())
        with pytest.raises(KeyError):
            monitor.trend_of("nope")

    def test_thread_trend_detection(self):
        runtime = JvmRuntime()
        monitor = BlackBoxMonitor(runtime)
        for step in range(15):
            runtime.threads.spawn(f"leak-{step}", owner="c")
            monitor.sample(timestamp=float(step * 30))
        report = monitor.analyze()
        assert "threads" in report.trending_metrics


class TestPinpointAnalyzer:
    def test_blind_to_failure_free_aging(self):
        analyzer = PinpointAnalyzer()
        for _ in range(100):
            analyzer.record_request(["home"], failed=False)
            analyzer.record_request(["product_detail"], failed=False)
        report = analyzer.analyze()
        assert report.failed_requests == 0
        assert report.top() is None

    def test_correlates_failures_with_component(self):
        analyzer = PinpointAnalyzer()
        for index in range(200):
            analyzer.record_request(["home"], failed=False)
            analyzer.record_request(["buy_confirm"], failed=index % 2 == 0)
        report = analyzer.analyze()
        assert report.top() == "buy_confirm"
        assert report.scores["buy_confirm"] > report.scores["home"]

    def test_coupled_components_get_equal_blame(self):
        analyzer = PinpointAnalyzer()
        for index in range(100):
            analyzer.record_request(["cart", "checkout"], failed=index % 4 == 0)
        report = analyzer.analyze()
        # The limitation the paper calls out: components always used together
        # are indistinguishable to a failure-correlation ranker.
        assert report.scores["cart"] == pytest.approx(report.scores["checkout"])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            PinpointAnalyzer().record_request([], failed=True)


class TestRejuvenationPolicies:
    def _leaking_heap_series(self, slope_bytes_per_second: float, duration: float) -> TimeSeries:
        series = TimeSeries("heap")
        t = 0.0
        while t <= duration:
            series.record(t, 100e6 + slope_bytes_per_second * t)
            t += 60.0
        return series

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TimeBasedRejuvenationPolicy(interval=0)
        with pytest.raises(ValueError):
            ProactiveRejuvenationPolicy(horizon=0)

    def test_exposure_counts_final_sample_above_threshold(self):
        # Regression: the step integration used to iterate range(len - 1),
        # so a run that *ends* in the danger zone reported zero exposure.
        series = TimeSeries("heap")
        for t in (0.0, 60.0, 120.0):
            series.record(t, 0.95e9)
        # Observation-window extension: the final sample covers up to the end.
        assert exposure_seconds(series, 1e9, window_end=200.0) == pytest.approx(200.0)
        # ... but never past the stated window: a window ending exactly at
        # (or before) the final sample credits it nothing extra.
        assert exposure_seconds(series, 1e9, window_end=120.0) == pytest.approx(120.0)
        assert exposure_seconds(series, 1e9, window_end=90.0) == pytest.approx(120.0)

    def test_exposure_single_sample_needs_window_end(self):
        series = TimeSeries("heap")
        series.record(10.0, 0.99e9)
        assert exposure_seconds(series, 1e9, window_end=70.0) == pytest.approx(60.0)

    def test_exposure_below_threshold_unaffected(self):
        series = self._leaking_heap_series(10_000.0, 4 * 3600.0)
        assert exposure_seconds(series, 1e9, window_end=5 * 3600.0) == 0.0


class TestRejuvenationPolicyDecide:
    """Live-mode decisions consumed by the RejuvenationController."""

    def _observation(self, series: TimeSeries, now: float, **kwargs) -> PolicyObservation:
        return PolicyObservation(now=now, series=series, capacity=1e9, **kwargs)

    def _rising_series(self, slope: float, until: float) -> TimeSeries:
        series = TimeSeries("heap")
        t = 0.0
        while t <= until:
            series.record(t, 0.5e9 + slope * t)
            t += 60.0
        return series

    def test_no_action_policy_never_acts(self):
        series = self._rising_series(1e6, 1800.0)
        assert NoActionPolicy().decide(self._observation(series, 1800.0)) is None

    def test_time_based_waits_for_interval(self):
        policy = TimeBasedRejuvenationPolicy(interval=600.0, restart_downtime=30.0)
        series = TimeSeries("heap")
        assert policy.decide(self._observation(series, 300.0)) is None
        action = policy.decide(self._observation(series, 600.0))
        assert action is not None
        assert action.kind == FULL_RESTART
        assert action.downtime_seconds == 30.0
        # After an executed action, the clock restarts from the action's end.
        assert policy.decide(self._observation(series, 900.0, last_action_end=630.0)) is None
        assert policy.decide(self._observation(series, 1230.0, last_action_end=630.0)) is not None

    def test_proactive_targets_the_suspect(self):
        policy = ProactiveRejuvenationPolicy(horizon=3600.0, microreboot_downtime=2.0)
        series = self._rising_series(400_000.0, 900.0)
        action = policy.decide(
            self._observation(series, 900.0, suspect_component="product_detail")
        )
        assert action is not None
        assert action.kind == MICRO_REBOOT
        assert action.component == "product_detail"
        assert action.downtime_seconds == 2.0

    def test_proactive_without_suspect_does_nothing(self):
        policy = ProactiveRejuvenationPolicy(horizon=3600.0)
        series = self._rising_series(400_000.0, 900.0)
        assert policy.decide(self._observation(series, 900.0)) is None

    def test_proactive_flat_heap_does_nothing(self):
        policy = ProactiveRejuvenationPolicy(horizon=3600.0)
        series = TimeSeries("heap")
        for t in (0.0, 60.0, 120.0, 180.0):
            series.record(t, 0.5e9)
        assert policy.decide(
            self._observation(series, 180.0, suspect_component="home")
        ) is None

    def test_action_validation(self):
        with pytest.raises(ValueError):
            RejuvenationAction(kind="reboot-the-universe", downtime_seconds=1.0)
        with pytest.raises(ValueError):
            RejuvenationAction(kind=FULL_RESTART, downtime_seconds=-1.0)
