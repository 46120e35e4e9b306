"""Tests for the experiment harness (environment, runner, scenarios, reporting).

Scenario tests run heavily scaled-down versions of the paper's experiments
(tiny database, few EBs, minutes instead of an hour) — enough to assert the
*shape* of every figure without slowing the unit-test suite down.
"""

from __future__ import annotations

import pytest

from repro.container.server import ServerConfig
from repro.experiments.environment import PAPER_TESTBED, environment_rows, simulated_environment
from repro.experiments.reporting import comparison_report, format_table
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.scenarios import (
    COMPARISONS,
    COMPONENT_A,
    COMPONENT_B,
    COMPONENT_C,
    COMPONENT_D,
    downsample_series,
    fig3_overhead,
    fig4_single_leak,
    fig5_multi_leak,
    fig7_injection_sizes,
    overhead_percent,
    phase_times,
    scope_overhead_ablation,
    strategy_ablation,
    throughput_pair,
)
from repro.faults.injector import FaultSpec
from repro.faults.memory_leak import KB
from repro.sim.metrics import TimeSeries
from repro.tpcw.population import PopulationScale
from repro.tpcw.workload import WorkloadPhase

TINY = PopulationScale.tiny()


class TestEnvironment:
    def test_paper_testbed_matches_table1(self):
        assert PAPER_TESTBED["application_server"]["software"] == "Tomcat 5.5.26"
        assert "1GB heap" in PAPER_TESTBED["application_server"]["jvm"]
        assert PAPER_TESTBED["database_server"]["software"] == "MySql 5.0.67"

    def test_simulated_environment_reflects_config(self):
        environment = simulated_environment(ServerConfig(app_cpu_cores=8, heap_bytes=512 * 1024 * 1024))
        assert "8-way" in environment["application_server"]["hardware"]
        assert "512 MB heap" in environment["application_server"]["jvm"]

    def test_environment_rows_cover_all_tiers_and_attributes(self):
        rows = environment_rows()
        assert len(rows) == 12
        assert {row["tier"] for row in rows} == {"clients", "application_server", "database_server"}
        assert all(row["paper"] and row["reproduction"] for row in rows)


class TestRunner:
    def test_unmonitored_run_collects_blackbox_only(self):
        config = ExperimentConfig(
            name="t", seed=1, scale=TINY, constant_ebs=8, duration=120.0, monitored=False
        )
        result = run_experiment(config)
        assert result.completed_requests > 20
        assert result.root_cause is None
        assert result.overhead_seconds == 0.0
        assert result.blackbox is not None
        assert result.blackbox.root_cause_component is None
        # Unmonitored, the heap series is the black-box host monitor's.
        assert len(result.heap_series) >= 1

    def test_monitored_run_produces_map_and_series(self):
        config = ExperimentConfig(
            name="t",
            seed=1,
            scale=TINY,
            constant_ebs=8,
            duration=180.0,
            monitored=True,
            snapshot_interval=30.0,
            faults=[FaultSpec("home", "memory-leak", {"leak_bytes": 50 * KB, "period_n": 5})],
        )
        result = run_experiment(config)
        assert result.root_cause is not None
        assert result.root_cause.top().component == "home"
        assert len(result.component_series["home"]) >= 3
        assert result.overhead_seconds > 0
        assert result.fault_descriptions and "memory-leak" in result.fault_descriptions[0]
        assert result.component_growth()["home"] > 0
        assert result.mean_throughput() > 0

    def test_monitored_components_subset(self):
        config = ExperimentConfig(
            name="t",
            seed=1,
            scale=TINY,
            constant_ebs=8,
            duration=90.0,
            monitored=True,
            monitored_components=["home"],
        )
        result = run_experiment(config)
        status = result.framework.manager.component_status()
        assert status["home"] is True
        assert status["product_detail"] is False

    def test_pinpoint_trace_collection(self):
        config = ExperimentConfig(
            name="t",
            seed=2,
            scale=TINY,
            constant_ebs=6,
            duration=90.0,
            monitored=False,
            collect_pinpoint_traces=True,
        )
        result = run_experiment(config)
        assert result.pinpoint is not None
        assert result.pinpoint.total_requests == result.completed_requests

    def test_phases_default_to_constant_ebs(self):
        config = ExperimentConfig(constant_ebs=17)
        phases = config.effective_phases()
        assert phases == [WorkloadPhase(0.0, 17)]


class TestScenarios:
    def test_fig3_shape_monitored_below_unmonitored(self):
        scenario = fig3_overhead(duration_scale=0.05, seed=5, scale=TINY,
                                 warmup_ebs=10, mid_ebs=20, high_ebs=40).run()
        warm, mid, end = phase_times(scenario)
        pair_high = throughput_pair(scenario, mid, end)
        pair_mid = throughput_pair(scenario, warm, mid)
        # Throughput grows with the EB count and monitoring never helps.
        assert pair_high["unmonitored"] > pair_mid["unmonitored"]
        assert scenario.result("monitored").overhead_seconds > 0
        assert overhead_percent(scenario) < 25.0
        assert len(scenario.tables()["throughput"].rows) > 0

    def test_fig3_throughput_table_spans_the_whole_run(self):
        # duration_scale 0.35 gives 43 windows of 30 s: the table down-samples
        # them (every 2nd, 22 rows) instead of stopping after the first 40,
        # so it reaches the last phase.
        scenario = fig3_overhead(
            duration_scale=0.35, seed=5, scale=TINY, warmup_ebs=5, mid_ebs=10, high_ebs=20
        ).run()
        series = scenario.result("unmonitored").throughput
        rows = scenario.tables()["throughput"].rows
        assert [row["time_s"] for row in rows] == [
            round(time, 1) for time, _ in downsample_series(series)
        ]
        assert len(series) == 43 and len(rows) == 22
        assert rows[-1]["time_s"] > phase_times(scenario)[1]

    def test_fig4_single_leak_blames_component_a(self):
        scenario = fig4_single_leak(duration_scale=0.08, seed=7, scale=TINY, ebs=40).run()
        (result,) = scenario.results.values()
        report = result.root_cause
        assert report.top().component == COMPONENT_A
        assert report.top().responsibility > 0.95
        growth = result.component_growth()
        assert growth[COMPONENT_A] > 200 * KB
        flat = [name for name in growth if name != COMPONENT_A]
        assert all(growth[name] < 0.05 * growth[COMPONENT_A] for name in flat)

    def test_fig5_multi_leak_ordering(self):
        scenario = fig5_multi_leak(duration_scale=0.08, seed=7, scale=TINY, ebs=40).run()
        (result,) = scenario.results.values()
        growth = result.component_growth()
        # A and B grow the most, C less, D effectively flat.
        assert growth[COMPONENT_A] > growth[COMPONENT_C]
        assert growth[COMPONENT_B] > growth[COMPONENT_C]
        assert growth[COMPONENT_D] <= growth[COMPONENT_C]
        ranking = result.root_cause.ranking()
        assert set(ranking[:2]) == {COMPONENT_A, COMPONENT_B}
        # Fig. 6 is derived from the same run.
        by_component = {row["component"]: row for row in scenario.tables()["map"].rows}
        assert "most suspicious" in by_component[COMPONENT_A]["quadrant"]
        assert "Fig. 6" in comparison_report(scenario)

    def test_fig7_largest_leak_wins(self):
        scenario = fig7_injection_sizes(duration_scale=0.08, seed=7, scale=TINY, ebs=40).run()
        (result,) = scenario.results.values()
        ranking = result.root_cause.ranking()
        assert ranking[0] == COMPONENT_C
        assert ranking[1] == COMPONENT_A
        growth = result.component_growth()
        assert growth[COMPONENT_C] > growth[COMPONENT_A] > growth[COMPONENT_B]

    def test_strategy_ablation_rows(self):
        scenario = fig4_single_leak(duration_scale=0.05, seed=3, scale=TINY, ebs=30).run()
        (result,) = scenario.results.values()
        rows = strategy_ablation(result)
        assert {row["strategy"] for row in rows} == {"paper-map", "trend", "composite"}
        assert all(row["top_component"] == COMPONENT_A for row in rows)


#: Both edges of the range the paper figures' claims state: each holds at
#: tiny ``duration_scale=0.05`` for four seeds, and Fig. 4's fails at tiny
#: 0.02 (component A grows only 200-300 KB, under the 500 KB bar).  The scope
#: ablation's claim also states tiny 0.02.
SEEDS = (7, 11, 42, 2026)
CLAIM_RANGE = (
    [(name, seed, 0.05, True) for name in ("fig3", "fig4", "fig5", "fig7") for seed in SEEDS]
    + [("fig4", 42, 0.02, False)]
    + [("scope", seed, 0.02, True) for seed in SEEDS]
)


@pytest.mark.parametrize("name, seed, duration_scale, holds", CLAIM_RANGE)
def test_claim_range(name, seed, duration_scale, holds):
    builder = scope_overhead_ablation if name == "scope" else COMPARISONS[name]
    scenario = builder(duration_scale=duration_scale, seed=seed, scale=TINY).run()
    assert scenario.holds() is holds


class TestReporting:
    def test_format_table_and_downsample(self):
        table = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        assert "a" in table.splitlines()[0]
        assert len(table.splitlines()) == 4
        assert format_table([]) == "(no data)"
        series = TimeSeries()
        for index in range(100):
            series.record(float(index), float(index))
        assert len(downsample_series(series, points=10)) <= 11

    def test_fig_reports_render(self):
        fig3 = fig3_overhead(duration_scale=0.04, seed=5, scale=TINY,
                             warmup_ebs=5, mid_ebs=10, high_ebs=20).run()
        text = comparison_report(fig3)
        assert "Fig. 3" in text and "measured overhead" in text

        scenario = fig4_single_leak(duration_scale=0.05, seed=3, scale=TINY, ebs=30).run()
        leak_text = comparison_report(scenario)
        assert "root-cause ranking" in leak_text and COMPONENT_A in leak_text
