"""Integration tests for multi-resource rejuvenation & the fig_adaptive scenario.

Covers the ISSUE 3 acceptance semantics:

* the ResourceChannel abstraction: thread/connection series polled by the
  manager, channel capacities and direct attribution, component recycling
  of threads and connections (not just heap);
* the thread-leak fault pins stack memory on the heap and fails requests at
  the JVM thread capacity; the connection-leak fault tags its borrows;
* ``fig_adaptive``: the adaptive policy's SLA cost is no worse than the
  best fixed policy on the memory workload, thread/connection no-action
  error spikes are eliminated by rejuvenation, and the scenario is
  deterministic per seed at ``duration_scale=0.05``.
"""

from __future__ import annotations

import pytest

from repro.baselines.rejuvenation import MICRO_REBOOT, RejuvenationAction
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.rejuvenation import (
    ConnectionChannel,
    HeapChannel,
    RejuvenationController,
    ThreadChannel,
    build_channels,
)
from repro.container.server import ServerConfig
from repro.jvm.heap import Heap
from repro.jvm.threads import ThreadLimitError, ThreadRegistry
from repro.sim.engine import SimulationEngine
from repro.slo.adaptive_policy import AdaptiveRejuvenationPolicy
from repro.tpcw.application import build_deployment
from repro.tpcw.population import PopulationScale

TINY = PopulationScale.tiny()
DS = 0.05


# --------------------------------------------------------------------------- #
# JVM thread registry: capacity + pinned stacks
# --------------------------------------------------------------------------- #
class TestThreadRegistry:
    def test_capacity_limits_spawns(self):
        registry = ThreadRegistry(capacity=2)
        registry.spawn("a")
        registry.spawn("b")
        with pytest.raises(ThreadLimitError):
            registry.spawn("c")
        # Terminating frees a slot.
        registry.terminate(registry.live_threads()[0])
        registry.remove_terminated()
        registry.spawn("c")

    def test_pinned_stack_accounts_on_heap_and_frees_on_terminate(self):
        heap = Heap(capacity_bytes=10 * 1024 * 1024)
        registry = ThreadRegistry(heap=heap)
        before = heap.used_bytes
        thread = registry.spawn(
            "leaked", owner="home", stack_bytes=256 * 1024, pin_stack=True
        )
        assert heap.used_bytes == before + 256 * 1024
        assert heap.is_root(thread.stack_object)
        registry.terminate(thread)
        assert heap.used_bytes == before

    def test_terminate_owned_frees_only_that_owner(self):
        heap = Heap(capacity_bytes=10 * 1024 * 1024)
        registry = ThreadRegistry(heap=heap)
        for index in range(3):
            registry.spawn(f"a{index}", owner="home", stack_bytes=1024, pin_stack=True)
        registry.spawn("other", owner="search_request", stack_bytes=1024, pin_stack=True)
        count, freed = registry.terminate_owned("home")
        assert count == 3
        assert freed == 3 * 1024
        assert registry.count_by_owner("home") == 0
        assert registry.count_by_owner("search_request") == 1

    def test_unpinned_spawn_does_not_touch_heap(self):
        heap = Heap(capacity_bytes=1024)  # far too small for a stack
        registry = ThreadRegistry(heap=heap)
        registry.spawn("worker", stack_bytes=512 * 1024)  # pin_stack defaults off
        assert heap.used_bytes == 0


# --------------------------------------------------------------------------- #
# DataSource: owner tagging and forced release
# --------------------------------------------------------------------------- #
class TestConnectionOwnership:
    def test_borrows_are_tagged_and_released_by_owner(self):
        deployment = build_deployment(scale=TINY, seed=3)
        datasource = deployment.datasource
        held = [datasource.get_connection(owner="home") for _ in range(3)]
        other = datasource.get_connection(owner="search_request")
        assert datasource.active_by_owner()["home"] == 3
        released = datasource.release_owned("home")
        assert released == 3
        assert all(connection.is_closed for connection in held)
        assert not other.is_closed
        assert datasource.active_by_owner() == {"search_request": 1}

    def test_servlet_borrows_carry_component_name(self):
        deployment = build_deployment(scale=TINY, seed=3)
        servlet = deployment.servlet("home")
        connection = servlet.get_connection()
        assert connection.owner == "home"
        connection.close()


# --------------------------------------------------------------------------- #
# Channels + controller
# --------------------------------------------------------------------------- #
def build_monitored_stack(seed=7, server_config=None):
    engine = SimulationEngine()
    deployment = build_deployment(
        scale=TINY, seed=seed, clock=engine.clock, config=server_config
    )
    framework = MonitoringFramework(
        deployment,
        engine=engine,
        config=FrameworkConfig(
            snapshot_interval=10.0, monitor_threads=True, monitor_connections=True
        ),
    )
    framework.install()
    return engine, deployment, framework


class TestResourceChannels:
    def test_build_channels_by_name(self):
        channels = build_channels(["heap", "threads", "connections"])
        assert [channel.name for channel in channels] == [
            "heap",
            "threads",
            "connections",
        ]
        with pytest.raises(KeyError):
            build_channels(["cpu"])

    def test_manager_snapshot_records_extended_series(self):
        engine, deployment, framework = build_monitored_stack()
        framework.manager.snapshot(timestamp=5.0)
        threads = framework.manager.map.series("<jvm>", "threads_total")
        connections = framework.manager.map.series("<jvm>", "connections_active")
        assert len(threads) == 1
        assert threads.values[0] == deployment.runtime.thread_count()
        assert len(connections) == 1
        assert connections.values[0] == 0.0

    def test_channel_capacities(self):
        config = ServerConfig(thread_capacity=333)
        engine, deployment, framework = build_monitored_stack(server_config=config)
        controller = RejuvenationController(
            deployment,
            framework.manager,
            engine,
            policy=AdaptiveRejuvenationPolicy(base_horizon=100.0),
            channels=build_channels(["heap", "threads", "connections"]),
        )
        heap, threads, connections = controller.channels
        assert heap.capacity(deployment) == deployment.runtime.total_memory()
        assert threads.capacity(deployment) == 333.0
        assert connections.capacity(deployment) == float(deployment.datasource.pool_size)

    def test_direct_attribution_suspects(self):
        engine, deployment, framework = build_monitored_stack()
        controller = RejuvenationController(
            deployment,
            framework.manager,
            engine,
            policy=AdaptiveRejuvenationPolicy(base_horizon=100.0),
            channels=build_channels(["threads", "connections"]),
        )
        thread_channel, connection_channel = controller.channels
        assert thread_channel.suspect(controller) is None
        deployment.runtime.threads.spawn("leak-1", owner="home")
        deployment.runtime.threads.spawn("leak-2", owner="home")
        assert thread_channel.suspect(controller) == "home"
        assert connection_channel.suspect(controller) is None
        deployment.datasource.get_connection(owner="shopping_cart")
        assert connection_channel.suspect(controller) == "shopping_cart"

    def test_heap_only_controller_skips_extended_polling(self):
        engine, deployment, framework = build_monitored_stack()
        controller = RejuvenationController(
            deployment,
            framework.manager,
            engine,
            policy=AdaptiveRejuvenationPolicy(base_horizon=100.0),
        )
        assert [channel.name for channel in controller.channels] == ["heap"]
        assert framework.manager.poll_live_heap is True

    def test_micro_reboot_recycles_threads_and_connections(self):
        engine, deployment, framework = build_monitored_stack()
        runtime = deployment.runtime
        for index in range(4):
            runtime.threads.spawn(
                f"leak-{index}", owner="home", stack_bytes=2048, pin_stack=True
            )
        for _ in range(3):
            deployment.datasource.get_connection(owner="home")
        controller = RejuvenationController(
            deployment,
            framework.manager,
            engine,
            policy=AdaptiveRejuvenationPolicy(base_horizon=100.0),
            channels=build_channels(["threads"]),
        )
        event = controller.execute(
            RejuvenationAction(
                kind=MICRO_REBOOT,
                downtime_seconds=0.5,
                component="home",
                resource="threads",
            ),
            at_time=10.0,
        )
        assert event.reclaimed_threads == 4
        assert event.reclaimed_connections == 3
        assert event.reclaimed_bytes >= 4 * 2048
        assert runtime.threads.count_by_owner("home") == 0
        assert deployment.datasource.active_connections == 0
        report = controller.report()
        assert report.reclaimed_threads == 4
        assert report.reclaimed_connections == 3


# --------------------------------------------------------------------------- #
# Faults: error surfacing
# --------------------------------------------------------------------------- #
class TestFaultErrorSurfacing:
    def test_thread_limit_fails_the_request(self):
        from repro.container.servlet import HttpServletRequest
        from repro.faults.thread_leak import ThreadLeakFault

        config = ServerConfig(thread_capacity=151)  # room for one leak on top
        deployment = build_deployment(scale=TINY, seed=5, config=config)
        fault = ThreadLeakFault(period_n=0)  # trigger on every visit
        deployment.servlet("home").attach_fault(fault)
        first = deployment.server.handle(
            HttpServletRequest(uri=deployment.url_for("home")), 1.0
        )
        assert first.response.status == 200
        second = deployment.server.handle(
            HttpServletRequest(uri=deployment.url_for("home")), 2.0
        )
        assert second.response.is_error
        assert fault.leaked_threads == 1
        assert fault.thread_limit_hits == 1

    def test_connection_leak_prunes_force_closed(self):
        from repro.faults.connection_leak import ConnectionLeakFault

        deployment = build_deployment(scale=TINY, seed=5)
        fault = ConnectionLeakFault(period_n=0)
        servlet = deployment.servlet("home")
        servlet.attach_fault(fault)
        fault.on_request(servlet, None)
        fault.on_request(servlet, None)
        assert fault.leaked_connections == 2
        assert deployment.datasource.active_by_owner()["home"] == 2
        deployment.datasource.release_owned("home")
        fault.on_request(servlet, None)
        # The force-closed connections dropped out; only the fresh leak is held.
        assert fault.leaked_connections == 1


# --------------------------------------------------------------------------- #
# fig_adaptive acceptance
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def adaptive_scenario():
    from repro.experiments.scenarios import fig_adaptive

    return fig_adaptive(duration_scale=DS, seed=42, scale=TINY).run()


class TestFigAdaptive:
    def test_adaptive_beats_or_matches_best_fixed_on_memory(self, adaptive_scenario):
        from repro.experiments.scenarios import best_fixed_cost

        adaptive = adaptive_scenario.sla_cost("memory/adaptive")
        best_fixed = best_fixed_cost(adaptive_scenario, "memory")
        assert adaptive <= best_fixed

    @pytest.mark.parametrize("workload", ["threads", "connections"])
    def test_rejuvenation_eliminates_error_spikes(self, adaptive_scenario, workload):
        no_action = adaptive_scenario.result(f"{workload}/no-action")
        adaptive = adaptive_scenario.result(f"{workload}/adaptive")
        assert no_action.error_count > 0, "no-action run must exhibit the spike"
        assert adaptive.error_count == 0
        assert adaptive_scenario.result(f"{workload}/proactive-microreboot").error_count == 0

    def test_all_policies_on_all_workloads(self, adaptive_scenario):
        for workload in ("memory", "threads", "connections"):
            policies = [
                mode.split("/")[1]
                for mode in adaptive_scenario.results
                if mode.startswith(f"{workload}/")
            ]
            assert sorted(policies) == sorted(
                ["no-action", "time-based", "proactive-microreboot", "adaptive"]
            )

    def test_exposure_and_downtime_enter_the_scalar(self, adaptive_scenario):
        # The no-action memory run pays exposure + errors but no downtime;
        # recycling policies pay downtime but eliminate both.
        observation = adaptive_scenario.sla_observation("memory/no-action")
        assert observation.downtime_seconds == 0.0
        assert observation.exposure_seconds > 0.0
        assert observation.failed_requests > 0
        recycled = adaptive_scenario.sla_observation("memory/adaptive")
        assert recycled.downtime_seconds > 0.0
        assert recycled.exposure_seconds == 0.0
        assert recycled.failed_requests == 0

    def test_predictor_rows_present_for_each_workload(self, adaptive_scenario):
        rows = adaptive_scenario.tables()["predictor"].rows
        workloads = {row["workload"] for row in rows}
        assert workloads == {"memory", "threads", "connections"}
        for row in rows:
            assert row["predictions"] > 0

    def test_adaptive_report_renders(self, adaptive_scenario):
        from repro.experiments.reporting import comparison_report

        text = comparison_report(adaptive_scenario)
        assert "sla_cost" in text
        assert "verdicts:" in text
        assert "True" in text

    def test_deterministic_per_seed(self, adaptive_scenario):
        from repro.experiments.scenarios import fig_adaptive

        repeat = fig_adaptive(duration_scale=DS, seed=42, scale=TINY).run()
        assert repeat.summary_rows() == adaptive_scenario.summary_rows()


class TestAnalyticCrossCheck:
    """The M/M/c + leak-model cross-check of the no-action runs (ISSUE 5)."""

    def test_rows_cover_every_workload(self, adaptive_scenario):
        rows = {row["workload"]: row for row in adaptive_scenario.tables()["analytic"].rows}
        assert set(rows) == {"memory", "threads", "connections"}

    def test_analytic_tte_within_stated_tolerance_of_realized(self, adaptive_scenario):
        # The acceptance tolerance (a factor of TTE_TOLERANCE_FACTOR, stated
        # in repro.slo.analytic) must hold for every workload at the pinned
        # seed/scale: the fluid-limit prediction from the configuration
        # alone lands in the band around the realized exhaustion time.
        for row in adaptive_scenario.tables()["analytic"].rows:
            assert row["realized_tte_s"] is not None, row["workload"]
            assert row["analytic_tte_s"] is not None, row["workload"]
            assert row["tte_ok"] is True, row

    def test_predicted_failures_track_realized(self, adaptive_scenario):
        # Order-of-magnitude agreement on the failure side too: the model
        # knows which requests an exhausted resource fails.
        for row in adaptive_scenario.tables()["analytic"].rows:
            assert row["realized_failed"] > 0, row["workload"]
            assert (
                0.5 * row["realized_failed"]
                <= row["analytic_failed"]
                <= 2.0 * row["realized_failed"]
            ), row

    def test_queueing_regime_is_uncongested(self, adaptive_scenario):
        # The M/M/c side of the check: at the configured arrival/service
        # rates the server is deep in the stable regime, so the model
        # attributes the no-action errors to exhaustion, not queueing.
        for row in adaptive_scenario.tables()["analytic"].rows:
            assert row["mmc_utilization"] < 0.5
            assert row["mmc_wait_probability"] < 0.01

    def test_realized_exhaustion_matches_monitored_series(self, adaptive_scenario):
        from repro.experiments.scenarios import watched_series
        from repro.slo.analytic import realized_exhaustion_time

        no_action = adaptive_scenario.result("threads/no-action")
        series, capacity = watched_series(no_action)
        assert series is no_action.framework.manager.map.series("<jvm>", "threads_total")
        assert capacity == float(no_action.config.server_config.thread_capacity)
        rows = {row["workload"]: row for row in adaptive_scenario.tables()["analytic"].rows}
        # The threads model reads exhaustion at the bound itself (fraction 1).
        assert rows["threads"]["realized_tte_s"] == round(
            realized_exhaustion_time(series, capacity, 1.0), 1
        )

    def test_report_includes_cross_check_table(self, adaptive_scenario):
        from repro.experiments.reporting import comparison_report

        text = comparison_report(adaptive_scenario)
        assert "analytic M/M/c cross-check" in text
        assert "analytic_tte_s" in text
        assert "tte_ok" in text
