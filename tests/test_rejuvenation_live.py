"""Tests for the live rejuvenation subsystem (mid-run restarts & micro-reboots).

Covers the ISSUE 2 acceptance semantics:

* requests hitting an outage window are refused (and counted), never
  silently dropped, and the browsers park and resume afterwards;
* a same-seed run with a no-op rejuvenation controller is value-identical
  to a run without any controller;
* a micro-reboot reclaims only the guilty component's heap bytes;
* the three-policy scenario reports micro-reboot downtime well below
  full-restart downtime with comparable heap exposure, deterministically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rejuvenation import (
    FULL_RESTART,
    MICRO_REBOOT,
    NoActionPolicy,
    RejuvenationAction,
)
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.rejuvenation import RejuvenationController
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import COMPONENT_A, fig_rejuvenation
from repro.sim.engine import SimulationEngine
from repro.tpcw.application import build_deployment
from repro.tpcw.population import PopulationScale
from repro.tpcw.workload import WorkloadGenerator, WorkloadPhase

TINY = PopulationScale.tiny()


def _build_stack(seed: int = 7, monitored: bool = True):
    """Engine + tiny deployment (+ framework) wired for direct driving."""
    engine = SimulationEngine()
    deployment = build_deployment(scale=TINY, seed=seed, clock=engine.clock)
    framework = None
    if monitored:
        framework = MonitoringFramework(
            deployment, engine=engine, config=FrameworkConfig(snapshot_interval=10.0)
        )
        framework.install()
    return engine, deployment, framework


class TestOutageSemantics:
    def test_requests_during_outage_are_refused_not_dropped(self):
        engine, deployment, _ = _build_stack(monitored=False)
        server = deployment.server
        server.begin_outage(30.0, 45.0)
        generator = WorkloadGenerator(engine, deployment)
        outcomes = []
        generator.on_request = lambda interaction, outcome: outcomes.append(outcome)
        generator.schedule_phases([WorkloadPhase(0.0, 10)])
        generator.run(120.0)

        refused = [o for o in outcomes if o.refused_by_outage]
        assert refused, "no request hit the outage window"
        assert server.refused_during_outage == len(refused)
        for outcome in refused:
            assert 30.0 <= outcome.arrival_time < 45.0
            assert outcome.rejected
            assert outcome.retry_after == pytest.approx(45.0)
        # Every issued request was recorded: nothing silently dropped — but
        # refusals are paid downtime, not completions or errors, so they
        # must not inflate throughput or the error column.
        assert generator.refused_requests == len(refused)
        assert generator.completed_requests == len(outcomes) - len(refused)
        assert generator.error_count == 0

    def test_browsers_park_and_resume_after_outage(self):
        engine, deployment, _ = _build_stack(monitored=False)
        deployment.server.begin_outage(30.0, 45.0)
        generator = WorkloadGenerator(engine, deployment)
        completions_after = []
        generator.on_request = lambda interaction, outcome: (
            completions_after.append(outcome)
            if outcome.arrival_time >= 45.0 and not outcome.rejected
            else None
        )
        generator.schedule_phases([WorkloadPhase(0.0, 10)])
        generator.run(120.0)
        # The population survived the outage and kept serving afterwards.
        assert len(completions_after) > 50
        # No browser died: all 10 are either active or parked for a next segment.
        alive = sum(
            1 for b in generator._browsers if b.active or b.parked_time is not None
        )
        assert alive == 10

    def test_component_outage_only_refuses_that_component(self):
        engine, deployment, _ = _build_stack(monitored=False)
        server = deployment.server
        server.begin_outage(0.0, 100.0, component="home")
        from repro.container.servlet import HttpServletRequest

        refused = server.handle(HttpServletRequest(uri=deployment.url_for("home")), 10.0)
        served = server.handle(
            HttpServletRequest(uri=deployment.url_for("product_detail")), 10.0
        )
        assert refused.refused_by_outage and refused.rejected
        assert not served.rejected and served.response.status == 200

    def test_outage_windows_expire(self):
        engine, deployment, _ = _build_stack(monitored=False)
        server = deployment.server
        server.begin_outage(0.0, 10.0)
        assert server.outage_for(5.0) is not None
        assert server.outage_for(10.0) is None
        from repro.container.servlet import HttpServletRequest

        outcome = server.handle(HttpServletRequest(uri=deployment.url_for("home")), 11.0)
        assert not outcome.rejected

    def test_outage_validation(self):
        engine, deployment, _ = _build_stack(monitored=False)
        with pytest.raises(ValueError):
            deployment.server.begin_outage(10.0, 10.0)


class TestRejuvenationActions:
    def _leak(self, deployment, component: str, bytes_per_object: int, count: int):
        servlet = deployment.servlet(component)
        for _ in range(count):
            leaked = deployment.runtime.allocate(
                "LeakedBuffer", bytes_per_object, owner=component
            )
            servlet.retain_in_component_state(leaked)

    def test_micro_reboot_reclaims_only_the_guilty_component(self):
        engine, deployment, framework = _build_stack()
        controller = RejuvenationController(
            deployment, framework.manager, engine, NoActionPolicy()
        )
        self._leak(deployment, "home", 10_000, 20)
        self._leak(deployment, "product_detail", 10_000, 30)
        owned_before = deployment.runtime.heap.used_by_owner()

        event = controller.execute(
            RejuvenationAction(kind=MICRO_REBOOT, downtime_seconds=1.0, component="home"),
            at_time=0.0,
        )
        owned_after = deployment.runtime.heap.used_by_owner()
        assert event.reclaimed_bytes == 200_000
        assert owned_after["home"] == owned_before["home"] - 200_000
        # The guilty component keeps its instance root (it is a GC root).
        assert owned_after["home"] == deployment.servlet("home").instance_state_bytes
        # Every other owner is untouched.
        assert owned_after["product_detail"] == owned_before["product_detail"]
        assert controller.total_downtime_seconds == 1.0

    def test_full_restart_drops_all_component_state_and_sessions(self):
        engine, deployment, framework = _build_stack()
        controller = RejuvenationController(
            deployment, framework.manager, engine, NoActionPolicy()
        )
        self._leak(deployment, "home", 10_000, 20)
        self._leak(deployment, "product_detail", 10_000, 30)
        deployment.server.sessions.new_session(0.0)
        deployment.server.sessions.new_session(0.0)
        assert deployment.server.sessions.active_count == 2

        event = controller.execute(
            RejuvenationAction(kind=FULL_RESTART, downtime_seconds=30.0), at_time=5.0
        )
        owned = deployment.runtime.heap.used_by_owner()
        assert owned["home"] == deployment.servlet("home").instance_state_bytes
        assert owned["product_detail"] == deployment.servlet(
            "product_detail"
        ).instance_state_bytes
        assert deployment.server.sessions.active_count == 0
        assert event.reclaimed_bytes >= 500_000
        # The outage window is installed for the configured downtime.
        assert deployment.server.outage_for(20.0) is not None
        assert deployment.server.outage_for(40.0) is None

    def test_micro_reboot_requires_a_component(self):
        engine, deployment, framework = _build_stack()
        controller = RejuvenationController(
            deployment, framework.manager, engine, NoActionPolicy()
        )
        with pytest.raises(ValueError):
            controller.execute(
                RejuvenationAction(kind=MICRO_REBOOT, downtime_seconds=1.0), at_time=0.0
            )


class TestNoopControllerIdentity:
    def test_noop_policy_run_is_value_identical_to_no_controller(self):
        def run(policy):
            return run_experiment(
                ExperimentConfig(
                    name="identity",
                    seed=11,
                    scale=TINY,
                    constant_ebs=25,
                    duration=90.0,
                    snapshot_interval=10.0,
                    rejuvenation=policy,
                )
            )

        without = run(None)
        with_noop = run(NoActionPolicy())

        assert with_noop.completed_requests == without.completed_requests
        assert with_noop.error_count == without.error_count
        assert with_noop.rejected_requests == without.rejected_requests
        assert with_noop.interaction_counts == without.interaction_counts
        assert with_noop.mean_response_time == without.mean_response_time
        assert np.array_equal(with_noop.heap_series.values, without.heap_series.values)
        assert np.array_equal(with_noop.throughput.values, without.throughput.values)
        for component, series in without.component_series.items():
            assert np.array_equal(
                with_noop.component_series[component].values, series.values
            )
        assert with_noop.rejuvenation is not None
        assert with_noop.rejuvenation.actions == 0
        assert with_noop.rejuvenation.total_downtime_seconds == 0.0
        assert without.rejuvenation is None

    def test_rejuvenation_requires_monitoring(self):
        with pytest.raises(ValueError, match="monitored"):
            run_experiment(
                ExperimentConfig(
                    name="bad",
                    scale=TINY,
                    monitored=False,
                    duration=10.0,
                    rejuvenation=NoActionPolicy(),
                )
            )


class TestRejuvenationScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return fig_rejuvenation(duration_scale=0.02, seed=42, scale=TINY).run()

    def test_microreboot_downtime_beats_full_restart(self, scenario):
        micro = scenario.sla_observation("proactive-microreboot").downtime_seconds
        full = scenario.sla_observation("time-based").downtime_seconds
        assert scenario.results["time-based"].rejuvenation.actions >= 1
        assert scenario.results["proactive-microreboot"].rejuvenation.actions >= 1
        assert micro < full

    def test_rejuvenation_removes_heap_exposure(self, scenario):
        def exposure(policy):
            return scenario.sla_observation(policy).exposure_seconds

        duration = scenario.result("no-action").config.duration
        assert exposure("no-action") > 0.0
        assert exposure("time-based") <= exposure("no-action")
        assert exposure("proactive-microreboot") <= exposure("no-action")
        # Micro-reboots protect the heap as well as full restarts do.
        assert exposure("proactive-microreboot") == pytest.approx(
            exposure("time-based"), abs=duration * 0.1
        )

    def test_microreboots_target_the_leaking_component(self, scenario):
        events = scenario.results["proactive-microreboot"].rejuvenation.events
        assert events
        assert all(event.kind == MICRO_REBOOT for event in events)
        assert all(event.component == COMPONENT_A for event in events)
        assert all(event.reclaimed_bytes > 0 for event in events)

    def test_full_restarts_reclaim_whole_server_state(self, scenario):
        events = scenario.results["time-based"].rejuvenation.events
        assert events
        assert all(event.kind == FULL_RESTART for event in events)
        assert all(event.component is None for event in events)

    def test_scenario_is_deterministic(self, scenario):
        again = fig_rejuvenation(duration_scale=0.02, seed=42, scale=TINY).run()
        assert again.summary_rows() == scenario.summary_rows()

    def test_report_renders(self, scenario):
        text = comparison_report(scenario)
        assert "per-policy availability" in text
        assert "no-action" in text
        assert "proactive-microreboot" in text
        assert "executed actions" in text
