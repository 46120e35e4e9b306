"""Tests for the mixed-fault scenario (concurrent heap + connection leaks).

The attribution claim under test: with component A leaking heap and
component B leaking pooled connections *in the same run*, the recycling
policies (proactive **and** adaptive, ISSUE 5) watching both resource
channels must recycle A for the heap (via the root-cause analysis) and B
for the connections (via pool-ownership accounting) — the two channels'
suspects must disagree — and doing so must eliminate the error spike the
no-action run pays.

The ``dual_leak`` variant moves the connection leak into component A, so
one component leaks two resources at once: both channels must now converge
on A independently, and each recycle of A must reclaim heap *and*
connections.
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import (
    COMPONENT_A,
    COMPONENT_B,
    fig_mixed,
    injected_kinds,
    recycles,
)
from repro.tpcw.population import PopulationScale


@pytest.fixture(scope="module")
def scenario():
    return fig_mixed(duration_scale=0.05, seed=42, scale=PopulationScale.tiny()).run()


@pytest.fixture(scope="module")
def dual_scenario():
    return fig_mixed(
        duration_scale=0.05, seed=42, scale=PopulationScale.tiny(), dual_leak=True
    ).run()


class TestMixedFaults:
    def test_no_action_pays_with_errors(self, scenario):
        no_action = scenario.result("no-action")
        assert no_action.error_count > 0

    def test_proactive_recycles_the_right_component_per_resource(self, scenario):
        counts = recycles(scenario.result("proactive-microreboot"))
        # Heap channel blames the memory leaker...
        assert set(counts.get("heap", {})) == {COMPONENT_A}
        # ...the connection channel independently blames the connection leaker.
        assert set(counts.get("connections", {})) == {COMPONENT_B}

    def test_proactive_eliminates_error_spike(self, scenario):
        proactive = scenario.result("proactive-microreboot")
        assert proactive.error_count == 0
        assert scenario.sla_observation("proactive-microreboot").exposure_seconds == 0.0

    def test_recycling_actually_reclaims_both_resources(self, scenario):
        rejuvenation = scenario.result("proactive-microreboot").rejuvenation
        assert rejuvenation is not None
        assert rejuvenation.reclaimed_bytes > 0
        assert rejuvenation.reclaimed_connections > 0

    def test_deterministic_per_seed(self, scenario):
        again = fig_mixed(duration_scale=0.05, seed=42, scale=PopulationScale.tiny()).run()
        for policy, result in scenario.results.items():
            other = again.result(policy)
            assert other.completed_requests == result.completed_requests
            assert other.error_count == result.error_count
            assert recycles(result) == recycles(other)

    def test_report_renders(self, scenario):
        text = comparison_report(scenario)
        assert "Mixed faults" in text
        assert COMPONENT_A in text
        assert COMPONENT_B in text
        assert "executed actions:" in text


class TestMixedAdaptive:
    """The adaptive policy scored on mixed faults (ISSUE 5 / ROADMAP gap)."""

    def test_adaptive_is_scored(self, scenario):
        assert "adaptive" in scenario.results
        assert {"no-action", "proactive-microreboot", "adaptive"} <= set(
            scenario.results
        )

    def test_adaptive_recycles_the_right_component_per_resource(self, scenario):
        counts = recycles(scenario.result("adaptive"))
        assert set(counts.get("heap", {})) == {COMPONENT_A}
        assert set(counts.get("connections", {})) == {COMPONENT_B}

    def test_adaptive_eliminates_error_spike(self, scenario):
        adaptive = scenario.result("adaptive")
        assert adaptive.error_count == 0
        assert scenario.sla_observation("adaptive").exposure_seconds == 0.0

    def test_adaptive_maintains_separate_horizons_per_resource(self, scenario):
        policy = scenario.result("adaptive").policy
        assert sorted(policy.calibrated_resources()) == ["connections", "heap"]
        assert policy.predictor("heap") is not policy.predictor("connections")


class TestDualLeak:
    """One component leaking heap AND connections at once (ISSUE 5)."""

    def test_injection_plan_targets_one_component(self, dual_scenario):
        faults = dual_scenario.result("no-action").config.faults
        assert injected_kinds(faults) == {COMPONENT_A: "memory-leak+connection-leak"}

    def test_no_action_pays_with_errors(self, dual_scenario):
        assert dual_scenario.result("no-action").error_count > 0

    @pytest.mark.parametrize("policy", ["proactive-microreboot", "adaptive"])
    def test_every_recycle_targets_the_dual_leaker(self, dual_scenario, policy):
        counts = recycles(dual_scenario.result(policy))
        assert counts, "the recycling policy must act"
        # Whichever channel trends to exhaustion first, the blamed component
        # is always A — heap via the strategy analysis, connections via pool
        # ownership.  (A micro-reboot recycles the *whole* component, so one
        # channel's recycle can legitimately reset the other's trend too.)
        for resource, by_component in counts.items():
            assert set(by_component) == {COMPONENT_A}, resource

    def test_both_channels_observed_attributing_a(self, dual_scenario):
        # Across the recycling policies, both channels fire at least once and
        # both independently converge on A (the adaptive run's per-resource
        # horizons make it recycle on heap *and* connection predictions).
        resources = set()
        for policy in ("proactive-microreboot", "adaptive"):
            resources |= set(recycles(dual_scenario.result(policy)))
        assert {"heap", "connections"} <= resources

    @pytest.mark.parametrize("policy", ["proactive-microreboot", "adaptive"])
    def test_recycling_reclaims_both_resources_and_clears_errors(
        self, dual_scenario, policy
    ):
        result = dual_scenario.result(policy)
        assert result.error_count == 0
        rejuvenation = result.rejuvenation
        assert rejuvenation is not None
        assert rejuvenation.reclaimed_bytes > 0
        assert rejuvenation.reclaimed_connections > 0

    def test_deterministic_per_seed(self, dual_scenario):
        again = fig_mixed(
            duration_scale=0.05, seed=42, scale=PopulationScale.tiny(), dual_leak=True
        ).run()
        for policy, result in dual_scenario.results.items():
            other = again.result(policy)
            assert other.completed_requests == result.completed_requests
            assert other.error_count == result.error_count
            assert recycles(result) == recycles(other)

    def test_report_renders_dual_plan(self, dual_scenario):
        text = comparison_report(dual_scenario)
        assert "memory-leak+connection-leak" in text
