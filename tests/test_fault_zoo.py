"""Tests for the fault zoo and the robustness scenarios built on it.

Unit tests drive each new fault through a tiny deployment; the scenario
tests pin the PR's headline claims at ``duration_scale=0.05`` / tiny /
seed 42: backoff+breaker strictly beats naive immediate retries on SLA
cost, deterministically per seed, and the cascade-aware attribution blames
the faulty component rather than its victim.
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import accounting_sanity_check, comparison_report
from repro.experiments.scenarios import (
    COMPONENT_A,
    COMPONENT_B,
    ZOO_FAULT_KINDS,
    fig_retry_storm,
    fig_zoo,
    zoo_attribution,
    zoo_fault_spec,
)
from repro.faults.cache_stampede import CacheStampedeFault
from repro.faults.correlated_cascade import MB, CorrelatedCascadeFault
from repro.faults.gc_pause_storm import GcPauseStormFault
from repro.faults.injector import FaultInjector, FaultSpec
from repro.faults.lock_convoy import LockConvoyFault
from repro.faults.slow_downstream import SlowDownstreamFault
from repro.tpcw.application import TpcwApplication
from repro.tpcw.population import PopulationScale

TINY = PopulationScale.tiny()


class TestGcPauseStorm:
    def test_pauses_hit_requests_and_escalate(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        fault = GcPauseStormFault(pause_seconds=0.1, growth=0.5, period_n=0)
        servlet.attach_fault(fault)
        first = app.visit("home")
        second = app.visit("home")
        assert first.gc_pause_seconds == pytest.approx(0.1)
        # Storm 2 is (1 + growth) times storm 1: the mode escalates.
        assert second.gc_pause_seconds == pytest.approx(0.15)
        assert fault.injected_pause_seconds == pytest.approx(0.25)
        # The collector's work lands on the component's CPU account.
        assert tiny_deployment.runtime.cpu_time("home") >= 0.25

    def test_pause_capped(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        fault = GcPauseStormFault(
            pause_seconds=0.1, growth=1.0, max_pause_seconds=0.25, period_n=0
        )
        servlet.attach_fault(fault)
        for _ in range(5):
            outcome = app.visit("home")
        assert outcome.gc_pause_seconds == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            GcPauseStormFault(pause_seconds=0.0)
        with pytest.raises(ValueError):
            GcPauseStormFault(pause_seconds=1.0, max_pause_seconds=0.5)


class TestLockConvoy:
    def test_concurrent_visits_queue_behind_the_monitor(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        fault = LockConvoyFault(hold_seconds=0.2, growth=0.0, period_n=0)
        servlet.attach_fault(fault)
        # Two requests arriving at the same instant serialize: the second
        # waits for the first holder's release.
        first = app.visit("home", at_time=0.0)
        second = app.visit("home", at_time=0.0)
        assert first.fault_latency_seconds == pytest.approx(0.2)
        assert second.fault_latency_seconds == pytest.approx(0.4)  # wait + hold
        assert fault.contended
        assert fault.total_wait_seconds == pytest.approx(0.2)

    def test_no_queueing_when_arrivals_are_spread(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        fault = LockConvoyFault(hold_seconds=0.05, growth=0.0, period_n=0)
        servlet.attach_fault(fault)
        app.visit("home", at_time=0.0)
        late = app.visit("home", at_time=100.0)
        assert late.fault_latency_seconds == pytest.approx(0.05)
        assert fault.total_wait_seconds == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LockConvoyFault(hold_seconds=0.0)
        with pytest.raises(ValueError):
            LockConvoyFault(hold_seconds=1.0, max_hold_seconds=0.1)


class TestSlowDownstream:
    def test_extra_latency_deepens_per_trigger(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        fault = SlowDownstreamFault(latency_step_seconds=0.05, period_n=0)
        servlet.attach_fault(fault)
        latencies = [app.visit("home").fault_latency_seconds for _ in range(3)]
        assert latencies == pytest.approx([0.05, 0.10, 0.15])
        assert fault.degradation_level == 3
        # No shared spillover by default: other components stay fast.
        assert tiny_deployment.datasource.latency_multiplier == pytest.approx(1.0)

    def test_extra_latency_capped(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        fault = SlowDownstreamFault(
            latency_step_seconds=0.1, max_extra_seconds=0.25, period_n=0
        )
        servlet.attach_fault(fault)
        for _ in range(5):
            outcome = app.visit("home")
        assert outcome.fault_latency_seconds == pytest.approx(0.25)

    def test_optional_shared_spillover(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        fault = SlowDownstreamFault(
            latency_step_seconds=0.01,
            shared_multiplier_step=0.5,
            max_shared_multiplier=1.8,
            period_n=0,
        )
        servlet.attach_fault(fault)
        app.visit("home")
        assert tiny_deployment.datasource.latency_multiplier == pytest.approx(1.5)
        app.visit("home")
        assert tiny_deployment.datasource.latency_multiplier == pytest.approx(1.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowDownstreamFault(latency_step_seconds=0.0, shared_multiplier_step=0.0)
        with pytest.raises(ValueError):
            SlowDownstreamFault(latency_step_seconds=-0.1)
        with pytest.raises(ValueError):
            SlowDownstreamFault(max_extra_seconds=0.0)


class TestCacheStampede:
    def test_dogpile_charges_exactly_dogpile_size_visits(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        # streams=None -> deterministic countdown: fires on visit 6 (N//2=5
        # quiet visits first), then again on visit 12.
        fault = CacheStampedeFault(
            dogpile_size=3, recompute_seconds=0.08, growth=0.0, period_n=10
        )
        servlet.attach_fault(fault)
        latencies = [app.visit("home").fault_latency_seconds for _ in range(11)]
        charged = [i for i, latency in enumerate(latencies) if latency > 0]
        assert charged == [5, 6, 7]  # the trigger visit and the next two
        assert fault.stampede_count == 1
        assert fault.total_recompute_seconds == pytest.approx(3 * 0.08)

    def test_recompute_cost_escalates_per_stampede(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        fault = CacheStampedeFault(
            dogpile_size=1, recompute_seconds=0.1, growth=0.5, period_n=0
        )
        servlet.attach_fault(fault)
        first = app.visit("home").fault_latency_seconds
        second = app.visit("home").fault_latency_seconds
        assert first == pytest.approx(0.1)
        assert second == pytest.approx(0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheStampedeFault(dogpile_size=0)
        with pytest.raises(ValueError):
            CacheStampedeFault(recompute_seconds=0.0)
        with pytest.raises(ValueError):
            CacheStampedeFault(recompute_seconds=1.0, max_recompute_seconds=0.1)


class TestCorrelatedCascade:
    def test_victim_pays_for_the_sources_leak(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        source = tiny_deployment.servlet("product_detail")
        fault = CorrelatedCascadeFault(
            victim="home", leak_bytes=1 * MB, coupling_seconds_per_mb=0.5,
            max_victim_delay_seconds=2.0, period_n=0,
        )
        source.attach_fault(fault)
        app.visit("product_detail")  # leaks 1 MB on A
        victim_outcome = app.visit("home")
        assert victim_outcome.fault_latency_seconds == pytest.approx(0.5)
        # The resource growth lives on A, the latency on B.
        assert fault.leaked_bytes_total == 1 * MB
        for _ in range(5):
            app.visit("product_detail")
        assert app.visit("home").fault_latency_seconds == pytest.approx(2.0)  # capped

    def test_victim_must_differ_from_source(self, tiny_deployment):
        TpcwApplication(tiny_deployment)
        servlet = tiny_deployment.servlet("home")
        fault = CorrelatedCascadeFault(victim="home", period_n=0)
        with pytest.raises(ValueError):
            fault._ensure_shadow(servlet)

    def test_unknown_victim_rejected_with_known_components(self, tiny_deployment):
        servlet = tiny_deployment.servlet("home")
        fault = CorrelatedCascadeFault(victim="warehouse", period_n=0)
        with pytest.raises(ValueError) as excinfo:
            fault._ensure_shadow(servlet)
        assert "warehouse" in str(excinfo.value)
        assert "product_detail" in str(excinfo.value)

    def test_injector_removal_detaches_the_victim_shadow(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        injector = FaultInjector(tiny_deployment)
        injector.inject_spec(
            FaultSpec(
                component="product_detail",
                kind="correlated-cascade",
                params={
                    "victim": "home",
                    "leak_bytes": 1 * MB,
                    "coupling_seconds_per_mb": 0.5,
                    "period_n": 0,
                },
            )
        )
        app.visit("product_detail")
        assert app.visit("home").fault_latency_seconds > 0
        injector.remove_all()
        assert app.visit("home").fault_latency_seconds == 0.0


class TestZooFaultSpec:
    def test_builds_every_kind_on_component_a(self):
        for kind in ZOO_FAULT_KINDS:
            spec = zoo_fault_spec(kind, period_n=7)
            assert spec.component == COMPONENT_A
            assert spec.kind == kind
            assert spec.params["period_n"] == 7
        cascade = zoo_fault_spec("correlated-cascade")
        assert cascade.params["victim"] == COMPONENT_B

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            zoo_fault_spec("bit-rot")


# --------------------------------------------------------------------------- #
# Scenario claims (duration_scale = 0.05, tiny population, seed 42)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def storm():
    return fig_retry_storm(duration_scale=0.05, seed=42, scale=TINY, ebs=30).run()


class TestRetryStormScenario:
    def test_backoff_plus_breaker_strictly_cheaper(self, storm):
        naive, resilient = storm.sla_cost("naive"), storm.sla_cost("resilient")
        assert naive > resilient
        assert storm.holds()

    def test_breaker_converts_timeouts_into_refusals(self, storm):
        naive = storm.results["naive"]
        resilient = storm.results["resilient"]
        assert resilient.client_timeouts < naive.client_timeouts
        assert resilient.accounting["breaker_refusals"] > 0
        assert naive.accounting["breaker_refusals"] == 0

    def test_accounting_invariant_both_modes(self, storm):
        for result in storm.results.values():
            accounting_sanity_check(result)

    def test_report_renders_and_claim_holds(self, storm):
        report = comparison_report(storm)
        assert "resilient SLA cost < naive SLA cost" in report
        assert "holds" in report

    def test_deterministic_per_seed(self):
        first = fig_retry_storm(duration_scale=0.02, seed=42, scale=TINY, ebs=25).run()
        second = fig_retry_storm(duration_scale=0.02, seed=42, scale=TINY, ebs=25).run()
        assert first.summary_rows() == second.summary_rows()
        for mode in ("naive", "resilient"):
            assert first.sla_cost(mode) == pytest.approx(second.sla_cost(mode))


class TestZooScenario:
    @pytest.fixture(scope="class")
    def zoo(self):
        # One latency-mode fault plus the attribution stress test; the full
        # five-kind sweep runs via `repro zoo` / the ablation matrix.
        return fig_zoo(
            duration_scale=0.05,
            seed=42,
            scale=TINY,
            ebs=30,
            kinds=["slow-downstream", "correlated-cascade"],
        ).run()

    def test_attribution_blames_the_faulty_component(self, zoo):
        for row in zoo.tables()["verdicts"].rows:
            assert row["holds"], row
        assert zoo_attribution(zoo.result("slow-downstream")).top().component == COMPONENT_A

    def test_cascade_blames_source_not_victim(self, zoo):
        report = zoo_attribution(zoo.result("correlated-cascade"))
        assert report.top().component == COMPONENT_A
        ranked = report.ranking()
        assert COMPONENT_B in ranked  # the victim is visible, just not first
        assert ranked.index(COMPONENT_B) > 0

    def test_report_renders(self, zoo):
        report = comparison_report(zoo)
        assert "slow-downstream" in report
        assert "correlated-cascade" in report
