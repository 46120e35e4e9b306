"""Tests for the sharded-fleet cluster layer (ISSUE 7).

Covers the acceptance semantics of the cluster abstraction:

* **shards=1 equivalence** — the refactored runner routes every experiment
  through :class:`~repro.experiments.cluster.SimulatedCluster`, and a
  one-shard cluster must be *bit-identical* to the pre-cluster harness.
  The golden values below were captured from the pre-refactor code at the
  same (scenario, duration_scale, seed, population); exact equality —
  including float response times and SLA costs — is the contract.
* **ledger conservation** — under sticky and round-robin balancing, with
  outage-driven failovers in the mix, every issued request lands on exactly
  one shard and is completed or rejected there
  (``sum_i(completed_i + rejected_i) == issued``).
* **rolling capacity floor** — rolling fleet rejuvenation recycles each
  shard exactly once, one at a time, keeping aggregate capacity at or above
  the ``(N-1)/N`` SLA floor, while simultaneous mode drops to zero.
"""

from __future__ import annotations

import pytest

from repro.experiments.cluster import (
    BALANCER_POLICIES,
    SHARD_SEED_STRIDE,
    LoadBalancer,
    build_cluster,
)
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.scenarios import (
    below_floor_seconds,
    fig4_single_leak,
    fig_fleet,
    fig_rejuvenation,
    min_capacity_fraction,
)
from repro.sim.engine import SimulationEngine
from repro.tpcw.population import PopulationScale
from repro.tpcw.workload import WorkloadGenerator, WorkloadPhase

TINY = PopulationScale.tiny()


# --------------------------------------------------------------------------- #
# shards=1 bit-identical equivalence (golden values from the pre-cluster code)
# --------------------------------------------------------------------------- #
#: fig4_single_leak(duration_scale=0.05, seed=42, scale=tiny) before the
#: cluster refactor.  Floats included deliberately: the claim is *bit*
#: identity, not statistical similarity.
FIG4_GOLDEN = {
    "completed": 2565,
    "errors": 0,
    "issued": 2565,
    "mean_rt": 0.16165932249106596,
    "heap_last": 116739104.0,
    "growth_A": 1126400.0,
    "root_top": "product_detail",
    "root_resp": 1.0,
    "overhead_seconds": 25.650000000003896,
    "monitoring_samples": 10260,
}

#: fig_rejuvenation(duration_scale=0.05, seed=42, scale=tiny) before the
#: refactor: (completed, errors, issued, mean_rt@9dp, actions, downtime,
#: refused, sla_cost@6dp) per policy.
REJUVENATION_GOLDEN = {
    "no-action": (2566, 14, 2566, 0.164621571, 0, 0, 0, 9282.333333),
    "time-based": (2383, 0, 2509, 0.160078636, 2, 12.0, 126, 7923.5),
    "proactive-microreboot": (2567, 0, 2567, 0.158464584, 2, 0.5, 0, 213.833333),
}


class TestSingleShardEquivalence:
    def test_fig4_bit_identical_to_pre_cluster_harness(self):
        scenario = fig4_single_leak(duration_scale=0.05, seed=42, scale=TINY).run()
        (result,) = scenario.results.values()
        got = {
            "completed": result.completed_requests,
            "errors": result.error_count,
            "issued": result.issued_requests,
            "mean_rt": result.mean_response_time,
            "heap_last": float(result.heap_series.values[-1]),
            "growth_A": result.component_growth()["product_detail"],
            "root_top": result.root_cause.top().component,
            "root_resp": result.root_cause.top().responsibility,
            "overhead_seconds": result.overhead_seconds,
            "monitoring_samples": result.monitoring_samples,
        }
        assert got == FIG4_GOLDEN

    def test_fig_rejuvenation_bit_identical_to_pre_cluster_harness(self):
        scenario = fig_rejuvenation(duration_scale=0.05, seed=42, scale=TINY).run()
        assert set(scenario.results) == set(REJUVENATION_GOLDEN)
        for name, result in scenario.results.items():
            report = result.rejuvenation
            got = (
                result.completed_requests,
                result.error_count,
                result.issued_requests,
                round(result.mean_response_time, 9),
                report.actions if report else 0,
                report.total_downtime_seconds if report else 0,
                report.refused_requests if report else 0,
                round(scenario.sla_cost(name), 6),
            )
            assert got == REJUVENATION_GOLDEN[name], name

    def test_single_shard_run_has_no_fleet_report(self):
        result = run_experiment(
            ExperimentConfig(
                name="one-shard",
                seed=5,
                scale=TINY,
                constant_ebs=5,
                duration=30.0,
                monitored=False,
            )
        )
        assert result.fleet is None
        assert result.cluster is not None
        assert len(result.cluster.shards) == 1


# --------------------------------------------------------------------------- #
# Balancer routing + ledger conservation
# --------------------------------------------------------------------------- #
def _fleet_config(policy: str, shards: int = 3, **overrides) -> ExperimentConfig:
    defaults = dict(
        name=f"ledger-{policy}",
        seed=11,
        scale=TINY,
        constant_ebs=12,
        duration=90.0,
        monitored=False,
        shards=shards,
        balancer_policy=policy,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestLedgerConservation:
    @pytest.mark.parametrize("policy", ["sticky", "round-robin", "least-occupancy"])
    def test_every_issued_request_is_served_by_exactly_one_shard(self, policy):
        result = run_experiment(_fleet_config(policy))
        fleet = result.fleet
        assert fleet is not None
        ledger = fleet.ledger
        served = sum(
            int(row["completed"]) + int(row["rejected"]) for row in fleet.per_shard
        )
        assert served == ledger["issued"] == ledger["served"]
        assert ledger["issued"] > 0
        # Every shard actually took load (round-robin exactly so, sticky and
        # least-occupancy by the rotation cursor over first contacts).
        assert all(count > 0 for count in fleet.balancer["routed"])
        assert sum(fleet.balancer["routed"]) == ledger["issued"]

    @pytest.mark.parametrize("policy", ["sticky", "round-robin"])
    def test_ledger_holds_across_outage_failover(self, policy):
        """Mid-run shard outages re-route requests without losing any."""
        engine = SimulationEngine()
        config = _fleet_config(policy, shards=3, seed=23)
        cluster = build_cluster(config, engine)
        # Take shard 1 down mid-run: its sticky sessions must fail over,
        # the rotation must skip it, and no request may vanish.
        cluster.shards[1].deployment.server.begin_outage(30.0, 50.0)
        generator = WorkloadGenerator(engine, cluster)
        generator.schedule_phases([WorkloadPhase(0.0, 12)])
        generator.run(90.0)

        generator.check_accounting()
        ledger = cluster.ledger_check(generator)
        assert ledger["served"] == generator.issued_requests
        # The unhealthy window steered load away from shard 1 without losing
        # any request; all shards still served outside the window.
        summaries = [shard.summary() for shard in cluster.shards]
        assert all(int(row["completed"]) > 0 for row in summaries)

    def test_sticky_failover_rebinds_to_a_healthy_shard(self):
        """A bound session whose shard goes down is re-routed, and counted."""
        engine = SimulationEngine()
        cluster = build_cluster(_fleet_config("sticky", shards=3), engine)

        class _Request:
            uri = "/tpcw/home"
            session_id = "S1-00000001"

        request = _Request()
        cluster.balancer.observe(request, cluster.shards[1])
        assert cluster.balancer.route(request, 10.0) is cluster.shards[1]
        assert cluster.balancer.failovers == 0

        cluster.shards[1].deployment.server.begin_outage(20.0, 40.0)
        rerouted = cluster.balancer.route(request, 25.0)
        assert rerouted is not cluster.shards[1]
        assert cluster.balancer.failovers == 1
        # After the window the (new) binding keeps routing wherever the
        # failover landed — `observe` rebinds on the served shard.
        cluster.balancer.observe(request, rerouted)
        assert cluster.balancer.route(request, 50.0) is rerouted

    def test_sticky_sessions_stay_bound_without_outages(self):
        """Healthy sticky routing never fails over, and sessions pin."""
        engine = SimulationEngine()
        cluster = build_cluster(_fleet_config("sticky", shards=2, seed=31), engine)
        generator = WorkloadGenerator(engine, cluster)
        generator.schedule_phases([WorkloadPhase(0.0, 8)])
        generator.run(60.0)
        assert cluster.balancer.failovers == 0
        assert cluster.balancer.routed_while_all_down == 0
        cluster.ledger_check(generator)

    def test_all_shards_down_requests_are_refused_not_lost(self):
        engine = SimulationEngine()
        cluster = build_cluster(_fleet_config("sticky", shards=2, seed=37), engine)
        for shard in cluster.shards:
            shard.deployment.server.begin_outage(20.0, 40.0)
        generator = WorkloadGenerator(engine, cluster)
        generator.schedule_phases([WorkloadPhase(0.0, 10)])
        generator.run(80.0)
        assert cluster.balancer.routed_while_all_down > 0
        assert cluster.server.refused_during_outage > 0
        assert generator.refused_requests == cluster.server.refused_during_outage
        cluster.ledger_check(generator)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown balancer_policy 'random'"):
            _fleet_config("random").validate()
        assert "sticky" in BALANCER_POLICIES

    def test_round_robin_rotates_across_healthy_shards(self):
        engine = SimulationEngine()
        cluster = build_cluster(_fleet_config("round-robin", shards=3), engine)
        balancer: LoadBalancer = cluster.balancer

        class _Request:
            uri = "/tpcw/home"
            session_id = None

        picks = [balancer.route(_Request(), 0.0).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_shard_seeds_are_offset_and_session_ids_namespaced(self):
        engine = SimulationEngine()
        cluster = build_cluster(_fleet_config("sticky", shards=3), engine)
        prefixes = [
            shard.deployment.server.sessions.id_prefix for shard in cluster.shards
        ]
        assert prefixes == ["S", "S1-", "S2-"]
        assert SHARD_SEED_STRIDE > 0


# --------------------------------------------------------------------------- #
# Rolling fleet rejuvenation
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fleet_scenario():
    """The acceptance-scale fleet comparison (tiny, 0.05, seed 42, 4 shards)."""
    return fig_fleet(duration_scale=0.05, seed=42, scale=TINY).run()


class TestRollingRejuvenation:
    def test_rolling_keeps_capacity_at_or_above_sla_floor(self, fleet_scenario):
        rolling = fleet_scenario.result("rolling")
        shards = rolling.config.shards
        sla_floor = (shards - 1) / shards
        assert min_capacity_fraction(rolling) >= sla_floor - 1e-12
        assert below_floor_seconds(rolling) == 0.0
        assert fleet_scenario.sla_observation("rolling").downtime_seconds == 0.0

    def test_rolling_recycles_each_shard_exactly_once(self, fleet_scenario):
        fleet = fleet_scenario.results["rolling"].fleet
        assert fleet is not None and fleet.rejuvenation is not None
        windows = fleet.rejuvenation.windows
        shards = fleet_scenario.result("rolling").config.shards
        assert sorted(shard for shard, _, _ in windows) == list(range(shards))
        # One at a time: windows must not overlap.
        ordered = sorted(windows, key=lambda w: w[1])
        for (_, _, prev_end), (_, next_start, _) in zip(ordered, ordered[1:]):
            assert next_start >= prev_end - 1e-9

    def test_simultaneous_mode_blacks_out_the_fleet(self, fleet_scenario):
        simultaneous = fleet_scenario.result("simultaneous")
        assert min_capacity_fraction(simultaneous) == 0.0
        assert below_floor_seconds(simultaneous) > 0.0

    def test_capacity_profile_covers_the_run(self, fleet_scenario):
        # One profile over the fleet report's outage windows: contiguous
        # segments spanning [0, duration], each at a whole-shard fraction.
        result = fleet_scenario.result("simultaneous")
        duration = result.config.duration
        profile = result.fleet.rejuvenation.capacity_profile(duration)
        assert profile[0][0] == 0.0 and profile[-1][1] == duration
        for (_, end, _), (start, _, _) in zip(profile, profile[1:]):
            assert end == start
        shards = result.config.shards
        assert {round(f * shards, 9) % 1 for _, _, f in profile} == {0.0}

    def test_rolling_wins_on_fleet_sla_cost(self, fleet_scenario):
        s = fleet_scenario
        assert s.holds()
        assert s.sla_cost("rolling") < s.sla_cost("simultaneous")
        assert s.sla_cost("rolling") < s.sla_cost("no-action")

    def test_fleet_manager_ranks_cross_shard_aging(self, fleet_scenario):
        rows = fleet_scenario.result("no-action").fleet.root_cause_rows
        assert len(rows) == fleet_scenario.result("no-action").config.shards
        growths = [float(row["heap_growth_mb"]) for row in rows]
        assert growths == sorted(growths, reverse=True)
        assert all(row["component"] == "product_detail" for row in rows)

    def test_fleet_run_is_deterministic_per_seed(self):
        def run():
            result = run_experiment(
                _fleet_config("sticky", shards=2, seed=13, duration=60.0)
            )
            fleet = result.fleet
            return (
                result.completed_requests,
                result.issued_requests,
                result.mean_response_time,
                tuple(fleet.balancer["routed"]),
                tuple(
                    (row["shard"], row["completed"], row["rejected"])
                    for row in fleet.per_shard
                ),
            )

        assert run() == run()

    def test_fleet_rejuvenation_requires_multiple_shards(self):
        with pytest.raises(ValueError, match="fleet rejuvenation"):
            run_experiment(
                _fleet_config("sticky", shards=1, fleet_rejuvenation="rolling")
            )
