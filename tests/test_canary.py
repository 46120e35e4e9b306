"""Tests for the canary and blind ladders of the rollout controller, the
canary analyzer and the fig_canary scenario (catch + rollback vs. blind
rollout)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.deploy import (
    BASELINE_VERSION,
    CanaryAnalyzer,
    ComponentVersion,
    RolloutPlan,
)
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.scenarios import (
    CANARY_MODES,
    COMPONENT_A,
    fig_canary,
)
from repro.faults.injector import FaultSpec
from repro.tpcw.population import PopulationScale


class TestPlanValidation:
    def test_component_version_rejects_mismatched_fault_specs(self):
        with pytest.raises(ValueError, match="fault spec targets"):
            ComponentVersion(
                component="home",
                version="v2",
                faults=(FaultSpec(component="search", kind="memory-leak", params={}),),
            )

    def test_plan_rejects_bad_parameters(self):
        version = ComponentVersion(component="home", version="v2")
        with pytest.raises(ValueError, match="start_time"):
            RolloutPlan(version=version, start_time=-1.0, stage_sizes=(1, 3))
        with pytest.raises(ValueError, match="deploy_downtime_seconds"):
            RolloutPlan(
                version=version,
                start_time=0.0,
                stage_sizes=(1, 3),
                deploy_downtime_seconds=0.0,
            )
        with pytest.raises(ValueError, match="stage_bake_seconds"):
            RolloutPlan(
                version=version, start_time=0.0, stage_sizes=(1, 3), stage_bake_seconds=0.0
            )

    def test_analyzer_rejects_trivial_ratio_threshold(self):
        with pytest.raises(ValueError, match="growth_ratio_threshold"):
            CanaryAnalyzer(growth_ratio_threshold=1.0)

    def _unmonitored(self, stage_sizes):
        return ExperimentConfig(
            name="unmonitored-rollout",
            seed=1,
            scale=PopulationScale.tiny(),
            constant_ebs=10,
            duration=30.0,
            monitored=False,
            shards=2,
            rollout=RolloutPlan(
                version=ComponentVersion(component="home", version="v2"),
                start_time=5.0,
                stage_sizes=stage_sizes,
                stage_bake_seconds=10.0,
                stagger_seconds=5.0,
                deploy_downtime_seconds=1.0,
            ),
        )

    def test_canary_rollout_requires_monitoring(self):
        with pytest.raises(ValueError, match="monitored"):
            run_experiment(self._unmonitored((1, 2)))

    def test_blind_rollout_runs_on_an_unmonitored_fleet(self):
        """A single-stage ladder rules nothing, so it needs no manager series."""
        rollout = run_experiment(self._unmonitored((2,))).rollout
        assert rollout.verdict is None
        assert set(rollout.versions.values()) == {"v2"}
        assert [event["action"] for event in rollout.events] == [
            "deploy",
            "deploy",
            "complete",
        ]


class TestHealthyPromotion:
    def test_clean_build_is_promoted_to_every_shard(self):
        """A canary with no fault load bakes clean and rolls fleet-wide."""
        version = ComponentVersion(component="home", version="v2-clean")
        config = ExperimentConfig(
            name="promote-test",
            seed=9,
            scale=PopulationScale.tiny(),
            constant_ebs=30,
            duration=120.0,
            mix_name="shopping",
            monitored=True,
            shards=3,
            snapshot_interval=5.0,
            rollout=RolloutPlan(
                version=version,
                start_time=20.0,
                stage_sizes=(1, 3),
                stage_bake_seconds=30.0,
                stagger_seconds=10.0,
                deploy_downtime_seconds=1.0,
                alert_rollback=False,
            ),
        )
        result = run_experiment(config)
        rollout = result.rollout
        assert rollout is not None
        assert rollout.verdict is not None and rollout.verdict.promote
        assert not rollout.rolled_back
        assert set(rollout.versions.values()) == {"v2-clean"}
        actions = [event["action"] for event in rollout.events]
        assert actions.count("deploy") == 3
        assert "promote" in actions and "rollback" not in actions
        assert actions[-1] == "complete"


def _row(result, mode):
    """The summary row of one mode."""
    return {row["mode"]: row for row in result.summary_rows()}[mode]


class TestFigCanary:
    @pytest.fixture(scope="class")
    def scenario(self, tmp_path_factory):
        stream = tmp_path_factory.mktemp("obs") / "stream.jsonl"
        result = fig_canary(
            duration_scale=0.05,
            seed=42,
            scale=PopulationScale.tiny(),
            stream_metrics=str(stream),
        ).run()
        return result, stream

    def test_modes_and_validation(self, scenario):
        result, _ = scenario
        assert tuple(result.results) == CANARY_MODES
        with pytest.raises(ValueError, match="duration_scale"):
            fig_canary(duration_scale=0.0)
        with pytest.raises(ValueError, match="shards"):
            fig_canary(shards=2)

    def test_canary_is_caught_and_rolled_back(self, scenario):
        result, _ = scenario
        verdict = result.result("canary").rollout.verdict
        assert verdict is not None
        assert not verdict.promote
        assert verdict.trending_up
        assert verdict.growth_ratio > 2.0
        rollout = result.results["canary"].rollout
        assert rollout.rolled_back
        # Only the canary shard ever saw the leaky build, and it is back on
        # baseline by the end of the run.
        assert set(rollout.versions.values()) == {BASELINE_VERSION}
        shards = result.result("canary").config.shards
        touched = {event["shard"] for event in rollout.events}
        assert touched == {shards - 1}
        assert _row(result, "canary")["leaky_shards"] == 0

    def test_blind_rollout_ships_the_leak_fleet_wide(self, scenario):
        result, _ = scenario
        rollout = result.results["blind"].rollout
        shards = result.result("blind").config.shards
        assert not rollout.rolled_back
        assert _row(result, "blind")["leaky_shards"] == shards
        assert sum(1 for e in rollout.events if e["action"] == "deploy") == shards

    def test_canary_strictly_beats_blind_on_sla_cost(self, scenario):
        result, _ = scenario
        assert result.holds()
        assert result.sla_cost("canary") < result.sla_cost("blind")
        # The caught canary pays two outage windows on one shard; the blind
        # rollout pays one on every shard.
        assert (
            result.sla_observation("canary").downtime_seconds
            < result.sla_observation("blind").downtime_seconds
        )

    def test_scenario_is_deterministic_per_seed(self, scenario):
        result, _ = scenario
        rerun = fig_canary(duration_scale=0.05, seed=42, scale=PopulationScale.tiny()).run()
        assert rerun.summary_rows() == result.summary_rows()
        duration = result.result("canary").config.duration
        first = result.results["canary"].metrics.snapshot_json(at=duration)
        second = rerun.results["canary"].metrics.snapshot_json(at=duration)
        assert first == second

    def test_stream_final_record_matches_post_hoc_ledger(self, scenario):
        result, stream = scenario
        records = [json.loads(line) for line in stream.read_text().splitlines() if line]
        assert len(records) > 1
        assert records[-1]["time_s"] == pytest.approx(result.result("canary").config.duration)
        assert records[-1]["counters"] == dict(result.results["canary"].accounting)
        deploys = records[-1]["deploys"]
        assert [event["action"] for event in deploys] == ["deploy", "rollback"]


class TestCanaryEdgeCases:
    """Regression tests for the canary ladder's edge cases."""

    def _config(self, **rollout_kwargs):
        defaults = dict(
            version=ComponentVersion(component="home", version="v2-clean"),
            start_time=20.0,
            stage_sizes=(1, 3),
            deploy_downtime_seconds=1.0,
            alert_rollback=False,
        )
        defaults.update(rollout_kwargs)
        return ExperimentConfig(
            name="edge-case",
            seed=7,
            scale=PopulationScale.tiny(),
            constant_ebs=30,
            duration=60.0,
            monitored=True,
            shards=3,
            snapshot_interval=5.0,
            rollout=RolloutPlan(**defaults),
        )

    def test_bake_past_run_end_rules_at_end_of_run_as_truncated(self):
        """A bake window past the run end used to leave the canary unruled."""
        result = run_experiment(self._config(stage_bake_seconds=500.0))
        rollout = result.rollout
        assert rollout.verdict is not None
        assert rollout.verdict.truncated_bake
        # A clean build still promotes on the shortened evidence.
        assert rollout.verdict.promote
        assert not rollout.rolled_back

    def test_starved_bake_window_refuses_to_rule_and_rolls_back(self):
        """Fewer than two samples used to promote on no evidence at all."""
        config = self._config(stage_bake_seconds=4.0)
        config.snapshot_interval = 15.0
        result = run_experiment(config)
        rollout = result.rollout
        verdict = rollout.verdict
        assert verdict is not None
        assert verdict.insufficient_data
        assert not verdict.promote
        assert "refusing to rule" in verdict.reason
        assert rollout.rolled_back
        assert set(rollout.versions.values()) == {BASELINE_VERSION}


class TestCanaryCli:
    def test_canary_command_smoke(self, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        exit_code = main(
            [
                "canary",
                "--tiny",
                "--duration-scale", "0.02",
                "--seed", "42",
                "--stream-metrics", str(stream),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "canary+rollback SLA cost < blind rollout" in out
        assert "True" in out
        assert "final counters match the post-hoc ledger" in out
        assert stream.exists()

        assert main(["replay", str(stream)]) == 0
        assert "byte-identical" in capsys.readouterr().out
