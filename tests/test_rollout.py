"""Tests for progressive delivery: the RolloutController stage ladder,
alert-driven rollback, partial rollback, stream replay and fig_rollout."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.deploy import (
    BASELINE_VERSION,
    ComponentVersion,
    RolloutPlan,
    default_stage_ladder,
)
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.scenarios import (
    ROLLOUT_MODES,
    fig_rollout,
    first_ruling,
    max_exposed_shards,
)
from repro.obs.transports import (
    ReplaySource,
    load_stream,
    recorded_verdicts,
    replay_verdicts,
    ruling_events,
)
from repro.tpcw.population import PopulationScale

CLEAN = ComponentVersion(component="home", version="v2-clean")


class TestLadderAndPlanValidation:
    def test_default_stage_ladder_is_one_half_all(self):
        assert default_stage_ladder(4) == (1, 2, 4)
        assert default_stage_ladder(5) == (1, 3, 5)
        assert default_stage_ladder(3) == (1, 2, 3)
        # At two shards the half rung collapses into the canary rung.
        assert default_stage_ladder(2) == (1, 2)
        with pytest.raises(ValueError, match="at least 2"):
            default_stage_ladder(1)

    def test_plan_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="start_time"):
            RolloutPlan(version=CLEAN, start_time=-1.0)
        with pytest.raises(ValueError, match="stage_bake_seconds"):
            RolloutPlan(version=CLEAN, start_time=0.0, stage_bake_seconds=0.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            RolloutPlan(version=CLEAN, start_time=0.0, stage_sizes=(1, 1, 4))
        with pytest.raises(ValueError, match="must not be empty"):
            RolloutPlan(version=CLEAN, start_time=0.0, stage_sizes=())

    def test_ladder_must_end_at_the_fleet_size(self):
        plan = RolloutPlan(version=CLEAN, start_time=0.0, stage_sizes=(1, 2, 4))
        assert plan.ladder(4) == (1, 2, 4)
        with pytest.raises(ValueError, match=r"shards: 5"):
            plan.ladder(5)


def _clean_run(shards, stage_sizes, duration, start_time, bake=30.0, seed=9):
    return run_experiment(
        ExperimentConfig(
            name="ladder-shape",
            seed=seed,
            scale=PopulationScale.tiny(),
            constant_ebs=30,
            duration=duration,
            monitored=True,
            shards=shards,
            snapshot_interval=5.0,
            rollout=RolloutPlan(
                version=CLEAN,
                start_time=start_time,
                stage_sizes=stage_sizes,
                stage_bake_seconds=bake,
                stagger_seconds=10.0,
                deploy_downtime_seconds=1.0,
                alert_rollback=False,
            ),
        )
    ).rollout


class TestDeployOrderAndRunEnd:
    @pytest.mark.parametrize(
        "stage_sizes, order", [((1, 4), [3, 0, 1, 2]), ((4,), [0, 1, 2, 3])]
    )
    def test_first_stage_takes_the_top_shards_then_the_rest_ascend(
        self, stage_sizes, order
    ):
        report = _clean_run(4, stage_sizes, duration=120.0, start_time=20.0)
        assert report.completed
        deployed = [event["shard"] for event in report.events if event["action"] == "deploy"]
        assert deployed == order

    def test_no_deploy_lands_at_the_run_end(self):
        """Slots at 40 / 50 / 60 s of a 60 s run: the last one is skipped."""
        report = _clean_run(3, (3,), duration=60.0, start_time=40.0)
        assert [(e["time_s"], e["action"]) for e in report.events] == [
            (40.0, "deploy"),
            (50.0, "deploy"),
        ]
        assert report.outage_seconds == pytest.approx(2.0)
        assert not report.completed

    def test_no_stage_starts_at_the_run_end(self):
        """Ruled at 50 s with a 10 s stagger: the next stage would start at 60 s."""
        report = _clean_run(3, (1, 3), duration=60.0, start_time=20.0)
        assert [(e["time_s"], e["action"]) for e in report.events] == [
            (20.0, "deploy"),
            (50.0, "promote"),
        ]
        assert [row["stage"] for row in report.stages] == [0]
        assert report.outage_seconds == pytest.approx(1.0)


class TestHealthyStagedRollout:
    @pytest.fixture(scope="class")
    def report(self):
        config = ExperimentConfig(
            name="staged-clean",
            seed=11,
            scale=PopulationScale.tiny(),
            constant_ebs=30,
            duration=160.0,
            monitored=True,
            shards=4,
            snapshot_interval=5.0,
            rollout=RolloutPlan(
                version=CLEAN,
                start_time=20.0,
                stage_bake_seconds=20.0,
                stagger_seconds=5.0,
                deploy_downtime_seconds=1.0,
            ),
        )
        return run_experiment(config).rollout

    def test_promotes_through_every_stage_to_the_whole_fleet(self, report):
        assert report.completed
        assert not report.rolled_back
        assert report.ladder == (1, 2, 4)
        assert set(report.versions.values()) == {"v2-clean"}
        actions = [event["action"] for event in report.events]
        assert actions.count("deploy") == 4
        assert actions.count("promote") == 2  # every non-final stage ruled
        assert "rollback" not in actions
        assert actions[-1] == "complete"

    def test_stage_windows_never_overlap(self, report):
        """Stage k+1's first deploy comes strictly after stage k's ruling."""
        stages = report.stages
        assert [row["stage"] for row in stages] == [0, 1, 2]
        for earlier, later in zip(stages, stages[1:]):
            if "ruled_at" in earlier:
                assert later["deployed_at"] > earlier["ruled_at"]
        # Non-final stages each carry a deadline ruling; the final one rules
        # nothing (no baselines left to compare against).
        assert [row.get("trigger") for row in stages] == ["deadline", "deadline", None]
        assert all(row["promote"] for row in stages[:-1])

    def test_full_promotion_eventually_exposes_the_whole_fleet(self, report):
        assert report.max_concurrent_deploys() == 4


class TestFigRollout:
    @pytest.fixture(scope="class")
    def scenario(self, tmp_path_factory):
        stream = tmp_path_factory.mktemp("obs") / "rollout.jsonl"
        result = fig_rollout(
            duration_scale=0.05,
            seed=42,
            scale=PopulationScale.tiny(),
            stream_metrics=str(stream),
        ).run()
        return result, stream

    def test_modes_and_validation(self, scenario):
        result, _ = scenario
        assert tuple(result.results) == ROLLOUT_MODES
        with pytest.raises(ValueError, match="duration_scale"):
            fig_rollout(duration_scale=0.0)
        with pytest.raises(ValueError, match="shards"):
            fig_rollout(shards=2)

    def test_alert_rules_the_stage_before_the_bake_deadline(self, scenario):
        result, _ = scenario
        staged = result.result("staged")
        ruling = first_ruling(staged.rollout)
        assert ruling["trigger"] == "alert"
        deadline_at = (
            staged.rollout.stages[0]["deployed_at"] + staged.config.rollout.stage_bake_seconds
        )
        assert ruling["ruled_at"] < deadline_at

    def test_partial_rollback_restores_exactly_the_deployed_shards(self, scenario):
        result, _ = scenario
        report = result.result("staged").rollout
        assert report.rolled_back and not report.completed
        # Stage 0 of the default ladder is the last shard; nothing else was
        # ever deployed, and it is back on baseline at the end of the run.
        stage0 = report.stages[0]
        assert not stage0["promote"]
        touched = {event["shard"] for event in report.events}
        assert touched == set(stage0["shards"])
        assert set(report.versions.values()) == {BASELINE_VERSION}
        assert report.max_concurrent_deploys() == 1
        assert {row["mode"]: row for row in result.summary_rows()}["staged"]["leaky_shards"] == 0

    def test_blast_radius_never_exceeds_the_active_stage(self, scenario):
        result, _ = scenario
        staged, blind = result.result("staged"), result.result("blind")
        assert max_exposed_shards(staged) <= staged.rollout.ladder[0]
        assert max_exposed_shards(staged) == staged.rollout.ladder[0]
        assert max_exposed_shards(blind) == blind.config.shards

    def test_staged_wins_on_sla_cost(self, scenario):
        result, _ = scenario
        assert result.holds()
        assert result.sla_cost("staged") <= result.sla_cost("single-canary")
        assert result.sla_cost("single-canary") <= result.sla_cost("blind")
        assert result.sla_cost("staged") < result.sla_cost("blind")

    def test_replayed_verdicts_are_byte_identical_to_the_live_run(self, scenario):
        _, stream = scenario
        record = load_stream(str(stream))[-1]
        assert ruling_events(record)
        recorded = recorded_verdicts(record)
        replayed = replay_verdicts(record)
        canonical = lambda v: json.dumps(v, sort_keys=True, separators=(",", ":"))
        assert canonical(replayed) == canonical(recorded)

    def test_threshold_override_re_rules_the_recorded_evidence(self, scenario):
        _, scenario_stream = scenario
        record = load_stream(str(scenario_stream))[-1]
        live = replay_verdicts(record)
        assert not live[0]["promote"]
        what_if = replay_verdicts(
            record, {"growth_ratio_threshold": live[0]["growth_ratio"] * 10}
        )
        assert what_if[0]["promote"]

    def test_replay_source_rejects_non_rollout_streams(self, scenario):
        _, stream = scenario
        record = load_stream(str(stream))[-1]
        stripped = {k: v for k, v in record.items() if k != "rollout_series"}
        with pytest.raises(ValueError, match="rollout_series"):
            ReplaySource(stripped)
        source = ReplaySource(record)
        with pytest.raises(ValueError, match="no shard 99"):
            source.heap_capacity(99)


class TestRolloutCli:
    def test_rollout_then_replay_round_trip(self, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        exit_code = main(
            [
                "rollout",
                "--tiny",
                "--duration-scale", "0.02",
                "--seed", "42",
                "--stream-metrics", str(stream),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "staged <= single-canary <= blind" in out
        assert "final counters match the post-hoc ledger" in out

        assert main(["replay", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out

        assert main(["replay", str(stream), "--growth-ratio-threshold", "1e9"]) == 0
        out = capsys.readouterr().out
        assert "1 verdict(s) flipped" in out

    def test_replay_rejects_a_missing_stream(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "missing.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
