"""Tier-1 acceptance tests for ``fig_learning`` (ISSUE 5 tentpole).

The headline claim, pinned at ``duration_scale=0.05`` / tiny / seed 42:
warm-started adaptive (calibration persisted per workload signature across
runs) needs strictly fewer recycles and strictly lower cumulative SLA cost
than cold adaptive, which re-learns its safety horizon every run — and the
whole comparison is deterministic per seed.
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import (
    LEARNING_MODES,
    LEARNING_RUNS,
    cumulative_sla_cost,
    fig_learning,
    total_recycles,
)
from repro.slo.calibration import CalibrationStore
from repro.tpcw.population import PopulationScale

TINY = PopulationScale.tiny()
DS = 0.05


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    store = tmp_path_factory.mktemp("learning") / "calibration.json"
    return fig_learning(duration_scale=DS, seed=42, scale=TINY, store_path=str(store)).run()


def _policy(scenario, mode, run):
    """The adaptive policy run ``run`` of ``mode`` ran, as it ended."""
    return scenario.result(f"{mode}/run{run}").policy


def _warm_config(scenario):
    return scenario.result("warm/run0").config


class TestFigLearning:
    def test_warm_needs_fewer_recycles_than_cold(self, scenario):
        # The headline claim, pinned strictly: across the run sequence the
        # warm-started policy skips recycles the cold one re-pays.
        assert total_recycles(scenario, "warm") < total_recycles(scenario, "cold")

    def test_warm_cumulative_sla_cost_is_lower(self, scenario):
        assert cumulative_sla_cost(scenario, "warm") < cumulative_sla_cost(scenario, "cold")

    def test_runs_execute_mode_major(self, scenario):
        assert list(scenario.results) == [
            f"{mode}/run{run}" for mode in LEARNING_MODES for run in range(LEARNING_RUNS)
        ]

    def test_first_run_is_identical_cold_and_warm(self, scenario):
        # Run 0 opens against an empty store: warm must behave exactly cold.
        warm, cold = scenario.result("warm/run0"), scenario.result("cold/run0")
        assert not _policy(scenario, "warm", 0).warm_started
        assert warm.rejuvenation.actions == cold.rejuvenation.actions
        assert scenario.sla_cost("warm/run0") == pytest.approx(scenario.sla_cost("cold/run0"))
        assert warm.completed_requests == cold.completed_requests

    def test_later_warm_runs_open_below_base_horizon(self, scenario):
        for run in range(1, LEARNING_RUNS):
            policy = _policy(scenario, "warm", run)
            assert policy.warm_started
            assert policy.opening_horizon("heap") < policy.base_horizon
        for run in range(LEARNING_RUNS):
            cold = _policy(scenario, "cold", run)
            assert not cold.warm_started
            assert cold.opening_horizon("heap") == cold.base_horizon

    def test_no_run_trades_recycles_for_outages(self, scenario):
        # Learning must not "win" by letting the heap hit the wall: every
        # warm run still finishes error-free.
        for run in range(LEARNING_RUNS):
            assert scenario.result(f"warm/run{run}").error_count == 0

    def test_store_accumulates_all_warm_runs(self, scenario):
        config = _warm_config(scenario)
        store = CalibrationStore(config.calibration_store.path)
        assert store.loaded_from_disk
        record = store.lookup(config.calibration_signature)
        assert record is not None
        assert record.runs == LEARNING_RUNS
        assert "heap" in record.resources
        assert record.resources["heap"].stats.count > 0

    def test_signature_is_seed_independent(self, scenario):
        signature = _warm_config(scenario).calibration_signature
        assert "seed" not in signature
        assert "fig-learning-memory" in signature

    def test_verdict_rows_hold(self, scenario):
        rows = scenario.tables()["verdicts"].rows
        verdicts = {row["claim"]: row["holds"] for row in rows}
        assert all(verdicts.values())

    def test_summary_rows_cover_both_modes(self, scenario):
        rows = scenario.summary_rows()
        assert len(rows) == 2 * LEARNING_RUNS
        assert {row["mode"] for row in rows} == set(LEARNING_MODES)
        by_mode_run = {(row["mode"], row["run"]): row for row in rows}
        assert by_mode_run[("warm", 1)]["warm_started"] is True
        assert by_mode_run[("cold", 1)]["warm_started"] is False

    def test_deterministic_per_seed(self, scenario, tmp_path):
        again = fig_learning(
            duration_scale=DS,
            seed=42,
            scale=TINY,
            store_path=str(tmp_path / "calibration.json"),
        ).run()
        assert again.summary_rows() == scenario.summary_rows()
        assert _warm_config(again).calibration_signature == (
            _warm_config(scenario).calibration_signature
        )

    def test_report_renders(self, scenario):
        text = comparison_report(scenario)
        assert "Cross-run calibration learning" in text
        assert "workload signature" in text
        assert "verdicts:" in text
        assert "True" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            fig_learning(duration_scale=0.0)
        with pytest.raises(ValueError):
            fig_learning(duration_scale=DS, runs=1)
