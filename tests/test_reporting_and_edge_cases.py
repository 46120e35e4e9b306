"""Edge-case tests: SQL corner cases, reporting helpers, front-end formatting,
workload population shrinking and framework error paths."""

from __future__ import annotations

import pytest

from repro.core.frontend import _format_bytes, _format_table
from repro.db.engine import Database, SqlExecutionError
from repro.db.table import Column, ColumnType
from repro.experiments.reporting import format_table
from repro.experiments.scenarios import downsample_series
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import TimeSeries
from repro.tpcw.application import build_deployment
from repro.tpcw.population import PopulationScale
from repro.tpcw.workload import WorkloadGenerator, WorkloadPhase


class TestSqlEdgeCases:
    @pytest.fixture
    def database(self):
        database = Database("edge")
        database.create_table(
            "a",
            [Column("id", ColumnType.INTEGER, primary_key=True), Column("b_id", ColumnType.INTEGER),
             Column("v", ColumnType.INTEGER)],
        )
        database.create_table(
            "b",
            [Column("id", ColumnType.INTEGER, primary_key=True), Column("name", ColumnType.VARCHAR)],
        )
        for index in range(4):
            database.table("b").insert({"id": index, "name": f"b{index}"})
            database.table("a").insert({"id": index, "b_id": index % 2, "v": index * 10})
        return database

    def test_join_without_alias(self, database):
        rows = database.execute(
            "SELECT a.v, b.name FROM a JOIN b ON a.b_id = b.id WHERE b.name = 'b0'"
        ).rows
        assert {row["v"] for row in rows} == {0, 20}

    def test_join_to_missing_value_produces_no_rows(self, database):
        database.table("a").insert({"id": 99, "b_id": 1234, "v": 1})
        rows = database.execute("SELECT a.id FROM a JOIN b ON a.b_id = b.id WHERE a.id = 99").rows
        assert rows == []

    def test_group_by_requires_plain_columns_in_group(self, database):
        with pytest.raises(SqlExecutionError):
            database.execute("SELECT v, COUNT(*) AS n FROM a GROUP BY b_id")

    def test_select_star_with_aggregate_rejected(self, database):
        with pytest.raises(SqlExecutionError):
            database.execute("SELECT * FROM a GROUP BY b_id")

    def test_null_comparisons(self, database):
        database.table("a").insert({"id": 50, "b_id": None, "v": None})
        equal_null = database.execute("SELECT id FROM a WHERE b_id = NULL").rows
        assert {row["id"] for row in equal_null} == {50}
        greater = database.execute("SELECT id FROM a WHERE v > 5").rows
        assert 50 not in {row["id"] for row in greater}

    def test_update_with_index_condition(self, database):
        database.table("a").create_index("b_id")
        updated = database.execute("UPDATE a SET v = 0 WHERE b_id = ?", [1]).rowcount
        assert updated == 2
        assert all(
            row["v"] == 0
            for row in database.execute("SELECT v FROM a WHERE b_id = 1").rows
        )

    def test_order_by_ascending_with_nulls_last(self, database):
        database.table("a").insert({"id": 60, "b_id": 0, "v": None})
        rows = database.execute("SELECT id, v FROM a ORDER BY v ASC").rows
        assert rows[-1]["id"] == 60


class TestReportingHelpers:
    def test_format_bytes_ranges(self):
        assert _format_bytes(512) == "512 B"
        assert _format_bytes(2048) == "2.0 KB"
        assert _format_bytes(3 * 1024 * 1024) == "3.00 MB"

    def test_format_table_alignment(self):
        table = _format_table(
            [{"component": "home", "monitoring": "on"}], ["component", "monitoring"]
        )
        lines = table.splitlines()
        assert lines[0].startswith("component")
        assert len(lines) == 3
        assert _format_table([], ["a"]) == "(no data)"

    def test_experiment_format_table_missing_keys(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "b" in text.splitlines()[0]

    def test_downsample_handles_empty_series(self):
        assert downsample_series(TimeSeries()) == []


class TestWorkloadPopulationControl:
    def test_shrinking_eb_population_stops_browsers(self):
        engine = SimulationEngine()
        deployment = build_deployment(scale=PopulationScale.tiny(), seed=21, clock=engine.clock)
        generator = WorkloadGenerator(engine, deployment, think_time_mean=3.0)
        generator.set_active_browsers(20)
        engine.run_until(30.0)
        assert generator.active_browsers == 20
        generator.set_active_browsers(5)
        assert generator.active_browsers == 5
        before = generator.completed_requests
        generator.run(60.0)
        assert generator.completed_requests > before

    def test_zero_browsers_is_valid(self):
        engine = SimulationEngine()
        deployment = build_deployment(scale=PopulationScale.tiny(), seed=21, clock=engine.clock)
        generator = WorkloadGenerator(engine, deployment)
        generator.set_active_browsers(0)
        generator.run(30.0)
        assert generator.completed_requests == 0

    def test_invalid_workload_parameters(self):
        engine = SimulationEngine()
        deployment = build_deployment(scale=PopulationScale.tiny(), seed=21, clock=engine.clock)
        with pytest.raises(ValueError):
            WorkloadGenerator(engine, deployment, think_time_mean=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(engine, deployment, session_duration_mean=0.0)
        for mean in (float("nan"), float("inf")):  # used to run with NaN or inf draws
            with pytest.raises(ValueError, match="must be positive and finite"):
                WorkloadGenerator(engine, deployment, think_time_mean=mean)
            with pytest.raises(ValueError, match="must be positive and finite"):
                WorkloadGenerator(engine, deployment, session_duration_mean=mean)
        generator = WorkloadGenerator(engine, deployment)
        with pytest.raises(ValueError):
            generator.set_active_browsers(-1)
        with pytest.raises(ValueError):
            generator.run(0.0)
        with pytest.raises(ValueError):
            generator.schedule_phases([])
        with pytest.raises(ValueError):
            WorkloadPhase(-1.0, 5)
        with pytest.raises(ValueError):
            WorkloadPhase(0.0, -5)


class TestFrameworkErrorPaths:
    def test_schedule_snapshots_parameter_validation(self, monitored_deployment):
        _, framework = monitored_deployment
        with pytest.raises(ValueError):
            framework.schedule_snapshots(duration=0.0)
        with pytest.raises(ValueError):
            framework.schedule_snapshots(duration=100.0, interval=0.0)
        assert framework.schedule_snapshots(duration=120.0, interval=60.0) == 2

    def test_component_series_for_unknown_component_is_empty(self, monitored_deployment):
        _, framework = monitored_deployment
        series = framework.component_series("does_not_exist")
        assert len(series) == 0

    def test_overhead_sample_cost_propagates_from_config(self, engine, tiny_deployment):
        from repro.core.framework import FrameworkConfig, MonitoringFramework

        framework = MonitoringFramework(
            tiny_deployment, engine=engine, config=FrameworkConfig(sample_cost_seconds=0.25)
        )
        framework.install()
        assert framework.overhead.sample_cost_seconds == 0.25
        framework.uninstall()
