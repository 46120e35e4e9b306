"""Tests for the JDBC-like access layer and connection pool."""

from __future__ import annotations

import enum

import numpy as np
import pytest

from repro.db.engine import CostModel, Database
from repro.db.jdbc import ConnectionPoolExhaustedError, DataSource, ResultSet, SQLError
from repro.db.sql import parse_sql
from repro.db.table import Column, ColumnType


@pytest.fixture
def datasource() -> DataSource:
    database = Database("jdbc-test")
    database.create_table(
        "t",
        [Column("id", ColumnType.INTEGER, primary_key=True), Column("name", ColumnType.VARCHAR)],
    )
    for index in range(5):
        database.table("t").insert({"id": index, "name": f"row{index}"})
    return DataSource(database, pool_size=2)


class TestResultSetAndStatements:
    def test_forward_only_cursor(self, datasource):
        connection = datasource.get_connection()
        result = connection.execute_query("SELECT id, name FROM t ORDER BY id ASC")
        names = []
        while result.next():
            names.append(result.get_string("name"))
        assert names == [f"row{i}" for i in range(5)]
        assert result.next() is False
        # ``next()`` never moves past the last row: reads still see it.
        assert result.get_string("name") == "row4"
        connection.close()

    def test_get_before_next_raises(self, datasource):
        connection = datasource.get_connection()
        result = connection.execute_query("SELECT id FROM t")
        with pytest.raises(SQLError, match=r"next\(\) has not been called"):
            result.get("id")
        empty = connection.execute_query("SELECT id FROM t WHERE id = 1000")
        assert empty.next() is False
        with pytest.raises(SQLError, match=r"next\(\) has not been called"):
            empty.get("id")
        connection.close()

    def test_typed_getters_handle_null(self, datasource):
        connection = datasource.get_connection()
        connection.execute_update("INSERT INTO t (id, name) VALUES (?, ?)", [99, None])
        result = connection.execute_query("SELECT name FROM t WHERE id = 99")
        assert result.next()
        assert result.get_string("name") is None
        assert result.get_int("name") == 0
        connection.close()

    def test_typed_getters_convert_every_value_class_as_the_conversion_does(self):
        class Shade(enum.IntEnum):
            DARK = 3

        class Label(str):
            pass

        values = [7, 2.5, "42", True, np.int64(5), np.float64(1.25), Shade.DARK, Label("9"), None]
        # Each getter's conversion, written out: a value of the getter's own
        # class must come back as the object itself, every other one converts.
        conversions = {
            "get_int": lambda value: int(value) if value is not None else 0,
            "get_float": lambda value: float(value) if value is not None else 0.0,
            "get_string": lambda value: None if value is None else str(value),
        }
        result = ResultSet([{"v": value} for value in values])
        for value in values:
            assert result.next()
            for getter, convert in conversions.items():
                expected = convert(value)
                got = getattr(result, getter)("v")
                assert type(got) is type(expected) and got == expected, (getter, value)
                if type(value) is type(expected):
                    assert got is value, (getter, value)
                with pytest.raises(SQLError, match=r"no column 'missing' \(columns: \['v'\]\)"):
                    getattr(result, getter)("missing")

    def test_unknown_column_raises(self, datasource):
        connection = datasource.get_connection()
        result = connection.execute_query("SELECT id FROM t WHERE id = 1")
        result.next()
        with pytest.raises(SQLError, match=r"no column 'missing' \(columns: \['id'\]\)"):
            result.get("missing")
        connection.close()

    def test_query_binds_positional_parameters(self, datasource):
        connection = datasource.get_connection()
        sql = "SELECT id, name FROM t WHERE id > ? AND id < ? ORDER BY id ASC"
        result = connection.execute_query(sql, [1, 4])
        ids = []
        while result.next():
            ids.append(result.get_int("id"))
        assert ids == [2, 3]
        # A pre-parsed statement binds the same parameters the same way.
        parsed = connection.execute_query(parse_sql(sql), (1, 4))
        assert parsed.next() and parsed.get_string("name") == "row2"
        connection.close()

    def test_update_binds_positional_parameters(self, datasource):
        connection = datasource.get_connection()
        assert connection.execute_update("UPDATE t SET name = ? WHERE id = ?", ["renamed", 2]) == 1
        result = connection.execute_query("SELECT name FROM t WHERE id = ?", [2])
        assert result.next() and result.get_string("name") == "renamed"
        connection.close()
        with pytest.raises(SQLError, match="is closed"):
            connection.execute_update("DELETE FROM t WHERE id = ?", [2])


class TestConnectionPool:
    def test_pool_bound_enforced(self, datasource):
        first = datasource.get_connection()
        second = datasource.get_connection()
        assert datasource.active_connections == 2
        with pytest.raises(ConnectionPoolExhaustedError):
            datasource.get_connection()
        assert datasource.exhaustion_events == 1
        first.close()
        third = datasource.get_connection()
        assert third is not None
        second.close()
        third.close()
        assert datasource.active_connections == 0

    def test_closed_connection_rejects_queries(self, datasource):
        connection = datasource.get_connection()
        connection.close()
        assert connection.is_closed
        with pytest.raises(SQLError):
            connection.execute_query("SELECT id FROM t")
        # Closing twice is harmless.
        connection.close()

    def test_context_manager_returns_connection(self, datasource):
        with datasource.get_connection() as connection:
            connection.execute_query("SELECT id FROM t WHERE id = 1")
        assert datasource.active_connections == 0

    def test_cost_accumulation(self, datasource):
        connection = datasource.get_connection()
        before = datasource.total_cost_seconds
        connection.execute_query("SELECT * FROM t")
        connection.execute_query("SELECT * FROM t")
        assert datasource.total_cost_seconds > before
        connection.close()

    def test_cost_accrues_in_the_cost_models_term_order(self):
        """Each statement's cost, aged by the pool's latency inflation, sums bit for bit.

        The prices are chosen so that summing the terms in another order
        changes the last bit of some statement's cost.
        """
        model = CostModel(
            base_seconds=0.41,
            per_row_scanned=0.17,
            per_row_returned=0.7,
            per_index_lookup=0.19,
            per_insert=0.31,
        )
        database = Database("jdbc-cost", cost_model=model)
        database.create_table(
            "t",
            [Column("id", ColumnType.INTEGER, primary_key=True), Column("v", ColumnType.FLOAT)],
        )
        for index in range(7):
            database.table("t").insert({"id": index, "v": float(index)})
        datasource = DataSource(database, pool_size=1)
        datasource.latency_multiplier = 1.3
        datasource.extra_latency_seconds = 0.011
        # (sql, params, rows scanned, rows returned, index lookups, inserts)
        statements = [
            ("SELECT id, v FROM t WHERE id = ?", [3], 1, 1, 1, 0),
            ("SELECT id FROM t WHERE v > ?", [1.5], 7, 5, 0, 0),
            ("INSERT INTO t (id, v) VALUES (?, ?)", [7, 7.0], 0, 0, 0, 1),
            ("UPDATE t SET v = ? WHERE id = ?", [0.5, 2], 1, 0, 1, 0),
        ]
        expected = 0.0
        connection = datasource.get_connection()
        for sql, params, scanned, returned, lookups, inserts in statements:
            if sql.startswith("SELECT"):
                assert len(connection.execute_query(sql, params)) == returned
            else:
                assert connection.execute_update(sql, params) == 1
            cost = (
                model.base_seconds
                + model.per_row_scanned * scanned
                + model.per_row_returned * returned
                + model.per_index_lookup * lookups
                + model.per_insert * inserts
            )
            expected += cost * datasource.latency_multiplier + datasource.extra_latency_seconds
        connection.close()
        assert datasource.total_cost_seconds == expected

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            DataSource(Database("x"), pool_size=0)
