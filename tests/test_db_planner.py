"""Unit tests for the query planner: plan cache, scans, operators."""

from __future__ import annotations

import types

import pytest

from repro.db.engine import Database, SqlExecutionError
from repro.db.sql import parse_sql
from repro.db.table import Column, ColumnType
from repro.perf.seed_reference import make_seed_row_database_class


def build_database(database_class=Database) -> Database:
    database = database_class("planner")
    database.create_table(
        "item",
        [
            Column("i_id", ColumnType.INTEGER, primary_key=True),
            Column("i_title", ColumnType.VARCHAR),
            Column("i_subject", ColumnType.VARCHAR),
            Column("i_cost", ColumnType.FLOAT),
            Column("i_a_id", ColumnType.INTEGER),
        ],
    )
    database.create_table(
        "author",
        [
            Column("a_id", ColumnType.INTEGER, primary_key=True),
            Column("a_lname", ColumnType.VARCHAR),
        ],
    )
    for author_id, last in [(1, "SMITH"), (2, "JONES"), (3, "BRONTE")]:
        database.table("author").insert({"a_id": author_id, "a_lname": last})
    for item_id in range(1, 13):
        database.table("item").insert(
            {
                "i_id": item_id,
                "i_title": f"Book {item_id:02d}",
                "i_subject": "ARTS" if item_id % 2 == 0 else "HISTORY",
                "i_cost": float(item_id % 5),
                "i_a_id": 1 + item_id % 3,
            }
        )
    return database


class TestPlanCache:
    def test_plan_reused_across_executions(self):
        database = build_database()
        sql = "SELECT i_id FROM item WHERE i_subject = ? ORDER BY i_cost LIMIT 3"
        statement = parse_sql(sql)
        database.execute(statement, ["ARTS"])
        entry = database._plan_cache[id(statement)]
        database.execute(statement, ["HISTORY"])
        assert database._plan_cache[id(statement)] is entry  # same plan object

    def test_databases_with_one_schema_share_plan_code(self):
        """Each plan's generated functions share code objects across databases,
        and each database still runs them over its own tables."""
        first, second = build_database(), build_database()
        statements = [
            parse_sql(
                "SELECT i_subject, SUM(i_cost) AS total, COUNT(*) AS n FROM item "
                "WHERE i_cost > ? GROUP BY i_subject ORDER BY total DESC LIMIT 5"
            ),
            parse_sql(
                "SELECT i.i_id, a.a_lname FROM item i JOIN author a ON i.i_a_id = a.a_id "
                "WHERE i.i_subject = ? ORDER BY i.i_cost DESC LIMIT 3"
            ),
            parse_sql("SELECT i_title FROM item WHERE i_id = ?"),
        ]
        params = [[0.5], ["ARTS"], [2]]
        before = [first.execute(s, p).rows for s, p in zip(statements, params)]
        assert [second.execute(s, p).rows for s, p in zip(statements, params)] == before
        for statement in statements:
            plans = [db._plan_cache[id(statement)][1] for db in (first, second)]
            functions = [
                {
                    name: value
                    for name, value in vars(plan).items()
                    if isinstance(value, types.FunctionType)
                    and value.__code__.co_filename == "<plan>"
                }
                for plan in plans
            ]
            assert functions[0] and functions[0].keys() == functions[1].keys()
            for name, function in functions[0].items():
                other = functions[1][name]
                assert function.__code__ is other.__code__
                assert function is not other and function.__globals__ is not other.__globals__
        first.table("item").insert(
            {"i_id": 13, "i_title": "Book 13", "i_subject": "ARTS", "i_cost": 9.0, "i_a_id": 1}
        )
        first.execute("UPDATE item SET i_title = ? WHERE i_id = ?", ["Renamed", 2])
        after = [first.execute(s, p).rows for s, p in zip(statements, params)]
        assert all(new != old for new, old in zip(after, before))
        assert [second.execute(s, p).rows for s, p in zip(statements, params)] == before

    def test_ddl_invalidates_plans(self):
        database = build_database()
        sql = "SELECT i_id FROM item ORDER BY i_cost LIMIT 2"
        statement = parse_sql(sql)
        database.execute(statement)
        assert database._plan_cache
        database.create_table("extra", [Column("x", ColumnType.INTEGER, primary_key=True)])
        assert not database._plan_cache  # epoch bump cleared the cache

    def test_create_index_recompiles_plan(self):
        database = build_database()
        sql = "SELECT i_id FROM item WHERE i_cost = ? ORDER BY i_id LIMIT 5"
        statement = parse_sql(sql)
        before = database.execute(statement, [2.0])
        plan_before = database._plan_cache[id(statement)][1]
        # i_cost was unindexed: the plan charges a full scan.
        assert before.rows_scanned == 12
        database.table("item").create_index("i_cost")
        after = database.execute(statement, [2.0])
        plan_after = database._plan_cache[id(statement)][1]
        assert plan_after is not plan_before  # create_index dropped the plan
        assert after.rows == before.rows
        # Declared index now prunes -> accounting changes like the interpreter's.
        assert after.rows_scanned == len(after.rows)

    def test_create_index_on_joined_table_recompiles_join_plan(self):
        planned = build_database()
        seed = build_database(make_seed_row_database_class())
        sql = (
            "SELECT a.a_lname, i.i_id FROM author a JOIN item i ON a.a_id = i.i_a_id "
            "WHERE a_lname = ? ORDER BY i_id"
        )
        statement = parse_sql(sql)

        def both(params):
            result = planned.execute(statement, params)
            reference = seed.execute(statement, params)
            assert (result.rows, result.rows_scanned, result.cost_seconds) == (
                reference.rows,
                reference.rows_scanned,
                reference.cost_seconds,
            )
            return result

        before = both(["SMITH"])
        plan_before = planned._plan_cache[id(statement)][1]
        # i_a_id is unindexed: each author row scans the whole item table.
        assert before.rows_scanned == 3 + 3 * 12
        for database in (planned, seed):
            database.table("item").create_index("i_a_id")
        assert not planned._plan_cache
        after = both(["SMITH"])
        assert planned._plan_cache[id(statement)][1] is not plan_before
        assert after.rows == before.rows
        # The recompiled join probes the declared index: 4 items per author.
        assert after.rows_scanned == 3 + 3 * 4
        assert both(["JONES"]).rows_scanned == 3 + 3 * 4

    def test_statements_executed_directly_still_work(self):
        database = build_database()
        result = database.execute(
            "SELECT a_lname FROM author ORDER BY a_lname DESC LIMIT 2"
        )
        assert [row["a_lname"] for row in result.rows] == ["SMITH", "JONES"]


class TestUnindexedScans:
    def test_unindexed_equality_scans_the_table(self):
        database = build_database()
        table = database.table("item")
        sql = "SELECT i_id FROM item WHERE i_subject = ? ORDER BY i_id LIMIT 4"
        result = database.execute(sql, ["ARTS"])
        # No declared index: the plan charges (and runs) a full scan.
        assert not table.has_index("i_subject")
        assert result.rows_scanned == 12
        assert [row["i_id"] for row in result.rows] == [2, 4, 6, 8]

    def test_scan_sees_mutations(self):
        database = build_database()
        sql = "SELECT i_id FROM item WHERE i_subject = ? ORDER BY i_id LIMIT 20"
        assert [r["i_id"] for r in database.execute(sql, ["ARTS"]).rows] == [2, 4, 6, 8, 10, 12]
        database.execute(
            "INSERT INTO item (i_id, i_title, i_subject, i_cost, i_a_id) "
            "VALUES (?, ?, ?, ?, ?)",
            [99, "New", "ARTS", 1.0, 1],
        )
        database.execute("UPDATE item SET i_subject = ? WHERE i_id = ?", ["ARTS", 1])
        database.execute("DELETE FROM item WHERE i_id = ?", [2])
        assert [r["i_id"] for r in database.execute(sql, ["ARTS"]).rows] == [
            1,
            4,
            6,
            8,
            10,
            12,
            99,
        ]

    def test_join_on_unindexed_key_scans_per_row(self):
        database = build_database()
        # i_a_id is unindexed: the join scans item per author row.
        result = database.execute(
            "SELECT a.a_lname, i.i_id FROM author a "
            "JOIN item i ON i.i_a_id = a.a_id WHERE a_lname = ? ORDER BY i_id LIMIT 3",
            ["SMITH"],
        )
        # Interpreter accounting: author full scan (3 rows) + a full item scan
        # (12 rows) per author row — the a_lname filter is residual, applied
        # after the join, so all three author rows probe.
        assert result.rows_scanned == 3 + 3 * 12
        assert [row["i_id"] for row in result.rows] == [3, 6, 9]

    def test_join_on_missing_column_scans_like_the_seed(self):
        planned = build_database()
        seed = build_database(make_seed_row_database_class())
        sql = (
            "SELECT a.a_lname, i.i_id FROM author a "
            "JOIN item i ON i.i_missing = a.a_id ORDER BY i_id"
        )
        result = planned.execute(sql)
        reference = seed.execute(sql)
        # No row has the column: every author row scans item and matches none.
        assert result.rows == reference.rows == []
        assert result.rows_scanned == reference.rows_scanned == 3 + 3 * 12
        assert result.cost_seconds == reference.cost_seconds


class TestTopK:
    def test_topk_matches_full_sort_with_ties(self):
        database = build_database()
        # i_cost has many ties; LIMIT must keep the full sort's stable order.
        with_limit = database.execute(
            "SELECT i_id FROM item ORDER BY i_cost DESC LIMIT 5"
        )
        without_limit = database.execute("SELECT i_id FROM item ORDER BY i_cost DESC")
        assert with_limit.rows == without_limit.rows[:5]

    def test_mixed_direction_order_by_falls_back(self):
        database = build_database()
        statement = parse_sql(
            "SELECT i_id FROM item ORDER BY i_subject ASC, i_cost DESC LIMIT 4"
        )
        result = database.execute(statement)
        plan = database._plan_cache[id(statement)][1]
        assert not plan.topk_eligible
        expected = sorted(
            (
                (row["i_subject"], -row["i_cost"], row["i_id"])
                for row in database.execute("SELECT i_subject, i_cost, i_id FROM item").rows
            ),
        )
        assert [row["i_id"] for row in result.rows] == [row_id for _, _, row_id in expected[:4]]

    def test_limit_zero(self):
        database = build_database()
        assert database.execute("SELECT i_id FROM item ORDER BY i_id LIMIT 0").rows == []


class TestErrorBehaviour:
    def test_unknown_names_raise(self):
        database = build_database()
        with pytest.raises(SqlExecutionError):
            database.execute("SELECT nope FROM item ORDER BY i_id")
        with pytest.raises(SqlExecutionError):
            database.execute("SELECT i_id FROM item WHERE ghost.i_id = 1 ORDER BY i_id")
        with pytest.raises(SqlExecutionError):
            database.execute("SELECT i_id FROM missing ORDER BY i_id")

    def test_missing_parameters_raise_per_execution(self):
        database = build_database()
        sql = "SELECT i_id FROM item WHERE i_subject = ? ORDER BY i_id"
        with pytest.raises(SqlExecutionError):
            database.execute(sql)
        # A correct execution afterwards still works (plan was not poisoned).
        assert database.execute(sql, ["ARTS"]).rowcount == 6

    def test_plain_column_outside_group_by_raises(self):
        database = build_database()
        with pytest.raises(SqlExecutionError):
            database.execute(
                "SELECT i_title, COUNT(*) AS n FROM item GROUP BY i_subject"
            )
