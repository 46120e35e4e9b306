"""Tests for tables, the SQL parser and query execution."""

from __future__ import annotations

import enum

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.engine import Database, SqlExecutionError
from repro.db.sql import (
    Aggregate,
    ColumnRef,
    InsertStatement,
    Literal,
    Parameter,
    SelectStatement,
    SqlSyntaxError,
    parse_sql,
)
from repro.db.table import Column, ColumnType, Table, UniqueViolationError
from repro.perf.seed_reference import make_seed_row_database_class


def _people_table() -> Table:
    return Table(
        "people",
        [
            Column("id", ColumnType.INTEGER, primary_key=True),
            Column("name", ColumnType.VARCHAR),
            Column("age", ColumnType.INTEGER),
            Column("city", ColumnType.VARCHAR),
        ],
    )


class TestTable:
    def test_insert_and_pk_lookup(self):
        table = _people_table()
        table.insert({"id": 1, "name": "Ann", "age": 31, "city": "BCN"})
        assert table.get_by_pk(1)["name"] == "Ann"
        assert table.get_by_pk(99) is None
        assert len(table) == 1

    def test_duplicate_pk_rejected(self):
        table = _people_table()
        table.insert({"id": 1, "name": "Ann", "age": 31, "city": "BCN"})
        with pytest.raises(UniqueViolationError):
            table.insert({"id": 1, "name": "Bob", "age": 20, "city": "MAD"})

    def test_type_validation(self):
        table = _people_table()
        with pytest.raises(TypeError):
            table.insert({"id": 1, "name": 42, "age": 31, "city": "BCN"})
        with pytest.raises(KeyError):
            table.insert({"id": 2, "name": "X", "age": 1, "city": "Y", "extra": 1})

    def test_secondary_index_lookup_and_maintenance(self):
        table = _people_table()
        table.create_index("city")
        for index in range(6):
            table.insert({"id": index, "name": f"P{index}", "age": 20 + index,
                          "city": "BCN" if index % 2 == 0 else "MAD"})
        assert len(table.lookup_ids("city", "BCN")) == 3
        # Update moves rows between buckets.
        ids = table.lookup_ids("city", "MAD")
        table.update_rows(ids, {"city": "BCN"})
        assert len(table.lookup_ids("city", "BCN")) == 6
        # Delete removes from the index.
        table.delete_rows(table.lookup_ids("city", "BCN"))
        assert len(table) == 0

    def test_update_primary_key_rejected(self):
        table = _people_table()
        row_id = table.insert({"id": 1, "name": "A", "age": 1, "city": "X"})
        with pytest.raises(ValueError):
            table.update_rows([row_id], {"id": 2})

    def test_update_to_null_of_a_not_nullable_column_changes_nothing(self):
        database = Database("t")
        database.create_table(
            "t",
            [
                Column("id", ColumnType.INTEGER, primary_key=True),
                Column("name", ColumnType.VARCHAR, nullable=False),
                Column("note", ColumnType.VARCHAR),
            ],
        )
        database.execute("INSERT INTO t (id, name, note) VALUES (?, ?, ?)", [1, "Ann", "x"])
        table = database.table("t")
        versions = (table.rows_version, table.deletes, dict(table.column_versions))
        message = "column 'name' of table 't' is not nullable"
        with pytest.raises(ValueError, match=message):
            database.execute("INSERT INTO t (id, name, note) VALUES (?, ?, ?)", [2, None, "y"])
        # The same NULL in an UPDATE is refused alike, before any row moves,
        # including the nullable column assigned beside it.
        with pytest.raises(ValueError, match=message):
            database.execute("UPDATE t SET note = ?, name = ? WHERE id = ?", ["z", None, 1])
        assert database.execute("SELECT name, note FROM t WHERE id = 1").rows == [
            {"name": "Ann", "note": "x"}
        ]
        assert (table.rows_version, table.deletes, dict(table.column_versions)) == versions

    def test_duplicate_column_definition_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [Column("a", ColumnType.INTEGER), Column("a", ColumnType.INTEGER)])


class TestSqlParser:
    def test_select_star(self):
        statement = parse_sql("SELECT * FROM item")
        assert isinstance(statement, SelectStatement)
        assert statement.star and statement.table == "item"

    def test_select_with_everything(self):
        statement = parse_sql(
            "SELECT i.i_id, SUM(ol.ol_qty) AS sold FROM order_line ol "
            "JOIN item i ON ol.ol_i_id = i.i_id WHERE i_subject = ? AND ol_qty > 2 "
            "GROUP BY i.i_id ORDER BY sold DESC LIMIT 10"
        )
        assert isinstance(statement, SelectStatement)
        assert statement.alias == "ol"
        assert len(statement.joins) == 1
        assert statement.joins[0].alias == "i"
        assert len(statement.where) == 2
        assert isinstance(statement.where[0].rhs, Parameter)
        assert isinstance(statement.where[1].rhs, Literal)
        assert statement.group_by[0] == ColumnRef("i_id", "i")
        assert statement.order_by[0].descending
        assert statement.limit == 10
        assert isinstance(statement.items[1].expression, Aggregate)

    def test_parameters_are_positional(self):
        statement = parse_sql("SELECT a FROM t WHERE b = ? AND c = ?")
        assert [condition.rhs.index for condition in statement.where] == [0, 1]

    def test_insert_update_delete(self):
        insert = parse_sql("INSERT INTO t (a, b) VALUES (?, 'x')")
        assert isinstance(insert, InsertStatement)
        assert insert.columns == ["a", "b"]
        update = parse_sql("UPDATE t SET a = 1, b = ? WHERE c = 3")
        assert update.assignments[0] == ("a", Literal(1))
        delete = parse_sql("DELETE FROM t WHERE a = 'gone'")
        assert delete.table == "t"

    def test_string_escaping(self):
        statement = parse_sql("SELECT a FROM t WHERE b = 'O''Brien'")
        assert statement.where[0].rhs == Literal("O'Brien")

    def test_syntax_errors(self):
        for bad in [
            "",
            "SELEC a FROM t",
            "SELECT FROM t",
            "SELECT a FROM t WHERE",
            "INSERT INTO t (a) VALUES (1, 2)",
            "INSERT INTO t (a, b, b, c) VALUES (1, 'x', 'y', 1.0)",
            "SELECT a FROM t LIMIT x",
            "SELECT a FROM t JOIN u ON a > b",
        ]:
            with pytest.raises(SqlSyntaxError):
                parse_sql(bad)
        with pytest.raises(SqlSyntaxError, match="column 'b' specified twice"):
            parse_sql("INSERT INTO t (a, b, b, c) VALUES (1, 'x', 'y', 1.0)")

    def test_null_and_boolean_literals(self):
        statement = parse_sql("SELECT a FROM t WHERE b = NULL AND c = TRUE")
        assert statement.where[0].rhs == Literal(None)
        assert statement.where[1].rhs == Literal(True)


class TestDatabaseExecution:
    @pytest.fixture
    def database(self) -> Database:
        database = Database("test")
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
        database.table("item").create_index("i_subject")
        for author_id, last_name in [(1, "SMITH"), (2, "JONES")]:
            database.table("author").insert({"a_id": author_id, "a_lname": last_name})
        for item_id in range(1, 11):
            database.table("item").insert(
                {
                    "i_id": item_id,
                    "i_title": f"Book {item_id:02d}",
                    "i_subject": "ARTS" if item_id % 2 == 0 else "HISTORY",
                    "i_cost": float(item_id),
                    "i_a_id": 1 if item_id <= 5 else 2,
                }
            )
        return database

    def test_pk_lookup_uses_index(self, database):
        result = database.execute("SELECT i_title FROM item WHERE i_id = ?", [3])
        assert result.rows == [{"i_title": "Book 03"}]
        assert result.rows_scanned == 1

    def test_where_order_limit(self, database):
        result = database.execute(
            "SELECT i_id FROM item WHERE i_subject = 'ARTS' ORDER BY i_cost DESC LIMIT 3"
        )
        assert [row["i_id"] for row in result.rows] == [10, 8, 6]

    def test_order_by_column_not_in_select(self, database):
        result = database.execute("SELECT i_title FROM item ORDER BY i_cost DESC LIMIT 1")
        assert result.rows == [{"i_title": "Book 10"}]

    def test_join_with_aggregate_and_group_by(self, database):
        result = database.execute(
            "SELECT a.a_lname, COUNT(*) AS books, AVG(i.i_cost) AS avg_cost "
            "FROM item i JOIN author a ON i.i_a_id = a.a_id "
            "GROUP BY a.a_lname ORDER BY books DESC"
        )
        assert len(result.rows) == 2
        smith = next(row for row in result.rows if row["a_lname"] == "SMITH")
        assert smith["books"] == 5
        assert smith["avg_cost"] == pytest.approx(3.0)

    def test_like_operator(self, database):
        result = database.execute("SELECT i_id FROM item WHERE i_title LIKE 'Book 0%'")
        assert len(result.rows) == 9

    def test_aggregate_over_empty_set(self, database):
        result = database.execute("SELECT COUNT(*) AS n, MAX(i_cost) AS m FROM item WHERE i_id = 999")
        assert result.rows == [{"n": 0, "m": None}]

    def test_insert_update_delete_roundtrip(self, database):
        database.execute(
            "INSERT INTO item (i_id, i_title, i_subject, i_cost, i_a_id) VALUES (?, ?, ?, ?, ?)",
            [99, "New Book", "ARTS", 5.0, 1],
        )
        assert database.execute("SELECT i_title FROM item WHERE i_id = 99").rows[0]["i_title"] == "New Book"
        updated = database.execute("UPDATE item SET i_cost = ? WHERE i_id = ?", [9.5, 99]).rowcount
        assert updated == 1
        assert database.execute("SELECT i_cost FROM item WHERE i_id = 99").rows[0]["i_cost"] == 9.5
        deleted = database.execute("DELETE FROM item WHERE i_id = 99").rowcount
        assert deleted == 1
        assert database.execute("SELECT COUNT(*) AS n FROM item").rows[0]["n"] == 10

    def test_cost_model_and_stats(self, database):
        before = database.stats.queries_executed
        result = database.execute("SELECT * FROM item")
        assert result.cost_seconds > 0
        assert database.stats.queries_executed == before + 1
        assert database.stats.by_statement_kind["SELECT"] >= 1
        assert database.stats.rows_scanned >= 10

    def test_unknown_table_and_column_errors(self, database):
        with pytest.raises(SqlExecutionError):
            database.execute("SELECT a FROM missing")
        with pytest.raises(SqlExecutionError):
            database.execute("SELECT missing_column FROM item")

    def test_missing_parameters_error(self, database):
        with pytest.raises(SqlExecutionError):
            database.execute("SELECT i_id FROM item WHERE i_id = ?")

    def test_drop_and_has_table(self, database):
        assert database.has_table("item")
        database.drop_table("author")
        assert not database.has_table("author")
        with pytest.raises(SqlExecutionError):
            database.drop_table("author")


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=100)),
        min_size=1,
        max_size=60,
        unique_by=lambda pair: pair[0],
    )
)
def test_property_where_filter_matches_python_filter(rows):
    """WHERE age >= 50 returns exactly the rows a Python filter selects."""
    database = Database("prop")
    database.create_table(
        "people",
        [Column("id", ColumnType.INTEGER, primary_key=True), Column("age", ColumnType.INTEGER)],
    )
    for row_id, age in rows:
        database.table("people").insert({"id": row_id, "age": age})
    result = database.execute("SELECT id FROM people WHERE age >= 50")
    expected = {row_id for row_id, age in rows if age >= 50}
    assert {row["id"] for row in result.rows} == expected


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Name(str):
    """A ``str`` subclass: a VARCHAR column accepts it and stores it as passed."""


def _reference_validate_row(table: Table, values):
    """The row check column by column through ``ColumnType.validate``: the reference."""
    row = {}
    for column in table.columns:
        value = values.get(column.name)
        if value is None and not column.nullable and not column.primary_key:
            raise ValueError(
                f"column {column.name!r} of table {table.name!r} is not nullable"
            )
        if not column.type.validate(value):
            raise TypeError(
                f"value {value!r} is not valid for column {column.name!r} "
                f"({column.type.value}) of table {table.name!r}"
            )
        row[column.name] = value
    unknown = set(values) - set(table._columns_by_name)
    if unknown:
        raise KeyError(f"unknown columns {sorted(unknown)} for table {table.name!r}")
    return row


def _reference_insert(table: Table, keys: set, values):
    """``Table.insert``'s checks in their order: the row, a NULL key, a duplicate key."""
    row = _reference_validate_row(table, values)
    if table.primary_key is not None:
        pk_value = row[table.primary_key]
        if pk_value is None:
            raise ValueError(f"primary key {table.primary_key!r} must not be NULL")
        if pk_value in keys:
            raise UniqueViolationError(
                f"duplicate primary key {pk_value!r} in table {table.name!r}"
            )
        keys.add(pk_value)
    return row


_NUMBERS = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.sampled_from(list(_Level)),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan"), float("inf")]),
    st.floats(allow_nan=True),
    st.sampled_from([0.0, -0.0, 1.0, float("nan")]).map(numpy.float64),
)
#: Values each column type accepts (NULL aside).
_ACCEPTED = {
    ColumnType.INTEGER: st.one_of(
        st.integers(min_value=-2, max_value=2), st.sampled_from(list(_Level))
    ),
    ColumnType.FLOAT: _NUMBERS,
    ColumnType.DATE: _NUMBERS,
    ColumnType.VARCHAR: st.one_of(st.text(max_size=2), st.text(max_size=2).map(_Name)),
    ColumnType.BOOLEAN: st.booleans(),
}
_ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    _NUMBERS,
    st.integers(min_value=-2, max_value=2).map(numpy.int64),
    st.booleans().map(numpy.bool_),
    st.text(max_size=2),
    st.text(max_size=2).map(_Name),
    st.binary(max_size=2),
)


@st.composite
def _schema_and_rows(draw):
    """Every column type, nullable or not, plus a primary key; rows to insert in turn."""
    columns = [
        Column(f"c{index}", column_type, nullable=draw(st.booleans()))
        for index, column_type in enumerate(draw(st.permutations(list(ColumnType))))
    ]
    key = Column("pk", draw(st.sampled_from(list(ColumnType))), primary_key=True)
    columns.insert(draw(st.integers(min_value=0, max_value=len(columns))), key)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        values = {}
        for column in columns:
            kind = draw(st.integers(min_value=0, max_value=19))
            if kind == 0:
                continue  # the key is missing
            if kind == 1:
                values[column.name] = None
            elif kind == 2:
                values[column.name] = draw(_ANY_VALUE)
            else:
                values[column.name] = draw(_ACCEPTED[column.type])
        for name in draw(st.lists(st.sampled_from(["extra", "zz", 7]), max_size=2, unique=True)):
            values[name] = 0
        order = draw(st.permutations(list(values)))
        rows.append({name: values[name] for name in order})
    return columns, rows


@settings(max_examples=200, deadline=None)
@given(_schema_and_rows())
def test_property_insert_checks_rows_like_the_reference(case):
    """``Table.insert`` keeps or refuses each row exactly as the reference check does.

    A kept row has the reference's keys in declaration order and holds each
    passed value object itself; a refused row raises the reference's exception
    type with its message, and leaves the table as it was.
    """
    columns, rows = case
    table = Table("t", columns)
    keys: set = set()
    for values in rows:
        try:
            expected = _reference_insert(table, keys, values)
        except (ValueError, TypeError, KeyError) as error:
            before = len(table)
            with pytest.raises(type(error)) as raised:
                table.insert(values)
            assert type(raised.value) is type(error)
            assert str(raised.value) == str(error)
            assert len(table) == before
            continue
        row = table.row_by_id(table.insert(values))
        assert list(row) == list(expected) == [column.name for column in columns]
        assert all(row[name] is expected[name] for name in expected)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=50))
def test_property_sum_and_count_aggregates(values):
    """SUM/COUNT/MIN/MAX agree with Python built-ins."""
    database = Database("prop")
    database.create_table(
        "t", [Column("id", ColumnType.INTEGER, primary_key=True), Column("v", ColumnType.INTEGER)]
    )
    for index, value in enumerate(values):
        database.table("t").insert({"id": index, "v": value})
    row = database.execute(
        "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM t"
    ).rows[0]
    assert row["n"] == len(values)
    assert row["s"] == sum(values)
    assert row["lo"] == min(values)
    assert row["hi"] == max(values)


# --------------------------------------------------------------------------- #
# Single-table SELECT fast path (PR 3 request-path satellite)
# --------------------------------------------------------------------------- #
class TestSelectFastPathEquivalence:
    """Join-free SELECTs through the compiled planner must be observably
    identical to the preserved seed executor — rows, rowcount, scan/cost
    accounting and error behaviour."""

    def build(self, database_class=Database) -> Database:
        database = database_class("fastpath")
        database.create_table(
            "item",
            [
                Column("i_id", ColumnType.INTEGER, primary_key=True),
                Column("i_title", ColumnType.VARCHAR),
                Column("i_subject", ColumnType.VARCHAR),
                Column("i_cost", ColumnType.FLOAT),
            ],
        )
        database.table("item").create_index("i_subject")
        for item_id in range(1, 13):
            database.table("item").insert(
                {
                    "i_id": item_id,
                    "i_title": f"Book {item_id:02d}" if item_id != 7 else None,
                    "i_subject": "ARTS" if item_id % 2 == 0 else "HISTORY",
                    "i_cost": float(item_id),
                }
            )
        return database

    QUERIES = [
        ("SELECT i_title FROM item WHERE i_id = ?", [3]),
        ("SELECT * FROM item WHERE i_subject = ?", ["ARTS"]),
        ("SELECT i_id, i_cost AS price FROM item WHERE i_cost >= ?", [6.5]),
        ("SELECT i_id FROM item WHERE i_subject = ? AND i_cost > ?", ["HISTORY", 4.0]),
        ("SELECT i_id FROM item WHERE i_title LIKE 'Book 0%'", []),
        ("SELECT i_id FROM item LIMIT 4", []),
        ("SELECT it.i_id FROM item it WHERE it.i_subject = ?", ["ARTS"]),
        ("SELECT i_id FROM item WHERE i_title = ?", [None]),
    ]

    @pytest.mark.parametrize("sql,params", QUERIES)
    def test_rows_and_accounting_match_generic(self, sql, params):
        fast_db = self.build()
        generic_db = self.build(make_seed_row_database_class())
        fast = fast_db.execute(sql, params)
        generic = generic_db.execute(sql, params)
        assert fast.rows == generic.rows
        assert fast.rowcount == generic.rowcount
        assert fast.rows_scanned == generic.rows_scanned
        assert fast.cost_seconds == generic.cost_seconds

    def test_star_rows_are_copies(self):
        database = self.build()
        result = database.execute("SELECT * FROM item WHERE i_id = ?", [1])
        result.rows[0]["i_title"] = "MUTATED"
        again = database.execute("SELECT * FROM item WHERE i_id = ?", [1])
        assert again.rows[0]["i_title"] == "Book 01"

    def test_error_behaviour_matches_generic(self):
        for database_class in (Database, make_seed_row_database_class()):
            database = self.build(database_class)
            with pytest.raises(SqlExecutionError):
                database.execute("SELECT missing FROM item")
            with pytest.raises(SqlExecutionError):
                database.execute("SELECT i_id FROM item WHERE bogus.i_id = ?", [1])

    def test_joins_and_aggregates_take_generic_path(self):
        database = self.build()
        # Aggregates and ORDER BY are generic-path features; the fast path
        # must defer to them transparently.
        count = database.execute("SELECT COUNT(*) AS n FROM item WHERE i_subject = ?", ["ARTS"])
        assert count.rows == [{"n": 6}]
        ordered = database.execute("SELECT i_id FROM item ORDER BY i_cost DESC LIMIT 2")
        assert [row["i_id"] for row in ordered.rows] == [12, 11]


# --------------------------------------------------------------------------- #
# LIKE semantics
# --------------------------------------------------------------------------- #
class TestLikeSemantics:
    """Only ``%`` and ``_`` are wildcards, through SELECT, UPDATE and DELETE.

    ``%`` spans newlines, matching is case-sensitive, a backslash is
    literal, non-``str`` values are matched through ``str()`` and NULL never
    matches.  The seed executor shares the engine's matcher.
    """

    CASES = [
        # fnmatch's own wildcards are plain characters.
        ("Whatever", "What?%", False),
        ("ab", "[ab]%", False),
        ("1000", "100*%", False),
        ("What?ever", "What?%", True),
        ("[ab]c", "[ab]%", True),
        ("100*0", "100*%", True),
        ("Book Title 12", "Book Title 1%", True),
        ("Book 12", "Book 1_", True),
        ("Book 1", "Book 1_", False),
        ("a\nb", "a%b", True),
        ("a\nb", "a_b", True),
        ("ABC", "abc", False),
        ("a\\b", "a\\b", True),
        ("ab", "a\\b", False),
        ("a.c", "a.c", True),
        ("abc", "a.c", False),
        ("", "%", True),
        (None, "%", False),
        ("x", None, False),
    ]

    @staticmethod
    def build(value, database_class=Database) -> Database:
        database = database_class("like")
        database.create_table(
            "t",
            [
                Column("id", ColumnType.INTEGER, primary_key=True),
                Column("s", ColumnType.VARCHAR),
                Column("n", ColumnType.INTEGER),
            ],
        )
        database.table("t").insert({"id": 1, "s": value, "n": 1000})
        return database

    @pytest.mark.parametrize("seed_executor", [False, True])
    @pytest.mark.parametrize("value,pattern,expected", CASES)
    def test_select(self, value, pattern, expected, seed_executor):
        database_class = make_seed_row_database_class() if seed_executor else Database
        database = self.build(value, database_class)
        result = database.execute("SELECT id FROM t WHERE s LIKE ?", [pattern])
        assert result.rowcount == int(expected)
        again = database.execute("SELECT id FROM t WHERE s LIKE ?", [pattern])
        assert again.rows == result.rows

    @pytest.mark.parametrize("value,pattern,expected", CASES)
    def test_update_and_delete(self, value, pattern, expected):
        database = self.build(value)
        updated = database.execute("UPDATE t SET n = ? WHERE s LIKE ?", [7, pattern])
        assert updated.rowcount == int(expected)
        deleted = database.execute("DELETE FROM t WHERE s LIKE ?", [pattern])
        assert deleted.rowcount == int(expected)
        assert len(database.table("t")) == 1 - int(expected)

    def test_literal_pattern_and_non_str_values(self):
        database = self.build("Whatever")
        assert database.execute("SELECT id FROM t WHERE s LIKE 'What?%'").rowcount == 0
        assert database.execute("SELECT id FROM t WHERE s LIKE 'What%'").rowcount == 1
        # Non-str values (and patterns) are matched through str().
        assert database.execute("SELECT id FROM t WHERE n LIKE '10%'").rowcount == 1
        assert database.execute("SELECT id FROM t WHERE n LIKE ?", [1000]).rowcount == 1
        assert database.execute("SELECT id FROM t WHERE n LIKE '100_'").rowcount == 1
        assert database.execute("UPDATE t SET s = ? WHERE n LIKE '1%'", ["x"]).rowcount == 1
