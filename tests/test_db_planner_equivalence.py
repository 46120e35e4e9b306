"""Planner equivalence suite: planned executor vs. the preserved seed executor.

The compiled planner (:mod:`repro.db.planner`) promises bit-identical
results to the interpreting executor it replaced: same rows, same row
*order*, same ``rows_scanned``/``index_lookups`` accounting and therefore
the same simulated cost — that is what keeps every seeded experiment
trajectory unchanged.  This suite drives both executors over the same table
storage and asserts exactly that, for

* every SELECT shape the TPC-W servlets issue (with representative
  parameters sampled from the population),
* a randomized corpus of generated statements — single-table, single-join
  and double-join along the schema's foreign keys, with mixed WHERE
  operators, ORDER BY ASC/DESC (including multi-key) and LIMIT, and
* both of those again after each of a sequence of writes (inserts, deletes,
  key and non-key updates, an index declared), which drive the plans' join
  memos through hits, catch-ups and rebuilds,
* the candidate probes (the join memo's groups for ``col = ?`` and the
  sorted keys for ``col LIKE 'prefix%'``) and the scan of an unindexed
  ``col = ?`` over rows that hold edge values, with writes to the probed
  columns between executions,
* the result memo: every check executes twice, so the repeat is a hit; a
  write to a column in any role a statement reads makes the next execution
  a miss; appends make the aggregates fold only the new rows and deletes
  make them refold; equal values that bind differently keep apart, and
* the servlet repertoire once more on a standard (paper-scale) population.

The reference implementation is ``perf/seed_reference``'s
``SeedRowHandlingDatabase`` (wrapper-dict rows, per-row column resolution),
which shares the planned database's tables so both sides see identical data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.engine import Database, SqlExecutionError
from repro.db.sql import ColumnRef, Condition, Parameter, SelectItem, SelectStatement, parse_sql
from repro.perf.seed_reference import make_seed_row_database_class
from repro.sim.random import RandomStreams
from repro.tpcw.population import PopulationScale, populate_database
from repro.tpcw.schema import SUBJECTS, create_tpcw_schema


def _recording_index_lookups(database):
    """``database``, with each statement's index lookups kept as it is charged."""
    account = database._account

    def recording(kind, rows, rowcount, scanned, index_lookups, inserts=0):
        database.last_index_lookups = index_lookups
        return account(kind, rows, rowcount, scanned, index_lookups, inserts)

    database._account = recording
    return database


def _pair_over(planned):
    """``planned`` and a seed-reference database sharing its tables."""
    seed = make_seed_row_database_class()("tpcw")
    # Sharing the Table objects guarantees identical data (and identical
    # internal row ids / index sets) on both sides, writes included.
    seed._tables = planned._tables
    return _recording_index_lookups(planned), _recording_index_lookups(seed)


def _database_pair():
    """(planned, seed-reference) databases sharing one populated table set."""
    planned = Database("tpcw")
    create_tpcw_schema(planned)
    populate_database(planned, scale=PopulationScale.tiny(), streams=RandomStreams(42))
    return _pair_over(planned)


@pytest.fixture(scope="module")
def databases():
    """One pair for the SELECT-only tests."""
    return _database_pair()


def _outcome(database, sql, params):
    """Everything an execution reports: rows in order, counts and cost."""
    result = database.execute(sql, list(params))
    return (
        result.rows, result.rowcount, result.rows_scanned, database.last_index_lookups,
        result.cost_seconds,
    )


def assert_equivalent(databases, sql, params=()):
    """The planned database reports what the seed does, twice running.

    The second execution is a plan-cache hit and, when the plan keeps a
    result memo and its parameters are keyable, a memo hit.
    """
    planned_db, seed_db = databases
    reference = _outcome(seed_db, sql, params)
    for _ in range(2):
        assert _outcome(planned_db, sql, params) == reference, sql


# --------------------------------------------------------------------------- #
# Servlet repertoire
# --------------------------------------------------------------------------- #
SERVLET_QUERIES = [
    # home
    ("SELECT c_fname, c_lname, c_discount FROM customer WHERE c_id = ?", [3]),
    (
        "SELECT i_related1, i_related2, i_related3, i_related4, i_related5 "
        "FROM item WHERE i_id = ?",
        [5],
    ),
    ("SELECT i_id, i_title, i_thumbnail, i_cost FROM item WHERE i_id = ?", [7]),
    ("SELECT COUNT(*) AS n FROM item", []),
    # product_detail / admin_request
    (
        "SELECT i_id, i_title, i_a_id, i_srp, i_cost, i_stock, i_desc, i_backing, "
        "i_pub_date, i_subject FROM item WHERE i_id = ?",
        [11],
    ),
    ("SELECT a_fname, a_lname, a_bio FROM author WHERE a_id = ?", [2]),
    ("SELECT i_id, i_title, i_cost, i_image, i_thumbnail FROM item WHERE i_id = ?", [4]),
    # search_results (three search modes)
    (
        "SELECT i_id, i_title, i_srp FROM item WHERE i_subject = ? "
        "ORDER BY i_title LIMIT 50",
        [SUBJECTS[0]],
    ),
    (
        "SELECT i.i_id, i.i_title, i.i_srp FROM item i "
        "JOIN author a ON i.i_a_id = a.a_id WHERE a_lname = ? "
        "ORDER BY i_title LIMIT 50",
        ["SMITH"],
    ),
    (
        "SELECT i_id, i_title, i_srp FROM item WHERE i_title LIKE ? "
        "ORDER BY i_title LIMIT 50",
        ["%the%"],
    ),
    (
        "SELECT i_id, i_title, i_srp FROM item WHERE i_title LIKE ? "
        "ORDER BY i_title LIMIT 50",
        ["Book Title 1%"],
    ),
    # new_products: the planner's top-k join shape
    (
        "SELECT i.i_id, i.i_title, i.i_pub_date, i.i_srp, a.a_fname, a.a_lname "
        "FROM item i JOIN author a ON i.i_a_id = a.a_id "
        "WHERE i_subject = ? ORDER BY i_pub_date DESC LIMIT 50",
        [SUBJECTS[1]],
    ),
    # best_sellers: double join + GROUP BY + aggregate ORDER BY
    (
        "SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, SUM(ol.ol_qty) AS sold "
        "FROM order_line ol "
        "JOIN item i ON ol.ol_i_id = i.i_id "
        "JOIN author a ON i.i_a_id = a.a_id "
        "WHERE i_subject = ? "
        "GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname "
        "ORDER BY sold DESC LIMIT 50",
        [SUBJECTS[2]],
    ),
    # order_display / order_inquiry
    ("SELECT c_id FROM customer WHERE c_uname = ?", ["user1"]),
    (
        "SELECT o_id, o_date, o_total, o_status, o_ship_type FROM orders "
        "WHERE o_c_id = ? ORDER BY o_date DESC LIMIT 1",
        [2],
    ),
    (
        "SELECT ol.ol_i_id, ol.ol_qty, i.i_title FROM order_line ol "
        "JOIN item i ON ol.ol_i_id = i.i_id WHERE ol_o_id = ?",
        [3],
    ),
    # buy_request / buy_confirm / registration
    (
        "SELECT c_id, c_fname, c_lname, c_addr_id, c_discount "
        "FROM customer WHERE c_uname = ?",
        ["user2"],
    ),
    (
        "SELECT addr_street1, addr_city, addr_state, addr_zip "
        "FROM address WHERE addr_id = ?",
        [1],
    ),
    (
        "SELECT scl.scl_i_id, scl.scl_qty, i.i_cost FROM shopping_cart_line scl "
        "JOIN item i ON scl.scl_i_id = i.i_id WHERE scl_sc_id = ?",
        [1],
    ),
    ("SELECT i_stock FROM item WHERE i_id = ?", [9]),
    ("SELECT MAX(o_id) AS max_id FROM orders", []),
    ("SELECT MAX(sc_id) AS max_id FROM shopping_cart", []),
    # admin_confirm
    (
        "SELECT ol_i_id, SUM(ol_qty) AS sold FROM order_line "
        "GROUP BY ol_i_id ORDER BY sold DESC LIMIT 5",
        [],
    ),
    # search_request banner
    ("SELECT i_id, i_title, i_thumbnail FROM item WHERE i_id = ?", [13]),
]


@pytest.mark.parametrize("sql,params", SERVLET_QUERIES)
def test_servlet_query_shapes_equivalent(databases, sql, params):
    assert_equivalent(databases, sql, params)


# --------------------------------------------------------------------------- #
# Randomized corpus
# --------------------------------------------------------------------------- #
#: Foreign-key edges of the TPC-W schema: (child, fk column, parent, pk).
FK_EDGES = [
    ("item", "i_a_id", "author", "a_id"),
    ("order_line", "ol_i_id", "item", "i_id"),
    ("order_line", "ol_o_id", "orders", "o_id"),
    ("orders", "o_c_id", "customer", "c_id"),
    ("customer", "c_addr_id", "address", "addr_id"),
    ("address", "addr_co_id", "country", "co_id"),
    ("shopping_cart_line", "scl_i_id", "item", "i_id"),
]

#: Columns worth filtering/ordering on per table (mixed types, some indexed,
#: some not — an unindexed equality or join exercises the scan path).
INTERESTING_COLUMNS = {
    "item": ["i_subject", "i_a_id", "i_cost", "i_srp", "i_stock", "i_title", "i_pub_date"],
    "author": ["a_lname", "a_fname"],
    "customer": ["c_uname", "c_discount", "c_addr_id", "c_lname"],
    "orders": ["o_c_id", "o_status", "o_total", "o_ship_type"],
    "order_line": ["ol_o_id", "ol_i_id", "ol_qty", "ol_discount"],
    "address": ["addr_state", "addr_co_id", "addr_city"],
    "country": ["co_name", "co_currency"],
    "shopping_cart_line": ["scl_sc_id", "scl_i_id", "scl_qty"],
}


def _sample_value(rng, table, column):
    """A probe value for ``column``: usually present in the data, sometimes not."""
    from repro.db.table import ColumnType

    rows = list(table.rows())
    if rows and rng.random() < 0.85:
        row = rows[int(rng.integers(0, len(rows)))]
        return row[column]
    # Miss probes: type-correct values unlikely to be present.
    if table.column(column).type is ColumnType.VARCHAR:
        return "ZZ-NO-SUCH"
    return int(rng.integers(10_000, 20_000))


def _render_value(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _random_statement(rng, database):
    """One generated SELECT: 0-2 joins, random filters, ORDER BY, LIMIT."""
    joins = int(rng.integers(0, 3))
    if joins == 0:
        base = list(INTERESTING_COLUMNS)[int(rng.integers(0, len(INTERESTING_COLUMNS)))]
        chain = []
    elif joins == 1:
        child, fk, parent, pk = FK_EDGES[int(rng.integers(0, len(FK_EDGES)))]
        base, chain = child, [(parent, pk, fk)]
    else:
        # order_line -> item -> author is the only natural two-hop chain.
        base = "order_line"
        chain = [("item", "i_id", "ol_i_id"), ("author", "a_id", "i_a_id")]

    alias = {0: base[0], 1: chain[0][0][0] if chain else "", 2: "x"}
    base_alias = "t0"
    names = [base] + [parent for parent, _, _ in chain]
    aliases = [f"t{i}" for i in range(len(names))]

    select_cols = []
    for idx, name in enumerate(names):
        cols = INTERESTING_COLUMNS.get(name) or database.table(name).column_names()
        picked = cols[int(rng.integers(0, len(cols)))]
        select_cols.append(f"{aliases[idx]}.{picked}")
    pk0 = database.table(base).primary_key
    select_cols.append(f"{aliases[0]}.{pk0}")

    sql = f"SELECT {', '.join(dict.fromkeys(select_cols))} FROM {base} {aliases[0]}"
    prev_alias = aliases[0]
    prev_table = base
    for idx, (parent, pk, fk) in enumerate(chain, start=1):
        sql += f" JOIN {parent} {aliases[idx]} ON {prev_alias}.{fk} = {aliases[idx]}.{pk}"
        prev_alias, prev_table = aliases[idx], parent

    params = []
    where_terms = []
    n_conditions = int(rng.integers(0, 3))
    for _ in range(n_conditions):
        target = int(rng.integers(0, len(names)))
        table_name = names[target]
        cols = INTERESTING_COLUMNS.get(table_name) or database.table(table_name).column_names()
        column = cols[int(rng.integers(0, len(cols)))]
        value = _sample_value(rng, database.table(table_name), column)
        op = ["=", "=", "<", ">", "<=", ">="][int(rng.integers(0, 6))]
        if isinstance(value, str) and rng.random() < 0.3:
            op = "LIKE"
            value = f"%{value[:2]}%" if value else "%"
        if op in ("<", ">", "<=", ">=") and not isinstance(value, (int, float)):
            op = "="
        if rng.random() < 0.5:
            where_terms.append(f"{aliases[target]}.{column} {op} ?")
            params.append(value)
        else:
            where_terms.append(f"{aliases[target]}.{column} {op} {_render_value(value)}")
    if where_terms:
        sql += " WHERE " + " AND ".join(where_terms)

    if rng.random() < 0.7:
        n_keys = 1 + int(rng.integers(0, 2))
        keys = []
        for _ in range(n_keys):
            target = int(rng.integers(0, len(names)))
            cols = INTERESTING_COLUMNS.get(names[target]) or database.table(
                names[target]
            ).column_names()
            column = cols[int(rng.integers(0, len(cols)))]
            direction = " DESC" if rng.random() < 0.5 else ""
            keys.append(f"{aliases[target]}.{column}{direction}")
        sql += " ORDER BY " + ", ".join(dict.fromkeys(keys))
    if rng.random() < 0.6:
        sql += f" LIMIT {int(rng.integers(0, 40))}"
    return sql, params


#: Numeric columns per table, for SUM/AVG (MIN/MAX/COUNT take any column).
AGG_NUMERIC_COLUMNS = {
    "item": ["i_cost", "i_srp", "i_stock"],
    "orders": ["o_total"],
    "order_line": ["ol_qty", "ol_discount"],
    "customer": ["c_discount"],
    "shopping_cart_line": ["scl_qty"],
}


def _random_aggregate_statement(rng, database):
    """One generated aggregate SELECT: GROUP BY 0-2 keys, 1-3 aggregates."""
    joins = int(rng.integers(0, 3))
    if joins == 0:
        base = list(AGG_NUMERIC_COLUMNS)[int(rng.integers(0, len(AGG_NUMERIC_COLUMNS)))]
        chain = []
    elif joins == 1:
        child, fk, parent, pk = FK_EDGES[int(rng.integers(0, len(FK_EDGES)))]
        base, chain = child, [(parent, pk, fk)]
    else:
        base = "order_line"
        chain = [("item", "i_id", "ol_i_id"), ("author", "a_id", "i_a_id")]
    names = [base] + [parent for parent, _, _ in chain]
    aliases = [f"t{i}" for i in range(len(names))]

    def _pick_column(target):
        cols = INTERESTING_COLUMNS.get(names[target]) or database.table(
            names[target]
        ).column_names()
        return cols[int(rng.integers(0, len(cols)))]

    group_refs = []
    for _ in range(int(rng.integers(0, 3))):
        target = int(rng.integers(0, len(names)))
        group_refs.append(f"{aliases[target]}.{_pick_column(target)}")
    group_refs = list(dict.fromkeys(group_refs))

    select_items = list(group_refs)
    order_candidates = [ref.split(".")[1] for ref in group_refs]
    numeric_targets = [
        (idx, column)
        for idx, name in enumerate(names)
        for column in AGG_NUMERIC_COLUMNS.get(name, [])
    ]
    for agg_index in range(1 + int(rng.integers(0, 3))):
        alias_name = f"agg{agg_index}"
        choice = int(rng.integers(0, 6))
        if choice == 0 or (choice in (2, 3) and not numeric_targets):
            select_items.append(f"COUNT(*) AS {alias_name}")
        elif choice == 1:
            target = int(rng.integers(0, len(names)))
            select_items.append(
                f"COUNT({aliases[target]}.{_pick_column(target)}) AS {alias_name}"
            )
        elif choice in (2, 3):
            function = "SUM" if choice == 2 else "AVG"
            target, column = numeric_targets[int(rng.integers(0, len(numeric_targets)))]
            select_items.append(f"{function}({aliases[target]}.{column}) AS {alias_name}")
        else:
            function = "MIN" if choice == 4 else "MAX"
            target = int(rng.integers(0, len(names)))
            select_items.append(
                f"{function}({aliases[target]}.{_pick_column(target)}) AS {alias_name}"
            )
        order_candidates.append(alias_name)

    sql = "SELECT " + ", ".join(select_items) + f" FROM {base} {aliases[0]}"
    prev_alias = aliases[0]
    for idx, (parent, pk, fk) in enumerate(chain, start=1):
        sql += f" JOIN {parent} {aliases[idx]} ON {prev_alias}.{fk} = {aliases[idx]}.{pk}"
        prev_alias = aliases[idx]

    params = []
    where_terms = []
    for _ in range(int(rng.integers(0, 3))):
        target = int(rng.integers(0, len(names)))
        column = _pick_column(target)
        value = _sample_value(rng, database.table(names[target]), column)
        op = ["=", "=", "<", ">", "<=", ">="][int(rng.integers(0, 6))]
        if op in ("<", ">", "<=", ">=") and not isinstance(value, (int, float)):
            op = "="
        if rng.random() < 0.5:
            where_terms.append(f"{aliases[target]}.{column} {op} ?")
            params.append(value)
        else:
            where_terms.append(f"{aliases[target]}.{column} {op} {_render_value(value)}")
    if where_terms:
        sql += " WHERE " + " AND ".join(where_terms)
    if group_refs:
        sql += " GROUP BY " + ", ".join(group_refs)
    if order_candidates and rng.random() < 0.8:
        key = order_candidates[int(rng.integers(0, len(order_candidates)))]
        direction = " DESC" if rng.random() < 0.5 else ""
        sql += f" ORDER BY {key}{direction}"
        if rng.random() < 0.6:
            sql += f" LIMIT {int(rng.integers(1, 30))}"
    return sql, params


@pytest.mark.parametrize("corpus_seed", [42, 7, 2026])
def test_randomized_statement_corpus_equivalent(databases, corpus_seed):
    planned_db, _ = databases
    rng = np.random.default_rng(corpus_seed)
    for _ in range(120):
        sql, params = _random_statement(rng, planned_db)
        assert_equivalent(databases, sql, params)


def _scans_unindexed(plan):
    """Whether a plan scans for a bound equality or a join without a declared index."""
    base = plan.base_table
    unindexed_equality = any(
        condition.op == "="
        and not isinstance(condition.rhs, ColumnRef)
        and base.has_column(condition.lhs.name)
        and not base.has_index(condition.lhs.name)
        for condition in plan.statement.where
    )
    return unindexed_equality or any(not step.use_index for step in plan.join_steps)


def test_corpus_exercises_topk_and_unindexed_paths(databases):
    """Sanity: the generated corpus hits top-k and the unindexed scans."""
    planned_db, _ = databases
    rng = np.random.default_rng(42)
    topk = unindexed = 0
    for _ in range(120):
        sql, params = _random_statement(rng, planned_db)
        planned_db.execute(sql, params)
        entry = planned_db._plan_cache.get(id(parse_sql(sql)))
        if entry is None:
            continue
        plan = entry[1]
        topk += bool(plan.topk_eligible)
        unindexed += _scans_unindexed(plan)
    assert topk > 5
    assert unindexed > 5


@pytest.mark.parametrize("corpus_seed", [13, 99, 1234])
def test_randomized_aggregate_corpus_equivalent(databases, corpus_seed):
    planned_db, _ = databases
    rng = np.random.default_rng(corpus_seed)
    for _ in range(80):
        sql, params = _random_aggregate_statement(rng, planned_db)
        assert_equivalent(databases, sql, params)


def test_aggregate_corpus_exercises_group_by(databases):
    """Sanity: the aggregate generator produces real GROUP BY + aggregate mix."""
    planned_db, _ = databases
    rng = np.random.default_rng(13)
    grouped = global_agg = 0
    for _ in range(80):
        sql, _params = _random_aggregate_statement(rng, planned_db)
        grouped += "GROUP BY" in sql
        global_agg += "GROUP BY" not in sql
    assert grouped > 10
    assert global_agg > 10


# --------------------------------------------------------------------------- #
# Writes between executions (the join memo)
# --------------------------------------------------------------------------- #
@pytest.fixture
def mutable_databases():
    """A fresh pair per test that writes (through the planned database)."""
    return _database_pair()


BEST_SELLERS = next(query for query in SERVLET_QUERIES if "SUM(ol.ol_qty)" in query[0])

#: A join whose new side is unindexed (a scan per row until ``c_addr_id``
#: gets a declared index).
REVERSE_JOIN = (
    "SELECT c.c_id, c.c_uname, a.addr_city FROM address a "
    "JOIN customer c ON a.addr_id = c.c_addr_id WHERE c.c_discount > ? "
    "ORDER BY c.c_uname LIMIT 20",
    [0.1],
)


def _one(database, sql, params=()):
    return database.execute(sql, list(params)).rows[0]


def _best_seller_item(database):
    """An item with order lines and the best-sellers subject."""
    return _one(
        database,
        "SELECT i.i_id, i.i_a_id FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id "
        "WHERE i_subject = ? ORDER BY ol.ol_id LIMIT 1",
        BEST_SELLERS[1],
    )


def _insert_order_line(database):
    next_id = _one(database, "SELECT MAX(ol_id) AS m FROM order_line")["m"] + 1
    database.execute(
        "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) "
        "VALUES (?, ?, ?, ?, ?, ?)",
        [next_id, 1, _best_seller_item(database)["i_id"], 1000, 0.0, "late order"],
    )


def _delete_order_line(database):
    first = _one(database, "SELECT ol_id FROM order_line ORDER BY ol_id LIMIT 1")["ol_id"]
    assert database.execute("DELETE FROM order_line WHERE ol_id = ?", [first]).rowcount == 1


def _update_item_author(database):
    item = _best_seller_item(database)
    other = _one(database, "SELECT a_id FROM author WHERE a_id != ? LIMIT 1", [item["i_a_id"]])
    database.execute("UPDATE item SET i_a_id = ? WHERE i_id = ?", [other["a_id"], item["i_id"]])


def _update_item_subject(database):
    other_subject = _one(
        database,
        "SELECT ol.ol_i_id FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id "
        "WHERE i_subject != ? ORDER BY ol.ol_id LIMIT 1",
        BEST_SELLERS[1],
    )
    database.execute(
        "UPDATE item SET i_subject = ? WHERE i_id = ?",
        [BEST_SELLERS[1][0], other_subject["ol_i_id"]],
    )


def _update_item_title(database):
    item = _best_seller_item(database)
    database.execute("UPDATE item SET i_title = ? WHERE i_id = ?", ["AAA Retitled", item["i_id"]])


def _insert_author(database):
    next_id = _one(database, "SELECT MAX(a_id) AS m FROM author")["m"] + 1
    database.execute(
        "INSERT INTO author (a_id, a_fname, a_lname, a_bio) VALUES (?, ?, ?, ?)",
        [next_id, "ANN", "SMITH", "new"],
    )


def _delete_author(database):
    author = _best_seller_item(database)["i_a_id"]
    assert database.execute("DELETE FROM author WHERE a_id = ?", [author]).rowcount == 1


def _index_join_column(database):
    database.table("customer").create_index("c_addr_id")


def _update_author_lname(database):
    """Move a best-seller's author into or out of the author search's group."""
    author = _one(
        database,
        "SELECT a_id, a_lname FROM author WHERE a_id = ?",
        [_best_seller_item(database)["i_a_id"]],
    )
    lname = "JONES" if author["a_lname"] == "SMITH" else "SMITH"
    database.execute("UPDATE author SET a_lname = ? WHERE a_id = ?", [lname, author["a_id"]])


#: ``(write, what best-sellers' next execution does with its join memo)``.
MUTATIONS = [
    (_insert_order_line, "catch_up"),
    (_delete_order_line, "rebuild"),
    (_update_item_author, "rebuild"),  # a join key
    (_update_item_subject, "hit"),  # filtered on, read live
    (_update_item_title, "hit"),  # projected, read live
    (_update_author_lname, "hit"),  # projected, read live
    (_insert_author, "rebuild"),
    (_delete_author, "rebuild"),
    (_index_join_column, "hit"),  # recompiles only the plans over customer
]


def _assert_repertoire_equivalent(databases):
    planned_db, _ = databases
    for sql, params in SERVLET_QUERIES + [REVERSE_JOIN]:
        assert_equivalent(databases, sql, params)
    rng = np.random.default_rng(42)
    for _ in range(120):
        sql, params = _random_statement(rng, planned_db)
        assert_equivalent(databases, sql, params)
    rng = np.random.default_rng(13)
    for _ in range(80):
        sql, params = _random_aggregate_statement(rng, planned_db)
        assert_equivalent(databases, sql, params)


def test_writes_interleaved_with_selects_equivalent(mutable_databases):
    _assert_repertoire_equivalent(mutable_databases)
    for mutate, _ in MUTATIONS:
        mutate(mutable_databases[0])
        _assert_repertoire_equivalent(mutable_databases)


def _plan(database, sql):
    entry = database._plan_cache.get(id(parse_sql(sql)))
    return None if entry is None else entry[1]


def _next_memo_outcome(database, sql, params):
    """Execute once; how that execution used the plan's join memo.

    A rebuild starts a new memo; a catch-up joins more base rows into the
    same one; a hit leaves it as it was.
    """
    plan = _plan(database, sql)
    memo = plan._join_memo if plan is not None else None
    next_row_id = memo.next_row_id if memo is not None else None
    database.execute(sql, list(params))
    after = _plan(database, sql)._join_memo
    if after is not memo:
        return "rebuild"
    return "hit" if after.next_row_id == next_row_id else "catch_up"


def test_write_sequence_reaches_hit_catch_up_and_rebuild(mutable_databases):
    """Sanity: the writes above drive the memo through every outcome."""
    planned_db, _ = mutable_databases
    assert _next_memo_outcome(planned_db, *BEST_SELLERS) == "rebuild"  # built from row 0
    assert _next_memo_outcome(planned_db, *BEST_SELLERS) == "hit"
    assert _plan(planned_db, BEST_SELLERS[0]).memoises_join
    planned_db.execute(*REVERSE_JOIN)
    reverse_plan = _plan(planned_db, REVERSE_JOIN[0])
    assert not reverse_plan.join_steps[0].use_index
    for mutate, expected in MUTATIONS:
        mutate(planned_db)
        assert _next_memo_outcome(planned_db, *BEST_SELLERS) == expected, mutate.__name__
    # The declared index recompiled the plan: a fresh memo over an index join.
    assert _next_memo_outcome(planned_db, *REVERSE_JOIN) == "rebuild"
    assert _plan(planned_db, REVERSE_JOIN[0]) is not reverse_plan
    assert _plan(planned_db, REVERSE_JOIN[0]).join_steps[0].use_index


# --------------------------------------------------------------------------- #
# Candidate probes over edge values, with writes to the probed columns
# --------------------------------------------------------------------------- #
NAN = float("nan")

#: ``i_srp`` values of the edge items: a FLOAT column holding ints and floats,
#: NULL, both zeros and NaN (one object stored twice, and another).
EDGE_SRPS = [None, -0.0, 0.0, 1, 1.0, 2.5, NAN, NAN, float("nan")]

#: ``i_title`` values of the edge items: wildcard and regex characters,
#: a newline, and keys around the largest code point.
EDGE_TITLES = [
    None, "", "Book (1).x", "Book_Title", "Book%Title", "a\\b", "line\nbreak",
    "Z\U0010ffffA", "Z\U0010ffff", "\U0010ffff\U0010ffff", "Book Title 1",
]

#: ``col = ?`` probe values: NULL (equal to NULL here), both zeros,
#: ``1``/``1.0``/``True``, NaN (the stored object and another), text, a miss
#: and an unhashable value.
EQ_PROBES = [None, -0.0, 0.0, 1, 1.0, True, 2.5, NAN, float("nan"), "1", 99.5, [1]]

#: ``col LIKE ?`` patterns: ``_`` in the literal part, a leading ``%``, the
#: empty and the NULL pattern, regex metacharacters, a newline, prefixes no
#: key has or past the last key, the largest code point, a non-text pattern.
LIKE_PATTERNS = [
    "Book Title 1%", "Book_Title%", "Book Title_1%", "%Title 1%", "", None,
    "Book (1).%", "Book (1).x", "Book%Title", "a\\b%", "a\\%", "line%",
    "Z\U0010ffff%", "\U0010ffff%", "Book Title 1", "NOSUCH%", "zzzz%", "B%", "_%", 1,
]

AUTHOR_SEARCH = next(query for query in SERVLET_QUERIES if "a_lname = ?" in query[0])[0]
TITLE_SEARCH = next(query for query in SERVLET_QUERIES if "Book Title 1%" in query[1])[0]

PROBE_QUERIES = (
    # The join memo's groups: the column on the base side, then the new side.
    [
        ("SELECT i.i_id, i.i_srp, a.a_lname FROM item i "
         "JOIN author a ON i.i_a_id = a.a_id WHERE i.i_srp = ?", [value])
        for value in EQ_PROBES
    ]
    + [
        ("SELECT i.i_id, a.a_lname FROM item i "
         "JOIN author a ON i.i_a_id = a.a_id WHERE a.a_lname = ?", [value])
        for value in [None, "SMITH", "smith", "NOSUCH", 1, [1]]
    ]
    + [(BEST_SELLERS[0], [value]) for value in [None, SUBJECTS[2], "NOSUCH"]]
    + [(AUTHOR_SEARCH, [value]) for value in [None, "SMITH", "smith"]]
    + [
        # Literal right-hand sides, a second equality, a column-to-column
        # equality before the bound one.
        ("SELECT i.i_id FROM item i JOIN author a ON i.i_a_id = a.a_id "
         "WHERE i.i_srp = 1", []),
        ("SELECT i.i_id FROM item i JOIN author a ON i.i_a_id = a.a_id "
         "WHERE i.i_srp = NULL", []),
        ("SELECT i.i_id FROM item i JOIN author a ON i.i_a_id = a.a_id "
         "WHERE i.i_srp = TRUE", []),
        ("SELECT i.i_id, i.i_srp FROM item i JOIN author a ON i.i_a_id = a.a_id "
         "WHERE a.a_lname = ? AND i.i_srp = ?", ["SMITH", 1.0]),
        ("SELECT i.i_id FROM item i JOIN author a ON i.i_a_id = a.a_id "
         "WHERE i.i_a_id = a.a_id AND i.i_srp = ? ORDER BY i.i_id DESC LIMIT 3", [0.0]),
    ]
    # An unindexed equality on a single table: a scan.
    + [("SELECT i_id, i_srp FROM item WHERE i_srp = ?", [value]) for value in EQ_PROBES]
    # The LIKE prefix probe: on text, on numbers, beside other terms.
    + [("SELECT i_id, i_title FROM item WHERE i_title LIKE ?", [value])
       for value in LIKE_PATTERNS]
    + [(TITLE_SEARCH, [value]) for value in LIKE_PATTERNS]
    + [
        ("SELECT i_id FROM item WHERE i_id LIKE '1%'", []),
        ("SELECT i_id FROM item WHERE i_id LIKE ?", [1]),
        ("SELECT i_id, i_srp FROM item WHERE i_srp LIKE ?", ["-0%"]),
        ("SELECT i_id, i_srp FROM item WHERE i_srp LIKE ?", ["1%"]),
        ("SELECT i_id, i_srp FROM item WHERE i_srp LIKE ?", ["nan"]),
        ("SELECT i_id FROM item WHERE i_title LIKE 'Book (1).%'", []),
        ("SELECT i_id FROM item WHERE i_title LIKE ? AND i_srp > ?", ["Book%", 1]),
        ("SELECT i_id FROM item WHERE i_srp > ? AND i_title LIKE ?", [1, "Book%"]),
        ("SELECT i_id FROM item WHERE i_title LIKE ? AND i_title LIKE ?", ["B%", "%1"]),
        ("SELECT COUNT(*) AS n FROM item WHERE i_title LIKE ?", ["Book Title 2%"]),
        ("SELECT i_subject, COUNT(*) AS n FROM item WHERE i_title LIKE ? "
         "GROUP BY i_subject ORDER BY n DESC", ["Book%"]),
    ]
)


def _edge_databases():
    """A tiny pair plus authors, items and order lines holding edge values."""
    planned, seed = _database_pair()
    author, item, order_line = (planned.table(name) for name in ("author", "item", "order_line"))
    first_author = max(row["a_id"] for row in author.rows()) + 1
    for offset, lname in enumerate([None, "SMITH", "smith"]):
        author.insert({"a_id": first_author + offset, "a_fname": "EDGE", "a_lname": lname})
    first_item = max(row["i_id"] for row in item.rows()) + 1
    next_line = max(row["ol_id"] for row in order_line.rows()) + 1
    subjects = [None, SUBJECTS[2], SUBJECTS[0]]
    for offset in range(2 * len(EDGE_TITLES)):
        i_id = first_item + offset
        item.insert({
            "i_id": i_id,
            "i_title": EDGE_TITLES[offset % len(EDGE_TITLES)],
            "i_a_id": first_author + offset % 4,  # first_author + 3 is no author
            "i_subject": subjects[offset % len(subjects)],
            "i_srp": EDGE_SRPS[offset % len(EDGE_SRPS)],
            "i_cost": 1.0,
        })
        for quantity in range(1, offset % 3 + 1):
            order_line.insert(
                {"ol_id": next_line, "ol_o_id": 1, "ol_i_id": i_id, "ol_qty": quantity}
            )
            next_line += 1
    return planned, seed


def _assert_probes_equivalent(databases):
    for sql, params in PROBE_QUERIES + SERVLET_QUERIES:
        assert_equivalent(databases, sql, params)


def _edge_item(database, title):
    return _one(database, "SELECT i_id FROM item WHERE i_title = ? LIMIT 1", [title])["i_id"]


def _retitle_edge_item(database):
    database.execute(
        "UPDATE item SET i_title = ? WHERE i_id = ?",
        ["Book Title 1 retitled", _edge_item(database, "Book (1).x")],
    )


def _resubject_edge_items(database):
    for title, subject in (("Book_Title", SUBJECTS[2]), ("Book%Title", None)):
        database.execute(
            "UPDATE item SET i_subject = ? WHERE i_id = ?", [subject, _edge_item(database, title)]
        )


def _reprice_edge_items(database):
    for title, srp in (("line\nbreak", 1.0), ("Book Title 1", NAN), ("a\\b", None)):
        database.execute(
            "UPDATE item SET i_srp = ? WHERE i_id = ?", [srp, _edge_item(database, title)]
        )


def _rename_edge_authors(database):
    for old, new in (("smith", "SMITH"), ("SMITH", None)):
        database.execute("UPDATE author SET a_lname = ? WHERE a_lname = ?", [new, old])


def _order_edge_item(database):
    next_id = _one(database, "SELECT MAX(ol_id) AS m FROM order_line")["m"] + 1
    database.execute(
        "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?, ?)",
        [next_id, 2, _edge_item(database, "Book_Title"), 500],
    )


def _insert_edge_item(database):
    next_id = _one(database, "SELECT MAX(i_id) AS m FROM item")["m"] + 1
    database.execute(
        "INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_srp) VALUES (?, ?, ?, ?, ?)",
        [next_id, "Book Title 1 new", 1, SUBJECTS[2], 1],
    )


def _delete_edge_item(database):
    assert database.execute(
        "DELETE FROM item WHERE i_id = ?", [_edge_item(database, "Book Title 1")]
    ).rowcount == 1


#: Writes to the grouped and probed columns only, then appends and deletes.
PROBE_WRITES = [
    _retitle_edge_item,
    _resubject_edge_items,
    _reprice_edge_items,
    _rename_edge_authors,
    _order_edge_item,
    _insert_edge_item,
    _delete_order_line,
    _delete_edge_item,
]


def test_probes_equivalent_over_edge_values_with_writes_between():
    databases = _edge_databases()
    _assert_probes_equivalent(databases)
    for write in PROBE_WRITES:
        write(databases[0])
        _assert_probes_equivalent(databases)


def test_probes_visit_candidates_and_follow_writes():
    """Sanity: the probes narrow the rows visited and track the data versions."""
    planned_db, _ = databases = _edge_databases()
    planned_db.execute(*BEST_SELLERS)
    plan = _plan(planned_db, BEST_SELLERS[0])
    memo = plan._join_memo
    assert plan._group_probe is not None
    assert memo.grouped == len(memo.rows)
    assert 0 < len(memo.groups[BEST_SELLERS[1][0]]) < len(memo.rows)
    # A catch-up appends to the groups; a residual-column update regroups.
    _order_edge_item(planned_db)
    planned_db.execute(*BEST_SELLERS)
    assert plan._join_memo is memo and memo.grouped == len(memo.rows)
    version = memo.group_version
    _resubject_edge_items(planned_db)
    planned_db.execute(*BEST_SELLERS)
    assert plan._join_memo is memo and memo.group_version != version
    # The LIKE probe's sorted keys follow the title's version.
    planned_db.execute(TITLE_SEARCH, ["Book Title 1%"])
    assert _plan(planned_db, TITLE_SEARCH)._like_probe is not None
    stamp = planned_db.table("item")._sorted_keys["i_title"][0]
    _retitle_edge_item(planned_db)
    assert_equivalent(databases, TITLE_SEARCH, ["Book Title 1%"])
    assert planned_db.table("item")._sorted_keys["i_title"][0] != stamp


@pytest.mark.parametrize(
    "sql,expected",
    [
        (BEST_SELLERS[0], 1),
        (AUTHOR_SEARCH, 1),
        (TITLE_SEARCH, 1),
        # The count is the statement's, whichever term a probe binds first.
        ("SELECT i_id FROM item WHERE i_srp > ? AND i_title LIKE ?", 2),
        ("SELECT i_id FROM item WHERE i_title LIKE ? AND i_srp = ?", 2),
    ],
)
def test_missing_parameter_raises_before_any_probe(databases, sql, expected):
    planned_db, _ = databases
    with pytest.raises(SqlExecutionError, match=f"expects at least {expected} parameters"):
        planned_db.execute(sql, [])


@pytest.mark.parametrize(
    "sql,params,expected",
    [
        # No row reaches the bound term, so executing it would never bind it.
        ("SELECT i_id FROM item WHERE i_cost > 100000 AND i_srp < ?", [], 1),
        ("UPDATE item SET i_cost = ? WHERE i_cost > 100000 AND i_srp < ?", [1.0], 2),
        ("DELETE FROM item WHERE i_cost > 100000 AND i_srp < ?", [], 1),
    ],
)
def test_too_few_parameters_fail_in_every_executor(databases, sql, params, expected):
    for database in databases:
        with pytest.raises(
            SqlExecutionError,
            match=f"^statement expects at least {expected} parameters, got {len(params)}$",
        ):
            database.execute(sql, params)


def test_hand_built_statement_counts_its_parameters(databases):
    planned_db, seed_db = databases
    statement = SelectStatement(
        items=[SelectItem(ColumnRef("i_title"))],
        star=False,
        table="item",
        alias=None,
        where=[Condition(ColumnRef("i_cost"), ">", Parameter(1))],
    )
    assert statement.parameter_count is None
    for database in databases:
        with pytest.raises(SqlExecutionError, match="expects at least 2 parameters, got 1"):
            database.execute(statement, [None])
    parsed = planned_db.execute("SELECT i_title FROM item WHERE i_cost > ?", [10.0])
    assert planned_db.execute(statement, [None, 10.0]).rows == parsed.rows
    assert seed_db.execute(statement, [None, 10.0]).rows == parsed.rows


# --------------------------------------------------------------------------- #
# The primary-key probe
# --------------------------------------------------------------------------- #
#: The probed item (the write sequence updates, then deletes it) and an id
#: no item has until the write sequence inserts it.
PK_ROW, PK_NEW = 1, 10_000
PK_READ = "SELECT i_id, i_title, i_srp FROM item WHERE i_id = ?"

#: Reads that take the probe: the key bound to NULL, NaN, ``1``/``1.0``/
#: ``True``, text, a missing id and an unhashable value, a literal key, and
#: ``SELECT *``.
PK_PROBE_QUERIES = [
    (PK_READ, [value])
    for value in [None, NAN, PK_ROW, float(PK_ROW), True, "1", PK_NEW, 5, [PK_ROW]]
] + [
    ("SELECT i_title, i_cost FROM item WHERE i_id = 5", []),
    ("SELECT * FROM item WHERE i_id = ?", [PK_ROW]),
    ("SELECT i.i_title FROM item i WHERE i.i_id = ?", [PK_NEW]),
]

#: The same key with something the probe must not skip: a residual that
#: drops the row, ORDER BY, LIMIT 0, an aggregate, a second key condition.
PK_NOT_PROBE_QUERIES = [
    ("SELECT i_id, i_title FROM item WHERE i_id = ? AND i_cost > ?", [PK_ROW, 1e9]),
    ("SELECT i_id, i_title FROM item WHERE i_id = ? AND i_cost < ?", [PK_ROW, 1e9]),
    ("SELECT i_id FROM item WHERE i_id = ? ORDER BY i_title DESC", [PK_ROW]),
    ("SELECT i_id FROM item WHERE i_id = ? LIMIT 0", [PK_ROW]),
    ("SELECT COUNT(*) AS n FROM item WHERE i_id = ?", [PK_ROW]),
    ("SELECT i_id FROM item WHERE i_id = ? AND i_id = ?", [PK_ROW, 5]),
    ("SELECT i.i_id, a.a_lname FROM item i JOIN author a ON i.i_a_id = a.a_id "
     "WHERE i.i_id = ?", [PK_ROW]),
]


def _assert_equivalent_or_same_error(databases, sql, params):
    """Same result from both executors, or the same exception type."""
    errors = []
    for database in databases:
        try:
            database.execute(sql, list(params))
        except Exception as error:  # whichever type: both must raise the same
            errors.append(type(error))
    if errors:
        assert len(errors) == 2 and errors[0] is errors[1], (sql, params, errors)
    else:
        assert_equivalent(databases, sql, params)


def _insert_pk_new(database):
    database.execute(
        "INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_srp, i_cost) "
        "VALUES (?, ?, ?, ?, ?, ?)",
        [PK_NEW, "Book Title new", 1, SUBJECTS[0], 9.5, 3.0],
    )


def _retitle_pk_rows(database):
    for i_id in (PK_ROW, 5, PK_NEW):
        assert database.execute(
            "UPDATE item SET i_title = ?, i_srp = ? WHERE i_id = ?", [f"retitled {i_id}", 0.5, i_id]
        ).rowcount == 1


def _delete_pk_row(database):
    assert database.execute("DELETE FROM item WHERE i_id = ?", [PK_ROW]).rowcount == 1


def test_pk_probe_equivalent_with_writes_between():
    databases = _database_pair()
    for write in [None, _insert_pk_new, _retitle_pk_rows, _delete_pk_row]:
        if write is not None:
            write(databases[0])
        for sql, params in PK_PROBE_QUERIES + PK_NOT_PROBE_QUERIES:
            _assert_equivalent_or_same_error(databases, sql, params)


def test_pk_probe_taken_only_by_single_key_reads():
    planned_db, _ = _database_pair()
    for queries, takes_probe in ((PK_PROBE_QUERIES, True), (PK_NOT_PROBE_QUERIES, False)):
        for sql, params in queries:
            if params != [[PK_ROW]]:  # the unhashable key raises (below)
                planned_db.execute(sql, params)
            assert _plan(planned_db, sql).pk_probe is takes_probe, sql
    # The probe charges one index lookup and the row it finds.
    found = planned_db.execute(PK_READ, [PK_ROW])
    missing = planned_db.execute(PK_READ, [PK_NEW])
    assert (found.rowcount, found.rows_scanned) == (1, 1)
    assert (missing.rowcount, missing.rows_scanned) == (0, 0)
    model = planned_db.cost_model
    assert missing.cost_seconds == model.base_seconds + model.per_index_lookup
    with pytest.raises(TypeError):
        planned_db.execute(PK_READ, [[PK_ROW]])


def test_servlet_repertoire_equivalent_at_paper_scale():
    planned = Database("tpcw")
    create_tpcw_schema(planned)
    populate_database(planned, scale=PopulationScale.standard(), streams=RandomStreams(1))
    databases = _pair_over(planned)
    for sql, params in SERVLET_QUERIES:
        assert_equivalent(databases, sql, params)
    # A best-sellers group holds a small share of the memo's rows.
    memo = _plan(planned, BEST_SELLERS[0])._join_memo
    assert len(memo.groups[BEST_SELLERS[1][0]]) * 10 < len(memo.rows)


# --------------------------------------------------------------------------- #
# The result memo and the aggregates' fold catch-up
# --------------------------------------------------------------------------- #
ADMIN_CONFIRM = next(query for query in SERVLET_QUERIES if "GROUP BY ol_i_id" in query[0])


def _counting_runs(plan):
    """Count the executions of ``plan`` that miss its result memo."""
    runs = []
    run = plan._run

    def counting(*args):
        runs.append(args)
        return run(*args)

    plan._run = counting
    return runs


def _counting_folds(plan):
    """Count the rows ``plan`` folds into its aggregate states."""
    folded = []
    new_state, fold = plan._new_state_fn, plan._fold_fn

    def counting_new_state(row):
        folded.append(row)
        return new_state(row)

    def counting_fold(state, row):
        folded.append(row)
        fold(state, row)

    plan._new_state_fn, plan._fold_fn = counting_new_state, counting_fold
    return folded


def _executed_plan(database, sql, params):
    database.execute(sql, list(params))
    return _plan(database, sql)


def test_repeats_over_unchanged_data_are_memo_hits(mutable_databases):
    planned_db, _ = mutable_databases
    for sql, params in SERVLET_QUERIES:
        plan = _executed_plan(planned_db, sql, params)
        if plan.pk_probe:
            continue
        runs = _counting_runs(plan)
        assert_equivalent(mutable_databases, sql, params)
        assert runs == [], sql


def _item_ids(database, sql, params):
    return [row["i_id"] for row in database.execute(sql, list(params)).rows]


ROLE_SUBJECT = "COOKING"

#: One statement per role a column plays, and a write to that column only
#: which changes the statement's result.  ``(role, sql, params, write)``.
ROLE_PROBES = [
    (
        "projected",
        "SELECT i_id, i_stock FROM item WHERE i_subject = ? ORDER BY i_id LIMIT 20",
        [ROLE_SUBJECT],
        lambda db: db.execute(
            "UPDATE item SET i_stock = ? WHERE i_id = ?",
            [9_999, _item_ids(db, "SELECT i_id FROM item WHERE i_subject = ?", [ROLE_SUBJECT])[0]],
        ),
    ),
    (
        "filtered",
        "SELECT i_id, i_title FROM item WHERE i_srp > ? ORDER BY i_id",
        [50],
        lambda db: db.execute(
            "UPDATE item SET i_srp = ? WHERE i_id = ?",
            [1e6, _item_ids(db, "SELECT i_id FROM item WHERE i_srp <= ? ORDER BY i_id", [50])[0]],
        ),
    ),
    (
        "ordered by",
        "SELECT i_id FROM item WHERE i_subject = ? ORDER BY i_pub_date DESC LIMIT 2",
        [ROLE_SUBJECT],
        lambda db: db.execute(
            "UPDATE item SET i_pub_date = ? WHERE i_id = ?",
            [
                2e9,
                _item_ids(
                    db, "SELECT i_id FROM item WHERE i_subject = ? ORDER BY i_pub_date LIMIT 1",
                    [ROLE_SUBJECT],
                )[0],
            ],
        ),
    ),
    (
        "grouped by",
        "SELECT COUNT(*) AS n FROM order_line GROUP BY ol_discount",
        [],
        lambda db: db.execute("UPDATE order_line SET ol_discount = ? WHERE ol_id = ?", [0.25, 1]),
    ),
    (
        "aggregated",
        ADMIN_CONFIRM[0],
        ADMIN_CONFIRM[1],
        lambda db: db.execute("UPDATE order_line SET ol_qty = ? WHERE ol_id = ?", [1_000, 2]),
    ),
    (
        "join key",
        "SELECT i.i_id, a.a_fname FROM item i JOIN author a ON i.i_a_id = a.a_id "
        "ORDER BY i.i_id LIMIT 10",
        [],
        lambda db: db.execute(
            "UPDATE item SET i_a_id = ? WHERE i_id = ?",
            [_item_ids(db, "SELECT i_a_id AS i_id FROM item WHERE i_id = ?", [2])[0], 1],
        ),
    ),
]


def _insert_order_lines(database, item_ids, quantity=3):
    """Append one order line per item id, as ``buy_confirm`` does."""
    next_id = _one(database, "SELECT MAX(ol_id) AS m FROM order_line")["m"] + 1
    for offset, item_id in enumerate(item_ids):
        database.execute(
            "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            [next_id + offset, 1, item_id, quantity, 0.0, "appended"],
        )


def test_an_update_of_any_column_shows_in_every_statement(mutable_databases):
    """Each interesting column updated in turn, the repertoire checked after each."""
    planned_db, _ = mutable_databases
    rng = np.random.default_rng(11)
    _assert_repertoire_equivalent(mutable_databases)
    for table_name, columns in INTERESTING_COLUMNS.items():
        table = planned_db.table(table_name)
        rows = list(table.rows())
        for column in columns if rows else ():
            target = rows[int(rng.integers(0, len(rows)))][table.primary_key]
            planned_db.execute(
                f"UPDATE {table_name} SET {column} = ? WHERE {table.primary_key} = ?",
                [_sample_value(rng, table, column), target],
            )
            _assert_repertoire_equivalent(mutable_databases)


def test_a_write_to_a_read_column_misses_and_the_repeat_hits(mutable_databases):
    """Each role a column plays moves the stamp; the next repeat hits again."""
    planned_db, seed_db = mutable_databases
    for role, sql, params, write in ROLE_PROBES:
        before = _outcome(seed_db, sql, params)
        assert_equivalent(mutable_databases, sql, params)
        runs = _counting_runs(_plan(planned_db, sql))
        write(planned_db)
        assert _outcome(seed_db, sql, params) != before, role  # the write shows
        assert_equivalent(mutable_databases, sql, params)
        assert len(runs) == 1, role


def test_aggregates_catch_up_after_an_insert_and_refold_after_a_delete(mutable_databases):
    """Both aggregate shapes: the memoised join and the single-table scan."""
    planned_db, _ = mutable_databases
    for sql, params in (BEST_SELLERS, ADMIN_CONFIRM):
        assert_equivalent(mutable_databases, sql, params)
        entry = _plan(planned_db, sql)._memo[tuple(params)]
        states, folded = entry.states, entry.folded
        _insert_order_lines(planned_db, [_best_seller_item(planned_db)["i_id"]] * 2)
        assert_equivalent(mutable_databases, sql, params)
        assert entry.states is states and entry.folded == folded + 2, sql  # caught up
        _delete_order_line(planned_db)
        assert_equivalent(mutable_databases, sql, params)
        assert entry.states is not states, sql  # refolded


def test_best_sellers_folds_only_the_appended_group_rows(mutable_databases):
    planned_db, _ = mutable_databases
    subject = BEST_SELLERS[1][0]
    item = _best_seller_item(planned_db)["i_id"]
    other = _one(planned_db, "SELECT i_id FROM item WHERE i_subject != ? LIMIT 1", [subject])
    plan = _executed_plan(planned_db, *BEST_SELLERS)
    folded = _counting_folds(plan)
    counts = []
    for _ in range(3):
        # Three lines in the group, two outside it.
        _insert_order_lines(planned_db, [item, other["i_id"], item, other["i_id"], item])
        del folded[:]
        assert_equivalent(mutable_databases, *BEST_SELLERS)
        counts.append(len(folded))
    assert counts == [3, 3, 3]
    # The scan aggregate folds every appended line, and only those.
    plan = _executed_plan(planned_db, *ADMIN_CONFIRM)
    folded = _counting_folds(plan)
    _insert_order_lines(planned_db, [item, other["i_id"]])
    assert_equivalent(mutable_databases, *ADMIN_CONFIRM)
    assert len(folded) == 2


def test_best_sellers_catch_up_finalizes_only_the_groups_it_folded_into(mutable_databases):
    """Appends touch a kept group, start a new one, tie two sums, miss the subject."""
    planned_db, _ = mutable_databases
    subject = BEST_SELLERS[1][0]
    kept = _best_seller_item(planned_db)["i_id"]
    sold = {row["i_id"]: row["sold"] for row in planned_db.execute(*BEST_SELLERS).rows}
    fresh = next(
        row["i_id"]
        for row in planned_db.execute("SELECT i_id FROM item WHERE i_subject = ?", [subject]).rows
        if row["i_id"] not in sold
    )
    other = _one(planned_db, "SELECT i_id FROM item WHERE i_subject != ? LIMIT 1", [subject])
    plan = _executed_plan(planned_db, *BEST_SELLERS)
    finalized = []
    finalize = plan._finalize

    def counting_finalize(state):
        finalized.append(state)
        return finalize(state)

    plan._finalize = counting_finalize
    appends = [
        ([kept], 3, 1),  # folds into a kept group
        ([fresh], 2, 1),  # starts a new group
        ([fresh], sold[kept] + 1, 1),  # ties the two groups' sums
        ([other["i_id"]], 4, 0),  # outside the subject: no group changes
    ]
    for item_ids, quantity, refinalized in appends:
        _insert_order_lines(planned_db, item_ids, quantity)
        del finalized[:]
        assert_equivalent(mutable_databases, *BEST_SELLERS)
        assert len(finalized) == refinalized, (item_ids, quantity)
    rows = planned_db.execute(*BEST_SELLERS).rows
    # The tie keeps first-seen group order, as the seed executor's stable sort.
    assert [row["i_id"] for row in rows[:2]] == [kept, fresh]
    assert rows[0]["sold"] == rows[1]["sold"]


#: Values that compare equal but bind differently to ``LIKE``: each is bound
#: twice, in one sequence, so a memo keyed on ``==`` alone would answer the
#: later ones with an earlier one's rows.
EQUAL_BUT_DISTINCT = [1, 1.0, True, 1, 0.0, -0.0, 0.0, "1", 1]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT i_id, i_srp FROM item WHERE i_srp LIKE ?",
        "SELECT i_id, i_srp FROM item WHERE i_srp = ?",
        "SELECT i.i_id, i.i_srp, a.a_lname FROM item i "
        "JOIN author a ON i.i_a_id = a.a_id WHERE i.i_srp = ?",
        "SELECT COUNT(*) AS n, SUM(i_cost) AS cost FROM item WHERE i_srp LIKE ?",
    ],
)
def test_equal_values_that_bind_differently_share_no_memo_entry(sql):
    databases = _edge_databases()
    for value in EQUAL_BUT_DISTINCT:
        assert_equivalent(databases, sql, [value])
    keys = set(_plan(databases[0], sql)._memo)
    assert keys == {(1,), ("1",)}


def test_a_plans_memo_stays_within_its_bound(mutable_databases):
    from repro.db.planner import _MEMO_LIMIT

    planned_db, _ = mutable_databases
    sql = "SELECT i_id, i_title FROM item WHERE i_title LIKE ? ORDER BY i_title LIMIT 5"
    for index in range(_MEMO_LIMIT + 40):
        assert_equivalent(mutable_databases, sql, [f"Book {index}%"])
        assert 0 < len(_plan(planned_db, sql)._memo) <= _MEMO_LIMIT


def test_an_execution_that_raises_keeps_nothing(mutable_databases):
    planned_db, _ = mutable_databases
    sql = "SELECT ol_i_id, ol_qty, COUNT(*) AS n FROM order_line GROUP BY ol_i_id"
    for _ in range(2):
        with pytest.raises(SqlExecutionError, match="must appear in GROUP BY"):
            planned_db.execute(sql)
        assert _plan(planned_db, sql)._memo == {}
