"""Compiled SELECT plans: index joins, top-k ORDER BY + LIMIT, tuple rows.

The executor in :mod:`repro.db.engine` used to interpret the SELECT AST
afresh on every call: name resolution per statement, a ``{qualifier: row}``
wrapper dict allocated per joined row, full projection of every surviving
row and a full sort before LIMIT.  The servlets issue a fixed repertoire of
parameterised statements, so all of that interpretive work is loop-invariant
across executions.  This module compiles each SELECT **once** into a
:class:`CompiledSelect` — name resolution, join sides, filters, projection
and order keys all resolved against the table schemas at compile time and
emitted as specialised closures — and the engine caches the plan per
statement (keyed like the ``parse_sql`` statement cache, invalidated by
table/schema versioning).

Operator highlights:

* **Tuple intermediate rows** — joined rows travel as plain tuples of the
  underlying table row dicts; merged wrapper dicts are only materialised for
  rows that survive ORDER BY/LIMIT.
* **Top-k ORDER BY + LIMIT** — when every ORDER BY key runs in the same
  direction, ``heapq.nsmallest``/``nlargest`` select the LIMIT rows without
  sorting (or projecting) the full candidate set.  Both are stable in the
  ``sorted(...)[:n]`` sense, so ties order exactly like the full sort.
* **Compiled row functions** — projections, group keys, filters and order
  keys are generated as tiny lambdas over the execution rows, so the
  per-row inner loops carry no interpretive dispatch.  A ``LIKE`` pattern
  is compiled once per execution into a matcher (the engine's
  :func:`~repro.db.engine.like_matcher`) and bound like any parameter.
* **Join memo** — a join over a full-scan base does not depend on the
  query's parameters, so the plan keeps its joined tuple rows, with the
  ``scanned``/``index_lookups`` they charged, between executions.  The memo
  is stamped with the data versions it was built from
  (:class:`~repro.db.table.Table` keeps them): the base's delete count,
  every joined table's row-set version and the versions of the join-key
  columns on both sides.  A matching stamp reuses the memo; if the base
  only grew by appends, its new tail is joined and appended; any other
  change rebuilds the memo from row 0.  The residual filter, aggregation,
  ORDER BY/LIMIT and projection run over the live row dicts, so an update to
  a non-key column leaves the join memo valid.  A base narrowed by
  declared-index conditions depends on the parameters and is joined afresh
  each time.  The memo lives and dies with its plan.
* **Result memo** — every plan but the primary-key probe keeps its result
  per parameter tuple: the result rows and the ``scanned``/``index_lookups``
  their execution charged, stamped with the data versions they were read
  from.  The stamp holds the row-set version of every table the plan reads,
  the base's delete count, and the version of every column the statement
  names (select list, WHERE, JOIN ON, GROUP BY, ORDER BY and aggregate
  arguments; every column for ``SELECT *``).  A repeat whose stamp matches
  (a *hit*) returns a new list of the kept row dicts, which callers only
  read, with the kept counters.  Only ``int``, ``str`` and NULL values are
  keys: ``1``, ``1.0`` and ``True`` are one dict key but ``LIKE`` binds
  their distinct ``str()``, so a statement binding another type runs without
  the memo.  An execution that raises keeps nothing, ``_MEMO_LIMIT`` entries
  bound each plan's memo, and the memo lives and dies with its plan.
* **Aggregates** — one streaming fold pass keeps a compiled accumulator per
  group, in first-seen group order, in the result memo's entry.  While only
  base appends happened since (the stamp past the base's row-set version
  holds), a miss folds just the candidates past those it folded: a memoised
  join's new group rows or a single-table scan's new base rows, after the
  earlier ones, as a fresh fold would, so float sums, MIN/MAX ties and group
  order stay bit-identical (a *catch-up*).  Any other change refolds, and an
  index-narrowed aggregate folds afresh on every miss.  A GROUP BY whose
  ORDER BY keys all run one way picks its LIMIT states with the top-k
  selector over the sort's keys and builds result dicts for those only.
* **Candidate probes** — a full-scan plan visits only the rows that can
  match its first bound ``col = ?`` or ``col LIKE ?`` residual, and the
  full compiled predicate still decides on each of them, so NULL, NaN,
  ``-0.0``, ``1``/``1.0``/``True`` and ``str()`` of non-text values land
  where ``==`` and ``like_matcher`` put them.  The join memo also keeps its
  rows grouped by the ``=`` column's value (the column may sit on any side
  of the join), in memo order: a catch-up appends its tail to the groups,
  and an update of the column — which leaves the memo's stamp valid —
  regroups it.  A single-table scan with no declared-index condition probes
  a ``LIKE`` pattern's literal prefix (its characters before the first
  ``%`` or ``_``) in the table's sorted ``str()`` keys
  (:meth:`repro.db.table.Table.prefix_row_ids`), which are stamped with the
  table's row-set version and the column's version.  Both yield their
  candidates in scan order; a pattern with no literal prefix scans.
* **Primary-key probe** — most statements the servlets send read one row
  by its primary key.  A plan whose whole WHERE is one ``pk = ?`` (or
  ``pk = literal``) over one table, with no aggregate, GROUP BY, ORDER BY
  or LIMIT, runs as one ``_pk_index`` probe through its compiled parameter
  slot and projects at most one row.  It charges what the declared-index
  path charges: one index lookup, and rows scanned equal to the rows found.

**Cost-model neutrality.**  The engine's simulated latency model charges the
*declared* access plan (what the paper-era MySQL would have done with the
schema's indexes), and experiment trajectories depend on those simulated
costs.  An equality or join on a column without a declared index is a full
scan, and the plan runs it as one, in ascending row-id order: the
interpreter's scan, charged ``len(table)`` rows per scan.  Declared-index
paths reproduce the interpreter's set-intersection lookups verbatim.  The
join memo charges what a fresh scan and join would: its rows and counters
are exactly those, in the same order, for the data its stamp names.  The
candidate probes charge the same: the ``scanned``/``index_lookups`` of the
scan or memo they narrow, whatever rows they skip.  A result-memo hit
charges what its miss charged, for the data its stamp names, and a fold
catch-up charges the whole scan and join it stands for, not the rows it
folds.  As a result every query returns bit-identical rows, row order,
``rows_scanned``/``index_lookups`` counters and simulated cost — asserted by
the planner equivalence suite, with writes between executions included.
"""

from __future__ import annotations

import functools
import heapq
import re
from itertools import islice
from types import CodeType
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.engine import SqlExecutionError, like_matcher
from repro.db.sql import Aggregate, ColumnRef, Condition, Parameter, SelectStatement
from repro.db.table import Table

#: A ``LIKE`` pattern's literal prefix: its characters before the first
#: wildcard.
_LIKE_PREFIX = re.compile(r"[^%_]*")

#: Parameter types whose equal values bind identically.  ``1``, ``1.0`` and
#: ``True`` are one dict key, and so are ``0.0`` and ``-0.0``, but ``LIKE``
#: binds their distinct ``str()``; a statement binding any other type runs
#: without the result memo.
_KEYABLE = frozenset((int, str, type(None)))

#: Result-memo entries per plan.  The servlets bind a few dozen distinct
#: values per listing statement; an overflow means ad-hoc churn, so the
#: memo starts over (like the database's plan cache).
_MEMO_LIMIT = 256


@functools.lru_cache(maxsize=1024)
def _plan_code(source: str, mode: str) -> CodeType:
    """The code object of one generated plan function (cached per source).

    Plans over one schema generate the same sources in every database, as
    :func:`~repro.db.sql.parse_sql` sees the same SQL strings; each database
    still runs the shared code in its own namespace.
    """
    return compile(source, "<plan>", mode)


class _JoinStep:
    """One compiled join: where the probe value comes from and how to match."""

    __slots__ = ("table", "new_name", "old_pos", "old_name", "use_index")

    def __init__(
        self, table: Table, new_name: str, old_pos: int, old_name: str, use_index: bool
    ) -> None:
        self.table = table
        self.new_name = new_name
        self.old_pos = old_pos
        self.old_name = old_name
        #: Declared index on the join key: probe via ``lookup_ids`` and charge
        #: index lookups, exactly like the interpreter.  Otherwise the join
        #: scans the table per row, as the interpreter does.
        self.use_index = use_index


class _JoinMemo:
    """A plan's joined rows over a full-scan base, and what they charged."""

    __slots__ = (
        "stamp", "next_row_id", "rows", "scanned", "index_lookups",
        "groups", "grouped", "group_version",
    )

    def __init__(self, stamp: Tuple) -> None:
        #: The versions the rows were built from (see ``_memoised_join``).
        self.stamp = stamp
        #: The base's next row id when last caught up (0: not yet).  The
        #: stamp admits no delete, so the rows since are the ids from here.
        self.next_row_id = 0
        self.rows: List[Tuple[Dict[str, Any], ...]] = []
        self.scanned = 0
        self.index_lookups = 0
        #: ``rows`` grouped by the plan's group column (see
        #: ``_group_candidates``): value -> its rows, in memo order.
        self.groups: Dict[Any, List[Tuple[Dict[str, Any], ...]]] = {}
        #: Leading memo rows already in ``groups``.
        self.grouped = 0
        #: The group column's version the groups were built at (-1: never).
        self.group_version = -1


class _MemoEntry:
    """One parameter tuple's kept result, and an aggregate's fold states.

    ``rows`` is never handed out: a hit returns a new list of its dicts.
    """

    __slots__ = ("stamp", "rows", "scanned", "index_lookups", "states", "folded")

    def __init__(self) -> None:
        #: The plan's data stamp when ``rows`` was built (see ``_compile_stamp``).
        self.stamp: Tuple = ()
        self.rows: List[Dict[str, Any]] = []
        self.scanned = 0
        self.index_lookups = 0
        #: An aggregate's fold states by group key, in first-seen order
        #: (``None``: the plan folds afresh on every miss).
        self.states: Optional[Dict[Tuple, List[Any]]] = None
        #: Candidate rows folded into ``states``: a prefix of the memoised
        #: join's candidates, or of a single-table scan's base rows.
        self.folded = 0


class CompiledSelect:
    """A SELECT statement compiled against one database's current schema.

    :meth:`execute` runs the general pipeline; a primary-key read's plan
    replaces it with the probe (``pk_probe``).
    """

    def __init__(self, database, statement: SelectStatement) -> None:
        self.statement = statement
        self._bind = database._bind
        self._compare = database._compare
        self._order_key_name = database._order_key_name
        self._compile(database, statement)

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def _accessor(self, pos: int, name: str) -> str:
        """Source expression reading one column off an execution row."""
        if self._joined_layout:
            return f"row[{pos}][{name!r}]"
        return f"row[{name!r}]"

    @staticmethod
    def _make_fn(source: str, namespace: Optional[Dict[str, Any]] = None) -> Callable:
        return eval(_plan_code(source, "eval"), namespace if namespace is not None else {})

    def _compile(self, database, statement: SelectStatement) -> None:
        base_table = database.table(statement.table)
        base_qualifier = statement.alias or statement.table
        self.base_table = base_table
        #: The tables the plan reads, base first; an index declared on any
        #: of them drops the plan from its database's cache.
        self.tables: List[Table] = [base_table]

        # Qualifier bookkeeping mirrors the interpreter's execution-row dict:
        # a duplicate join qualifier overwrites in place (keeps its original
        # iteration slot, points at the latest tuple position).
        tables_by_qualifier: Dict[str, Table] = {base_qualifier: base_table}
        positions: Dict[str, int] = {base_qualifier: 0}

        def resolve_qualifier(ref: ColumnRef) -> str:
            if ref.table is not None:
                if ref.table not in tables_by_qualifier:
                    raise SqlExecutionError(f"unknown table qualifier {ref.table!r}")
                if not tables_by_qualifier[ref.table].has_column(ref.name):
                    raise SqlExecutionError(f"unknown column {ref}")
                return ref.table
            for qualifier, table in tables_by_qualifier.items():
                if table.has_column(ref.name):
                    return qualifier
            raise SqlExecutionError(f"unknown column {ref.name!r}")

        def refers_to_base(ref: ColumnRef) -> bool:
            if ref.table is not None:
                return ref.table == base_qualifier or ref.table == statement.table
            return base_table.has_column(ref.name)

        # WHERE split: declared-index equality pruning vs. residual, exactly
        # like the interpreter.
        self.index_conditions: List[Tuple[str, Any]] = []
        residual: List[Condition] = []
        for condition in statement.where:
            usable = (
                condition.op == "="
                and not isinstance(condition.rhs, ColumnRef)
                and refers_to_base(condition.lhs)
                and base_table.has_index(condition.lhs.name)
            )
            if usable:
                self.index_conditions.append((condition.lhs.name, condition.rhs))
            else:
                residual.append(condition)

        # Joins.
        self.join_steps: List[_JoinStep] = []
        for join in statement.joins:
            join_table = database.table(join.table)
            join_qualifier = join.alias or join.table

            def side_is_new(ref: ColumnRef) -> bool:
                if ref.table is not None:
                    return ref.table == join_qualifier or ref.table == join.table
                return join_table.has_column(ref.name)

            if side_is_new(join.left) and not side_is_new(join.right):
                new_ref, old_ref = join.left, join.right
            elif side_is_new(join.right) and not side_is_new(join.left):
                new_ref, old_ref = join.right, join.left
            else:
                raise SqlExecutionError(
                    f"cannot determine join sides for ON {join.left} = {join.right}"
                )
            old_qualifier = resolve_qualifier(old_ref)
            self.join_steps.append(
                _JoinStep(
                    table=join_table,
                    new_name=new_ref.name,
                    old_pos=positions[old_qualifier],
                    old_name=old_ref.name,
                    use_index=join_table.has_index(new_ref.name),
                )
            )
            tables_by_qualifier[join_qualifier] = join_table
            positions[join_qualifier] = len(self.join_steps)
            self.tables.append(join_table)

        self.joined = bool(self.join_steps)
        self._joined_layout = self.joined  # row tuples vs. plain row dicts

        # Join memo: a full-scan base joins the same rows whatever the
        # parameters, so the joined rows are kept until the data they came
        # from changes.  A base narrowed by declared-index conditions
        # depends on the parameters and is joined afresh each time.
        self.memoises_join = self.joined and not self.index_conditions
        self._join_memo: Optional[_JoinMemo] = None
        #: Both sides' join-key columns; an update to one rebuilds the memo.
        self._join_keys: List[Tuple[Table, str]] = []
        for step in self.join_steps:
            self._join_keys.append((self.tables[step.old_pos], step.old_name))
            self._join_keys.append((step.table, step.new_name))

        # Residual filters -> one compiled predicate.  Parameters/literals
        # are bound per execution into the ``bound`` tuple.  SQL three-valued
        # ``=``/``!=`` collapse exactly to Python ``==``/``!=`` over the
        # engine's value universe (NULL compares equal only to NULL);
        # inequalities keep the interpreter's helper for the NULL guard, and
        # LIKE goes through the engine's ``like_matcher``.
        #: ``(rhs node, is a LIKE pattern)`` pairs bound per execution.
        self._residual_nodes: List[Tuple[Any, bool]] = []
        predicate_terms: List[str] = []
        group_term: Optional[Tuple[int, Table, str, int]] = None
        like_term: Optional[Tuple[str, Any]] = None
        for condition in residual:
            lhs_qualifier = resolve_qualifier(condition.lhs)
            lhs_pos = positions[lhs_qualifier]
            lhs_expr = self._accessor(lhs_pos, condition.lhs.name)
            if isinstance(condition.rhs, ColumnRef):
                rhs_qualifier = resolve_qualifier(condition.rhs)
                rhs_expr = self._accessor(positions[rhs_qualifier], condition.rhs.name)
                bound_index = None
            else:
                bound_index = len(self._residual_nodes)
                self._residual_nodes.append((condition.rhs, condition.op == "LIKE"))
                rhs_expr = f"bound[{bound_index}]"
            if condition.op == "=":
                predicate_terms.append(f"({lhs_expr} == {rhs_expr})")
                if bound_index is not None and group_term is None:
                    group_term = (
                        lhs_pos, tables_by_qualifier[lhs_qualifier], condition.lhs.name,
                        bound_index,
                    )
            elif condition.op == "!=":
                predicate_terms.append(f"({lhs_expr} != {rhs_expr})")
            elif condition.op == "LIKE" and bound_index is not None:
                # The bound slot holds the pattern's matcher, built once per
                # execution.
                predicate_terms.append(f"{rhs_expr}({lhs_expr})")
                if like_term is None:
                    like_term = (condition.lhs.name, condition.rhs)
            elif condition.op == "LIKE":
                predicate_terms.append(f"_like({lhs_expr}, {rhs_expr})")
            else:
                predicate_terms.append(f"_cmp({condition.op!r}, {lhs_expr}, {rhs_expr})")

        # Candidate probes: the full predicate still decides on a superset
        # of the matching rows, in scan order, and the full scan is charged.
        #: ``(tuple position, table, column, bound slot)`` of a memoised
        #: join's first bound ``col = ?`` residual; the memo groups by it.
        self._group_probe = group_term if self.memoises_join else None
        #: ``(column, pattern node)`` of a plain full scan's first bound
        #: ``col LIKE ?`` residual; its literal prefix probes sorted keys.
        self._like_probe = (
            like_term if not (self.joined or self.index_conditions) else None
        )

        #: The residual predicate, ``None`` without residual conditions.
        self._predicate: Optional[Callable] = None
        if predicate_terms:
            self._predicate = self._make_fn(
                f"lambda row, bound: {' and '.join(predicate_terms)}",
                {"_cmp": self._compare, "_like": database._like_match},
            )

        # Projection.
        has_aggregates = any(isinstance(item.expression, Aggregate) for item in statement.items)
        self.is_aggregate = has_aggregates or bool(statement.group_by)
        self.star = statement.star

        projection: List[Tuple[str, int, str]] = []
        projected_by_name: Dict[str, Tuple[int, str]] = {}
        if self.star:
            if has_aggregates:
                raise SqlExecutionError("SELECT * cannot be combined with aggregates")
            # ``merged.update(row)`` semantics: first-seen name keeps its slot,
            # the last qualifier supplies the value.
            slot_by_name: Dict[str, int] = {}
            for qualifier, table in tables_by_qualifier.items():
                pos = positions[qualifier]
                for column in table.column_names():
                    if column in slot_by_name:
                        projection[slot_by_name[column]] = (column, pos, column)
                    else:
                        slot_by_name[column] = len(projection)
                        projection.append((column, pos, column))
            projected_by_name = {name: (pos, col) for name, pos, col in projection}
        elif not self.is_aggregate:
            for item in statement.items:
                name = item.alias or item.expression.name
                qualifier = resolve_qualifier(item.expression)
                entry = (name, positions[qualifier], item.expression.name)
                projection.append(entry)
                projected_by_name[name] = (entry[1], entry[2])

        #: Compiled row -> result-dict projection (``None`` on aggregates).
        self._project: Optional[Callable] = None
        if projection:
            body = ", ".join(
                f"{name!r}: {self._accessor(pos, column)}"
                for name, pos, column in projection
            )
            self._project = self._make_fn(f"lambda row: {{{body}}}")

        # Aggregation: one streaming fold pass with per-group accumulators.
        self._group_key: Optional[Callable] = None
        #: Result names of the select items, in select-list order.
        self._aggregate_names: List[str] = []
        #: Per-item ``(mode, column accessor source)`` of the fold.
        stream_specs: List[Tuple[str, Optional[str]]] = []
        #: The first plain column missing from GROUP BY (raised at execution,
        #: matching the interpreter).
        self._invalid_group_column: Optional[str] = None
        if self.is_aggregate:
            if self.star:
                raise SqlExecutionError("SELECT * cannot be combined with aggregates")
            group_names = [ref.name for ref in statement.group_by]
            if statement.group_by:
                exprs = [
                    self._accessor(positions[resolve_qualifier(ref)], ref.name)
                    for ref in statement.group_by
                ]
                tuple_body = ", ".join(exprs) + ("," if len(exprs) == 1 else "")
                self._group_key = self._make_fn(f"lambda row: ({tuple_body})")
            for item in statement.items:
                expression = item.expression
                if isinstance(expression, ColumnRef):
                    self._aggregate_names.append(item.alias or expression.name)
                    source = self._accessor(
                        positions[resolve_qualifier(expression)], expression.name
                    )
                    stream_specs.append(("column", source))
                    if (
                        statement.group_by
                        and expression.name not in group_names
                        and self._invalid_group_column is None
                    ):
                        self._invalid_group_column = expression.name
                else:
                    self._aggregate_names.append(item.alias or expression.default_name())
                    if expression.argument is None:
                        if expression.function != "COUNT":
                            raise SqlExecutionError(
                                f"{expression.function} requires a column argument"
                            )
                        stream_specs.append(("count_star", None))
                    else:
                        source = self._accessor(
                            positions[resolve_qualifier(expression.argument)],
                            expression.argument.name,
                        )
                        stream_specs.append((expression.function.lower(), source))
        #: Per-item accumulator modes.
        self._stream_modes: List[str] = [mode for mode, _ in stream_specs]
        self._new_state_fn, self._fold_fn = self._compile_stream_fold(stream_specs)
        #: Each item's result value read off a fold state, as source.
        state_values = [
            f"(state[{index}][0] if state[{index}][1] else None)" if mode == "sum"
            else f"(state[{index}][0] / state[{index}][1] if state[{index}][1] else None)"
            if mode == "avg"
            else f"state[{index}]"
            for index, mode in enumerate(self._stream_modes)
        ]
        #: Compiled fold state -> result dict (a repeated name keeps its
        #: first slot and its last value, as assignment in item order does).
        self._finalize: Optional[Callable] = None
        if self.is_aggregate:
            body = ", ".join(
                f"{name!r}: {value}" for name, value in zip(self._aggregate_names, state_values)
            )
            self._finalize = self._make_fn(f"lambda state: {{{body}}}")

        # ORDER BY keys.  An aggregate orders its result dicts like the
        # interpreter, or picks its LIMIT fold states by the same keys.
        self._order_key_fns: List[Tuple[Callable, bool]] = []
        directions = set()
        if self.is_aggregate:
            state_keys = []
            for position, order in enumerate(statement.order_by):
                key_name = self._order_key_name(order, statement, [])
                slots = [i for i, name in enumerate(self._aggregate_names) if name == key_name]
                value = state_values[slots[-1]] if slots else "None"
                state_keys.append(f"((_v{position} := {value}) is None, _v{position})")
                directions.add(order.descending)
        else:
            for order in statement.order_by:
                key_name = self._order_key_name(order, statement, [])
                expr: Optional[str] = None
                if key_name in projected_by_name:
                    pos, column = projected_by_name[key_name]
                    expr = self._accessor(pos, column)
                elif isinstance(order.expression, ColumnRef):
                    try:
                        qualifier = resolve_qualifier(order.expression)
                        expr = self._accessor(positions[qualifier], order.expression.name)
                    except Exception:
                        expr = None  # interpreter: unresolvable key -> NULL key
                if expr is None:
                    key_fn = self._make_fn("lambda row: (True, None)")
                else:
                    key_fn = self._make_fn(f"lambda row: ((_v := {expr}) is None, _v)")
                self._order_key_fns.append((key_fn, order.descending))
                directions.add(order.descending)
        # Top-k: a GROUP BY picks fold states, any other aggregate has one
        # row, a plain SELECT picks execution rows.
        self.topk_eligible = (
            bool(statement.order_by)
            and statement.limit is not None
            and len(directions) == 1
            and (bool(statement.group_by) or not self.is_aggregate)
        )
        self._topk_descending = statement.order_by[0].descending if statement.order_by else False
        self._topk_key: Optional[Callable] = None
        if self.topk_eligible and self.is_aggregate:
            body = state_keys[0] if len(state_keys) == 1 else f"({', '.join(state_keys)})"
            self._topk_key = self._make_fn(f"lambda state: {body}")
        elif self.topk_eligible:
            if len(self._order_key_fns) == 1:
                self._topk_key = self._order_key_fns[0][0]
            else:
                fns = {f"_k{i}": fn for i, (fn, _) in enumerate(self._order_key_fns)}
                body = ", ".join(f"{name}(row)" for name in fns)
                self._topk_key = self._make_fn(f"lambda row: ({body})", dict(fns))

        # Primary-key probe: the whole WHERE is one ``pk = ?`` (or literal)
        # over a single table, and nothing after the filter can reorder,
        # fold or cut its at most one row.
        self.pk_probe = (
            not self.joined
            and len(statement.where) == 1
            and len(self.index_conditions) == 1
            and self.index_conditions[0][0] == base_table.primary_key
            and not self.is_aggregate
            and not statement.order_by
            and statement.limit is None
        )
        if self.pk_probe:
            self.execute = self._compile_pk_probe(self.index_conditions[0][1])
            return

        # Result memo: parameter tuple -> _MemoEntry.  An aggregate over a
        # memoised join or a single-table scan catches its fold states up
        # with appended base rows; any other plan folds afresh.
        self._memo: Dict[Tuple, _MemoEntry] = {}
        self._catches_up = self.is_aggregate and (
            self.memoises_join or not (self.joined or self.index_conditions)
        )
        bound_nodes = [rhs for _, rhs in self.index_conditions]
        bound_nodes += [node for node, _ in self._residual_nodes]
        self._memo_key = self._compile_memo_key(
            sorted({node.index for node in bound_nodes if isinstance(node, Parameter)})
        )
        self._stamp = self._compile_stamp(statement)

    def _compile_memo_key(self, slots: List[int]) -> Callable:
        """Parameters -> the memo key: the bound values, or ``None`` if one is not keyable."""
        if not slots:
            return self._make_fn("lambda params: ()")
        values = "".join(f"params[{slot}], " for slot in slots)
        keyable = " and ".join(f"type(params[{slot}]) in _keyable" for slot in slots)
        return self._make_fn(
            f"lambda params: ({values}) if {keyable} else None", {"_keyable": _KEYABLE}
        )

    def _compile_stamp(self, statement: SelectStatement) -> Callable:
        """The reader of the data versions the plan's result depends on.

        The stamp is the base's row-set version and delete count, every
        joined table's row-set version, then the version of every column the
        statement names (select list, WHERE, JOIN ON, GROUP BY, ORDER BY and
        aggregate arguments; every column for ``SELECT *``) in each table
        that has a column by that name.  Equal stamps mean equal results.
        Equal stamps past the first element mean the base only grew by
        appends, which an aggregate's fold states can catch up with.
        """
        refs: List[Any] = []
        for item in statement.items:
            expression = item.expression
            refs.append(expression.argument if isinstance(expression, Aggregate) else expression)
        for condition in statement.where:
            refs += [condition.lhs, condition.rhs]
        for join in statement.joins:
            refs += [join.left, join.right]
        refs += statement.group_by
        refs += [order.expression for order in statement.order_by]
        names = {ref.name for ref in refs if isinstance(ref, ColumnRef)}
        names.update(ref for ref in refs if isinstance(ref, str))
        namespace: Dict[str, Any] = {}
        terms = ["_t0.rows_version", "_t0.deletes"]
        columns = []
        for position, table in enumerate(self.tables):
            namespace[f"_t{position}"] = table
            if position:
                terms.append(f"_t{position}.rows_version")
            if table in self.tables[:position]:
                continue
            namespace[f"_c{position}"] = table.column_versions
            columns += [
                f"_c{position}[{name!r}]"
                for name in table.column_names()
                if self.star or name in names
            ]
        return self._make_fn(f"lambda: ({', '.join(terms + columns)},)", namespace)

    def _compile_pk_probe(self, rhs_node: Any) -> Callable:
        """The plan of a primary-key read: one ``_pk_index`` probe, replacing ``execute``.

        ``_pk_index.get`` resolves the value as ``lookup_ids`` does: ``1``,
        ``1.0`` and ``True`` find the same row, NULL and NaN find none, and
        an unhashable value raises ``TypeError``.  The table changes its key
        index and row dicts in place, so the probe binds them once.
        """
        key = f"params[{rhs_node.index}]" if isinstance(rhs_node, Parameter) else "value"
        namespace = {
            "pk_get": self.base_table._pk_index.get,
            "stored": self.base_table._rows,
            "project": self._project,
            "value": None if isinstance(rhs_node, Parameter) else self._bind(rhs_node, ()),
        }
        return self._make_fn(
            f"lambda params: ([], 0, 1) if (row_id := pk_get({key})) is None"
            " else ([project(stored[row_id])], 1, 1)",
            namespace,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, params: Sequence[Any]) -> Tuple[List[Dict[str, Any]], int, int]:
        """Run the plan; returns ``(result_rows, rows_scanned, index_lookups)``.

        A repeat over unchanged data (same memo key, same stamp) returns the
        kept rows and the counters their execution charged.  An execution
        that raises keeps nothing.
        """
        key = self._memo_key(params)
        if key is None:
            return self._run(params, None, ())
        stamp = self._stamp()
        memo = self._memo
        entry = memo.get(key)
        if entry is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            entry = memo[key] = _MemoEntry()
        elif entry.stamp == stamp:
            return list(entry.rows), entry.scanned, entry.index_lookups
        try:
            rows, scanned, index_lookups = self._run(params, entry, stamp)
        except BaseException:
            memo.pop(key, None)
            raise
        entry.stamp, entry.rows = stamp, rows
        entry.scanned, entry.index_lookups = scanned, index_lookups
        return list(rows), scanned, index_lookups

    def _run(
        self, params: Sequence[Any], entry: Optional[_MemoEntry], stamp: Tuple
    ) -> Tuple[List[Dict[str, Any]], int, int]:
        """Execute the pipeline; an aggregate folds into ``entry``'s states."""
        statement = self.statement
        bind = self._bind
        base_table = self.base_table
        scanned = 0
        index_lookups = 0
        # The fold states catch up when nothing but base appends happened
        # since they were folded.
        catch_up = (
            entry is not None and entry.states is not None and entry.stamp[1:] == stamp[1:]
        )

        # ---- base rows ------------------------------------------------ #
        if self.index_conditions:
            # Declared-index pruning, verbatim interpreter semantics (set
            # copies + set.intersection keep the exact candidate order).
            row_id_sets = []
            for column_name, rhs_node in self.index_conditions:
                row_id_sets.append(base_table.lookup_ids(column_name, bind(rhs_node, params)))
                index_lookups += 1
            row_ids = set.intersection(*row_id_sets)
            stored = base_table._rows
            rows: Iterable[Any] = [stored[rid] for rid in row_ids]
            scanned += len(row_ids)
        elif self.memoises_join:
            rows, scanned, index_lookups = self._memoised_join()
        else:
            scanned += len(base_table)
            rows = base_table._rows.values()

        # ---- joins (tuple rows) --------------------------------------- #
        if self.joined and not self.memoises_join:
            rows, join_scanned, join_lookups = self._join(rows)
            scanned += join_scanned
            index_lookups += join_lookups

        # ---- candidate probes ----------------------------------------- #
        # ``rows`` may be the join memo's list or a view of the table's
        # rows: everything below only reads it.
        predicate = self._predicate
        bound: Tuple = ()
        if predicate is not None:
            bound = tuple(
                like_matcher(bind(node, params)) if is_like else bind(node, params)
                for node, is_like in self._residual_nodes
            )
            if self._group_probe is not None:
                rows = self._group_candidates(bound[self._group_probe[3]])
            elif self._like_probe is not None and not catch_up:
                rows = self._prefix_candidates(bind(self._like_probe[1], params))

        # ---- aggregate pipeline --------------------------------------- #
        if self.is_aggregate:
            return self._aggregate_rows(rows, bound, entry, catch_up), scanned, index_lookups

        # ---- residual filter ------------------------------------------ #
        if predicate is not None:
            rows = [row for row in rows if predicate(row, bound)]

        # ---- ORDER BY / LIMIT ----------------------------------------- #
        if self._topk_key is not None:
            select = heapq.nlargest if self._topk_descending else heapq.nsmallest
            rows = select(statement.limit, rows, key=self._topk_key)
        elif self._order_key_fns:
            # Interpreter-faithful multi-pass stable sort (handles mixed
            # ASC/DESC).
            rows = list(rows)
            for key_fn, descending in reversed(self._order_key_fns):
                rows.sort(key=key_fn, reverse=descending)
            if statement.limit is not None:
                rows = rows[: statement.limit]
        elif statement.limit is not None:
            rows = islice(rows, statement.limit)

        # ---- projection (only surviving rows) ------------------------- #
        project = self._project
        return [project(row) for row in rows], scanned, index_lookups

    # ------------------------------------------------------------------ #
    def _join(self, base_rows: Iterable[Dict[str, Any]]) -> Tuple[List[Tuple], int, int]:
        """Join base rows into tuple rows; returns ``(rows, scanned, index_lookups)``.

        ``scanned`` counts the join probes only, not the base rows.
        """
        scanned = 0
        index_lookups = 0
        rows: List[Tuple[Dict[str, Any], ...]] = [(row,) for row in base_rows]
        for step in self.join_steps:
            out: List[Tuple[Dict[str, Any], ...]] = []
            old_pos = step.old_pos
            old_name = step.old_name
            stored = step.table._rows
            if step.use_index and step.new_name == step.table.primary_key:
                # PK probe: at most one match, so the interpreter's
                # one-element set copy (and its iteration order) is
                # reproduced without allocating it.
                pk_get = step.table._pk_index.get
                append = out.append
                for current in rows:
                    rid = pk_get(current[old_pos][old_name])
                    index_lookups += 1
                    if rid is not None:
                        scanned += 1
                        append(current + (stored[rid],))
            elif step.use_index:
                lookup = step.table.lookup_ids
                new_name = step.new_name
                for current in rows:
                    ids = lookup(new_name, current[old_pos][old_name])
                    index_lookups += 1
                    scanned += len(ids)
                    for rid in ids:
                        out.append(current + (stored[rid],))
            else:
                # No declared index (or no such column): the interpreter's
                # ``row.get`` scan, literally.
                new_name = step.new_name
                join_rows = list(step.table._rows.values())
                for current in rows:
                    value = current[old_pos][old_name]
                    scanned += len(join_rows)
                    for row in join_rows:
                        if row.get(new_name) == value:
                            out.append(current + (row,))
            rows = out
        return rows, scanned, index_lookups

    def _memoised_join(self) -> Tuple[List[Tuple], int, int]:
        """The full-scan base's joined rows and their charge, kept between executions.

        The memo is stamped with what its rows were built from: the base's
        delete count, every joined table's row-set version and both sides'
        join-key column versions.  If the stamp matches and no base row was
        inserted since, the memo is reused as is (a *hit*).  If base rows
        were inserted, the base grew by appends alone: its new tail (the
        rows from the memo's next row id on, in row-id order) is joined and
        appended (a *catch-up*).  Any other change starts a new memo and
        catches it up from row 0 (a *rebuild*).  The charge is the one a
        fresh scan and join would pay, because the memo holds exactly the
        rows and probes those would make.
        """
        base_table = self.base_table
        stamp = (
            base_table.deletes,
            tuple(table.rows_version for table in self.tables[1:]),
            tuple(table.column_versions.get(name, 0) for table, name in self._join_keys),
        )
        memo = self._join_memo
        if memo is None or memo.stamp != stamp:
            memo = self._join_memo = _JoinMemo(stamp)
        if memo.next_row_id != base_table._next_row_id:
            stored = base_table._rows
            if memo.next_row_id:
                tail = [stored[rid] for rid in range(memo.next_row_id, base_table._next_row_id)]
            else:
                tail = list(stored.values())
            joined, scanned, index_lookups = self._join(tail)
            memo.rows.extend(joined)
            memo.next_row_id = base_table._next_row_id
            memo.scanned += len(tail) + scanned
            memo.index_lookups += index_lookups
        return memo.rows, memo.scanned, memo.index_lookups

    def _group_candidates(self, value: Any) -> Sequence[Tuple[Dict[str, Any], ...]]:
        """The memo rows whose group column may equal ``value``, in memo order.

        The memo keeps its rows grouped by the column of the plan's first
        bound ``col = ?`` residual, keyed as a dict keys them: ``1``,
        ``1.0`` and ``True`` share a group, ``-0.0`` joins ``0.0`` and NULL
        has its own.  A NaN finds at most the rows holding that very object,
        which the predicate then drops.  A catch-up's new tail is appended
        to the groups and a rebuilt memo starts with none; an update of the
        column (its version moved) regroups the memo, whose stamp it leaves
        valid.
        """
        memo = self._join_memo
        pos, table, name, _ = self._group_probe
        version = table.column_versions.get(name, 0)
        if memo.group_version != version:
            memo.groups, memo.grouped, memo.group_version = {}, 0, version
        rows = memo.rows
        if memo.grouped < len(rows):
            setdefault = memo.groups.setdefault
            for row in rows[memo.grouped:]:
                setdefault(row[pos][name], []).append(row)
            memo.grouped = len(rows)
        try:
            return memo.groups.get(value, ())
        except TypeError:  # unhashable: equal to no stored scalar
            return ()

    def _prefix_candidates(self, pattern: Any) -> List[Dict[str, Any]]:
        """The base rows whose ``str()`` value may match ``LIKE pattern``, in scan order.

        A match starts with the pattern's literal prefix, the characters
        before its first ``%`` or ``_``; the table bisects its sorted keys
        for them.  Without a prefix (a leading wildcard, an empty or NULL
        pattern) every row is a candidate.
        """
        prefix = "" if pattern is None else _LIKE_PREFIX.match(str(pattern)).group()
        stored = self.base_table._rows
        if not prefix:
            return list(stored.values())
        return [
            stored[rid] for rid in self.base_table.prefix_row_ids(self._like_probe[0], prefix)
        ]

    # ------------------------------------------------------------------ #
    def _aggregate_rows(
        self,
        candidates: Iterable[Any],
        bound: Tuple,
        entry: Optional[_MemoEntry],
        catch_up: bool,
    ) -> List[Dict[str, Any]]:
        """GROUP BY + aggregate evaluation over the candidates that pass the filter.

        One fold pass keeps an accumulator per group; result rows come in
        first-seen group order.  A plan that catches up keeps its states in
        ``entry``: while only base appends happened since, it folds just the
        candidates past the ones folded, after them, as a fresh fold would.
        A GROUP BY with a top-k ORDER BY + LIMIT builds result dicts for the
        states it keeps only.
        """
        if self.memoises_join:
            # The join memo's candidates grow only by appends while the
            # stamp past the base's row-set version holds.
            total = len(candidates)
            if catch_up:
                candidates = candidates[entry.folded:]
        else:
            total = len(self.base_table)
            if catch_up:
                candidates = islice(self.base_table._rows.values(), entry.folded, None)
        predicate = self._predicate
        rows = candidates
        if predicate is not None:
            rows = [row for row in candidates if predicate(row, bound)]
        states: Dict[Tuple, List[Any]] = entry.states if catch_up else {}
        # The interpreter raises for a non-grouped plain column while
        # building the first group's result row, i.e. whenever a group
        # exists.  Such a plan never keeps a state, so only new rows count.
        if self._invalid_group_column is not None:
            rows = list(rows)
            if rows:
                raise SqlExecutionError(
                    f"column {self._invalid_group_column!r} must appear in GROUP BY"
                )
        new_state = self._new_state_fn
        fold = self._fold_fn
        group_key = self._group_key
        if group_key is not None:
            get = states.get
            for row in rows:
                key = group_key(row)
                state = get(key)
                if state is None:
                    states[key] = new_state(row)
                else:
                    fold(state, row)
        else:
            state = states.get(())
            for row in rows:
                if state is None:
                    state = states[()] = new_state(row)
                else:
                    fold(state, row)
        if self._catches_up and entry is not None:
            entry.states, entry.folded = states, total

        kept: Iterable[List[Any]] = states.values()
        if group_key is None and not states:
            kept = [self._empty_group_state()]
        statement = self.statement
        if self._topk_key is not None:
            select = heapq.nlargest if self._topk_descending else heapq.nsmallest
            return self._result_rows(select(statement.limit, kept, key=self._topk_key))
        result = self._result_rows(kept)
        for order in reversed(statement.order_by):
            key_name = self._order_key_name(order, statement, result)
            result.sort(
                key=lambda row: (row.get(key_name) is None, row.get(key_name)),
                reverse=order.descending,
            )
        if statement.limit is not None:
            result = result[: statement.limit]
        return result

    def _result_rows(self, states: Iterable[List[Any]]) -> List[Dict[str, Any]]:
        """Each state's result dict, finalized once and kept in the state.

        A state's last slot holds its finalized dict until a fold changes the
        state (the fold clears it), so a catch-up finalizes again only the
        groups it folded into.  The kept dicts are read-only, like every
        memoised row.
        """
        finalize = self._finalize
        rows = []
        for state in states:
            row = state[-1]
            if row is None:
                row = state[-1] = finalize(state)
            rows.append(row)
        return rows

    @staticmethod
    def _compile_stream_fold(
        specs: List[Tuple[str, Optional[str]]]
    ) -> Tuple[Callable, Callable]:
        """Code-generate the streaming accumulators for one statement.

        ``_new_state`` builds a group's accumulator list from its first row,
        ``_fold`` folds one more member row in place.  Each item's column
        accessor is inlined into the generated source (the same technique as
        the compiled projection/filter lambdas), so the per-row cost is a
        single function call rather than a dispatch loop over item modes.
        """
        new_lines = ["def _new_state(row):", "    state = []"]
        fold_lines = ["def _fold(state, row):"]
        for index, (mode, source) in enumerate(specs):
            if mode == "column":
                # Captured from the first row only; never folded again.
                new_lines.append(f"    state.append({source})")
            elif mode == "count_star":
                new_lines.append("    state.append(1)")
                fold_lines.append(f"    state[{index}] += 1")
            elif mode == "count":
                new_lines.append(f"    state.append(1 if {source} is not None else 0)")
                fold_lines.append(f"    if {source} is not None:")
                fold_lines.append(f"        state[{index}] += 1")
            elif mode in ("sum", "avg"):
                # ``0 + value`` reproduces ``sum([value])`` exactly (the
                # int-0 start matters for mixed numeric types).
                new_lines.append(f"    v{index} = {source}")
                new_lines.append(
                    f"    state.append([0 + v{index}, 1] if v{index} is not None"
                    " else [0, 0])"
                )
                fold_lines.append(f"    v{index} = {source}")
                fold_lines.append(f"    if v{index} is not None:")
                fold_lines.append(f"        s{index} = state[{index}]")
                fold_lines.append(f"        s{index}[0] = s{index}[0] + v{index}")
                fold_lines.append(f"        s{index}[1] += 1")
            elif mode in ("min", "max"):
                # ``value < current`` mirrors ``min()``'s comparison order.
                operator = "<" if mode == "min" else ">"
                new_lines.append(f"    state.append({source})")
                fold_lines.append(f"    v{index} = {source}")
                fold_lines.append(f"    if v{index} is not None:")
                fold_lines.append(f"        c{index} = state[{index}]")
                fold_lines.append(
                    f"        if c{index} is None or v{index} {operator} c{index}:"
                )
                fold_lines.append(f"            state[{index}] = v{index}")
            else:  # pragma: no cover - parser admits only the modes above
                raise SqlExecutionError(f"unsupported aggregate {mode.upper()!r}")
        # The last slot keeps the finalized result dict (see
        # ``_result_rows``); a fold changes the state, so it clears it.
        new_lines.append("    state.append(None)")
        new_lines.append("    return state")
        fold_lines.append(f"    state[{len(specs)}] = None")
        namespace: Dict[str, Any] = {}
        exec(_plan_code("\n".join(new_lines + fold_lines), "exec"), namespace)
        return namespace["_new_state"], namespace["_fold"]

    def _empty_group_state(self) -> List[Any]:
        """Accumulator slots of the implicit empty group (no GROUP BY)."""
        state: List[Any] = []
        for mode in self._stream_modes:
            if mode in ("count_star", "count"):
                state.append(0)
            elif mode in ("sum", "avg"):
                state.append([0, 0])
            else:  # column / min / max over no rows
                state.append(None)
        state.append(None)  # no finalized result dict yet
        return state


def compile_select(database, statement: SelectStatement) -> CompiledSelect:
    """Compile ``statement`` against ``database``'s current schema."""
    return CompiledSelect(database, statement)
