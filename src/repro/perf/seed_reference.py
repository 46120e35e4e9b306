"""Seed-commit reference implementations, bundled for honest comparisons.

The ``repro bench`` speedup numbers are only meaningful if the baseline is
measured on the *same* machine, in the same process, on the same Python.
This module therefore preserves the seed commit's hot-path implementations
verbatim (the ``order=True`` dataclass event heap and the closure-chain
weaver with its eagerly allocated dataclass join point), so every bench run
re-measures the seed algorithm live instead of trusting stale numbers.

Nothing outside :mod:`repro.perf` may import from here — these classes exist
purely as measurement controls.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.aop.advice import Advice, AdviceKind
from repro.aop.aspect import Aspect
from repro.aop.joinpoint import Signature, declaring_type_of


# --------------------------------------------------------------------------- #
# Seed simulation engine (dataclass events, O(n) pending scan)
# --------------------------------------------------------------------------- #
class SeedClock:
    """The seed's clock: ``now`` was a property over a private slot."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, timestamp: float) -> None:
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now!r}, requested={timestamp!r}"
            )
        self._now = float(timestamp)


class SeedStopSimulation(Exception):
    """Seed-reference twin of :class:`repro.sim.engine.StopSimulation`."""


@dataclass(order=True)
class SeedEvent:
    """The seed's totally ordered event dataclass."""

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class SeedSimulationEngine:
    """The seed commit's event loop, kept verbatim for baseline timing."""

    def __init__(self, clock: Optional[SeedClock] = None, trace: bool = False) -> None:
        self.clock = clock if clock is not None else SeedClock()
        self._heap: List[SeedEvent] = []
        self._seq = itertools.count()
        self._executed = 0
        self._trace_enabled = trace
        self._trace: List[str] = []
        self._stopped = False

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> SeedEvent:
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule event in the past: now={self.clock.now}, time={time}"
            )
        event = SeedEvent(
            time=float(time),
            priority=priority,
            seq=next(self._seq),
            callback=callback,
            name=name,
        )
        heapq.heappush(self._heap, event)
        return event

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def executed_events(self) -> int:
        return self._executed

    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def _pop_live(self) -> Optional[SeedEvent]:
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def step(self) -> bool:
        event = self._pop_live()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        if self._trace_enabled and event.name:
            self._trace.append(event.name)
        self._executed += 1
        event.callback()
        return True

    def run_until(self, end_time: float) -> int:
        executed_before = self._executed
        self._stopped = False
        while not self._stopped:
            event = self._pop_live()
            if event is None:
                break
            if event.time > end_time:
                heapq.heappush(self._heap, event)
                break
            self.clock.advance_to(event.time)
            if self._trace_enabled and event.name:
                self._trace.append(event.name)
            self._executed += 1
            try:
                event.callback()
            except SeedStopSimulation:
                self._stopped = True
        if self.clock.now < end_time:
            self.clock.advance_to(end_time)
        return self._executed - executed_before

    def run(self, max_events: Optional[int] = None) -> int:
        executed_before = self._executed
        self._stopped = False
        while not self._stopped:
            if max_events is not None and self._executed - executed_before >= max_events:
                break
            try:
                if not self.step():
                    break
            except SeedStopSimulation:
                break
        return self._executed - executed_before


# --------------------------------------------------------------------------- #
# Seed join point (eagerly allocated dataclass) and weaver (closure chain)
# --------------------------------------------------------------------------- #
@dataclass
class SeedJoinPoint:
    """The seed's dataclass join point with eagerly created dicts."""

    kind: str
    target: Any
    signature: Signature
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    component: str = ""
    timestamp: float = 0.0
    result: Any = None
    exception: Optional[BaseException] = None
    context: Dict[str, Any] = field(default_factory=dict)


class SeedWeaver:
    """The seed commit's weaver: per-call closures, no dispatch compilation."""

    def __init__(self, clock: Optional[Any] = None) -> None:
        self._clock = clock
        self._aspects: List[Aspect] = []
        self._woven: Dict[Tuple[int, str], Callable] = {}

    def register_aspect(self, aspect: Aspect) -> None:
        self._aspects.append(aspect)

    def weave_object(
        self,
        target: Any,
        method_names: Optional[List[str]] = None,
        component: Optional[str] = None,
    ) -> List[str]:
        declaring_type = declaring_type_of(target)
        component_name = component or getattr(target, "component_name", None) or declaring_type
        candidate_names = (
            method_names
            if method_names is not None
            else [
                name
                for name in dir(type(target))
                if not name.startswith("_") and callable(getattr(type(target), name, None))
            ]
        )
        woven_names: List[str] = []
        for method_name in candidate_names:
            matched: List[Tuple[Advice, Aspect]] = []
            for aspect in self._aspects:
                for advice in aspect.advices():
                    if advice.applies_to(declaring_type, method_name):
                        matched.append((advice, aspect))
            if not matched:
                continue
            self._weave_method(target, declaring_type, method_name, component_name, matched)
            woven_names.append(method_name)
        return woven_names

    def _weave_method(
        self,
        target: Any,
        declaring_type: str,
        method_name: str,
        component_name: str,
        matched: List[Tuple[Advice, Aspect]],
    ) -> None:
        original = getattr(target, method_name)
        signature = Signature(declaring_type=declaring_type, method_name=method_name)
        clock = self._clock

        befores = [(a, s) for a, s in matched if a.kind is AdviceKind.BEFORE]
        afters = [(a, s) for a, s in matched if a.kind is AdviceKind.AFTER]
        after_returnings = [(a, s) for a, s in matched if a.kind is AdviceKind.AFTER_RETURNING]
        after_throwings = [(a, s) for a, s in matched if a.kind is AdviceKind.AFTER_THROWING]
        arounds = [(a, s) for a, s in matched if a.kind is AdviceKind.AROUND]

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            join_point = SeedJoinPoint(
                kind="method-execution",
                target=target,
                signature=signature,
                args=args,
                kwargs=kwargs,
                component=component_name,
                timestamp=float(getattr(clock, "now", 0.0)) if clock is not None else 0.0,
            )

            def run_core() -> Any:
                for advice, aspect in befores:
                    if aspect.enabled:
                        advice.body(join_point)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    join_point.exception = exc
                    for advice, aspect in after_throwings:
                        if aspect.enabled:
                            advice.body(join_point)
                    for advice, aspect in afters:
                        if aspect.enabled:
                            advice.body(join_point)
                    raise
                join_point.result = result
                for advice, aspect in after_returnings:
                    if aspect.enabled:
                        advice.body(join_point)
                for advice, aspect in afters:
                    if aspect.enabled:
                        advice.body(join_point)
                return result

            call_chain: Callable[[], Any] = run_core
            for advice, aspect in reversed(arounds):
                call_chain = _seed_wrap_around(advice, aspect, join_point, call_chain)
            return call_chain()

        setattr(target, method_name, wrapper)
        self._woven[(id(target), method_name)] = wrapper


def _seed_wrap_around(
    advice: Advice, aspect: Aspect, join_point: SeedJoinPoint, inner: Callable[[], Any]
) -> Callable[[], Any]:
    def call() -> Any:
        if not aspect.enabled:
            return inner()
        return advice.body(join_point, inner)

    return call


# --------------------------------------------------------------------------- #
# Seed SELECT row handling (wrapper dicts + per-row column resolution)
# --------------------------------------------------------------------------- #
def make_seed_row_database_class():
    """A ``Database`` subclass running the seed's SELECT row handling.

    Imported lazily (the perf package must not pull the db layer at import
    time).  The returned class executes every SELECT the way the seed did:
    each scanned row wrapped in a ``{qualifier: row}`` dict, columns
    resolved per row by scanning the wrapper, projection through
    ``_project_row`` — the allocation pattern the ``request_path``
    fast path removed.
    """
    from repro.db.engine import Database, SqlExecutionError
    from repro.db.sql import Aggregate, ColumnRef, Condition, SelectStatement
    from typing import Any, Dict, List, Sequence, Tuple

    class SeedRowHandlingDatabase(Database):
        def _resolve(self, ref: ColumnRef, exec_row: Dict[str, Dict[str, Any]]) -> Any:
            if ref.table is not None:
                row = exec_row.get(ref.table)
                if row is None:
                    raise SqlExecutionError(f"unknown table qualifier {ref.table!r}")
                if ref.name not in row:
                    raise SqlExecutionError(f"unknown column {ref}")
                return row[ref.name]
            matches = [row for row in exec_row.values() if ref.name in row]
            if not matches:
                raise SqlExecutionError(f"unknown column {ref.name!r}")
            return matches[0][ref.name]

        def _project_row(
            self, statement: SelectStatement, exec_row: Dict[str, Dict[str, Any]]
        ) -> Dict[str, Any]:
            if statement.star:
                merged: Dict[str, Any] = {}
                for row in exec_row.values():
                    merged.update(row)
                return merged
            out: Dict[str, Any] = {}
            for item in statement.items:
                if isinstance(item.expression, Aggregate):  # pragma: no cover - guarded by caller
                    raise SqlExecutionError("aggregate outside aggregation context")
                name = item.alias or item.expression.name
                out[name] = self._resolve(item.expression, exec_row)
            return out

        def _project_aggregates(
            self, statement: SelectStatement, exec_rows: List[Dict[str, Dict[str, Any]]]
        ) -> List[Dict[str, Any]]:
            if statement.star:
                raise SqlExecutionError("SELECT * cannot be combined with aggregates")

            def group_key(exec_row: Dict[str, Dict[str, Any]]) -> Tuple:
                return tuple(self._resolve(ref, exec_row) for ref in statement.group_by)

            groups: Dict[Tuple, List[Dict[str, Dict[str, Any]]]] = {}
            for exec_row in exec_rows:
                groups.setdefault(group_key(exec_row), []).append(exec_row)
            if not statement.group_by and not groups:
                groups[()] = []

            result: List[Dict[str, Any]] = []
            for key, members in groups.items():
                out: Dict[str, Any] = {}
                for item in statement.items:
                    expression = item.expression
                    if isinstance(expression, ColumnRef):
                        name = item.alias or expression.name
                        out[name] = self._resolve(expression, members[0]) if members else None
                        # Plain columns in an aggregate query must be group keys.
                        if statement.group_by and expression.name not in [
                            ref.name for ref in statement.group_by
                        ]:
                            raise SqlExecutionError(
                                f"column {expression.name!r} must appear in GROUP BY"
                            )
                    else:
                        name = item.alias or expression.default_name()
                        out[name] = self._evaluate_aggregate(expression, members)
                result.append(out)
            return result

        def _evaluate_aggregate(
            self, aggregate: Aggregate, members: List[Dict[str, Dict[str, Any]]]
        ) -> Any:
            if aggregate.function == "COUNT":
                if aggregate.argument is None:
                    return len(members)
                return sum(
                    1 for m in members if self._resolve(aggregate.argument, m) is not None
                )
            if aggregate.argument is None:
                raise SqlExecutionError(f"{aggregate.function} requires a column argument")
            values = [
                value
                for value in (self._resolve(aggregate.argument, m) for m in members)
                if value is not None
            ]
            if not values:
                return None
            if aggregate.function == "SUM":
                return sum(values)
            if aggregate.function == "AVG":
                return sum(values) / len(values)
            if aggregate.function == "MIN":
                return min(values)
            if aggregate.function == "MAX":
                return max(values)
            raise SqlExecutionError(f"unsupported aggregate {aggregate.function!r}")

        def _execute_select(self, statement, params):  # noqa: C901
            scanned = 0
            index_lookups = 0

            base_table = self.table(statement.table)
            base_qualifier = statement.alias or statement.table

            def refers_to_base(ref):
                if ref.table is not None:
                    return ref.table == base_qualifier or ref.table == statement.table
                return base_table.has_column(ref.name)

            index_conditions = []
            residual_conditions = []
            for condition in statement.where:
                usable = (
                    condition.op == "="
                    and not isinstance(condition.rhs, ColumnRef)
                    and refers_to_base(condition.lhs)
                    and base_table.has_index(condition.lhs.name)
                )
                if usable:
                    index_conditions.append(
                        (condition.lhs.name, self._bind(condition.rhs, params))
                    )
                else:
                    residual_conditions.append(condition)

            if index_conditions:
                row_id_sets = []
                for column_name, value in index_conditions:
                    row_id_sets.append(base_table.lookup_ids(column_name, value))
                    index_lookups += 1
                row_ids = set.intersection(*row_id_sets) if row_id_sets else set()
                base_rows = [base_table.row_by_id(rid) for rid in row_ids]
                scanned += len(base_rows)
            else:
                base_rows = list(base_table.rows())
                scanned += len(base_rows)

            exec_rows = [{base_qualifier: row} for row in base_rows]

            for join in statement.joins:
                join_table = self.table(join.table)
                join_qualifier = join.alias or join.table
                new_exec_rows = []

                def side_is_new(ref):
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

                use_index = join_table.has_index(new_ref.name)
                for exec_row in exec_rows:
                    old_value = self._resolve(old_ref, exec_row)
                    if use_index:
                        ids = join_table.lookup_ids(new_ref.name, old_value)
                        index_lookups += 1
                        matches = [join_table.row_by_id(rid) for rid in ids]
                        scanned += len(matches)
                    else:
                        matches = []
                        for row in join_table.rows():
                            scanned += 1
                            if row.get(new_ref.name) == old_value:
                                matches.append(row)
                    for match in matches:
                        merged = dict(exec_row)
                        merged[join_qualifier] = match
                        new_exec_rows.append(merged)
                exec_rows = new_exec_rows

            filtered = []
            for exec_row in exec_rows:
                keep = True
                for condition in residual_conditions:
                    left = self._resolve(condition.lhs, exec_row)
                    if isinstance(condition.rhs, ColumnRef):
                        right = self._resolve(condition.rhs, exec_row)
                    else:
                        right = self._bind(condition.rhs, params)
                    if not self._compare(condition.op, left, right):
                        keep = False
                        break
                if keep:
                    filtered.append(exec_row)

            has_aggregates = any(
                isinstance(i.expression, Aggregate) for i in statement.items
            )
            if has_aggregates or statement.group_by:
                result_rows = self._project_aggregates(statement, filtered)
                for order in reversed(statement.order_by):
                    key_name = self._order_key_name(order, statement, result_rows)
                    result_rows.sort(
                        key=lambda row: (row.get(key_name) is None, row.get(key_name)),
                        reverse=order.descending,
                    )
            else:
                result_rows = [
                    self._project_row(statement, exec_row) for exec_row in filtered
                ]
                for order in reversed(statement.order_by):
                    key_name = self._order_key_name(order, statement, result_rows)
                    paired = list(zip(result_rows, filtered))

                    def sort_key(pair):
                        projected, exec_row = pair
                        if key_name in projected:
                            value = projected[key_name]
                        elif isinstance(order.expression, ColumnRef):
                            try:
                                value = self._resolve(order.expression, exec_row)
                            except SqlExecutionError:
                                value = None
                        else:
                            value = None
                        return (value is None, value)

                    paired.sort(key=sort_key, reverse=order.descending)
                    result_rows = [projected for projected, _ in paired]
                    filtered = [exec_row for _, exec_row in paired]

            if statement.limit is not None:
                result_rows = result_rows[: statement.limit]

            return self._account("SELECT", result_rows, len(result_rows), scanned, index_lookups)

    return SeedRowHandlingDatabase
