"""Tables, columns and secondary indexes."""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple


class ColumnType(enum.Enum):
    """Supported column types (a pragmatic subset of MySQL's)."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    VARCHAR = "VARCHAR"
    DATE = "DATE"      # stored as float (simulated epoch seconds)
    BOOLEAN = "BOOLEAN"

    def validate(self, value: Any) -> bool:
        """Whether ``value`` is acceptable for this column type (NULL always is)."""
        if value is None:
            return True
        if self is ColumnType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is ColumnType.VARCHAR:
            return isinstance(value, str)
        if self is ColumnType.DATE:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is ColumnType.BOOLEAN:
            return isinstance(value, bool)
        return False  # pragma: no cover - exhaustive enum


#: Per column type, the exact classes whose every value :meth:`ColumnType.validate`
#: accepts.  A row check takes a value of one of them without the call; any
#: other value (``True`` in a numeric column, ``numpy.float64``, an
#: ``IntEnum``) still goes through ``validate``.
_EXACT_CLASSES: Dict[ColumnType, Tuple[type, ...]] = {
    ColumnType.INTEGER: (int,),
    ColumnType.FLOAT: (int, float),
    ColumnType.VARCHAR: (str,),
    ColumnType.DATE: (int, float),
    ColumnType.BOOLEAN: (bool,),
}


@dataclass(frozen=True)
class Column:
    """A table column definition."""

    name: str
    type: ColumnType
    primary_key: bool = False
    nullable: bool = True


class UniqueViolationError(ValueError):
    """Raised when inserting a duplicate primary-key value."""


class _SecondaryIndex:
    """Equality index: column value -> set of row ids."""

    def __init__(self, column: str) -> None:
        self.column = column
        self._buckets: Dict[Any, Set[int]] = {}

    def add(self, value: Any, row_id: int) -> None:
        self._buckets.setdefault(value, set()).add(row_id)

    def remove(self, value: Any, row_id: int) -> None:
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> Set[int]:
        return set(self._buckets.get(value, set()))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class Table:
    """An in-memory table with a primary key and optional secondary indexes.

    Rows are dictionaries keyed by column name; each row gets an internal
    integer ``row id`` used by indexes.  All mutation goes through
    :meth:`insert`, :meth:`update_rows` and :meth:`delete_rows` so that index
    maintenance, data versions and validation stay in one place.
    """

    def __init__(
        self,
        name: str,
        columns: List[Column],
        on_schema_change: Optional[Callable[["Table"], None]] = None,
    ) -> None:
        if not columns:
            raise ValueError(f"table {name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {name!r}: {names}")
        primary = [c for c in columns if c.primary_key]
        if len(primary) > 1:
            raise ValueError(f"table {name!r} has multiple primary key columns")
        self.name = name
        self.columns = list(columns)
        self._columns_by_name = {c.name: c for c in columns}
        #: One entry per column, in declaration order, for :meth:`_validate_row`:
        #: ``(name, refuses NULL, exact classes, type)``.
        self._row_checks = tuple(
            (c.name, not c.nullable and not c.primary_key, _EXACT_CLASSES[c.type], c.type)
            for c in columns
        )
        self.primary_key: Optional[str] = primary[0].name if primary else None
        self._rows: Dict[int, Dict[str, Any]] = {}
        self._next_row_id = 1
        self._pk_index: Dict[Any, int] = {}
        self._secondary: Dict[str, _SecondaryIndex] = {}
        #: Planner-built sorted ``str()`` keys per column, for ``LIKE``
        #: prefix probes: ``(stamp, keys, row ids)`` with the row ids aligned
        #: to the ascending keys, stamped with ``(rows_version, column
        #: version)`` and rebuilt on first demand after either moves.
        self._sorted_keys: Dict[str, Tuple[Tuple[int, int], List[str], List[int]]] = {}
        #: Called with the table when an index is declared on it (the owning
        #: database drops the cached plans that read it).
        self._on_schema_change = on_schema_change
        #: Data versions, read by the planner's memos: ``rows_version``
        #: moves on every insert and delete, ``deletes`` on deletes only (so
        #: "only appends happened" is visible), and ``column_versions`` per
        #: column each time :meth:`update_rows` assigns it.
        self.rows_version = 0
        self.deletes = 0
        self.column_versions: Dict[str, int] = dict.fromkeys(names, 0)

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #
    def column(self, name: str) -> Column:
        """The column definition for ``name``."""
        column = self._columns_by_name.get(name)
        if column is None:
            raise KeyError(f"table {self.name!r} has no column {name!r}")
        return column

    def has_column(self, name: str) -> bool:
        """Whether the table defines a column named ``name``."""
        return name in self._columns_by_name

    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    def create_index(self, column_name: str) -> None:
        """Create an equality index over ``column_name`` (idempotent)."""
        self.column(column_name)
        if column_name in self._secondary:
            return
        index = _SecondaryIndex(column_name)
        for row_id, row in self._rows.items():
            index.add(row.get(column_name), row_id)
        self._secondary[column_name] = index
        if self._on_schema_change is not None:
            self._on_schema_change(self)

    def has_index(self, column_name: str) -> bool:
        """Whether a declared equality index (or the primary key) covers the column."""
        return column_name in self._secondary or column_name == self.primary_key

    def prefix_row_ids(self, column_name: str, prefix: str) -> List[int]:
        """Ascending ids of the rows whose non-NULL ``str()`` value starts with ``prefix``.

        Bisects the column's sorted ``str()`` keys, which are built on first
        demand and rebuilt when a row is inserted or deleted or the column
        is updated.  It is a physical acceleration only: the planner still
        charges the full scan.
        """
        stamp = (self.rows_version, self.column_versions.get(column_name, 0))
        entry = self._sorted_keys.get(column_name)
        if entry is None or entry[0] != stamp:
            self.column(column_name)
            pairs = sorted(
                (str(value), row_id)
                for row_id, row in self._rows.items()
                if (value := row[column_name]) is not None
            )
            entry = (stamp, [key for key, _ in pairs], [row_id for _, row_id in pairs])
            self._sorted_keys[column_name] = entry
        _, keys, row_ids = entry
        low = bisect_left(keys, prefix)
        # Every key that starts with ``prefix`` sorts below ``prefix``'s
        # successor: its last character below the maximum code point, plus one.
        stem = prefix.rstrip("\U0010ffff")
        high = (
            bisect_left(keys, stem[:-1] + chr(ord(stem[-1]) + 1), low) if stem else len(keys)
        )
        return sorted(row_ids[low:high])

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _validate_row(self, values: Dict[str, Any]) -> Dict[str, Any]:
        row: Dict[str, Any] = {}
        get = values.get
        for name, refuses_null, exact, column_type in self._row_checks:
            value = get(name)
            if value is None:
                if refuses_null:
                    raise ValueError(f"column {name!r} of table {self.name!r} is not nullable")
            elif type(value) not in exact and not column_type.validate(value):
                raise TypeError(
                    f"value {value!r} is not valid for column {name!r} "
                    f"({column_type.value}) of table {self.name!r}"
                )
            row[name] = value
        if not values.keys() <= self._columns_by_name.keys():
            unknown = set(values) - set(self._columns_by_name)
            raise KeyError(f"unknown columns {sorted(unknown)} for table {self.name!r}")
        return row

    def insert(self, values: Dict[str, Any]) -> int:
        """Insert a row; returns the internal row id."""
        row = self._validate_row(values)
        if self.primary_key is not None:
            pk_value = row.get(self.primary_key)
            if pk_value is None:
                raise ValueError(f"primary key {self.primary_key!r} must not be NULL")
            if pk_value in self._pk_index:
                raise UniqueViolationError(
                    f"duplicate primary key {pk_value!r} in table {self.name!r}"
                )
        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = row
        if self.primary_key is not None:
            self._pk_index[row[self.primary_key]] = row_id
        for column_name, index in self._secondary.items():
            index.add(row.get(column_name), row_id)
        self.rows_version += 1
        return row_id

    def update_rows(self, row_ids: Iterable[int], changes: Dict[str, Any]) -> int:
        """Apply ``changes`` to the given rows; returns the number updated."""
        for column_name, value in changes.items():
            column = self.column(column_name)
            if value is None and not column.nullable and not column.primary_key:
                raise ValueError(
                    f"column {column_name!r} of table {self.name!r} is not nullable"
                )
            if not column.type.validate(value):
                raise TypeError(
                    f"value {value!r} is not valid for column {column_name!r} "
                    f"({column.type.value})"
                )
            if column.primary_key:
                raise ValueError("updating primary key columns is not supported")
        count = 0
        for row_id in row_ids:
            row = self._rows.get(row_id)
            if row is None:
                continue
            for column_name, value in changes.items():
                index = self._secondary.get(column_name)
                if index is not None:
                    index.remove(row.get(column_name), row_id)
                    index.add(value, row_id)
                row[column_name] = value
            count += 1
        if count:
            for column_name in changes:
                self.column_versions[column_name] += 1
        return count

    def delete_rows(self, row_ids: Iterable[int]) -> int:
        """Delete the given rows; returns the number deleted."""
        count = 0
        for row_id in list(row_ids):
            row = self._rows.pop(row_id, None)
            if row is None:
                continue
            if self.primary_key is not None:
                self._pk_index.pop(row.get(self.primary_key), None)
            for column_name, index in self._secondary.items():
                index.remove(row.get(column_name), row_id)
            count += 1
        if count:
            self.rows_version += 1
            self.deletes += 1
        return count

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Iterate over row dicts (copies are not made; do not mutate)."""
        return iter(self._rows.values())

    def rows_with_ids(self) -> Iterator[tuple]:
        """Iterate over ``(row_id, row)`` pairs."""
        return iter(self._rows.items())

    def get_by_pk(self, value: Any) -> Optional[Dict[str, Any]]:
        """The row whose primary key equals ``value``, or ``None``."""
        if self.primary_key is None:
            raise ValueError(f"table {self.name!r} has no primary key")
        row_id = self._pk_index.get(value)
        if row_id is None:
            return None
        return self._rows[row_id]

    def lookup_ids(self, column_name: str, value: Any) -> Set[int]:
        """Row ids whose ``column_name`` equals ``value`` (uses indexes when possible)."""
        if column_name == self.primary_key:
            row_id = self._pk_index.get(value)
            return {row_id} if row_id is not None else set()
        index = self._secondary.get(column_name)
        if index is not None:
            return index.lookup(value)
        return {
            row_id for row_id, row in self._rows.items() if row.get(column_name) == value
        }

    def row_by_id(self, row_id: int) -> Dict[str, Any]:
        """The row stored under the internal ``row_id``."""
        return self._rows[row_id]
