"""JDBC-like access layer with a bounded connection pool.

The TPC-W servlets obtain connections from a :class:`DataSource`, execute
parameterised statements on them and iterate :class:`ResultSet`s — mirroring
the structure of the original TPC-W Java servlet code.  Two behaviours matter
for the reproduction:

* every executed statement reports the engine's *simulated cost*, which the
  servlet accumulates into its request service time; and
* the pool is bounded (Tomcat's DBCP default-ish size), so a connection-leak
  fault (a servlet that "forgets" to call :meth:`Connection.close`)
  eventually exhausts it — one of the future-work aging causes the extension
  benchmarks explore.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.db.engine import Database
from repro.db.sql import Statement


class SQLError(RuntimeError):
    """Generic JDBC-level error (closed connection, bad statement, ...)."""


class ConnectionPoolExhaustedError(SQLError):
    """Raised when no pooled connection is available."""


#: The current row of a cursor ``next()`` has not moved yet: it has no columns.
_BEFORE_FIRST_ROW: Dict[str, Any] = {}


class ResultSet:
    """Forward-only cursor over a query result's rows."""

    __slots__ = ("_rows", "_index", "_row")

    def __init__(self, rows: List[Dict[str, Any]]) -> None:
        self._rows = rows
        self._index = -1
        #: The row ``next()`` moved to; it stays on the last row at the end.
        self._row = _BEFORE_FIRST_ROW

    def next(self) -> bool:
        """Advance to the next row; returns ``False`` past the end."""
        index = self._index + 1
        if index >= len(self._rows):
            return False
        self._index = index
        self._row = self._rows[index]
        return True

    def get(self, column: str) -> Any:
        """Value of ``column`` in the current row."""
        try:
            return self._row[column]
        except KeyError:
            if self._index < 0:
                raise SQLError("ResultSet.next() has not been called") from None
            raise SQLError(
                f"result has no column {column!r} (columns: {sorted(self._row)})"
            ) from None

    # The typed getters read the current row themselves; ``get`` only
    # words the error of a missing column.  A value whose class is exactly
    # the getter's type is returned as it is: it is the very object the
    # conversion would return.  Every other value (``bool``, numpy scalars,
    # subclasses, NULL) converts.
    def get_int(self, column: str) -> int:
        """Integer value of ``column`` (NULL maps to 0, JDBC-style)."""
        try:
            value = self._row[column]
        except KeyError:
            value = self.get(column)
        if type(value) is int:
            return value
        return int(value) if value is not None else 0

    def get_float(self, column: str) -> float:
        """Float value of ``column`` (NULL maps to 0.0)."""
        try:
            value = self._row[column]
        except KeyError:
            value = self.get(column)
        if type(value) is float:
            return value
        return float(value) if value is not None else 0.0

    def get_string(self, column: str) -> Optional[str]:
        """String value of ``column`` (may be ``None``)."""
        try:
            value = self._row[column]
        except KeyError:
            value = self.get(column)
        if type(value) is str:
            return value
        return None if value is None else str(value)

    def __len__(self) -> int:
        return len(self._rows)


class Connection:
    """A pooled database connection."""

    def __init__(
        self, datasource: "DataSource", connection_id: int, owner: Optional[str] = None
    ) -> None:
        self._datasource = datasource
        self.connection_id = connection_id
        #: Component that borrowed the connection (``None``: untagged).
        self.owner = owner
        self._closed = False

    # ------------------------------------------------------------------ #
    # Each statement is one ``Database.execute`` call; its cost, aged by the
    # data source's latency inflation, accrues to the data source, which the
    # container reads around each request.
    def execute_query(self, sql: Union[str, Statement], params: Sequence[Any] = ()) -> ResultSet:
        """Execute a SELECT directly (SQL text or a pre-parsed statement)."""
        if self._closed:
            raise SQLError(f"connection {self.connection_id} is closed")
        datasource = self._datasource
        result = datasource.database.execute(sql, params)
        datasource.total_cost_seconds += (
            result.cost_seconds * datasource.latency_multiplier + datasource.extra_latency_seconds
        )
        return ResultSet(result.rows)

    def execute_update(self, sql: Union[str, Statement], params: Sequence[Any] = ()) -> int:
        """Execute an INSERT/UPDATE/DELETE directly (SQL text or pre-parsed)."""
        if self._closed:
            raise SQLError(f"connection {self.connection_id} is closed")
        datasource = self._datasource
        result = datasource.database.execute(sql, params)
        datasource.total_cost_seconds += (
            result.cost_seconds * datasource.latency_multiplier + datasource.extra_latency_seconds
        )
        return result.rowcount

    def close(self) -> None:
        """Return the connection to the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._datasource._release(self)

    @property
    def is_closed(self) -> bool:
        """Whether the connection has been returned to the pool."""
        return self._closed

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class DataSource:
    """A bounded connection pool over a :class:`~repro.db.engine.Database`.

    Parameters
    ----------
    database:
        The backing database engine.
    pool_size:
        Maximum simultaneously open connections (Tomcat DBCP-style bound).
    """

    def __init__(self, database: Database, pool_size: int = 32) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.database = database
        self.pool_size = int(pool_size)
        self._next_id = 1
        self._in_use: Dict[int, Connection] = {}
        #: Simulated query cost accumulated by every connection (read by the
        #: container around each request).
        self.total_cost_seconds = 0.0
        self.exhaustion_events = 0
        #: Multiplier applied to every recorded query cost (1.0 = healthy).
        #: Slow-downstream faults age this upward (bloated indexes, stale
        #: statistics); every component's jdbc calls get slower together.
        self.latency_multiplier = 1.0
        #: Flat extra seconds added to every recorded query cost.
        self.extra_latency_seconds = 0.0

    # ------------------------------------------------------------------ #
    def get_connection(self, owner: Optional[str] = None) -> Connection:
        """Borrow a connection, optionally tagged with the borrowing component.

        The tag is what makes connection leaks *attributable*: the pool can
        report how many connections each component holds, and a component
        micro-reboot can force-close exactly its share.

        Raises
        ------
        ConnectionPoolExhaustedError
            If ``pool_size`` connections are already in use (leaked
            connections count — that is the point of the leak fault).
        """
        if len(self._in_use) >= self.pool_size:
            self.exhaustion_events += 1
            raise ConnectionPoolExhaustedError(
                f"connection pool exhausted ({self.pool_size} in use)"
            )
        connection = Connection(self, self._next_id, owner=owner)
        self._next_id += 1
        self._in_use[connection.connection_id] = connection
        return connection

    def _release(self, connection: Connection) -> None:
        self._in_use.pop(connection.connection_id, None)

    def release_owned(self, owner: str) -> int:
        """Force-close every in-use connection tagged with ``owner``.

        The connection half of a component micro-reboot (Tomcat's
        removed-abandoned semantics on redeploy): whatever the recycled
        component still held goes back to the pool.  Returns how many
        connections were reclaimed.
        """
        victims = [c for c in self._in_use.values() if c.owner == owner]
        for connection in victims:
            connection.close()
        return len(victims)

    def active_by_owner(self) -> Dict[str, int]:
        """In-use connection counts grouped by borrowing component."""
        counts: Dict[str, int] = {}
        for connection in self._in_use.values():
            key = connection.owner or "<untagged>"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def inflate_latency(
        self,
        multiplier_increment: float = 0.0,
        extra_seconds_increment: float = 0.0,
        max_multiplier: Optional[float] = None,
    ) -> float:
        """Age the downstream database: permanently inflate query latency.

        Returns the multiplier now in effect.  ``max_multiplier`` caps the
        aging so scenarios stay bounded.
        """
        if multiplier_increment < 0 or extra_seconds_increment < 0:
            raise ValueError("latency inflation increments must be non-negative")
        self.latency_multiplier += float(multiplier_increment)
        if max_multiplier is not None:
            self.latency_multiplier = min(self.latency_multiplier, float(max_multiplier))
        self.extra_latency_seconds += float(extra_seconds_increment)
        return self.latency_multiplier

    @property
    def active_connections(self) -> int:
        """Connections currently borrowed and not yet closed."""
        return len(self._in_use)

    @property
    def available_connections(self) -> int:
        """Connections that could still be borrowed."""
        return self.pool_size - len(self._in_use)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataSource(db={self.database.name!r}, active={self.active_connections}/"
            f"{self.pool_size})"
        )
