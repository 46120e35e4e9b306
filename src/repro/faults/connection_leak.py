"""JDBC connection-leak aging fault (future-work resource in the paper)."""

from __future__ import annotations

from typing import List, Optional

from repro.faults.base import TriggeredFault
from repro.db.jdbc import ConnectionPoolExhaustedError
from repro.sim.random import RandomStreams


class ConnectionLeakFault(TriggeredFault):
    """Borrows a pooled connection and never returns it.

    Once the pool bound is hit, subsequent borrows by *any* component fail —
    the classic shared-resource exhaustion that makes root-cause attribution
    hard for black-box monitors and easy for per-component accounting.
    """

    kind = "connection-leak"

    def __init__(
        self,
        period_n: int = 100,
        streams: Optional[RandomStreams] = None,
        max_leaked: int = 10_000,
    ) -> None:
        super().__init__(period_n=period_n, streams=streams)
        if max_leaked <= 0:
            raise ValueError(f"max_leaked must be positive, got {max_leaked}")
        self.max_leaked = int(max_leaked)
        self._held: List[object] = []

    def _inject(self, servlet, request) -> None:
        # Connections force-closed by a rejuvenation recycle drop out of the
        # held set: the micro-reboot destroyed the component state that
        # referenced them, so the leak starts accumulating from scratch.
        if self._held and any(c.is_closed for c in self._held):
            self._held = [c for c in self._held if not c.is_closed]
        if len(self._held) >= self.max_leaked:
            return
        try:
            connection = servlet.datasource.get_connection(owner=servlet.component_name)
        except ConnectionPoolExhaustedError:
            return
        # Keep the connection referenced forever; it is never closed.
        self._held.append(connection)

    @property
    def leaked_connections(self) -> int:
        """Connections currently held by the fault."""
        return len(self._held)

    def release_all(self) -> int:
        """Return every held connection to the pool (used by rejuvenation tests)."""
        released = 0
        for connection in self._held:
            connection.close()
            released += 1
        self._held.clear()
        return released

    def describe(self) -> str:
        return (
            f"connection-leak every ~{self.period_n} visits "
            f"(holding {self.leaked_connections} connections)"
        )
