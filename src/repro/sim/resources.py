"""Capacity resources for the simulated stack.

The container uses :class:`CapacityResource` to model its worker thread pool
and the CPU of the application-server machine: a request must acquire a
"slot" before its service time elapses.  When all slots are busy the request
queues, which is how load (200 EBs in Fig. 3) turns into response-time
growth and, eventually, throughput saturation.

These resources work in *virtual time*: acquisition is non-blocking — the
caller asks "when could a slot start serving `duration` seconds of work if
requested at time `t`?" and the resource returns the start/finish times while
booking the slot.  This keeps the whole stack single-threaded and
deterministic.
"""

from __future__ import annotations

import heapq
from typing import List, Optional


class ResourceBusyError(RuntimeError):
    """Raised when a bounded-queue resource rejects a request."""


class CapacityResource:
    """A multi-server resource with FIFO booking in virtual time.

    Parameters
    ----------
    capacity:
        Number of parallel servers (threads, CPU cores, DB connections).
    name:
        Human-readable label, used in error messages and metrics.
    max_queue:
        Maximum number of bookings waiting for a server: a request is
        refused when ``capacity + max_queue`` earlier bookings are still
        unfinished at its request time.  ``None`` means unbounded.  A
        bounded resource must be asked in request-time order.
    """

    def __init__(self, capacity: int, name: str = "resource", max_queue: int | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_queue is not None and max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.name = name
        self.capacity = int(capacity)
        self.max_queue = max_queue
        # Next time each server becomes free, as a min-heap: ``acquire`` only
        # ever needs the earliest-free server, and a thread pool has hundreds
        # of slots — the seed's unsorted linear scan was O(capacity) on every
        # request.  Only the multiset of times matters (which physical server
        # serves a booking is unobservable), so the heap is result-identical.
        self._free_at: List[float] = [0.0] * self.capacity
        #: Finish times of the bookings not finished at the latest request
        #: time, as a min-heap; kept only when the queue is bounded.
        self._unfinished: Optional[List[float]] = None if max_queue is None else []
        self._total_busy_time = 0.0
        self._total_wait_time = 0.0
        self._served = 0
        self._rejected = 0

    # ------------------------------------------------------------------ #
    def acquire(self, request_time: float, duration: float) -> tuple[float, float]:
        """Book ``duration`` seconds of work requested at ``request_time``.

        Returns
        -------
        (start, finish):
            ``start`` is when a server actually begins the work (>= request
            time) and ``finish`` is ``start + duration``.

        Raises
        ------
        ResourceBusyError
            If the queue bound would be exceeded.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        # The server that frees up earliest is the heap root.
        free_at = self._free_at
        best_free = free_at[0]

        unfinished = self._unfinished
        if unfinished is not None:
            # Request times never decrease, so a booking finished by now
            # stays finished.
            while unfinished and unfinished[0] <= request_time:
                heapq.heappop(unfinished)
            if len(unfinished) >= self.capacity + self.max_queue:
                self._rejected += 1
                raise ResourceBusyError(
                    f"{self.name}: all {self.capacity} servers busy and queue bound "
                    f"{self.max_queue} exceeded at t={request_time:.3f}"
                )

        start = best_free if best_free > request_time else request_time
        finish = start + duration
        heapq.heapreplace(free_at, finish)
        if unfinished is not None:
            heapq.heappush(unfinished, finish)
        self._total_busy_time += duration
        self._total_wait_time += start - request_time
        self._served += 1
        return start, finish

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def busy_servers(self, at_time: float) -> int:
        """Number of servers still busy at ``at_time``."""
        return sum(1 for t in self._free_at if t > at_time)

    def utilization(self, elapsed: float) -> float:
        """Average utilisation over ``elapsed`` seconds of simulated time."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._total_busy_time / (elapsed * self.capacity))

    @property
    def served(self) -> int:
        """Number of successfully booked acquisitions."""
        return self._served

    @property
    def rejected(self) -> int:
        """Number of rejected acquisitions (queue bound exceeded)."""
        return self._rejected

    @property
    def total_wait_time(self) -> float:
        """Accumulated queueing delay across all acquisitions (seconds)."""
        return self._total_wait_time

    @property
    def total_busy_time(self) -> float:
        """Accumulated service time across all acquisitions (seconds)."""
        return self._total_busy_time

    def mean_wait(self) -> float:
        """Mean queueing delay per served acquisition."""
        if self._served == 0:
            return 0.0
        return self._total_wait_time / self._served

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CapacityResource(name={self.name!r}, capacity={self.capacity}, served={self._served})"
