"""Discrete-event simulation engine.

A minimal but complete event-driven scheduler: events carry a firing time, a
priority (to break ties deterministically) and a callback.  Callbacks may
schedule further events.  The engine advances the shared
:class:`~repro.sim.clock.SimClock` to each event's time before invoking it.

Design notes
------------
* Heap entries are plain ``(time, priority, seq, event)`` tuples so ordering
  never calls back into Python-level ``__lt__``; runs stay bit-for-bit
  reproducible regardless of dict/set iteration order because ``seq`` is a
  unique tertiary key.
* :class:`Event` uses ``__slots__`` and is excluded from the heap comparison,
  keeping per-event allocation cost minimal on the hot scheduling path.
* Cancelling an event marks it dead instead of removing it from the heap
  (classic lazy deletion) — O(1) cancel, O(log n) pop.  A live counter makes
  ``pending_events`` O(1) instead of an O(n) heap scan.
* ``run_until`` / ``run`` return the number of events executed, which the
  experiment harness uses as a sanity check.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

from repro.sim.clock import SimClock


class StopSimulation(Exception):
    """Raised by an event callback to terminate the simulation immediately."""


class Event:
    """A scheduled simulation event.

    Attributes
    ----------
    time:
        Simulated time (seconds) at which the event fires.
    priority:
        Secondary ordering key; lower fires first at equal time.
    seq:
        Monotonic sequence number assigned by the engine (tertiary key).
    callback:
        Zero-argument callable executed when the event fires.
    name:
        Optional human-readable label (shown in debugging / tracing).
    cancelled:
        Whether the event has been cancelled (it will be skipped when popped).
    """

    __slots__ = ("time", "priority", "seq", "callback", "name", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        name: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        self._engine: Optional["SimulationEngine"] = None

    def cancel(self) -> None:
        """Mark the event so that it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            engine._live -= 1
            self._engine = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, {state})"


class SimulationEngine:
    """Event queue + scheduler driving a :class:`SimClock`.

    Parameters
    ----------
    clock:
        The clock to drive.  A fresh clock is created when omitted.
    trace:
        When true, keeps an in-memory trace of executed event names
        (useful in tests; off by default to keep memory bounded).
    """

    def __init__(self, clock: Optional[SimClock] = None, trace: bool = False) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._executed = 0
        self._live = 0
        self._trace_enabled = trace
        self._trace: List[str] = []
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        time = float(time)
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule event in the past: now={self.clock.now}, time={time}"
            )
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, name)
        event._engine = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(
            self.clock.now + delay, callback, priority=priority, name=name
        )

    def schedule_callback(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Fast-path scheduling: no :class:`Event` handle, not cancellable.

        The closed-loop workload schedules (and immediately consumes) one
        event per simulated request; allocating a full :class:`Event` for
        each is the single largest interpreter cost of the event loop.  This
        entry point pushes a bare ``(time, priority, seq, callback)`` tuple
        instead.  Use :meth:`schedule_at` when the caller needs to cancel or
        trace the event.
        """
        time = float(time)
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule event in the past: now={self.clock.now}, time={time}"
            )
        heapq.heappush(self._heap, (time, priority, next(self._seq), callback))
        self._live += 1

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time (convenience passthrough)."""
        return self.clock.now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    @property
    def trace(self) -> List[str]:
        """Names of executed events, when tracing is enabled."""
        return list(self._trace)

    @property
    def trace_enabled(self) -> bool:
        """Whether executed event names are being recorded.

        Hot-path schedulers consult this to decide between the traceable
        :meth:`schedule_at` and the nameless :meth:`schedule_callback`.
        """
        return self._trace_enabled

    def stop(self) -> None:
        """Request the run loop to stop before executing the next event."""
        self._stopped = True

    def run_until(self, end_time: float) -> int:
        """Run events with ``time <= end_time``; leave the clock at ``end_time``.

        Returns the number of events executed during this call.
        """
        end_time = float(end_time)
        executed_before = self._executed
        self._stopped = False
        heap = self._heap
        clock = self.clock
        # The engine pops events in non-decreasing time order and refuses to
        # schedule in the past, so the direct slot write preserves the clock's
        # monotonicity invariant while skipping the property/validation cost
        # on the hottest loop of the whole simulator.
        fast_clock = type(clock) is SimClock
        trace_enabled = self._trace_enabled
        pop = heapq.heappop
        while heap and not self._stopped:
            entry = heap[0]
            time = entry[0]
            if time > end_time:
                break
            # Batched delivery: advance the clock once, then drain every
            # entry carrying exactly this timestamp in one heap pass.  The
            # heap top is re-read after every callback (callbacks may push
            # further same-time events, which must still fire in (priority,
            # seq) order), so execution order is identical to the one-pop-
            # per-iteration loop — only the redundant end-time comparisons
            # and clock writes are skipped.
            if fast_clock:
                clock.now = time
            else:
                clock.advance_to(time)
            while True:
                event = entry[3]
                if event.__class__ is Event:
                    if event.cancelled:
                        pop(heap)
                        if not heap:
                            break
                        entry = heap[0]
                        if entry[0] != time:
                            break
                        continue
                    event._engine = None
                    callback = event.callback
                    if trace_enabled and event.name:
                        self._trace.append(event.name)
                else:
                    callback = event
                pop(heap)
                self._live -= 1
                self._executed += 1
                try:
                    callback()
                except StopSimulation:
                    self._stopped = True
                if self._stopped or not heap:
                    break
                entry = heap[0]
                if entry[0] != time:
                    break
        if clock.now < end_time:
            clock.advance_to(end_time)
        return self._executed - executed_before

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` is reached)."""
        executed_before = self._executed
        self._stopped = False
        heap = self._heap
        clock = self.clock
        fast_clock = type(clock) is SimClock
        trace_enabled = self._trace_enabled
        pop = heapq.heappop
        while heap and not self._stopped:
            if max_events is not None and self._executed - executed_before >= max_events:
                break
            entry = pop(heap)
            event = entry[3]
            if event.__class__ is Event:
                if event.cancelled:
                    continue
                event._engine = None
                callback = event.callback
                if trace_enabled and event.name:
                    self._trace.append(event.name)
            else:
                callback = event
            self._live -= 1
            if fast_clock:
                clock.now = entry[0]
            else:
                clock.advance_to(entry[0])
            self._executed += 1
            try:
                callback()
            except StopSimulation:
                break
        return self._executed - executed_before

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationEngine(now={self.clock.now:.3f}, "
            f"pending={self.pending_events}, executed={self._executed})"
        )
