"""Slow-downstream fault: the faulted component's database calls get slow."""

from __future__ import annotations

from typing import Optional

from repro.faults.base import TriggeredFault
from repro.sim.random import RandomStreams


class SlowDownstreamFault(TriggeredFault):
    """Ages the downstream query latency of the faulted component.

    Each trigger deepens the degradation one level (bloating indexes, stale
    statistics, vacuum debt on the tables *this* servlet hits): every later
    visit to the component pays ``latency_step_seconds`` per level of extra
    downstream wait, capped at ``max_extra_seconds``.  No per-component
    resource grows — a pure latency-mode symptom, which is exactly the
    shape that turns naive immediate-retry clients into a retry storm:
    slower answers breed timeouts, timeouts breed retries, retries breed
    load on the already-slow dependency.

    ``shared_multiplier_step`` optionally models spillover onto the shared
    :class:`~repro.db.jdbc.DataSource` (every component's jdbc calls slow
    down together, capped at ``max_shared_multiplier``); it is off by
    default so the observable signature stays attributable to the faulted
    component.

    Observable signature: the component's response time inflates while CPU,
    heap, threads and connections stay flat.
    """

    kind = "slow-downstream"

    def __init__(
        self,
        latency_step_seconds: float = 0.02,
        max_extra_seconds: float = 5.0,
        shared_multiplier_step: float = 0.0,
        max_shared_multiplier: float = 6.0,
        period_n: int = 100,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        super().__init__(period_n=period_n, streams=streams)
        if latency_step_seconds < 0 or shared_multiplier_step < 0:
            raise ValueError("latency steps must be non-negative")
        if latency_step_seconds == 0 and shared_multiplier_step == 0:
            raise ValueError(
                "at least one of latency_step_seconds / shared_multiplier_step must be positive"
            )
        if max_extra_seconds <= 0:
            raise ValueError(f"max_extra_seconds must be positive, got {max_extra_seconds}")
        if max_shared_multiplier < 1.0:
            raise ValueError(
                f"max_shared_multiplier must be >= 1.0, got {max_shared_multiplier}"
            )
        self.latency_step_seconds = float(latency_step_seconds)
        self.max_extra_seconds = float(max_extra_seconds)
        self.shared_multiplier_step = float(shared_multiplier_step)
        self.max_shared_multiplier = float(max_shared_multiplier)
        #: Degradation depth (one level per trigger).
        self.degradation_level = 0

    def current_extra_seconds(self) -> float:
        """Extra downstream wait each visit pays at the current depth."""
        return min(
            self.latency_step_seconds * self.degradation_level, self.max_extra_seconds
        )

    def on_request(self, servlet, request) -> None:
        if not self.active:
            return
        self.request_count += 1
        if self._should_trigger(servlet):
            self.trigger_count += 1
            self._inject(servlet, request)
        extra = self.current_extra_seconds()
        if extra > 0:
            servlet.charge_fault_latency(extra)

    def _inject(self, servlet, request) -> None:
        self.degradation_level += 1
        if self.shared_multiplier_step > 0:
            servlet.datasource.inflate_latency(
                self.shared_multiplier_step,
                max_multiplier=self.max_shared_multiplier,
            )

    def describe(self) -> str:
        return (
            f"slow-downstream +{self.latency_step_seconds * 1000.0:.0f}ms/visit per "
            f"~{self.period_n} visits (depth {self.degradation_level}, "
            f"now +{self.current_extra_seconds() * 1000.0:.0f}ms, "
            f"cap {self.max_extra_seconds:.1f}s)"
        )
