"""Memory-leak fault (the paper's case-study aging error)."""

from __future__ import annotations

from typing import Optional

from repro.faults.base import TriggeredFault
from repro.sim.random import RandomStreams

#: Leak sizes used in the paper's experiments (bytes).
KB = 1024
MB = 1024 * 1024


class MemoryLeakFault(TriggeredFault):
    """Leaks ``leak_bytes`` into the component's retained state on average
    once every ``period_n`` visits.

    Parameters
    ----------
    leak_bytes:
        Size of each injected leak (the paper uses 10 KB, 100 KB and 1 MB).
    period_n:
        The ``N`` of the paper's random countdown (100 in every experiment).
    streams:
        Random streams for the countdown draws (deterministic fallback when
        omitted).
    """

    kind = "memory-leak"

    def __init__(
        self,
        leak_bytes: int = 100 * KB,
        period_n: int = 100,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        super().__init__(period_n=period_n, streams=streams)
        if leak_bytes <= 0:
            raise ValueError(f"leak_bytes must be positive, got {leak_bytes}")
        self.leak_bytes = int(leak_bytes)
        self.leaked_bytes_total = 0

    def _inject(self, servlet, request) -> None:
        leak_object = servlet.runtime.allocate(
            f"{servlet.java_class_name}$LeakedBuffer",
            shallow_size=self.leak_bytes,
            owner=servlet.component_name,
        )
        # Retained by the component's long-lived state: the collector can
        # never reclaim it, exactly like a reference parked in a static list.
        servlet.retain_in_component_state(leak_object)
        self.leaked_bytes_total += self.leak_bytes

    def describe(self) -> str:
        return (
            f"memory-leak {self.leak_bytes} B every ~{self.period_n} visits "
            f"(injected {self.trigger_count} times, {self.leaked_bytes_total} B total)"
        )
