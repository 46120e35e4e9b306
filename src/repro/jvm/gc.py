"""Mark-sweep garbage collector model.

A full collection marks every object reachable from the heap's root set and
sweeps the rest.  The collector also models *pause time* (proportional to the
number of live objects plus the bytes swept), which the container adds to
in-flight request service time so that heavy allocation pressure degrades
response time — one of the observable symptoms of software aging the paper
discusses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.jvm.heap import Heap


@dataclass
class GCStats:
    """Aggregate statistics across all collections."""

    collections: int = 0
    total_pause_seconds: float = 0.0
    total_bytes_reclaimed: int = 0
    total_objects_reclaimed: int = 0

    @property
    def mean_pause_seconds(self) -> float:
        """Mean pause per collection (0 when no collection happened)."""
        if self.collections == 0:
            return 0.0
        return self.total_pause_seconds / self.collections


class GarbageCollector:
    """Stop-the-world mark-sweep collector over a :class:`~repro.jvm.heap.Heap`.

    Parameters
    ----------
    heap:
        The heap to collect.
    mark_cost_per_object:
        Simulated seconds of pause per live (marked) object.
    sweep_cost_per_mbyte:
        Simulated seconds of pause per MiB of reclaimed memory.
    base_pause:
        Fixed pause overhead per collection cycle.
    """

    def __init__(
        self,
        heap: Heap,
        mark_cost_per_object: float = 2e-7,
        sweep_cost_per_mbyte: float = 1e-3,
        base_pause: float = 5e-3,
    ) -> None:
        if mark_cost_per_object < 0 or sweep_cost_per_mbyte < 0 or base_pause < 0:
            raise ValueError("GC cost parameters must be non-negative")
        self.heap = heap
        self.mark_cost_per_object = mark_cost_per_object
        self.sweep_cost_per_mbyte = sweep_cost_per_mbyte
        self.base_pause = base_pause
        self.stats = GCStats()

    def collect(self) -> float:
        """Run one full collection and return the simulated pause in seconds."""
        reachable = self.heap.reachable_from_roots()
        garbage = [obj for obj in self.heap.live_objects() if obj.object_id not in reachable]

        reclaimed_bytes = 0
        for obj in garbage:
            reclaimed_bytes += obj.shallow_size
            self.heap.free(obj)

        live_count = self.heap.live_object_count
        pause = (
            self.base_pause
            + self.mark_cost_per_object * live_count
            + self.sweep_cost_per_mbyte * (reclaimed_bytes / (1024.0 * 1024.0))
        )

        self.stats.collections += 1
        self.stats.total_pause_seconds += pause
        self.stats.total_bytes_reclaimed += reclaimed_bytes
        self.stats.total_objects_reclaimed += len(garbage)
        return pause
