"""JVM runtime facade.

Combines the heap, collector and thread registry behind an interface shaped
like ``java.lang.Runtime`` + the ``java.lang.management`` MXBeans, which is
what the paper's JMX monitoring agents talk to.  It also accounts simulated
CPU time per component so the CPU monitoring agent (an extension fault type
the paper lists as future work) has something to read.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.jvm.gc import GarbageCollector
from repro.jvm.heap import DEFAULT_HEAP_BYTES, Heap, OutOfMemoryError
from repro.jvm.objects import JavaObject
from repro.jvm.threads import ThreadRegistry


class JvmRuntime:
    """The simulated JVM: heap + GC + threads + CPU accounting.

    Parameters
    ----------
    heap_bytes:
        Maximum heap size (defaults to the paper's 1 GB Tomcat heap).
    gc_occupancy_threshold:
        Heap occupancy fraction (in ``(0, 1]``) at or above which an
        allocation first runs a collection.
    thread_capacity:
        Maximum live threads (OS/ulimit analogue); ``None`` = unlimited.
    """

    def __init__(
        self,
        heap_bytes: int = DEFAULT_HEAP_BYTES,
        gc_occupancy_threshold: float = 0.7,
        thread_capacity: Optional[int] = None,
    ) -> None:
        if not 0.0 < gc_occupancy_threshold <= 1.0:
            raise ValueError(
                f"gc_occupancy_threshold must be in (0, 1], got {gc_occupancy_threshold}"
            )
        self.heap = Heap(capacity_bytes=heap_bytes)
        self.collector = GarbageCollector(self.heap)
        self.threads = ThreadRegistry(capacity=thread_capacity, heap=self.heap)
        self.gc_occupancy_threshold = gc_occupancy_threshold
        self._cpu_seconds_by_owner: Dict[str, float] = {}
        self._total_cpu_seconds = 0.0
        self._pending_gc_pause = 0.0

    # ------------------------------------------------------------------ #
    # Memory API (Runtime/MemoryMXBean analogue)
    # ------------------------------------------------------------------ #
    def total_memory(self) -> int:
        """Heap capacity in bytes (``Runtime.totalMemory`` analogue)."""
        return self.heap.capacity_bytes

    def used_memory(self) -> int:
        """Bytes currently allocated."""
        return self.heap.used_bytes

    def free_memory(self) -> int:
        """Bytes currently free (``Runtime.freeMemory`` analogue)."""
        return self.heap.free_bytes

    def allocate(
        self,
        class_name: str,
        shallow_size: int,
        owner: Optional[str] = None,
        root: bool = False,
    ) -> JavaObject:
        """Allocate an object, running the collector once under memory pressure.

        A collection runs first when the heap's occupancy is at or above
        :attr:`gc_occupancy_threshold`, and again if the object still does
        not fit.

        Raises
        ------
        OutOfMemoryError
            If the allocation still does not fit after a full collection.
        """
        heap = self.heap
        if heap.used_bytes >= self.gc_occupancy_threshold * heap.capacity_bytes:
            self._pending_gc_pause += self.collector.collect()
        try:
            return heap.allocate(class_name, shallow_size, owner, root)
        except OutOfMemoryError:
            self._pending_gc_pause += self.collector.collect()
            return heap.allocate(class_name, shallow_size, owner, root)

    def reclaim_owned(self, owner: str, keep_roots: bool = True) -> Tuple[int, int]:
        """Free the objects attributed to ``owner`` (component micro-reboot).

        Returns ``(objects_freed, bytes_freed)``.  Unlike :meth:`gc` this is
        surgical — no collection cycle runs and no GC pause accrues; the
        rejuvenation controller accounts the micro-reboot's downtime itself.
        """
        return self.heap.reclaim_owned(owner, keep_roots=keep_roots)

    def gc(self) -> float:
        """Explicit ``System.gc()``; returns the simulated pause."""
        pause = self.collector.collect()
        self._pending_gc_pause += pause
        return pause

    def inject_gc_pause(self, pause_seconds: float) -> None:
        """Queue an externally induced stop-the-world pause.

        Fault models (e.g. a GC-pause storm) use this to make the *next*
        request pay a collection pause the allocation model alone would not
        produce — the worker thread holds its slot for the whole pause, so
        heavy pauses stall the pool exactly like a real STW collection.
        """
        if pause_seconds < 0:
            raise ValueError(f"pause_seconds must be non-negative, got {pause_seconds}")
        self._pending_gc_pause += float(pause_seconds)

    def consume_pending_gc_pause(self) -> float:
        """Return and clear accumulated GC pause time.

        The container polls this after each request and adds the pause to the
        request's response time, coupling allocation pressure to latency.
        """
        pause = self._pending_gc_pause
        self._pending_gc_pause = 0.0
        return pause

    # ------------------------------------------------------------------ #
    # CPU accounting
    # ------------------------------------------------------------------ #
    def record_cpu_time(self, owner: str, seconds: float) -> None:
        """Attribute ``seconds`` of simulated CPU time to ``owner``."""
        if seconds < 0:
            raise ValueError(f"cpu seconds must be non-negative, got {seconds}")
        self._cpu_seconds_by_owner[owner] = self._cpu_seconds_by_owner.get(owner, 0.0) + seconds
        self._total_cpu_seconds += seconds

    def cpu_time(self, owner: Optional[str] = None) -> float:
        """Total CPU seconds, for one owner or the whole JVM."""
        if owner is None:
            return self._total_cpu_seconds
        return self._cpu_seconds_by_owner.get(owner, 0.0)

    def cpu_time_by_owner(self) -> Dict[str, float]:
        """A copy of the per-owner CPU accounting table."""
        return dict(self._cpu_seconds_by_owner)

    # ------------------------------------------------------------------ #
    # Threads
    # ------------------------------------------------------------------ #
    def thread_count(self) -> int:
        """Number of live threads (ThreadMXBean ``getThreadCount`` analogue)."""
        return self.threads.live_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JvmRuntime(used={self.heap.used_bytes}/{self.heap.capacity_bytes} bytes, "
            f"threads={self.threads.live_count()})"
        )
