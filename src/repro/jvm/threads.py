"""JVM thread registry.

Thread leaks are one of the aging causes the paper lists as future work; the
extension benchmarks inject them, and the thread monitoring agent
(:mod:`repro.core.monitoring_agents`) reads counts from this registry, which
mimics ``java.lang.management.ThreadMXBean``.

The registry keeps its live counts (in total and per owner) rather than
recounting them: the thread agent reads both on every advice, and every
application server spawns its whole worker pool at set-up.  A thread's
liveness changes only when :meth:`ThreadRegistry.spawn` starts it and when
it terminates, and a spawned thread tells its registry when it terminates,
whether through :meth:`ThreadRegistry.terminate` or a direct
:meth:`JvmThread.terminate`.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, Tuple


class ThreadLimitError(RuntimeError):
    """Raised when the JVM cannot create another thread.

    The analogue of ``java.lang.OutOfMemoryError: unable to create new
    native thread`` — the OS/ulimit-level failure a thread leak eventually
    runs into.
    """


class ThreadState(enum.Enum):
    """Subset of ``java.lang.Thread.State`` relevant to the model."""

    NEW = "NEW"
    RUNNABLE = "RUNNABLE"
    WAITING = "WAITING"
    TIMED_WAITING = "TIMED_WAITING"
    BLOCKED = "BLOCKED"
    TERMINATED = "TERMINATED"


class JvmThread:
    """A simulated JVM thread."""

    _ids = itertools.count(1)

    __slots__ = (
        "thread_id",
        "name",
        "owner",
        "state",
        "stack_bytes",
        "stack_object",
        "_registry",
    )

    def __init__(
        self,
        name: str,
        owner: Optional[str] = None,
        stack_bytes: int = 512 * 1024,
        registry: Optional["ThreadRegistry"] = None,
    ) -> None:
        if stack_bytes <= 0:
            raise ValueError(f"stack_bytes must be positive, got {stack_bytes}")
        self.thread_id = next(JvmThread._ids)
        self.name = name
        self.owner = owner
        self.state = ThreadState.NEW
        self.stack_bytes = int(stack_bytes)
        #: Heap object pinning this thread's stack memory (``None`` unless
        #: the registry was asked to account the stack on the heap).
        self.stack_object = None
        #: Registry whose live counts this thread leaves when it terminates.
        self._registry = registry

    def start(self) -> None:
        """Move the thread to RUNNABLE (mirrors ``Thread.start``)."""
        if self.state is not ThreadState.NEW:
            raise RuntimeError(f"thread {self.name!r} already started (state={self.state})")
        self.state = ThreadState.RUNNABLE

    def park(self, timed: bool = False) -> None:
        """Move the thread to a waiting state."""
        if self.state is ThreadState.TERMINATED:
            raise RuntimeError(f"thread {self.name!r} is terminated")
        self.state = ThreadState.TIMED_WAITING if timed else ThreadState.WAITING

    def unpark(self) -> None:
        """Return a waiting thread to RUNNABLE."""
        if self.state in (ThreadState.WAITING, ThreadState.TIMED_WAITING, ThreadState.BLOCKED):
            self.state = ThreadState.RUNNABLE

    def terminate(self) -> None:
        """Terminate the thread (terminating a dead thread changes nothing)."""
        if self._registry is not None and self.is_alive:
            self._registry._leave_live_counts(self)
        self.state = ThreadState.TERMINATED

    @property
    def is_alive(self) -> bool:
        """Whether the thread has started and not yet terminated."""
        return self.state not in (ThreadState.NEW, ThreadState.TERMINATED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JvmThread(id={self.thread_id}, name={self.name!r}, state={self.state.value})"


class ThreadRegistry:
    """Registry of all threads in the simulated JVM (ThreadMXBean analogue).

    Parameters
    ----------
    capacity:
        Maximum simultaneously live threads (the OS/ulimit bound a thread
        leak eventually hits); ``None`` means unlimited.  The rejuvenation
        controller's thread channel predicts exhaustion against this bound.
    heap:
        When given, threads spawned with ``pin_stack=True`` allocate their
        stack as a *pinned* (GC-root) heap object owned by the thread's
        owner, so leaked threads show up in the memory accounting exactly
        as the thread-leak fault's docstring promises — the collector can
        never reclaim a live thread's stack, only termination frees it.
    """

    def __init__(self, capacity: Optional[int] = None, heap=None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"thread capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity) if capacity is not None else None
        self._heap = heap
        self._threads: Dict[int, JvmThread] = {}
        self._live = 0
        self._live_by_owner: Dict[Optional[str], int] = {}
        self._peak_count = 0
        self._total_started = 0

    def spawn(
        self,
        name: str,
        owner: Optional[str] = None,
        stack_bytes: int = 512 * 1024,
        pin_stack: bool = False,
    ) -> JvmThread:
        """Create and start a new thread.

        Raises
        ------
        ThreadLimitError
            When ``capacity`` live threads already exist.
        repro.jvm.heap.OutOfMemoryError
            When ``pin_stack`` is set and the stack allocation does not fit.
        """
        if self.capacity is not None and self._live >= self.capacity:
            raise ThreadLimitError(
                f"unable to create new thread {name!r}: "
                f"{self._live} live threads at capacity {self.capacity}"
            )
        thread = JvmThread(
            name=name,
            owner=owner,
            stack_bytes=stack_bytes,
            registry=self,
        )
        if pin_stack and self._heap is not None:
            thread.stack_object = self._heap.allocate(
                "java.lang.Thread[stack]",
                shallow_size=stack_bytes,
                owner=owner,
                root=True,
            )
        thread.start()
        self._threads[thread.thread_id] = thread
        self._total_started += 1
        self._live += 1
        self._live_by_owner[owner] = self._live_by_owner.get(owner, 0) + 1
        if self._live > self._peak_count:
            self._peak_count = self._live
        return thread

    def _leave_live_counts(self, thread: JvmThread) -> None:
        """Count out a live thread that is terminating."""
        self._live -= 1
        self._live_by_owner[thread.owner] -= 1

    def _release_stack(self, thread: JvmThread) -> int:
        """Free a dead thread's pinned stack; returns the bytes released."""
        stack = thread.stack_object
        if stack is None or self._heap is None:
            return 0
        thread.stack_object = None
        if self._heap.is_live(stack):
            self._heap.free(stack)
            return stack.shallow_size
        return 0

    def terminate(self, thread: JvmThread) -> None:
        """Terminate a registered thread (releasing its pinned stack)."""
        if thread.thread_id not in self._threads:
            raise KeyError(f"thread {thread.thread_id} is not registered")
        thread.terminate()
        self._release_stack(thread)

    def terminate_owned(self, owner: str) -> Tuple[int, int]:
        """Terminate and drop every live thread of ``owner``.

        The thread half of a component micro-reboot: the recycled
        component's runaway threads die with it and their pinned stack
        memory is released.  Returns ``(threads_terminated, stack_bytes)``.
        """
        victims = [t for t in self._threads.values() if t.is_alive and t.owner == owner]
        freed_bytes = 0
        for thread in victims:
            thread.terminate()
            freed_bytes += self._release_stack(thread)
            del self._threads[thread.thread_id]
        return len(victims), freed_bytes

    def remove_terminated(self) -> int:
        """Drop terminated threads from the registry; returns how many."""
        dead = [tid for tid, t in self._threads.items() if t.state is ThreadState.TERMINATED]
        for tid in dead:
            self._release_stack(self._threads[tid])
            del self._threads[tid]
        return len(dead)

    def live_count(self) -> int:
        """Number of live threads."""
        return self._live

    def count_by_owner(self, owner: Optional[str]) -> int:
        """Number of live threads created on behalf of ``owner``."""
        return self._live_by_owner.get(owner, 0)

    def live_threads(self) -> List[JvmThread]:
        """All live threads (sorted by id)."""
        return [self._threads[tid] for tid in sorted(self._threads) if self._threads[tid].is_alive]

    def stack_bytes_total(self) -> int:
        """Total stack memory of live threads."""
        return sum(t.stack_bytes for t in self._threads.values() if t.is_alive)

    @property
    def peak_count(self) -> int:
        """Highest number of simultaneously live threads observed."""
        return self._peak_count

    @property
    def total_started(self) -> int:
        """Total threads ever started."""
        return self._total_started
