"""Thread-leak aging fault (future-work resource in the paper)."""

from __future__ import annotations

from typing import Optional

from repro.faults.base import TriggeredFault
from repro.jvm.threads import ThreadLimitError
from repro.sim.random import RandomStreams


class ThreadLeakFault(TriggeredFault):
    """Spawns a never-terminating thread on behalf of the component.

    Unterminated threads are one of the aging vectors the paper lists; each
    leaked thread also pins its stack memory (allocated as a GC-root heap
    object owned by the component), so both the thread agent and the heap
    agent see the effect.  Once the JVM's thread capacity is reached the
    spawn fails like the real thing — ``OutOfMemoryError: unable to create
    new native thread`` — and the request that triggered the injection
    errors out: that is the aging failure the thread rejuvenation channel
    exists to prevent.
    """

    kind = "thread-leak"

    def __init__(
        self,
        period_n: int = 100,
        streams: Optional[RandomStreams] = None,
        stack_bytes: int = 256 * 1024,
        max_threads: int = 10_000,
    ) -> None:
        super().__init__(period_n=period_n, streams=streams)
        if stack_bytes <= 0:
            raise ValueError(f"stack_bytes must be positive, got {stack_bytes}")
        if max_threads <= 0:
            raise ValueError(f"max_threads must be positive, got {max_threads}")
        self.stack_bytes = int(stack_bytes)
        self.max_threads = int(max_threads)
        self.leaked_threads = 0
        #: Spawns refused because the JVM hit its thread capacity.
        self.thread_limit_hits = 0

    def _inject(self, servlet, request) -> None:
        if self.leaked_threads >= self.max_threads:
            return
        try:
            servlet.runtime.threads.spawn(
                name=f"{servlet.component_name}-leaked-{self.leaked_threads}",
                owner=servlet.component_name,
                stack_bytes=self.stack_bytes,
                pin_stack=True,
            )
        except ThreadLimitError:
            # The JVM cannot create another thread: the failure surfaces as
            # a request error (the container answers 500), exactly like the
            # Java error this models.  Leaked threads stay leaked.
            self.thread_limit_hits += 1
            raise
        self.leaked_threads += 1

    def describe(self) -> str:
        return f"thread-leak every ~{self.period_n} visits (leaked {self.leaked_threads} threads)"
