"""Worker thread pool of the application server.

Combines a :class:`~repro.sim.resources.CapacityResource` (for virtual-time
queueing) with the JVM thread registry (so the monitoring agents' thread
counts reflect the pool), mirroring Tomcat's ``maxThreads`` executor.
"""

from __future__ import annotations

from typing import Tuple

from repro.jvm.runtime import JvmRuntime
from repro.sim.resources import CapacityResource


class WorkerThreadPool:
    """A bounded pool of request worker threads.

    Parameters
    ----------
    runtime:
        The simulated JVM (threads are registered there).
    max_threads:
        Pool size; Tomcat 5.5 defaulted to 150.
    max_queue:
        Accept-queue bound before requests are rejected with 503.
    """

    COMPONENT_NAME = "http-worker-pool"

    def __init__(self, runtime: JvmRuntime, max_threads: int = 150, max_queue: int = 200) -> None:
        if max_threads < 1:
            raise ValueError(f"max_threads must be >= 1, got {max_threads}")
        self._runtime = runtime
        self.max_threads = int(max_threads)
        self._resource = CapacityResource(max_threads, name="worker-threads", max_queue=max_queue)
        self._threads = [
            runtime.threads.spawn(f"http-worker-{index}", owner=self.COMPONENT_NAME)
            for index in range(max_threads)
        ]

    def book(self, arrival_time: float, hold_seconds: float) -> Tuple[float, float]:
        """Book a worker for ``hold_seconds``; returns ``(start, finish)``.

        Raises
        ------
        repro.sim.resources.ResourceBusyError
            When the accept queue overflows (the server answers 503).
        """
        return self._resource.acquire(arrival_time, hold_seconds)

    @property
    def resource(self) -> CapacityResource:
        """The underlying capacity resource (metrics/introspection)."""
        return self._resource

    def utilization(self, elapsed_seconds: float) -> float:
        """Average pool utilisation over the elapsed simulated time."""
        return self._resource.utilization(elapsed_seconds)
