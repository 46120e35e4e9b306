"""JMX Monitoring Agents.

The probe level of the architecture: each agent is an MBean that knows how
to read one class of resource from the simulated JVM / container and report
it *per component* when the Aspect Component asks.  Agents are completely
decoupled from the ACs — ACs discover them through MBeanServer queries under
the ``repro.agents`` domain, so agents can be added, replaced or removed at
runtime without touching any AC (the flexibility argument of the paper).

Agents implemented here:

================  =============================================================
Agent             Metrics returned by ``sample(component)``
================  =============================================================
ObjectSizeAgent   ``object_size`` — one-level "real size" of the component's
                  long-lived objects (the paper's case-study metric).
HeapAgent         ``heap_used``, ``heap_free`` — whole-JVM heap occupancy.
CpuAgent          ``cpu_seconds`` — CPU time attributed to the component.
ThreadAgent       ``threads`` (component-owned), ``threads_total``.
ConnectionPoolAgent ``connections_active``, ``connections_available``.
================  =============================================================

The last three cover the paper's future-work aging causes (CPU, thread and
connection leaks) and are exercised by the extension benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.db.jdbc import DataSource
from repro.core.sizing import ComponentSizeCache
from repro.jmx.mbean import MBean, attribute, operation
from repro.jmx.object_name import ObjectName
from repro.jvm.objects import JavaObject
from repro.jvm.runtime import JvmRuntime

#: JMX domain under which all monitoring agents register.
AGENT_DOMAIN = "repro.agents"


def agent_object_name(agent_type: str) -> ObjectName:
    """Canonical ObjectName for an agent of the given type."""
    return ObjectName.of(AGENT_DOMAIN, type=agent_type)


class MonitoringAgent(MBean):
    """Base class of all monitoring agents."""

    #: Short type string used in the agent's ObjectName (subclasses override).
    agent_type = "abstract"
    description = "Base monitoring agent"

    def __init__(self) -> None:
        self._enabled = True
        self._sample_count = 0

    # -- management surface ------------------------------------------------ #
    @attribute
    def AgentType(self) -> str:
        """The agent's type string."""
        return self.agent_type

    @attribute
    def Enabled(self) -> bool:
        """Whether the agent currently answers samples."""
        return self._enabled

    @attribute
    def SampleCount(self) -> int:
        """Number of samples served so far."""
        return self._sample_count

    @operation
    def enable(self) -> None:
        """Enable sampling."""
        self._enabled = True

    @operation
    def disable(self) -> None:
        """Disable sampling (samples return an empty mapping)."""
        self._enabled = False

    @operation
    def sample(self, component: str) -> Dict[str, float]:
        """Measure the agent's resource for ``component``.

        Returns an empty mapping when the agent is disabled.
        """
        if not self._enabled:
            return {}
        self._sample_count += 1
        return self._measure(component)

    # -- to be provided by subclasses -------------------------------------- #
    def _measure(self, component: str) -> Dict[str, float]:
        raise NotImplementedError

    def object_name(self) -> ObjectName:
        """The ObjectName this agent should be registered under."""
        return agent_object_name(self.agent_type)


class ObjectSizeAgent(MonitoringAgent):
    """Reports the one-level "real size" of a component's long-lived objects.

    This is the agent the paper builds for its case study: it knows, for each
    application component, which heap objects belong to it (the servlet's
    instance state) and measures their size including directly referenced
    objects only.
    """

    agent_type = "object-size"
    description = "One-level deep object size per application component"

    def __init__(self, runtime: JvmRuntime) -> None:
        super().__init__()
        self._runtime = runtime
        self._roots: Dict[str, List[JavaObject]] = {}
        self._size_cache = ComponentSizeCache(heap=runtime.heap)

    @operation
    def register_component(self, component: str, root: JavaObject) -> None:
        """Associate a long-lived object with a component (idempotent append)."""
        self._roots.setdefault(component, [])
        if root not in self._roots[component]:
            self._roots[component].append(root)
            self._size_cache.invalidate(component)

    @operation
    def unregister_component(self, component: str) -> None:
        """Forget a component's objects."""
        self._roots.pop(component, None)
        self._size_cache.invalidate(component)

    @attribute
    def ComponentCount(self) -> int:
        """Number of components with registered objects."""
        return len(self._roots)

    @operation
    def components(self) -> List[str]:
        """Sorted names of registered components."""
        return sorted(self._roots)

    def _measure(self, component: str) -> Dict[str, float]:
        roots = self._roots.get(component)
        if not roots:
            return {"object_size": 0.0}
        return {"object_size": float(self._size_cache.component_size(component, roots))}


class HeapAgent(MonitoringAgent):
    """Reports whole-JVM heap occupancy (``Runtime.totalMemory/freeMemory``)."""

    agent_type = "heap"
    description = "JVM heap usage"

    def __init__(self, runtime: JvmRuntime) -> None:
        super().__init__()
        self._runtime = runtime

    @attribute
    def HeapCapacity(self) -> int:
        """Configured maximum heap size in bytes."""
        return self._runtime.total_memory()

    @operation
    def live_bytes(self) -> float:
        """Reachable (post-GC floor) heap bytes.

        A separate operation rather than part of :meth:`sample`: it walks the
        reference graph, which is far too expensive for the per-request AC
        sampling path.  The manager polls it once per periodic snapshot; the
        rejuvenation controller extrapolates this series, because exhaustion
        is driven by unreclaimable growth, not the garbage sawtooth that
        ``heap_used`` rides between collections.
        """
        return float(self._runtime.heap.live_reachable_bytes())

    def _measure(self, component: str) -> Dict[str, float]:
        # One read of the used bytes; free is capacity minus used, the ints
        # ``used_memory()`` and ``free_memory()`` return.
        heap = self._runtime.heap
        used = heap.used_bytes
        return {"heap_used": float(used), "heap_free": float(heap.capacity_bytes - used)}


class CpuAgent(MonitoringAgent):
    """Reports CPU seconds attributed to a component (ThreadMXBean analogue)."""

    agent_type = "cpu"
    description = "Per-component CPU time"

    def __init__(self, runtime: JvmRuntime) -> None:
        super().__init__()
        self._runtime = runtime

    @attribute
    def TotalCpuSeconds(self) -> float:
        """CPU seconds consumed by the whole JVM."""
        return self._runtime.cpu_time()

    def _measure(self, component: str) -> Dict[str, float]:
        return {"cpu_seconds": float(self._runtime.cpu_time(component))}


class ThreadAgent(MonitoringAgent):
    """Reports live thread counts, per component and JVM-wide."""

    agent_type = "threads"
    description = "Thread counts"

    def __init__(self, runtime: JvmRuntime) -> None:
        super().__init__()
        self._runtime = runtime

    @attribute
    def LiveThreadCount(self) -> int:
        """Live threads in the JVM."""
        return self._runtime.thread_count()

    @attribute
    def PeakThreadCount(self) -> int:
        """Peak live-thread count observed."""
        return self._runtime.threads.peak_count

    def _measure(self, component: str) -> Dict[str, float]:
        return {
            "threads": float(self._runtime.threads.count_by_owner(component)),
            "threads_total": float(self._runtime.thread_count()),
        }


class ConnectionPoolAgent(MonitoringAgent):
    """Reports JDBC connection-pool state (for connection-leak detection)."""

    agent_type = "connections"
    description = "JDBC connection pool usage"

    def __init__(self, datasource: DataSource) -> None:
        super().__init__()
        self._datasource = datasource

    @attribute
    def PoolSize(self) -> int:
        """Configured pool bound."""
        return self._datasource.pool_size

    @attribute
    def ExhaustionEvents(self) -> int:
        """How many times the pool refused a borrow."""
        return self._datasource.exhaustion_events

    def _measure(self, component: str) -> Dict[str, float]:
        return {
            "connections_active": float(self._datasource.active_connections),
            "connections_available": float(self._datasource.available_connections),
        }


def default_agents(
    runtime: JvmRuntime, datasource: Optional[DataSource] = None
) -> List[MonitoringAgent]:
    """The agent set the framework installs by default.

    The paper's prototype ships "a limited number of monitors"; ours mirrors
    that with the object-size and heap agents always on, plus the CPU,
    thread and connection agents when the extension resources are monitored.
    """
    agents: List[MonitoringAgent] = [ObjectSizeAgent(runtime), HeapAgent(runtime)]
    if datasource is not None:
        agents.append(ConnectionPoolAgent(datasource))
    agents.append(CpuAgent(runtime))
    agents.append(ThreadAgent(runtime))
    return agents
