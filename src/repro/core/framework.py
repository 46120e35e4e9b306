"""One-call installation of the monitoring framework on a TPC-W deployment.

:class:`MonitoringFramework` assembles the pieces of Fig. 1 — monitoring
agents, per-component Aspect Components (woven at runtime), AC proxies, the
JMX Manager Agent and the External Front-end — on top of an already running
application, without touching any servlet code.  It also registers the
overhead account with the container so the framework's own cost shows up in
the measured throughput (Fig. 3), and offers periodic snapshots so the
per-component size series of Figs. 4/5/7 get evenly spaced points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.aop.registry import AspectRegistry
from repro.aop.weaver import Weaver
from repro.core.aspect_component import AspectComponent, AspectComponentProxy
from repro.core.frontend import MonitoringFrontEnd
from repro.core.manager_agent import MANAGER_OBJECT_NAME, ManagerAgent
from repro.core.monitoring_agents import (
    ConnectionPoolAgent,
    CpuAgent,
    HeapAgent,
    MonitoringAgent,
    ObjectSizeAgent,
    ThreadAgent,
)
from repro.core.overhead import OverheadAccount
from repro.core.rootcause import RootCauseReport, RootCauseStrategy
from repro.jmx.connector import JmxConnector
from repro.jmx.mbean_server import MBeanServer
from repro.sim.engine import SimulationEngine
from repro.tpcw.application import TpcwDeployment


@dataclass
class FrameworkConfig:
    """Installation options of the monitoring framework."""

    #: Simulated cost of one agent sample (see :class:`OverheadAccount`).
    sample_cost_seconds: float = 2.5e-3
    #: Which servlet methods the ACs intercept.
    method_pattern: str = "service"
    #: Install the CPU agent (future-work resource).
    monitor_cpu: bool = False
    #: Install the thread agent (future-work resource).
    monitor_threads: bool = False
    #: Install the connection-pool agent (future-work resource).
    monitor_connections: bool = False
    #: Seconds between periodic manager snapshots (when scheduled).
    snapshot_interval: float = 60.0
    #: Growth (bytes) above which the manager emits an aging alert.
    alert_growth_bytes: float = 10 * 1024 * 1024


class MonitoringFramework:
    """The fully assembled monitoring stack for one TPC-W deployment.

    Typical use::

        framework = MonitoringFramework(deployment, engine=engine)
        framework.install()
        framework.schedule_snapshots(duration=3600.0)
        ... run the workload ...
        report = framework.root_cause()
    """

    def __init__(
        self,
        deployment: TpcwDeployment,
        engine: Optional[SimulationEngine] = None,
        config: Optional[FrameworkConfig] = None,
        mbean_server: Optional[MBeanServer] = None,
        strategy: Optional[RootCauseStrategy] = None,
    ) -> None:
        self.deployment = deployment
        self.engine = engine
        self.config = config or FrameworkConfig()
        self.mbean_server = mbean_server or MBeanServer(name="repro-monitoring")
        self.overhead = OverheadAccount(sample_cost_seconds=self.config.sample_cost_seconds)
        self.weaver = Weaver(clock=deployment.clock)
        self.registry = AspectRegistry()
        self.manager = ManagerAgent(
            self.mbean_server,
            clock=deployment.clock,
            strategy=strategy,
            alert_growth_bytes=self.config.alert_growth_bytes,
        )
        self.connector = JmxConnector(self.mbean_server)
        self.frontend: Optional[MonitoringFrontEnd] = None
        self.agents: List[MonitoringAgent] = []
        self.aspect_components: Dict[str, AspectComponent] = {}
        self._installed = False

    # ------------------------------------------------------------------ #
    # Installation / removal
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Weave the ACs, register agents, manager and proxies."""
        if self._installed:
            raise RuntimeError("monitoring framework is already installed")
        deployment = self.deployment
        runtime = deployment.runtime

        # Monitoring agents (probe level).
        object_size_agent = ObjectSizeAgent(runtime)
        heap_agent = HeapAgent(runtime)
        self.agents = [object_size_agent, heap_agent]
        if self.config.monitor_cpu:
            self.agents.append(CpuAgent(runtime))
        if self.config.monitor_threads:
            self.agents.append(ThreadAgent(runtime))
        if self.config.monitor_connections:
            self.agents.append(ConnectionPoolAgent(deployment.datasource))
        for agent in self.agents:
            self.mbean_server.register(agent.object_name(), agent)

        # Manager agent (agent level core).
        self.mbean_server.register(MANAGER_OBJECT_NAME, self.manager)

        # One Aspect Component per application component, woven at runtime.
        for component_name in deployment.interaction_names():
            servlet = deployment.servlet(component_name)
            object_size_agent.register_component(component_name, servlet.instance_root)
            self.manager.register_component(component_name)

            aspect_component = AspectComponent(
                component_name=component_name,
                java_class_name=servlet.java_class_name,
                mbean_server=self.mbean_server,
                overhead=self.overhead,
                clock=deployment.clock,
                method_pattern=self.config.method_pattern,
            )
            self.weaver.register_aspect(aspect_component)
            self.registry.add(aspect_component)
            self.aspect_components[component_name] = aspect_component

            proxy = AspectComponentProxy(aspect_component)
            self.mbean_server.register(proxy.object_name(), proxy)

            woven = self.weaver.weave_object(
                servlet, method_names=[self.config.method_pattern], component=component_name
            )
            if not woven:
                raise RuntimeError(
                    f"failed to weave component {component_name!r} "
                    f"({servlet.java_class_name}.{self.config.method_pattern})"
                )

        # Fold monitoring overhead into the container's request costs.
        deployment.server.add_external_cost_provider(self.overhead.consume_pending)

        # Remote management level.
        self.frontend = MonitoringFrontEnd(self.connector)
        self._installed = True

    def uninstall(self) -> None:
        """Unweave every AC and disable further overhead charges."""
        if not self._installed:
            return
        self.weaver.unweave_all()
        for aspect_component in self.aspect_components.values():
            aspect_component.disable()
        self._installed = False

    @property
    def is_installed(self) -> bool:
        """Whether :meth:`install` has run (and :meth:`uninstall` has not)."""
        return self._installed

    # ------------------------------------------------------------------ #
    # Periodic snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self, timestamp: Optional[float] = None) -> Dict[str, float]:
        """Take one manager snapshot now."""
        return self.manager.snapshot(timestamp)

    def schedule_snapshots(
        self, duration: float, interval: Optional[float] = None, start: Optional[float] = None
    ) -> int:
        """Schedule periodic snapshots on the simulation engine.

        Returns the number of snapshots scheduled.
        """
        if self.engine is None:
            raise RuntimeError("no simulation engine was provided to the framework")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        interval = interval if interval is not None else self.config.snapshot_interval
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        begin = start if start is not None else self.engine.now
        count = 0
        t = begin + interval
        while t <= begin + duration + 1e-9:
            self.engine.schedule_at(
                t, lambda when=t: self.manager.snapshot(when), priority=5, name="manager.snapshot"
            )
            count += 1
            t += interval
        return count

    # ------------------------------------------------------------------ #
    # Convenience passthroughs
    # ------------------------------------------------------------------ #
    def root_cause(self, metric: str = "object_size") -> RootCauseReport:
        """The manager's current root-cause report."""
        return self.manager.determine_root_cause(metric)

    def resource_map_rows(self, metric: str = "object_size"):
        """The manager's resource-component map rows."""
        return self.manager.build_map(metric)

    def enable_component(self, component: str) -> None:
        """Activate monitoring of one component."""
        self.manager.activate_component(component)

    def disable_component(self, component: str) -> None:
        """Deactivate monitoring of one component."""
        self.manager.deactivate_component(component)

    def disable_all(self) -> None:
        """Deactivate every Aspect Component (overhead drops to ~zero)."""
        self.manager.deactivate_all()

    def enable_all(self) -> None:
        """Activate every Aspect Component."""
        self.manager.activate_all()

    def component_series(self, component: str, metric: str = "object_size"):
        """The recorded time series for one component (Figs. 4/5/7)."""
        return self.manager.map.series(component, metric)
