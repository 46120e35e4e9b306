"""The Aspect Component (AC) and its AC Proxy.

One AC is associated with every application component (Section III-B.1 of
the paper).  The AC contributes two advices — *before* and *after* the
component's execution — which sample every registered JMX Monitoring Agent,
attribute the measured deltas to the component, and forward the sample to
the JMX Manager Agent, which the AC also finds through the MBeanServer
(nothing hands the AC a reference to the manager, so either side can be
replaced at runtime).

The AC finds the agents and the manager by ObjectName pattern, as the paper
does, but not on every advice: it binds each agent's ``sample`` operation
(in query order) and the manager's ``record_sample`` once per registry
epoch of the MBeanServer.  The first advice after any registration or
unregistration re-runs both queries, so an agent or manager added,
replaced or removed at runtime is seen on the next advice; every other
advice is one integer compare plus direct calls.

The AC Proxy is the MBean face of the AC: through it the Manager Agent (and
the External Front-end) can ask how many requests the component has served,
and can activate or deactivate the AC on demand — the knob used to trade
monitoring coverage for overhead.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.aop.advice import Advice, AdviceKind
from repro.aop.aspect import Aspect
from repro.aop.joinpoint import JoinPoint
from repro.aop.pointcut import ExecutionPointcut
from repro.core.monitoring_agents import AGENT_DOMAIN
from repro.core.overhead import OverheadAccount
from repro.core.resource_map import ComponentSample
from repro.jmx.mbean import MBean, attribute, operation
from repro.jmx.mbean_server import MBeanServer
from repro.jmx.object_name import ObjectName

#: JMX domain under which AC proxies register.
ASPECT_DOMAIN = "repro.aspects"
#: JMX domain/type of the manager agent the AC reports to.
MANAGER_PATTERN = "repro.core:type=ManagerAgent,*"


def aspect_object_name(component: str) -> ObjectName:
    """Canonical ObjectName of the AC proxy for ``component``."""
    return ObjectName.of(ASPECT_DOMAIN, type="AspectComponent", component=component)


class AspectComponent(Aspect):
    """The aspect woven around one application component.

    Parameters
    ----------
    component_name:
        Logical component name (the servlet's interaction name).
    java_class_name:
        Fully qualified class name of the component; the AC's pointcut is
        built from it so the aspect only intercepts its own component.
    mbean_server:
        The MBeanServer used to discover monitoring agents and the manager.
    overhead:
        Overhead account charged for every agent sample (optional).
    clock:
        Clock-like object (``now`` attribute) used to timestamp samples.
    method_pattern:
        Which methods of the component to intercept (default ``service`` —
        the single entry point of a servlet).
    agent_pattern:
        ObjectName pattern used to discover monitoring agents.
    """

    def __init__(
        self,
        component_name: str,
        java_class_name: str,
        mbean_server: MBeanServer,
        overhead: Optional[OverheadAccount] = None,
        clock: Optional[Any] = None,
        method_pattern: str = "service",
        agent_pattern: str = f"{AGENT_DOMAIN}:*",
    ) -> None:
        super().__init__()
        self.aspect_name = f"AC[{component_name}]"
        self.component_name = component_name
        self.java_class_name = java_class_name
        self._server = mbean_server
        self._overhead = overhead
        self._clock = clock
        self.method_pattern = method_pattern
        self.agent_pattern = agent_pattern
        #: Registry epoch the bound operations below were resolved in.
        self._bound_epoch = -1
        self._agent_samplers: Tuple[Callable[[str], Dict[str, float]], ...] = ()
        self._record_sample: Optional[Callable[[ComponentSample], None]] = None
        self._invocations = 0
        self._samples_sent = 0
        self._last_deltas: Dict[str, float] = {}
        self._last_values: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Aspect plumbing
    # ------------------------------------------------------------------ #
    def advices(self) -> List[Advice]:
        """Before/after advices bound to this component's own pointcut."""
        pointcut = ExecutionPointcut(self.java_class_name, self.method_pattern)
        return [
            Advice(
                kind=AdviceKind.BEFORE,
                pointcut=pointcut,
                body=self.before_component_execution,
                name=f"{self.name}.before",
            ),
            Advice(
                kind=AdviceKind.AFTER,
                pointcut=pointcut,
                body=self.after_component_execution,
                name=f"{self.name}.after",
            ),
        ]

    # ------------------------------------------------------------------ #
    # Agent access
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        return float(getattr(self._clock, "now", 0.0)) if self._clock is not None else 0.0

    def _bind(self) -> None:
        """Resolve the agents' and the manager's operations by pattern."""
        server = self._server
        self._agent_samplers = tuple(
            server.get_mbean(name).operation("sample")
            for name in server.query_names(self.agent_pattern)
        )
        managers = server.query_names(MANAGER_PATTERN)
        self._record_sample = (
            server.get_mbean(managers[0]).operation("record_sample") if managers else None
        )
        self._bound_epoch = server.epoch

    def _sample_agents(self) -> Dict[str, float]:
        """Query every registered monitoring agent for this component."""
        if self._bound_epoch != self._server.epoch:
            self._bind()
        measurements: Dict[str, float] = {}
        component = self.component_name
        overhead = self._overhead
        for sample in self._agent_samplers:
            values = sample(component)
            if not values:
                continue
            measurements.update({metric: float(value) for metric, value in values.items()})
            if overhead is not None:
                overhead.charge_sample(component)
        return measurements

    # ------------------------------------------------------------------ #
    # Advices
    # ------------------------------------------------------------------ #
    def before_component_execution(self, join_point: JoinPoint) -> None:
        """Snapshot every monitored resource before the component runs."""
        join_point.context["ac.before"] = self._sample_agents()

    def after_component_execution(self, join_point: JoinPoint) -> None:
        """Re-sample, attribute the deltas and report to the manager."""
        before_values = join_point.context.get("ac.before", {})
        after_values = self._sample_agents()
        deltas = {
            metric: after_values[metric] - before_values.get(metric, after_values[metric])
            for metric in after_values
        }
        self._invocations += 1
        self._last_deltas = deltas
        self._last_values = after_values

        sample = ComponentSample(
            component=self.component_name,
            timestamp=self._now() or join_point.timestamp,
            deltas=deltas,
            values=after_values,
        )
        record_sample = self._record_sample
        if record_sample is not None:
            record_sample(sample)
            self._samples_sent += 1

    # ------------------------------------------------------------------ #
    # Introspection used by the proxy
    # ------------------------------------------------------------------ #
    @property
    def invocation_count(self) -> int:
        """Executions of the component observed by this AC."""
        return self._invocations

    @property
    def samples_sent(self) -> int:
        """Samples successfully delivered to the manager."""
        return self._samples_sent

    @property
    def last_deltas(self) -> Dict[str, float]:
        """Deltas of the most recent execution."""
        return dict(self._last_deltas)

    @property
    def last_values(self) -> Dict[str, float]:
        """Absolute values observed after the most recent execution."""
        return dict(self._last_values)

    def reset_counters(self) -> None:
        """Zero the invocation/sample counters (keeps enable state)."""
        self._invocations = 0
        self._samples_sent = 0
        self._last_deltas = {}
        self._last_values = {}


class AspectComponentProxy(MBean):
    """MBean face of one Aspect Component (the paper's "AC Proxy")."""

    description = "Management proxy of an Aspect Component"

    def __init__(self, aspect_component: AspectComponent) -> None:
        self._ac = aspect_component

    # -- attributes --------------------------------------------------------- #
    @attribute
    def ComponentName(self) -> str:
        """The monitored component's name."""
        return self._ac.component_name

    @attribute
    def JavaClassName(self) -> str:
        """The monitored component's class name."""
        return self._ac.java_class_name

    @attribute(writable=True)
    def Enabled(self) -> bool:
        """Whether the AC's advices currently run."""
        return self._ac.enabled

    def set_Enabled(self, value: bool) -> None:
        """Setter backing the writable ``Enabled`` attribute."""
        if value:
            self._ac.enable()
        else:
            self._ac.disable()

    @attribute
    def InvocationCount(self) -> int:
        """Component executions observed."""
        return self._ac.invocation_count

    @attribute
    def SamplesSent(self) -> int:
        """Samples delivered to the manager agent."""
        return self._ac.samples_sent

    # -- operations ---------------------------------------------------------- #
    @operation
    def activate(self) -> None:
        """Turn monitoring of this component on."""
        self._ac.enable()

    @operation
    def deactivate(self) -> None:
        """Turn monitoring of this component off (advices become no-ops)."""
        self._ac.disable()

    @operation
    def reset(self) -> None:
        """Reset the AC's counters."""
        self._ac.reset_counters()

    @operation
    def last_sample(self) -> Dict[str, Dict[str, float]]:
        """The most recent deltas and absolute values."""
        return {"deltas": self._ac.last_deltas, "values": self._ac.last_values}

    def object_name(self) -> ObjectName:
        """The ObjectName this proxy should be registered under."""
        return aspect_object_name(self._ac.component_name)
