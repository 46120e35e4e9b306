"""The JMX Manager Agent.

The core of the proposal (Section III-B.3): it collects the metrics reported
by the Aspect Components, builds the resource-component map, offers a first
root-cause analysis, and can activate or deactivate ACs on demand (to reduce
overhead or focus monitoring on a subset of components).

Besides the AC-pushed samples the manager can also *poll*: :meth:`snapshot`
reads the object-size agent for every known component and the heap agent for
the whole JVM, producing the evenly spaced per-component size series that
Figs. 4, 5 and 7 plot (rarely used components would otherwise have almost no
data points).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.aspect_component import ASPECT_DOMAIN
from repro.core.monitoring_agents import AGENT_DOMAIN
from repro.core.resource_map import DEFAULT_METRIC, ComponentSample, ResourceComponentMap
from repro.core.rootcause import PaperMapStrategy, RootCauseReport, RootCauseStrategy
from repro.jmx.mbean import MBean, attribute, operation
from repro.jmx.mbean_server import MBeanServer
from repro.jmx.notifications import Notification, NotificationBroadcaster, type_filter
from repro.jmx.object_name import ObjectName

#: Canonical ObjectName of the manager agent.
MANAGER_OBJECT_NAME = ObjectName.of("repro.core", type="ManagerAgent")

#: Notification emitted when a component's consumption crosses the alert threshold.
AGING_SUSPECT_NOTIFICATION = "repro.aging.suspect"

#: Buffered AC samples are folded into the map once this many accumulate
#: (or earlier, whenever anything reads the map).
SAMPLE_FLUSH_THRESHOLD = 256


class ManagerAgent(MBean, NotificationBroadcaster):
    """Collects samples, builds the map and ranks root-cause suspects.

    Parameters
    ----------
    mbean_server:
        Server used to reach agents and AC proxies.
    clock:
        Clock-like object used to timestamp snapshots.
    strategy:
        Root-cause strategy (defaults to the paper's map strategy).
    alert_growth_bytes:
        When a component's accumulated consumption first exceeds this many
        bytes, the manager emits an ``repro.aging.suspect`` notification.
    """

    description = "JMX Manager Agent: resource-component map and root-cause analysis"

    def __init__(
        self,
        mbean_server: MBeanServer,
        clock: Optional[object] = None,
        strategy: Optional[RootCauseStrategy] = None,
        alert_growth_bytes: float = 10 * 1024 * 1024,
    ) -> None:
        MBean.__init__(self)
        NotificationBroadcaster.__init__(self)
        self._server = mbean_server
        self._clock = clock
        self.strategy = strategy or PaperMapStrategy()
        self.alert_growth_bytes = float(alert_growth_bytes)
        self._map = ResourceComponentMap()
        self._known_components: List[str] = []
        self._known_set: set = set()
        self._pending_samples: List[ComponentSample] = []
        #: Per-component delta sums of the buffered samples / consumption at
        #: the last flush — a cheap running estimate that lets the buffered
        #: intake still raise aging alerts promptly (see record_sample).
        self._pending_growth: Dict[str, float] = {}
        self._folded_consumption: Dict[str, float] = {}
        self._alerted: set = set()
        self._snapshot_count = 0
        self._snapshot_listeners: List[Callable[[float, Dict[str, float]], None]] = []
        #: Whether snapshots also poll the heap agent's ``live_bytes`` walk
        #: (an O(live objects) reference-graph closure).  Off by default;
        #: the rejuvenation controller switches it on because its policies
        #: extrapolate the post-GC ``heap_live`` series.
        self.poll_live_heap = False

    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        return float(getattr(self._clock, "now", 0.0)) if self._clock is not None else 0.0

    @property
    def map(self) -> ResourceComponentMap:
        """The resource-component map, with buffered samples folded in."""
        self._flush_samples()
        return self._map

    # ------------------------------------------------------------------ #
    # Sample intake (called by ACs through the MBeanServer)
    # ------------------------------------------------------------------ #
    @operation
    def record_sample(self, sample: ComponentSample) -> None:
        """Buffer one Aspect-Component sample (folded into the map in batches).

        An AC delivers one sample per intercepted request, from its after
        advice; buffering them and folding in bulk replaces per-sample
        series appends on the hottest monitoring path.  Every read of the map flushes first, so buffering
        is invisible to consumers.
        """
        if not isinstance(sample, ComponentSample):
            raise TypeError(f"expected a ComponentSample, got {type(sample).__name__}")
        self._pending_samples.append(sample)
        component = sample.component
        if component not in self._alerted:
            # Running delta-sum estimate: when the folded consumption plus
            # the buffered growth reaches the alert threshold, flush now so
            # the aging alert fires on the sample that crossed it instead of
            # up to a buffer's worth of samples later.
            growth = self._pending_growth.get(component, 0.0) + sample.deltas.get(
                DEFAULT_METRIC, 0.0
            )
            self._pending_growth[component] = growth
            if (
                growth > 0
                and self._folded_consumption.get(component, 0.0) + growth
                >= self.alert_growth_bytes
            ):
                self._flush_samples()
                return
        if len(self._pending_samples) >= SAMPLE_FLUSH_THRESHOLD:
            self._flush_samples()

    def _flush_samples(self) -> None:
        """Fold every buffered sample into the map and run alert checks.

        The alert check is folded into the flush: one consumption scan per
        touched series decides the alert *and* refreshes the folded-growth
        estimate the buffered intake's early-flush heuristic reads (the
        pre-fold version scanned each series twice — once for the alert,
        once for the estimate).
        """
        pending = self._pending_samples
        if not pending:
            return
        self._pending_samples = []
        self._pending_growth.clear()
        touched = self._map.add_samples(pending)
        for component in touched:
            if component not in self._known_set:
                self._known_set.add(component)
                self._known_components.append(component)
        for component in touched:
            if component in self._alerted:
                continue
            growth = self._map.consumption(component, DEFAULT_METRIC)
            if growth >= self.alert_growth_bytes:
                self._emit_alert(component, growth)
            else:
                self._folded_consumption[component] = growth

    @operation
    def register_component(self, component: str) -> None:
        """Declare a component so it shows up in the map even if never sampled."""
        if component not in self._known_set:
            self._known_set.add(component)
            self._known_components.append(component)
        self._map.register_component(component)

    @operation
    def record_external_series(
        self, component: str, metric: str, when: float, value: float
    ) -> None:
        """Record a metric point produced outside the polled agents.

        Hybrid simulation uses this to publish the fluid bulk population's
        per-component series (cumulative bulk visits, modelled resource
        growth) into the same :class:`ResourceComponentMap` the discrete
        tracers feed, so attribution and trend analysis see one combined
        picture.  Unknown components are registered on first use.
        """
        if component not in self._known_set:
            self.register_component(component)
        self._map.record_observation(component, metric, float(when), float(value))

    # ------------------------------------------------------------------ #
    # Polling
    # ------------------------------------------------------------------ #
    @operation
    def snapshot(self, timestamp: Optional[float] = None) -> Dict[str, float]:
        """Poll the object-size agent for every known component.

        Returns the component -> object_size mapping recorded, and also
        records whole-JVM heap usage under the pseudo component ``"<jvm>"``.
        """
        self._flush_samples()
        when = timestamp if timestamp is not None else self._now()
        sizes: Dict[str, float] = {}
        object_size_agents = self._server.query_names(f"{AGENT_DOMAIN}:type=object-size,*")
        for agent_name in object_size_agents:
            for component in self._known_components:
                values = self._server.invoke(agent_name, "sample", component)
                if not values:
                    continue
                size = float(values.get("object_size", 0.0))
                sizes[component] = size
                self._map.record_observation(component, "object_size", when, size)
                self._check_alert(component)
        heap_agents = self._server.query_names(f"{AGENT_DOMAIN}:type=heap,*")
        for agent_name in heap_agents:
            values = self._server.invoke(agent_name, "sample", "<jvm>")
            if values:
                self._map.record_observation(
                    "<jvm>", "heap_used", when, float(values.get("heap_used", 0.0))
                )
                if self.poll_live_heap:
                    # The post-GC floor — a reference-graph walk, so polled
                    # only when a rejuvenation controller consumes it.
                    self._map.record_observation(
                        "<jvm>",
                        "heap_live",
                        when,
                        float(self._server.invoke(agent_name, "live_bytes")),
                    )
        # Extension resources: the thread and connection-pool agents (when
        # installed) contribute whole-JVM series under the same ``"<jvm>"``
        # pseudo component, giving the rejuvenation controller's thread and
        # connection channels an evenly spaced trend to extrapolate.
        for agent_name in self._server.query_names(f"{AGENT_DOMAIN}:type=threads,*"):
            values = self._server.invoke(agent_name, "sample", "<jvm>")
            if values:
                self._map.record_observation(
                    "<jvm>", "threads_total", when, float(values.get("threads_total", 0.0))
                )
        for agent_name in self._server.query_names(f"{AGENT_DOMAIN}:type=connections,*"):
            values = self._server.invoke(agent_name, "sample", "<jvm>")
            if values:
                self._map.record_observation(
                    "<jvm>",
                    "connections_active",
                    when,
                    float(values.get("connections_active", 0.0)),
                )
        self._snapshot_count += 1
        for listener in self._snapshot_listeners:
            listener(when, dict(sizes))
        return sizes

    def _check_alert(self, component: str) -> None:
        """Scan one component's consumption and emit the alert if crossed.

        Used by the polling :meth:`snapshot` path; the buffered intake folds
        the same check into :meth:`_flush_samples` so a flush pays at most
        one consumption scan per touched series.
        """
        if component in self._alerted:
            return
        growth = self._map.consumption(component, DEFAULT_METRIC)
        if growth >= self.alert_growth_bytes:
            self._emit_alert(component, growth)

    def _emit_alert(self, component: str, growth: float) -> None:
        """Mark ``component`` as an aging suspect and notify listeners."""
        self._alerted.add(component)
        self.send_notification(
            AGING_SUSPECT_NOTIFICATION,
            source=str(MANAGER_OBJECT_NAME),
            message=(
                f"component {component!r} accumulated {growth:.0f} bytes of "
                f"{DEFAULT_METRIC} (threshold {self.alert_growth_bytes:.0f})"
            ),
            timestamp=self._now(),
            component=component,
            growth_bytes=growth,
        )

    # ------------------------------------------------------------------ #
    # Map / analysis
    # ------------------------------------------------------------------ #
    @operation
    def build_map(self, metric: str = DEFAULT_METRIC) -> List[Dict[str, float]]:
        """The resource-component map as printable rows (Fig. 6)."""
        return self.map.to_rows(metric)

    @operation
    def determine_root_cause(self, metric: str = DEFAULT_METRIC) -> RootCauseReport:
        """Run the configured strategy over the current map."""
        return self.strategy.analyze(self.map, metric)

    @operation
    def list_components(self) -> List[str]:
        """Components known to the manager (sorted)."""
        self._flush_samples()
        return sorted(self._known_components)

    # ------------------------------------------------------------------ #
    # Rejuvenation trigger hook
    # ------------------------------------------------------------------ #
    def add_rejuvenation_trigger(
        self, callback: Callable[[Optional[str], Notification], None]
    ) -> None:
        """Invoke ``callback(component, notification)`` on aging alerts.

        The hook the live rejuvenation subsystem hangs off: when a
        component's accumulated consumption first crosses the alert
        threshold, the controller gets told immediately instead of waiting
        for its next periodic check.
        """

        def _relay(notification: Notification, handback: object) -> None:
            callback(notification.attributes.get("component"), notification)

        self.add_notification_listener(_relay, type_filter(AGING_SUSPECT_NOTIFICATION))

    def add_snapshot_listener(
        self, callback: Callable[[float, Dict[str, float]], None]
    ) -> None:
        """Invoke ``callback(when, sizes)`` after every polling snapshot.

        The observability plane's read-only publish hook: listeners receive
        a *copy* of the component -> object_size mapping each snapshot
        records, so they can track polling liveness without re-reading the
        map (and without any way to perturb it).
        """
        self._snapshot_listeners.append(callback)

    # ------------------------------------------------------------------ #
    # AC control
    # ------------------------------------------------------------------ #
    def _proxy_names(self, component: Optional[str] = None) -> List[ObjectName]:
        pattern = (
            f"{ASPECT_DOMAIN}:type=AspectComponent,component={component}"
            if component is not None
            else f"{ASPECT_DOMAIN}:type=AspectComponent,*"
        )
        return self._server.query_names(pattern)

    @operation
    def activate_component(self, component: str) -> bool:
        """Activate monitoring of one component; returns whether it was found."""
        names = self._proxy_names(component)
        for name in names:
            self._server.invoke(name, "activate")
        return bool(names)

    @operation
    def deactivate_component(self, component: str) -> bool:
        """Deactivate monitoring of one component; returns whether it was found."""
        names = self._proxy_names(component)
        for name in names:
            self._server.invoke(name, "deactivate")
        return bool(names)

    @operation
    def activate_all(self) -> int:
        """Activate every AC; returns how many were reached."""
        names = self._proxy_names()
        for name in names:
            self._server.invoke(name, "activate")
        return len(names)

    @operation
    def deactivate_all(self) -> int:
        """Deactivate every AC; returns how many were reached."""
        names = self._proxy_names()
        for name in names:
            self._server.invoke(name, "deactivate")
        return len(names)

    @operation
    def component_status(self) -> Dict[str, bool]:
        """Enabled flag of every AC proxy."""
        status: Dict[str, bool] = {}
        for name in self._proxy_names():
            component = name.get("component") or ""
            status[component] = bool(self._server.get_attribute(name, "Enabled"))
        return status

    # ------------------------------------------------------------------ #
    # Attributes
    # ------------------------------------------------------------------ #
    @attribute
    def ComponentCount(self) -> int:
        """Number of components known to the manager."""
        self._flush_samples()
        return len(self._known_components)

    @attribute
    def SampleCount(self) -> int:
        """Number of AC samples received."""
        return self.map.sample_count

    @attribute
    def SnapshotCount(self) -> int:
        """Number of polling snapshots taken."""
        return self._snapshot_count

    @attribute
    def StrategyName(self) -> str:
        """The active root-cause strategy."""
        return self.strategy.name
