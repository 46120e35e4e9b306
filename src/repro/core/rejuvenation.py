"""Live rejuvenation subsystem: in-sim restarts and micro-reboots.

The paper's whole point of AOP-based root-cause *component* determination is
to enable surgical rejuvenation — a micro-reboot of the guilty component
(Candea et al.) — instead of whole-server restarts.  The
:class:`RejuvenationController` closes that loop inside the simulation: it
watches the resource trends the monitoring stack records, consults a
:class:`~repro.baselines.rejuvenation.RejuvenationPolicy`, and *executes*
the decided action mid-run:

* **full restart** — the server refuses load for ``downtime_seconds``
  (browsers park and retry when it is back), every component's retained
  state is dropped, HTTP sessions are invalidated, leaked threads die,
  held connections return to the pool, and a full collection sweeps the
  freed state — every resource returns to its post-deploy level.
* **micro-reboot** — only the guilty component is recycled: its retained
  references are dropped, its accumulated heap objects reclaimed
  (:meth:`~repro.jvm.heap.Heap.reclaim_owned`), its runaway threads
  terminated, its held pool connections force-closed — and only requests
  routed to that component are refused, for a downtime that is orders of
  magnitude smaller.

What the controller *watches* is pluggable: a :class:`ResourceChannel`
binds one monitored whole-JVM series to its capacity, its
component-attribution rule, and the ``"<jvm>"`` metric the manager's
snapshots record.  The built-in channels cover the paper's case study
(:class:`HeapChannel`) and its future-work aging causes
(:class:`ThreadChannel`, :class:`ConnectionChannel`), so one controller
with one policy recycles whichever resource trends toward exhaustion.

Besides the periodic checks, the controller hangs off the manager's
aging-suspect notification (:meth:`ManagerAgent.add_rejuvenation_trigger`),
so a component crossing the alert threshold is re-examined immediately
instead of at the next check boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.rejuvenation import (
    FULL_RESTART,
    MICRO_REBOOT,
    PolicyObservation,
    RejuvenationAction,
    RejuvenationPolicy,
)
from repro.core.manager_agent import ManagerAgent
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import TimeSeries
from repro.tpcw.application import TpcwDeployment

#: Event priority of periodic rejuvenation checks: after manager snapshots
#: (5) and black-box samples (6), so a same-time snapshot lands first and the
#: policy sees the freshest heap observation.
CHECK_PRIORITY = 7
#: Priority of alert-triggered checks (after a same-time periodic check).
ALERT_CHECK_PRIORITY = 8


# --------------------------------------------------------------------------- #
# Resource channels
# --------------------------------------------------------------------------- #
class ResourceChannel:
    """One monitored resource the controller can predict and recycle.

    A channel binds together: the whole-JVM series the manager's snapshots
    record for the resource, the capacity that series exhausts against, and
    the attribution rule naming the component to blame.  The *recycling*
    itself is component-scoped and shared (a micro-reboot recycles the whole
    component — heap state, threads and connections alike); channels only
    differ in what they watch and whom they blame.
    """

    name = "abstract"
    #: ``"<jvm>"`` metric recorded by manager snapshots for this resource.
    metric = ""
    #: Metric to fall back to while ``metric`` has no samples yet.
    fallback_metric: Optional[str] = None
    #: Whether the manager must pay the live-heap reference walk per snapshot.
    wants_live_heap = False

    def series(self, manager: ManagerAgent) -> TimeSeries:
        """The monitored series this channel extrapolates."""
        series = manager.map.series("<jvm>", self.metric)
        if len(series) == 0 and self.fallback_metric is not None:
            series = manager.map.series("<jvm>", self.fallback_metric)
        return series

    def capacity(self, deployment: TpcwDeployment) -> float:
        """Units at which the resource is exhausted."""
        raise NotImplementedError

    def suspect(self, controller: "RejuvenationController") -> Optional[str]:
        """The component to blame for this resource's growth (or ``None``)."""
        raise NotImplementedError


class HeapChannel(ResourceChannel):
    """Post-GC live heap bytes vs. heap capacity (the paper's case study).

    Attribution goes through the manager's root-cause analysis — heap growth
    is only attributable via the per-component object-size accounting the
    Aspect Components collect.  The channel extrapolates ``heap_live``, the
    post-GC floor: ``heap_used`` rides the garbage sawtooth between
    collections, whose slope reflects allocation rate rather than the leak.
    It falls back to ``heap_used`` while the live series has no samples yet.
    """

    name = "heap"
    metric = "heap_live"
    fallback_metric = "heap_used"
    wants_live_heap = True

    def capacity(self, deployment: TpcwDeployment) -> float:
        return float(deployment.runtime.total_memory())

    def suspect(self, controller: "RejuvenationController") -> Optional[str]:
        report = controller.manager.determine_root_cause()
        top = report.top()
        if top is None or top.responsibility <= 0:
            return None
        return top.component


class ThreadChannel(ResourceChannel):
    """Live thread count vs. the JVM's thread capacity (future-work cause).

    Attribution is direct: the thread registry tags every thread with the
    component that spawned it, so the busiest owner among the application
    components is the suspect — no strategy analysis needed.
    """

    name = "threads"
    metric = "threads_total"

    def capacity(self, deployment: TpcwDeployment) -> float:
        capacity = deployment.runtime.threads.capacity
        return float(capacity) if capacity is not None else float("inf")

    def suspect(self, controller: "RejuvenationController") -> Optional[str]:
        threads = controller.deployment.runtime.threads
        best: Optional[str] = None
        best_count = 0
        for component in controller.deployment.interaction_names():
            count = threads.count_by_owner(component)
            if count > best_count:
                best, best_count = component, count
        return best


class ConnectionChannel(ResourceChannel):
    """Active pooled connections vs. the pool bound (future-work cause).

    Attribution is direct: every borrow is tagged with the borrowing
    component (see :meth:`~repro.db.jdbc.DataSource.get_connection`), so
    the component holding the most connections is the suspect.
    """

    name = "connections"
    metric = "connections_active"

    def capacity(self, deployment: TpcwDeployment) -> float:
        return float(deployment.datasource.pool_size)

    def suspect(self, controller: "RejuvenationController") -> Optional[str]:
        by_owner = controller.deployment.datasource.active_by_owner()
        best: Optional[str] = None
        best_count = 0
        for component in controller.deployment.interaction_names():
            count = by_owner.get(component, 0)
            if count > best_count:
                best, best_count = component, count
        return best


#: Channel constructors by name (the ``ExperimentConfig`` wiring strings).
CHANNEL_FACTORIES = {
    HeapChannel.name: HeapChannel,
    ThreadChannel.name: ThreadChannel,
    ConnectionChannel.name: ConnectionChannel,
}


def build_channels(names: List[str]) -> List[ResourceChannel]:
    """Instantiate channels from their names (``heap``/``threads``/``connections``;
    ``KeyError`` for any other)."""
    return [CHANNEL_FACTORIES[name]() for name in names]


# --------------------------------------------------------------------------- #
# Events / reports
# --------------------------------------------------------------------------- #
@dataclass
class RejuvenationEvent:
    """One executed rejuvenation action."""

    time: float
    kind: str  #: ``"full-restart"`` or ``"micro-reboot"``
    downtime_seconds: float
    component: Optional[str] = None
    reason: str = ""
    #: Resource channel whose trend triggered the action.
    resource: str = "heap"
    reclaimed_objects: int = 0
    reclaimed_bytes: int = 0
    reclaimed_threads: int = 0
    reclaimed_connections: int = 0

    @property
    def ends_at(self) -> float:
        """When the action's outage window closes."""
        return self.time + self.downtime_seconds


@dataclass
class RejuvenationReport:
    """Summary of a controller's activity over one run."""

    policy: str
    actions: int
    total_downtime_seconds: float
    reclaimed_bytes: int
    #: Requests refused while an outage window was in effect.
    refused_requests: int
    reclaimed_threads: int = 0
    reclaimed_connections: int = 0
    events: List[RejuvenationEvent] = field(default_factory=list)


class RejuvenationController:
    """Watches the monitored resource trends and rejuvenates mid-run.

    Parameters
    ----------
    deployment:
        The TPC-W deployment to act on (server outages, resource recycling).
    manager:
        The JMX Manager Agent whose map supplies the monitored series and
        the root-cause suspect.
    engine:
        Simulation engine used to schedule periodic checks.
    policy:
        Decides *when* to act and *what* to do.
    channels:
        The resource channels to watch, consulted in order each check
        (defaults to the heap channel alone, the pre-multi-resource
        behaviour).
    """

    def __init__(
        self,
        deployment: TpcwDeployment,
        manager: ManagerAgent,
        engine: SimulationEngine,
        policy: RejuvenationPolicy,
        channels: Optional[List[ResourceChannel]] = None,
    ) -> None:
        self.deployment = deployment
        self.manager = manager
        self.engine = engine
        self.policy = policy
        self.channels: List[ResourceChannel] = (
            list(channels) if channels is not None else [HeapChannel()]
        )
        if not self.channels:
            raise ValueError("a rejuvenation controller needs at least one channel")
        # Snapshots only pay the live-bytes reference-graph walk when a
        # channel actually extrapolates the resulting series.
        if any(channel.wants_live_heap for channel in self.channels):
            manager.poll_live_heap = True
        self.events: List[RejuvenationEvent] = []
        self._start_time = engine.now
        self._last_action_end: Optional[float] = None
        #: Per-channel start of the fresh observation window (reset by the
        #: actions that recycle that channel's resource).
        self._window_start: Dict[str, float] = {
            channel.name: self._start_time for channel in self.channels
        }
        self._alert_check_pending = False

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule_checks(
        self, duration: float, interval: float, start: Optional[float] = None
    ) -> int:
        """Schedule periodic policy checks; returns how many were scheduled."""
        begin = start if start is not None else self.engine.now
        count = 0
        t = begin + interval
        while t <= begin + duration + 1e-9:
            self.engine.schedule_at(
                t,
                lambda when=t: self.check(when),
                priority=CHECK_PRIORITY,
                name="rejuvenation.check",
            )
            count += 1
            t += interval
        return count

    def install_alert_trigger(self) -> None:
        """Re-check immediately when the manager flags an aging suspect.

        The manager raises the alert in the middle of request processing
        (inside an Aspect-Component advice), so the check is deferred to its
        own event at the same simulated time rather than executed inline.
        """

        def _on_suspect(component: Optional[str], notification) -> None:
            if self._alert_check_pending:
                return
            self._alert_check_pending = True

            def _deferred_check() -> None:
                self._alert_check_pending = False
                self.check()

            self.engine.schedule_at(
                self.engine.now,
                _deferred_check,
                priority=ALERT_CHECK_PRIORITY,
                name="rejuvenation.alert-check",
            )

        self.manager.add_rejuvenation_trigger(_on_suspect)

    # ------------------------------------------------------------------ #
    # Decision + execution
    # ------------------------------------------------------------------ #
    def observe(self, channel: ResourceChannel, now: float) -> PolicyObservation:
        """Build the policy observation for one channel at ``now``."""
        series = channel.series(self.manager)
        window_start = self._window_start.get(channel.name, self._start_time)
        return PolicyObservation(
            now=now,
            series=series.window(window_start, now),
            capacity=channel.capacity(self.deployment),
            start_time=self._start_time,
            last_action_end=self._last_action_end,
            suspect_component=(
                channel.suspect(self) if self.policy.needs_root_cause else None
            ),
            resource=channel.name,
        )

    def check(self, timestamp: Optional[float] = None) -> Optional[RejuvenationEvent]:
        """Consult the policy once per channel; execute and return the last action."""
        now = timestamp if timestamp is not None else self.engine.now
        executed: Optional[RejuvenationEvent] = None
        for channel in self.channels:
            if self._last_action_end is not None and now < self._last_action_end:
                break  # an action's downtime is still running
            observation = self.observe(channel, now)
            action = self.policy.decide(observation)
            if action is None:
                continue
            executed = self.execute(action, now, observation=observation)
            if action.kind == FULL_RESTART:
                break  # the restart recycled every channel's resource
        return executed

    def execute(
        self,
        action: RejuvenationAction,
        at_time: float,
        observation: Optional[PolicyObservation] = None,
    ) -> RejuvenationEvent:
        """Carry out ``action`` at ``at_time`` and record the event."""
        # The consulted channel names the resource being recycled; policies
        # written before multi-resource channels leave ``action.resource`` at
        # its ``"heap"`` default, so the observation wins when available.
        resource = observation.resource if observation is not None else action.resource
        if action.kind == FULL_RESTART:
            event = self._full_restart(at_time, action, resource)
            for name in self._window_start:
                self._window_start[name] = event.ends_at
        elif action.kind == MICRO_REBOOT:
            if action.component is None:
                raise ValueError("micro-reboot actions must name a component")
            event = self._micro_reboot(at_time, action, resource)
            self._window_start[resource] = event.ends_at
        else:  # pragma: no cover - RejuvenationAction validates kinds
            raise ValueError(f"unknown action kind {action.kind!r}")
        self.events.append(event)
        self._last_action_end = event.ends_at
        if observation is not None:
            # Feedback for self-tuning policies: the prediction that caused
            # this action can now be settled against the realized trend.
            self.policy.on_action_executed(observation, event)
        return event

    def _recycle_extension_resources(self, component: str) -> Tuple[int, int, int]:
        """Terminate a component's threads and force-close its connections.

        Returns ``(threads, stack_bytes, connections)``.
        """
        threads, stack_bytes = self.deployment.runtime.threads.terminate_owned(component)
        connections = self.deployment.datasource.release_owned(component)
        return threads, stack_bytes, connections

    def _full_restart(
        self, at_time: float, action: RejuvenationAction, resource: str
    ) -> RejuvenationEvent:
        deployment = self.deployment
        server = deployment.server
        heap = deployment.runtime.heap
        if action.downtime_seconds > 0:
            server.begin_outage(at_time, at_time + action.downtime_seconds, component=None)
        used_before = heap.used_bytes
        objects_before = heap.live_object_count
        # Drop every component's retained state (a restart forgets static
        # fields and caches), its leaked threads and held connections, and,
        # like a real redeploy, the session store.
        threads_total = 0
        connections_total = 0
        for component in deployment.interaction_names():
            deployment.servlet(component).instance_root.clear_references()
            threads, _, connections = self._recycle_extension_resources(component)
            threads_total += threads
            connections_total += connections
        server.sessions.invalidate_all()
        # Sweep the freed state.  The collector is invoked directly: the
        # outage window already models the restart's cost, so no GC pause is
        # charged to the first post-restart request.
        deployment.runtime.collector.collect()
        return RejuvenationEvent(
            time=at_time,
            kind=FULL_RESTART,
            downtime_seconds=action.downtime_seconds,
            reason=action.reason,
            resource=resource,
            reclaimed_objects=objects_before - heap.live_object_count,
            reclaimed_bytes=used_before - heap.used_bytes,
            reclaimed_threads=threads_total,
            reclaimed_connections=connections_total,
        )

    def _micro_reboot(
        self, at_time: float, action: RejuvenationAction, resource: str
    ) -> RejuvenationEvent:
        deployment = self.deployment
        component = action.component
        if action.downtime_seconds > 0:
            deployment.server.begin_outage(
                at_time, at_time + action.downtime_seconds, component=component
            )
        # Recycle only the guilty component: drop its retained references,
        # free its accumulated objects, kill its runaway threads, return its
        # held connections; every other component keeps serving.
        deployment.servlet(component).instance_root.clear_references()
        objects, reclaimed = deployment.runtime.reclaim_owned(component)
        threads, stack_bytes, connections = self._recycle_extension_resources(component)
        return RejuvenationEvent(
            time=at_time,
            kind=MICRO_REBOOT,
            downtime_seconds=action.downtime_seconds,
            component=component,
            reason=action.reason,
            resource=resource,
            reclaimed_objects=objects,
            reclaimed_bytes=reclaimed + stack_bytes,
            reclaimed_threads=threads,
            reclaimed_connections=connections,
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def action_count(self) -> int:
        """Number of executed rejuvenation actions."""
        return len(self.events)

    @property
    def total_downtime_seconds(self) -> float:
        """Accumulated downtime across all executed actions."""
        return sum(event.downtime_seconds for event in self.events)

    def report(self) -> RejuvenationReport:
        """Summarise the controller's activity."""
        return RejuvenationReport(
            policy=self.policy.name,
            actions=self.action_count,
            total_downtime_seconds=self.total_downtime_seconds,
            reclaimed_bytes=sum(event.reclaimed_bytes for event in self.events),
            refused_requests=self.deployment.server.refused_during_outage,
            reclaimed_threads=sum(event.reclaimed_threads for event in self.events),
            reclaimed_connections=sum(event.reclaimed_connections for event in self.events),
            events=list(self.events),
        )
