"""Sharded multi-server fleet behind a deterministic load balancer.

The paper's monitoring / root-cause / rejuvenation loop is written against a
single JVM, but its operational target is a fleet: many application-server
instances serving one workload, each aging at its own pace.  This module
supplies the cluster layer the experiment harness runs on:

- :class:`SimulatedCluster` — N independent TPC-W shards (each with its own
  JVM runtime, database replica, monitoring stack and fault injector)
  exposed through the *same* duck-typed surface the
  :class:`~repro.tpcw.workload.WorkloadGenerator` consumes from a single
  :class:`~repro.tpcw.application.TpcwDeployment`.  A single-server run is
  just ``shards=1`` of this path — bit-identical to the legacy harness,
  because routing through a one-shard balancer draws no randomness and
  schedules no events.
- :class:`LoadBalancer` — deterministic request routing: sticky sessions by
  session id (default), round-robin, or least-occupancy, all of them
  skipping shards whose server (or the requested component) is inside a
  rejuvenation outage window.
- :func:`fleet_aging_rows` — cross-shard root-cause aggregation over the
  per-shard manager agents: which *instance* and which *component* is aging.
- :class:`FleetRejuvenationController` — generalises the per-shard
  :class:`~repro.core.rejuvenation.RejuvenationController` to a fleet
  policy: *rolling* recycles aged shards one at a time (aggregate capacity
  never drops below ``(N-1)/N``), *simultaneous* lets every shard act the
  moment its policy fires (the naive cron-style restart the paper's SLA
  argument warns about).

Determinism: shard 0 is built with exactly the legacy arguments (the
experiment seed), shard ``i`` gets an offset seed stream; balancer policies
are pure functions of request + shard state.  Every fleet run is therefore
bit-identical per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.baselines.blackbox import BlackBoxMonitor
from repro.core.framework import MonitoringFramework
from repro.core.rejuvenation import (
    CHECK_PRIORITY,
    FULL_RESTART,
    RejuvenationController,
    RejuvenationEvent,
    RejuvenationReport,
)
from repro.faults.injector import FaultInjector
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import TimeSeries
from repro.tpcw.application import TpcwDeployment, build_deployment
from repro.tpcw.population import PopulationScale

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from repro.container.server import RequestOutcome
    from repro.container.servlet import HttpServletRequest
    from repro.experiments.runner import ExperimentConfig
    from repro.tpcw.workload import WorkloadGenerator

#: Large prime stride between per-shard master seeds; keeps shard streams
#: disjoint while shard 0 stays on the experiment seed (legacy-identical).
SHARD_SEED_STRIDE = 7919

#: Balancing policies the :class:`LoadBalancer` implements.
BALANCER_POLICIES = ("sticky", "round-robin", "least-occupancy")

#: Fleet rejuvenation modes (``None`` on the config means independent
#: per-shard controllers, the pre-fleet behaviour).
FLEET_REJUVENATION_MODES = ("rolling", "simultaneous")


@dataclass
class ShardHandle:
    """One application-server instance of the cluster plus its harness."""

    index: int
    deployment: TpcwDeployment
    #: Filled in by the runner as the stack is installed shard by shard.
    framework: Optional[MonitoringFramework] = None
    injector: Optional[FaultInjector] = None
    controller: Optional[RejuvenationController] = None
    blackbox: Optional[BlackBoxMonitor] = None

    def heap_series(self) -> TimeSeries:
        """The shard's monitored JVM heap series (empty when unmonitored)."""
        if self.framework is not None:
            return self.framework.manager.map.series("<jvm>", "heap_used")
        if self.blackbox is not None:
            return self.blackbox.series["heap_used"]
        return TimeSeries("heap_used")

    def heap_capacity(self) -> float:
        """The shard's total heap capacity in bytes."""
        return float(self.deployment.runtime.total_memory())

    def object_series(self, component: str) -> TimeSeries:
        """The component's monitored object-size series (empty when unmonitored)."""
        if self.framework is not None:
            return self.framework.manager.map.series(component, "object_size")
        return TimeSeries("object_size")

    def summary(self) -> Dict[str, object]:
        """Server-side counters of this shard, for the fleet report."""
        server = self.deployment.server
        rejuvenation = self.controller.report() if self.controller is not None else None
        heap = self.heap_series()
        return {
            "shard": self.index,
            "completed": server.completed_requests,
            "rejected": server.rejected_requests,
            "refused_outage": server.refused_during_outage,
            "sessions": server.sessions.created_count,
            "actions": rejuvenation.actions if rejuvenation is not None else 0,
            "downtime_s": round(
                rejuvenation.total_downtime_seconds if rejuvenation is not None else 0.0, 3
            ),
            "final_heap_mb": round(
                float(heap.values[-1]) / (1024 * 1024) if len(heap) else 0.0, 2
            ),
        }


class LoadBalancer:
    """Deterministic request router over the cluster's shards.

    Parameters
    ----------
    shards:
        The cluster's shard handles, in index order.
    policy:
        One of :data:`BALANCER_POLICIES` (``ExperimentConfig.validate``
        checks it).  ``"sticky"`` binds each session id to a shard on first
        contact and keeps routing it there (re-binding only when the bound
        shard is inside an outage window — a failover); ``"round-robin"``
        cycles through healthy shards per request; ``"least-occupancy"``
        picks the healthy shard with the lowest worker-pool occupancy (ties
        broken by shard index).
    uri_components:
        Request-URI -> component name map, used to ask each shard whether a
        *component-scoped* outage (micro-reboot) covers the request.

    Health: a shard is avoided while ``server.outage_for(now, component)``
    reports an active window — that covers both full restarts and
    micro-reboots of the requested component, and both the fleet controller
    and any breaker-driven outage source, since all of them go through
    ``begin_outage``.  When *no* shard is healthy the request is still
    routed (to the sticky binding or the rotation's next pick) so the server
    itself refuses it with a ``Retry-After`` — keeping the client-side
    request ledger exact.
    """

    def __init__(
        self,
        shards: List[ShardHandle],
        policy: str = "sticky",
        uri_components: Optional[Dict[str, str]] = None,
    ) -> None:
        if not shards:
            raise ValueError("a load balancer needs at least one shard")
        self.policy = policy
        self.shards = list(shards)
        self._servers = [shard.deployment.server for shard in self.shards]
        self._uri_components = dict(uri_components or {})
        self._bindings: Dict[str, ShardHandle] = {}
        self._cursor = 0
        self.routed: List[int] = [0] * len(shards)
        #: Sticky sessions re-routed away from an unhealthy bound shard.
        self.failovers = 0
        #: Requests routed while no shard was healthy (refused server-side).
        self.routed_while_all_down = 0

    # ------------------------------------------------------------------ #
    def _healthy(self, now: float, uri: str) -> List[ShardHandle]:
        """The shards no outage window covers for a request to ``uri``
        (``shards`` itself when no server has a window; callers must not
        change the list)."""
        for server in self._servers:
            if server.outages:
                break
        else:
            return self.shards
        component = self._uri_components.get(uri)
        return [
            shard
            for shard in self.shards
            if shard.deployment.server.outage_for(now, component) is None
        ]

    def _next_in_rotation(self, candidates: List[ShardHandle]) -> ShardHandle:
        """The next candidate at or after the rotation cursor (advances it)."""
        eligible = {shard.index for shard in candidates}
        count = len(self.shards)
        for offset in range(count):
            index = (self._cursor + offset) % count
            if index in eligible:
                self._cursor = (index + 1) % count
                return self.shards[index]
        raise AssertionError("rotation over a non-empty candidate list cannot miss")

    def route(self, request: "HttpServletRequest", now: float) -> ShardHandle:
        """Pick the shard serving ``request`` at ``now``."""
        healthy = self._healthy(now, request.uri)
        if not healthy:
            self.routed_while_all_down += 1
        if self.policy == "sticky":
            chosen = self._route_sticky(request, healthy)
        elif self.policy == "round-robin":
            chosen = self._next_in_rotation(healthy or self.shards)
        else:  # least-occupancy
            candidates = healthy or self.shards
            chosen = min(
                candidates,
                key=lambda shard: (shard.deployment.server.pool_occupancy(now), shard.index),
            )
        self.routed[chosen.index] += 1
        return chosen

    def _route_sticky(
        self, request: "HttpServletRequest", healthy: List[ShardHandle]
    ) -> ShardHandle:
        session_id = request.session_id
        bound = self._bindings.get(session_id) if session_id is not None else None
        if bound is not None:
            if not healthy or bound in healthy:
                return bound
            # Bound shard is down mid-session: fail over to a healthy one.
            # The new shard mints a fresh session (state is shard-local),
            # which `observe` re-binds.
            self.failovers += 1
        return self._next_in_rotation(healthy or self.shards)

    def observe(self, request: "HttpServletRequest", shard: ShardHandle) -> None:
        """Record the post-request session binding (sticky policy only)."""
        if self.policy != "sticky" or request.session_id is None:
            return
        self._bindings[request.session_id] = shard

    def stats(self) -> Dict[str, object]:
        """Routing counters for the fleet report."""
        return {
            "policy": self.policy,
            "routed": list(self.routed),
            "failovers": self.failovers,
            "routed_while_all_down": self.routed_while_all_down,
            "sticky_bindings": len(self._bindings),
        }


class ClusterGateway:
    """The cluster's server facade the workload generator talks to.

    Duck-types the slice of :class:`~repro.container.server.ApplicationServer`
    the harness consumes: :meth:`handle` routes through the balancer, the
    counters aggregate fleet-wide (with one shard they equal the legacy
    single-server values).
    """

    def __init__(self, cluster: "SimulatedCluster") -> None:
        self._cluster = cluster
        self._balancer = cluster.balancer

    def handle(self, request: "HttpServletRequest", arrival_time: float) -> "RequestOutcome":
        """Route ``request`` to a shard and serve it there."""
        balancer = self._balancer
        shard = balancer.route(request, arrival_time)
        outcome = shard.deployment.server.handle(request, arrival_time)
        balancer.observe(request, shard)
        return outcome

    @property
    def completed_requests(self) -> int:
        """Fleet-wide completed requests (success or error page)."""
        return sum(s.deployment.server.completed_requests for s in self._cluster.shards)

    @property
    def rejected_requests(self) -> int:
        """Fleet-wide rejected requests (queue overflow, outage, shedding)."""
        return sum(s.deployment.server.rejected_requests for s in self._cluster.shards)

    @property
    def refused_during_outage(self) -> int:
        """Fleet-wide requests refused by outage windows."""
        return sum(s.deployment.server.refused_during_outage for s in self._cluster.shards)


class SimulatedCluster:
    """N TPC-W shards behind a :class:`LoadBalancer`.

    Exposes the deployment surface the workload generator uses
    (``url_for`` / ``server.handle`` / ``streams`` / ``clock`` / ``scale`` /
    ``interaction_names``) so it can stand in for a single
    :class:`~repro.tpcw.application.TpcwDeployment` unchanged.
    """

    def __init__(
        self,
        shards: List[ShardHandle],
        balancer: LoadBalancer,
        engine: SimulationEngine,
    ) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        self.shards = list(shards)
        self.balancer = balancer
        self.engine = engine
        self.server = ClusterGateway(self)

    # -- deployment duck-type ------------------------------------------- #
    @property
    def primary(self) -> ShardHandle:
        """Shard 0 — seeded exactly like the legacy single-server path."""
        return self.shards[0]

    @property
    def streams(self):
        """The workload's random streams (shard 0's, the experiment seed)."""
        return self.primary.deployment.streams

    @property
    def clock(self):
        """The shared simulation clock."""
        return self.primary.deployment.clock

    @property
    def scale(self) -> PopulationScale:
        """The per-shard database population scale."""
        return self.primary.deployment.scale

    def url_for(self, interaction: str) -> str:
        """The request URI mapped to ``interaction`` (same on every shard)."""
        return self.primary.deployment.url_for(interaction)

    def interaction_names(self):
        """All deployed interaction names, in TPC-W order."""
        return self.primary.deployment.interaction_names()

    # -- fleet accounting ----------------------------------------------- #
    def ledger_check(self, generator: "WorkloadGenerator") -> Dict[str, object]:
        """Cross-check the client-side ledger against per-shard server counters.

        Every issued attempt that reaches a server lands on exactly one
        shard and is either completed there or rejected there (outage
        refusals included), so
        ``sum_i(completed_i + rejected_i) == issued - breaker_refusals``
        must hold — including requests the balancer re-routed across shards
        during outage windows.  Client-side circuit-breaker refusals are the
        one issued bucket that never reaches a server (the browser got an
        instant client-side error page), hence the subtraction.  Raises
        ``RuntimeError`` on violation.
        """
        per_shard = [shard.summary() for shard in self.shards]
        served = sum(int(row["completed"]) + int(row["rejected"]) for row in per_shard)
        issued = generator.issued_requests
        dispatched = issued - generator.breaker_refusals
        if served != dispatched:
            raise RuntimeError(
                f"fleet ledger violated: shards served {served} requests but the "
                f"workload dispatched {dispatched} "
                f"(issued {issued} - {generator.breaker_refusals} breaker refusals) "
                f"({per_shard})"
            )
        return {"issued": issued, "served": served, "per_shard": per_shard}


def build_cluster(config: "ExperimentConfig", engine: SimulationEngine) -> SimulatedCluster:
    """Build the cluster an experiment runs on.

    Shard 0 is constructed with exactly the legacy single-server arguments
    (the experiment seed drives its streams), so a ``shards=1`` cluster is
    bit-identical to the pre-cluster harness.  Shards ``i > 0`` draw from an
    offset seed (``seed + SHARD_SEED_STRIDE * i``), populate their own
    database replica and mint namespaced session ids.  ``config`` is assumed
    valid (:meth:`~repro.experiments.runner.ExperimentConfig.validate`).
    """
    scale = config.scale or PopulationScale.standard()
    shards: List[ShardHandle] = []
    for index in range(config.shards):
        deployment = build_deployment(
            scale=scale,
            seed=config.seed if index == 0 else config.seed + SHARD_SEED_STRIDE * index,
            config=config.server_config,
            clock=engine.clock,
        )
        if index > 0:
            deployment.server.sessions.id_prefix = f"S{index}-"
        shards.append(ShardHandle(index=index, deployment=deployment))
    uri_components = {
        shards[0].deployment.url_for(name): name
        for name in shards[0].deployment.interaction_names()
    }
    balancer = LoadBalancer(
        shards, policy=config.balancer_policy, uri_components=uri_components
    )
    return SimulatedCluster(shards, balancer, engine)


# --------------------------------------------------------------------------- #
# Fleet-level monitoring aggregation
# --------------------------------------------------------------------------- #
def fleet_aging_rows(cluster: SimulatedCluster) -> List[Dict[str, object]]:
    """The fleet-wide aging picture: one row per monitored shard, its top
    suspect and heap growth, fastest-aging first.

    Each shard's manager agent answers which *component* ages on it; this
    answers the cross-shard question they cannot: which *instance* ages
    fastest.  Rows rank by monitored heap growth over the run, then
    responsibility; ties break by shard index, so the output is
    deterministic.
    """
    rows: List[Dict[str, object]] = []
    for shard in cluster.shards:
        if shard.framework is None:
            continue
        top = shard.framework.root_cause().top()
        heap = shard.heap_series()
        growth = float(heap.values[-1] - heap.values[0]) if len(heap) >= 2 else 0.0
        rows.append(
            {
                "shard": shard.index,
                "component": top.component if top is not None else "-",
                "responsibility": round(top.responsibility, 4) if top is not None else 0.0,
                "heap_growth_mb": round(growth / (1024 * 1024), 3),
            }
        )
    rows.sort(
        key=lambda row: (
            -float(row["heap_growth_mb"]),
            -float(row["responsibility"]),
            int(row["shard"]),
        )
    )
    return rows


# --------------------------------------------------------------------------- #
# Fleet rejuvenation
# --------------------------------------------------------------------------- #
@dataclass
class FleetRejuvenationReport:
    """Summary of the fleet controller's activity over one run."""

    mode: str
    #: Total rejuvenation actions across all shards.
    actions: int
    #: Sum of per-shard outage downtime (capacity-seconds lost = this / N).
    total_downtime_seconds: float
    #: Fleet-wide requests refused by outage windows.
    refused_requests: int
    #: Rolling mode: shard recycles pushed to a later check because another
    #: shard's outage was still open.
    deferred_checks: int
    #: Full-shard outage windows ``(shard, start, end)`` in execution order.
    windows: List[Tuple[int, float, float]] = field(default_factory=list)
    #: Per-shard controller reports, in shard order.
    per_shard: List[RejuvenationReport] = field(default_factory=list)

    def capacity_profile(self, duration: float) -> List[Tuple[float, float, float]]:
        """Piecewise-constant ``(start, end, available_fraction)`` over
        ``[0, duration]``: the share of shards not inside an outage window."""
        shard_count = len(self.per_shard)
        points = sorted(
            {0.0, duration}
            | {min(t, duration) for _, start, end in self.windows for t in (start, end)}
        )
        profile: List[Tuple[float, float, float]] = []
        for left, right in zip(points, points[1:]):
            midpoint = (left + right) / 2.0
            down = sum(1 for _, start, end in self.windows if start <= midpoint < end)
            profile.append((left, right, (shard_count - down) / shard_count))
        return profile


class FleetRejuvenationController:
    """Coordinates per-shard rejuvenation controllers into a fleet policy.

    The per-shard controllers decide *whether* a shard needs recycling (via
    their configured :class:`~repro.baselines.rejuvenation.RejuvenationPolicy`);
    this controller decides *when each is allowed to act*:

    - ``"rolling"`` — at most one shard recycles per check tick, and no shard
      may start while another's outage window is still open.  Aggregate
      serving capacity therefore never drops below ``(N-1)/N``.
    - ``"simultaneous"`` — every shard acts the moment its policy fires; when
      all shards age at the same rate (the common case: they share the
      workload) they all restart in the same tick and fleet capacity hits
      zero for the whole downtime window.

    The fleet controller owns the check schedule; per-shard alert triggers
    are deliberately not installed, since an alert-driven check would bypass
    the rolling gate.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        controllers: List[RejuvenationController],
        engine: SimulationEngine,
        mode: str,
    ) -> None:
        if len(controllers) != len(cluster.shards):
            raise ValueError("need exactly one controller per shard")
        self.cluster = cluster
        self.controllers = list(controllers)
        self.engine = engine
        self.mode = mode
        self.deferred_checks = 0
        self._busy_until: Optional[float] = None

    def schedule_checks(self, duration: float, interval: float) -> int:
        """Schedule periodic fleet checks; returns how many were scheduled."""
        begin = self.engine.now
        count = 0
        t = begin + interval
        while t <= begin + duration + 1e-9:
            self.engine.schedule_at(
                t,
                lambda when=t: self.check(when),
                priority=CHECK_PRIORITY,
                name="fleet.rejuvenation.check",
            )
            count += 1
            t += interval
        return count

    def check(self, now: float) -> Optional[RejuvenationEvent]:
        """Run one fleet check tick; returns the last executed event."""
        executed: Optional[RejuvenationEvent] = None
        if self.mode == "simultaneous":
            for controller in self.controllers:
                event = controller.check(now)
                if event is not None:
                    executed = event
            return executed
        # Rolling: serialize — one recycle per tick, none while an outage is
        # open.  A shard whose policy wanted to act this tick simply fires on
        # a later tick (its policy condition keeps holding until it acts).
        if self._busy_until is not None and now < self._busy_until - 1e-9:
            self.deferred_checks += 1
            return None
        for controller in self.controllers:
            event = controller.check(now)
            if event is not None:
                self._busy_until = event.ends_at
                return event
        return None

    # -- capacity accounting -------------------------------------------- #
    def windows(self) -> List[Tuple[int, float, float]]:
        """Full-shard outage windows ``(shard, start, end)``, time-ordered.

        Micro-reboots take down a single component, not the shard, so only
        full restarts count against aggregate serving capacity.
        """
        out: List[Tuple[int, float, float]] = []
        for index, controller in enumerate(self.controllers):
            for event in controller.events:
                if event.kind == FULL_RESTART:
                    out.append((index, event.time, event.ends_at))
        out.sort(key=lambda row: (row[1], row[0]))
        return out

    def report(self) -> FleetRejuvenationReport:
        """Summarise the fleet controller's activity."""
        per_shard = [controller.report() for controller in self.controllers]
        return FleetRejuvenationReport(
            mode=self.mode,
            actions=sum(report.actions for report in per_shard),
            total_downtime_seconds=sum(
                report.total_downtime_seconds for report in per_shard
            ),
            refused_requests=sum(report.refused_requests for report in per_shard),
            deferred_checks=self.deferred_checks,
            windows=self.windows(),
            per_shard=per_shard,
        )


# --------------------------------------------------------------------------- #
# Fleet result bundle
# --------------------------------------------------------------------------- #
@dataclass
class FleetReport:
    """Everything fleet-specific one multi-shard run produced."""

    shards: int
    balancer: Dict[str, object]
    per_shard: List[Dict[str, object]]
    #: Cross-shard aging rows (:func:`fleet_aging_rows`).
    root_cause_rows: List[Dict[str, object]]
    #: Client ledger vs. per-shard server counters cross-check.
    ledger: Dict[str, object]
    rejuvenation: Optional[FleetRejuvenationReport] = None
