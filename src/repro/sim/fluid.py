"""Hybrid fluid/discrete simulation: bulk traffic as a mean-field process.

Discrete event simulation of every emulated browser costs O(requests); at
"millions of users" that is never hardware-speed.  This module supplies the
hybrid execution mode (``ExperimentConfig.simulation_mode="hybrid"``): the
bulk of the closed-loop population evolves as a vectorised fluid process —
a handful of numpy state variables per shard advanced once per update tick
— while a small discrete *tracer* population keeps flowing through the real
servlet/SQL/monitoring path so attribution, alerts, SLA accounting and
rejuvenation decisions stay grounded in observed component behaviour.

Fluid state per shard (updated every ``update_interval`` seconds):

* ``bulk population`` — closed-loop browsers assigned to the fluid side,
  phase-scheduled exactly like the discrete population.
* ``arrival rate`` — the interactive response-time law ``λ = N/(Z_eff + R)``
  with ``Z_eff = E[min(Exp(Z), cap)]`` (the TPC-W capped think time) and
  ``R`` the *tracer-observed* mean response time — the discrete tracers are
  the measurement instrument, so queueing, GC pauses and latency faults all
  feed back into the bulk rate without a separate queueing model.
* ``per-component visit rates`` — ``λ`` split by the navigation mix's
  stationary distribution; component-scoped outage windows (micro-reboots)
  drop exactly that component's share, full-server outages drop the shard's.
* ``resource-growth accumulators`` — the injected resource faults
  (memory-leak / thread-leak / connection-leak) fire on expected bulk visits
  (``visits / (N/2 + 1)`` per the random-countdown model), through the same
  ``Fault._inject`` path the discrete requests use, so heap/thread/
  connection growth lands in the real runtime and the monitoring stack,
  predictors and rejuvenation policies see it unmodified.

The fluid process feeds every surface the discrete path does:

* completed bulk requests are marked into the generator's
  :class:`~repro.sim.metrics.WindowedRate` (throughput series) — request
  *counters* are deliberately untouched so the tracer ledger
  (``completions + errors + refusals + in_flight == issued``) and the fleet
  server-side cross-check stay exact;
* worker-pool occupancy (``λ·R / max_threads``) is published onto
  :attr:`ApplicationServer.fluid_occupancy`, which ``pool_occupancy`` folds
  in, so least-occupancy balancing and load shedding see the bulk load;
* cumulative bulk visits per component are recorded into each shard's
  manager agent as the ``fluid_visits`` metric (external series).

Known limitations (documented in ``benchmarks/README.md``): only the
:data:`AMPLIFIED_FAULT_KINDS` reach the bulk; any other fault kind
(gc-pause-storm, lock-convoy, slow-downstream, cache-stampede, cpu-hog,
correlated-cascade) would act on the tracers alone, so
:meth:`~repro.experiments.runner.ExperimentConfig.validate` refuses it in
hybrid mode.  Bulk session churn is not modelled (sessions do not change
offered load in the closed loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.jvm.heap import OutOfMemoryError
from repro.jvm.threads import ThreadLimitError
from repro.slo.analytic import capped_exponential_mean, closed_loop_rate
from repro.tpcw.workload import MAX_THINK_TIME, WorkloadPhase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.cluster import SimulatedCluster
    from repro.sim.engine import SimulationEngine
    from repro.tpcw.workload import WorkloadGenerator

#: Fluid update events run *before* monitoring snapshots (priority 5),
#: black-box probes (6) and rejuvenation checks (7) at the same timestamp,
#: so every observer of a tick sees the tick's bulk contribution.
FLUID_UPDATE_PRIORITY = 4

#: Default fraction of the population simulated discretely as tracers.
DEFAULT_TRACER_FRACTION = 0.05

#: Response-time prior used until the tracers have produced a sample.
INITIAL_RESPONSE_TIME = 0.05

#: Fault kinds whose resource growth the fluid bulk amplifies through the
#: real injection path.  Latency-mode kinds act on tracers only.
AMPLIFIED_FAULT_KINDS = ("memory-leak", "thread-leak", "connection-leak")


def split_phases(
    phases: List[WorkloadPhase], tracer_fraction: float
) -> Tuple[List[WorkloadPhase], List[WorkloadPhase]]:
    """Split a phase schedule into (tracer, bulk) sub-schedules.

    Every non-empty phase keeps at least one tracer browser (the tracers are
    the hybrid run's measurement instrument; a phase with zero tracers would
    leave the fluid side blind).  The bulk gets the remainder, so
    ``tracer + bulk == original`` per phase.  ``tracer_fraction`` is in
    ``(0, 1]`` (see :meth:`~repro.experiments.runner.ExperimentConfig.validate`).
    """
    tracers: List[WorkloadPhase] = []
    bulk: List[WorkloadPhase] = []
    for phase in phases:
        count = phase.eb_count
        tracer_count = min(count, max(1, round(count * tracer_fraction))) if count else 0
        tracers.append(WorkloadPhase(start_time=phase.start_time, eb_count=tracer_count))
        bulk.append(
            WorkloadPhase(start_time=phase.start_time, eb_count=count - tracer_count)
        )
    return tracers, bulk


class _FluidRequest:
    """Stand-in request handed to ``Fault._inject`` for bulk-driven firings.

    The injectors only read ``arrival_time`` (memory-leak timestamps its
    allocations with it); everything else about the request is irrelevant to
    resource growth.
    """

    __slots__ = ("arrival_time",)

    def __init__(self, arrival_time: float) -> None:
        self.arrival_time = arrival_time


@dataclass
class FluidReport:
    """What the fluid side of a hybrid run did (for reports and tests)."""

    tracer_fraction: float
    update_interval: float
    updates: int = 0
    #: Peak bulk population across the run.
    bulk_peak_population: float = 0.0
    #: Cumulative bulk completions (fractional; the integer part was marked
    #: into the throughput series).
    bulk_completions: float = 0.0
    #: Bulk-driven fault firings by kind.
    amplified_injections: Dict[str, int] = field(default_factory=dict)
    #: Bulk-driven firings dropped by kind because the heap was full (each is
    #: a request the discrete path would have failed with a 500).
    dropped_injections: Dict[str, int] = field(default_factory=dict)
    #: Cumulative bulk visits per component, summed over shards.
    component_visits: Dict[str, float] = field(default_factory=dict)
    #: Bulk demand (browser-seconds) that arrived while the target shard was
    #: inside a full outage window — the fluid analogue of refused load.
    bulk_outage_seconds: float = 0.0


class _ShardFluidState:
    """Mutable fluid state for one shard."""

    __slots__ = (
        "shard",
        "completion_carry",
        "fault_accumulators",
        "saturated_faults",
        "cumulative_visits",
    )

    def __init__(self, shard) -> None:
        self.shard = shard
        self.completion_carry = 0.0
        #: (component, fault) -> fractional expected firings not yet fired.
        self.fault_accumulators: Dict[int, float] = {}
        self.saturated_faults: set = set()
        self.cumulative_visits: Dict[str, float] = {}


class FluidProcess:
    """Evolves the bulk population and feeds the discrete surfaces.

    Parameters
    ----------
    engine:
        The simulation engine (update events are scheduled on it).
    cluster:
        The shard fleet (fluid state is per shard).
    generator:
        The tracer workload generator — the fluid process reads its
        response-time series and marks bulk completions into its
        throughput windows.
    bulk_phases:
        Phase schedule of the *bulk* population (from :func:`split_phases`).
    update_interval:
        Seconds between fluid updates.
    """

    def __init__(
        self,
        engine: "SimulationEngine",
        cluster: "SimulatedCluster",
        generator: "WorkloadGenerator",
        bulk_phases: List[WorkloadPhase],
        *,
        tracer_fraction: float = DEFAULT_TRACER_FRACTION,
        update_interval: float = 5.0,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.generator = generator
        self.update_interval = float(update_interval)
        self._phases = sorted(bulk_phases, key=lambda phase: phase.start_time)
        self._think_eff = capped_exponential_mean(
            generator.think_time_mean, MAX_THINK_TIME
        )
        self._mix_probs: Dict[str, float] = generator.mix.stationary_distribution()
        self._response_estimate = INITIAL_RESPONSE_TIME
        self._response_cursor = 0
        self._last_update = engine.now
        self._states = [_ShardFluidState(shard) for shard in cluster.shards]
        self.report = FluidReport(
            tracer_fraction=float(tracer_fraction),
            update_interval=self.update_interval,
        )

    # ------------------------------------------------------------------ #
    def schedule_updates(self, duration: float) -> int:
        """Schedule periodic fluid updates over ``[now, now + duration]``."""
        begin = self.engine.now
        self._last_update = begin
        count = 0
        t = begin + self.update_interval
        while t <= begin + duration + 1e-9:
            self.engine.schedule_at(
                t, self.update, priority=FLUID_UPDATE_PRIORITY, name="fluid.update"
            )
            count += 1
            t += self.update_interval
        return count

    # ------------------------------------------------------------------ #
    def bulk_population(self, now: float) -> float:
        """The bulk population in effect at ``now`` (phase schedule)."""
        population = 0
        for phase in self._phases:
            if phase.start_time <= now + 1e-12:
                population = phase.eb_count
            else:
                break
        return float(population)

    def _refresh_response_estimate(self) -> None:
        """Fold tracer response-time samples recorded since the last tick."""
        series = self.generator.response_times
        total = len(series)
        if total > self._response_cursor:
            fresh = series.values[self._response_cursor : total]
            self._response_estimate = float(np.mean(fresh))
            self._response_cursor = total
        # No fresh samples: keep the previous estimate (the tracers are
        # between think times or the shard is down; rates stay continuous).

    # ------------------------------------------------------------------ #
    def update(self) -> None:
        """One fluid tick: advance bulk state by ``now - last_update``."""
        now = self.engine.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        self.report.updates += 1
        population = self.bulk_population(now)
        self.report.bulk_peak_population = max(
            self.report.bulk_peak_population, population
        )
        self._refresh_response_estimate()

        shards = self.cluster.shards
        healthy = [
            shard
            for shard in shards
            if shard.deployment.server.outage_for(now) is None
        ]
        if not healthy or population <= 0:
            if population > 0:
                self.report.bulk_outage_seconds += population * dt
            for state in self._states:
                self._publish_idle(state)
            return

        share = population / len(healthy)
        healthy_set = {shard.index for shard in healthy}
        for state in self._states:
            if state.shard.index in healthy_set:
                self._update_shard(state, share, now, dt)
            else:
                self.report.bulk_outage_seconds += share * dt
                self._publish_idle(state)

    def _publish_idle(self, state: _ShardFluidState) -> None:
        state.shard.deployment.server.fluid_occupancy = 0.0

    def _update_shard(
        self, state: _ShardFluidState, bulk_population: float, now: float, dt: float
    ) -> None:
        shard = state.shard
        deployment = shard.deployment
        server = deployment.server
        response = self._response_estimate
        rate = closed_loop_rate(bulk_population, self._think_eff, response)

        # -- per-component visit rates (mix stationary split) ------------ #
        served_fraction = 1.0
        visits: Dict[str, float] = {}
        for component, probability in self._mix_probs.items():
            if probability <= 0.0:
                continue
            if server.outage_for(now, component) is not None:
                # Component-scoped outage (micro-reboot): its share of the
                # bulk stream is refused, not served.
                served_fraction -= probability
                continue
            component_visits = rate * dt * probability
            visits[component] = component_visits
            state.cumulative_visits[component] = (
                state.cumulative_visits.get(component, 0.0) + component_visits
            )
            self.report.component_visits[component] = (
                self.report.component_visits.get(component, 0.0) + component_visits
            )
        served_fraction = max(0.0, served_fraction)

        # -- completions into the throughput series ---------------------- #
        completed = rate * dt * served_fraction + state.completion_carry
        whole = int(completed)
        state.completion_carry = completed - whole
        self.report.bulk_completions += rate * dt * served_fraction
        if whole:
            self.generator.throughput.mark(now, whole)

        # -- resource-fault amplification -------------------------------- #
        if shard.injector is not None:
            self._amplify_faults(state, deployment, visits, now)

        # -- occupancy feed ---------------------------------------------- #
        max_threads = getattr(server.config, "max_threads", 0)
        if max_threads > 0:
            server.fluid_occupancy = (
                rate * served_fraction * response / float(max_threads)
            )

        # -- manager feed ------------------------------------------------ #
        if shard.framework is not None:
            manager = shard.framework.manager
            for component, cumulative in state.cumulative_visits.items():
                manager.record_external_series(
                    component, "fluid_visits", now, cumulative
                )

    def _amplify_faults(
        self,
        state: _ShardFluidState,
        deployment,
        visits: Dict[str, float],
        now: float,
    ) -> None:
        """Fire injected resource faults on expected bulk visits.

        The random-countdown injector fires once per ``N/2 + 1`` visits on
        average; the fluid limit accrues ``visits / (N/2 + 1)`` expected
        firings per tick and fires the integer part through the *real*
        ``_inject`` path, so the leak lands in the actual runtime state the
        monitoring agents size.  A full heap drops the tick's remaining
        firings (the discrete path fails such a request and moves on); the
        next tick fires again, since a collection or a micro-reboot may have
        made room.
        """
        for component, fault in state.shard.injector.injected:
            if fault.kind not in AMPLIFIED_FAULT_KINDS:
                continue
            key = id(fault)
            if key in state.saturated_faults:
                continue
            component_visits = visits.get(component, 0.0)
            if component_visits <= 0.0:
                continue
            mean_visits = fault.period_n / 2.0 + 1.0
            accumulated = state.fault_accumulators.get(key, 0.0) + (
                component_visits / mean_visits
            )
            firings = int(accumulated)
            state.fault_accumulators[key] = accumulated - firings
            if not firings:
                continue
            servlet = deployment.servlet(component)
            request = _FluidRequest(now)
            fired = 0
            try:
                for _ in range(firings):
                    fault.trigger_count += 1
                    fault._inject(servlet, request)
                    fired += 1
            except ThreadLimitError:
                # The runtime's thread wall: the discrete path would keep
                # failing requests here; the fluid side stops amplifying
                # (the tracers keep observing the failure mode).
                state.saturated_faults.add(key)
                fired += 1
            except OutOfMemoryError:
                self.report.dropped_injections[fault.kind] = (
                    self.report.dropped_injections.get(fault.kind, 0) + firings - fired
                )
            if fired:
                self.report.amplified_injections[fault.kind] = (
                    self.report.amplified_injections.get(fault.kind, 0) + fired
                )
