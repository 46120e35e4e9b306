"""Generic experiment runner.

One :func:`run_experiment` call performs everything the paper's evaluation
needs for a single run: build a fresh cluster (a single shard by default),
optionally install the monitoring framework on every shard (Fig. 3 compares
a monitored and an unmonitored run of the same workload), inject the
configured faults, drive the phased EB workload through the load balancer,
take periodic manager and black-box snapshots, and package every series the
figures plot into an :class:`ExperimentResult`.

The single-server path *is* the general path: a ``shards=1`` run routes
through a one-shard cluster whose balancer draws no randomness, so its
outputs are bit-identical per seed to the pre-cluster harness.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.blackbox import BlackBoxMonitor
from repro.baselines.pinpoint import PinpointAnalyzer
from repro.baselines.rejuvenation import RejuvenationPolicy
from repro.container.resilience import ResilienceConfig
from repro.container.server import ServerConfig
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.rejuvenation import (
    RejuvenationController,
    RejuvenationReport,
    build_channels,
)
from repro.core.rootcause import RootCauseReport, RootCauseStrategy
from repro.experiments.cluster import (
    FleetManager,
    FleetRejuvenationController,
    FleetReport,
    SimulatedCluster,
    build_cluster,
)
from repro.experiments.deploy import RolloutController, RolloutPlan, RolloutReport
from repro.faults.injector import FaultInjector, FaultSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.transports import JsonlMetricsStream
from repro.sim.engine import SimulationEngine
from repro.sim.fluid import FluidProcess, FluidReport, split_phases
from repro.sim.metrics import TimeSeries
from repro.slo.adaptive_policy import AdaptiveRejuvenationPolicy
from repro.slo.calibration import CalibrationStore, workload_signature
from repro.tpcw.application import TpcwDeployment
from repro.tpcw.mixes import PAGE_PRIORITIES, mix_by_name
from repro.tpcw.population import PopulationScale
from repro.tpcw.workload import WorkloadGenerator, WorkloadPhase


@dataclass
class ExperimentConfig:
    """Everything that defines one experiment run."""

    name: str = "experiment"
    seed: int = 42
    scale: Optional[PopulationScale] = None
    #: Phased EB schedule; a single constant phase when only ``constant_ebs`` is set.
    phases: List[WorkloadPhase] = field(default_factory=list)
    constant_ebs: int = 100
    duration: float = 3600.0
    mix_name: str = "shopping"
    think_time_mean: float = 7.0
    #: Whether the monitoring framework is installed (Fig. 3 compares both).
    monitored: bool = True
    #: When set (and ``monitored``), only these components stay activated; the
    #: manager deactivates every other Aspect Component before the run starts
    #: (the paper's "focus the monitoring over a set of determined objects").
    monitored_components: Optional[List[str]] = None
    faults: List[FaultSpec] = field(default_factory=list)
    snapshot_interval: float = 60.0
    sample_cost_seconds: float = 2.5e-3
    server_config: Optional[ServerConfig] = None
    strategy: Optional[RootCauseStrategy] = None
    #: Install the future-work agents (CPU / threads / connections).
    monitor_extended_resources: bool = False
    #: Feed request traces to a Pinpoint baseline analyser.
    collect_pinpoint_traces: bool = False
    #: Sample a black-box host monitor alongside (never adds overhead).
    collect_blackbox_samples: bool = True
    #: Live rejuvenation policy executed mid-run by a
    #: :class:`~repro.core.rejuvenation.RejuvenationController` (requires
    #: ``monitored``), checked every ``snapshot_interval`` so checks see
    #: fresh samples; ``None`` disables the controller entirely.
    rejuvenation: Optional[RejuvenationPolicy] = None
    #: Resource channels the controller watches (``"heap"``, ``"threads"``,
    #: ``"connections"``); ``None`` keeps the heap-only default.  Channels
    #: beyond the heap automatically install the extended monitoring agents
    #: their series come from.
    rejuvenation_channels: Optional[List[str]] = None
    #: Cross-run calibration store (see :mod:`repro.slo.calibration`).  When
    #: set and ``rejuvenation`` is an adaptive policy, the policy is
    #: warm-started from the store's record for this run's workload
    #: signature before the run, and its converged horizons + per-run error
    #: statistics are folded back (and saved) after the run.  Ignored for
    #: non-adaptive policies — fixed policies have nothing to calibrate.
    calibration_store: Optional[CalibrationStore] = None
    #: Explicit workload-signature override; ``None`` derives it from this
    #: config's *workload knobs alone* via
    #: :func:`repro.slo.calibration.workload_signature` — deliberately
    #: excluding ``name``, which is usually stamped per run ("…-run0",
    #: "…-run1") and would silently turn every lookup into a cold miss.
    #: Pass an explicit signature to namespace otherwise-identical
    #: workloads apart.
    calibration_signature: Optional[str] = None
    #: Client/server resilience bundle (timeouts + retries client-side,
    #: circuit breakers, load shedding); ``None`` keeps the legacy
    #: fire-and-move-on client and an unprotected server, bit-identical to
    #: older seeded runs.
    resilience: Optional[ResilienceConfig] = None
    #: Record per-component response-time series on the server (needed by
    #: the latency-trend / cascade-aware strategies).  Off by default to
    #: keep the request hot path unchanged.
    track_component_latency: bool = False
    #: Application-server instances behind the load balancer.  ``1`` (the
    #: default) is the classic single-server run — same path, bit-identical
    #: outputs per seed.
    shards: int = 1
    #: Load-balancer policy: ``"sticky"`` (by session id, the default),
    #: ``"round-robin"`` or ``"least-occupancy"``; all of them avoid shards
    #: inside rejuvenation outage windows.
    balancer_policy: str = "sticky"
    #: ``"replica"`` gives every shard its own populated database;
    #: ``"shared"`` mounts shard 0's database on every shard (one primary).
    shard_db_mode: str = "replica"
    #: Fleet-level coordination of the per-shard rejuvenation controllers:
    #: ``"rolling"`` recycles at most one shard at a time, ``"simultaneous"``
    #: lets every shard act the moment its policy fires, ``None`` keeps the
    #: controllers fully independent (and, with one shard, the legacy
    #: alert-triggered behaviour).  Requires ``shards >= 2`` and a
    #: ``rejuvenation`` policy to use as the per-shard template.
    fleet_rejuvenation: Optional[str] = None
    #: Mid-run rollout of a :class:`~repro.experiments.deploy.ComponentVersion`
    #: across the fleet over a :class:`~repro.experiments.deploy.RolloutPlan`
    #: stage ladder (staged, canary or blind); ``None`` deploys nothing.  A
    #: ladder with a ruled stage requires ``monitored`` — the analyzer reads
    #: the per-shard manager series.
    rollout: Optional[RolloutPlan] = None
    #: Aging-alert threshold (bytes of per-component consumption) handed to
    #: every shard's :class:`~repro.core.framework.FrameworkConfig`;
    #: ``None`` keeps the framework default.  Staged rollouts lower it so
    #: the aging-suspect notification can trigger an analyzer ruling
    #: mid-bake (alert-driven rollback).
    alert_growth_bytes: Optional[float] = None
    #: Live observability registry to attach to this run (see
    #: :mod:`repro.obs`).  Strictly an observer: attaching one never changes
    #: the run's outputs.
    metrics_registry: Optional[MetricsRegistry] = None
    #: Stream canonical JSONL snapshots to this path during the run (one
    #: record per ``snapshot_interval`` plus a final end-of-run record).
    #: Auto-creates a registry when ``metrics_registry`` is unset.
    stream_metrics: Optional[str] = None
    #: ``"discrete"`` simulates every browser event-by-event (the classic
    #: path, bit-identical per seed to older runs); ``"hybrid"`` evolves the
    #: bulk of the population as a vectorised fluid process
    #: (:mod:`repro.sim.fluid`) while a ``tracer_fraction`` slice keeps
    #: flowing through the real servlet/SQL/monitoring path.  The fluid
    #: ticks every ``max(1 s, snapshot_interval / 2)``.
    simulation_mode: str = "discrete"
    #: Fraction of each phase's browsers simulated discretely as tracers in
    #: hybrid mode (at least one per non-empty phase).
    tracer_fraction: float = 0.05

    def effective_phases(self) -> List[WorkloadPhase]:
        """The phase list, defaulting to one constant-EB phase."""
        if self.phases:
            return list(self.phases)
        return [WorkloadPhase(start_time=0.0, eb_count=self.constant_ebs)]


@dataclass
class ExperimentResult:
    """Collected outputs of one experiment run."""

    config: ExperimentConfig
    duration: float
    completed_requests: int
    error_count: int
    rejected_requests: int
    throughput: TimeSeries
    response_times: TimeSeries
    interaction_counts: Dict[str, int]
    component_series: Dict[str, TimeSeries]
    heap_series: TimeSeries
    resource_map_rows: List[Dict[str, object]]
    root_cause: Optional[RootCauseReport]
    overhead_seconds: float
    monitoring_samples: int
    fault_descriptions: List[str]
    utilization: Dict[str, float]
    mean_response_time: float
    pinpoint: Optional[PinpointAnalyzer] = None
    blackbox: Optional[BlackBoxMonitor] = None
    #: Summary of the live rejuvenation controller's activity, when enabled.
    rejuvenation: Optional[RejuvenationReport] = None
    #: End-to-end request ledger (issued / completions / errors / refusals /
    #: in-flight plus the retry counters) — validated by
    #: ``WorkloadGenerator.check_accounting`` before the result is built.
    accounting: Dict[str, int] = field(default_factory=dict)
    refused_requests: int = 0
    issued_requests: int = 0
    retry_attempts: int = 0
    client_timeouts: int = 0
    #: Per-component response-time series (only populated when
    #: ``track_component_latency`` or ``resilience`` is configured).
    component_latency: Dict[str, TimeSeries] = field(default_factory=dict)
    #: Fleet-specific outputs (balancer stats, per-shard counters, the
    #: cross-shard aging rows, fleet rejuvenation report); ``None`` on
    #: single-shard runs.
    fleet: Optional[FleetReport] = None
    #: Rollout summary when the run deployed a component version
    #: (``deployment`` was already taken by the TPC-W handle below).
    rollout: Optional[RolloutReport] = None
    #: The observability registry that watched this run, when one was
    #: attached — still readable post-run (its snapshot reflects the end
    #: state).
    metrics: Optional[MetricsRegistry] = None
    #: Fluid-side summary of a hybrid run (``None`` on discrete runs).
    fluid: Optional[FluidReport] = None
    #: Discrete events the engine executed during the run — the hybrid
    #: mode's cost metric (hybrid wins by executing fewer of these).
    executed_events: int = 0
    #: Live handles for follow-up analysis (kept out of reports).
    #: ``deployment`` / ``framework`` are shard 0's, matching the legacy
    #: single-server fields; the full fleet hangs off ``cluster``.
    deployment: Optional[TpcwDeployment] = None
    framework: Optional[MonitoringFramework] = None
    cluster: Optional[SimulatedCluster] = None

    def mean_throughput(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Mean of the throughput series restricted to ``[start, end]``."""
        import numpy as np

        if len(self.throughput) == 0:
            return 0.0
        times = self.throughput.times
        values = self.throughput.values
        mask = np.ones(len(values), dtype=bool)
        if start is not None:
            mask &= times >= start
        if end is not None:
            mask &= times <= end
        if not mask.any():
            return 0.0
        return float(values[mask].mean())

    def final_component_sizes(self) -> Dict[str, float]:
        """Last observed object size of each component (bytes)."""
        out: Dict[str, float] = {}
        for component, series in self.component_series.items():
            if len(series) > 0:
                out[component] = float(series.values[-1])
        return out

    def component_growth(self) -> Dict[str, float]:
        """Object-size growth (last - first) of each component (bytes)."""
        out: Dict[str, float] = {}
        for component, series in self.component_series.items():
            if len(series) >= 2:
                out[component] = float(series.values[-1] - series.values[0])
            else:
                out[component] = 0.0
        return out


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment as described by ``config``."""
    if config.simulation_mode not in ("discrete", "hybrid"):
        raise ValueError(
            f"unknown simulation_mode {config.simulation_mode!r} "
            "(expected 'discrete' or 'hybrid')"
        )
    if config.fleet_rejuvenation is not None:
        if config.shards < 2:
            raise ValueError(
                "fleet rejuvenation coordinates multiple shards; use the plain "
                "`rejuvenation` field for a single-server run"
            )
        if config.rejuvenation is None:
            raise ValueError(
                "fleet rejuvenation needs a `rejuvenation` policy to use as the "
                "per-shard template"
            )
    engine = SimulationEngine()
    cluster = build_cluster(config, engine)
    primary = cluster.primary.deployment

    # Thread/connection rejuvenation channels read series the extended
    # monitoring agents produce, so they imply installing those agents.
    needs_extended = config.monitor_extended_resources or bool(
        config.rejuvenation_channels
        and set(config.rejuvenation_channels) - {"heap"}
    )

    # Each stage installs across the whole fleet before the next begins, so
    # a one-shard run schedules exactly the legacy event sequence.
    if config.monitored:
        for shard in cluster.shards:
            framework_kwargs = dict(
                sample_cost_seconds=config.sample_cost_seconds,
                monitor_cpu=config.monitor_extended_resources,
                monitor_threads=needs_extended,
                monitor_connections=needs_extended,
                snapshot_interval=config.snapshot_interval,
            )
            if config.alert_growth_bytes is not None:
                framework_kwargs["alert_growth_bytes"] = config.alert_growth_bytes
            framework_config = FrameworkConfig(**framework_kwargs)
            framework = MonitoringFramework(
                shard.deployment,
                engine=engine,
                config=framework_config,
                strategy=config.strategy,
            )
            framework.install()
            framework.schedule_snapshots(
                duration=config.duration, interval=config.snapshot_interval
            )
            if config.monitored_components is not None:
                keep = set(config.monitored_components)
                for component in shard.deployment.interaction_names():
                    if component not in keep:
                        framework.disable_component(component)
            shard.framework = framework

    for shard in cluster.shards:
        injector = FaultInjector(shard.deployment)
        injector.inject_plan(config.faults)
        shard.injector = injector

    if config.collect_blackbox_samples:
        for shard in cluster.shards:
            blackbox = BlackBoxMonitor(shard.deployment.runtime, shard.deployment.datasource)
            interval = config.snapshot_interval
            t = interval
            while t <= config.duration + 1e-9:
                engine.schedule_at(
                    t,
                    lambda when=t, monitor=blackbox: monitor.sample(when),
                    priority=6,
                    name="blackbox.sample",
                )
                t += interval
            shard.blackbox = blackbox

    fleet_controller: Optional[FleetRejuvenationController] = None
    calibration_signature: Optional[str] = None
    if config.rejuvenation is not None:
        if not config.monitored:
            raise ValueError(
                "live rejuvenation requires monitored=True (the controller reads "
                "the manager's heap series and root-cause report)"
            )
        if config.calibration_store is not None and isinstance(
            config.rejuvenation, AdaptiveRejuvenationPolicy
        ):
            calibration_signature = (
                config.calibration_signature
                if config.calibration_signature is not None
                # Derived signatures describe the workload alone: the config
                # name is typically stamped per run and must not shatter the
                # calibration across a run sequence (see the field comment).
                else workload_signature(config, scenario="(workload)")
            )
            record = config.calibration_store.lookup(calibration_signature)
        else:
            record = None
        for shard in cluster.shards:
            # Shard 0 runs the caller's policy instance (scenarios read its
            # converged state afterwards); the other shards get independent
            # copies so per-shard trends never share predictor state.  All
            # shards of one workload signature warm-start from the same
            # calibration record.
            policy = (
                config.rejuvenation
                if shard.index == 0
                else copy.deepcopy(config.rejuvenation)
            )
            if record is not None:
                policy.apply_warm_start(record)
            channels = (
                build_channels(config.rejuvenation_channels)
                if config.rejuvenation_channels is not None
                else None
            )
            shard.controller = RejuvenationController(
                shard.deployment,
                shard.framework.manager,
                engine,
                policy,
                channels=channels,
            )
        if config.fleet_rejuvenation is None:
            for shard in cluster.shards:
                shard.controller.schedule_checks(
                    duration=config.duration, interval=config.snapshot_interval
                )
                shard.controller.install_alert_trigger()
        else:
            fleet_controller = FleetRejuvenationController(
                cluster,
                [shard.controller for shard in cluster.shards],
                engine,
                mode=config.fleet_rejuvenation,
            )
            fleet_controller.schedule_checks(
                duration=config.duration, interval=config.snapshot_interval
            )

    # Observability plane: the registry is created before the deployment
    # controller so rollout events can publish into it; it attaches its
    # read-only listeners once the workload generator exists (below).
    registry = config.metrics_registry
    if registry is None and config.stream_metrics is not None:
        registry = MetricsRegistry()

    deploy_controller: Optional[RolloutController] = None
    if config.rollout is not None:
        deploy_controller = RolloutController(
            cluster, engine, config.rollout, registry=registry
        )
        if len(deploy_controller.ladder) > 1 and not config.monitored:
            raise ValueError(
                "a rollout with a ruled stage requires monitored=True (the "
                "analyzer reads the per-shard manager series)"
            )
        deploy_controller.schedule(config.duration)

    track_latency = config.track_component_latency or config.resilience is not None
    for shard in cluster.shards:
        if track_latency:
            shard.deployment.server.record_component_latency = True
        if config.resilience is not None:
            shedder = config.resilience.build_shedder(
                config.resilience.priorities or PAGE_PRIORITIES
            )
            if shedder is not None:
                shard.deployment.server.install_load_shedder(shedder)

    pinpoint: Optional[PinpointAnalyzer] = None
    generator = WorkloadGenerator(
        engine,
        cluster,
        mix=mix_by_name(config.mix_name),
        think_time_mean=config.think_time_mean,
        resilience=config.resilience,
    )
    if config.collect_pinpoint_traces:
        pinpoint = PinpointAnalyzer()

        def _trace(interaction, outcome, analyzer=pinpoint):
            analyzer.record_request([interaction], failed=not outcome.ok)

        generator.on_request = _trace

    metrics_stream: Optional[JsonlMetricsStream] = None
    if registry is not None:
        registry.attach_run(
            cluster=cluster,
            generator=generator,
            config=config,
            rollout=deploy_controller,
        )
        if config.stream_metrics is not None:
            metrics_stream = JsonlMetricsStream(registry, config.stream_metrics)
            metrics_stream.schedule(
                engine, config.duration, interval=config.snapshot_interval
            )

    fluid: Optional[FluidProcess] = None
    if config.simulation_mode == "hybrid":
        # Split the phase schedule: tracers stay discrete, the remainder
        # becomes the fluid bulk population.  The fluid process reads the
        # tracers' response times and feeds completions / occupancy / DB
        # concurrency / manager series back, so the rest of the harness
        # runs unchanged.
        tracer_phases, bulk_phases = split_phases(
            config.effective_phases(), config.tracer_fraction
        )
        # Half the snapshot interval (floored at one second), so every
        # monitoring snapshot sees a fresh bulk contribution.
        fluid = FluidProcess(
            engine,
            cluster,
            generator,
            bulk_phases,
            tracer_fraction=config.tracer_fraction,
            update_interval=max(1.0, config.snapshot_interval / 2.0),
        )
        fluid.schedule_updates(config.duration)
        generator.schedule_phases(tracer_phases)
    else:
        generator.schedule_phases(config.effective_phases())
    generator.run(config.duration)
    # Every issued attempt must land in exactly one ledger bucket; a
    # violation means a refusal or retry was silently dropped somewhere.
    accounting = generator.check_accounting()
    # And every issued attempt must have been served by exactly one shard —
    # re-routed requests included.
    fleet_ledger = cluster.ledger_check(generator)

    if metrics_stream is not None:
        # The final record is written after the ledger checks passed, so the
        # stream's last line always equals the post-hoc report's counters.
        metrics_stream.emit(at=config.duration)
        metrics_stream.close()

    if calibration_signature is not None:
        # The run is over: persist each shard policy's converged horizons
        # and its per-run error statistics under the shared workload
        # signature, so the next run (any shard of it) opens warm.
        for shard in cluster.shards:
            config.calibration_store.record_run(
                calibration_signature, shard.controller.policy
            )
        config.calibration_store.save()

    # ------------------------------------------------------------------ #
    # Collect results (top-level series are shard 0's, the legacy fields;
    # the fleet report carries the per-shard picture)
    # ------------------------------------------------------------------ #
    framework = cluster.primary.framework
    blackbox = cluster.primary.blackbox
    controller = cluster.primary.controller
    component_series: Dict[str, TimeSeries] = {}
    heap_series = TimeSeries("heap_used")
    resource_map_rows: List[Dict[str, object]] = []
    root_cause: Optional[RootCauseReport] = None
    overhead_seconds = 0.0
    monitoring_samples = 0
    if framework is not None:
        for component in primary.interaction_names():
            component_series[component] = framework.component_series(component)
        heap_series = framework.manager.map.series("<jvm>", "heap_used")
        resource_map_rows = framework.resource_map_rows()
        root_cause = framework.root_cause()
        overhead_seconds = framework.overhead.total_seconds
        monitoring_samples = framework.overhead.sample_count
    elif blackbox is not None:
        heap_series = blackbox.series["heap_used"]

    fleet: Optional[FleetReport] = None
    if config.shards > 1:
        fleet = FleetReport(
            shards=config.shards,
            balancer=cluster.balancer.stats(),
            per_shard=list(fleet_ledger["per_shard"]),
            root_cause_rows=FleetManager(cluster).rows(),
            ledger={"issued": fleet_ledger["issued"], "served": fleet_ledger["served"]},
            rejuvenation=(
                fleet_controller.report() if fleet_controller is not None else None
            ),
        )

    return ExperimentResult(
        config=config,
        duration=config.duration,
        completed_requests=generator.completed_requests,
        error_count=generator.error_count,
        rejected_requests=cluster.server.rejected_requests,
        throughput=generator.throughput_series(),
        response_times=generator.response_times,
        interaction_counts=dict(generator.interaction_counts),
        component_series=component_series,
        heap_series=heap_series,
        resource_map_rows=resource_map_rows,
        root_cause=root_cause,
        overhead_seconds=overhead_seconds,
        monitoring_samples=monitoring_samples,
        fault_descriptions=cluster.primary.injector.describe(),
        utilization=primary.server.utilization_report(config.duration),
        mean_response_time=generator.mean_response_time(),
        pinpoint=pinpoint,
        blackbox=blackbox,
        rejuvenation=controller.report() if controller is not None else None,
        accounting=accounting,
        refused_requests=generator.refused_requests,
        issued_requests=generator.issued_requests,
        retry_attempts=generator.retry_attempts,
        client_timeouts=generator.client_timeouts,
        component_latency=(
            primary.server.component_latency_series() if track_latency else {}
        ),
        fleet=fleet,
        fluid=fluid.report if fluid is not None else None,
        executed_events=engine.executed_events,
        rollout=deploy_controller.report() if deploy_controller is not None else None,
        metrics=registry,
        deployment=primary,
        framework=framework,
        cluster=cluster,
    )
