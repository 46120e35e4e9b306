"""Generic experiment runner.

:func:`run_experiment` is a function from an :class:`ExperimentConfig` to an
:class:`ExperimentResult`.  It validates the config before building anything
(:meth:`ExperimentConfig.validate`), builds a fresh cluster (a single shard by
default), installs one subsystem at a time across the whole fleet, drives the
phased EB workload through the load balancer, checks both request ledgers
and packages every series the figures plot.  The subsystems install in a
fixed order — monitoring (Fig. 3 compares a monitored and an unmonitored run
of the same workload), faults, black-box sampling, rejuvenation, rollout,
resilience, observability, fluid bulk — so a one-shard run schedules exactly
the legacy event sequence.

The config is never mutated: every shard runs its own copy of the
rejuvenation policy, and shard 0's post-run copy comes back on the result.
The result keeps one live handle, ``cluster`` (``framework`` and
``deployment`` are views of its shard 0); everything a report reads is plain
data, so a result with ``cluster=None`` — what a pool worker returns — reports
exactly like the serial one.

The single-server path *is* the general path: a ``shards=1`` run routes
through a one-shard cluster whose balancer draws no randomness, so its
outputs are bit-identical per seed to the pre-cluster harness.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.blackbox import BlackBoxMonitor, BlackBoxReport
from repro.baselines.pinpoint import PinpointAnalyzer
from repro.baselines.rejuvenation import RejuvenationPolicy
from repro.container.resilience import ResilienceConfig
from repro.container.server import ServerConfig
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.rejuvenation import (
    CHANNEL_FACTORIES,
    RejuvenationController,
    RejuvenationReport,
    build_channels,
)
from repro.core.resource_map import ResourceComponentMap
from repro.core.rootcause import RootCauseReport, RootCauseStrategy
from repro.experiments.cluster import (
    BALANCER_POLICIES,
    FLEET_REJUVENATION_MODES,
    FleetRejuvenationController,
    FleetReport,
    SimulatedCluster,
    build_cluster,
    fleet_aging_rows,
)
from repro.experiments.deploy import RolloutController, RolloutPlan, RolloutReport
from repro.faults.correlated_cascade import CorrelatedCascadeFault
from repro.faults.injector import FaultInjector, FaultSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.transports import JsonlMetricsStream
from repro.sim.engine import SimulationEngine
from repro.sim.fluid import AMPLIFIED_FAULT_KINDS, FluidProcess, FluidReport, split_phases
from repro.sim.metrics import TimeSeries
from repro.slo.adaptive_policy import AdaptiveRejuvenationPolicy
from repro.slo.calibration import CalibrationStore, workload_signature
from repro.tpcw.application import TpcwDeployment
from repro.tpcw.mixes import INTERACTIONS, MIXES, PAGE_PRIORITIES, mix_by_name
from repro.tpcw.population import PopulationScale
from repro.tpcw.workload import WorkloadGenerator, WorkloadPhase

#: Values of :attr:`ExperimentConfig.simulation_mode`.
SIMULATION_MODES = ("discrete", "hybrid")


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
    #: fresh samples; ``None`` disables the controller entirely.  A template:
    #: every shard runs its own copy, and shard 0's post-run copy is
    #: :attr:`ExperimentResult.policy`.
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
    #: Runs sharing a store must run in order, in one process.
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
    #: the run's outputs.  It observes one run, in the caller's process.
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

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first reason this config cannot run.

        The union of every subsystem's config checks: the parts only a run
        builds (cluster, balancer, controllers, rollout, fluid process) do
        not repeat them.  The workload generator, the monitoring framework
        and the metrics stream also run without a config, so they keep
        their own argument checks.  It builds nothing (no population, no
        engine), so a bad config fails before any run starts.
        """
        self.effective_phases()  # a negative EB count fails in WorkloadPhase
        for name, allowed in (
            ("balancer_policy", BALANCER_POLICIES),
            ("simulation_mode", SIMULATION_MODES),
            ("fleet_rejuvenation", (None,) + FLEET_REJUVENATION_MODES),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"unknown {name} {value!r} (expected one of {allowed})"
                )
        for name in ("duration", "snapshot_interval", "think_time_mean"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too: a NaN end never stops the loop
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.sample_cost_seconds < math.inf:  # a NaN cost dies mid-run
            raise ValueError(
                f"sample_cost_seconds must be non-negative and finite, "
                f"got {self.sample_cost_seconds}"
            )
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.mix_name.lower() not in MIXES:
            raise ValueError(
                f"unknown mix_name {self.mix_name!r} (expected one of {sorted(MIXES)})"
            )
        if self.simulation_mode == "hybrid" and not 0.0 < self.tracer_fraction <= 1.0:
            raise ValueError(
                f"tracer_fraction must be in (0, 1], got {self.tracer_fraction}"
            )
        unknown = sorted(set(self.monitored_components or ()) - set(INTERACTIONS))
        if unknown:
            raise ValueError(
                f"monitored_components names unknown components {unknown} "
                f"(known components: {INTERACTIONS})"
            )
        version_faults = self.rollout.version.faults if self.rollout is not None else ()
        for spec in [*self.faults, *version_faults]:
            if spec.component not in INTERACTIONS:
                raise ValueError(
                    f"{spec.kind!r} fault targets unknown component {spec.component!r} "
                    f"(known components: {INTERACTIONS})"
                )
            try:
                fault = spec.build()
            except KeyError as error:  # an unknown kind; the message names the known ones
                raise ValueError(error.args[0]) from None
            except (TypeError, ValueError) as error:
                raise ValueError(
                    f"bad {spec.kind!r} fault on {spec.component!r}: {error}"
                ) from None
            if isinstance(fault, CorrelatedCascadeFault) and (
                fault.victim not in INTERACTIONS or fault.victim == spec.component
            ):
                raise ValueError(
                    f"{spec.kind!r} fault on {spec.component!r} needs another known "
                    f"component as its victim, got {fault.victim!r}"
                )
        if self.simulation_mode == "hybrid":
            if version_faults:
                raise ValueError(
                    "hybrid mode cannot run a rollout version's faults: the deploy "
                    "attaches them to the servlet, so the fluid bulk never amplifies them"
                )
            for spec in self.faults:
                if spec.kind not in AMPLIFIED_FAULT_KINDS:
                    raise ValueError(
                        f"hybrid mode cannot run a {spec.kind!r} fault: the fluid bulk "
                        f"amplifies only {', '.join(AMPLIFIED_FAULT_KINDS)} faults, so it "
                        f"would act on the tracers alone"
                    )
        if self.rejuvenation is not None and not self.monitored:
            raise ValueError(
                "live rejuvenation requires monitored=True (the controller reads "
                "the manager's heap series and root-cause report)"
            )
        channels = self.rejuvenation_channels
        if channels is not None and not (
            channels and set(channels) <= set(CHANNEL_FACTORIES)
        ):
            raise ValueError(
                f"rejuvenation_channels must name some of {sorted(CHANNEL_FACTORIES)}, "
                f"got {channels}"
            )
        if self.fleet_rejuvenation is not None and (
            self.shards < 2 or self.rejuvenation is None
        ):
            raise ValueError(
                "fleet rejuvenation coordinates the `rejuvenation` policy across 2 "
                "or more shards; use the plain `rejuvenation` field for a "
                "single-server run"
            )
        if self.rollout is not None:
            # ``ladder`` checks the plan's stage sizes against the shard count.
            if len(self.rollout.ladder(self.shards)) > 1 and not self.monitored:
                raise ValueError(
                    "a rollout with a ruled stage requires monitored=True (the "
                    "analyzer reads the per-shard manager series)"
                )
            if self.rollout.start_time >= self.duration:
                raise ValueError(
                    f"rollout starts at {self.rollout.start_time} but the run ends at "
                    f"{self.duration}"
                )


@dataclass
class ExperimentResult:
    """Collected outputs of one experiment run.

    Plain data except :attr:`cluster`, the one live handle (``None`` on a
    result returned by a pool worker).  The top-level series and reports
    are shard 0's, the legacy single-server fields; the ``shard_*`` lists
    and :attr:`fleet` carry the per-shard picture.
    """

    config: ExperimentConfig
    duration: float
    completed_requests: int
    error_count: int
    rejected_requests: int
    throughput: TimeSeries
    response_times: TimeSeries
    interaction_counts: Dict[str, int]
    heap_series: TimeSeries
    fault_descriptions: List[str]
    utilization: Dict[str, float]
    mean_response_time: float
    #: End-to-end request ledger (issued / completions / errors / refusals /
    #: in-flight plus the retry counters) — validated by
    #: ``WorkloadGenerator.check_accounting`` before the result is built.
    accounting: Dict[str, int]
    #: Shard 0's monitoring outputs (empty / ``None`` / zero when unmonitored).
    component_series: Dict[str, TimeSeries] = field(default_factory=dict)
    resource_map_rows: List[Dict[str, object]] = field(default_factory=list)
    root_cause: Optional[RootCauseReport] = None
    overhead_seconds: float = 0.0
    monitoring_samples: int = 0
    #: Shard 0's manager map, for post-hoc analyses (strategy comparisons,
    #: cascade-aware attribution, the rejuvenation channels' series).
    resource_map: Optional[ResourceComponentMap] = None
    pinpoint: Optional[PinpointAnalyzer] = None
    #: Shard 0's black-box host analysis, when black-box sampling ran.
    blackbox: Optional[BlackBoxReport] = None
    #: Summary of shard 0's live rejuvenation controller, when enabled.
    rejuvenation: Optional[RejuvenationReport] = None
    #: Shard 0's rejuvenation policy after the run (its own copy of
    #: ``config.rejuvenation``: converged horizons, predictor statistics).
    policy: Optional[RejuvenationPolicy] = None
    #: Every shard's monitored heap series, in shard order (the black-box
    #: series when unmonitored, empty with neither).
    shard_heap_series: List[TimeSeries] = field(default_factory=list)
    #: Every shard's rejuvenation report, in shard order (empty without a
    #: rejuvenation policy).
    shard_rejuvenation: List[RejuvenationReport] = field(default_factory=list)
    refused_requests: int = 0
    issued_requests: int = 0
    retry_attempts: int = 0
    client_timeouts: int = 0
    #: Shard 0's per-component response-time series (only recorded when
    #: ``track_component_latency`` or ``resilience`` is configured).
    component_latency: Dict[str, TimeSeries] = field(default_factory=dict)
    #: Fleet-specific outputs (balancer stats, per-shard counters, the
    #: cross-shard aging rows, fleet rejuvenation report); ``None`` on
    #: single-shard runs.
    fleet: Optional[FleetReport] = None
    #: Rollout summary when the run deployed a component version.
    rollout: Optional[RolloutReport] = None
    #: Fluid-side summary of a hybrid run (``None`` on discrete runs).
    fluid: Optional[FluidReport] = None
    #: Discrete events the engine executed during the run — the hybrid
    #: mode's cost metric (hybrid wins by executing fewer of these).
    executed_events: int = 0
    #: The live fleet, for follow-up analysis (kept out of reports).
    cluster: Optional[SimulatedCluster] = None

    @property
    def framework(self) -> Optional[MonitoringFramework]:
        """Shard 0's live monitoring framework (``None`` when unmonitored or
        detached)."""
        return self.cluster.primary.framework if self.cluster is not None else None

    @property
    def deployment(self) -> Optional[TpcwDeployment]:
        """Shard 0's live TPC-W deployment (``None`` when detached)."""
        return self.cluster.primary.deployment if self.cluster is not None else None

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


# --------------------------------------------------------------------------- #
# Subsystems, installed across the whole fleet in run_experiment's order
# --------------------------------------------------------------------------- #
def _install_monitoring(
    config: ExperimentConfig, cluster: SimulatedCluster, engine: SimulationEngine
) -> None:
    """Weave the monitoring framework into every shard and schedule its
    snapshots; components outside ``monitored_components`` start disabled."""
    if not config.monitored:
        return
    # Thread/connection rejuvenation channels read series the extended
    # monitoring agents produce, so they imply installing those agents.
    extended = config.monitor_extended_resources or bool(
        set(config.rejuvenation_channels or ()) - {"heap"}
    )
    settings = dict(
        sample_cost_seconds=config.sample_cost_seconds,
        monitor_cpu=config.monitor_extended_resources,
        monitor_threads=extended,
        monitor_connections=extended,
        snapshot_interval=config.snapshot_interval,
    )
    if config.alert_growth_bytes is not None:
        settings["alert_growth_bytes"] = config.alert_growth_bytes
    for shard in cluster.shards:
        framework = MonitoringFramework(
            shard.deployment,
            engine=engine,
            config=FrameworkConfig(**settings),
            strategy=config.strategy,
        )
        framework.install()
        framework.schedule_snapshots(
            duration=config.duration, interval=config.snapshot_interval
        )
        if config.monitored_components is not None:
            for component in shard.deployment.interaction_names():
                if component not in config.monitored_components:
                    framework.disable_component(component)
        shard.framework = framework


def _install_faults(config: ExperimentConfig, cluster: SimulatedCluster) -> None:
    """Inject the fault plan into every shard."""
    for shard in cluster.shards:
        shard.injector = FaultInjector(shard.deployment)
        shard.injector.inject_plan(config.faults)


def _install_blackbox(
    config: ExperimentConfig, cluster: SimulatedCluster, engine: SimulationEngine
) -> None:
    """Sample a black-box host monitor on every shard each snapshot interval."""
    if not config.collect_blackbox_samples:
        return
    for shard in cluster.shards:
        shard.blackbox = BlackBoxMonitor(
            shard.deployment.runtime, shard.deployment.datasource
        )
        t = config.snapshot_interval
        while t <= config.duration + 1e-9:
            engine.schedule_at(
                t,
                lambda when=t, monitor=shard.blackbox: monitor.sample(when),
                priority=6,
                name="blackbox.sample",
            )
            t += config.snapshot_interval


def _calibration_signature(config: ExperimentConfig) -> Optional[str]:
    """The signature a calibrated run warm-starts from and saves under
    (``None`` unless an adaptive policy runs against a store)."""
    if config.calibration_store is None or not isinstance(
        config.rejuvenation, AdaptiveRejuvenationPolicy
    ):
        return None
    if config.calibration_signature is not None:
        return config.calibration_signature
    # Derived signatures describe the workload alone: the config name is
    # typically stamped per run and must not shatter the calibration across
    # a run sequence (see the field comment).
    return workload_signature(config, scenario="(workload)")


def _install_rejuvenation(
    config: ExperimentConfig, cluster: SimulatedCluster, engine: SimulationEngine
) -> Optional[FleetRejuvenationController]:
    """Give every shard a controller running its own copy of the policy,
    checked per shard or by the fleet controller this returns."""
    if config.rejuvenation is None:
        return None
    signature = _calibration_signature(config)
    # Every shard of one workload signature warm-starts from the same record.
    record = (
        config.calibration_store.lookup(signature) if signature is not None else None
    )
    channels = config.rejuvenation_channels
    for shard in cluster.shards:
        policy = copy.deepcopy(config.rejuvenation)
        if record is not None:
            policy.apply_warm_start(record)
        shard.controller = RejuvenationController(
            shard.deployment,
            shard.framework.manager,
            engine,
            policy,
            channels=build_channels(channels) if channels is not None else None,
        )
    if config.fleet_rejuvenation is not None:
        fleet = FleetRejuvenationController(
            cluster,
            [shard.controller for shard in cluster.shards],
            engine,
            mode=config.fleet_rejuvenation,
        )
        fleet.schedule_checks(
            duration=config.duration, interval=config.snapshot_interval
        )
        return fleet
    for shard in cluster.shards:
        shard.controller.schedule_checks(
            duration=config.duration, interval=config.snapshot_interval
        )
        shard.controller.install_alert_trigger()
    return None


def _install_rollout(
    config: ExperimentConfig,
    cluster: SimulatedCluster,
    engine: SimulationEngine,
    registry: Optional[MetricsRegistry],
) -> Optional[RolloutController]:
    """Schedule the rollout plan, publishing its events to ``registry``."""
    if config.rollout is None:
        return None
    controller = RolloutController(cluster, engine, config.rollout, registry=registry)
    controller.schedule(config.duration)
    return controller


def _install_resilience(config: ExperimentConfig, cluster: SimulatedCluster) -> None:
    """Record per-component latency and install the load shedder, per shard."""
    resilience = config.resilience
    for shard in cluster.shards:
        if config.track_component_latency or resilience is not None:
            shard.deployment.server.record_component_latency = True
        if resilience is not None:
            shedder = resilience.build_shedder(resilience.priorities or PAGE_PRIORITIES)
            if shedder is not None:
                shard.deployment.server.install_load_shedder(shedder)


def _install_obs(
    config: ExperimentConfig,
    cluster: SimulatedCluster,
    engine: SimulationEngine,
    generator: WorkloadGenerator,
    registry: Optional[MetricsRegistry],
    rollout: Optional[RolloutController],
) -> Optional[JsonlMetricsStream]:
    """Attach the registry's read-only listeners and schedule the JSONL
    stream, when configured."""
    if registry is None:
        return None
    registry.attach_run(
        cluster=cluster,
        generator=generator,
        config=config,
        rollout=rollout,
    )
    if config.stream_metrics is None:
        return None
    stream = JsonlMetricsStream(registry, config.stream_metrics)
    stream.schedule(engine, config.duration, interval=config.snapshot_interval)
    return stream


def _install_fluid(
    config: ExperimentConfig,
    cluster: SimulatedCluster,
    engine: SimulationEngine,
    generator: WorkloadGenerator,
) -> Optional[FluidProcess]:
    """Schedule the workload: every browser discrete, or (hybrid) a tracer
    slice discrete and the bulk as a fluid process."""
    if config.simulation_mode != "hybrid":
        generator.schedule_phases(config.effective_phases())
        return None
    # The fluid process reads the tracers' response times and feeds
    # completions / occupancy / DB concurrency / manager series back, so the
    # rest of the harness runs unchanged.  It updates every half snapshot
    # interval (floored at one second), so every monitoring snapshot sees a
    # fresh bulk contribution.
    tracer_phases, bulk_phases = split_phases(
        config.effective_phases(), config.tracer_fraction
    )
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
    return fluid


def _monitoring_outputs(cluster: SimulatedCluster) -> Dict[str, object]:
    """Shard 0's monitoring fields of the result (none when unmonitored)."""
    framework = cluster.primary.framework
    if framework is None:
        return {}
    resource_map = framework.manager.map
    return dict(
        component_series={
            component: resource_map.series(component, "object_size")
            for component in cluster.interaction_names()
        },
        resource_map_rows=framework.resource_map_rows(),
        root_cause=framework.root_cause(),
        overhead_seconds=framework.overhead.total_seconds,
        monitoring_samples=framework.overhead.sample_count,
        resource_map=resource_map,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment as described by ``config`` (which it never mutates)."""
    config.validate()
    engine = SimulationEngine()
    cluster = build_cluster(config, engine)
    # Each subsystem installs across the whole fleet before the next one
    # begins, so a one-shard run schedules exactly the legacy event sequence.
    _install_monitoring(config, cluster, engine)
    _install_faults(config, cluster)
    _install_blackbox(config, cluster, engine)
    fleet_controller = _install_rejuvenation(config, cluster, engine)
    # The registry exists before the rollout controller so rollout events
    # can publish into it; it attaches to the run once the generator exists.
    registry = config.metrics_registry
    if registry is None and config.stream_metrics is not None:
        registry = MetricsRegistry()
    rollout = _install_rollout(config, cluster, engine, registry)
    _install_resilience(config, cluster)
    generator = WorkloadGenerator(
        engine,
        cluster,
        mix=mix_by_name(config.mix_name),
        think_time_mean=config.think_time_mean,
        resilience=config.resilience,
    )
    pinpoint = PinpointAnalyzer() if config.collect_pinpoint_traces else None
    if pinpoint is not None:
        generator.on_request = lambda interaction, outcome: pinpoint.record_request(
            [interaction], failed=not outcome.ok
        )
    stream = _install_obs(config, cluster, engine, generator, registry, rollout)
    fluid = _install_fluid(config, cluster, engine, generator)
    generator.run(config.duration)
    # Every issued attempt must land in exactly one ledger bucket, and every
    # attempt that reached a server must have been served by exactly one
    # shard (re-routed requests included); a violation raises.
    accounting = generator.check_accounting()
    fleet_ledger = cluster.ledger_check(generator)
    if stream is not None:
        # The final record is written after the ledger checks passed, so the
        # stream's last line always equals the post-hoc report's counters.
        stream.emit(at=config.duration)
        stream.close()
    signature = _calibration_signature(config)
    if signature is not None:
        # Persist each shard policy's converged horizons and per-run error
        # statistics, so the next run of this workload (any shard) opens warm.
        for shard in cluster.shards:
            config.calibration_store.record_run(signature, shard.controller.policy)
        config.calibration_store.save()

    primary = cluster.primary
    controllers = [
        shard.controller for shard in cluster.shards if shard.controller is not None
    ]
    shard_heap_series = [shard.heap_series() for shard in cluster.shards]
    shard_rejuvenation = [controller.report() for controller in controllers]
    fleet = None
    if config.shards > 1:
        fleet = FleetReport(
            shards=config.shards,
            balancer=cluster.balancer.stats(),
            per_shard=list(fleet_ledger["per_shard"]),
            root_cause_rows=fleet_aging_rows(cluster),
            ledger={"issued": fleet_ledger["issued"], "served": fleet_ledger["served"]},
            rejuvenation=(
                fleet_controller.report() if fleet_controller is not None else None
            ),
        )
    server = primary.deployment.server
    return ExperimentResult(
        config=config,
        duration=config.duration,
        completed_requests=generator.completed_requests,
        error_count=generator.error_count,
        rejected_requests=cluster.server.rejected_requests,
        throughput=generator.throughput_series(),
        response_times=generator.response_times,
        interaction_counts=dict(generator.interaction_counts),
        heap_series=shard_heap_series[0],
        fault_descriptions=primary.injector.describe(),
        utilization=server.utilization_report(config.duration),
        mean_response_time=generator.mean_response_time(),
        **_monitoring_outputs(cluster),
        pinpoint=pinpoint,
        blackbox=primary.blackbox.analyze() if primary.blackbox is not None else None,
        rejuvenation=shard_rejuvenation[0] if shard_rejuvenation else None,
        policy=controllers[0].policy if controllers else None,
        shard_heap_series=shard_heap_series,
        shard_rejuvenation=shard_rejuvenation,
        accounting=accounting,
        refused_requests=generator.refused_requests,
        issued_requests=generator.issued_requests,
        retry_attempts=generator.retry_attempts,
        client_timeouts=generator.client_timeouts,
        component_latency=server.component_latency_series(),
        fleet=fleet,
        rollout=rollout.report() if rollout is not None else None,
        fluid=fluid.report if fluid is not None else None,
        executed_events=engine.executed_events,
        cluster=cluster,
    )
