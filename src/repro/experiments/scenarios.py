"""The paper's experiments (Figs. 3-7) plus ablation scenarios.

Every scenario takes a ``duration_scale`` so that benchmarks and tests can
run a faithful-but-shorter version of the paper's one-hour experiments; the
full-length runs use ``duration_scale=1.0``.  Component naming follows the
paper: *A* and *B* are the two heavily (and similarly) used components, *C*
a moderately used one, and *D* the rarely used one whose injected leak never
fires.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.baselines.rejuvenation import (
    NoActionPolicy,
    ProactiveRejuvenationPolicy,
    RejuvenationPolicy,
    TimeBasedRejuvenationPolicy,
    exposure_seconds,
)
from repro.container.resilience import ResilienceConfig
from repro.container.server import ServerConfig
from repro.core.resource_map import ResourceComponentMap
from repro.core.rootcause import (
    CascadeAwareStrategy,
    PaperMapStrategy,
    RootCauseReport,
    RootCauseStrategy,
    TrendStrategy,
    WeightedCompositeStrategy,
)
from repro.experiments.deploy import (
    BASELINE_VERSION,
    CanaryVerdict,
    ComponentVersion,
    RolloutPlan,
    RolloutReport,
)
from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.faults.injector import FaultSpec
from repro.obs.registry import MetricsRegistry
from repro.faults.memory_leak import KB, MB
from repro.slo.adaptive_policy import AdaptiveRejuvenationPolicy
from repro.slo.analytic import (
    HYBRID_DECISION_COUNT_SLACK,
    HYBRID_DECISION_TIME_FACTOR,
    HYBRID_THROUGHPUT_TOLERANCE,
    HYBRID_TTE_TOLERANCE_FACTOR,
    LeakWorkloadModel,
    extrapolated_exhaustion_time,
    mmc_metrics,
    realized_exhaustion_time,
    within_tolerance,
)
from repro.slo.calibration import CalibrationStore, workload_signature
from repro.slo.cost_model import SlaCostModel, SlaObservation
from repro.slo.predictors import TheilSenPredictor
from repro.tpcw.population import PopulationScale
from repro.tpcw.workload import WorkloadPhase

#: Paper components mapped onto TPC-W interactions by usage frequency under
#: the shopping mix: A and B are the two most-used pages (similar frequency),
#: C is moderately used, D is the rarely used administrative page.
COMPONENT_A = "product_detail"
COMPONENT_B = "home"
COMPONENT_C = "new_products"
COMPONENT_D = "admin_confirm"

#: Default EB population for the leak experiments (the paper keeps the EB
#: count constant during each experiment; 100 EBs is its middle load level).
LEAK_EXPERIMENT_EBS = 100

#: The paper's injection countdown parameter.
PAPER_PERIOD_N = 100


# --------------------------------------------------------------------------- #
# Fig. 3 — monitoring overhead under a dynamic workload
# --------------------------------------------------------------------------- #
@dataclass
class Fig3Result:
    """Outcome of the Fig. 3 overhead experiment."""

    monitored: ExperimentResult
    unmonitored: ExperimentResult
    #: Phase boundaries used (seconds): warm-up end, 100-EB end, 200-EB end.
    phase_times: List[float] = field(default_factory=list)

    def throughput_pair(self, start: float, end: float) -> Dict[str, float]:
        """Mean throughput of both runs over ``[start, end]``."""
        return {
            "unmonitored": self.unmonitored.mean_throughput(start, end),
            "monitored": self.monitored.mean_throughput(start, end),
        }

    def overhead_percent(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Throughput penalty of monitoring, in percent (paper: ≈5 %)."""
        if start is None:
            start = self.phase_times[0] if self.phase_times else 0.0
        reference = self.unmonitored.mean_throughput(start, end)
        measured = self.monitored.mean_throughput(start, end)
        if reference <= 0:
            return 0.0
        return 100.0 * (reference - measured) / reference

    def throughput_rows(self) -> List[Dict[str, float]]:
        """Time-aligned throughput series of both runs (Fig. 3's two curves)."""
        rows = []
        monitored = {t: v for t, v in self.monitored.throughput.to_rows()}
        for t, v in self.unmonitored.throughput.to_rows():
            rows.append(
                {
                    "time_s": round(t, 1),
                    "unmonitored_rps": round(v, 3),
                    "monitored_rps": round(monitored.get(t, 0.0), 3),
                }
            )
        return rows


def fig3_overhead(
    duration_scale: float = 1.0,
    seed: int = 42,
    warmup_ebs: int = 50,
    mid_ebs: int = 100,
    high_ebs: int = 200,
    scale: Optional[PopulationScale] = None,
    sample_cost_seconds: float = 2.5e-3,
    metrics_registry=None,
    stream_metrics: Optional[str] = None,
) -> Fig3Result:
    """Reproduce Fig. 3: TPC-W throughput with and without monitoring.

    The paper's schedule: 2 minutes at 50 EBs (warm-up), 30 minutes at
    100 EBs, 30 minutes at 200 EBs, all under the shopping mix, no fault
    injected.  Both runs use the same seed so they see the same workload.
    ``metrics_registry`` / ``stream_metrics`` attach the observability plane
    to the *monitored* leg (the ``obs_overhead`` bench drives this to bound
    the plane's cost).
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    warmup = 120.0 * duration_scale
    phase = 1800.0 * duration_scale
    duration = warmup + 2 * phase
    phases = [
        WorkloadPhase(0.0, warmup_ebs),
        WorkloadPhase(warmup, mid_ebs),
        WorkloadPhase(warmup + phase, high_ebs),
    ]

    common = dict(
        seed=seed,
        scale=scale,
        phases=phases,
        duration=duration,
        mix_name="shopping",
        faults=[],
        snapshot_interval=max(30.0, 60.0 * duration_scale),
        sample_cost_seconds=sample_cost_seconds,
    )
    unmonitored = run_experiment(ExperimentConfig(name="fig3-unmonitored", monitored=False, **common))
    monitored = run_experiment(
        ExperimentConfig(
            name="fig3-monitored",
            monitored=True,
            metrics_registry=metrics_registry,
            stream_metrics=stream_metrics,
            **common,
        )
    )
    return Fig3Result(
        monitored=monitored,
        unmonitored=unmonitored,
        phase_times=[warmup, warmup + phase, duration],
    )


# --------------------------------------------------------------------------- #
# Figs. 4, 5, 7 — leak scenarios
# --------------------------------------------------------------------------- #
@dataclass
class LeakScenarioResult:
    """Outcome of a leak-injection experiment (Figs. 4, 5, 7)."""

    result: ExperimentResult
    injected_components: Dict[str, int]  #: component -> injected leak size (bytes)

    @property
    def root_cause(self) -> RootCauseReport:
        """The manager's root-cause report."""
        assert self.result.root_cause is not None
        return self.result.root_cause

    def growth(self) -> Dict[str, float]:
        """Object-size growth per component."""
        return self.result.component_growth()

    def size_series_rows(self, components: Optional[List[str]] = None, points: int = 20) -> List[Dict[str, float]]:
        """Down-sampled object-size trajectories (the curves of Figs. 4/5/7)."""
        names = components or sorted(self.result.component_series)
        rows: List[Dict[str, float]] = []
        for name in names:
            series = self.result.component_series.get(name)
            if series is None or len(series) == 0:
                continue
            times = series.times
            values = series.values
            stride = max(1, len(times) // points)
            for index in range(0, len(times), stride):
                rows.append(
                    {
                        "component": name,
                        "time_s": round(float(times[index]), 1),
                        "object_size_kb": round(float(values[index]) / 1024.0, 1),
                    }
                )
        return rows


def _leak_scenario(
    name: str,
    leak_plan: Dict[str, int],
    duration_scale: float,
    seed: int,
    scale: Optional[PopulationScale],
    ebs: int,
    period_n: int,
    strategy: Optional[RootCauseStrategy] = None,
) -> LeakScenarioResult:
    duration = 3600.0 * duration_scale
    faults = [
        FaultSpec(
            component=component,
            kind="memory-leak",
            params={"leak_bytes": leak_bytes, "period_n": period_n},
        )
        for component, leak_bytes in leak_plan.items()
    ]
    config = ExperimentConfig(
        name=name,
        seed=seed,
        scale=scale,
        constant_ebs=ebs,
        duration=duration,
        mix_name="shopping",
        monitored=True,
        faults=faults,
        snapshot_interval=max(30.0, 60.0 * duration_scale),
        strategy=strategy,
    )
    result = run_experiment(config)
    return LeakScenarioResult(result=result, injected_components=dict(leak_plan))


def fig4_single_leak(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    leak_bytes: int = 100 * KB,
    period_n: int = PAPER_PERIOD_N,
) -> LeakScenarioResult:
    """Reproduce Fig. 4: a single 100 KB / N=100 leak in component A.

    Expectation: component A's object size grows from KBs to MBs over the
    hour while every other component stays flat, and the root-cause report
    assigns A 100 % of the responsibility.
    """
    return _leak_scenario(
        name="fig4-single-leak",
        leak_plan={COMPONENT_A: leak_bytes},
        duration_scale=duration_scale,
        seed=seed,
        scale=scale,
        ebs=ebs,
        period_n=period_n,
    )


def fig5_multi_leak(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    leak_bytes: int = 100 * KB,
    period_n: int = PAPER_PERIOD_N,
) -> LeakScenarioResult:
    """Reproduce Fig. 5: the same 100 KB / N=100 leak in A, B, C and D.

    Expectation: A and B grow at a similar (highest) rate, C grows more
    slowly, and D stays flat because it is visited too rarely to trigger the
    injection.
    """
    return _leak_scenario(
        name="fig5-multi-leak",
        leak_plan={
            COMPONENT_A: leak_bytes,
            COMPONENT_B: leak_bytes,
            COMPONENT_C: leak_bytes,
            COMPONENT_D: leak_bytes,
        },
        duration_scale=duration_scale,
        seed=seed,
        scale=scale,
        ebs=ebs,
        period_n=period_n,
    )


def fig6_manager_map(scenario: LeakScenarioResult) -> List[Dict[str, object]]:
    """Reproduce Fig. 6: the consumption-vs-usage map the manager composes
    for the Fig. 5 run (rows include the quadrant classification)."""
    return scenario.result.resource_map_rows


def fig7_injection_sizes(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    period_n: int = PAPER_PERIOD_N,
) -> LeakScenarioResult:
    """Reproduce Fig. 7: heterogeneous leak sizes.

    A keeps 100 KB, B drops to 10 KB, C and D get 1 MB.  Expectation: C
    becomes the top suspect (large leak × moderate usage), A second, B third,
    and D stays flat because its usage frequency is too low to trigger
    injections.
    """
    return _leak_scenario(
        name="fig7-injection-sizes",
        leak_plan={
            COMPONENT_A: 100 * KB,
            COMPONENT_B: 10 * KB,
            COMPONENT_C: 1 * MB,
            COMPONENT_D: 1 * MB,
        },
        duration_scale=duration_scale,
        seed=seed,
        scale=scale,
        ebs=ebs,
        period_n=period_n,
    )


def run_sla_observation(
    result: ExperimentResult, duration: float, exposure_seconds: float
) -> SlaObservation:
    """Fold one policy run's availability currencies into an :class:`SlaObservation`.

    Shared by every rejuvenation comparison so downtime/refusal accounting
    can never diverge between reports: downtime and refusals come from the
    controller's report (zero without one), failures from the workload's
    error count, exposure from the caller's resource-specific measurement.
    """
    rejuvenation = result.rejuvenation
    return SlaObservation(
        duration_seconds=duration,
        downtime_seconds=(
            rejuvenation.total_downtime_seconds if rejuvenation is not None else 0.0
        ),
        exposure_seconds=exposure_seconds,
        failed_requests=result.error_count,
        refused_requests=rejuvenation.refused_requests if rejuvenation is not None else 0,
    )


# --------------------------------------------------------------------------- #
# Live rejuvenation comparison (built on the Fig. 5-style leak)
# --------------------------------------------------------------------------- #
#: Bytes per injected leak in the rejuvenation scenario (aggressive enough
#: that doing nothing runs the heap into the wall within the run).
REJUVENATION_LEAK_BYTES = 256 * KB
#: Injection countdown for the rejuvenation scenario (4x the paper's rate).
REJUVENATION_PERIOD_N = 25
#: Measured component-A visit rate of the shopping mix at 100 EBs (~14 req/s
#: overall, ~24 % to product_detail); used only to size the heap so that the
#: no-action run approaches exhaustion around three quarters through the run.
_LEAK_VISITS_PER_SECOND = 3.4
#: Measured overall request rate of the shopping mix at 100 EBs — the
#: arrival rate λ the analytic M/M/c cross-check offers to the server.
_REQUESTS_PER_SECOND = 14.2
#: Exhaustion threshold (fraction of capacity) of the heap cross-check:
#: thread/connection pools fail exactly at their bound, but the heap fails
#: with OOMs *near* the wall — the GC needs headroom — so both the analytic
#: prediction and the realized crossing are read at this fraction.
_HEAP_EXHAUSTION_FRACTION = 0.95


def _fast_leak_heap_bytes(visit_rate: float, duration: float) -> int:
    """Heap sized so the fast-burning leak's no-action wall arrives about a
    third of the way through the run — the shared memory workload of
    ``fig_adaptive``, ``fig_mixed`` and ``fig_learning`` (one definition,
    so their workload signatures stay comparable by construction)."""
    expected_leak = (
        visit_rate / REJUVENATION_PERIOD_N * REJUVENATION_LEAK_BYTES * duration
    )
    return int((_BASELINE_LIVE_BYTES + 0.35 * expected_leak) / 0.92)


def _tuned_adaptive_policy(
    duration: float, microreboot_downtime: float
) -> AdaptiveRejuvenationPolicy:
    """The adaptive policy configuration every scenario comparison runs
    (robust Theil-Sen predictor, horizon opening at a quarter of the run,
    clamped to ``[duration/16, duration]``)."""
    return AdaptiveRejuvenationPolicy(
        predictor_factory=lambda: TheilSenPredictor(min_samples=4),
        base_horizon=duration / 4.0,
        min_horizon=duration / 16.0,
        max_horizon=duration,
        microreboot_downtime=microreboot_downtime,
    )
#: Baseline live bytes of a freshly deployed TPC-W instance (sessions,
#: instance state) — measured, not derived.
_BASELINE_LIVE_BYTES = 2 * MB


@dataclass
class RejuvenationScenarioResult:
    """Outcome of the three-policy live rejuvenation comparison."""

    #: Policy name -> full experiment result, in comparison order.
    results: Dict[str, ExperimentResult]
    heap_capacity: float
    duration: float
    injected_components: Dict[str, int]

    def result(self, policy: str) -> ExperimentResult:
        """The run executed under ``policy``."""
        return self.results[policy]

    def downtime_seconds(self, policy: str) -> float:
        """Total downtime the controller paid under ``policy``."""
        rejuvenation = self.results[policy].rejuvenation
        return rejuvenation.total_downtime_seconds if rejuvenation is not None else 0.0

    def exposure(self, policy: str) -> float:
        """Seconds the run spent above 90 % heap occupancy."""
        return exposure_seconds(
            self.results[policy].heap_series, self.heap_capacity, window_end=self.duration
        )

    def sla_observation(self, policy: str) -> SlaObservation:
        """The raw availability currencies of one policy run."""
        return run_sla_observation(
            self.results[policy], self.duration, self.exposure(policy)
        )

    def sla_cost(self, policy: str, cost_model: Optional[SlaCostModel] = None) -> float:
        """Scalar SLA cost of one policy run (see :mod:`repro.slo.cost_model`)."""
        model = cost_model or SlaCostModel()
        return model.score(self.sla_observation(policy))

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per policy: availability, downtime, exposure and SLA cost."""
        cost_model = SlaCostModel()
        rows: List[Dict[str, object]] = []
        for name, result in self.results.items():
            rejuvenation = result.rejuvenation
            heap_series = result.heap_series
            observation = self.sla_observation(name)
            rows.append(
                {
                    "policy": name,
                    "completed": result.completed_requests,
                    "errors": result.error_count,
                    "mean_rps": round(result.mean_throughput(), 3),
                    "actions": rejuvenation.actions if rejuvenation is not None else 0,
                    "downtime_s": round(
                        rejuvenation.total_downtime_seconds if rejuvenation is not None else 0.0, 2
                    ),
                    "refused": rejuvenation.refused_requests if rejuvenation is not None else 0,
                    "reclaimed_mb": round(
                        (rejuvenation.reclaimed_bytes if rejuvenation is not None else 0) / MB, 2
                    ),
                    "exposure_s": round(self.exposure(name), 1),
                    "final_heap_mb": round(
                        float(heap_series.values[-1]) / MB if len(heap_series) else 0.0, 2
                    ),
                    "budget_burn": round(cost_model.budget_burn(observation), 2),
                    "sla_cost": round(cost_model.score(observation), 1),
                }
            )
        return rows

    def heap_rows(self, points: int = 16) -> List[Dict[str, float]]:
        """Down-sampled heap-occupancy curves, one row per (policy, time)."""
        rows: List[Dict[str, float]] = []
        for name, result in self.results.items():
            series = result.heap_series
            if len(series) == 0:
                continue
            times = series.times
            values = series.values
            stride = max(1, len(times) // points)
            for index in range(0, len(times), stride):
                rows.append(
                    {
                        "policy": name,
                        "time_s": round(float(times[index]), 1),
                        "heap_used_mb": round(float(values[index]) / MB, 2),
                        "occupancy_pct": round(100.0 * float(values[index]) / self.heap_capacity, 1),
                    }
                )
        return rows


def fig_rejuvenation(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    leak_bytes: int = REJUVENATION_LEAK_BYTES,
    period_n: int = REJUVENATION_PERIOD_N,
    heap_bytes: Optional[int] = None,
) -> RejuvenationScenarioResult:
    """Three same-seed runs of a Fig. 5-style leak under live rejuvenation.

    The leak (component A, aggressive rate) is sized against the heap so the
    *no-action* run approaches exhaustion roughly three quarters through the
    experiment: GC starts thrashing, requests fail with OOM errors and the
    heap spends its tail above the 90 % danger line.  The same workload is
    then re-run under (a) no action, (b) time-based full restarts and (c)
    trend-predicted micro-reboots of the root-cause component, giving the
    paper's rejuvenation argument in numbers: micro-reboots buy the same
    heap protection for a fraction of the downtime.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    duration = 3600.0 * duration_scale
    snapshot_interval = max(2.0, 30.0 * duration_scale)
    if heap_bytes is None:
        # Size the wall so ~75 % of the expected leak fills it (see above).
        # The measured visit rate is for the default EB population; closed-
        # loop load scales roughly linearly with the number of browsers.
        visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS
        expected_leak = visit_rate / period_n * leak_bytes * duration
        heap_bytes = int((_BASELINE_LIVE_BYTES + 0.75 * expected_leak) / 0.92)
    policies: List[RejuvenationPolicy] = [
        NoActionPolicy(),
        TimeBasedRejuvenationPolicy(
            interval=duration / 3.0,
            restart_downtime=max(2.0, 120.0 * duration_scale),
        ),
        ProactiveRejuvenationPolicy(
            horizon=duration / 4.0,
            microreboot_downtime=max(0.25, 2.0 * duration_scale),
            min_samples=4,
        ),
    ]
    results: Dict[str, ExperimentResult] = {}
    for policy in policies:
        config = ExperimentConfig(
            name=f"fig-rejuvenation-{policy.name}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            mix_name="shopping",
            monitored=True,
            faults=[
                FaultSpec(
                    component=COMPONENT_A,
                    kind="memory-leak",
                    params={"leak_bytes": leak_bytes, "period_n": period_n},
                )
            ],
            snapshot_interval=snapshot_interval,
            server_config=ServerConfig(heap_bytes=heap_bytes),
            rejuvenation=policy,
        )
        results[policy.name] = run_experiment(config)
    return RejuvenationScenarioResult(
        results=results,
        heap_capacity=float(heap_bytes),
        duration=duration,
        injected_components={COMPONENT_A: leak_bytes},
    )


# --------------------------------------------------------------------------- #
# Adaptive rejuvenation & SLA comparison (tentpole of ISSUE 3)
# --------------------------------------------------------------------------- #
#: Workload keys of the adaptive comparison.
ADAPTIVE_WORKLOADS = ("memory", "threads", "connections")

#: Injection countdown of the thread / connection leaks (aggressive: the
#: no-action run must exhaust the resource within the scaled run).
ADAPTIVE_EXTENSION_PERIOD_N = 10
#: Stack pinned by each leaked thread.
ADAPTIVE_STACK_BYTES = 256 * KB
#: Worker threads the JVM starts with (the container's pool).
_BASELINE_THREADS = 150


@dataclass
class AdaptiveScenarioResult:
    """Outcome of the four-policy, three-workload adaptive comparison."""

    #: workload -> policy name -> full experiment result.
    results: Dict[str, Dict[str, ExperimentResult]]
    #: workload -> capacity the monitored series exhausts against.
    capacities: Dict[str, float]
    #: workload -> the ``"<jvm>"`` metric the channel extrapolates.
    metrics: Dict[str, str]
    duration: float
    cost_model: SlaCostModel
    #: workload -> the adaptive policy instance that ran it (predictor stats).
    adaptive_policies: Dict[str, AdaptiveRejuvenationPolicy] = field(default_factory=dict)
    #: workload -> the analytic no-action model derived from the same sizing
    #: the scenario ran (see :mod:`repro.slo.analytic`).
    analytic_models: Dict[str, LeakWorkloadModel] = field(default_factory=dict)
    #: Arrival rate λ (requests/s) the M/M/c cross-check offers the server.
    request_rate: float = 0.0
    #: workload -> the JVM thread capacity c of the M/M/c service model.
    thread_capacities: Dict[str, int] = field(default_factory=dict)
    #: Service rate μ (requests/s per thread) from the sizing's CPU demand.
    service_rate: float = 0.0

    # ------------------------------------------------------------------ #
    def result(self, workload: str, policy: str) -> ExperimentResult:
        """The run of ``policy`` on ``workload``."""
        return self.results[workload][policy]

    def monitored_series(self, workload: str, policy: str):
        """The monitored exhaustion series of one run."""
        result = self.result(workload, policy)
        if workload == "memory":
            return result.heap_series
        assert result.framework is not None
        return result.framework.manager.map.series("<jvm>", self.metrics[workload])

    def exposure(self, workload: str, policy: str) -> float:
        """Seconds the run spent above 90 % of the resource's capacity."""
        return exposure_seconds(
            self.monitored_series(workload, policy),
            self.capacities[workload],
            window_end=self.duration,
        )

    def sla_observation(self, workload: str, policy: str) -> SlaObservation:
        """The raw availability currencies of one run."""
        return run_sla_observation(
            self.result(workload, policy), self.duration, self.exposure(workload, policy)
        )

    def sla_cost(self, workload: str, policy: str) -> float:
        """The scalar SLA cost of one run (lower is better)."""
        return self.cost_model.score(self.sla_observation(workload, policy))

    def best_fixed_cost(self, workload: str) -> float:
        """The best (lowest) SLA cost among the non-adaptive policies."""
        return min(
            self.sla_cost(workload, policy)
            for policy in self.results[workload]
            if policy != AdaptiveRejuvenationPolicy.name
        )

    # ------------------------------------------------------------------ #
    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per (workload, policy): availability plus the SLA scalar."""
        rows: List[Dict[str, object]] = []
        for workload, by_policy in self.results.items():
            for policy, result in by_policy.items():
                rejuvenation = result.rejuvenation
                observation = self.sla_observation(workload, policy)
                rows.append(
                    {
                        "workload": workload,
                        "policy": policy,
                        "completed": result.completed_requests,
                        "errors": result.error_count,
                        "actions": rejuvenation.actions if rejuvenation is not None else 0,
                        "downtime_s": round(observation.downtime_seconds, 2),
                        "exposure_s": round(observation.exposure_seconds, 1),
                        "refused": observation.refused_requests,
                        "budget_burn": round(self.cost_model.budget_burn(observation), 2),
                        "sla_cost": round(self.cost_model.score(observation), 1),
                    }
                )
        return rows

    def predictor_rows(self) -> List[Dict[str, object]]:
        """Prediction-error statistics of the adaptive runs."""
        rows: List[Dict[str, object]] = []
        for workload, policy in self.adaptive_policies.items():
            for row in policy.predictor_rows():
                rows.append({"workload": workload, **row})
        return rows

    # ------------------------------------------------------------------ #
    def realized_exhaustion(self, workload: str) -> Optional[float]:
        """When the *no-action* run's monitored series first crossed the
        workload's exhaustion threshold (``None``: it never did)."""
        model = self.analytic_models.get(workload)
        fraction = model.exhaustion_fraction if model is not None else 1.0
        return realized_exhaustion_time(
            self.monitored_series(workload, "no-action"),
            self.capacities[workload],
            fraction,
        )

    def analytic_rows(self) -> List[Dict[str, object]]:
        """The M/M/c + leak-model cross-check, one row per workload.

        Analytic predictions are derived from the workload *configuration*
        alone (visit rates, leak rates, sizing); the realized columns come
        from the executed no-action run.  ``tte_ok`` applies the stated
        tolerance (:data:`repro.slo.analytic.TTE_TOLERANCE_FACTOR`).
        """
        rows: List[Dict[str, object]] = []
        for workload, model in self.analytic_models.items():
            analytic_tte = model.time_to_exhaustion()
            realized_tte = self.realized_exhaustion(workload)
            observation = self.sla_observation(workload, "no-action")
            queueing = mmc_metrics(
                self.request_rate,
                self.service_rate,
                self.thread_capacities.get(workload, 1),
            )
            rows.append(
                {
                    "workload": workload,
                    "analytic_tte_s": round(analytic_tte, 1) if analytic_tte is not None else None,
                    "realized_tte_s": round(realized_tte, 1) if realized_tte is not None else None,
                    "tte_ratio": (
                        round(analytic_tte / realized_tte, 2)
                        if analytic_tte is not None and realized_tte
                        else None
                    ),
                    "tte_ok": within_tolerance(analytic_tte, realized_tte),
                    "analytic_failed": round(
                        model.predicted_failed_requests(self.duration)
                    ),
                    "realized_failed": observation.failed_requests,
                    "analytic_unavailable_s": round(
                        model.predicted_unavailable_seconds(
                            self.duration,
                            self.cost_model.failure_downtime_equivalent_seconds,
                        ),
                        1,
                    ),
                    "realized_unavailable_s": round(
                        self.cost_model.unavailable_seconds(observation), 1
                    ),
                    "mmc_utilization": round(queueing.utilization, 4),
                    "mmc_wait_probability": round(queueing.wait_probability, 6),
                }
            )
        return rows


def _adaptive_policy_set(
    duration: float, duration_scale: float
) -> List[RejuvenationPolicy]:
    """Fresh policy instances for one workload of the adaptive comparison."""
    microreboot_downtime = max(0.25, 2.0 * duration_scale)
    return [
        NoActionPolicy(),
        TimeBasedRejuvenationPolicy(
            interval=duration / 3.0,
            restart_downtime=max(2.0, 120.0 * duration_scale),
        ),
        ProactiveRejuvenationPolicy(
            horizon=duration / 4.0,
            microreboot_downtime=microreboot_downtime,
            min_samples=4,
        ),
        _tuned_adaptive_policy(duration, microreboot_downtime),
    ]


def fig_adaptive(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    cost_model: Optional[SlaCostModel] = None,
) -> AdaptiveScenarioResult:
    """The adaptive rejuvenation & SLA comparison (ISSUE 3 tentpole).

    Twelve same-seed runs: {no action, time-based restarts, proactive
    micro-reboots, adaptive micro-reboots} x {memory leak, thread leak,
    connection leak}, each workload sized so the *no-action* run exhausts
    its resource roughly two thirds through — the heap hits the OOM wall,
    the JVM hits its thread capacity ("unable to create new native
    thread"), the connection pool refuses every borrow.  Every run reduces
    to one scalar through the :class:`~repro.slo.cost_model.SlaCostModel`,
    so the claim under test is crisp: the adaptive policy's scalar on the
    memory workload is no worse than the best fixed policy's, and
    rejuvenation eliminates the error spikes of the thread/connection
    no-action runs.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    duration = 3600.0 * duration_scale
    snapshot_interval = max(2.0, 30.0 * duration_scale)
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS
    cost_model = cost_model or SlaCostModel()

    # Memory workload: a *fast-burning* leak — the heap wall is reached about
    # a third of the way through the run (vs. fig_rejuvenation's 3/4), so a
    # recycling policy must act repeatedly.  This is where horizon tuning
    # matters: a fixed horizon chosen for slow leaks recycles far too often
    # on a fast one, while the adaptive policy shrinks its margin as its
    # predictor earns trust and saves whole recycle cycles.
    heap_bytes = _fast_leak_heap_bytes(visit_rate, duration)

    # Thread workload: the JVM's thread capacity is sized so the leak
    # (period N=10, one pinned 256 KB stack each) reaches it ~2/3 through.
    expected_leaked_threads = visit_rate / ADAPTIVE_EXTENSION_PERIOD_N * duration
    thread_capacity = _BASELINE_THREADS + max(4, int(0.65 * expected_leaked_threads))

    # Connection workload: pool bound sized the same way.
    pool_size = max(8, int(0.65 * visit_rate / ADAPTIVE_EXTENSION_PERIOD_N * duration))

    # Analytic cross-check inputs derived from the same configuration: the
    # overall arrival rate, the per-thread service rate from the sizing's
    # CPU demand, and a fluid-limit leak model per workload (see
    # :mod:`repro.slo.analytic` for the formulas and the stated tolerance).
    request_rate = _REQUESTS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS
    injection_attempt_rate = visit_rate / (ADAPTIVE_EXTENSION_PERIOD_N / 2.0 + 1.0)
    memory_injection_rate = visit_rate / (REJUVENATION_PERIOD_N / 2.0 + 1.0)
    analytic_models = {
        "memory": LeakWorkloadModel(
            resource="heap",
            capacity=float(heap_bytes),
            baseline=float(_BASELINE_LIVE_BYTES),
            units_per_injection=float(REJUVENATION_LEAK_BYTES),
            period_n=REJUVENATION_PERIOD_N,
            trigger_visits_per_second=visit_rate,
            # Once the heap is at the wall, the requests that fail are the
            # ones whose injection allocation OOMs — the injection attempts.
            failing_request_rate=memory_injection_rate,
            exhaustion_fraction=_HEAP_EXHAUSTION_FRACTION,
        ),
        "threads": LeakWorkloadModel(
            resource="threads",
            capacity=float(thread_capacity),
            baseline=float(_BASELINE_THREADS),
            units_per_injection=1.0,
            period_n=ADAPTIVE_EXTENSION_PERIOD_N,
            trigger_visits_per_second=visit_rate,
            # Only the visits that try to spawn a leak thread hit the JVM's
            # "unable to create new native thread" wall.
            failing_request_rate=injection_attempt_rate,
        ),
        "connections": LeakWorkloadModel(
            resource="connections",
            capacity=float(pool_size),
            baseline=0.0,
            units_per_injection=1.0,
            period_n=ADAPTIVE_EXTENSION_PERIOD_N,
            trigger_visits_per_second=visit_rate,
            # A shared pool fails *every* borrower once exhausted.
            failing_request_rate=request_rate,
        ),
    }

    workload_specs: Dict[str, Dict[str, object]] = {
        "memory": dict(
            fault=FaultSpec(
                component=COMPONENT_A,
                kind="memory-leak",
                params={
                    "leak_bytes": REJUVENATION_LEAK_BYTES,
                    "period_n": REJUVENATION_PERIOD_N,
                },
            ),
            server_config=ServerConfig(heap_bytes=heap_bytes),
            channels=["heap"],
            capacity=float(heap_bytes),
            metric="heap_live",
        ),
        "threads": dict(
            fault=FaultSpec(
                component=COMPONENT_A,
                kind="thread-leak",
                params={
                    "period_n": ADAPTIVE_EXTENSION_PERIOD_N,
                    "stack_bytes": ADAPTIVE_STACK_BYTES,
                },
            ),
            server_config=ServerConfig(thread_capacity=thread_capacity),
            channels=["threads"],
            capacity=float(thread_capacity),
            metric="threads_total",
        ),
        "connections": dict(
            fault=FaultSpec(
                component=COMPONENT_A,
                kind="connection-leak",
                params={"period_n": ADAPTIVE_EXTENSION_PERIOD_N},
            ),
            server_config=ServerConfig(pool_size=pool_size),
            channels=["connections"],
            capacity=float(pool_size),
            metric="connections_active",
        ),
    }

    results: Dict[str, Dict[str, ExperimentResult]] = {}
    adaptive_policies: Dict[str, AdaptiveRejuvenationPolicy] = {}
    for workload, spec in workload_specs.items():
        results[workload] = {}
        for policy in _adaptive_policy_set(duration, duration_scale):
            config = ExperimentConfig(
                name=f"fig-adaptive-{workload}-{policy.name}",
                seed=seed,
                scale=scale,
                constant_ebs=ebs,
                duration=duration,
                mix_name="shopping",
                monitored=True,
                faults=[spec["fault"]],
                snapshot_interval=snapshot_interval,
                server_config=spec["server_config"],
                rejuvenation=policy,
                rejuvenation_channels=list(spec["channels"]),
            )
            results[workload][policy.name] = run_experiment(config)
            if isinstance(policy, AdaptiveRejuvenationPolicy):
                adaptive_policies[workload] = policy
    default_thread_capacity = ServerConfig().thread_capacity or 1
    return AdaptiveScenarioResult(
        results=results,
        capacities={w: float(spec["capacity"]) for w, spec in workload_specs.items()},
        metrics={w: str(spec["metric"]) for w, spec in workload_specs.items()},
        duration=duration,
        cost_model=cost_model,
        adaptive_policies=adaptive_policies,
        analytic_models=analytic_models,
        request_rate=request_rate,
        thread_capacities={
            "memory": default_thread_capacity,
            "threads": thread_capacity,
            "connections": default_thread_capacity,
        },
        service_rate=1.0 / ServerConfig().default_cpu_demand,
    )


# --------------------------------------------------------------------------- #
# Mixed-fault comparison (two components, two resources at once)
# --------------------------------------------------------------------------- #
@dataclass
class MixedScenarioResult:
    """Outcome of the mixed-fault comparison (heap leak + connection leak).

    The point under test is *attribution under concurrent faults*: the heap
    channel must keep blaming the memory-leaking component via the
    root-cause analysis while the connection channel independently blames
    the connection-leaking component via pool-ownership accounting — the
    two must disagree, and each micro-reboot must recycle its own culprit.
    """

    #: Policy name -> full experiment result, in comparison order.
    results: Dict[str, ExperimentResult]
    heap_capacity: float
    pool_size: int
    duration: float
    #: component -> leaked resource kind.
    injected: Dict[str, str] = field(default_factory=dict)

    def result(self, policy: str) -> ExperimentResult:
        """The run executed under ``policy``."""
        return self.results[policy]

    def recycles(self, policy: str) -> Dict[str, Dict[str, int]]:
        """``resource -> component -> executed micro-reboot count``."""
        out: Dict[str, Dict[str, int]] = {}
        rejuvenation = self.results[policy].rejuvenation
        if rejuvenation is None:
            return out
        for event in rejuvenation.events:
            component = event.component or "(whole server)"
            by_component = out.setdefault(event.resource, {})
            by_component[component] = by_component.get(component, 0) + 1
        return out

    def exposure(self, policy: str) -> float:
        """Seconds the run spent above 90 % heap occupancy."""
        return exposure_seconds(
            self.results[policy].heap_series, self.heap_capacity, window_end=self.duration
        )

    def sla_observation(self, policy: str) -> SlaObservation:
        """The raw availability currencies of one policy run."""
        return run_sla_observation(
            self.results[policy], self.duration, self.exposure(policy)
        )

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per policy: errors, actions and per-resource attribution."""
        cost_model = SlaCostModel()
        rows: List[Dict[str, object]] = []
        for name, result in self.results.items():
            rejuvenation = result.rejuvenation
            recycles = self.recycles(name)
            rows.append(
                {
                    "policy": name,
                    "completed": result.completed_requests,
                    "errors": result.error_count,
                    "actions": rejuvenation.actions if rejuvenation is not None else 0,
                    "heap_recycles": ", ".join(
                        f"{component} x{count}"
                        for component, count in sorted(recycles.get("heap", {}).items())
                    )
                    or "-",
                    "connection_recycles": ", ".join(
                        f"{component} x{count}"
                        for component, count in sorted(
                            recycles.get("connections", {}).items()
                        )
                    )
                    or "-",
                    "downtime_s": round(
                        rejuvenation.total_downtime_seconds if rejuvenation is not None else 0.0,
                        2,
                    ),
                    "exposure_s": round(self.exposure(name), 1),
                    "sla_cost": round(cost_model.score(self.sla_observation(name)), 1),
                }
            )
        return rows


def fig_mixed(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    dual_leak: bool = False,
) -> MixedScenarioResult:
    """Concurrent heap + connection leaks, in two components or in one.

    Default (``dual_leak=False``): component A leaks heap (the paper's case
    study, aggressive rate) while component B leaks pooled connections,
    both sized to exhaust within the run if nothing acts.  Three same-seed
    runs: *no action* (both exhaustions bite — OOM-driven errors plus
    pool-refusal errors), *proactive micro-reboots* and *adaptive
    micro-reboots*, the recycling policies watching both resource channels.
    They must recycle the right component per resource: A for heap
    (root-cause analysis), B for connections (pool-ownership attribution) —
    even though A is the louder heap offender.

    ``dual_leak=True`` moves the connection leak *into component A*, so the
    same component leaks two resources at once: both channels must now
    independently converge on A (the heap channel via the strategy
    analysis, the connection channel via pool ownership), and each recycle
    of A must reclaim both its retained heap and its held connections.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    duration = 3600.0 * duration_scale
    snapshot_interval = max(2.0, 30.0 * duration_scale)
    microreboot_downtime = max(0.25, 2.0 * duration_scale)
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS

    # Heap sized like the adaptive memory workload (fast-burning: the wall is
    # reached about a third of the way through a no-action run).
    heap_bytes = _fast_leak_heap_bytes(visit_rate, duration)
    # Pool bound sized so the connection leak exhausts it ~2/3 through (A's
    # and B's visit rates are comparable under the shopping mix).
    pool_size = max(8, int(0.65 * visit_rate / ADAPTIVE_EXTENSION_PERIOD_N * duration))

    connection_leaker = COMPONENT_A if dual_leak else COMPONENT_B
    faults = [
        FaultSpec(
            component=COMPONENT_A,
            kind="memory-leak",
            params={
                "leak_bytes": REJUVENATION_LEAK_BYTES,
                "period_n": REJUVENATION_PERIOD_N,
            },
        ),
        FaultSpec(
            component=connection_leaker,
            kind="connection-leak",
            params={"period_n": ADAPTIVE_EXTENSION_PERIOD_N},
        ),
    ]
    policies: List[RejuvenationPolicy] = [
        NoActionPolicy(),
        ProactiveRejuvenationPolicy(
            horizon=duration / 4.0,
            microreboot_downtime=microreboot_downtime,
            min_samples=4,
        ),
        _tuned_adaptive_policy(duration, microreboot_downtime),
    ]
    variant = "dual" if dual_leak else "mixed"
    results: Dict[str, ExperimentResult] = {}
    for policy in policies:
        config = ExperimentConfig(
            name=f"fig-{variant}-{policy.name}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            mix_name="shopping",
            monitored=True,
            faults=list(faults),
            snapshot_interval=snapshot_interval,
            server_config=ServerConfig(heap_bytes=heap_bytes, pool_size=pool_size),
            rejuvenation=policy,
            rejuvenation_channels=["heap", "connections"],
        )
        results[policy.name] = run_experiment(config)
    injected: Dict[str, str] = {COMPONENT_A: "memory-leak"}
    injected[connection_leaker] = (
        injected.get(connection_leaker, "") + "+connection-leak"
    ).lstrip("+")
    return MixedScenarioResult(
        results=results,
        heap_capacity=float(heap_bytes),
        pool_size=pool_size,
        duration=duration,
        injected=injected,
    )


# --------------------------------------------------------------------------- #
# Cross-run calibration learning (ISSUE 5 tentpole)
# --------------------------------------------------------------------------- #
#: Repeated runs per mode of the learning comparison.
LEARNING_RUNS = 4
#: The two learning modes compared run-for-run.
LEARNING_MODES = ("cold", "warm")


@dataclass
class LearningScenarioResult:
    """Outcome of the cross-run calibration learning comparison.

    The same fast-memory-leak workload is run ``runs`` times per mode with
    varying seeds (run *k* uses ``seed + k`` in both modes, so the pairs see
    identical workload draws).  ``cold`` builds a fresh adaptive policy per
    run — every run re-pays the conservative ``base_horizon``; ``warm``
    persists each run's calibration in a :class:`CalibrationStore` keyed by
    the workload signature and warm-starts the next run from it.
    """

    #: mode -> one experiment result per run (run order).
    results: Dict[str, List[ExperimentResult]]
    #: mode -> the adaptive policy instance of each run.
    policies: Dict[str, List[AdaptiveRejuvenationPolicy]]
    heap_capacity: float
    duration: float
    runs: int
    seed: int
    signature: str
    store_path: str
    cost_model: SlaCostModel

    # ------------------------------------------------------------------ #
    def exposure(self, mode: str, run: int) -> float:
        """Seconds run ``run`` of ``mode`` spent above 90 % heap occupancy."""
        return exposure_seconds(
            self.results[mode][run].heap_series,
            self.heap_capacity,
            window_end=self.duration,
        )

    def sla_observation(self, mode: str, run: int) -> SlaObservation:
        """The raw availability currencies of one run."""
        return run_sla_observation(
            self.results[mode][run], self.duration, self.exposure(mode, run)
        )

    def sla_cost(self, mode: str, run: int) -> float:
        """The scalar SLA cost of one run (lower is better)."""
        return self.cost_model.score(self.sla_observation(mode, run))

    def cumulative_sla_cost(self, mode: str) -> float:
        """Summed SLA cost of ``mode`` over all runs — the headline number."""
        return sum(self.sla_cost(mode, run) for run in range(self.runs))

    def recycles(self, mode: str, run: int) -> int:
        """Executed rejuvenation actions of one run."""
        rejuvenation = self.results[mode][run].rejuvenation
        return rejuvenation.actions if rejuvenation is not None else 0

    def total_recycles(self, mode: str) -> int:
        """Summed recycle count of ``mode`` over all runs."""
        return sum(self.recycles(mode, run) for run in range(self.runs))

    def opening_horizon(self, mode: str, run: int) -> float:
        """The heap horizon run ``run`` opened at (base unless warm-started)."""
        return self.policies[mode][run].opening_horizon("heap")

    # ------------------------------------------------------------------ #
    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per (mode, run): recycles, horizons and the SLA scalar."""
        rows: List[Dict[str, object]] = []
        for mode in LEARNING_MODES:
            for run in range(self.runs):
                result = self.results[mode][run]
                policy = self.policies[mode][run]
                observation = self.sla_observation(mode, run)
                predictor = (
                    policy.predictor("heap") if "heap" in policy.calibrated_resources() else None
                )
                rows.append(
                    {
                        "mode": mode,
                        "run": run,
                        "seed": result.config.seed,
                        "warm_started": policy.warm_started,
                        "completed": result.completed_requests,
                        "errors": result.error_count,
                        "recycles": self.recycles(mode, run),
                        "downtime_s": round(observation.downtime_seconds, 2),
                        "exposure_s": round(observation.exposure_seconds, 1),
                        "opening_horizon_s": round(self.opening_horizon(mode, run), 1),
                        "final_horizon_s": round(policy.horizon("heap"), 1),
                        "predictions": predictor.stats.count if predictor is not None else 0,
                        "sla_cost": round(self.sla_cost(mode, run), 1),
                    }
                )
        return rows

    def verdict_rows(self) -> List[Dict[str, object]]:
        """The headline claims: warm learning beats cold re-learning."""
        return [
            {
                "claim": "cumulative SLA cost: warm < cold",
                "warm": round(self.cumulative_sla_cost("warm"), 1),
                "cold": round(self.cumulative_sla_cost("cold"), 1),
                "holds": self.cumulative_sla_cost("warm") < self.cumulative_sla_cost("cold"),
            },
            {
                "claim": "total recycles: warm <= cold",
                "warm": self.total_recycles("warm"),
                "cold": self.total_recycles("cold"),
                "holds": self.total_recycles("warm") <= self.total_recycles("cold"),
            },
        ]


def fig_learning(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    runs: int = LEARNING_RUNS,
    store_path: Optional[str] = None,
    cost_model: Optional[SlaCostModel] = None,
) -> LearningScenarioResult:
    """Cross-run calibration learning on the fast memory leak (ISSUE 5).

    ``2 × runs`` experiment runs of the :func:`fig_adaptive` memory
    workload (component A, aggressive leak, heap sized so the no-action
    wall would arrive a third of the way through): run *k* uses seed
    ``seed + k`` in both modes.  *Cold* re-learns the safety horizon from
    scratch every run; *warm* persists each run's converged calibration in
    a :class:`~repro.slo.calibration.CalibrationStore` (at ``store_path``)
    and warm-starts the next run from it.  When ``store_path`` is omitted a
    fresh file under a new temporary directory is used and *deliberately
    left on disk*: the store is an output artifact of the comparison — the
    report prints its path so it can be inspected, and a later invocation
    pointed at it continues learning where this one stopped.  Pass
    ``store_path`` to control (and clean up) the location.  The claim under
    test: the warm sequence's cumulative SLA cost is strictly lower — run
    N+1 skips the conservative early recycles run N already paid to learn
    past.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    if runs < 2:
        raise ValueError(f"the learning comparison needs >= 2 runs, got {runs}")
    duration = 3600.0 * duration_scale
    snapshot_interval = max(2.0, 30.0 * duration_scale)
    microreboot_downtime = max(0.25, 2.0 * duration_scale)
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS
    cost_model = cost_model or SlaCostModel()

    # The fig_adaptive memory sizing: a fast-burning leak whose no-action
    # wall arrives about a third of the way through the run.
    heap_bytes = _fast_leak_heap_bytes(visit_rate, duration)

    if store_path is None:
        store_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-learning-"), "calibration.json"
        )
    store = CalibrationStore(store_path)

    def make_policy() -> AdaptiveRejuvenationPolicy:
        return AdaptiveRejuvenationPolicy(
            predictor_factory=lambda: TheilSenPredictor(min_samples=4),
            base_horizon=duration / 4.0,
            min_horizon=duration / 16.0,
            max_horizon=duration,
            microreboot_downtime=microreboot_downtime,
        )

    # One shared workload spec feeds both the per-run configs and the
    # signature template, so the signature can never drift away from the
    # workload that is actually run.
    def workload_kwargs() -> Dict[str, object]:
        return dict(
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            mix_name="shopping",
            monitored=True,
            faults=[
                FaultSpec(
                    component=COMPONENT_A,
                    kind="memory-leak",
                    params={
                        "leak_bytes": REJUVENATION_LEAK_BYTES,
                        "period_n": REJUVENATION_PERIOD_N,
                    },
                )
            ],
            snapshot_interval=snapshot_interval,
            server_config=ServerConfig(heap_bytes=heap_bytes),
            rejuvenation_channels=["heap"],
        )

    # The signature is seed-independent by construction: the template's
    # name and seed never enter it (an explicit scenario label replaces the
    # per-run names).
    signature = workload_signature(
        ExperimentConfig(name="fig-learning", seed=seed, **workload_kwargs()),
        scenario="fig-learning-memory",
    )

    def make_config(mode: str, run: int, policy: AdaptiveRejuvenationPolicy) -> ExperimentConfig:
        return ExperimentConfig(
            name=f"fig-learning-{mode}-run{run}",
            seed=seed + run,
            rejuvenation=policy,
            calibration_store=store if mode == "warm" else None,
            calibration_signature=signature if mode == "warm" else None,
            **workload_kwargs(),
        )

    results: Dict[str, List[ExperimentResult]] = {mode: [] for mode in LEARNING_MODES}
    policies: Dict[str, List[AdaptiveRejuvenationPolicy]] = {
        mode: [] for mode in LEARNING_MODES
    }
    for run in range(runs):
        for mode in LEARNING_MODES:
            policy = make_policy()
            results[mode].append(run_experiment(make_config(mode, run, policy)))
            policies[mode].append(policy)
    return LearningScenarioResult(
        results=results,
        policies=policies,
        heap_capacity=float(heap_bytes),
        duration=duration,
        runs=runs,
        seed=seed,
        signature=signature,
        store_path=store_path,
        cost_model=cost_model,
    )


# --------------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------------- #
def scope_overhead_ablation(
    duration_scale: float = 0.2,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = 200,
    sample_cost_seconds: float = 2.5e-3,
    monitored_fractions: Optional[List[float]] = None,
) -> List[Dict[str, float]]:
    """Overhead vs. monitoring scope.

    Runs the same constant-load workload with monitoring disabled, with all
    components monitored, and with only a fraction of components monitored
    (the manager deactivates the rest at runtime) — quantifying the benefit
    of the paper's activate/deactivate-on-demand knob.
    """
    duration = 1800.0 * duration_scale
    fractions = monitored_fractions if monitored_fractions is not None else [0.0, 0.5, 1.0]
    # Components ordered by typical shopping-mix usage (most used first), so a
    # fraction of 0.5 keeps the components that dominate the request stream
    # (the worst case for overhead).
    usage_order = [
        "product_detail", "home", "search_request", "search_results", "shopping_cart",
        "new_products", "best_sellers", "customer_registration", "buy_request",
        "buy_confirm", "order_inquiry", "order_display", "admin_request", "admin_confirm",
    ]
    rows: List[Dict[str, float]] = []
    for fraction in fractions:
        monitored = fraction > 0.0
        keep_count = max(1, int(round(len(usage_order) * fraction))) if monitored else 0
        config = ExperimentConfig(
            name=f"scope-ablation-{fraction:.2f}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            monitored=monitored,
            monitored_components=usage_order[:keep_count] if monitored and fraction < 1.0 else None,
            sample_cost_seconds=sample_cost_seconds,
            snapshot_interval=max(30.0, 60.0 * duration_scale),
        )
        result = run_experiment(config)
        rows.append(
            {
                "monitored_fraction": fraction,
                "mean_throughput_rps": round(result.mean_throughput(), 3),
                "mean_response_time_s": round(result.mean_response_time, 4),
                "overhead_seconds": round(result.overhead_seconds, 2),
            }
        )
    return rows


def strategy_ablation(
    scenario: LeakScenarioResult,
    strategies: Optional[List[RootCauseStrategy]] = None,
) -> List[Dict[str, object]]:
    """Compare root-cause strategies on an already-executed leak scenario."""
    if strategies is None:
        strategies = [PaperMapStrategy(), TrendStrategy(), WeightedCompositeStrategy()]
    framework = scenario.result.framework
    if framework is None:
        raise ValueError("the scenario was not run with monitoring enabled")
    resource_map: ResourceComponentMap = framework.manager.map
    rows: List[Dict[str, object]] = []
    for strategy in strategies:
        report = strategy.analyze(resource_map)
        top = report.top()
        rows.append(
            {
                "strategy": strategy.name,
                "ranking": " > ".join(report.ranking()[:4]),
                "top_component": top.component if top else "",
                "top_responsibility": round(top.responsibility, 3) if top else 0.0,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Robustness scenarios (fault zoo + retry storm)
# --------------------------------------------------------------------------- #
#: Client request timeout of the retry-storm comparison: tight enough that
#: the slow-downstream fault drives page times past it within the run.
RETRY_STORM_TIMEOUT_SECONDS = 0.5
#: Injection countdown of the retry-storm fault (aggressive, like the
#: rejuvenation leak).
RETRY_STORM_PERIOD_N = 25
#: The two client stacks the retry-storm scenario compares.
RETRY_STORM_MODES = ("naive", "resilient")

#: The five zoo faults, in benchmark order.
ZOO_FAULT_KINDS = (
    "gc-pause-storm",
    "lock-convoy",
    "slow-downstream",
    "cache-stampede",
    "correlated-cascade",
)


def zoo_fault_spec(kind: str, period_n: int = 10, victim: str = COMPONENT_B) -> FaultSpec:
    """The tuned :class:`FaultSpec` the zoo uses for one fault kind.

    All faults target component A; the cascade additionally degrades
    ``victim`` (component B by default).  Parameters are aggressive enough
    that every fault's observable signature (a significant upward latency
    or resource trend at A) emerges within a short scaled run.
    """
    params: Dict[str, object] = {"period_n": period_n}
    if kind == "gc-pause-storm":
        params.update(pause_seconds=0.3, growth=0.3, max_pause_seconds=6.0)
    elif kind == "lock-convoy":
        params.update(hold_seconds=0.05, growth=0.5, max_hold_seconds=2.0)
    elif kind == "slow-downstream":
        params.update(latency_step_seconds=0.05, max_extra_seconds=5.0)
    elif kind == "cache-stampede":
        params.update(dogpile_size=12, recompute_seconds=0.08, growth=0.3)
    elif kind == "correlated-cascade":
        params.update(
            victim=victim,
            leak_bytes=256 * KB,
            coupling_seconds_per_mb=0.5,
        )
    else:
        raise ValueError(f"unknown zoo fault kind {kind!r} (expected one of {list(ZOO_FAULT_KINDS)})")
    return FaultSpec(component=COMPONENT_A, kind=kind, params=params)


@dataclass
class RetryStormResult:
    """Outcome of the naive-retry vs. backoff+breaker comparison.

    Both runs see the same seed and the same slow-downstream fault; the only
    difference is the client stack.  The claim under test: immediate
    retries against a degrading dependency amplify their own damage (every
    retry is another slow call holding a worker thread), while jittered
    backoff plus a circuit breaker converts expensive failed requests into
    cheap, fast client-side refusals — a strictly lower SLA cost.
    """

    #: Mode name ("naive" / "resilient") -> full experiment result.
    results: Dict[str, ExperimentResult]
    duration: float
    timeout_seconds: float

    def result(self, mode: str) -> ExperimentResult:
        """The run executed under ``mode``."""
        return self.results[mode]

    def sla_observation(self, mode: str) -> SlaObservation:
        """Availability currencies of one mode: a client timeout is a failed
        page view, a breaker/shed refusal is paid refused load."""
        result = self.results[mode]
        return SlaObservation(
            duration_seconds=self.duration,
            downtime_seconds=0.0,
            exposure_seconds=0.0,
            failed_requests=result.error_count + result.client_timeouts,
            refused_requests=result.refused_requests,
        )

    def sla_cost(self, mode: str, cost_model: Optional[SlaCostModel] = None) -> float:
        """Scalar SLA cost of one mode."""
        model = cost_model or SlaCostModel()
        return model.score(self.sla_observation(mode))

    def cost_delta(self) -> float:
        """``cost(naive) - cost(resilient)`` — positive when resilience pays."""
        return self.sla_cost("naive") - self.sla_cost("resilient")

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per mode: ledger, retry behaviour and SLA cost."""
        rows: List[Dict[str, object]] = []
        for mode, result in self.results.items():
            rows.append(
                {
                    "mode": mode,
                    "issued": result.issued_requests,
                    "completed": result.completed_requests,
                    "errors": result.error_count,
                    "timeouts": result.client_timeouts,
                    "retries": result.retry_attempts,
                    "refused": result.refused_requests,
                    "breaker_refusals": result.accounting.get("breaker_refusals", 0),
                    "mean_rt_s": round(result.mean_response_time, 3),
                    "sla_cost": round(self.sla_cost(mode), 1),
                }
            )
        return rows


def fig_retry_storm(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    period_n: int = RETRY_STORM_PERIOD_N,
    timeout_seconds: float = RETRY_STORM_TIMEOUT_SECONDS,
    max_attempts: int = 3,
) -> RetryStormResult:
    """Same-seed naive-retry vs. backoff+breaker runs under a degrading DB.

    A slow-downstream fault on component A inflates its JDBC latency a
    little more on every trigger, pushing A's page times past the client
    timeout mid-run.  The *naive* client retries immediately (retry storm);
    the *resilient* client uses jittered exponential backoff plus a
    per-component circuit breaker.  Both are deterministic per seed.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    duration = 3600.0 * duration_scale
    fault = FaultSpec(
        component=COMPONENT_A,
        kind="slow-downstream",
        params={
            "period_n": period_n,
            "latency_step_seconds": 0.1,
            "max_extra_seconds": 10.0,
        },
    )
    modes: Dict[str, "ResilienceConfig"] = {
        "naive": ResilienceConfig.naive_retries(
            timeout_seconds=timeout_seconds, max_attempts=max_attempts
        ),
        "resilient": ResilienceConfig.backoff_with_breaker(
            timeout_seconds=timeout_seconds,
            max_attempts=max_attempts,
            breaker_failure_threshold=5,
            breaker_recovery_seconds=30.0,
        ),
    }
    results: Dict[str, ExperimentResult] = {}
    for mode, resilience in modes.items():
        config = ExperimentConfig(
            name=f"fig-retry-storm-{mode}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            mix_name="shopping",
            monitored=False,
            collect_blackbox_samples=False,
            faults=[fault],
            resilience=resilience,
        )
        results[mode] = run_experiment(config)
    return RetryStormResult(
        results=results, duration=duration, timeout_seconds=timeout_seconds
    )


@dataclass
class ZooResult:
    """Outcome of the fault-zoo sweep: one monitored run per fault kind.

    Each run records per-component latency so the post-hoc cascade-aware
    strategy can attribute latency-mode faults (which the resource map
    alone cannot see); the cascade fault additionally checks that the
    *leaking* component A outranks its merely-slowed victim B.
    """

    #: Fault kind -> full experiment result, in :data:`ZOO_FAULT_KINDS` order.
    results: Dict[str, ExperimentResult]
    #: Fault kind -> post-hoc cascade-aware root-cause report.
    attributions: Dict[str, RootCauseReport]
    injected_component: str
    cascade_victim: str
    duration: float

    def result(self, kind: str) -> ExperimentResult:
        """The run executed under fault ``kind``."""
        return self.results[kind]

    def top_component(self, kind: str) -> str:
        """The component the attribution blames for fault ``kind``."""
        top = self.attributions[kind].top()
        return top.component if top is not None else ""

    def verdict_rows(self) -> List[Dict[str, object]]:
        """Per-fault attribution verdicts (expected: component A, not B)."""
        rows: List[Dict[str, object]] = []
        for kind in self.results:
            report = self.attributions[kind]
            top = self.top_component(kind)
            claim = f"{kind}: blamed component is {self.injected_component}"
            if kind == "correlated-cascade":
                claim += f" (not victim {self.cascade_victim})"
            rows.append(
                {
                    "claim": claim,
                    "blamed": top or "(none)",
                    "victim_rank": (
                        report.ranking().index(self.cascade_victim) + 1
                        if kind == "correlated-cascade"
                        and self.cascade_victim in report.ranking()
                        else ""
                    ),
                    "holds": top == self.injected_component,
                }
            )
        return rows

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per fault: load outcome and the fault's own counters."""
        rows: List[Dict[str, object]] = []
        for kind, result in self.results.items():
            rows.append(
                {
                    "fault": kind,
                    "completed": result.completed_requests,
                    "errors": result.error_count,
                    "mean_rt_s": round(result.mean_response_time, 3),
                    "blamed": self.top_component(kind),
                    "description": "; ".join(result.fault_descriptions),
                }
            )
        return rows


def fig_zoo(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    period_n: int = 10,
    kinds: Optional[List[str]] = None,
) -> ZooResult:
    """Run the fault zoo: one monitored, latency-tracked run per fault.

    Every run injects a single zoo fault into component A (the cascade also
    couples component B) and asks the cascade-aware strategy, post hoc, who
    is to blame.  Latency-mode faults exercise the latency-trend signal the
    resource map cannot provide; the cascade exercises attribution *under*
    correlated degradation.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    duration = 3600.0 * duration_scale
    snapshot_interval = max(2.0, 30.0 * duration_scale)
    results: Dict[str, ExperimentResult] = {}
    attributions: Dict[str, RootCauseReport] = {}
    for kind in kinds if kinds is not None else list(ZOO_FAULT_KINDS):
        config = ExperimentConfig(
            name=f"fig-zoo-{kind}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            mix_name="shopping",
            monitored=True,
            collect_blackbox_samples=False,
            snapshot_interval=snapshot_interval,
            faults=[zoo_fault_spec(kind, period_n=period_n)],
            track_component_latency=True,
        )
        result = run_experiment(config)
        results[kind] = result
        strategy = CascadeAwareStrategy(result.component_latency)
        attributions[kind] = strategy.analyze(result.framework.manager.map)
    return ZooResult(
        results=results,
        attributions=attributions,
        injected_component=COMPONENT_A,
        cascade_victim=COMPONENT_B,
        duration=duration,
    )


# --------------------------------------------------------------------------- #
# Fleet rejuvenation comparison (tentpole of ISSUE 7)
# --------------------------------------------------------------------------- #
#: Shard count of the fleet comparison.
FLEET_SHARDS = 4

#: Fleet policy labels, in comparison order.
FLEET_MODES = ("no-action", "simultaneous", "rolling")


@dataclass
class FleetScenarioResult:
    """Outcome of the three-mode fleet rejuvenation comparison.

    All three runs drive the same seeded workload through the same sharded
    cluster; only the fleet coordination of the per-shard restart policy
    differs.  SLA accounting is fleet-level: *downtime* is the seconds the
    fleet's available capacity fraction spent below the SLA floor (a rolling
    recycle never gets there, a simultaneous restart parks the whole fleet
    below it), *exposure* sums each shard's time above the heap danger line,
    and failures/refusals are the workload's fleet-wide counters.
    """

    #: Mode -> full experiment result, in comparison order.
    results: Dict[str, ExperimentResult]
    heap_capacity: float
    duration: float
    shards: int
    #: Capacity fraction the fleet must keep serving (``(N-1)/N``: one shard
    #: may be down at a time, never two).
    sla_floor: float

    def result(self, mode: str) -> ExperimentResult:
        """The run executed under ``mode``."""
        return self.results[mode]

    def below_floor_seconds(self, mode: str) -> float:
        """Seconds the fleet spent below the SLA capacity floor."""
        fleet = self.results[mode].fleet
        if fleet is None or fleet.rejuvenation is None:
            return 0.0
        windows = fleet.rejuvenation.windows
        if not windows:
            return 0.0
        boundaries = sorted(
            {0.0, self.duration}
            | {min(t, self.duration) for _, start, end in windows for t in (start, end)}
        )
        below = 0.0
        for left, right in zip(boundaries, boundaries[1:]):
            midpoint = (left + right) / 2.0
            down = sum(1 for _, start, end in windows if start <= midpoint < end)
            if (self.shards - down) / self.shards < self.sla_floor - 1e-12:
                below += right - left
        return below

    def min_capacity_fraction(self, mode: str) -> float:
        """The lowest fraction of shards simultaneously serving."""
        fleet = self.results[mode].fleet
        if fleet is None or fleet.rejuvenation is None:
            return 1.0
        windows = fleet.rejuvenation.windows
        lowest = 1.0
        for _, start, _end in windows:
            midpoint = start + 1e-6
            down = sum(1 for _, s, e in windows if s <= midpoint < e)
            lowest = min(lowest, (self.shards - down) / self.shards)
        return lowest

    def exposure(self, mode: str) -> float:
        """Summed per-shard seconds above 90 % heap occupancy."""
        result = self.results[mode]
        assert result.cluster is not None
        return sum(
            exposure_seconds(
                shard.heap_series(), self.heap_capacity, window_end=self.duration
            )
            for shard in result.cluster.shards
        )

    def sla_observation(self, mode: str) -> SlaObservation:
        """The raw fleet-level availability currencies of one mode."""
        result = self.results[mode]
        return SlaObservation(
            duration_seconds=self.duration,
            downtime_seconds=self.below_floor_seconds(mode),
            exposure_seconds=self.exposure(mode),
            failed_requests=result.error_count,
            refused_requests=result.refused_requests,
        )

    def sla_cost(self, mode: str, cost_model: Optional[SlaCostModel] = None) -> float:
        """Scalar fleet SLA cost of one mode (see :mod:`repro.slo.cost_model`)."""
        model = cost_model or SlaCostModel()
        return model.score(self.sla_observation(mode))

    def rolling_wins(self) -> bool:
        """Whether rolling rejuvenation wins on fleet SLA cost.

        Rolling must cost no more than *every* alternative and strictly less
        than at least one.  On full-length runs both comparisons are strict
        (no-action pays exposure/errors, simultaneous pays the blackout);
        on very short smoke runs no-action may not have aged into any cost
        yet, and a 0.0 == 0.0 tie there is not a loss.
        """
        rolling = self.sla_cost("rolling")
        others = [self.sla_cost("simultaneous"), self.sla_cost("no-action")]
        return all(rolling <= cost for cost in others) and any(
            rolling < cost for cost in others
        )

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per mode: fleet capacity, downtime, exposure and SLA cost."""
        cost_model = SlaCostModel()
        rows: List[Dict[str, object]] = []
        for mode, result in self.results.items():
            fleet = result.fleet
            rejuvenation = fleet.rejuvenation if fleet is not None else None
            observation = self.sla_observation(mode)
            rows.append(
                {
                    "mode": mode,
                    "completed": result.completed_requests,
                    "errors": result.error_count,
                    "refused": result.refused_requests,
                    "actions": rejuvenation.actions if rejuvenation is not None else 0,
                    "deferred": (
                        rejuvenation.deferred_checks if rejuvenation is not None else 0
                    ),
                    "min_capacity_pct": round(100.0 * self.min_capacity_fraction(mode), 1),
                    "below_floor_s": round(self.below_floor_seconds(mode), 2),
                    "exposure_s": round(self.exposure(mode), 1),
                    "failovers": (
                        fleet.balancer["failovers"] if fleet is not None else 0
                    ),
                    "budget_burn": round(cost_model.budget_burn(observation), 2),
                    "sla_cost": round(cost_model.score(observation), 1),
                }
            )
        return rows

    def root_cause_rows(self, mode: str = "no-action") -> List[Dict[str, object]]:
        """The fleet manager's ranked (instance, component) aging rows."""
        fleet = self.results[mode].fleet
        return list(fleet.root_cause_rows) if fleet is not None else []


def fig_fleet(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    shards: int = FLEET_SHARDS,
    ebs: int = LEAK_EXPERIMENT_EBS,
    balancer_policy: str = "sticky",
    leak_bytes: int = REJUVENATION_LEAK_BYTES,
    period_n: int = REJUVENATION_PERIOD_N,
) -> FleetScenarioResult:
    """Three same-seed fleet runs: rolling vs simultaneous vs no action.

    Every shard of the fleet serves its balancer share of the EB population
    and ages under the same component-A leak, sized so the *no-action* fleet
    runs each shard's heap toward exhaustion late in the run.  The same
    workload is then re-run with the per-shard time-based restart policy
    coordinated two ways: *simultaneous* (every shard restarts the moment
    its policy fires — they age in lockstep, so the whole fleet goes dark
    together) and *rolling* (the fleet controller recycles one shard at a
    time, the balancer failing sticky sessions over to the survivors).  The
    restart interval is sized so each shard recycles exactly once.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    if shards < 2:
        raise ValueError(f"a fleet comparison needs at least 2 shards, got {shards}")
    duration = 3600.0 * duration_scale
    snapshot_interval = max(2.0, 30.0 * duration_scale)
    # Per-shard sizing: the balancer splits the EB population, so each shard
    # sees ~1/shards of the measured component-A visit rate.  The fill target
    # is tighter than the single-server scenario's 0.75 because sticky
    # balancing splits sessions unevenly — the slower-leaking shards must
    # still reach the wall within the run for no-action to pay its exposure.
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS / shards
    expected_leak = visit_rate / period_n * leak_bytes * duration
    heap_bytes = int((_BASELINE_LIVE_BYTES + 0.55 * expected_leak) / 0.92)
    restart_downtime = max(2.0, 120.0 * duration_scale)
    results: Dict[str, ExperimentResult] = {}
    for mode in FLEET_MODES:
        rejuvenation: Optional[RejuvenationPolicy] = None
        fleet_mode: Optional[str] = None
        if mode != "no-action":
            # One restart per shard: a second trigger would land past the end
            # of the run.
            rejuvenation = TimeBasedRejuvenationPolicy(
                interval=0.6 * duration, restart_downtime=restart_downtime
            )
            fleet_mode = mode
        config = ExperimentConfig(
            name=f"fig-fleet-{mode}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            mix_name="shopping",
            monitored=True,
            faults=[
                FaultSpec(
                    component=COMPONENT_A,
                    kind="memory-leak",
                    params={"leak_bytes": leak_bytes, "period_n": period_n},
                )
            ],
            snapshot_interval=snapshot_interval,
            server_config=ServerConfig(heap_bytes=heap_bytes),
            shards=shards,
            balancer_policy=balancer_policy,
            rejuvenation=rejuvenation,
            fleet_rejuvenation=fleet_mode,
        )
        results[mode] = run_experiment(config)
    return FleetScenarioResult(
        results=results,
        heap_capacity=float(heap_bytes),
        duration=duration,
        shards=shards,
        sla_floor=(shards - 1) / shards,
    )


# --------------------------------------------------------------------------- #
# Deploy-strategy comparisons: canary deploy and progressive delivery
# --------------------------------------------------------------------------- #
#: Shard count of the canary comparison.
CANARY_SHARDS = 3

#: Deployment strategy labels, in comparison order.
CANARY_MODES = ("no-deploy", "canary", "blind")

#: The leaky build's injection countdown.  Far more aggressive than the
#: paper's N=100 — a botched release that trips over itself within minutes,
#: so the canary bake window sees several injections even on the CI smoke
#: scale (``duration_scale=0.02``).
CANARY_PERIOD_N = 2

#: Bytes each injection of the leaky build retains.
CANARY_LEAK_BYTES = 128 * KB

#: Version label of the leaky release under test.
CANARY_VERSION = "v2-leaky"


@dataclass
class DeployComparisonResult:
    """Shared SLA accounting of the same-seed deploy-strategy comparisons.

    Every run drives the same seeded workload through the same sharded
    cluster; only the :class:`~repro.experiments.deploy.RolloutPlan` for the
    (secretly leaky) v2 build of component A differs.  SLA accounting mirrors
    the fleet scenario: deploy-outage downtime is capacity-weighted, exposure
    sums each shard's time above the heap danger line.
    """

    #: Mode -> full experiment result, in comparison order.
    results: Dict[str, ExperimentResult]
    heap_capacity: float
    duration: float
    shards: int
    component: str
    version: str

    def result(self, mode: str) -> ExperimentResult:
        """The run executed under ``mode``."""
        return self.results[mode]

    def deploy_downtime(self, mode: str) -> float:
        """Capacity-weighted deploy-outage seconds (outage time / shards)."""
        rollout = self.results[mode].rollout
        if rollout is None:
            return 0.0
        return rollout.outage_seconds / self.shards

    def leaky_shards(self, mode: str) -> int:
        """Shards still running the leaky build at the end of the run."""
        rollout = self.results[mode].rollout
        if rollout is None:
            return 0
        return sum(1 for v in rollout.versions.values() if v != BASELINE_VERSION)

    def exposure(self, mode: str) -> float:
        """Summed per-shard seconds above 90 % heap occupancy."""
        result = self.results[mode]
        assert result.cluster is not None
        return sum(
            exposure_seconds(
                shard.heap_series(), self.heap_capacity, window_end=self.duration
            )
            for shard in result.cluster.shards
        )

    def sla_observation(self, mode: str) -> SlaObservation:
        """The raw fleet-level availability currencies of one mode."""
        result = self.results[mode]
        return SlaObservation(
            duration_seconds=self.duration,
            downtime_seconds=self.deploy_downtime(mode),
            exposure_seconds=self.exposure(mode),
            failed_requests=result.error_count,
            refused_requests=result.refused_requests,
        )

    def sla_cost(self, mode: str, cost_model: Optional[SlaCostModel] = None) -> float:
        """Scalar fleet SLA cost of one mode (see :mod:`repro.slo.cost_model`)."""
        model = cost_model or SlaCostModel()
        return model.score(self.sla_observation(mode))

    def _outcome_columns(self, mode: str) -> Dict[str, object]:
        """Scenario-specific summary columns after the rollout outcome."""
        return {}

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per mode: rollout outcome, downtime, exposure, SLA cost."""
        cost_model = SlaCostModel()
        rows: List[Dict[str, object]] = []
        for mode, result in self.results.items():
            rollout = result.rollout
            observation = self.sla_observation(mode)
            row: Dict[str, object] = {
                "mode": mode,
                "completed": result.completed_requests,
                "errors": result.error_count,
                "refused": result.refused_requests,
                "deploys": (
                    sum(1 for e in rollout.events if e["action"] == "deploy")
                    if rollout is not None
                    else 0
                ),
                "rolled_back": rollout.rolled_back if rollout is not None else False,
            }
            row.update(self._outcome_columns(mode))
            row.update(
                {
                    "leaky_shards": self.leaky_shards(mode),
                    "downtime_s": round(self.deploy_downtime(mode), 2),
                    "exposure_s": round(self.exposure(mode), 1),
                    "budget_burn": round(cost_model.budget_burn(observation), 2),
                    "sla_cost": round(cost_model.score(observation), 1),
                }
            )
            rows.append(row)
        return rows


@dataclass
class CanaryScenarioResult(DeployComparisonResult):
    """Outcome of the three-strategy deployment comparison.

    *no-deploy* keeps the baseline everywhere (a control — no feature
    shipped, no cost), *canary* deploys to one shard, bakes, and lets the
    :class:`~repro.experiments.deploy.CanaryAnalyzer` decide from the
    observability plane's shard-level series, *blind* rolls the build to
    every shard on a stagger with no analysis.
    """

    def verdict(self) -> Optional[CanaryVerdict]:
        """The canary run's analyzer verdict (None only if analysis never ran)."""
        rollout = self.results["canary"].rollout
        return rollout.verdict if rollout is not None else None

    def canary_wins(self) -> bool:
        """Whether canary-then-rollback strictly beats the blind rollout.

        Strict, at any duration scale: even if the run is too short for the
        leak to cost exposure or errors, the blind rollout pays a deploy
        outage on *every* shard while the caught canary pays only two
        (deploy + rollback) on one shard — ``2/shards < 1`` of the blind
        downtime whenever ``shards >= 3``.
        """
        return self.sla_cost("canary") < self.sla_cost("blind")


def fig_canary(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    shards: int = CANARY_SHARDS,
    ebs: int = LEAK_EXPERIMENT_EBS,
    leak_bytes: int = CANARY_LEAK_BYTES,
    period_n: int = CANARY_PERIOD_N,
    stream_metrics: Optional[str] = None,
) -> CanaryScenarioResult:
    """Three same-seed deploy runs: no-deploy vs canary vs blind rollout.

    The build under test is a *leaky* v2 of component A (its fault spec
    rides on the :class:`~repro.experiments.deploy.ComponentVersion`).  The
    baseline fleet runs clean; the deployment starts a quarter into the run.
    The canary strategy is the ``(1, N)`` ladder without alert rollback: it
    deploys v2 to the last shard only, bakes while the observability plane
    accumulates shard-level object-size series, and the analyzer compares
    the canary's component-A growth (Mann–Kendall trend + growth ratio vs
    the baseline shards + SLA-burn delta) to decide; a rejected canary is
    rolled back before any other shard is exposed.  The blind strategy is
    the ``(N,)`` ladder: v2 staggers across every shard with no analysis.
    Every run gets a fresh :class:`~repro.obs.registry.MetricsRegistry`;
    ``stream_metrics`` additionally streams the canary run's snapshots to a
    JSONL file.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    if shards < 3:
        raise ValueError(
            f"a canary comparison needs at least 3 shards "
            f"(canary + >=2 baselines), got {shards}"
        )
    duration = 3600.0 * duration_scale
    snapshot_interval = max(2.0, 30.0 * duration_scale)
    deploy_start = 0.25 * duration
    bake = 0.15 * duration
    stagger = 0.05 * duration
    deploy_downtime = max(1.0, 30.0 * duration_scale)
    # Heap sizing mirrors fig_fleet, over the post-deploy window: the blind
    # rollout's per-shard leak must reach the wall within the run so blind
    # pays exposure/errors, while the caught canary (leaking on one shard for
    # only the bake window, ~a fifth of the deployed time) stays safe.
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS / shards
    leak_window = duration - deploy_start
    expected_leak = visit_rate / period_n * leak_bytes * leak_window
    heap_bytes = int((_BASELINE_LIVE_BYTES + 0.55 * expected_leak) / 0.92)
    version = ComponentVersion(
        component=COMPONENT_A,
        version=CANARY_VERSION,
        faults=(
            FaultSpec(
                component=COMPONENT_A,
                kind="memory-leak",
                params={"leak_bytes": leak_bytes, "period_n": period_n},
            ),
        ),
    )
    canary = RolloutPlan(
        version=version,
        start_time=deploy_start,
        stage_sizes=(1, shards),
        stage_bake_seconds=bake,
        stagger_seconds=stagger,
        deploy_downtime_seconds=deploy_downtime,
        alert_rollback=False,
    )
    plans = {
        "no-deploy": None,
        "canary": canary,
        "blind": replace(canary, stage_sizes=(shards,)),
    }
    results: Dict[str, ExperimentResult] = {}
    for mode in CANARY_MODES:
        config = ExperimentConfig(
            name=f"fig-canary-{mode}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            mix_name="shopping",
            monitored=True,
            faults=[],
            snapshot_interval=snapshot_interval,
            server_config=ServerConfig(heap_bytes=heap_bytes),
            shards=shards,
            balancer_policy="sticky",
            rollout=plans[mode],
            metrics_registry=MetricsRegistry(),
            stream_metrics=stream_metrics if mode == "canary" else None,
        )
        results[mode] = run_experiment(config)
    return CanaryScenarioResult(
        results=results,
        heap_capacity=float(heap_bytes),
        duration=duration,
        shards=shards,
        component=COMPONENT_A,
        version=CANARY_VERSION,
    )


#: Shard count of the staged-rollout comparison (the default ladder resolves
#: to 1 → 2 → 4 shards).
ROLLOUT_SHARDS = 4

#: Rollout strategy labels, in comparison order.
ROLLOUT_MODES = ("staged", "single-canary", "blind")

#: Fraction of the leak the bake window is expected to accumulate before the
#: aging alert fires: the per-shard alert threshold is this fraction of the
#: leak growth one full bake window produces, so the alert-driven ruling
#: lands mid-bake (ahead of the deadline) at any duration scale.
ROLLOUT_ALERT_BAKE_FRACTION = 0.5


@dataclass
class RolloutScenarioResult(DeployComparisonResult):
    """Outcome of the three-strategy progressive-delivery comparison.

    *staged* walks the default stage ladder with per-stage analysis and
    alert-driven rollback, *single-canary* is the ``(1, N)`` ladder without
    alert rollback (the canary scenario's strategy), *blind* staggers the
    build across every shard with no analysis.
    """

    #: The staged run's resolved stage ladder.
    ladder: Tuple[int, ...]

    def staged_report(self) -> RolloutReport:
        """The staged run's rollout report."""
        return self.results["staged"].rollout

    def ruling_trigger(self) -> Optional[str]:
        """What fired the staged run's first ruling (``"alert"``/``"deadline"``)."""
        for stage in self.staged_report().stages:
            if "trigger" in stage:
                return str(stage["trigger"])
        return None

    def ruled_at(self) -> Optional[float]:
        """Sim time of the staged run's first ruling."""
        for stage in self.staged_report().stages:
            if "ruled_at" in stage:
                return float(stage["ruled_at"])
        return None

    def deadline_at(self) -> Optional[float]:
        """When the staged run's first stage deadline would have ruled."""
        stages = self.staged_report().stages
        if not stages:
            return None
        bake = self.results["staged"].config.rollout.stage_bake_seconds
        return float(stages[0]["deployed_at"]) + bake

    def max_exposed_shards(self, mode: str = "staged") -> int:
        """Most shards simultaneously on the new build under ``mode``."""
        rollout = self.results[mode].rollout
        return rollout.max_concurrent_deploys() if rollout is not None else 0

    def _outcome_columns(self, mode: str) -> Dict[str, object]:
        return {"max_exposed": self.max_exposed_shards(mode)}

    def blast_radius_ok(self) -> bool:
        """Whether the staged run never exposed more than the active stage.

        The bad build must be caught while only stage 1's shards carry it,
        so the peak concurrent deployment of the staged run is bounded by
        the first rung of the ladder.
        """
        return self.max_exposed_shards("staged") <= self.ladder[0]

    def staged_wins(self) -> bool:
        """staged <= single-canary <= blind on SLA cost, staged strictly best.

        The staged pipeline pays at most the single-canary's price (same
        first-stage blast radius, and the alert ruling can only shorten the
        bad build's residence time) while the blind rollout pays a deploy
        outage *and* the leak on every shard.
        """
        staged = self.sla_cost("staged")
        single = self.sla_cost("single-canary")
        blind = self.sla_cost("blind")
        return staged <= single <= blind and staged < blind and self.blast_radius_ok()


def fig_rollout(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    shards: int = ROLLOUT_SHARDS,
    ebs: int = LEAK_EXPERIMENT_EBS,
    leak_bytes: int = CANARY_LEAK_BYTES,
    period_n: int = CANARY_PERIOD_N,
    stream_metrics: Optional[str] = None,
) -> RolloutScenarioResult:
    """Three same-seed deploy runs: staged ladder vs single canary vs blind.

    The build under test is the same leaky v2 of component A the canary
    scenario ships.  The *staged* strategy walks the default 1 → ⌈N/2⌉ → N
    ladder with per-stage analysis; its per-shard aging-alert threshold is
    lowered to :data:`ROLLOUT_ALERT_BAKE_FRACTION` of one bake window's
    expected leak, so the deployed shard's manager crosses it mid-bake and
    the aging-suspect notification triggers the analyzer ruling *before*
    the bake deadline (alert-driven rollback) — the not-yet-deployed shards
    never cross it in a clean run.  ``stream_metrics`` records the staged
    run's snapshots (including the ``rollout_series`` replay block) to a
    JSONL file for `repro replay`.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    if shards < 3:
        raise ValueError(
            f"a staged-rollout comparison needs at least 3 shards "
            f"(a stage + >=2 baselines), got {shards}"
        )
    duration = 3600.0 * duration_scale
    snapshot_interval = max(2.0, 30.0 * duration_scale)
    deploy_start = 0.25 * duration
    bake = 0.15 * duration
    stagger = 0.05 * duration
    deploy_downtime = max(1.0, 30.0 * duration_scale)
    # Heap and leak sizing mirror fig_canary at this shard count.
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS / shards
    leak_window = duration - deploy_start
    expected_leak = visit_rate / period_n * leak_bytes * leak_window
    heap_bytes = int((_BASELINE_LIVE_BYTES + 0.55 * expected_leak) / 0.92)
    # One bake window's worth of leak on the deployed shard, scaled down so
    # the alert fires while the stage is still baking.
    leak_rate = visit_rate / period_n * leak_bytes
    alert_bytes = ROLLOUT_ALERT_BAKE_FRACTION * leak_rate * bake
    version = ComponentVersion(
        component=COMPONENT_A,
        version=CANARY_VERSION,
        faults=(
            FaultSpec(
                component=COMPONENT_A,
                kind="memory-leak",
                params={"leak_bytes": leak_bytes, "period_n": period_n},
            ),
        ),
    )
    staged = RolloutPlan(
        version=version,
        start_time=deploy_start,
        stage_bake_seconds=bake,
        stagger_seconds=stagger,
        deploy_downtime_seconds=deploy_downtime,
        alert_rollback=True,
    )
    plans = {
        "staged": staged,
        "single-canary": replace(staged, stage_sizes=(1, shards), alert_rollback=False),
    }
    plans["blind"] = replace(plans["single-canary"], stage_sizes=(shards,))
    results: Dict[str, ExperimentResult] = {}
    for mode in ROLLOUT_MODES:
        config = ExperimentConfig(
            name=f"fig-rollout-{mode}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            mix_name="shopping",
            monitored=True,
            faults=[],
            snapshot_interval=snapshot_interval,
            server_config=ServerConfig(heap_bytes=heap_bytes),
            shards=shards,
            balancer_policy="sticky",
            rollout=plans[mode],
            # Every mode runs the same framework settings so the runs differ
            # only in rollout strategy; the lowered alert threshold changes
            # behaviour only where a listener acts on it (the staged run).
            alert_growth_bytes=alert_bytes,
            metrics_registry=MetricsRegistry(),
            stream_metrics=stream_metrics if mode == "staged" else None,
        )
        results[mode] = run_experiment(config)
    return RolloutScenarioResult(
        results=results,
        heap_capacity=float(heap_bytes),
        duration=duration,
        shards=shards,
        component=COMPONENT_A,
        version=CANARY_VERSION,
        ladder=staged.ladder(shards),
    )


# --------------------------------------------------------------------------- #
# Hybrid fluid/discrete scale validation (tentpole of ISSUE 9)
# --------------------------------------------------------------------------- #
#: Shard count of the scale comparison (two shards exercise the balancer and
#: per-shard fluid feeds without inflating the discrete reference run).
SCALE_SHARDS = 2

#: Run labels, in comparison order.
SCALE_MODES = ("discrete", "hybrid", "hybrid-scaled")

#: Population multiplier of the scaled hybrid run.
SCALE_POPULATION_FACTOR = 100

#: Tracer fraction of both hybrid runs.  2 % keeps the scaled run's discrete
#: tracer population (and hence its event count) small enough that the
#: extrapolated event-reduction target is met with head-room.
SCALE_TRACER_FRACTION = 0.02

#: Minimum extrapolated discrete-event reduction the scaled hybrid run must
#: deliver: ``discrete-1x events * factor / scaled hybrid events``.
SCALE_EVENT_REDUCTION_TARGET = 20.0


@dataclass
class ScaleScenarioResult:
    """Outcome of the three-run hybrid scale validation.

    The *discrete* and *hybrid* runs drive the identical seeded workload at
    1x population; their agreement (throughput, heap exhaustion trend,
    rejuvenation decisions) is what licenses the *hybrid-scaled* run, which
    multiplies the bulk population by :data:`SCALE_POPULATION_FACTOR` while
    only the tracer slice flows through the discrete servlet/SQL path.  The
    scaled run's claim is an event-count one: it must execute at least
    :data:`SCALE_EVENT_REDUCTION_TARGET` times fewer discrete events than a
    full-discrete run at the same population would (extrapolated linearly
    from the measured 1x event count — discrete event volume is dominated by
    per-request events and scales with the EB population).
    """

    #: Mode -> full experiment result, in :data:`SCALE_MODES` order.
    results: Dict[str, ExperimentResult]
    heap_capacity: float
    scaled_heap_capacity: float
    duration: float
    shards: int
    ebs: int
    population_factor: int

    def result(self, mode: str) -> ExperimentResult:
        """The run executed under ``mode``."""
        return self.results[mode]

    def rejuvenation_action_times(self, mode: str) -> List[float]:
        """Sorted action times across every shard's controller."""
        result = self.results[mode]
        assert result.cluster is not None
        times: List[float] = []
        for shard in result.cluster.shards:
            if shard.controller is None:
                continue
            times.extend(event.time for event in shard.controller.report().events)
        return sorted(times)

    def throughput_rel_diff(self) -> float:
        """Relative 1x throughput disagreement, ``|hybrid - discrete| / discrete``."""
        reference = self.results["discrete"].mean_throughput()
        if reference <= 0.0:
            return 0.0
        return abs(self.results["hybrid"].mean_throughput() - reference) / reference

    def exhaustion_time(self, mode: str) -> Optional[float]:
        """Earliest per-shard (realized or extrapolated) heap exhaustion time."""
        result = self.results[mode]
        assert result.cluster is not None
        capacity = (
            self.scaled_heap_capacity if mode == "hybrid-scaled" else self.heap_capacity
        )
        times = [
            extrapolated_exhaustion_time(shard.heap_series(), capacity)
            for shard in result.cluster.shards
        ]
        times = [t for t in times if t is not None]
        return min(times) if times else None

    def event_reduction(self) -> float:
        """Extrapolated discrete-event reduction of the scaled hybrid run."""
        scaled_events = self.results["hybrid-scaled"].executed_events
        if scaled_events <= 0:
            return 0.0
        extrapolated = self.results["discrete"].executed_events * self.population_factor
        return extrapolated / scaled_events

    # -- tolerance bands ---------------------------------------------------- #
    def throughput_within_band(self) -> bool:
        """1x throughput agreement within :data:`HYBRID_THROUGHPUT_TOLERANCE`."""
        return self.throughput_rel_diff() <= HYBRID_THROUGHPUT_TOLERANCE

    def exhaustion_within_band(self) -> bool:
        """1x exhaustion-trend agreement within the factor-of-two band.

        Vacuously true when *neither* run shows an exhaustion trend (a smoke
        run may end before the leak produces a usable slope); a trend visible
        in exactly one of the two runs is a disagreement.
        """
        discrete = self.exhaustion_time("discrete")
        hybrid = self.exhaustion_time("hybrid")
        if discrete is None and hybrid is None:
            return True
        if discrete is None or hybrid is None:
            return False
        return within_tolerance(discrete, hybrid, HYBRID_TTE_TOLERANCE_FACTOR)

    def decisions_within_band(self) -> bool:
        """1x rejuvenation-decision agreement (count slack + first-action time)."""
        discrete = self.rejuvenation_action_times("discrete")
        hybrid = self.rejuvenation_action_times("hybrid")
        if abs(len(discrete) - len(hybrid)) > HYBRID_DECISION_COUNT_SLACK:
            return False
        if discrete and hybrid:
            return within_tolerance(
                discrete[0], hybrid[0], HYBRID_DECISION_TIME_FACTOR
            )
        return True

    def reduction_within_band(self) -> bool:
        """Scaled-run event reduction meets :data:`SCALE_EVENT_REDUCTION_TARGET`."""
        return self.event_reduction() >= SCALE_EVENT_REDUCTION_TARGET

    def within_bands(self) -> bool:
        """Every validation band at once (the CI gate)."""
        return (
            self.throughput_within_band()
            and self.exhaustion_within_band()
            and self.decisions_within_band()
            and self.reduction_within_band()
        )

    def band_rows(self) -> List[Dict[str, object]]:
        """One row per validation band: measured value, bound, verdict."""
        discrete_tte = self.exhaustion_time("discrete")
        hybrid_tte = self.exhaustion_time("hybrid")
        discrete_actions = self.rejuvenation_action_times("discrete")
        hybrid_actions = self.rejuvenation_action_times("hybrid")
        return [
            {
                "band": "throughput",
                "measured": round(self.throughput_rel_diff(), 4),
                "bound": f"rel diff <= {HYBRID_THROUGHPUT_TOLERANCE}",
                "ok": self.throughput_within_band(),
            },
            {
                "band": "exhaustion",
                "measured": (
                    f"discrete={discrete_tte and round(discrete_tte, 1)} "
                    f"hybrid={hybrid_tte and round(hybrid_tte, 1)}"
                ),
                "bound": f"factor <= {HYBRID_TTE_TOLERANCE_FACTOR}",
                "ok": self.exhaustion_within_band(),
            },
            {
                "band": "decisions",
                "measured": (
                    f"discrete={len(discrete_actions)} hybrid={len(hybrid_actions)}"
                ),
                "bound": (
                    f"count +-{HYBRID_DECISION_COUNT_SLACK}, "
                    f"first-action factor <= {HYBRID_DECISION_TIME_FACTOR}"
                ),
                "ok": self.decisions_within_band(),
            },
            {
                "band": "event-reduction",
                "measured": round(self.event_reduction(), 1),
                "bound": f">= {SCALE_EVENT_REDUCTION_TARGET}x",
                "ok": self.reduction_within_band(),
            },
        ]

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per run: population, events, throughput, fluid activity."""
        rows: List[Dict[str, object]] = []
        for mode, result in self.results.items():
            fluid = result.fluid
            rows.append(
                {
                    "mode": mode,
                    "ebs": result.config.constant_ebs,
                    "completed": result.completed_requests,
                    "executed_events": result.executed_events,
                    "throughput_rps": round(result.mean_throughput(), 3),
                    "actions": len(self.rejuvenation_action_times(mode)),
                    "bulk_completions": (
                        round(fluid.bulk_completions, 1) if fluid is not None else 0.0
                    ),
                    "fluid_updates": fluid.updates if fluid is not None else 0,
                }
            )
        return rows


def fig_scale(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    shards: int = SCALE_SHARDS,
    ebs: int = LEAK_EXPERIMENT_EBS,
    population_factor: int = SCALE_POPULATION_FACTOR,
    tracer_fraction: float = SCALE_TRACER_FRACTION,
    leak_bytes: int = REJUVENATION_LEAK_BYTES,
    period_n: int = REJUVENATION_PERIOD_N,
) -> ScaleScenarioResult:
    """Three same-seed runs validating the hybrid engine, then scaling it.

    The first two runs are the 1x cross-check: a full-discrete fleet and a
    hybrid fleet (bulk population as a fluid process, ``tracer_fraction`` of
    the EBs on the real servlet/SQL path), both aging under the same
    component-A leak with the proactive micro-reboot policy live.  The third
    run multiplies the hybrid population by ``population_factor`` (heap
    scaled with it, so exhaustion dynamics stay comparable) — a population
    no practical full-discrete run could serve, which is exactly the claim
    the event-reduction band quantifies.
    """
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be positive, got {duration_scale}")
    if shards < 2:
        raise ValueError(f"the scale comparison needs at least 2 shards, got {shards}")
    if population_factor < 2:
        raise ValueError(f"population_factor must be >= 2, got {population_factor}")
    duration = 3600.0 * duration_scale
    snapshot_interval = max(2.0, 30.0 * duration_scale)
    # Heap sizing mirrors fig_fleet: each shard's balancer share of the
    # component-A visit rate leaks toward the wall late in the run, so the
    # proactive policy has a real trend to act on in every mode.
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS / shards
    expected_leak = visit_rate / period_n * leak_bytes * duration
    heap_bytes = int((_BASELINE_LIVE_BYTES + 0.55 * expected_leak) / 0.92)
    scaled_heap_bytes = int(
        (_BASELINE_LIVE_BYTES + 0.55 * expected_leak * population_factor) / 0.92
    )
    results: Dict[str, ExperimentResult] = {}
    for mode in SCALE_MODES:
        scaled = mode == "hybrid-scaled"
        config = ExperimentConfig(
            name=f"fig-scale-{mode}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs * population_factor if scaled else ebs,
            duration=duration,
            mix_name="shopping",
            monitored=True,
            faults=[
                FaultSpec(
                    component=COMPONENT_A,
                    kind="memory-leak",
                    params={"leak_bytes": leak_bytes, "period_n": period_n},
                )
            ],
            snapshot_interval=snapshot_interval,
            server_config=ServerConfig(
                heap_bytes=scaled_heap_bytes if scaled else heap_bytes
            ),
            shards=shards,
            balancer_policy="sticky",
            rejuvenation=ProactiveRejuvenationPolicy(
                horizon=0.5 * duration,
                microreboot_downtime=max(0.5, 2.0 * duration_scale),
            ),
            simulation_mode="discrete" if mode == "discrete" else "hybrid",
            tracer_fraction=tracer_fraction,
        )
        results[mode] = run_experiment(config)
    return ScaleScenarioResult(
        results=results,
        heap_capacity=float(heap_bytes),
        scaled_heap_capacity=float(scaled_heap_bytes),
        duration=duration,
        shards=shards,
        ebs=ebs,
        population_factor=population_factor,
    )
