"""The paper's experiments (Figs. 3-7), the multi-run comparisons and ablations.

Every scenario takes a ``duration_scale`` so that benchmarks and tests can
run a faithful-but-shorter version of the paper's one-hour experiments; the
full-length runs use ``duration_scale=1.0``.  Component naming follows the
paper: *A* and *B* are the two heavily (and similarly) used components, *C*
a moderately used one, and *D* the rarely used one whose injected leak never
fires.  Every scenario is data: each builder (the paper's figures, the
multi-run comparisons and the scope ablation) returns a :class:`Comparison`
without running anything, and :data:`COMPARISONS` lists the registered ones.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.rejuvenation import (
    NoActionPolicy,
    ProactiveRejuvenationPolicy,
    RejuvenationPolicy,
    TimeBasedRejuvenationPolicy,
    exposure_seconds,
)
from repro.container.resilience import ResilienceConfig
from repro.container.server import ServerConfig
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
    ComponentVersion,
    RolloutPlan,
    RolloutReport,
)
from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.faults.injector import FaultSpec
from repro.faults.memory_leak import KB, MB
from repro.sim.metrics import TimeSeries
from repro.slo.adaptive_policy import AdaptiveRejuvenationPolicy
from repro.slo.analytic import (
    HYBRID_DECISION_COUNT_SLACK,
    HYBRID_DECISION_TIME_FACTOR,
    HYBRID_THROUGHPUT_TOLERANCE,
    HYBRID_TTE_TOLERANCE_FACTOR,
    TTE_TOLERANCE_FACTOR,
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
# Multi-run comparisons as data
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Table:
    """One extra report table of a comparison (the report skips it when empty)."""

    caption: str
    rows: List[Dict[str, object]]
    #: Column order; ``None`` keeps the first row's keys.
    columns: Optional[List[str]] = None
    #: Free-text lines printed under the table.
    notes: Tuple[str, ...] = ()


@dataclass
class Comparison:
    """Same-seed runs that differ in a few config fields, scored alike.

    Every comparison builder in :data:`COMPARISONS` does its sizing math and
    returns one of these without running anything: the ordered
    ``mode -> config`` map plus the per-scenario pieces that score,
    tabulate and judge the runs.  :meth:`run` executes the configs in order;
    one result type, one report renderer
    (:func:`repro.experiments.reporting.comparison_report`) and one CLI
    handler serve every comparison.
    """

    title: str
    expectation: str
    #: Context lines under the expectation (sizing, run length, ...).
    context: List[str]
    #: Mode -> the run's config, in execution order.
    configs: Dict[str, ExperimentConfig]
    #: One run's availability currencies; reads duration, capacities and
    #: shard count off the run's own config.
    observe: Callable[[ExperimentResult], SlaObservation]
    #: Caption of the per-mode summary table.
    caption: str
    #: The summary table's columns, in order (keys of :data:`SUMMARY_COLUMNS`).
    columns: Tuple[str, ...]
    #: Extra report tables by key, in print order.
    tables: Optional[Callable[["ComparisonResult"], Dict[str, Table]]] = None
    #: ``(claim, predicate)``: the predicate's verdict sets the CLI exit code;
    #: ``None`` for comparisons that report verdicts without gating on them.
    claim: Optional[Tuple[str, Callable[["ComparisonResult"], bool]]] = None
    cost_model: SlaCostModel = field(default_factory=SlaCostModel)
    #: Report the SLA columns unrounded (the ablation matrix ranks its
    #: cells by cost differences finer than the display rounding).
    exact: bool = False

    def __post_init__(self) -> None:
        # A bad config fails here, before any run starts.
        for config in self.configs.values():
            config.validate()

    def run(
        self, jobs: int = 1, progress: Callable[[str], None] = lambda mode: None
    ) -> "ComparisonResult":
        """Execute every config, in order.

        ``jobs > 1`` fans the runs out over a process pool.  Each run is an
        independent seeded simulation and the pool's ``map`` keeps
        submission order, so the results equal a serial run's, except that
        they come back without their live ``cluster`` (see
        :func:`_detached_run`).  A pool refuses configs carrying inputs a
        run writes back into (a calibration store, a metrics registry): a
        worker would write into its own copy.  ``progress`` gets each mode
        before it runs (every mode up front under a pool).
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if jobs > 1 and any(
            config.calibration_store is not None or config.metrics_registry is not None
            for config in self.configs.values()
        ):
            raise ValueError(
                "a calibration store or metrics registry is written by its runs, "
                "so they run serially (jobs=1)"
            )
        if jobs == 1:
            results = {}
            for mode, config in self.configs.items():
                progress(mode)
                results[mode] = run_experiment(config)
            return ComparisonResult(self, results)
        for mode in self.configs:
            progress(mode)
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(min(jobs, len(self.configs)), mp_context=spawn) as pool:
            runs = pool.map(_detached_run, self.configs.values())
            return ComparisonResult(self, dict(zip(self.configs, runs)))


def _detached_run(config: ExperimentConfig) -> ExperimentResult:
    """One pool worker's run: the result without its one live handle,
    ``cluster``, which does not cross the process boundary."""
    return replace(run_experiment(config), cluster=None)


@dataclass
class ComparisonResult:
    """The executed runs of one :class:`Comparison`."""

    comparison: Comparison
    #: Mode -> full experiment result, in execution order.
    results: Dict[str, ExperimentResult]

    def result(self, mode: str) -> ExperimentResult:
        """The run executed under ``mode``."""
        return self.results[mode]

    def sla_observation(self, mode: str) -> SlaObservation:
        """The raw availability currencies of one run."""
        return self.comparison.observe(self.results[mode])

    def sla_cost(self, mode: str) -> float:
        """Scalar SLA cost of one run (see :mod:`repro.slo.cost_model`)."""
        return self.comparison.cost_model.score(self.sla_observation(mode))

    def summary_rows(self) -> List[Dict[str, object]]:
        """One summary row per mode, in execution order."""
        columns = self.comparison.columns
        return [{name: SUMMARY_COLUMNS[name](self, mode) for name in columns} for mode in self.results]

    def tables(self) -> Dict[str, Table]:
        """The comparison's extra report tables."""
        tables = self.comparison.tables
        return tables(self) if tables is not None else {}

    def claim_row(self) -> Optional[Dict[str, object]]:
        """The claim and whether it holds (``None`` without a claim)."""
        if self.comparison.claim is None:
            return None
        text, predicate = self.comparison.claim
        return {"claim": text, "holds": predicate(self)}

    def holds(self) -> bool:
        """Whether the claim holds (vacuously true without one)."""
        row = self.claim_row()
        return row is None or bool(row["holds"])


def _actions(result: ExperimentResult) -> int:
    """Executed rejuvenation actions of one run, summed over its shards."""
    return sum(report.actions for report in result.shard_rejuvenation)


#: Rejuvenation channel -> (the ``"<jvm>"`` series it watches, the
#: :class:`ServerConfig` field bounding that resource).
_CHANNELS = {
    "heap": ("heap_used", "heap_bytes"),
    "threads": ("threads_total", "thread_capacity"),
    "connections": ("connections_active", "pool_size"),
}


def watched_series(result: ExperimentResult) -> Tuple[TimeSeries, float]:
    """A monitored run's series of its first rejuvenation channel (the heap
    by default) and the configured capacity that series exhausts against."""
    metric, bound = _CHANNELS[(result.config.rejuvenation_channels or ["heap"])[0]]
    series = result.resource_map.series("<jvm>", metric)
    return series, float(getattr(result.config.server_config, bound))


def rejuvenation_observation(result: ExperimentResult) -> SlaObservation:
    """One single-server run's availability currencies.

    Shared by every rejuvenation comparison so downtime/refusal accounting
    can never diverge between reports: downtime and refusals come from the
    controller's report (zero without one), failures from the workload's
    error count, exposure from the seconds the watched series spent above
    90 % of its capacity.
    """
    series, capacity = watched_series(result)
    report = result.rejuvenation
    return SlaObservation(
        duration_seconds=result.config.duration,
        downtime_seconds=report.total_downtime_seconds if report is not None else 0.0,
        exposure_seconds=exposure_seconds(series, capacity, window_end=result.config.duration),
        failed_requests=result.error_count,
        refused_requests=report.refused_requests if report is not None else 0,
    )


def client_observation(result: ExperimentResult) -> SlaObservation:
    """Availability currencies as the clients see them: a timeout is a failed
    page view, every refusal (breaker, shedder or rejuvenation outage) is
    paid refused load once, and the rejuvenation controller's downtime
    (zero without one) is downtime."""
    report = result.rejuvenation
    return SlaObservation(
        duration_seconds=result.config.duration,
        downtime_seconds=report.total_downtime_seconds if report is not None else 0.0,
        exposure_seconds=0.0,
        failed_requests=result.error_count + result.client_timeouts,
        refused_requests=result.refused_requests,
    )


def _base_config(
    duration_scale: float, seed: int, scale: Optional[PopulationScale], ebs: int, **fields: object
) -> ExperimentConfig:
    """The shape every monitored comparison run shares: ``ebs`` constant EBs
    under the shopping mix for ``3600 * duration_scale`` seconds, sampled
    every ``max(2, 30 * duration_scale)`` seconds."""
    return ExperimentConfig(
        seed=seed,
        scale=scale,
        constant_ebs=ebs,
        duration=3600.0 * duration_scale,
        snapshot_interval=max(2.0, 30.0 * duration_scale),
        **fields,
    )


def _run_length(duration_scale: float) -> float:
    """Seconds of a comparison run: ``duration_scale`` of the paper's hour."""
    if not 0 < duration_scale < math.inf:
        raise ValueError(f"duration_scale must be positive and finite, got {duration_scale}")
    return 3600.0 * duration_scale


# --------------------------------------------------------------------------- #
# The paper's figures: Fig. 3 (overhead) and the leak scenarios of Figs. 4-7
# --------------------------------------------------------------------------- #
#: The paper's four leak components, in paper order (Figs. 5 and 7 report them).
PAPER_COMPONENTS = (COMPONENT_A, COMPONENT_B, COMPONENT_C, COMPONENT_D)

#: Summary columns of the paper's figures: each run's load and monitoring cost.
_FIGURE_COLUMNS = (
    "mode", "completed", "errors", "mean_throughput_rps", "mean_response_time_s",
    "overhead_seconds",
)

#: Where every figure's claim holds, on the tiny and the standard population
#: (at tiny ``duration_scale=0.02`` each fails for at least one of the seeds).
_FIGURE_RANGE = "holds at duration_scale 0.05 and 0.1, seeds 7, 11, 42, 2026"


def downsample_series(series: TimeSeries, points: int = 20) -> List[Tuple[float, float]]:
    """Every ``len(series) // points``-th ``(time, value)`` sample, the first
    included: the ~``points`` samples a printed curve shows."""
    stride = max(1, len(series) // points)
    return list(zip(series.times[::stride].tolist(), series.values[::stride].tolist()))


def phase_times(scenario: ComparisonResult) -> Tuple[float, float, float]:
    """Fig. 3's phase boundaries (s): warm-up end, mid-load end, run end."""
    config = scenario.result("monitored").config
    return config.phases[1].start_time, config.phases[2].start_time, config.duration


def throughput_pair(
    scenario: ComparisonResult, start: float, end: Optional[float]
) -> Dict[str, float]:
    """Mean throughput of Fig. 3's runs over ``[start, end]``, by mode."""
    return {mode: result.mean_throughput(start, end) for mode, result in scenario.results.items()}


def overhead_percent(scenario: ComparisonResult) -> float:
    """Fig. 3's post-warm-up throughput penalty of monitoring, in percent
    (paper: ≈5 %)."""
    pair = throughput_pair(scenario, phase_times(scenario)[0], None)
    reference = pair["unmonitored"]
    return 100.0 * (reference - pair["monitored"]) / reference if reference > 0 else 0.0


def _fig3_tables(scenario: ComparisonResult) -> Dict[str, Table]:
    warmup_end, mid_end, end = phase_times(scenario)
    phases = scenario.result("monitored").config.phases
    monitored = dict(scenario.result("monitored").throughput.to_rows())
    unmonitored = downsample_series(scenario.result("unmonitored").throughput)
    return {
        "phases": Table(
            "throughput per phase (requests/s)",
            [
                {
                    "phase": label,
                    **{
                        f"{mode}_rps": round(rps, 2)
                        for mode, rps in throughput_pair(scenario, start, stop).items()
                    },
                }
                for label, start, stop in (
                    (f"{phases[1].eb_count} EBs", warmup_end, mid_end),
                    (f"{phases[2].eb_count} EBs", mid_end, end),
                    ("overall (post warm-up)", warmup_end, end),
                )
            ],
            notes=(f"measured overhead (post warm-up): {overhead_percent(scenario):.2f} %",),
        ),
        "throughput": Table(
            "throughput series (requests/s per window)",
            [
                {
                    "time_s": round(time, 1),
                    "unmonitored_rps": round(rps, 3),
                    "monitored_rps": round(monitored.get(time, 0.0), 3),
                }
                for time, rps in unmonitored
            ],
        ),
    }


def _fig3_holds(scenario: ComparisonResult) -> bool:
    warmup_end, mid_end, end = phase_times(scenario)
    mid = throughput_pair(scenario, warmup_end, mid_end)
    high = throughput_pair(scenario, mid_end, end)
    monitored, unmonitored = scenario.result("monitored"), scenario.result("unmonitored")
    return (
        all(high[mode] > 1.5 * mid[mode] for mode in scenario.results)
        and -2.0 <= overhead_percent(scenario) <= 12.0
        and monitored.overhead_seconds > 0
        and monitored.monitoring_samples > 0
        and unmonitored.overhead_seconds == 0.0
    )


def fig3_overhead(
    duration_scale: float = 1.0,
    seed: int = 42,
    warmup_ebs: int = 50,
    mid_ebs: int = 100,
    high_ebs: int = 200,
    scale: Optional[PopulationScale] = None,
) -> Comparison:
    """Fig. 3: TPC-W throughput with and without monitoring.

    The paper's schedule: 2 minutes at 50 EBs (warm-up), 30 minutes at
    100 EBs, 30 minutes at 200 EBs, all under the shopping mix, no fault
    injected.  Both runs (modes ``unmonitored`` and ``monitored``) use the
    same seed so they see the same workload.
    """
    _run_length(duration_scale)
    warmup = 120.0 * duration_scale
    phase = 1800.0 * duration_scale
    base = ExperimentConfig(
        seed=seed,
        scale=scale,
        phases=[
            WorkloadPhase(0.0, warmup_ebs),
            WorkloadPhase(warmup, mid_ebs),
            WorkloadPhase(warmup + phase, high_ebs),
        ],
        duration=warmup + 2 * phase,
        snapshot_interval=max(30.0, 60.0 * duration_scale),
    )
    return Comparison(
        title="Fig. 3: TPC-W throughput, monitored vs. unmonitored",
        expectation="monitoring all components costs ≈5 % throughput",
        context=[
            f"schedule: {warmup_ebs} EBs for {warmup:.0f} s (warm-up), then {mid_ebs} "
            f"and {high_ebs} EBs for {phase:.0f} s each"
        ],
        configs={
            mode: replace(base, name=f"fig3-{mode}", monitored=mode == "monitored")
            for mode in ("unmonitored", "monitored")
        },
        observe=client_observation,
        caption="per-run load and monitoring cost",
        columns=_FIGURE_COLUMNS,
        tables=_fig3_tables,
        claim=(
            "overhead -2..12 % after warm-up (paper: ≈5 %), both runs > 1.5x "
            f"throughput from {mid_ebs} to {high_ebs} EBs, only the monitored run "
            f"pays for samples; {_FIGURE_RANGE}",
            _fig3_holds,
        ),
    )


def _leak_tables(
    scenario: ComparisonResult, components: Optional[Tuple[str, ...]] = PAPER_COMPONENTS
) -> Dict[str, Table]:
    """The curves of a leak figure's one run: growth and down-sampled
    object-size trajectories of ``components`` (every component when
    ``None``), and the root-cause ranking."""
    (result,) = scenario.results.values()
    focus = components or sorted(result.component_series)
    injected = {spec.component: spec.params["leak_bytes"] for spec in result.config.faults}
    # A leak describes itself as "<component>: memory-leak ... (injected K times, ...)".
    injections = {
        description.split(":")[0]: int(description.split("injected ")[1].split()[0])
        for description in result.fault_descriptions
    }
    growth = result.component_growth()
    report = result.root_cause
    return {
        "growth": Table(
            "component growth",
            [
                {
                    "component": name,
                    "injected_leak": injected.get(name, 0),
                    "injections": injections.get(name, 0),
                    "growth_kb": round(growth.get(name, 0.0) / KB, 1),
                }
                for name in focus
            ],
        ),
        "trajectories": Table(
            "object-size trajectories (KB)",
            [
                {"component": name, "time_s": round(time, 1), "object_size_kb": round(size / KB, 1)}
                for name in focus
                for time, size in downsample_series(
                    result.component_series.get(name, TimeSeries()), points=12
                )
            ],
        ),
        "ranking": Table(f"root-cause ranking (strategy: {report.strategy})", report.to_rows()[:6]),
    }


def _leak_figure(
    figure: str,
    mode: str,
    leak_plan: Dict[str, int],
    period_n: int,
    duration_scale: float,
    seed: int,
    scale: Optional[PopulationScale],
    ebs: int,
    **spec: object,
) -> Comparison:
    """One monitored run with a memory leak of ``leak_plan[component]``
    bytes every ~``period_n`` visits in each planned component."""
    duration = _run_length(duration_scale)
    config = ExperimentConfig(
        name=f"{figure}-{mode}",
        seed=seed,
        scale=scale,
        constant_ebs=ebs,
        duration=duration,
        faults=[
            _memory_leak(leak_bytes, period_n, component)
            for component, leak_bytes in leak_plan.items()
        ],
        snapshot_interval=max(30.0, 60.0 * duration_scale),
    )
    return Comparison(
        context=[
            f"A = {COMPONENT_A}, B = {COMPONENT_B}, C = {COMPONENT_C}, D = {COMPONENT_D}; "
            f"{ebs} EBs for {duration:.0f} s"
        ],
        configs={mode: config},
        observe=client_observation,
        caption="run summary",
        columns=_FIGURE_COLUMNS,
        **spec,
    )


def _fig4_holds(scenario: ComparisonResult) -> bool:
    (result,) = scenario.results.values()
    growth = result.component_growth()
    top = result.root_cause.top()
    return (
        growth[COMPONENT_A] > 500 * KB
        and all(
            value < 0.05 * growth[COMPONENT_A]
            for component, value in growth.items()
            if component != COMPONENT_A
        )
        and top is not None
        and top.component == COMPONENT_A
        and top.responsibility > 0.95
    )


def fig4_single_leak(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    leak_bytes: int = 100 * KB,
    period_n: int = PAPER_PERIOD_N,
) -> Comparison:
    """Fig. 4: a single 100 KB / N=100 leak in component A (mode
    ``single-leak``); the tables cover all 14 components."""
    return _leak_figure(
        "fig4", "single-leak", {COMPONENT_A: leak_bytes}, period_n,
        duration_scale, seed, scale, ebs,
        title=f"Fig. 4: injection in component A ({leak_bytes / KB:g} KB, N={period_n})",
        expectation="A grows from KBs to MBs, all other components stay flat, "
        "A gets 100% of the responsibility",
        tables=partial(_leak_tables, components=None),
        claim=(
            "A grows > 500 KB, every other component < 5 % of that, A top suspect "
            f"with responsibility > 0.95; {_FIGURE_RANGE}",
            _fig4_holds,
        ),
    )


def _fig5_tables(scenario: ComparisonResult) -> Dict[str, Table]:
    (result,) = scenario.results.values()
    return {
        **_leak_tables(scenario),
        "map": Table(
            "Fig. 6: resource-consumption vs. component-usage map", result.resource_map_rows
        ),
    }


def _fig5_holds(scenario: ComparisonResult) -> bool:
    (result,) = scenario.results.values()
    growth, counts = result.component_growth(), result.interaction_counts
    a, b, c, d = (growth[name] for name in PAPER_COMPONENTS)
    return (
        a > c
        and b > c
        and b > 0
        and a / b < 2.5
        and counts[COMPONENT_A] / max(counts[COMPONENT_B], 1) < 2.5
        and c > 0
        and d <= 0.25 * c
        and set(result.root_cause.ranking()[:2]) == {COMPONENT_A, COMPONENT_B}
    )


def fig5_multi_leak(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    leak_bytes: int = 100 * KB,
    period_n: int = PAPER_PERIOD_N,
) -> Comparison:
    """Fig. 5: the same 100 KB / N=100 leak in A, B, C and D (mode
    ``multi-leak``), plus Fig. 6's map as the ``map`` table.

    Growth follows usage: A and B grow at a similar (highest) rate, C more
    slowly, and D stays flat because it is visited too rarely to trigger
    the injection.
    """
    return _leak_figure(
        "fig5", "multi-leak", dict.fromkeys(PAPER_COMPONENTS, leak_bytes), period_n,
        duration_scale, seed, scale, ebs,
        title=f"Fig. 5: injection of {leak_bytes / KB:g} KB (N={period_n}) "
        "in components A, B, C and D",
        expectation="A and B grow fastest and similarly, C more slowly, D stays flat; "
        "the manager's map (Fig. 6) puts A and B in the high-usage/high-consumption quadrant",
        tables=_fig5_tables,
        claim=(
            "A, B > C > 0 with A/B growth and visits within 2.5x, D <= 0.25x C, "
            f"A and B the top two suspects; {_FIGURE_RANGE}",
            _fig5_holds,
        ),
    )


def _fig7_holds(scenario: ComparisonResult) -> bool:
    (result,) = scenario.results.values()
    growth = result.component_growth()
    a, b, c, d = (growth[name] for name in PAPER_COMPONENTS)
    return (
        result.root_cause.ranking()[:2] == [COMPONENT_C, COMPONENT_A]
        and c > a > b > 0
        and (d <= 0.5 * b or d < 2 * MB)
    )


def fig7_injection_sizes(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    period_n: int = PAPER_PERIOD_N,
) -> Comparison:
    """Fig. 7: heterogeneous leak sizes (mode ``injection-sizes``).

    A keeps 100 KB, B drops to 10 KB, C and D get 1 MB: C becomes the top
    suspect (large leak × moderate usage), A second, B third, and D stays
    flat because its usage frequency is too low to trigger injections.
    """
    return _leak_figure(
        "fig7", "injection-sizes",
        {COMPONENT_A: 100 * KB, COMPONENT_B: 10 * KB, COMPONENT_C: 1 * MB, COMPONENT_D: 1 * MB},
        period_n, duration_scale, seed, scale, ebs,
        title=f"Fig. 7: A=100 KB, B=10 KB, C=1 MB, D=1 MB (N={period_n})",
        expectation="C becomes the top suspect, A second, B third, D flat",
        tables=_leak_tables,
        claim=(
            "ranking starts C, A; growth C > A > B > 0; D <= 0.5x B or < 2 MB; "
            f"{_FIGURE_RANGE}",
            _fig7_holds,
        ),
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
#: Baseline live bytes of a freshly deployed TPC-W instance (sessions,
#: instance state) — measured, not derived.
_BASELINE_LIVE_BYTES = 2 * MB
#: Leak fill of the fast-burning memory workload ``fig_adaptive``,
#: ``fig_mixed`` and ``fig_learning`` share: the no-action wall arrives about
#: a third of the way through the run (one definition, so their workload
#: signatures stay comparable by construction).
_FAST_LEAK_FILL = 0.35


def _leak_heap_bytes(
    ebs: int,
    window: float,
    fill: float,
    leak_bytes: int = REJUVENATION_LEAK_BYTES,
    period_n: int = REJUVENATION_PERIOD_N,
    shards: int = 1,
    factor: int = 1,
) -> int:
    """Heap sized so ``fill`` of the component-A leak expected over
    ``window`` seconds reaches its 92 % mark.  Each shard sees its balancer
    share of the measured visit rate, which scales roughly linearly with
    the number of browsers (closed-loop load); ``factor`` multiplies the
    population."""
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS / shards
    expected_leak = visit_rate / period_n * leak_bytes * window
    return int((_BASELINE_LIVE_BYTES + fill * expected_leak * factor) / 0.92)


def _memory_leak(
    leak_bytes: int = REJUVENATION_LEAK_BYTES,
    period_n: int = REJUVENATION_PERIOD_N,
    component: str = COMPONENT_A,
) -> FaultSpec:
    """A memory leak in ``component`` (component A at the rejuvenation
    scenarios' rate by default)."""
    return FaultSpec(
        component=component,
        kind="memory-leak",
        params={"leak_bytes": leak_bytes, "period_n": period_n},
    )


def _tuned_adaptive_policy(
    duration: float, microreboot_downtime: float
) -> AdaptiveRejuvenationPolicy:
    """The adaptive policy configuration every scenario comparison runs
    (robust Theil-Sen predictor, horizon opening at a quarter of the run,
    clamped to ``[duration/16, duration]``)."""
    return AdaptiveRejuvenationPolicy(
        predictor_factory=partial(TheilSenPredictor, min_samples=4),
        base_horizon=duration / 4.0,
        min_horizon=duration / 16.0,
        max_horizon=duration,
        microreboot_downtime=microreboot_downtime,
    )


def _policy_set(duration: float, duration_scale: float) -> List[RejuvenationPolicy]:
    """Fresh instances of the four single-server policies the rejuvenation
    comparisons draw from: no action, time-based full restarts, proactive
    and adaptive micro-reboots."""
    microreboot_downtime = max(0.25, 2.0 * duration_scale)
    return [
        NoActionPolicy(),
        TimeBasedRejuvenationPolicy(
            interval=duration / 3.0, restart_downtime=max(2.0, 120.0 * duration_scale)
        ),
        ProactiveRejuvenationPolicy(
            horizon=duration / 4.0, microreboot_downtime=microreboot_downtime, min_samples=4
        ),
        _tuned_adaptive_policy(duration, microreboot_downtime),
    ]


def _action_table(scenario: ComparisonResult, columns: List[str]) -> Table:
    """Every executed rejuvenation action, one row per (policy, event)."""
    rows = [
        {
            "policy": mode,
            "time_s": round(event.time, 1),
            "resource": event.resource,
            "action": event.kind,
            "component": event.component or "(whole server)",
            "downtime_s": round(event.downtime_seconds, 2),
            "reclaimed_threads": event.reclaimed_threads,
            "reclaimed_connections": event.reclaimed_connections,
            "reclaimed_kb": round(event.reclaimed_bytes / 1024.0, 1),
            "reason": event.reason,
        }
        for mode, result in scenario.results.items()
        if result.rejuvenation is not None
        for event in result.rejuvenation.events
    ]
    return Table("executed actions", rows, ["policy", "time_s", *columns])


def _heap_rows(scenario: ComparisonResult, points: int = 16) -> List[Dict[str, float]]:
    """Down-sampled heap-occupancy curves, one row per (policy, time)."""
    rows: List[Dict[str, float]] = []
    for name, result in scenario.results.items():
        series, capacity = watched_series(result)
        for time, value in downsample_series(series, points):
            rows.append(
                {
                    "policy": name,
                    "time_s": round(time, 1),
                    "heap_used_mb": round(value / MB, 2),
                    "occupancy_pct": round(100.0 * value / capacity, 1),
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
) -> Comparison:
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
    duration = _run_length(duration_scale)
    if heap_bytes is None:
        # Size the wall so ~75 % of the expected leak fills it (see above).
        heap_bytes = _leak_heap_bytes(ebs, duration, 0.75, leak_bytes, period_n)
    base = _base_config(
        duration_scale, seed, scale, ebs,
        faults=[_memory_leak(leak_bytes, period_n)],
        server_config=ServerConfig(heap_bytes=heap_bytes),
    )
    return Comparison(
        title="Live rejuvenation: no action vs. full restarts vs. micro-reboots",
        expectation="micro-reboots of the root-cause component buy the same "
        "heap protection as full restarts for a fraction of the downtime "
        "(Candea et al.'s micro-reboot argument)",
        context=[
            f"heap capacity: {heap_bytes / MB:.2f} MB, run length: {duration:.0f} s, "
            f"leak: {COMPONENT_A} ({leak_bytes} B)"
        ],
        configs={
            policy.name: replace(base, name=f"fig-rejuvenation-{policy.name}", rejuvenation=policy)
            for policy in _policy_set(duration, duration_scale)[:3]
        },
        observe=rejuvenation_observation,
        caption="per-policy availability",
        columns=(
            "policy", "completed", "errors", "mean_rps", "actions", "downtime_s", "refused",
            "reclaimed_mb", "exposure_s", "final_heap_mb", "budget_burn", "sla_cost",
        ),
        tables=lambda scenario: {
            "heap": Table("heap occupancy curves (MB)", _heap_rows(scenario, points=12)),
            "actions": _action_table(
                scenario, ["action", "component", "downtime_s", "reclaimed_kb", "reason"]
            ),
        },
    )


# --------------------------------------------------------------------------- #
# Adaptive rejuvenation & SLA comparison
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


def best_fixed_cost(scenario: ComparisonResult, workload: str) -> float:
    """The best (lowest) SLA cost among the non-adaptive policies of one
    ``fig_adaptive`` workload."""
    return min(
        scenario.sla_cost(mode)
        for mode in scenario.results
        if mode.startswith(f"{workload}/") and mode != f"{workload}/adaptive"
    )


def _adaptive_verdicts(scenario: ComparisonResult) -> List[Dict[str, object]]:
    adaptive_cost = scenario.sla_cost("memory/adaptive")
    best_fixed = best_fixed_cost(scenario, "memory")
    verdicts: List[Dict[str, object]] = [
        {
            "claim": "memory: adaptive <= best fixed policy",
            "adaptive": round(adaptive_cost, 1),
            "best_fixed": round(best_fixed, 1),
            "holds": adaptive_cost <= best_fixed,
        }
    ]
    for workload in ("threads", "connections"):
        no_action = scenario.result(f"{workload}/no-action").error_count
        adaptive = scenario.result(f"{workload}/adaptive").error_count
        verdicts.append(
            {
                "claim": f"{workload}: rejuvenation eliminates error spike",
                "adaptive": adaptive,
                "best_fixed": no_action,
                "holds": no_action > 0 and adaptive == 0,
            }
        )
    return verdicts


def fig_adaptive(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    cost_model: Optional[SlaCostModel] = None,
) -> Comparison:
    """The adaptive rejuvenation & SLA comparison.

    Twelve same-seed runs, one per ``workload/policy`` mode: {no action,
    time-based restarts, proactive micro-reboots, adaptive micro-reboots} x
    {memory leak, thread leak, connection leak}, each workload sized so the
    *no-action* run exhausts its resource roughly two thirds through — the
    heap hits the OOM wall, the JVM hits its thread capacity ("unable to
    create new native thread"), the connection pool refuses every borrow.
    Every run reduces to one scalar through the
    :class:`~repro.slo.cost_model.SlaCostModel`, so the claim under test is
    crisp: the adaptive policy's scalar on the memory workload is no worse
    than the best fixed policy's, and rejuvenation eliminates the error
    spikes of the thread/connection no-action runs.

    Where the memory verdict holds: at tiny / seed 42 it holds at
    ``duration_scale=0.05`` but not at 0.02, where adaptive costs 714.3
    against the best fixed policy's 713.8.  The verdicts are therefore a
    report table (it prints ``holds: False``, the exit code stays 0), not an
    exit-code claim.
    """
    duration = _run_length(duration_scale)
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS
    cost_model = cost_model or SlaCostModel()

    # Memory workload: a *fast-burning* leak — the heap wall is reached about
    # a third of the way through the run (vs. fig_rejuvenation's 3/4), so a
    # recycling policy must act repeatedly.  This is where horizon tuning
    # matters: a fixed horizon chosen for slow leaks recycles far too often
    # on a fast one, while the adaptive policy shrinks its margin as its
    # predictor earns trust and saves whole recycle cycles.
    heap_bytes = _leak_heap_bytes(ebs, duration, _FAST_LEAK_FILL)

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

    # workload -> (fault, server sizing, the channel it exhausts)
    workloads = {
        "memory": (_memory_leak(), ServerConfig(heap_bytes=heap_bytes), "heap"),
        "threads": (
            FaultSpec(
                component=COMPONENT_A,
                kind="thread-leak",
                params={"period_n": ADAPTIVE_EXTENSION_PERIOD_N, "stack_bytes": ADAPTIVE_STACK_BYTES},
            ),
            ServerConfig(thread_capacity=thread_capacity),
            "threads",
        ),
        "connections": (
            FaultSpec(
                component=COMPONENT_A,
                kind="connection-leak",
                params={"period_n": ADAPTIVE_EXTENSION_PERIOD_N},
            ),
            ServerConfig(pool_size=pool_size),
            "connections",
        ),
    }
    configs: Dict[str, ExperimentConfig] = {}
    for workload, (fault, server_config, channel) in workloads.items():
        base = _base_config(
            duration_scale, seed, scale, ebs,
            faults=[fault], server_config=server_config, rejuvenation_channels=[channel],
        )
        for policy in _policy_set(duration, duration_scale):
            configs[f"{workload}/{policy.name}"] = replace(
                base, name=f"fig-adaptive-{workload}-{policy.name}", rejuvenation=policy
            )

    def analytic_rows(scenario: ComparisonResult) -> List[Dict[str, object]]:
        """The M/M/c + leak-model cross-check, one row per workload.

        Analytic predictions are derived from the workload *configuration*
        alone (visit rates, leak rates, sizing); the realized columns come
        from the executed no-action run.  ``tte_ok`` applies the stated
        tolerance (:data:`repro.slo.analytic.TTE_TOLERANCE_FACTOR`).
        """
        rows: List[Dict[str, object]] = []
        for workload, model in analytic_models.items():
            no_action = scenario.result(f"{workload}/no-action")
            server = no_action.config.server_config
            analytic_tte = model.time_to_exhaustion()
            realized_tte = realized_exhaustion_time(
                *watched_series(no_action), model.exhaustion_fraction
            )
            observation = scenario.sla_observation(f"{workload}/no-action")
            queueing = mmc_metrics(
                request_rate, 1.0 / server.default_cpu_demand, server.thread_capacity or 1
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
                    "analytic_failed": round(model.predicted_failed_requests(duration)),
                    "realized_failed": observation.failed_requests,
                    "analytic_unavailable_s": round(
                        model.predicted_unavailable_seconds(
                            duration, cost_model.failure_downtime_equivalent_seconds
                        ),
                        1,
                    ),
                    "realized_unavailable_s": round(cost_model.unavailable_seconds(observation), 1),
                    "mmc_utilization": round(queueing.utilization, 4),
                    "mmc_wait_probability": round(queueing.wait_probability, 6),
                }
            )
        return rows

    return Comparison(
        title="Adaptive rejuvenation & SLA comparison",
        expectation="the adaptive policy's SLA cost matches or beats the best "
        "fixed policy on the memory leak, and rejuvenation eliminates the "
        "error spikes of the thread/connection no-action runs",
        context=[
            f"SLA target: {cost_model.target_availability:.3%} availability "
            f"(error budget {cost_model.error_budget_seconds(duration):.1f} s "
            f"over {duration:.0f} s); scalar = "
            f"{cost_model.downtime_weight:g}*downtime_s + "
            f"{cost_model.exposure_weight:g}*exposure_s "
            f"+ {cost_model.failed_request_weight:g}*failed + "
            f"{cost_model.refused_request_weight:g}*refused + "
            f"{cost_model.burn_weight:g}*max(0, burn-1)"
        ],
        configs=configs,
        observe=rejuvenation_observation,
        caption="per-(workload, policy) availability and SLA cost",
        columns=(
            "workload", "policy", "completed", "errors", "actions", "downtime_s", "exposure_s",
            "refused", "budget_burn", "sla_cost",
        ),
        tables=lambda scenario: {
            "predictor": Table(
                "adaptive predictor error statistics (per resource)",
                [
                    {"workload": workload, **row}
                    for workload in workloads
                    for row in scenario.result(f"{workload}/adaptive")
                    .policy.predictor_rows()
                ],
            ),
            "analytic": Table(
                "analytic M/M/c cross-check of the no-action runs (predicted from "
                "the workload configuration alone; tte_ok = within a factor of "
                f"{TTE_TOLERANCE_FACTOR:g} of the realized exhaustion time)",
                analytic_rows(scenario),
            ),
            "verdicts": Table("verdicts", _adaptive_verdicts(scenario)),
        },
        cost_model=cost_model,
    )


# --------------------------------------------------------------------------- #
# Mixed-fault comparison (two components, two resources at once)
# --------------------------------------------------------------------------- #
def recycles(result: ExperimentResult) -> Dict[str, Dict[str, int]]:
    """``resource -> component -> executed micro-reboot count`` of one run."""
    out: Dict[str, Dict[str, int]] = {}
    for event in result.rejuvenation.events if result.rejuvenation is not None else []:
        by_component = out.setdefault(event.resource, {})
        component = event.component or "(whole server)"
        by_component[component] = by_component.get(component, 0) + 1
    return out


def injected_kinds(faults: List[FaultSpec]) -> Dict[str, str]:
    """``component -> "+"-joined fault kinds`` of a fault plan, in plan order."""
    out: Dict[str, str] = {}
    for spec in faults:
        out[spec.component] = "+".join(filter(None, [out.get(spec.component), spec.kind]))
    return out


def fig_mixed(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    dual_leak: bool = False,
) -> Comparison:
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
    duration = _run_length(duration_scale)
    visit_rate = _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS

    # Heap sized like the adaptive memory workload (fast-burning: the wall is
    # reached about a third of the way through a no-action run).
    heap_bytes = _leak_heap_bytes(ebs, duration, _FAST_LEAK_FILL)
    # Pool bound sized so the connection leak exhausts it ~2/3 through (A's
    # and B's visit rates are comparable under the shopping mix).
    pool_size = max(8, int(0.65 * visit_rate / ADAPTIVE_EXTENSION_PERIOD_N * duration))

    faults = [
        _memory_leak(),
        FaultSpec(
            component=COMPONENT_A if dual_leak else COMPONENT_B,
            kind="connection-leak",
            params={"period_n": ADAPTIVE_EXTENSION_PERIOD_N},
        ),
    ]
    base = _base_config(
        duration_scale, seed, scale, ebs,
        faults=faults,
        server_config=ServerConfig(heap_bytes=heap_bytes, pool_size=pool_size),
        rejuvenation_channels=["heap", "connections"],
    )
    variant = "dual" if dual_leak else "mixed"
    injected = ", ".join(f"{component} ({kind})" for component, kind in injected_kinds(faults).items())
    return Comparison(
        title="Mixed faults: concurrent heap leak and connection leak",
        expectation="the recycling policies (proactive and adaptive) recycle "
        "the right component per resource — the heap channel blames the memory "
        "leaker via root-cause analysis, the connection channel blames the "
        "connection leaker via pool ownership (the same component, when it "
        "leaks both) — while no action pays with OOM and pool-refusal errors",
        context=[
            f"heap capacity: {heap_bytes / MB:.2f} MB, pool bound: {pool_size} connections, "
            f"run length: {duration:.0f} s, injected: {injected}"
        ],
        configs={
            policy.name: replace(base, name=f"fig-{variant}-{policy.name}", rejuvenation=policy)
            for policy in _policy_set(duration, duration_scale)
            if policy.name != TimeBasedRejuvenationPolicy.name
        },
        observe=rejuvenation_observation,
        caption="per-policy outcome and attribution",
        columns=(
            "policy", "completed", "errors", "actions", "heap_recycles", "connection_recycles",
            "downtime_s", "exposure_s", "sla_cost",
        ),
        tables=lambda scenario: {
            "actions": _action_table(
                scenario,
                ["resource", "action", "component", "reclaimed_threads",
                 "reclaimed_connections", "reclaimed_kb"],
            )
        },
    )


# --------------------------------------------------------------------------- #
# Cross-run calibration learning
# --------------------------------------------------------------------------- #
#: Repeated runs per mode of the learning comparison.
LEARNING_RUNS = 4
#: The two learning modes compared run-for-run.
LEARNING_MODES = ("cold", "warm")


def cumulative_sla_cost(scenario: ComparisonResult, mode: str) -> float:
    """Summed SLA cost of every ``mode/runN`` run — the learning headline."""
    return sum(scenario.sla_cost(key) for key in scenario.results if key.startswith(f"{mode}/"))


def total_recycles(scenario: ComparisonResult, mode: str) -> int:
    """Summed recycle count of every ``mode/runN`` run."""
    return sum(_actions(scenario.result(key)) for key in scenario.results if key.startswith(f"{mode}/"))


def _learning_verdicts(scenario: ComparisonResult) -> List[Dict[str, object]]:
    warm_cost, cold_cost = (cumulative_sla_cost(scenario, mode) for mode in ("warm", "cold"))
    warm_recycles, cold_recycles = (total_recycles(scenario, mode) for mode in ("warm", "cold"))
    return [
        {
            "claim": "cumulative SLA cost: warm < cold",
            "warm": round(warm_cost, 1),
            "cold": round(cold_cost, 1),
            "holds": warm_cost < cold_cost,
        },
        {
            "claim": "total recycles: warm <= cold",
            "warm": warm_recycles,
            "cold": cold_recycles,
            "holds": warm_recycles <= cold_recycles,
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
) -> Comparison:
    """Cross-run calibration learning on the fast memory leak.

    ``2 × runs`` experiment runs of the :func:`fig_adaptive` memory
    workload (component A, aggressive leak, heap sized so the no-action
    wall would arrive a third of the way through), as ``cold/runN`` then
    ``warm/runN`` modes: run *k* uses seed ``seed + k`` in both modes.
    *Cold* re-learns the safety horizon from scratch every run; *warm*
    persists each run's converged calibration in a
    :class:`~repro.slo.calibration.CalibrationStore` (at ``store_path``)
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
    duration = _run_length(duration_scale)
    if runs < 2:
        raise ValueError(f"the learning comparison needs >= 2 runs, got {runs}")
    microreboot_downtime = max(0.25, 2.0 * duration_scale)

    # The fig_adaptive memory sizing: a fast-burning leak whose no-action
    # wall arrives about a third of the way through the run.
    heap_bytes = _leak_heap_bytes(ebs, duration, _FAST_LEAK_FILL)

    if store_path is None:
        store_path = os.path.join(tempfile.mkdtemp(prefix="repro-learning-"), "calibration.json")
    store = CalibrationStore(store_path)

    # One template feeds both the per-run configs and the signature, so the
    # signature can never drift away from the workload that is actually run.
    # The signature is seed-independent by construction: the template's name
    # and seed never enter it (an explicit scenario label replaces the
    # per-run names).
    template = _base_config(
        duration_scale, seed, scale, ebs,
        name="fig-learning",
        faults=[_memory_leak()],
        server_config=ServerConfig(heap_bytes=heap_bytes),
        rejuvenation_channels=["heap"],
    )
    signature = workload_signature(template, scenario="fig-learning-memory")
    # Mode-major: every cold run, then every warm run.  Cold runs never touch
    # the store, so the warm sequence sees the store history it would see
    # interleaved.
    configs = {
        f"{mode}/run{run}": replace(
            template,
            name=f"fig-learning-{mode}-run{run}",
            seed=seed + run,
            rejuvenation=_tuned_adaptive_policy(duration, microreboot_downtime),
            calibration_store=store if mode == "warm" else None,
            calibration_signature=signature if mode == "warm" else None,
        )
        for mode in LEARNING_MODES
        for run in range(runs)
    }
    return Comparison(
        title="Cross-run calibration learning: cold vs. warm-started adaptive",
        expectation="persisting the adaptive policy's converged calibration "
        "per workload signature lets run N+1 open at run N's horizon, "
        "skipping the conservative early recycles cold re-learning pays — "
        "cumulative SLA cost falls run over run",
        context=[
            f"workload: fast memory leak (heap capacity {heap_bytes / MB:.2f} MB), "
            f"{runs} runs per mode, seeds {seed}...{seed + runs - 1}, "
            f"run length {duration:.0f} s",
            f"calibration store: {store_path}",
            f"workload signature: {signature}",
        ],
        configs=configs,
        observe=rejuvenation_observation,
        caption="per-(mode, run) outcome",
        columns=(
            "mode", "run", "seed", "warm_started", "completed", "errors", "recycles", "downtime_s",
            "exposure_s", "opening_horizon_s", "final_horizon_s", "predictions", "sla_cost",
        ),
        tables=lambda scenario: {"verdicts": Table("verdicts", _learning_verdicts(scenario))},
        cost_model=cost_model or SlaCostModel(),
    )


# --------------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------------- #
def _scope_holds(scenario: ComparisonResult) -> bool:
    none, half, full = scenario.summary_rows()
    return (
        none["overhead_seconds"] == 0.0
        and half["overhead_seconds"] > 0.0
        and full["overhead_seconds"] > half["overhead_seconds"]
        and full["mean_throughput_rps"] <= 1.05 * none["mean_throughput_rps"]
    )


def scope_overhead_ablation(
    duration_scale: float = 0.2,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = 200,
) -> Comparison:
    """Overhead vs. monitoring scope.

    Runs the same constant-load workload with monitoring disabled, with the
    most-used half of the components monitored (the manager deactivates the
    rest at runtime) and with all of them: one mode per monitored fraction
    (``0.0``, ``0.5``, ``1.0``), quantifying the benefit of the paper's
    activate/deactivate-on-demand knob.
    """
    duration = 1800.0 * duration_scale
    # Components ordered by typical shopping-mix usage (most used first), so a
    # fraction of 0.5 keeps the components that dominate the request stream
    # (the worst case for overhead).
    usage_order = [
        "product_detail", "home", "search_request", "search_results", "shopping_cart",
        "new_products", "best_sellers", "customer_registration", "buy_request",
        "buy_confirm", "order_inquiry", "order_display", "admin_request", "admin_confirm",
    ]
    configs: Dict[str, ExperimentConfig] = {}
    for fraction in (0.0, 0.5, 1.0):
        keep = max(1, int(round(len(usage_order) * fraction))) if fraction > 0.0 else 0
        configs[str(fraction)] = ExperimentConfig(
            name=f"scope-ablation-{fraction:.2f}",
            seed=seed,
            scale=scale,
            constant_ebs=ebs,
            duration=duration,
            monitored=fraction > 0.0,
            monitored_components=usage_order[:keep] if 0.0 < fraction < 1.0 else None,
            snapshot_interval=max(30.0, 60.0 * duration_scale),
        )
    return Comparison(
        title=f"Ablation: monitoring scope vs. overhead ({ebs} EBs, shopping mix)",
        expectation="the charged monitoring overhead grows with the monitored "
        "fraction, and full monitoring costs at most noise in throughput",
        context=[f"run length: {duration:.0f} s per fraction"],
        configs=configs,
        observe=client_observation,
        caption="per-fraction throughput and monitoring cost",
        columns=(
            "monitored_fraction", "mean_throughput_rps", "mean_response_time_s", "overhead_seconds",
        ),
        claim=(
            "overhead 0 s unmonitored, > 0 s at half scope and more at full "
            "scope; full scope's throughput <= 1.05x unmonitored; "
            f"{_FIGURE_RANGE}, and at tiny 0.02",
            _scope_holds,
        ),
    )


def strategy_ablation(
    result: ExperimentResult,
    strategies: Optional[List[RootCauseStrategy]] = None,
) -> List[Dict[str, object]]:
    """Compare root-cause strategies on the manager's map of a monitored run."""
    if strategies is None:
        strategies = [PaperMapStrategy(), TrendStrategy(), WeightedCompositeStrategy()]
    if result.resource_map is None:
        raise ValueError("the run has no manager map (it ran unmonitored)")
    rows: List[Dict[str, object]] = []
    for strategy in strategies:
        report = strategy.analyze(result.resource_map)
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



def fig_retry_storm(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    ebs: int = LEAK_EXPERIMENT_EBS,
    period_n: int = RETRY_STORM_PERIOD_N,
    timeout_seconds: float = RETRY_STORM_TIMEOUT_SECONDS,
    max_attempts: int = 3,
) -> Comparison:
    """Same-seed naive-retry vs. backoff+breaker runs under a degrading DB.

    A slow-downstream fault on component A inflates its JDBC latency a
    little more on every trigger, pushing A's page times past the client
    timeout mid-run.  The *naive* client retries immediately (retry storm);
    the *resilient* client uses jittered exponential backoff plus a
    per-component circuit breaker.  Both are deterministic per seed.
    """
    duration = _run_length(duration_scale)
    fault = FaultSpec(
        component=COMPONENT_A,
        kind="slow-downstream",
        params={"period_n": period_n, "latency_step_seconds": 0.1, "max_extra_seconds": 10.0},
    )
    resilience = {
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
    return Comparison(
        title="Retry storm: naive immediate retries vs. backoff + circuit breaker",
        expectation="against a degrading dependency, immediate retries amplify "
        "their own damage (timeouts breed retries breed load); jittered backoff "
        "plus a per-component breaker converts expensive failed pages into "
        "cheap fast refusals — a strictly lower SLA cost",
        context=[f"client timeout: {timeout_seconds:g} s, run length: {duration:.0f} s"],
        configs={
            mode: ExperimentConfig(
                name=f"fig-retry-storm-{mode}",
                seed=seed,
                scale=scale,
                constant_ebs=ebs,
                duration=duration,
                monitored=False,
                collect_blackbox_samples=False,
                faults=[fault],
                resilience=resilience[mode],
            )
            for mode in RETRY_STORM_MODES
        },
        observe=client_observation,
        caption="per-mode ledger and SLA cost",
        columns=(
            "mode", "issued", "completed", "errors", "timeouts", "retries", "refused",
            "breaker_refusals", "mean_rt_s", "sla_cost",
        ),
        claim=(
            "resilient SLA cost < naive SLA cost",
            lambda scenario: scenario.sla_cost("naive") - scenario.sla_cost("resilient") > 0,
        ),
    )


def zoo_attribution(result: ExperimentResult) -> RootCauseReport:
    """The post-hoc cascade-aware root-cause report of one zoo run."""
    return CascadeAwareStrategy(result.component_latency).analyze(result.resource_map)


def _blamed(report: RootCauseReport) -> str:
    top = report.top()
    return top.component if top is not None else ""


def _zoo_verdicts(scenario: ComparisonResult) -> List[Dict[str, object]]:
    """Per-fault attribution verdicts (expected: component A, not B)."""
    rows: List[Dict[str, object]] = []
    for kind, result in scenario.results.items():
        report = zoo_attribution(result)
        cascade = kind == "correlated-cascade"
        rows.append(
            {
                "claim": f"{kind}: blamed component is {COMPONENT_A}"
                + (f" (not victim {COMPONENT_B})" if cascade else ""),
                "blamed": _blamed(report) or "(none)",
                "victim_rank": (
                    report.ranking().index(COMPONENT_B) + 1
                    if cascade and COMPONENT_B in report.ranking()
                    else ""
                ),
                "holds": _blamed(report) == COMPONENT_A,
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
) -> Comparison:
    """Run the fault zoo: one monitored, latency-tracked run per fault.

    Every run injects a single zoo fault into component A (the cascade also
    couples component B) and asks the cascade-aware strategy, post hoc, who
    is to blame.  Latency-mode faults exercise the latency-trend signal the
    resource map cannot provide; the cascade exercises attribution *under*
    correlated degradation.

    Where the verdicts hold, at tiny / seed 42: at ``duration_scale=0.05``
    with 25 EBs every fault is blamed on A, but with the default 100 EBs
    lock-convoy is not; at 0.02 with 25 EBs gc-pause-storm is blamed on the
    wrong component, and with 100 EBs four of the five faults are.  The
    verdicts are therefore a report table (it prints ``holds: False``, the
    exit code stays 0), not an exit-code claim.
    """
    duration = _run_length(duration_scale)
    return Comparison(
        title="Fault zoo: five degradation modes, one attribution question",
        expectation="the cascade-aware strategy blames the faulted component "
        f"({COMPONENT_A}) for every fault — including the latency-mode faults the "
        "resource map cannot see, and the correlated cascade whose victim "
        f"({COMPONENT_B}) merely slows down",
        context=[f"run length per fault: {duration:.0f} s"],
        configs={
            kind: _base_config(
                duration_scale, seed, scale, ebs,
                name=f"fig-zoo-{kind}",
                collect_blackbox_samples=False,
                faults=[zoo_fault_spec(kind, period_n=period_n)],
                track_component_latency=True,
            )
            for kind in (kinds if kinds is not None else ZOO_FAULT_KINDS)
        },
        observe=client_observation,
        caption="per-fault outcome",
        columns=("fault", "completed", "errors", "mean_rt_s", "blamed", "description"),
        tables=lambda scenario: {
            "verdicts": Table("attribution verdicts", _zoo_verdicts(scenario))
        },
    )


# --------------------------------------------------------------------------- #
# Fleet-level SLA accounting (fleet, deploy and scale comparisons)
# --------------------------------------------------------------------------- #
def capacity_profile(result: ExperimentResult) -> List[Tuple[float, float, float]]:
    """The fleet rejuvenation's ``(start, end, available_fraction)`` profile
    over the run (empty without fleet rejuvenation)."""
    fleet = result.fleet
    if fleet is None or fleet.rejuvenation is None:
        return []
    return fleet.rejuvenation.capacity_profile(result.config.duration)


def below_floor_seconds(result: ExperimentResult) -> float:
    """Seconds the fleet's available capacity spent below its SLA floor
    ``(N-1)/N`` (one shard may be down at a time, never two)."""
    floor = (result.config.shards - 1) / result.config.shards
    profile = capacity_profile(result)
    return sum((right - left for left, right, f in profile if f < floor - 1e-12), 0.0)


def min_capacity_fraction(result: ExperimentResult) -> float:
    """The lowest fraction of shards simultaneously serving."""
    return min((fraction for _, _, fraction in capacity_profile(result)), default=1.0)


def fleet_observation(result: ExperimentResult) -> SlaObservation:
    """Fleet-level availability currencies of one sharded run.

    *Downtime* is capacity-weighted: the seconds aggregate capacity spent
    below the SLA floor (a rolling recycle never gets there, a simultaneous
    restart parks the whole fleet below it) plus deploy-outage seconds over
    the shard count.  *Exposure* sums each shard's time above the heap
    danger line; failures and refusals are the fleet-wide counters.
    """
    config = result.config
    capacity = float(config.server_config.heap_bytes)
    outage = result.rollout.outage_seconds / config.shards if result.rollout is not None else 0.0
    return SlaObservation(
        duration_seconds=config.duration,
        downtime_seconds=below_floor_seconds(result) + outage,
        exposure_seconds=sum(
            exposure_seconds(series, capacity, window_end=config.duration)
            for series in result.shard_heap_series
        ),
        failed_requests=result.error_count,
        refused_requests=result.refused_requests,
    )


# --------------------------------------------------------------------------- #
# Fleet rejuvenation comparison
# --------------------------------------------------------------------------- #
#: Shard count of the fleet comparison.
FLEET_SHARDS = 4

#: Fleet policy labels, in comparison order.
FLEET_MODES = ("no-action", "simultaneous", "rolling")


def _fleet_tables(scenario: ComparisonResult) -> Dict[str, Table]:
    rolling = scenario.result("rolling").fleet.rejuvenation
    return {
        "schedule": Table(
            "rolling recycle schedule (one shard at a time)",
            [
                {"shard": shard, "outage_start_s": round(start, 1), "outage_end_s": round(end, 1)}
                for shard, start, end in (rolling.windows if rolling is not None else [])
            ],
        ),
        "aging": Table(
            "cross-shard aging (fleet manager, no-action run; fastest-aging first)",
            list(scenario.result("no-action").fleet.root_cause_rows),
        ),
        "balancer": Table(
            "balancer routing and fleet ledger (served == issued)",
            [
                {
                    "mode": mode,
                    "policy": result.fleet.balancer["policy"],
                    "routed": "/".join(str(count) for count in result.fleet.balancer["routed"]),
                    "failovers": result.fleet.balancer["failovers"],
                    "sticky_bindings": result.fleet.balancer["sticky_bindings"],
                    "issued": result.fleet.ledger["issued"],
                    "served": result.fleet.ledger["served"],
                }
                for mode, result in scenario.results.items()
            ],
        ),
    }


def _rolling_wins(scenario: ComparisonResult) -> bool:
    # Rolling must cost no more than *every* alternative and strictly less
    # than at least one.  On full-length runs both comparisons are strict
    # (no-action pays exposure/errors, simultaneous pays the blackout); on
    # very short smoke runs no-action may not have aged into any cost yet,
    # and a 0.0 == 0.0 tie there is not a loss.
    rolling = scenario.sla_cost("rolling")
    others = (scenario.sla_cost("simultaneous"), scenario.sla_cost("no-action"))
    return all(rolling <= cost for cost in others) and any(rolling < cost for cost in others)


def fig_fleet(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    shards: int = FLEET_SHARDS,
    ebs: int = LEAK_EXPERIMENT_EBS,
    balancer_policy: str = "sticky",
    leak_bytes: int = REJUVENATION_LEAK_BYTES,
    period_n: int = REJUVENATION_PERIOD_N,
) -> Comparison:
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
    duration = _run_length(duration_scale)
    if shards < 2:
        raise ValueError(f"a fleet comparison needs at least 2 shards, got {shards}")
    # Per-shard sizing: the balancer splits the EB population, so each shard
    # sees ~1/shards of the measured component-A visit rate.  The fill target
    # is tighter than the single-server scenario's 0.75 because sticky
    # balancing splits sessions unevenly — the slower-leaking shards must
    # still reach the wall within the run for no-action to pay its exposure.
    heap_bytes = _leak_heap_bytes(ebs, duration, 0.55, leak_bytes, period_n, shards)
    restart_downtime = max(2.0, 120.0 * duration_scale)
    base = _base_config(
        duration_scale, seed, scale, ebs,
        faults=[_memory_leak(leak_bytes, period_n)],
        server_config=ServerConfig(heap_bytes=heap_bytes),
        shards=shards,
        balancer_policy=balancer_policy,
    )
    configs: Dict[str, ExperimentConfig] = {}
    for mode in FLEET_MODES:
        # One restart per shard: a second trigger would land past the end of
        # the run.
        policy = (
            None
            if mode == "no-action"
            else TimeBasedRejuvenationPolicy(
                interval=0.6 * duration, restart_downtime=restart_downtime
            )
        )
        configs[mode] = replace(
            base,
            name=f"fig-fleet-{mode}",
            rejuvenation=policy,
            fleet_rejuvenation=None if policy is None else mode,
        )
    sla_floor = (shards - 1) / shards
    return Comparison(
        title=f"Fleet rejuvenation at {shards} shards: rolling vs. simultaneous vs. no action",
        expectation="rolling recycles keep aggregate capacity at "
        f"{sla_floor:.0%} or better (one shard down at a time, sticky "
        "sessions failing over to the survivors), simultaneous restarts park "
        "the whole fleet below the SLA floor, and no action runs every "
        "shard's heap into the wall — rolling wins on fleet SLA cost",
        context=[
            f"per-shard heap capacity: {heap_bytes / MB:.2f} MB, "
            f"run length: {duration:.0f} s, SLA capacity floor: {sla_floor:.0%}"
        ],
        configs=configs,
        observe=fleet_observation,
        caption="per-mode fleet availability and SLA cost",
        columns=(
            "mode", "completed", "errors", "refused", "actions", "deferred", "min_capacity_pct",
            "below_floor_s", "exposure_s", "failovers", "budget_burn", "sla_cost",
        ),
        tables=_fleet_tables,
        claim=("rolling SLA cost < simultaneous and < no-action", _rolling_wins),
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


#: Summary columns of the deploy comparisons (rollout adds ``max_exposed``).
_DEPLOY_COLUMNS = (
    "mode", "completed", "errors", "refused", "deploys", "rolled_back", "leaky_shards",
    "downtime_s", "exposure_s", "budget_burn", "sla_cost",
)


def max_exposed_shards(result: ExperimentResult) -> int:
    """Most shards simultaneously on the new build during one run."""
    return result.rollout.max_concurrent_deploys() if result.rollout is not None else 0


def first_ruling(report: RolloutReport) -> Optional[Dict[str, object]]:
    """The stage row of a rollout's first analyzer ruling (``None``: never
    ruled); it carries ``ruled_at`` and the ``trigger`` that fired it."""
    return next((stage for stage in report.stages if "ruled_at" in stage), None)


def _deploy_tables(scenario: ComparisonResult, analyzed: str) -> Dict[str, Table]:
    """Every run's deployment events, plus the ``analyzed`` run's stage
    ladder and its last analyzer verdict."""
    run = scenario.result(analyzed)
    report = run.rollout
    tables = {
        "events": Table(
            "deployment events",
            [
                {
                    "strategy": mode,
                    "time_s": round(float(event["time_s"]), 1),
                    "shard": event["shard"],
                    "action": event["action"],
                    "version": event["version"],
                    "downtime_s": round(float(event["downtime_s"]), 2),
                }
                for mode, result in scenario.results.items()
                if result.rollout is not None
                for event in result.rollout.events
            ],
        ),
        "stages": Table(
            f"{analyzed} run's stage ladder",
            [
                {
                    "stage": stage["stage"],
                    "size": stage["size"],
                    "shards": ",".join(str(index) for index in stage["shards"]),
                    "deployed_at_s": round(float(stage["deployed_at"]), 1),
                    "ruled_at_s": round(float(stage["ruled_at"]), 1) if "ruled_at" in stage else "-",
                    "trigger": stage.get("trigger", "-"),
                    "promote": stage.get("promote", "-"),
                }
                for stage in report.stages
            ],
        ),
    }
    verdict = report.verdict
    if verdict is not None:
        notes = [f"reason: {verdict.reason}"]
        ruling = first_ruling(report)
        if ruling is not None and ruling["trigger"] == "alert":
            ruled_at = float(ruling["ruled_at"])
            bake = run.config.rollout.stage_bake_seconds
            deadline_at = float(report.stages[0]["deployed_at"]) + bake
            notes.append(
                f"alert-driven: ruled at {ruled_at:.1f} s, "
                f"{deadline_at - ruled_at:.1f} s ahead of the bake deadline"
            )
        tables["verdict"] = Table(
            f"{analyzed} analyzer verdict",
            [
                {
                    "promote": verdict.promote,
                    "growth_ratio": round(verdict.growth_ratio, 1),
                    "p_value": round(verdict.p_value, 4),
                    "samples": verdict.canary_samples,
                    "trending_up": verdict.trending_up,
                    "insufficient_data": verdict.insufficient_data,
                    "truncated_bake": verdict.truncated_bake,
                    "canary_growth_kb": round(verdict.canary_growth_bytes / KB, 1),
                    "baseline_growth_kb": round(verdict.baseline_growth_bytes / KB, 1),
                }
            ],
            notes=tuple(notes),
        )
    return tables


def _deploy_comparison(
    label: str,
    strategies: Dict[str, Optional[Dict[str, object]]],
    analyzed: str,
    duration_scale: float,
    seed: int,
    scale: Optional[PopulationScale],
    shards: int,
    ebs: int,
    leak_bytes: int,
    period_n: int,
    stream_metrics: Optional[str],
    alert_bake_fraction: Optional[float] = None,
    **spec: object,
) -> Comparison:
    """The comparison body both deploy builders share: same-seed runs of one
    sharded fleet that differ only in how the leaky v2 build of component A
    rolls out.

    ``strategies`` maps each mode to its :class:`RolloutPlan` overrides
    (``None``: deploy nothing).  Every plan deploys a quarter into the run.
    Heap sizing mirrors fig_fleet, over the post-deploy window: a rollout
    that ships the leak to every shard must reach the wall within the run,
    so it pays exposure/errors, while a caught canary (leaking on one shard
    for only the bake window, ~a fifth of the deployed time) stays safe.
    ``alert_bake_fraction`` lowers every shard's aging-alert threshold to
    that fraction of one bake window's expected leak on a deployed shard.
    ``stream_metrics`` streams the ``analyzed`` mode's snapshots to a JSONL
    file.
    """
    duration = 3600.0 * duration_scale
    deploy_start = 0.25 * duration
    heap_bytes = _leak_heap_bytes(ebs, duration - deploy_start, 0.55, leak_bytes, period_n, shards)
    leaky = RolloutPlan(
        version=ComponentVersion(
            component=COMPONENT_A,
            version=CANARY_VERSION,
            faults=(_memory_leak(leak_bytes, period_n),),
        ),
        start_time=deploy_start,
        stage_bake_seconds=0.15 * duration,
        stagger_seconds=0.05 * duration,
        deploy_downtime_seconds=max(1.0, 30.0 * duration_scale),
    )
    fields: Dict[str, object] = {}
    if alert_bake_fraction is not None:
        leak_rate = (
            _LEAK_VISITS_PER_SECOND * ebs / LEAK_EXPERIMENT_EBS / shards / period_n * leak_bytes
        )
        fields["alert_growth_bytes"] = alert_bake_fraction * leak_rate * leaky.stage_bake_seconds
    base = _base_config(
        duration_scale, seed, scale, ebs,
        server_config=ServerConfig(heap_bytes=heap_bytes), shards=shards, **fields,
    )
    plans = {
        mode: replace(leaky, **overrides) if overrides is not None else None
        for mode, overrides in strategies.items()
    }
    ladder = " -> ".join(str(size) for size in plans[analyzed].ladder(shards))
    return Comparison(
        context=[
            f"stage ladder: {ladder} shards, "
            f"per-shard heap capacity: {heap_bytes / MB:.2f} MB, run length: {duration:.0f} s"
        ],
        configs={
            mode: replace(
                base,
                name=f"fig-{label}-{mode}",
                rollout=plan,
                stream_metrics=stream_metrics if mode == analyzed else None,
            )
            for mode, plan in plans.items()
        },
        observe=fleet_observation,
        caption="per-strategy rollout outcome and SLA cost",
        tables=partial(_deploy_tables, analyzed=analyzed),
        **spec,
    )


def fig_canary(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    shards: int = CANARY_SHARDS,
    ebs: int = LEAK_EXPERIMENT_EBS,
    leak_bytes: int = CANARY_LEAK_BYTES,
    period_n: int = CANARY_PERIOD_N,
    stream_metrics: Optional[str] = None,
) -> Comparison:
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
    ``stream_metrics`` streams the canary run's snapshots to a JSONL file.
    """
    _run_length(duration_scale)
    if shards < 3:
        raise ValueError(
            f"a canary comparison needs at least 3 shards "
            f"(canary + >=2 baselines), got {shards}"
        )
    return _deploy_comparison(
        "canary",
        {
            "no-deploy": None,
            "canary": dict(stage_sizes=(1, shards), alert_rollback=False),
            "blind": dict(stage_sizes=(shards,), alert_rollback=False),
        },
        "canary",
        duration_scale, seed, scale, shards, ebs, leak_bytes, period_n, stream_metrics,
        title=f"Canary deployment at {shards} shards: "
        "no-deploy vs. canary+rollback vs. blind rollout",
        expectation=f"the '{CANARY_VERSION}' build of {COMPONENT_A} "
        "leaks; the canary strategy catches the leak from the observability "
        "plane's shard-level object-size series during the bake window and "
        "rolls back before any other shard is exposed, while the blind "
        "rollout ships the leak fleet-wide — canary wins on fleet SLA cost",
        columns=_DEPLOY_COLUMNS,
        # Strict at any duration scale: even if the run is too short for the
        # leak to cost exposure or errors, the blind rollout pays a deploy
        # outage on *every* shard while the caught canary pays only two
        # (deploy + rollback) on one shard — ``2/shards < 1`` of the blind
        # downtime whenever ``shards >= 3``.
        claim=(
            "canary+rollback SLA cost < blind rollout",
            lambda scenario: scenario.sla_cost("canary") < scenario.sla_cost("blind"),
        ),
    )


def _staged_wins(scenario: ComparisonResult) -> bool:
    # The staged pipeline pays at most the single-canary's price (same
    # first-stage blast radius, and the alert ruling can only shorten the
    # bad build's residence time) while the blind rollout pays a deploy
    # outage *and* the leak on every shard.  The bad build must be caught
    # while only stage 1's shards carry it: the staged run's peak concurrent
    # deployment is bounded by the first rung of the ladder.
    staged, single, blind = (scenario.sla_cost(mode) for mode in ROLLOUT_MODES)
    staged_run = scenario.result("staged")
    return (
        staged <= single <= blind
        and staged < blind
        and max_exposed_shards(staged_run) <= staged_run.rollout.ladder[0]
    )


def fig_rollout(
    duration_scale: float = 1.0,
    seed: int = 42,
    scale: Optional[PopulationScale] = None,
    shards: int = ROLLOUT_SHARDS,
    ebs: int = LEAK_EXPERIMENT_EBS,
    leak_bytes: int = CANARY_LEAK_BYTES,
    period_n: int = CANARY_PERIOD_N,
    stream_metrics: Optional[str] = None,
) -> Comparison:
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
    _run_length(duration_scale)
    if shards < 3:
        raise ValueError(
            f"a staged-rollout comparison needs at least 3 shards "
            f"(a stage + >=2 baselines), got {shards}"
        )
    return _deploy_comparison(
        "rollout",
        {
            "staged": {},
            "single-canary": dict(stage_sizes=(1, shards), alert_rollback=False),
            "blind": dict(stage_sizes=(shards,), alert_rollback=False),
        },
        "staged",
        duration_scale, seed, scale, shards, ebs, leak_bytes, period_n, stream_metrics,
        # Every mode runs the same framework settings so the runs differ only
        # in rollout strategy; the lowered alert threshold changes behaviour
        # only where a listener acts on it (the staged run).
        alert_bake_fraction=ROLLOUT_ALERT_BAKE_FRACTION,
        title=f"Progressive delivery at {shards} shards: "
        "staged ladder vs. single canary vs. blind rollout",
        expectation=f"the '{CANARY_VERSION}' build of {COMPONENT_A} "
        "leaks; the staged pipeline catches it during stage 1's bake — the "
        "deployed shard's aging alert triggers the analyzer ruling mid-bake "
        "— and partial rollback reverts only the deployed shards, so no "
        "more than the active stage is ever exposed; the blind rollout "
        "ships the leak fleet-wide",
        columns=_DEPLOY_COLUMNS[:6] + ("max_exposed",) + _DEPLOY_COLUMNS[6:],
        claim=("staged <= single-canary <= blind SLA cost, staged < blind", _staged_wins),
    )


# --------------------------------------------------------------------------- #
# Hybrid fluid/discrete scale validation
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


def rejuvenation_action_times(result: ExperimentResult) -> List[float]:
    """Sorted action times across every shard's controller."""
    return sorted(
        event.time
        for report in result.shard_rejuvenation
        for event in report.events
    )


def throughput_rel_diff(scenario: ComparisonResult) -> float:
    """Relative 1x throughput disagreement, ``|hybrid - discrete| / discrete``."""
    reference = scenario.result("discrete").mean_throughput()
    if reference <= 0.0:
        return 0.0
    return abs(scenario.result("hybrid").mean_throughput() - reference) / reference


def _exhaustion_time(result: ExperimentResult) -> Optional[float]:
    """Earliest per-shard (realized or extrapolated) heap exhaustion time."""
    capacity = float(result.config.server_config.heap_bytes)
    times = [extrapolated_exhaustion_time(series, capacity) for series in result.shard_heap_series]
    return min((t for t in times if t is not None), default=None)


def population_factor(scenario: ComparisonResult) -> int:
    """The scaled run's population multiplier."""
    ebs = [scenario.result(mode).config.constant_ebs for mode in ("hybrid-scaled", "discrete")]
    return ebs[0] // ebs[1]


def event_reduction(scenario: ComparisonResult) -> float:
    """Extrapolated discrete-event reduction of the scaled hybrid run."""
    scaled_events = scenario.result("hybrid-scaled").executed_events
    if scaled_events <= 0:
        return 0.0
    extrapolated = scenario.result("discrete").executed_events * population_factor(scenario)
    return extrapolated / scaled_events


def scale_bands(scenario: ComparisonResult) -> List[Dict[str, object]]:
    """One row per hybrid validation band: measured value, bound, verdict.

    The exhaustion band is vacuously true when *neither* 1x run shows an
    exhaustion trend (a smoke run may end before the leak produces a usable
    slope); a trend visible in exactly one of the two runs is a
    disagreement.  The decisions band allows a count slack and bounds the
    first-action time ratio.
    """
    rel_diff = throughput_rel_diff(scenario)
    discrete_tte, hybrid_tte = (
        _exhaustion_time(scenario.result(mode)) for mode in ("discrete", "hybrid")
    )
    if discrete_tte is None or hybrid_tte is None:
        exhaustion_ok = discrete_tte is None and hybrid_tte is None
    else:
        exhaustion_ok = within_tolerance(discrete_tte, hybrid_tte, HYBRID_TTE_TOLERANCE_FACTOR)
    discrete, hybrid = (
        rejuvenation_action_times(scenario.result(mode)) for mode in ("discrete", "hybrid")
    )
    decisions_ok = abs(len(discrete) - len(hybrid)) <= HYBRID_DECISION_COUNT_SLACK and (
        not (discrete and hybrid)
        or within_tolerance(discrete[0], hybrid[0], HYBRID_DECISION_TIME_FACTOR)
    )
    reduction = event_reduction(scenario)
    return [
        {
            "band": "throughput",
            "measured": round(rel_diff, 4),
            "bound": f"rel diff <= {HYBRID_THROUGHPUT_TOLERANCE}",
            "ok": rel_diff <= HYBRID_THROUGHPUT_TOLERANCE,
        },
        {
            "band": "exhaustion",
            "measured": f"discrete={discrete_tte and round(discrete_tte, 1)} "
            f"hybrid={hybrid_tte and round(hybrid_tte, 1)}",
            "bound": f"factor <= {HYBRID_TTE_TOLERANCE_FACTOR}",
            "ok": exhaustion_ok,
        },
        {
            "band": "decisions",
            "measured": f"discrete={len(discrete)} hybrid={len(hybrid)}",
            "bound": f"count +-{HYBRID_DECISION_COUNT_SLACK}, "
            f"first-action factor <= {HYBRID_DECISION_TIME_FACTOR}",
            "ok": decisions_ok,
        },
        {
            "band": "event-reduction",
            "measured": round(reduction, 1),
            "bound": f">= {SCALE_EVENT_REDUCTION_TARGET}x",
            "ok": reduction >= SCALE_EVENT_REDUCTION_TARGET,
        },
    ]


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
) -> Comparison:
    """Three same-seed runs validating the hybrid engine, then scaling it.

    The first two runs are the 1x cross-check: a full-discrete fleet and a
    hybrid fleet (bulk population as a fluid process, ``tracer_fraction`` of
    the EBs on the real servlet/SQL path), both aging under the same
    component-A leak with the proactive micro-reboot policy live.  The third
    run multiplies the hybrid population by ``population_factor`` (heap
    scaled with it, so exhaustion dynamics stay comparable) — a population
    no practical full-discrete run could serve, which is exactly the claim
    the event-reduction band quantifies: the scaled run must execute at
    least :data:`SCALE_EVENT_REDUCTION_TARGET` times fewer discrete events
    than a full-discrete run at the same population would (extrapolated
    linearly from the measured 1x event count).
    """
    duration = _run_length(duration_scale)
    if shards < 2:
        raise ValueError(f"the scale comparison needs at least 2 shards, got {shards}")
    if population_factor < 2:
        raise ValueError(f"population_factor must be >= 2, got {population_factor}")
    # Heap sizing mirrors fig_fleet: each shard's balancer share of the
    # component-A visit rate leaks toward the wall late in the run, so the
    # proactive policy has a real trend to act on in every mode.
    heap_bytes, scaled_heap_bytes = (
        _leak_heap_bytes(ebs, duration, 0.55, leak_bytes, period_n, shards, factor)
        for factor in (1, population_factor)
    )
    base = _base_config(
        duration_scale, seed, scale, ebs,
        faults=[_memory_leak(leak_bytes, period_n)],
        shards=shards,
        tracer_fraction=tracer_fraction,
    )
    configs: Dict[str, ExperimentConfig] = {}
    for mode in SCALE_MODES:
        scaled = mode == "hybrid-scaled"
        configs[mode] = replace(
            base,
            name=f"fig-scale-{mode}",
            constant_ebs=ebs * population_factor if scaled else ebs,
            server_config=ServerConfig(heap_bytes=scaled_heap_bytes if scaled else heap_bytes),
            rejuvenation=ProactiveRejuvenationPolicy(
                horizon=0.5 * duration, microreboot_downtime=max(0.5, 2.0 * duration_scale)
            ),
            simulation_mode="discrete" if mode == "discrete" else "hybrid",
        )
    return Comparison(
        title=f"Hybrid scale validation at {shards} shards: discrete vs. hybrid vs. "
        f"hybrid at {population_factor}x population",
        expectation="the hybrid engine (bulk population as a mean-field "
        "fluid process, a small tracer slice on the real servlet/SQL path) "
        "reproduces the discrete run's throughput, heap-exhaustion trend and "
        "rejuvenation decisions at 1x, then serves a population a "
        "full-discrete run could not — with the extrapolated discrete-event "
        "count cut by the reduction factor below",
        context=[
            f"1x population: {ebs} EBs, per-shard heap capacity: "
            f"{heap_bytes / MB:.2f} MB ({scaled_heap_bytes / MB:.2f} MB scaled), "
            f"run length: {duration:.0f} s"
        ],
        configs=configs,
        observe=fleet_observation,
        caption="per-run outcome",
        columns=(
            "mode", "ebs", "completed", "executed_events", "throughput_rps", "actions",
            "bulk_completions", "fluid_updates",
        ),
        tables=lambda scenario: {
            "bands": Table(
                "validation bands (1x cross-check + scaled event reduction)", scale_bands(scenario)
            )
        },
        claim=(
            "hybrid within every band",
            lambda scenario: all(row["ok"] for row in scale_bands(scenario)),
        ),
    )


# --------------------------------------------------------------------------- #
# Registries: summary columns and comparisons
# --------------------------------------------------------------------------- #
def _recycle_listing(result: ExperimentResult, resource: str) -> str:
    """``component xN`` recycles of one resource channel (``-`` for none)."""
    by_component = sorted(recycles(result).get(resource, {}).items())
    return ", ".join(f"{component} x{count}" for component, count in by_component) or "-"


def _heap_predictions(result: ExperimentResult) -> int:
    """Settled predictions of an adaptive run's heap predictor."""
    policy = result.policy
    return policy.predictor("heap").stats.count if "heap" in policy.calibrated_resources() else 0


_Column = Callable[["ComparisonResult", str], object]


def _of_run(read: Callable[[ExperimentResult], object]) -> _Column:
    """A summary column that reads only the mode's run."""
    return lambda scenario, mode: read(scenario.result(mode))


def _sla(read: _Column, digits: int) -> _Column:
    """An SLA column: ``read``'s value rounded to ``digits`` places, or
    unrounded when the comparison reports exact figures."""

    def column(scenario: "ComparisonResult", mode: str) -> object:
        value = read(scenario, mode)
        return value if scenario.comparison.exact else round(value, digits)

    return column


def _observed(name: str, digits: int) -> _Column:
    """A summary column reading one field of the mode's :class:`SlaObservation`."""
    return _sla(lambda scenario, mode: getattr(scenario.sla_observation(mode), name), digits)


#: Summary columns by name: each maps (comparison result, mode) to that
#: mode's value.  The mode-key columns split the mode name
#: (``workload/policy``, ``mode/runN``, and the ablation matrix's
#: ``fault/mechanism/seed/policy``).
SUMMARY_COLUMNS: Dict[str, _Column] = {
    "policy": lambda scenario, mode: mode.split("/")[-1],
    "workload": lambda scenario, mode: mode.split("/")[0],
    "mode": lambda scenario, mode: mode.split("/run")[0],
    "run": lambda scenario, mode: int(mode.split("/run")[1]),
    "fault": lambda scenario, mode: mode.split("/")[0],
    "mechanism": lambda scenario, mode: mode.split("/")[1],
    "seed": _of_run(lambda r: r.config.seed),
    "ebs": _of_run(lambda r: r.config.constant_ebs),
    "issued": _of_run(lambda r: r.issued_requests),
    "completed": _of_run(lambda r: r.completed_requests),
    "errors": _of_run(lambda r: r.error_count),
    "timeouts": _of_run(lambda r: r.client_timeouts),
    "retries": _of_run(lambda r: r.retry_attempts),
    "breaker_refusals": _of_run(lambda r: r.accounting.get("breaker_refusals", 0)),
    "executed_events": _of_run(lambda r: r.executed_events),
    "mean_rps": _of_run(lambda r: round(r.mean_throughput(), 3)),
    "throughput_rps": _of_run(lambda r: round(r.mean_throughput(), 3)),
    "mean_rt_s": _of_run(lambda r: round(r.mean_response_time, 3)),
    "mean_throughput_rps": _of_run(lambda r: round(r.mean_throughput(), 3)),
    "mean_response_time_s": _of_run(lambda r: round(r.mean_response_time, 4)),
    "actions": _of_run(_actions),
    "recycles": _of_run(_actions),
    "refused": lambda scenario, mode: scenario.sla_observation(mode).refused_requests,
    "downtime_s": _observed("downtime_seconds", 2),
    "below_floor_s": _observed("downtime_seconds", 2),
    "exposure_s": _observed("exposure_seconds", 1),
    "budget_burn": lambda scenario, mode: round(
        scenario.comparison.cost_model.budget_burn(scenario.sla_observation(mode)), 2
    ),
    "sla_cost": _sla(ComparisonResult.sla_cost, 1),
    # Monitoring cost (the paper's figures and the scope ablation).
    "overhead_seconds": _of_run(lambda r: round(r.overhead_seconds, 2)),
    "monitored_fraction": lambda scenario, mode: float(mode),
    # Rejuvenation and calibration.
    "reclaimed_mb": _of_run(
        lambda r: round((r.rejuvenation.reclaimed_bytes if r.rejuvenation else 0) / MB, 2)
    ),
    "final_heap_mb": _of_run(
        lambda r: round(float(r.heap_series.values[-1]) / MB if len(r.heap_series) else 0.0, 2)
    ),
    "heap_recycles": _of_run(lambda r: _recycle_listing(r, "heap")),
    "connection_recycles": _of_run(lambda r: _recycle_listing(r, "connections")),
    "warm_started": _of_run(lambda r: r.policy.warm_started),
    "opening_horizon_s": _of_run(lambda r: round(r.policy.opening_horizon("heap"), 1)),
    "final_horizon_s": _of_run(lambda r: round(r.policy.horizon("heap"), 1)),
    "predictions": _of_run(_heap_predictions),
    # Fault attribution.
    "blamed": _of_run(lambda r: _blamed(zoo_attribution(r))),
    "description": _of_run(lambda r: "; ".join(r.fault_descriptions)),
    # Fleets.
    "deferred": _of_run(
        lambda r: r.fleet.rejuvenation.deferred_checks if r.fleet.rejuvenation else 0
    ),
    "min_capacity_pct": _of_run(lambda r: round(100.0 * min_capacity_fraction(r), 1)),
    "failovers": _of_run(lambda r: r.fleet.balancer["failovers"]),
    "bulk_completions": _of_run(lambda r: round(r.fluid.bulk_completions, 1) if r.fluid else 0.0),
    "fluid_updates": _of_run(lambda r: r.fluid.updates if r.fluid else 0),
    # Deploys.
    "deploys": _of_run(
        lambda r: sum(e["action"] == "deploy" for e in r.rollout.events) if r.rollout else 0
    ),
    "rolled_back": _of_run(lambda r: r.rollout.rolled_back if r.rollout else False),
    "max_exposed": _of_run(max_exposed_shards),
    "leaky_shards": _of_run(
        lambda r: sum(v != BASELINE_VERSION for v in r.rollout.versions.values())
        if r.rollout
        else 0
    ),
}


#: Every registered comparison builder (the paper's figures first), by CLI name.
COMPARISONS: Dict[str, Callable[..., Comparison]] = {
    "fig3": fig3_overhead,
    "fig4": fig4_single_leak,
    "fig5": fig5_multi_leak,
    "fig7": fig7_injection_sizes,
    "rejuvenation": fig_rejuvenation,
    "adaptive": fig_adaptive,
    "mixed": fig_mixed,
    "learning": fig_learning,
    "zoo": fig_zoo,
    "storm": fig_retry_storm,
    "fleet": fig_fleet,
    "canary": fig_canary,
    "rollout": fig_rollout,
    "scale": fig_scale,
}
