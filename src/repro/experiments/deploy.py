"""Rolling deploys, canary analysis, staged rollouts and automated rollback.

The continuous-delivery scenario family the sharded cluster makes possible.
One :class:`RolloutController` executes a :class:`RolloutPlan`: it swaps a
per-shard :class:`ComponentVersion` inside the same outage-window machinery
rejuvenation uses (a deploy *is* a micro-reboot that comes back up running
different code) and walks a cumulative stage ladder.  Each non-final stage
deploys, bakes, and is ruled by a :class:`CanaryAnalyzer`, which compares the
deployed shards' monitored series against the not-yet-deployed baseline
shards (Mann–Kendall trend + growth ratio + an SLA-burn delta); a failed
ruling rolls back *only the deployed shards* (partial rollback), and with
``alert_rollback`` the manager's aging-suspect notification for the deployed
component can trigger the ruling mid-bake instead of waiting for the fixed
deadline (alert-driven rollback).  The final stage has no baselines left to
rule against and logs a trailing ``complete`` event.

Every rollout shape the scenarios compare is a ladder over an N-shard fleet:

- the default ``(1, ⌈N/2⌉, N)`` is progressive delivery;
- ``(1, N)`` with ``alert_rollback=False`` is the classic canary: one shard
  bakes to its deadline, then the rest of the fleet follows or the canary
  rolls back;
- ``(N,)`` is the blind staggered rollout, which rules nothing (and so runs
  on an unmonitored fleet too).

Shards deploy in ascending index order rotated so the first stage lands on
the top ``ladder[0]`` shards: the canary is the last shard, and the rest of
the fleet follows in ascending order.

Version semantics in the simulation: the servlet *object* stays, what a
version changes is its fault load — a ``ComponentVersion`` carries the
:class:`~repro.faults.injector.FaultSpec` list its code exhibits (an empty
tuple is a healthy build).  Deploying attaches those faults to the shard's
servlet after clearing the component's retained state; rolling back detaches
them and clears the state the bad build accumulated.

The analyzer reads its series through a *source* (:class:`LiveClusterSource`
over a running cluster, or :class:`~repro.obs.transports.ReplaySource` over
a recorded JSONL metrics stream), so recorded runs replay offline with the
identical ruling code path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.trend import mann_kendall
from repro.baselines.rejuvenation import exposure_seconds
from repro.core.manager_agent import AGING_SUSPECT_NOTIFICATION
from repro.faults.injector import FaultSpec
from repro.jmx.notifications import type_filter
from repro.sim.metrics import TimeSeries
from repro.slo.cost_model import SlaCostModel, SlaObservation

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids circular imports)
    from repro.experiments.cluster import ShardHandle, SimulatedCluster
    from repro.obs.registry import MetricsRegistry
    from repro.sim.engine import SimulationEngine

#: Deploys land *before* the manager snapshots (priority 5) of the same
#: tick, so the first post-deploy poll already sees the new version's state.
DEPLOY_PRIORITY = 3

#: Canary analysis runs *after* every same-tick monitoring event (manager
#: snapshot 5, black-box 6, rejuvenation 7/8), so the verdict always reads
#: fresh series.
ANALYZE_PRIORITY = 9

#: Version label shards carry before their first deploy.
BASELINE_VERSION = "baseline"

#: Fewest bake-window samples the analyzer accepts before ruling; with
#: fewer, both growths degenerate to 0.0 and a promote would be a verdict
#: on *no data* — the analyzer refuses to rule instead (the stage fails).
MIN_RULING_SAMPLES = 2


@dataclass(frozen=True)
class ComponentVersion:
    """One deployable build of one component."""

    component: str
    version: str
    #: The faults this build exhibits (empty = a healthy build).
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.faults:
            if spec.component != self.component:
                raise ValueError(
                    f"fault spec targets {spec.component!r} but the version "
                    f"deploys {self.component!r}"
                )


def default_stage_ladder(shard_count: int) -> Tuple[int, ...]:
    """The default progressive ladder: 1 → ⌈N/2⌉ → N shards (deduplicated)."""
    if shard_count < 2:
        raise ValueError(
            f"a staged rollout needs at least 2 shards "
            f"(one canary stage + a fleet to protect), got {shard_count}"
        )
    ladder: List[int] = []
    for size in (1, (shard_count + 1) // 2, shard_count):
        if not ladder or size > ladder[-1]:
            ladder.append(size)
    return tuple(ladder)


@dataclass
class RolloutPlan:
    """Progressive delivery of a :class:`ComponentVersion` over a stage ladder.

    Each entry of :attr:`stage_sizes` is the *cumulative* number of shards
    running the new build once that stage has deployed; the final entry must
    equal the fleet size.  ``None`` derives the default 1 → ⌈N/2⌉ → N ladder
    at install time.  Every non-final stage bakes for
    :attr:`stage_bake_seconds` after its last shard deploys and is then
    ruled by the analyzer against the not-yet-deployed shards; the final
    stage has no baselines left to compare against and simply completes the
    rollout.
    """

    version: ComponentVersion
    #: Absolute sim time of the first stage's first deploy.
    start_time: float
    #: Cumulative shard counts per stage; ``None`` uses the default ladder.
    stage_sizes: Optional[Tuple[int, ...]] = None
    #: Seconds each non-final stage bakes (after its last shard deploys)
    #: before the analyzer's deadline ruling.
    stage_bake_seconds: float = 300.0
    #: Gap between consecutive shard deploys inside a stage (and between a
    #: stage's promotion and the next stage's first deploy).
    stagger_seconds: float = 60.0
    #: Outage-window length of each per-shard swap.
    deploy_downtime_seconds: float = 5.0
    #: Let the manager's aging-suspect notification for the deployed
    #: component trigger the stage ruling mid-bake (early rollback) instead
    #: of waiting for the fixed bake deadline.
    alert_rollback: bool = True

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError(f"start_time must be >= 0, got {self.start_time}")
        if self.stagger_seconds < 0:
            raise ValueError(f"stagger_seconds must be >= 0, got {self.stagger_seconds}")
        if self.deploy_downtime_seconds <= 0:
            raise ValueError(
                f"deploy_downtime_seconds must be positive, got {self.deploy_downtime_seconds}"
            )
        if self.stage_bake_seconds <= 0:
            raise ValueError(
                f"stage_bake_seconds must be positive, got {self.stage_bake_seconds}"
            )
        if self.stage_sizes is not None:
            sizes = tuple(int(size) for size in self.stage_sizes)
            if not sizes:
                raise ValueError("stage_sizes must not be empty")
            previous = 0
            for size in sizes:
                if size <= previous:
                    raise ValueError(
                        f"stage_sizes must be strictly increasing, got {sizes}"
                    )
                previous = size
            self.stage_sizes = sizes

    def ladder(self, shard_count: int) -> Tuple[int, ...]:
        """The resolved cumulative stage ladder for a ``shard_count`` fleet."""
        if self.stage_sizes is None:
            return default_stage_ladder(shard_count)
        if self.stage_sizes[-1] != shard_count:
            raise ValueError(
                f"stage ladder {self.stage_sizes} must end at the fleet size "
                f"(shards: {shard_count})"
            )
        return self.stage_sizes


@dataclass(frozen=True)
class CanaryVerdict:
    """The analyzer's ruling on one baked canary (or rollout stage)."""

    promote: bool
    reason: str
    canary_growth_bytes: float
    baseline_growth_bytes: float
    growth_ratio: float
    p_value: float
    trending_up: bool
    canary_exposure_cost: float
    baseline_exposure_cost: float
    #: Samples the ruled (worst) deployed shard had in its bake window; the
    #: analyzer refuses to promote below :data:`MIN_RULING_SAMPLES`.
    canary_samples: int = 0
    #: The bake window had too few samples to support any promotion.
    insufficient_data: bool = False
    #: The ruling fired at end-of-run because the full bake window did not
    #: fit inside the run (stamped by the controller, not the analyzer).
    truncated_bake: bool = False


class LiveClusterSource:
    """Analyzer series source reading a live :class:`SimulatedCluster`.

    The replay twin is :class:`~repro.obs.transports.ReplaySource`, which
    serves the same three reads from a recorded JSONL metrics stream.
    """

    def __init__(self, cluster: "SimulatedCluster") -> None:
        self.cluster = cluster

    def _shard(self, shard_index: int) -> "ShardHandle":
        shards = self.cluster.shards
        if not 0 <= shard_index < len(shards):
            raise ValueError(
                f"no shard {shard_index} (cluster has {len(shards)} shards)"
            )
        return shards[shard_index]

    def object_values(
        self, shard_index: int, component: str, start: float, end: float
    ) -> List[float]:
        """The component's monitored object sizes on one shard in ``[start, end]``."""
        series = self._shard(shard_index).object_series(component)
        return [
            float(value)
            for t, value in zip(series.times, series.values)
            if start - 1e-9 <= float(t) <= end + 1e-9
        ]

    def heap_series(self, shard_index: int, end: float) -> TimeSeries:
        """The shard's heap series truncated to samples at or before ``end``.

        Mid-run the live series has no samples past ``end`` yet, so this is
        a pass-through; the truncation exists so a post-hoc caller (and the
        replay source) integrates exactly the window the live ruling saw.
        """
        return _truncate_series(self._shard(shard_index).heap_series(), end)

    def heap_capacity(self, shard_index: int) -> float:
        """The shard's total heap capacity in bytes."""
        return self._shard(shard_index).heap_capacity()


def _truncate_series(series: TimeSeries, end: float) -> TimeSeries:
    """``series`` restricted to samples with ``time <= end`` (pass-through
    when nothing extends past ``end``)."""
    if len(series) == 0 or float(series.times[-1]) <= end + 1e-9:
        return series
    mask = series.times <= end + 1e-9
    truncated = TimeSeries(series.name)
    truncated.record_many(series.times[mask], series.values[mask])
    return truncated


class CanaryAnalyzer:
    """Compares the deployed shards' series against the baseline shards.

    Three read-only signals over each deployed shard's bake window
    ``[deploy, now]``, all from the per-shard monitoring the registry
    exposes:

    - the deployed component's object-size trend on the shard must not be a
      *significant* Mann–Kendall increase, and
    - its growth must stay under ``growth_ratio_threshold`` times the mean
      baseline-shard growth of the same component, and
    - the shard's exposure-weighted SLA cost over the window must not
      exceed the mean baseline shard's by more than ``burn_delta_threshold``.

    A window with fewer than :data:`MIN_RULING_SAMPLES` samples supports
    none of the three signals; the analyzer then *refuses to rule* — the
    verdict fails with ``insufficient_data`` set — rather than promoting on
    no data.
    """

    def __init__(
        self,
        growth_ratio_threshold: float = 2.0,
        alpha: float = 0.05,
        burn_delta_threshold: float = 1.0,
        cost_model: Optional[SlaCostModel] = None,
    ) -> None:
        if growth_ratio_threshold <= 1.0:
            raise ValueError(
                f"growth_ratio_threshold must exceed 1.0, got {growth_ratio_threshold}"
            )
        self.growth_ratio_threshold = growth_ratio_threshold
        self.alpha = alpha
        self.burn_delta_threshold = burn_delta_threshold
        self.cost_model = cost_model or SlaCostModel()

    def thresholds(self) -> Dict[str, float]:
        """The ruling thresholds, in :class:`CanaryAnalyzer` kwarg form.

        Recorded alongside every ruling event so an offline replay
        reconstructs the exact analyzer (or tunes one knob against the same
        recorded series).
        """
        return {
            "growth_ratio_threshold": float(self.growth_ratio_threshold),
            "alpha": float(self.alpha),
            "burn_delta_threshold": float(self.burn_delta_threshold),
        }

    # ------------------------------------------------------------------ #
    def _exposure_cost(self, source, shard_index: int, start: float, end: float) -> float:
        capacity = source.heap_capacity(shard_index)
        exposure = exposure_seconds(
            source.heap_series(shard_index, end), capacity, window_end=end
        )
        observation = SlaObservation(
            duration_seconds=max(end - start, 1e-9), exposure_seconds=exposure
        )
        return self.cost_model.score(observation)

    def analyze_stage(
        self,
        source,
        component: str,
        deployed: Sequence[Tuple[int, float]],
        baselines: Sequence[int],
        now: float,
    ) -> CanaryVerdict:
        """Rule on a set of deployed shards against the baseline shards.

        ``deployed`` is ``(shard_index, deploy_time)`` pairs; each deployed
        shard is judged over its own window ``[deploy_time, now]`` against
        the baseline shards' behaviour over the same window, and the stage
        verdict is the *worst* deployed shard's.  ``source`` is anything
        exposing ``object_values`` / ``heap_series`` / ``heap_capacity``
        (:class:`LiveClusterSource` or a replayed stream).
        """
        if not deployed:
            raise ValueError("analyze_stage needs at least one deployed shard")
        stats: List[Dict[str, object]] = []
        for shard_index, deploy_time in deployed:
            values = source.object_values(shard_index, component, deploy_time, now)
            growth = values[-1] - values[0] if len(values) >= 2 else 0.0
            baseline_growths = []
            for baseline_index in baselines:
                baseline_values = source.object_values(
                    baseline_index, component, deploy_time, now
                )
                baseline_growths.append(
                    baseline_values[-1] - baseline_values[0]
                    if len(baseline_values) >= 2
                    else 0.0
                )
            baseline_growth = (
                sum(baseline_growths) / len(baseline_growths)
                if baseline_growths
                else 0.0
            )
            # A flat baseline must not shield a growing canary: the ratio
            # floor is one injected-allocation's worth of bytes.
            ratio = growth / max(baseline_growth, 1024.0)
            trend = mann_kendall(values, alpha=self.alpha)
            cost = self._exposure_cost(source, shard_index, deploy_time, now)
            baseline_cost = (
                sum(
                    self._exposure_cost(source, b, deploy_time, now)
                    for b in baselines
                )
                / len(baselines)
                if baselines
                else 0.0
            )
            stats.append(
                {
                    "shard": shard_index,
                    "samples": len(values),
                    "growth": float(growth),
                    "baseline_growth": float(baseline_growth),
                    "ratio": float(ratio),
                    "p_value": float(trend.p_value),
                    "trending_up": bool(trend.trending_up),
                    "cost": float(cost),
                    "baseline_cost": float(baseline_cost),
                    "burn_delta": float(cost - baseline_cost),
                }
            )

        def _verdict(row, promote, reason, insufficient=False):
            return CanaryVerdict(
                promote=promote,
                reason=reason,
                canary_growth_bytes=row["growth"],
                baseline_growth_bytes=row["baseline_growth"],
                growth_ratio=row["ratio"],
                p_value=row["p_value"],
                trending_up=row["trending_up"],
                canary_exposure_cost=row["cost"],
                baseline_exposure_cost=row["baseline_cost"],
                canary_samples=int(row["samples"]),
                insufficient_data=insufficient,
            )

        starved = [row for row in stats if row["samples"] < MIN_RULING_SAMPLES]
        if starved:
            row = starved[0]
            return _verdict(
                row,
                promote=False,
                reason=(
                    f"only {row['samples']} {component} sample(s) in the bake "
                    f"window (need {MIN_RULING_SAMPLES}); refusing to rule on no data"
                ),
                insufficient=True,
            )
        for row in stats:
            if row["trending_up"] and row["ratio"] >= self.growth_ratio_threshold:
                return _verdict(
                    row,
                    promote=False,
                    reason=(
                        f"{component} object size trends up on the canary "
                        f"(p={row['p_value']:.4f}) at {row['ratio']:.1f}x the baseline growth"
                    ),
                )
        for row in stats:
            if row["burn_delta"] > self.burn_delta_threshold:
                return _verdict(
                    row,
                    promote=False,
                    reason=(
                        f"canary SLA burn exceeds the baseline by {row['burn_delta']:.2f} "
                        f"(threshold {self.burn_delta_threshold:g})"
                    ),
                )
        worst = max(stats, key=lambda row: row["ratio"])
        return _verdict(
            worst,
            promote=True,
            reason=(
                f"no significant {component} growth "
                f"(ratio {worst['ratio']:.2f}x, p={worst['p_value']:.4f}) and burn delta "
                f"{worst['burn_delta']:.2f} within threshold"
            ),
        )


@dataclass
class RolloutReport:
    """Summary of one rollout (for results and reports)."""

    version: str
    component: str
    events: List[Dict[str, object]]
    rolled_back: bool
    outage_seconds: float
    #: Final shard -> version-label map, in shard order.
    versions: Dict[int, str]
    #: The resolved cumulative stage ladder.
    ladder: Tuple[int, ...]
    #: One row per stage that started: deploy/ruling times, trigger, outcome.
    stages: List[Dict[str, object]]
    #: Stage rulings in order (one per ruled stage).
    verdicts: List[CanaryVerdict]
    #: Whether the final stage deployed (the build reached the whole fleet).
    completed: bool

    @property
    def verdict(self) -> Optional[CanaryVerdict]:
        """The last stage ruling (None before any stage was ruled)."""
        return self.verdicts[-1] if self.verdicts else None

    def max_concurrent_deploys(self) -> int:
        """Most shards simultaneously on the new version (the blast radius)."""
        on_version: set = set()
        peak = 0
        for event in self.events:
            if event["action"] == "deploy":
                on_version.add(event["shard"])
            elif event["action"] == "rollback":
                on_version.discard(event["shard"])
            peak = max(peak, len(on_version))
        return peak


class RolloutController:
    """Executes a :class:`RolloutPlan`: progressive delivery over a ladder.

    Each per-shard swap reuses the micro-reboot machinery: a component-scoped
    outage window, the component's retained state cleared and its owned heap
    reclaimed, then the new version's fault load attached (or detached on
    rollback).  Every event is appended to :attr:`events` and published to
    the metrics registry when one is attached.

    Shards deploy in ascending index order rotated so that the first stage
    lands on the top ``ladder[0]`` shards: ``(1, N)`` deploys shard ``N-1``
    and then ``0 … N-2``, ``(N,)`` deploys ``0 … N-1``.  Deploys whose slot
    falls at or past the run end are skipped.  Each non-final stage bakes
    after its last deploy, then the analyzer rules the stage's shards
    against the not-yet-deployed shards; a failed ruling rolls back *every
    deployed shard* (the current stage and all promoted ones — partial
    rollback, the baselines are never touched) at the ruling tick.  With
    ``alert_rollback`` the deployed shards' managers' aging-suspect
    notifications for the deployed component trigger the ruling mid-bake;
    an alert ruling that finds fewer than :data:`MIN_RULING_SAMPLES`
    samples is ignored (the deadline ruling still happens).  The final
    stage has no baselines left to rule against and records completion
    instead.
    """

    def __init__(
        self,
        cluster: "SimulatedCluster",
        engine: "SimulationEngine",
        plan: RolloutPlan,
        registry: Optional["MetricsRegistry"] = None,
        analyzer: Optional[CanaryAnalyzer] = None,
    ) -> None:
        self.cluster = cluster
        self.engine = engine
        self.plan = plan
        self.registry = registry
        self.analyzer = analyzer or CanaryAnalyzer()
        self.source = LiveClusterSource(cluster)
        self.ladder = plan.ladder(len(cluster.shards))
        indices = [shard.index for shard in cluster.shards]
        split = len(indices) - self.ladder[0]
        order = indices[split:] + indices[:split]
        self._stage_shards: List[List[int]] = [
            order[low:high] for low, high in zip((0,) + self.ladder, self.ladder)
        ]
        self.events: List[Dict[str, object]] = []
        self.versions: Dict[int, str] = {index: BASELINE_VERSION for index in indices}
        self.rolled_back = False
        self.outage_seconds = 0.0
        self.verdicts: List[CanaryVerdict] = []
        self.stage_rows: List[Dict[str, object]] = []
        self.completed = False
        self.aborted = False
        self._duration = 0.0
        self._current_stage = -1
        self._ruled_stages: set = set()
        #: stage -> (deadline, truncated) of the pending deadline ruling.
        self._stage_deadline: Dict[int, Tuple[float, bool]] = {}
        #: stage -> time its last shard deployed (alerts earlier are ignored).
        self._stage_deployed_at: Dict[int, float] = {}
        self._listened_shards: set = set()
        self._attached_faults: Dict[int, List[object]] = {}
        self._deploy_times: Dict[int, float] = {}

    @property
    def component(self) -> str:
        """The deployed component (read by the metrics registry)."""
        return self.plan.version.component

    # ------------------------------------------------------------------ #
    def schedule(self, duration: float) -> None:
        """Schedule the rollout over a run of ``duration`` seconds (ending
        after the plan's start; see
        :meth:`~repro.experiments.runner.ExperimentConfig.validate`)."""
        plan = self.plan
        self._duration = float(duration)
        self.engine.schedule_at(
            plan.start_time,
            lambda when=plan.start_time: self._start_stage(0, when),
            priority=DEPLOY_PRIORITY,
            name="rollout.stage",
        )

    # ------------------------------------------------------------------ #
    def _record(self, event: Dict[str, object]) -> None:
        self.events.append(event)
        if self.registry is not None:
            self.registry.record_deploy_event(event)

    def _swap(self, shard: "ShardHandle", when: float) -> Tuple[int, int]:
        """The shared deploy/rollback mechanics: outage, clear, reclaim."""
        component = self.plan.version.component
        downtime = self.plan.deploy_downtime_seconds
        shard.deployment.server.begin_outage(when, when + downtime, component=component)
        self.outage_seconds += downtime
        shard.deployment.servlet(component).instance_root.clear_references()
        return shard.deployment.runtime.reclaim_owned(component)

    def _start_stage(self, stage: int, when: float) -> None:
        if self.aborted:
            return
        self._current_stage = stage
        plan = self.plan
        deploys: List[Tuple[int, float]] = []
        for offset, index in enumerate(self._stage_shards[stage]):
            at = when + offset * plan.stagger_seconds
            if at >= self._duration:
                # A swap at the run end would charge its whole outage window
                # to a run that is already over.
                break
            deploys.append((index, at))
        for index, at in deploys:
            if at <= when + 1e-12:
                self._deploy(stage, index, when)
            else:
                self.engine.schedule_at(
                    at,
                    lambda when=at, i=index, k=stage: self._deploy(k, i, when),
                    priority=DEPLOY_PRIORITY,
                    name="rollout.deploy",
                )
        # Stages start strictly before the run end, so the first deploy
        # always fits.
        last_at = deploys[-1][1]
        self._stage_deployed_at[stage] = last_at
        self.stage_rows.append(
            {
                "stage": stage,
                "size": self.ladder[stage],
                "shards": [index for index, _ in deploys],
                "deployed_at": round(last_at, 6),
            }
        )
        if stage == len(self.ladder) - 1:
            # No baselines are left to rule against; the rollout completes
            # once the last shard is on the new build (unless the run end
            # cut the stage short).
            if len(deploys) == len(self._stage_shards[stage]):
                self.engine.schedule_at(
                    last_at,
                    lambda when=last_at: self._complete(when),
                    priority=ANALYZE_PRIORITY,
                    name="rollout.complete",
                )
            return
        deadline = last_at + plan.stage_bake_seconds
        truncated = deadline > self._duration + 1e-9
        if truncated:
            # Rule at end-of-run on whatever baked rather than leaving the
            # stage deployed with no verdict.
            deadline = self._duration
        self._stage_deadline[stage] = (deadline, truncated)
        self.engine.schedule_at(
            deadline,
            lambda when=deadline, k=stage: self._rule_stage(k, when, "deadline"),
            priority=ANALYZE_PRIORITY,
            name="rollout.analyze",
        )

    def _deploy(self, stage: int, index: int, when: float) -> None:
        if self.aborted:
            return
        shard = self.cluster.shards[index]
        version = self.plan.version
        objects, reclaimed = self._swap(shard, when)
        servlet = shard.deployment.servlet(version.component)
        attached: List[object] = []
        for spec in version.faults:
            fault = spec.build(shard.deployment.streams)
            servlet.attach_fault(fault)
            attached.append(fault)
        self._attached_faults[index] = attached
        self._deploy_times[index] = when
        self.versions[index] = version.version
        self._record(
            {
                "time_s": round(when, 6),
                "shard": index,
                "action": "deploy",
                "version": version.version,
                "component": version.component,
                "downtime_s": self.plan.deploy_downtime_seconds,
                "detail": f"reclaimed {reclaimed} B / {objects} objects from the old build",
                "stage": stage,
            }
        )
        if self.plan.alert_rollback:
            self._install_alert_listener(index)

    def _rollback(
        self, index: int, when: float, reason: str, extra: Dict[str, object]
    ) -> None:
        shard = self.cluster.shards[index]
        component = self.plan.version.component
        servlet = shard.deployment.servlet(component)
        for fault in self._attached_faults.pop(index, []):
            servlet.detach_fault(fault)
        objects, reclaimed = self._swap(shard, when)
        self._deploy_times.pop(index, None)
        self.versions[index] = BASELINE_VERSION
        self.rolled_back = True
        event: Dict[str, object] = {
            "time_s": round(when, 6),
            "shard": index,
            "action": "rollback",
            "version": BASELINE_VERSION,
            "component": component,
            "downtime_s": self.plan.deploy_downtime_seconds,
            "detail": f"{reason}; reclaimed {reclaimed} B / {objects} objects",
        }
        event.update(extra)
        self._record(event)

    def _install_alert_listener(self, index: int) -> None:
        shard = self.cluster.shards[index]
        if shard.framework is None or index in self._listened_shards:
            return
        self._listened_shards.add(index)
        component = self.plan.version.component

        def relay(notification, handback) -> None:
            if notification.attributes.get("component") != component:
                return
            self._on_alert(float(notification.timestamp))

        shard.framework.manager.add_notification_listener(
            relay, type_filter(AGING_SUSPECT_NOTIFICATION)
        )

    def _on_alert(self, when: float) -> None:
        stage = self._current_stage
        if (
            self.aborted
            or self.completed
            or stage < 0
            or stage in self._ruled_stages
            or stage not in self._stage_deadline
        ):
            return
        if when < self._stage_deployed_at[stage] - 1e-9:
            # The stage is still rolling out; let the bake start first.
            return
        # The notification fires inside the manager's flush; re-enter at the
        # analysis priority of the same tick so the ruling reads the full
        # tick's monitoring, exactly like a deadline ruling would.
        self.engine.schedule_at(
            when,
            lambda t=when, k=stage: self._rule_stage(k, t, "alert"),
            priority=ANALYZE_PRIORITY,
            name="rollout.alert",
        )

    def _rule_stage(self, stage: int, when: float, trigger: str) -> None:
        if (
            self.aborted
            or self.completed
            or stage in self._ruled_stages
            or stage != self._current_stage
        ):
            return
        plan = self.plan
        deployed = [
            (index, self._deploy_times[index])
            for index in self._stage_shards[stage]
            if index in self._deploy_times
        ]
        baselines = [
            shard.index
            for shard in self.cluster.shards
            if shard.index not in self._deploy_times
        ]
        verdict = self.analyzer.analyze_stage(
            self.source, plan.version.component, deployed, baselines, when
        )
        if trigger == "alert" and verdict.insufficient_data:
            # Too few samples to act on the alert; the deadline ruling will
            # see a full window.
            return
        _, truncated = self._stage_deadline[stage]
        if trigger == "deadline" and truncated:
            verdict = replace(verdict, truncated_bake=True)
        self._ruled_stages.add(stage)
        self.verdicts.append(verdict)
        # Everything an offline replay needs to re-run this exact ruling.
        payload = {
            "deployed": [[int(index), round(float(t), 6)] for index, t in deployed],
            "baselines": [int(index) for index in baselines],
            "ruled_at": round(when, 6),
            "trigger": trigger,
            "truncated_bake": bool(verdict.truncated_bake),
            "thresholds": self.analyzer.thresholds(),
            "verdict": asdict(verdict),
        }
        self.stage_rows[-1].update(
            {
                "ruled_at": round(when, 6),
                "trigger": trigger,
                "promote": verdict.promote,
                "reason": verdict.reason,
            }
        )
        if verdict.promote:
            self._record(
                {
                    "time_s": round(when, 6),
                    "shard": deployed[0][0],
                    "action": "promote",
                    "version": plan.version.version,
                    "component": plan.version.component,
                    "downtime_s": 0.0,
                    "detail": verdict.reason,
                    "stage": stage,
                    "trigger": trigger,
                    "analysis": payload,
                }
            )
            next_at = when + plan.stagger_seconds
            if next_at < self._duration:
                self.engine.schedule_at(
                    next_at,
                    lambda t=next_at, k=stage + 1: self._start_stage(k, t),
                    priority=DEPLOY_PRIORITY,
                    name="rollout.stage",
                )
            return
        # Partial rollback: every deployed shard (this stage and the
        # promoted ones) reverts at the ruling tick; the not-yet-deployed
        # shards were never touched.  An emergency rollback is simultaneous
        # on purpose — a bad build burns SLA for as long as it stays up.
        self.aborted = True
        to_roll = [index for index in self.versions if index in self._deploy_times]
        for position, index in enumerate(sorted(to_roll, reverse=True)):
            extra: Dict[str, object] = {"stage": stage, "trigger": trigger}
            if position == 0:
                extra["analysis"] = payload
            self._rollback(index, when, verdict.reason, extra)

    def _complete(self, when: float) -> None:
        if self.aborted:
            return
        self.completed = True
        plan = self.plan
        self.stage_rows[-1].update({"completed_at": round(when, 6), "promote": True})
        self._record(
            {
                "time_s": round(when, 6),
                "shard": self._stage_shards[-1][-1],
                "action": "complete",
                "version": plan.version.version,
                "component": plan.version.component,
                "downtime_s": 0.0,
                "detail": (
                    f"rollout complete: {len(self.cluster.shards)} shards on "
                    f"{plan.version.version}"
                ),
                "stage": len(self.ladder) - 1,
            }
        )

    # ------------------------------------------------------------------ #
    def report(self) -> RolloutReport:
        """Summarise the rollout."""
        return RolloutReport(
            version=self.plan.version.version,
            component=self.plan.version.component,
            events=[dict(event) for event in self.events],
            rolled_back=self.rolled_back,
            outage_seconds=self.outage_seconds,
            versions=dict(self.versions),
            ladder=self.ladder,
            stages=[dict(row) for row in self.stage_rows],
            verdicts=list(self.verdicts),
            completed=self.completed,
        )
