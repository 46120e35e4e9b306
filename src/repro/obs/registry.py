"""The metrics registry: a deterministic, read-only window onto a run.

The registry holds live references into a running experiment (the cluster's
shards, the workload generator's ledger, the per-shard rejuvenation
controllers and any deployment controller) and computes every snapshot *on
read* as a pure function of simulation state.  It never schedules events,
never draws randomness and never mutates what it observes, so attaching it
cannot change a run's outputs.

The one subtlety is the manager's buffered sample intake: reading
``manager.map`` folds buffered samples early.  That fold is semantically
invisible — samples carry their own timestamps, so the folded series are
identical regardless of *when* the fold happens, and
:meth:`~repro.core.manager_agent.ManagerAgent.record_sample` already
early-flushes the instant its running growth estimate crosses the alert
threshold, so an aging alert can never sit latent in the buffer for a
registry read to release.  ``tests/test_obs.py`` pins the resulting
zero-effect guarantee with an A/B identity run.

Snapshots are canonicalised (floats rounded to 6 decimal places, keys
sorted, compact separators) so :meth:`MetricsRegistry.snapshot_json` is
byte-identical per seed.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.baselines.rejuvenation import exposure_seconds
from repro.core.manager_agent import AGING_SUSPECT_NOTIFICATION
from repro.jmx.notifications import type_filter
from repro.slo.cost_model import SlaCostModel, SlaObservation

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids circular imports)
    from repro.experiments.cluster import SimulatedCluster
    from repro.experiments.runner import ExperimentConfig
    from repro.tpcw.workload import WorkloadGenerator


def canonical_value(value):
    """Round every float in a JSON-ish value to 6 decimal places.

    The rounding is what makes snapshots byte-stable: every number the
    registry exports goes through here before serialisation, so two runs of
    the same seed serialise to the same bytes even if an intermediate
    compiles to a differently-printed ``repr``.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {str(key): canonical_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    return value


class MetricsRegistry:
    """Publish-side of the observability plane; one registry per run.

    Parameters
    ----------
    cost_model:
        The SLA cost model the rolling SLA burn figures use (defaults
        to the repo-wide :class:`~repro.slo.cost_model.SlaCostModel`).
    """

    def __init__(self, cost_model: Optional[SlaCostModel] = None) -> None:
        self.cost_model = cost_model or SlaCostModel()
        self._cluster: Optional["SimulatedCluster"] = None
        self._generator: Optional["WorkloadGenerator"] = None
        self._config: Optional["ExperimentConfig"] = None
        self._rollout = None
        self._alerts: List[Dict[str, object]] = []
        self._deploys: List[Dict[str, object]] = []
        #: Last polling snapshot seen per shard (via the manager's snapshot
        #: listener hook): shard -> {"time_s", "components"}.
        self._last_polls: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    @property
    def attached(self) -> bool:
        """Whether :meth:`attach_run` has been called."""
        return self._cluster is not None

    def attach_run(
        self,
        *,
        cluster: "SimulatedCluster",
        generator: "WorkloadGenerator",
        config: "ExperimentConfig",
        rollout=None,
    ) -> None:
        """Subscribe this registry to one run's publish hooks.

        Installs read-only listeners on every monitored shard's manager
        agent (aging alerts + polling snapshots); everything else is read
        lazily at snapshot time.
        """
        if self.attached:
            raise RuntimeError("a MetricsRegistry observes exactly one run")
        self._cluster = cluster
        self._generator = generator
        self._config = config
        self._rollout = rollout
        for shard in cluster.shards:
            if shard.framework is None:
                continue
            manager = shard.framework.manager
            manager.add_notification_listener(
                self._alert_relay(shard.index),
                type_filter(AGING_SUSPECT_NOTIFICATION),
            )
            manager.add_snapshot_listener(self._poll_relay(shard.index))

    def _alert_relay(self, shard_index: int):
        def relay(notification, handback) -> None:
            self._alerts.append(
                {
                    "shard": shard_index,
                    "time_s": float(notification.timestamp),
                    "component": notification.attributes.get("component"),
                    "growth_bytes": float(
                        notification.attributes.get("growth_bytes", 0.0)
                    ),
                }
            )

        return relay

    def _poll_relay(self, shard_index: int):
        def relay(when: float, sizes: Dict[str, float]) -> None:
            self._last_polls[shard_index] = {
                "time_s": float(when),
                "components": float(len(sizes)),
            }

        return relay

    def record_deploy_event(self, event: Dict[str, object]) -> None:
        """Publish hook for the deployment controller (append-only)."""
        self._deploys.append(dict(event))

    # ------------------------------------------------------------------ #
    # Reads (all pure functions of sim state)
    # ------------------------------------------------------------------ #
    def _require_attached(self) -> "SimulatedCluster":
        if self._cluster is None:
            raise RuntimeError("registry is not attached to a run yet")
        return self._cluster

    def now(self) -> float:
        """The observed run's current simulation time."""
        return float(self._require_attached().clock.now)

    def counters(self) -> Dict[str, int]:
        """The workload generator's end-to-end request ledger, live."""
        self._require_attached()
        return dict(self._generator.accounting())

    def alerts(self) -> List[Dict[str, object]]:
        """Aging-suspect alerts fired so far (shard, time, component)."""
        return [dict(alert) for alert in self._alerts]

    def deploys(self) -> List[Dict[str, object]]:
        """Deployment-controller events published so far."""
        return [dict(event) for event in self._deploys]

    def calibration(self) -> List[Dict[str, object]]:
        """Per-shard predictor calibration rows (adaptive policies only)."""
        cluster = self._require_attached()
        rows: List[Dict[str, object]] = []
        for shard in cluster.shards:
            policy = getattr(shard.controller, "policy", None)
            predictor_rows = getattr(policy, "predictor_rows", None)
            if not callable(predictor_rows):
                continue
            for row in predictor_rows():
                rows.append({"shard": shard.index, **row})
        return rows

    def _downtime_seconds(self) -> float:
        """Capacity-weighted fleet downtime so far (rejuvenation + deploys)."""
        cluster = self._require_attached()
        total = 0.0
        for shard in cluster.shards:
            if shard.controller is not None:
                total += sum(
                    event.downtime_seconds for event in shard.controller.events
                )
        total += sum(float(event.get("downtime_s", 0.0)) for event in self._deploys)
        return total / len(cluster.shards)

    def slo(self, at: Optional[float] = None) -> Dict[str, float]:
        """The rolling SLA burn at ``at`` (defaults to the current time).

        Downtime is capacity-weighted across the fleet (outage seconds
        divided by the shard count), exposure sums each shard's time above
        the heap danger line up to ``at``.
        """
        cluster = self._require_attached()
        now = float(at) if at is not None else self.now()
        if now <= 0.0:
            # SlaObservation requires a positive duration; before the first
            # event there is nothing to burn.
            row = self.cost_model.report(SlaObservation(duration_seconds=1.0))
            row["duration_s"] = 0.0
            return canonical_value(row)
        exposure = 0.0
        for shard in cluster.shards:
            capacity = float(shard.deployment.runtime.total_memory())
            exposure += exposure_seconds(
                shard.heap_series(), capacity, window_end=now
            )
        observation = SlaObservation(
            duration_seconds=now,
            downtime_seconds=self._downtime_seconds(),
            exposure_seconds=exposure,
            failed_requests=self._generator.error_count,
            refused_requests=self._generator.refused_requests,
        )
        return canonical_value(self.cost_model.report(observation))

    def rollout_series(self, at: Optional[float] = None) -> Dict[str, object]:
        """Per-shard series a stream replay of the rollout rulings needs.

        Only meaningful when a deployment/rollout controller is attached:
        for each monitored shard, the deployed component's object-size
        series, the heap series and the heap capacity, all truncated to
        samples at or before ``at``.  A
        :class:`~repro.obs.transports.ReplaySource` over the recorded
        stream serves the analyzer the exact window every live ruling saw.
        """
        cluster = self._require_attached()
        component = getattr(self._rollout, "component", None)
        if component is None:
            return {}
        now = float(at) if at is not None else self.now()
        out: Dict[str, object] = {}
        for shard in cluster.shards:
            if shard.framework is None:
                continue
            objects = shard.object_series(component)
            heap = shard.heap_series()
            out[str(shard.index)] = {
                "heap_capacity": shard.heap_capacity(),
                "objects": {
                    component: [
                        [float(t), float(v)]
                        for t, v in zip(objects.times, objects.values)
                        if float(t) <= now + 1e-9
                    ]
                },
                "heap_used": [
                    [float(t), float(v)]
                    for t, v in zip(heap.times, heap.values)
                    if float(t) <= now + 1e-9
                ],
            }
        return out

    def shard_rows(self) -> List[Dict[str, object]]:
        """One live summary row per shard (server counters + manager state)."""
        cluster = self._require_attached()
        versions = getattr(self._rollout, "versions", None)
        rows: List[Dict[str, object]] = []
        for shard in cluster.shards:
            server = shard.deployment.server
            row: Dict[str, object] = {
                "shard": shard.index,
                "completed": server.completed_requests,
                "rejected": server.rejected_requests,
                "refused_outage": server.refused_during_outage,
                "sessions": server.sessions.created_count,
            }
            heap = shard.heap_series()
            row["heap_used"] = float(heap.values[-1]) if len(heap) else 0.0
            if shard.framework is not None:
                row["polls"] = int(shard.framework.manager.SnapshotCount())
                last = self._last_polls.get(shard.index)
                row["last_poll_s"] = float(last["time_s"]) if last else -1.0
            if versions is not None:
                row["version"] = versions.get(shard.index, "baseline")
            rows.append(row)
        return rows

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self, at: Optional[float] = None) -> Dict[str, object]:
        """The full observability snapshot at ``at`` (default: now)."""
        now = float(at) if at is not None else self.now()
        snapshot: Dict[str, object] = {
            "time_s": now,
            "counters": self.counters(),
            "shards": self.shard_rows(),
            "alerts": self.alerts(),
            "deploys": self.deploys(),
            "slo": self.slo(at=now),
            "calibration": self.calibration(),
        }
        if self._rollout is not None:
            # Only rollout runs pay for the replay series; the key's absence
            # keeps non-deploy snapshots byte-identical to older streams.
            snapshot["rollout_series"] = self.rollout_series(at=now)
        return snapshot

    def snapshot_json(self, at: Optional[float] = None) -> str:
        """The snapshot in canonical JSON (sorted keys, 6dp floats).

        Byte-identical per seed: two runs of the same configuration and
        seed produce the same string at the same simulation time.
        """
        return json.dumps(
            canonical_value(self.snapshot(at=at)),
            sort_keys=True,
            separators=(",", ":"),
        )
