"""Transports over the metrics registry: the JSONL stream and its replay.

The JSONL stream is strictly an observer.  It schedules snapshot events at
:data:`OBS_STREAM_PRIORITY` — a priority *after* every sim actor at the
same timestamp, so a stream record always sees the deploys, alerts and
manager snapshots of its own tick, and the extra events shift same-time
sequence numbers uniformly without reordering any actor pair.

:class:`ReplaySource` is the stream *consumer*: it reconstructs the
per-shard series a recorded rollout run streamed (the ``rollout_series``
snapshot block) and serves them to the
:class:`~repro.experiments.deploy.CanaryAnalyzer` through the same source
interface the live :class:`~repro.experiments.deploy.LiveClusterSource`
implements, so every recorded ruling replays offline — byte-identically
with the recorded thresholds, or under tuned thresholds without
re-simulating anything.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.registry import MetricsRegistry, canonical_value
from repro.sim.metrics import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SimulationEngine

#: Event priority of stream snapshots: after the manager snapshots (5), the
#: black-box samples (6), the rejuvenation checks (7/8) and the canary
#: analysis (9) of the same timestamp, so every record reflects its tick.
OBS_STREAM_PRIORITY = 10


class JsonlMetricsStream:
    """Append one canonical snapshot line per interval to a JSONL file."""

    def __init__(self, registry: MetricsRegistry, path: str) -> None:
        self.registry = registry
        self.path = path
        self._file = None

    def emit(self, at: Optional[float] = None) -> None:
        """Write one snapshot record (opens the file on first use)."""
        if self._file is None:
            self._file = open(self.path, "w", encoding="utf-8")
        self._file.write(self.registry.snapshot_json(at=at) + "\n")
        self._file.flush()

    def schedule(
        self, engine: "SimulationEngine", duration: float, interval: float
    ) -> int:
        """Schedule periodic snapshot events; returns how many were scheduled.

        Stops strictly before ``duration``: the runner emits the final
        end-of-run record itself (after the ledger checks), so the last
        line of the stream always equals the post-hoc report's counters.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        count = 0
        t = interval
        while t < duration - 1e-9:
            engine.schedule_at(
                t,
                lambda when=t: self.emit(at=when),
                priority=OBS_STREAM_PRIORITY,
                name="obs.stream",
            )
            count += 1
            t += interval
        return count

    def close(self) -> None:
        """Close the sink (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None


# --------------------------------------------------------------------------- #
# Stream replay
# --------------------------------------------------------------------------- #
class ReplaySource:
    """Analyzer series source over one recorded stream snapshot.

    ``record`` is a parsed snapshot dict carrying a ``rollout_series``
    block (any record of a ``--stream-metrics`` rollout run; the final one
    covers every ruling).  Serves the same three reads as
    :class:`~repro.experiments.deploy.LiveClusterSource`, truncated to the
    ruling time — so the analyzer integrates exactly the window the live
    ruling saw, even though the recorded series extend to the record time.
    """

    def __init__(self, record: Dict[str, object]) -> None:
        series = record.get("rollout_series")
        if not series:
            raise ValueError(
                "record carries no rollout_series block (was the run streamed "
                "with a deployment attached?)"
            )
        self._series: Dict[str, Dict[str, object]] = series

    def _shard(self, shard_index: int) -> Dict[str, object]:
        key = str(shard_index)
        if key not in self._series:
            raise ValueError(
                f"no shard {shard_index} in the recorded stream "
                f"(shards: {sorted(int(k) for k in self._series)})"
            )
        return self._series[key]

    def object_values(
        self, shard_index: int, component: str, start: float, end: float
    ) -> List[float]:
        """The recorded object sizes of ``component`` in ``[start, end]``."""
        objects = self._shard(shard_index)["objects"]
        if component not in objects:
            raise ValueError(
                f"component {component!r} not in the recorded stream "
                f"(recorded: {sorted(objects)})"
            )
        return [
            float(value)
            for t, value in objects[component]
            if start - 1e-9 <= float(t) <= end + 1e-9
        ]

    def heap_series(self, shard_index: int, end: float) -> TimeSeries:
        """The recorded heap series truncated to samples at or before ``end``."""
        series = TimeSeries("heap_used")
        for t, value in self._shard(shard_index)["heap_used"]:
            if float(t) <= end + 1e-9:
                series.record(float(t), float(value))
        return series

    def heap_capacity(self, shard_index: int) -> float:
        """The recorded heap capacity of one shard, in bytes."""
        return float(self._shard(shard_index)["heap_capacity"])


def load_stream(path: str) -> List[Dict[str, object]]:
    """Parse a recorded JSONL metrics stream into snapshot dicts."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        raise ValueError(f"{path} holds no stream records")
    return records


def ruling_events(record: Dict[str, object]) -> List[Dict[str, object]]:
    """The deploy events of one record that carry an analyzer ruling."""
    return [
        event for event in record.get("deploys", []) if "analysis" in event
    ]


def replay_verdicts(
    record: Dict[str, object],
    threshold_overrides: Optional[Dict[str, float]] = None,
) -> List[Dict[str, object]]:
    """Re-run every recorded ruling offline; returns canonical verdict dicts.

    Each ruling event recorded the deployed/baseline shard sets, the ruling
    time and the analyzer thresholds; the series come from the record's
    ``rollout_series`` block.  Without overrides the replayed verdicts are
    byte-identical (post-canonicalisation) to the recorded ones;
    ``threshold_overrides`` (``growth_ratio_threshold`` / ``alpha`` /
    ``burn_delta_threshold``) re-rules the same recorded evidence under
    tuned thresholds instead — threshold tuning without re-simulation.
    """
    from repro.experiments.deploy import CanaryAnalyzer

    source = ReplaySource(record)
    verdicts: List[Dict[str, object]] = []
    for event in ruling_events(record):
        analysis = event["analysis"]
        thresholds = dict(analysis["thresholds"])
        if threshold_overrides:
            thresholds.update(threshold_overrides)
        analyzer = CanaryAnalyzer(**thresholds)
        verdict = analyzer.analyze_stage(
            source,
            str(event["component"]),
            [(int(index), float(t)) for index, t in analysis["deployed"]],
            [int(index) for index in analysis["baselines"]],
            float(analysis["ruled_at"]),
        )
        if analysis.get("truncated_bake"):
            # Schedule metadata, not a series property: the live controller
            # stamped the ruling as end-of-run-truncated.
            verdict = replace(verdict, truncated_bake=True)
        verdicts.append(canonical_value(asdict(verdict)))
    return verdicts


def recorded_verdicts(record: Dict[str, object]) -> List[Dict[str, object]]:
    """The verdicts the live run recorded, canonicalised for comparison."""
    return [
        canonical_value(dict(event["analysis"]["verdict"]))
        for event in ruling_events(record)
    ]

