"""The resource-consumption vs. usage-frequency map.

The JMX Manager Agent builds this map (Fig. 2 is the theory, Fig. 6 the map
built from measurements): for every application component it tracks how
often the component is used and how much of each resource it has accumulated
over time.  Components that are *both* heavily used and heavy consumers fall
into the most-suspicious quadrant.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.sim.metrics import TimeSeries

#: The metric the paper's case study tracks.
DEFAULT_METRIC = "object_size"

_DELTAS = attrgetter("deltas")
_VALUES = attrgetter("values")
_TIMESTAMP = attrgetter("timestamp")

#: Quadrant labels (usage, consumption).
QUADRANT_LABELS = {
    (False, False): "low-usage / low-consumption",
    (False, True): "low-usage / high-consumption",
    (True, False): "high-usage / low-consumption",
    (True, True): "high-usage / high-consumption (most suspicious)",
}


@dataclass
class ComponentSample:
    """One before/after measurement produced by an Aspect Component."""

    component: str
    timestamp: float
    #: metric -> (after - before) for this execution.
    deltas: Dict[str, float] = field(default_factory=dict)
    #: metric -> absolute value observed *after* the execution.
    values: Dict[str, float] = field(default_factory=dict)


@dataclass
class ComponentStats:
    """Accumulated state of one component inside the map."""

    name: str
    invocations: int = 0
    cumulative_deltas: Dict[str, float] = field(default_factory=dict)
    last_values: Dict[str, float] = field(default_factory=dict)
    first_values: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, TimeSeries] = field(default_factory=dict)

    def series_for(self, metric: str) -> TimeSeries:
        """Get or create the time series for ``metric``."""
        if metric not in self.series:
            self.series[metric] = TimeSeries(f"{self.name}.{metric}")
        return self.series[metric]

    def observe(self, metric: str, timestamp: float, value: float) -> None:
        """Record an absolute observation of ``metric``."""
        self.first_values.setdefault(metric, value)
        self.last_values[metric] = value
        self.series_for(metric).record(timestamp, value)

    def consumption(self, metric: str = DEFAULT_METRIC) -> float:
        """Accumulated consumption of ``metric``.

        Two estimators are available and the larger is reported: growth
        between the first and last absolute observation (robust when periodic
        snapshots exist) and the sum of per-execution deltas measured by the
        Aspect Component (available from the very first execution).  Both
        measure the same accumulation, so taking the maximum simply uses
        whichever view has seen more of it.
        """
        growth = 0.0
        if metric in self.first_values and metric in self.last_values:
            growth = self.last_values[metric] - self.first_values[metric]
        delta_sum = self.cumulative_deltas.get(metric, 0.0)
        return max(0.0, growth, delta_sum)


class ResourceComponentMap:
    """Per-component resource accounting built by the Manager Agent."""

    def __init__(self) -> None:
        self._stats: Dict[str, ComponentStats] = {}
        self._sample_count = 0
        self._first_timestamp: Optional[float] = None
        self._last_timestamp: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Updating
    # ------------------------------------------------------------------ #
    def stats(self, component: str) -> ComponentStats:
        """Get or create the stats record for ``component``."""
        if component not in self._stats:
            self._stats[component] = ComponentStats(name=component)
        return self._stats[component]

    def register_component(self, component: str) -> None:
        """Make a component visible in the map even before any sample."""
        self.stats(component)

    def _note_time(self, timestamp: float) -> None:
        if self._first_timestamp is None or timestamp < self._first_timestamp:
            self._first_timestamp = timestamp
        if self._last_timestamp is None or timestamp > self._last_timestamp:
            self._last_timestamp = timestamp

    def add_samples(self, samples: Sequence[ComponentSample]) -> List[str]:
        """Fold Aspect-Component samples into the map, in order.

        The one fold path: the manager's buffered intake passes a batch, and
        ``add_samples([sample])`` folds a single sample.  Per-component
        sample order is preserved, so any split of a sequence into
        consecutive batches gives the same invocations, values and series;
        delta sums agree up to float rounding.  Series appends happen as one
        bulk extend per (component, metric).  A sample may carry any subset
        of its component's delta and value metrics.  Returns the components
        folded, in first-seen order.
        """
        if not samples:
            return []
        by_component: Dict[str, List[ComponentSample]] = defaultdict(list)
        for sample in samples:
            by_component[sample.component].append(sample)
        for component, group in by_component.items():
            stats = self.stats(component)
            stats.invocations += len(group)
            delta_totals = stats.cumulative_deltas
            deltas = list(map(_DELTAS, group))
            for metric in sorted(set().union(*deltas)):
                try:
                    # AC samples of one component virtually always carry the
                    # same metric keys.
                    total = sum([sample_deltas[metric] for sample_deltas in deltas])
                except KeyError:
                    total = sum([sample_deltas.get(metric, 0.0) for sample_deltas in deltas])
                delta_totals[metric] = delta_totals.get(metric, 0.0) + total
            values = list(map(_VALUES, group))
            group_times = None
            for metric in sorted(set().union(*values)):
                try:
                    metric_values = [sample_values[metric] for sample_values in values]
                    if group_times is None:
                        group_times = list(map(_TIMESTAMP, group))
                    times = group_times
                except KeyError:
                    pairs = [
                        (sample.timestamp, sample.values[metric])
                        for sample in group
                        if metric in sample.values
                    ]
                    times = [pair[0] for pair in pairs]
                    metric_values = [pair[1] for pair in pairs]
                stats.first_values.setdefault(metric, metric_values[0])
                stats.last_values[metric] = metric_values[-1]
                stats.series_for(metric).record_many(times, metric_values)
        self._sample_count += len(samples)
        stamps = list(map(_TIMESTAMP, samples))
        self._note_time(min(stamps))
        self._note_time(max(stamps))
        return list(by_component)

    def record_observation(self, component: str, metric: str, timestamp: float, value: float) -> None:
        """Record a polled (snapshot) observation for a component."""
        self.stats(component).observe(metric, timestamp, value)
        self._note_time(timestamp)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @property
    def sample_count(self) -> int:
        """Number of AC samples folded in."""
        return self._sample_count

    def components(self) -> List[str]:
        """Sorted component names present in the map."""
        return sorted(self._stats)

    def application_components(self) -> List[str]:
        """Component names excluding pseudo entries such as ``"<jvm>"``.

        Pseudo components record whole-system series (heap usage) for the
        reports, but they are not candidates for root-cause attribution.
        """
        return [name for name in sorted(self._stats) if not name.startswith("<")]

    def observation_window(self) -> float:
        """Seconds between the first and last observation."""
        if self._first_timestamp is None or self._last_timestamp is None:
            return 0.0
        return self._last_timestamp - self._first_timestamp

    def usage_frequency(self, component: str) -> float:
        """Invocations per second over the observation window."""
        window = self.observation_window()
        stats = self.stats(component)
        if window <= 0:
            return float(stats.invocations)
        return stats.invocations / window

    def consumption(self, component: str, metric: str = DEFAULT_METRIC) -> float:
        """Accumulated consumption of ``metric`` by ``component``."""
        return self.stats(component).consumption(metric)

    def series(self, component: str, metric: str = DEFAULT_METRIC) -> TimeSeries:
        """The recorded time series of ``metric`` for ``component``."""
        return self.stats(component).series_for(metric)

    # ------------------------------------------------------------------ #
    # The quadrant map (Figs. 2 and 6)
    # ------------------------------------------------------------------ #
    def quadrants(
        self,
        metric: str = DEFAULT_METRIC,
        usage_threshold: Optional[float] = None,
        consumption_threshold: Optional[float] = None,
    ) -> Dict[str, str]:
        """Classify every component into one of the four quadrants.

        Thresholds default to the mean usage frequency and mean consumption
        across components (a simple, paper-faithful split between "high" and
        "low").
        """
        names = self.components()
        if not names:
            return {}
        usages = {name: self.stats(name).invocations for name in names}
        consumptions = {name: self.consumption(name, metric) for name in names}
        if usage_threshold is None:
            usage_threshold = sum(usages.values()) / len(names)
        if consumption_threshold is None:
            consumption_threshold = sum(consumptions.values()) / len(names)
        out: Dict[str, str] = {}
        for name in names:
            high_usage = usages[name] >= usage_threshold and usages[name] > 0
            high_consumption = (
                consumptions[name] >= consumption_threshold and consumptions[name] > 0
            )
            out[name] = QUADRANT_LABELS[(high_usage, high_consumption)]
        return out

    def to_rows(self, metric: str = DEFAULT_METRIC) -> List[Dict[str, float]]:
        """The map as printable rows (one per component)."""
        quadrant_map = self.quadrants(metric)
        rows = []
        for name in self.components():
            stats = self.stats(name)
            rows.append(
                {
                    "component": name,
                    "invocations": stats.invocations,
                    "usage_per_second": round(self.usage_frequency(name), 4),
                    f"{metric}_consumed": round(self.consumption(name, metric), 1),
                    f"{metric}_last": round(stats.last_values.get(metric, 0.0), 1),
                    "quadrant": quadrant_map.get(name, ""),
                }
            )
        return rows
