"""Pinpoint-style failure-correlation analyser.

Pinpoint (Chen et al., NSDI'04) records, for every end-to-end request, which
components participated and whether the request failed, then ranks
components by how strongly their participation correlates with failures.
The paper points out two structural limitations for software aging:

1. aging consumes resources long before it produces *failed* requests, so a
   failure-correlation ranker sees nothing during the degradation phase; and
2. components that always appear together in failing requests receive the
   same blame (the coupled-components problem).

This implementation reproduces the approach (Jaccard-style correlation of
component participation with request failure) so the comparison benchmark
can demonstrate both limitations against the AOP/JMX framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


@dataclass
class PinpointReport:
    """Ranked component-to-failure correlation scores."""

    scores: Dict[str, float] = field(default_factory=dict)
    total_requests: int = 0
    failed_requests: int = 0

    def ranking(self) -> List[str]:
        """Components sorted by decreasing correlation with failures."""
        return sorted(self.scores, key=lambda name: (-self.scores[name], name))

    def top(self) -> str | None:
        """Most failure-correlated component, or ``None`` when nothing failed."""
        ranking = self.ranking()
        if not ranking or self.scores[ranking[0]] <= 0:
            return None
        return ranking[0]


class PinpointAnalyzer:
    """Collects request traces and correlates components with failures."""

    def __init__(self) -> None:
        self._component_counts: Dict[str, int] = {}
        self._component_failures: Dict[str, int] = {}
        self._total = 0
        self._failed = 0

    # ------------------------------------------------------------------ #
    def record_request(self, components: Iterable[str], failed: bool) -> None:
        """Record one end-to-end trace."""
        component_set = set(components)
        if not component_set:
            raise ValueError("a request trace must contain at least one component")
        self._total += 1
        if failed:
            self._failed += 1
        for component in component_set:
            self._component_counts[component] = self._component_counts.get(component, 0) + 1
            if failed:
                self._component_failures[component] = (
                    self._component_failures.get(component, 0) + 1
                )

    @property
    def total_requests(self) -> int:
        """Requests recorded so far."""
        return self._total

    @property
    def failed_requests(self) -> int:
        """Failed requests recorded so far."""
        return self._failed

    # ------------------------------------------------------------------ #
    def analyze(self) -> PinpointReport:
        """Compute the Jaccard similarity of each component with the failure set.

        ``score(c) = |failed ∧ used c| / |failed ∨ used c|`` — the metric used
        by Pinpoint's clustering stage, collapsed to a per-component score.
        """
        scores: Dict[str, float] = {}
        for component, used in self._component_counts.items():
            failed_with = self._component_failures.get(component, 0)
            union = self._failed + used - failed_with
            scores[component] = failed_with / union if union > 0 else 0.0
        return PinpointReport(
            scores=scores, total_requests=self._total, failed_requests=self._failed
        )
