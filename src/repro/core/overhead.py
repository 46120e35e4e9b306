"""Monitoring-overhead accounting.

Every time an Aspect Component samples a monitoring agent it performs real
work on the application server (in the original system: JMX attribute reads,
object-size walks).  The framework charges that work to an
:class:`OverheadAccount`; the servlet container registers the account as an
*external cost provider*, so the charge lands in the very next request's
simulated service time.  This is the mechanism behind the ~5 % throughput
penalty of Fig. 3, and disabling monitoring (the ablation benchmark) removes
it entirely.
"""

from __future__ import annotations

import math
from typing import Dict


class OverheadAccount:
    """Accumulates monitoring overhead and hands it to the container.

    Parameters
    ----------
    sample_cost_seconds:
        Simulated CPU seconds charged for one agent sample (one JMX read +
        the measurement work behind it).
    """

    def __init__(self, sample_cost_seconds: float = 2.5e-3) -> None:
        if not 0 <= sample_cost_seconds < math.inf:
            raise ValueError(
                f"sample_cost_seconds must be non-negative and finite, got {sample_cost_seconds}"
            )
        self.sample_cost_seconds = float(sample_cost_seconds)
        self._pending = 0.0
        self._total = 0.0
        self._by_component: Dict[str, float] = {}
        self._samples = 0

    # ------------------------------------------------------------------ #
    def charge_sample(self, component: str, samples: int = 1) -> float:
        """Charge ``samples`` agent reads on behalf of ``component``."""
        if samples < 0:
            raise ValueError(f"samples must be non-negative, got {samples}")
        cost = samples * self.sample_cost_seconds
        self._pending += cost
        self._total += cost
        by_component = self._by_component
        by_component[component] = by_component.get(component, 0.0) + cost
        self._samples += samples
        return cost

    # ------------------------------------------------------------------ #
    def consume_pending(self) -> float:
        """Return and reset the overhead accumulated since the last call.

        This is the callable the container invokes once per request (it is
        registered through
        :meth:`repro.container.server.ApplicationServer.add_external_cost_provider`).
        """
        pending = self._pending
        self._pending = 0.0
        return pending

    # ------------------------------------------------------------------ #
    @property
    def total_seconds(self) -> float:
        """Total overhead charged since creation."""
        return self._total

    @property
    def pending_seconds(self) -> float:
        """Overhead charged but not yet folded into a request."""
        return self._pending

    @property
    def sample_count(self) -> int:
        """Total number of agent samples charged."""
        return self._samples

    def by_component(self) -> Dict[str, float]:
        """Overhead attributed to each component (copy)."""
        return dict(self._by_component)
