"""Rejuvenation policies.

The motivation of root-cause *component* determination is surgical
rejuvenation (micro-reboot of the guilty component) instead of whole-server
restarts.  A policy is consulted mid-run through
:meth:`~RejuvenationPolicy.decide` by the
:class:`~repro.core.rejuvenation.RejuvenationController`, which executes the
returned action inside the simulation (full-server restart or component
micro-reboot, Candea et al.'s micro-reboot argument).
:func:`exposure_seconds` scores a finished run's time in the danger zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.trend import linear_slope
from repro.sim.metrics import TimeSeries

#: Action kinds a policy can request from the live controller.
FULL_RESTART = "full-restart"
MICRO_REBOOT = "micro-reboot"


@dataclass(frozen=True)
class RejuvenationAction:
    """One action a policy asks the live controller to execute."""

    kind: str  #: :data:`FULL_RESTART` or :data:`MICRO_REBOOT`
    downtime_seconds: float
    #: Micro-reboot target; ``None`` for whole-server actions.
    component: Optional[str] = None
    reason: str = ""
    #: Resource channel the decision was made on (``"heap"``, ``"threads"``,
    #: ``"connections"``); purely informational for whole-server restarts.
    resource: str = "heap"

    def __post_init__(self) -> None:
        if self.kind not in (FULL_RESTART, MICRO_REBOOT):
            raise ValueError(f"unknown rejuvenation action kind {self.kind!r}")
        if self.downtime_seconds < 0:
            raise ValueError(f"downtime must be non-negative, got {self.downtime_seconds}")


@dataclass
class PolicyObservation:
    """What the live controller knows when it consults a policy.

    ``series`` is windowed to the samples recorded since the last executed
    action, so a policy sees the *fresh* trend (a micro-reboot that
    reclaimed the leak resets the extrapolation instead of diluting it).
    ``series`` and ``capacity`` describe whichever monitored resource the
    consulted channel watches (live heap bytes, total threads, active pooled
    connections); ``resource`` names it.
    """

    now: float
    series: TimeSeries
    capacity: float
    #: Simulated time the run (or this policy's bookkeeping) started.
    start_time: float = 0.0
    #: End of the most recent executed action's downtime, ``None`` before any.
    last_action_end: Optional[float] = None
    #: Current root-cause suspect (only resolved for policies that ask for it).
    suspect_component: Optional[str] = None
    #: Name of the resource channel this observation describes.
    resource: str = "heap"


class RejuvenationPolicy:
    """Base class: a named policy the live controller consults."""

    name = "abstract"
    #: Whether the live controller should resolve the root-cause suspect
    #: before consulting :meth:`decide` (it costs a strategy analysis).
    needs_root_cause = False

    def decide(self, observation: PolicyObservation) -> Optional[RejuvenationAction]:
        """The action to execute now, or ``None``."""
        raise NotImplementedError

    def on_action_executed(self, observation: PolicyObservation, event) -> None:
        """Feedback hook: the controller executed an action this policy asked for.

        ``event`` is the controller's ``RejuvenationEvent``.  The default is
        a no-op; the adaptive policy uses it to settle its recorded
        predictions against the realized recycle time.
        """


class NoActionPolicy(RejuvenationPolicy):
    """Never rejuvenates (the do-nothing baseline every comparison needs)."""

    name = "no-action"

    def decide(self, observation: PolicyObservation) -> Optional[RejuvenationAction]:
        """Never acts."""
        return None


class TimeBasedRejuvenationPolicy(RejuvenationPolicy):
    """Restart the whole application server every ``interval`` seconds.

    Parameters
    ----------
    interval:
        Seconds between restarts (production web farms commonly use daily).
    restart_downtime:
        Full-server restart outage (Tomcat redeploy + warm-up).
    """

    name = "time-based"

    def __init__(self, interval: float = 86_400.0, restart_downtime: float = 120.0) -> None:
        if interval <= 0 or restart_downtime < 0:
            raise ValueError("interval must be positive and restart_downtime non-negative")
        self.interval = float(interval)
        self.restart_downtime = float(restart_downtime)

    def decide(self, observation: PolicyObservation) -> Optional[RejuvenationAction]:
        """Restart once ``interval`` has elapsed since the last restart."""
        reference = (
            observation.last_action_end
            if observation.last_action_end is not None
            else observation.start_time
        )
        if observation.now - reference < self.interval:
            return None
        return RejuvenationAction(
            kind=FULL_RESTART,
            downtime_seconds=self.restart_downtime,
            reason=f"scheduled restart every {self.interval:.0f}s",
        )


class ProactiveRejuvenationPolicy(RejuvenationPolicy):
    """Micro-reboot the guilty component when exhaustion is predicted.

    The policy extrapolates the observed heap trend; when the predicted time
    to exhaustion falls below ``horizon`` it schedules one micro-reboot of the
    root-cause component, whose downtime is far smaller than a full restart
    because only that component is recycled (Candea et al.'s micro-reboot
    argument, which the paper builds on).
    """

    name = "proactive-microreboot"
    needs_root_cause = True

    def __init__(
        self,
        horizon: float = 1800.0,
        microreboot_downtime: float = 2.0,
        min_samples: int = 3,
    ) -> None:
        if horizon <= 0 or microreboot_downtime < 0:
            raise ValueError("horizon must be positive and microreboot_downtime non-negative")
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples}")
        self.horizon = float(horizon)
        self.microreboot_downtime = float(microreboot_downtime)
        self.min_samples = int(min_samples)

    def _time_to_exhaustion(self, series: TimeSeries, capacity: float) -> Optional[float]:
        """Predicted seconds until the resource trend reaches capacity.

        ``None`` when there is no usable upward trend (too few samples or a
        flat/shrinking series).
        """
        if len(series) < self.min_samples:
            return None
        slope = linear_slope(series.times, series.values)
        if slope <= 0:
            return None
        return max(0.0, (capacity - series.values[-1]) / slope)

    def decide(self, observation: PolicyObservation) -> Optional[RejuvenationAction]:
        """Micro-reboot the suspect when exhaustion is predicted within the horizon."""
        time_to_exhaustion = self._time_to_exhaustion(observation.series, observation.capacity)
        if time_to_exhaustion is None or time_to_exhaustion >= self.horizon:
            return None
        if observation.suspect_component is None:
            # No component to blame yet; a micro-reboot has no target.
            return None
        return RejuvenationAction(
            kind=MICRO_REBOOT,
            downtime_seconds=self.microreboot_downtime,
            component=observation.suspect_component,
            reason=f"exhaustion predicted in {time_to_exhaustion:.0f}s (< {self.horizon:.0f}s)",
        )


#: Fraction of capacity above which a resource counts as in the danger zone.
DANGER_FRACTION = 0.9


def exposure_seconds(series: TimeSeries, capacity: float, window_end: float) -> float:
    """Seconds spent above :data:`DANGER_FRACTION` of capacity (step integration).

    Each sample above the threshold contributes the interval up to the next
    sample.  The *final* sample, which has no successor, contributes the
    remainder of the observation window up to ``window_end`` (zero when the
    window ends at or before the sample — never credit exposure past the
    stated window); the seed implementation credited it nothing,
    under-reporting exposure exactly when the run ends in the danger zone.
    """
    if len(series) == 0 or capacity <= 0:
        return 0.0
    times = series.times
    values = series.values
    threshold = DANGER_FRACTION * capacity
    exposure = float(np.diff(times)[values[:-1] >= threshold].sum())
    if values[-1] >= threshold:
        exposure += max(0.0, float(window_end - times[-1]))
    return exposure
