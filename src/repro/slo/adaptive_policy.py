"""Adaptive rejuvenation policy: a safety horizon tuned by prediction error.

The fixed :class:`~repro.baselines.rejuvenation.ProactiveRejuvenationPolicy`
recycles when predicted exhaustion falls below a *hand-picked* horizon.  Pick
it too small and an optimistic predictor lets the resource hit the wall; too
large and the component is recycled far more often than needed.  The
adaptive policy closes that loop: every prediction is recorded, every
recycle (or actual exhaustion) settles the outstanding predictions against
the realized time, and the resulting calibration ratio steers the horizon —

* **optimistic predictions** (exhaustion arrived earlier than predicted,
  calibration ratio > 1 + tolerance): widen the horizon multiplicatively,
  so the next recycle happens earlier relative to the prediction;
* **calibrated or pessimistic predictions**: shrink the horizon
  geometrically (down to ``min_horizon``) — a margin the predictor has
  earned trust against buys nothing, and recycling closer to the predicted
  edge saves whole recycle cycles a fixed horizon pays for.

The policy is resource-agnostic: the live controller consults it once per
:class:`~repro.core.rejuvenation.ResourceChannel` with that channel's series
and capacity, and a separate horizon is maintained per resource (heap
predictions say nothing about the connection pool's predictability).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.baselines.rejuvenation import (
    MICRO_REBOOT,
    PolicyObservation,
    RejuvenationAction,
    RejuvenationPolicy,
)
from repro.slo.predictors import (
    ExhaustionPredictor,
    PredictionErrorStats,
    TheilSenPredictor,
)


class AdaptiveRejuvenationPolicy(RejuvenationPolicy):
    """Micro-reboot on predicted exhaustion, with a self-tuning horizon.

    Parameters
    ----------
    predictor_factory:
        Builds one :class:`ExhaustionPredictor` per resource channel
        (defaults to the robust Theil-Sen predictor with 4-sample warm-up).
    base_horizon:
        The horizon (seconds) the policy starts from.
    min_horizon / max_horizon:
        Clamp bounds of the adapted horizon.
    gain:
        Adaptation step: widening multiplies the horizon by ``1 + gain``,
        shrinking divides it by the same factor.
    calibration_tolerance:
        Half-width of the "calibrated" band around a ratio of 1.0.  The
        default band is deliberately wide (±50 %): the paper-style injected
        leaks are *bursty* (random countdown draws), so individual
        prediction batches wobble well away from 1.0 without the predictor
        being systematically wrong — widening should answer persistent
        optimism, not one unlucky burst.
    microreboot_downtime:
        Outage seconds charged per executed micro-reboot.
    warm_start:
        A :class:`~repro.slo.calibration.CalibrationRecord` (or a plain
        ``resource -> ResourceCalibration`` mapping) from a previous run of
        the *same workload signature*: the policy opens at the stored
        converged horizons (clamped to the ``min``/``max`` bounds) instead
        of ``base_horizon``, and keeps the stored error statistics around as
        :meth:`prior_stats` for reporting.  ``None`` is a cold start.
    """

    name = "adaptive"
    needs_root_cause = True

    def __init__(
        self,
        predictor_factory: Optional[Callable[[], ExhaustionPredictor]] = None,
        base_horizon: float = 1800.0,
        min_horizon: Optional[float] = None,
        max_horizon: Optional[float] = None,
        gain: float = 0.5,
        calibration_tolerance: float = 0.5,
        microreboot_downtime: float = 2.0,
        warm_start=None,
    ) -> None:
        if base_horizon <= 0:
            raise ValueError(f"base_horizon must be positive, got {base_horizon}")
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        if calibration_tolerance < 0:
            raise ValueError(
                f"calibration_tolerance must be non-negative, got {calibration_tolerance}"
            )
        if microreboot_downtime < 0:
            raise ValueError(
                f"microreboot_downtime must be non-negative, got {microreboot_downtime}"
            )
        self.predictor_factory = predictor_factory or partial(TheilSenPredictor, min_samples=4)
        self.base_horizon = float(base_horizon)
        self.min_horizon = float(min_horizon) if min_horizon is not None else self.base_horizon / 4.0
        self.max_horizon = float(max_horizon) if max_horizon is not None else self.base_horizon * 8.0
        if not self.min_horizon <= self.base_horizon <= self.max_horizon:
            raise ValueError(
                f"horizon bounds must satisfy min <= base <= max, got "
                f"{self.min_horizon} <= {self.base_horizon} <= {self.max_horizon}"
            )
        self.gain = float(gain)
        self.calibration_tolerance = float(calibration_tolerance)
        self.microreboot_downtime = float(microreboot_downtime)
        #: Predictions are only recorded (and later scored) when they fall
        #: below this multiple of the current horizon — the action-relevant
        #: range the safety margin actually protects against.
        self.record_horizon_multiple = 4.0
        self._predictors: Dict[str, ExhaustionPredictor] = {}
        self._horizons: Dict[str, float] = {}
        self._prior_stats: Dict[str, PredictionErrorStats] = {}
        self._opening_horizons: Dict[str, float] = {}
        #: Per-resource snapshot of the predictor stats at the last
        #: cross-run recording (see :meth:`take_unrecorded_stats`).
        self._recorded_stats: Dict[str, PredictionErrorStats] = {}
        self.adaptations = 0
        #: Whether a previous run's calibration seeded the horizons.
        self.warm_started = False
        if warm_start is not None:
            self.apply_warm_start(warm_start)

    # ------------------------------------------------------------------ #
    # Cross-run warm start
    # ------------------------------------------------------------------ #
    def apply_warm_start(self, record) -> int:
        """Open at a previous run's converged per-resource calibration.

        ``record`` is a :class:`~repro.slo.calibration.CalibrationRecord`
        (or any ``resource -> ResourceCalibration`` mapping).  Each stored
        horizon becomes the resource's starting horizon, clamped to this
        policy's ``[min_horizon, max_horizon]`` bounds; the stored error
        statistics are kept as :meth:`prior_stats` — they earned the
        horizon, but the running predictors keep per-run statistics so the
        calibration store never double-counts a run.  Returns how many
        resources were seeded.
        """
        resources = getattr(record, "resources", record)
        applied = 0
        for resource, calibration in resources.items():
            horizon = min(
                self.max_horizon, max(self.min_horizon, float(calibration.horizon_s))
            )
            self._horizons[resource] = horizon
            self._opening_horizons[resource] = horizon
            if calibration.stats.count:
                self._prior_stats[resource] = calibration.stats.copy()
            applied += 1
        if applied:
            self.warm_started = True
        return applied

    def prior_stats(self, resource: str) -> Optional[PredictionErrorStats]:
        """Warm-start error statistics for ``resource`` (``None`` when cold)."""
        return self._prior_stats.get(resource)

    def opening_horizon(self, resource: str) -> float:
        """The horizon this policy *started* at for ``resource``.

        ``base_horizon`` unless a warm start seeded it; unlike
        :meth:`horizon` it is not moved by subsequent adaptation, so reports
        can show where a run opened vs. where it converged.
        """
        return self._opening_horizons.get(resource, self.base_horizon)

    def calibrated_resources(self) -> List[str]:
        """Resources with a predictor or an adapted horizon (sorted)."""
        return sorted(set(self._predictors) | set(self._horizons))

    def take_unrecorded_stats(self, resource: str) -> PredictionErrorStats:
        """Predictor statistics folded since the last call for ``resource``.

        The calibration store records through this accessor so the same
        policy instance can be run (and recorded) repeatedly without a
        run's predictions ever being counted twice: each call returns only
        the delta since the previous call and advances the snapshot.
        """
        current = self.predictor(resource).stats
        marker = self._recorded_stats.get(resource)
        delta = current.difference(marker) if marker is not None else current.copy()
        self._recorded_stats[resource] = current.copy()
        return delta

    # ------------------------------------------------------------------ #
    # Per-resource state
    # ------------------------------------------------------------------ #
    def predictor(self, resource: str) -> ExhaustionPredictor:
        """The (lazily created) predictor watching ``resource``."""
        predictor = self._predictors.get(resource)
        if predictor is None:
            predictor = self.predictor_factory()
            self._predictors[resource] = predictor
        return predictor

    def horizon(self, resource: str) -> float:
        """The current safety horizon for ``resource`` (seconds)."""
        return self._horizons.get(resource, self.base_horizon)

    def predictor_rows(self) -> list:
        """Report rows: one per resource with the predictor's error stats."""
        rows = []
        for resource in sorted(self._predictors):
            row = {"resource": resource, "horizon_s": round(self.horizon(resource), 1)}
            row.update(self._predictors[resource].stats_row())
            prior = self._prior_stats.get(resource)
            row["prior_predictions"] = prior.count if prior is not None else 0
            rows.append(row)
        return rows

    # ------------------------------------------------------------------ #
    # Decision protocol
    # ------------------------------------------------------------------ #
    def decide(self, observation: PolicyObservation) -> Optional[RejuvenationAction]:
        """Micro-reboot the suspect when exhaustion is predicted within the horizon."""
        resource = observation.resource
        predictor = self.predictor(resource)
        series = observation.series
        window_start = float(series.times[0]) if len(series) else None
        if len(series) and float(series.values[-1]) >= observation.capacity:
            # The resource actually hit the wall: every outstanding
            # prediction gets settled against reality, not hindsight.
            settled, ratio = predictor.settle(observation.now, since=window_start)
            if settled:
                self._adapt(resource, ratio)
        time_to_exhaustion = predictor.predict(
            series, observation.capacity, observation.now, record=False
        )
        if time_to_exhaustion is None:
            return None
        horizon = self.horizon(resource)
        if time_to_exhaustion < self.record_horizon_multiple * horizon:
            # Only action-relevant predictions are scored: an early estimate
            # of "exhaustion in 3 hours" from a barely-developed trend says
            # nothing about how trustworthy the near-horizon predictions are,
            # and those are the ones the safety margin protects against.
            predictor.note(observation.now, time_to_exhaustion)
        if time_to_exhaustion >= horizon:
            return None
        if observation.suspect_component is None:
            return None
        return RejuvenationAction(
            kind=MICRO_REBOOT,
            downtime_seconds=self.microreboot_downtime,
            component=observation.suspect_component,
            resource=resource,
            reason=(
                f"{resource} exhaustion predicted in {time_to_exhaustion:.0f}s "
                f"(< adaptive horizon {horizon:.0f}s)"
            ),
        )

    def on_action_executed(self, observation: PolicyObservation, event) -> None:
        """Settle outstanding predictions against the realized recycle time.

        The recycle happened *before* exhaustion, so the realized exhaustion
        time is estimated in hindsight: the freshest prediction at recycle
        time (full window, no recording) anchors when the resource would
        have hit the wall had the controller not acted.
        """
        resource = observation.resource
        predictor = self.predictor(resource)
        series = observation.series
        hindsight_tte = predictor.predict(
            series, observation.capacity, observation.now, record=False
        )
        if hindsight_tte is None:
            # No measurable trend at recycle time (e.g. a time-based restart
            # executed by the same controller): nothing to settle against.
            return
        window_start = float(series.times[0]) if len(series) else None
        settled, ratio = predictor.settle(
            observation.now + hindsight_tte, since=window_start
        )
        if settled:
            self._adapt(resource, ratio)

    def _adapt(self, resource: str, calibration_ratio: float) -> None:
        """One horizon-adaptation step from a settled batch's calibration."""
        horizon = self.horizon(resource)
        if calibration_ratio > 1.0 + self.calibration_tolerance:
            # Optimistic: exhaustion arrived earlier than promised — act
            # earlier next time by widening the safety horizon.
            horizon *= 1.0 + self.gain
        else:
            # Calibrated (or pessimistic): the margin is buying nothing, so
            # shrink it and recycle closer to the predicted edge — this is
            # where the adaptive policy saves recycles a fixed horizon pays.
            horizon /= 1.0 + self.gain
        self._horizons[resource] = min(self.max_horizon, max(self.min_horizon, horizon))
        self.adaptations += 1

