"""Unit tests for the SLA / adaptive-rejuvenation subsystem (ISSUE 3).

Covers the three ``repro.slo`` pieces in isolation:

* predictors — time-to-exhaustion math on synthetic known-slope series, the
  prediction/settlement error tracking (bias, MAE, calibration), the stale-
  regime discard and the warm-up trim;
* cost model — strict monotonicity in every currency, error-budget burn,
  validation;
* adaptive policy — decide protocol, horizon widening under optimistic
  predictions, shrinking under calibrated ones, clamp bounds, per-resource
  isolation.
"""

from __future__ import annotations

import pytest

from repro.baselines.rejuvenation import (
    MICRO_REBOOT,
    PolicyObservation,
    RejuvenationAction,
)
from repro.sim.metrics import TimeSeries
from repro.slo.adaptive_policy import AdaptiveRejuvenationPolicy
from repro.slo.cost_model import SlaCostModel, SlaObservation
from repro.slo.predictors import (
    EwmaSlopePredictor,
    SlidingWindowLinearPredictor,
    TheilSenPredictor,
)


def make_series(times, values, name="test"):
    series = TimeSeries(name)
    for t, v in zip(times, values):
        series.record(float(t), float(v))
    return series


def linear_series(slope, intercept=0.0, n=20, dt=1.0):
    times = [i * dt for i in range(n)]
    return make_series(times, [intercept + slope * t for t in times])


# --------------------------------------------------------------------------- #
# Predictors
# --------------------------------------------------------------------------- #
class TestPredictorEstimation:
    @pytest.mark.parametrize(
        "predictor_class",
        [SlidingWindowLinearPredictor, TheilSenPredictor, EwmaSlopePredictor],
    )
    def test_exact_on_known_slope(self, predictor_class):
        # 2 units/second from 0: capacity 100 is exhausted at t=50.
        series = linear_series(slope=2.0, n=20)
        predictor = predictor_class()
        tte = predictor.time_to_exhaustion(series, capacity=100.0, now=19.0)
        assert tte == pytest.approx(50.0 - 19.0, rel=1e-6)

    @pytest.mark.parametrize(
        "predictor_class",
        [SlidingWindowLinearPredictor, TheilSenPredictor, EwmaSlopePredictor],
    )
    def test_no_prediction_without_upward_trend(self, predictor_class):
        predictor = predictor_class()
        flat = make_series([0, 1, 2, 3], [5, 5, 5, 5])
        shrinking = make_series([0, 1, 2, 3], [9, 8, 7, 6])
        assert predictor.time_to_exhaustion(flat, 100.0, 3.0) is None
        assert predictor.time_to_exhaustion(shrinking, 100.0, 3.0) is None

    def test_too_few_samples(self):
        predictor = TheilSenPredictor(min_samples=5)
        series = linear_series(slope=1.0, n=4)
        assert predictor.time_to_exhaustion(series, 100.0, 3.0) is None

    def test_exhausted_resource_predicts_zero(self):
        series = linear_series(slope=2.0, n=20)  # last value 38
        predictor = TheilSenPredictor()
        assert predictor.time_to_exhaustion(series, capacity=30.0, now=19.0) == 0.0

    def test_window_restricts_fit(self):
        # Slope doubles at t=10; a 5-second window sees only the fast phase.
        times = list(range(21))
        values = [t if t <= 10 else 10 + 4 * (t - 10) for t in times]
        series = make_series(times, values)
        windowed = TheilSenPredictor(window_seconds=5.0)
        unwindowed = TheilSenPredictor()
        fast = windowed.time_to_exhaustion(series, 100.0, 20.0)
        slow = unwindowed.time_to_exhaustion(series, 100.0, 20.0)
        assert fast == pytest.approx((100.0 - 50.0) / 4.0, rel=1e-6)
        assert slow > fast

    def test_warmup_plateau_is_trimmed(self):
        # Ten idle samples then a clean 2/s trend: the idle head must not
        # dilute the slope.
        times = list(range(20))
        values = [3.0] * 10 + [3.0 + 2.0 * (t - 9) for t in range(10, 20)]
        series = make_series(times, values)
        predictor = SlidingWindowLinearPredictor()
        tte = predictor.time_to_exhaustion(series, capacity=45.0, now=19.0)
        # True remaining time at rate 2/s from value 23: 11 seconds.
        assert tte == pytest.approx(11.0, rel=0.05)

    def test_ewma_tracks_rate_change_faster_than_uniform(self):
        times = list(range(21))
        values = [t if t <= 10 else 10 + 4 * (t - 10) for t in times]
        series = make_series(times, values)
        ewma = EwmaSlopePredictor(alpha=0.5)
        uniform = SlidingWindowLinearPredictor()
        assert ewma.slope(series.times, series.values) > uniform.slope(
            series.times, series.values
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TheilSenPredictor(min_samples=1)
        with pytest.raises(ValueError):
            TheilSenPredictor(window_seconds=0.0)
        with pytest.raises(ValueError):
            EwmaSlopePredictor(alpha=1.0)


class TestPredictionErrorTracking:
    def test_bias_and_mae_on_known_errors(self):
        predictor = TheilSenPredictor()
        # Three predictions of the same exhaustion event at t=100.
        predictor.note(made_at=10.0, predicted_tte=100.0)  # error +10
        predictor.note(made_at=20.0, predicted_tte=70.0)   # error -10
        predictor.note(made_at=30.0, predicted_tte=90.0)   # error +20
        settled, ratio = predictor.settle(100.0)
        assert settled == 3
        stats = predictor.stats
        assert stats.count == 3
        assert stats.bias_seconds == pytest.approx((10 - 10 + 20) / 3)
        assert stats.mae_seconds == pytest.approx((10 + 10 + 20) / 3)
        expected_ratio = (100 / 90 + 70 / 80 + 90 / 70) / 3
        assert stats.calibration == pytest.approx(expected_ratio)
        assert ratio == pytest.approx(expected_ratio)

    def test_settle_ignores_future_predictions(self):
        predictor = TheilSenPredictor()
        predictor.note(made_at=50.0, predicted_tte=10.0)
        settled, _ = predictor.settle(40.0)  # realized before the prediction
        assert settled == 0
        assert predictor.outstanding_predictions == 1

    def test_settle_discards_stale_regime(self):
        predictor = TheilSenPredictor()
        predictor.note(made_at=5.0, predicted_tte=500.0)   # pre-recycle regime
        predictor.note(made_at=50.0, predicted_tte=30.0)
        settled, ratio = predictor.settle(80.0, since=40.0)
        assert settled == 1  # the stale record is dropped, not scored
        assert predictor.stats.count == 1
        assert ratio == pytest.approx(30.0 / 30.0)
        assert predictor.outstanding_predictions == 0

    def test_predict_records_and_stats_row(self):
        predictor = SlidingWindowLinearPredictor()
        series = linear_series(slope=1.0, n=10)
        tte = predictor.predict(series, capacity=100.0, now=9.0)
        assert tte == pytest.approx(91.0, rel=1e-6)
        assert predictor.outstanding_predictions == 1
        row = predictor.stats_row()
        assert row["predictor"] == "sliding-linear"
        assert row["outstanding"] == 1
        assert row["predictions"] == 0


# --------------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------------- #
class TestSlaCostModel:
    def observation(self, **overrides):
        base = dict(
            duration_seconds=3600.0,
            downtime_seconds=10.0,
            exposure_seconds=30.0,
            failed_requests=5,
            refused_requests=8,
        )
        base.update(overrides)
        return SlaObservation(**base)

    def test_zero_cost_for_perfect_run(self):
        model = SlaCostModel()
        perfect = SlaObservation(duration_seconds=3600.0)
        assert model.score(perfect) == 0.0

    @pytest.mark.parametrize(
        "field,delta",
        [
            ("downtime_seconds", 1.0),
            ("exposure_seconds", 1.0),
            ("failed_requests", 1),
            ("refused_requests", 1),
        ],
    )
    def test_strictly_monotone_in_every_currency(self, field, delta):
        model = SlaCostModel()
        base = self.observation()
        worse = self.observation(**{field: getattr(base, field) + delta})
        assert model.score(worse) > model.score(base)

    def test_breakdown_sums_to_score(self):
        model = SlaCostModel()
        observation = self.observation()
        breakdown = model.breakdown(observation)
        total = sum(v for k, v in breakdown.items() if k.endswith("_cost"))
        assert total == pytest.approx(model.score(observation))

    def test_burn_hinge_only_beyond_budget(self):
        model = SlaCostModel(target_availability=0.99)  # budget: 36 s
        inside = SlaObservation(duration_seconds=3600.0, downtime_seconds=20.0)
        at_budget = SlaObservation(duration_seconds=3600.0, downtime_seconds=36.0)
        beyond = SlaObservation(duration_seconds=3600.0, downtime_seconds=72.0)
        assert model.breakdown(inside)["burn_cost"] == 0.0
        assert model.breakdown(at_budget)["burn_cost"] == 0.0
        assert model.budget_burn(beyond) == pytest.approx(2.0)
        assert model.breakdown(beyond)["burn_cost"] == pytest.approx(model.burn_weight)

    def test_failed_requests_burn_budget(self):
        model = SlaCostModel(target_availability=0.999)  # budget: 3.6 s
        observation = SlaObservation(duration_seconds=3600.0, failed_requests=36)
        assert model.budget_burn(observation) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlaObservation(duration_seconds=0.0)
        with pytest.raises(ValueError):
            SlaObservation(duration_seconds=10.0, downtime_seconds=-1.0)
        with pytest.raises(ValueError):
            SlaCostModel(target_availability=1.0)
        with pytest.raises(ValueError):
            SlaCostModel(burn_weight=-1.0)


# --------------------------------------------------------------------------- #
# Adaptive policy
# --------------------------------------------------------------------------- #
def observation_for(series, capacity, now, resource="heap", suspect="component_a"):
    return PolicyObservation(
        now=now,
        series=series,
        capacity=capacity,
        suspect_component=suspect,
        resource=resource,
    )


class TestAdaptivePolicy:
    def make_policy(self, **overrides):
        params = dict(
            predictor_factory=lambda: SlidingWindowLinearPredictor(min_samples=3),
            base_horizon=100.0,
            min_horizon=25.0,
            max_horizon=400.0,
            gain=0.5,
            microreboot_downtime=1.0,
        )
        params.update(overrides)
        return AdaptiveRejuvenationPolicy(**params)

    def test_acts_inside_horizon_with_suspect(self):
        policy = self.make_policy()
        series = linear_series(slope=2.0, n=20)  # exhaustion of 120 at t=60
        action = policy.decide(observation_for(series, capacity=120.0, now=19.0))
        assert action is not None
        assert action.kind == MICRO_REBOOT
        assert action.component == "component_a"
        assert action.resource == "heap"
        assert "heap" in action.reason

    def test_no_action_outside_horizon_or_without_suspect(self):
        policy = self.make_policy()
        far = linear_series(slope=0.1, n=20)  # exhaustion far beyond horizon
        assert policy.decide(observation_for(far, capacity=1000.0, now=19.0)) is None
        near = linear_series(slope=2.0, n=20)
        assert (
            policy.decide(observation_for(near, 120.0, 19.0, suspect=None)) is None
        )

    def test_horizon_widens_under_optimistic_predictions(self):
        policy = self.make_policy()
        predictor = policy.predictor("heap")
        predictor.note(made_at=0.0, predicted_tte=100.0)
        settled, ratio = predictor.settle(40.0)  # realized far earlier: ratio 2.5
        assert settled == 1
        policy._adapt("heap", ratio)
        assert policy.horizon("heap") == pytest.approx(150.0)

    def test_horizon_shrinks_when_calibrated_and_clamps_at_min(self):
        policy = self.make_policy()
        for _ in range(10):
            policy._adapt("heap", 1.0)
        assert policy.horizon("heap") == pytest.approx(policy.min_horizon)

    def test_horizon_clamps_at_max(self):
        policy = self.make_policy()
        for _ in range(10):
            policy._adapt("heap", 3.0)
        assert policy.horizon("heap") == pytest.approx(policy.max_horizon)

    def test_convergence_calibrated_after_optimism_returns_down(self):
        policy = self.make_policy()
        policy._adapt("heap", 3.0)
        widened = policy.horizon("heap")
        assert widened > policy.base_horizon
        for _ in range(8):
            policy._adapt("heap", 1.0)
        assert policy.horizon("heap") < widened
        assert policy.horizon("heap") == pytest.approx(policy.min_horizon)

    def test_horizons_are_per_resource(self):
        policy = self.make_policy()
        policy._adapt("heap", 3.0)
        assert policy.horizon("heap") > policy.base_horizon
        assert policy.horizon("connections") == policy.base_horizon
        assert policy.predictor("heap") is not policy.predictor("connections")

    def test_on_action_executed_settles_and_adapts(self):
        policy = self.make_policy()
        series = linear_series(slope=2.0, n=30)  # clean trend, capacity 120
        # Record a calibrated prediction stream via decide() calls.
        for now in (20.0, 24.0, 29.0):
            policy.decide(observation_for(series, 120.0, now))
        predictor = policy.predictor("heap")
        assert predictor.outstanding_predictions > 0
        action = RejuvenationAction(
            kind=MICRO_REBOOT, downtime_seconds=1.0, component="component_a"
        )
        event = object()
        policy.on_action_executed(observation_for(series, 120.0, 29.0), event)
        assert predictor.stats.count > 0
        # A perfectly linear series settles as calibrated: horizon shrank.
        assert policy.horizon("heap") < policy.base_horizon

    def test_decide_skips_recording_far_predictions(self):
        policy = self.make_policy()
        far = linear_series(slope=0.001, n=20)
        policy.decide(observation_for(far, capacity=1000.0, now=19.0))
        assert policy.predictor("heap").outstanding_predictions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make_policy(base_horizon=0.0)
        with pytest.raises(ValueError):
            self.make_policy(min_horizon=200.0)  # min > base
        with pytest.raises(ValueError):
            self.make_policy(gain=0.0)
