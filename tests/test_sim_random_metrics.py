"""Tests for random streams, metric primitives and capacity resources."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import TimeSeries, WindowedRate
from repro.sim.random import RandomStreams
from repro.sim.resources import CapacityResource, ResourceBusyError


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42)
        b = RandomStreams(42)
        assert [a.uniform("x") for _ in range(5)] == [b.uniform("x") for _ in range(5)]

    def test_different_streams_are_independent(self):
        streams = RandomStreams(42)
        first = [streams.uniform("a") for _ in range(5)]
        # Creating another stream must not perturb the first one.
        fresh = RandomStreams(42)
        fresh.uniform("b")
        second = [fresh.uniform("a") for _ in range(5)]
        assert first == second

    def test_exponential_mean_is_close(self):
        streams = RandomStreams(7)
        draws = [streams.exponential("think", 7.0) for _ in range(4000)]
        assert abs(np.mean(draws) - 7.0) < 0.5

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ValueError):
            RandomStreams(0).exponential("x", 0.0)

    def test_uniform_int_bounds_inclusive(self):
        streams = RandomStreams(3)
        draws = {streams.uniform_int("n", 0, 3) for _ in range(200)}
        assert draws == {0, 1, 2, 3}

    def test_choice_weighted_never_picks_zero_weight(self):
        streams = RandomStreams(5)
        picks = {streams.choice("c", ["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_choice_validates_lengths(self):
        with pytest.raises(ValueError):
            RandomStreams(0).choice("c", ["a", "b"], [1.0])

    def test_lognormal_service_time_mean(self):
        streams = RandomStreams(11)
        draws = [streams.lognormal_service_time("s", 0.1, cv=0.3) for _ in range(5000)]
        assert abs(np.mean(draws) - 0.1) < 0.01
        assert min(draws) > 0

    def test_lognormal_zero_cv_is_deterministic(self):
        assert RandomStreams(0).lognormal_service_time("s", 0.2, cv=0.0) == 0.2

    def test_lognormal_service_time_draws_the_uncached_floats(self):
        """Each draw is the float the per-call formula gives, whatever the
        order and repetition of (stream, mean, cv) keys."""
        keys = [
            ("s", 0.1, 0.25), ("s", 0.22, 0.25), ("t", 0.1, 0.25), ("s", 0.1, 0.25),
            ("s", 0.05, 0.5), ("t", 0.1, 0.25), ("s", 0.22, 0.25), ("s", 1.0, 1e-3),
        ] * 3
        streams = RandomStreams(11)
        reference = RandomStreams(11)
        for name, mean, cv in keys:
            sigma2 = np.log(1.0 + cv * cv)
            expected = float(
                reference.stream(name).lognormal(
                    mean=np.log(mean) - sigma2 / 2.0, sigma=np.sqrt(sigma2)
                )
            )
            assert streams.lognormal_service_time(name, mean, cv) == expected
        # Bad arguments still raise, also for a stream already drawn from,
        # and cv = 0 returns the mean without consuming the stream.
        for mean, cv in ((0.0, 0.25), (-0.1, 0.25), (0.1, -0.25)):
            with pytest.raises(ValueError):
                streams.lognormal_service_time("s", mean, cv)
        assert streams.lognormal_service_time("s", 0.1, 0.0) == 0.1
        assert streams.stream("s").random() == reference.stream("s").random()

    def test_buffered_draws_equal_scalar_draws_across_refills(self):
        buffered = RandomStreams(5)
        think = buffered.buffer_stream("think", "exponential", (7.0,), batch=4)
        mix = buffered.buffer_stream("mix", "uniform", (0.0, 1.0), batch=3)
        scalar = RandomStreams(5)
        for _ in range(11):  # several refills of both batches
            value = think()
            assert type(value) is float
            assert value == float(scalar.stream("think").exponential(7.0))
            assert mix() == float(scalar.stream("mix").uniform(0.0, 1.0))
        # The named draw serves the same buffer.
        assert buffered.exponential("think", 7.0) == float(scalar.stream("think").exponential(7.0))
        assert buffered.buffer_stream("think", "exponential", (7.0,)) == think

    def test_invalid_seed_type(self):
        with pytest.raises(TypeError):
            RandomStreams("not-a-seed")  # type: ignore[arg-type]


class TestTimeSeries:
    def test_records_and_exposes_arrays(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        series.record(1.0, 2.0)
        assert list(series.times) == [0.0, 1.0]
        assert list(series.values) == [1.0, 2.0]

    def test_rejects_decreasing_timestamps(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)

    def test_value_at_uses_last_observation_carried_forward(self):
        series = TimeSeries()
        series.record(0.0, 10.0)
        series.record(10.0, 20.0)
        assert series.value_at(5.0) == 10.0
        assert series.value_at(10.0) == 20.0
        assert series.value_at(100.0) == 20.0

    def test_window_selects_inclusive_range(self):
        series = TimeSeries()
        for t in range(10):
            series.record(float(t), float(t))
        windowed = series.window(2.0, 5.0)
        assert list(windowed.times) == [2.0, 3.0, 4.0, 5.0]

    def test_resample_regular_grid(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record(10.0, 2.0)
        resampled = series.resample(5.0)
        assert list(resampled.times) == [0.0, 5.0, 10.0]
        assert list(resampled.values) == [1.0, 1.0, 2.0]

    def test_last_returns_none_when_empty(self):
        assert TimeSeries().last() is None

    def test_growth_across_doubling_boundaries(self):
        series = TimeSeries("grow")
        for index in range(1000):  # crosses several capacity doublings
            series.record(float(index), float(index * 2))
        assert len(series) == 1000
        assert list(series.times[:3]) == [0.0, 1.0, 2.0]
        assert series.values[-1] == 1998.0
        assert series.last() == (999.0, 1998.0)

    def test_record_many_large_batch_and_views(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record_many([float(t) for t in range(1, 501)], [0.5] * 500)
        assert len(series) == 501
        view_before = series.values
        series.record(1000.0, 9.0)
        # The earlier view is a stable snapshot of its prefix...
        assert len(view_before) == 501
        assert view_before[-1] == 0.5
        # ...and the fresh view includes the append.
        assert series.values[-1] == 9.0

    def test_views_are_zero_copy_of_backing_store(self):
        series = TimeSeries()
        series.record_many([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert series.times.base is series._times_buf

    def test_record_many_rejects_unsorted_batch(self):
        series = TimeSeries()
        with pytest.raises(ValueError):
            series.record_many([1.0, 0.5], [1.0, 1.0])
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record_many([4.0, 6.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            series.record_many([6.0], [1.0, 2.0])

    def test_record_many_accepts_equal_and_nan_stamps(self):
        series = TimeSeries()
        series.record(1.0, 0.0)
        nan = float("nan")
        # Only a later stamp smaller than the one before it is refused: an
        # equal stamp, and a NaN on either side of a pair, pass.
        series.record_many([1.0, 1.0, nan, 0.5, 2.0, 2.0], [1, 2, 3, 4, 5, 6])
        series.record_many(np.array([3.0, 3.0]), np.array([7.0, 8.0]))
        assert len(series) == 9
        assert series.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        assert series.times.tobytes() == np.array(
            [1.0, 1.0, 1.0, nan, 0.5, 2.0, 2.0, 3.0, 3.0]
        ).tobytes()

    def test_record_many_refusals_keep_their_messages(self):
        series = TimeSeries()
        with pytest.raises(ValueError, match="^timestamps must be non-decreasing within the batch$"):
            series.record_many([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])
        series.record(5.0, 1.0)
        with pytest.raises(
            ValueError, match=r"^timestamps must be non-decreasing: got 4\.0 after 5\.0$"
        ):
            series.record_many([4, 6], [1.0, 1.0])
        with pytest.raises(
            ValueError, match=r"^timestamps and values must have equal length \(1 vs 2\)$"
        ):
            series.record_many([6.0], [1.0, 2.0])
        assert len(series) == 1 and series.last() == (5.0, 1.0)

    def test_to_rows_and_value_at_return_python_floats(self):
        series = TimeSeries()
        series.record_many([0.0, 10.0], [1.5, 2.5])
        rows = series.to_rows()
        assert rows == [(0.0, 1.5), (10.0, 2.5)]
        assert all(type(value) is float for pair in rows for value in pair)
        assert type(series.value_at(3.0)) is float
        assert type(series.last()[0]) is float

    def test_window_result_owns_its_storage(self):
        series = TimeSeries()
        for t in range(10):
            series.record(float(t), float(t))
        windowed = series.window(2.0, 5.0)
        windowed.record(100.0, -1.0)  # appending must not touch the parent
        assert list(series.values[:10]) == [float(t) for t in range(10)]
        assert windowed.last() == (100.0, -1.0)


class TestWindowedRate:
    def test_windowed_rate_produces_per_second_values(self):
        rate = WindowedRate(window=10.0)
        for t in [1.0, 2.0, 3.0, 4.0, 5.0]:
            rate.mark(t)
        series = rate.finish(20.0)
        assert len(series) == 2
        assert series.values[0] == pytest.approx(0.5)   # 5 events / 10 s
        assert series.values[1] == pytest.approx(0.0)


class TestCapacityResource:
    def test_serves_immediately_when_idle(self):
        resource = CapacityResource(2)
        start, finish = resource.acquire(10.0, 5.0)
        assert (start, finish) == (10.0, 15.0)

    def test_queues_when_all_servers_busy(self):
        resource = CapacityResource(1)
        resource.acquire(0.0, 10.0)
        start, finish = resource.acquire(2.0, 5.0)
        assert start == 10.0
        assert finish == 15.0
        assert resource.mean_wait() == pytest.approx(4.0)  # (0 + 8) / 2

    def test_parallel_servers_no_queueing(self):
        resource = CapacityResource(2)
        resource.acquire(0.0, 10.0)
        start, _ = resource.acquire(0.0, 10.0)
        assert start == 0.0

    def test_queue_bound_raises(self):
        resource = CapacityResource(1, max_queue=0)
        resource.acquire(0.0, 10.0)
        with pytest.raises(ResourceBusyError):
            resource.acquire(1.0, 1.0)
        assert resource.rejected == 1

    def test_queue_bound_refuses_past_capacity_plus_queue(self):
        resource = CapacityResource(2, max_queue=1)
        for _ in range(3):  # two served, one waiting
            resource.acquire(0.0, 10.0)
        with pytest.raises(ResourceBusyError):
            resource.acquire(0.0, 10.0)
        assert resource.rejected == 1
        # Once the first two finish, only the waiting one is unfinished.
        assert resource.acquire(10.0, 1.0) == (10.0, 11.0)
        assert resource.rejected == 1

    def test_utilization(self):
        resource = CapacityResource(2)
        resource.acquire(0.0, 10.0)
        assert resource.utilization(10.0) == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CapacityResource(0)


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=50))
def test_property_timeseries_sorted_insertion(values):
    """Recording at sorted timestamps always succeeds and preserves length."""
    series = TimeSeries()
    for index, value in enumerate(sorted(values)):
        series.record(float(index), float(value))
    assert len(series) == len(values)
    assert np.all(np.diff(series.times) >= 0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=10.0),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_property_capacity_resource_invariants(capacity, jobs):
    """Starts never precede requests; finishes equal start + duration; busy time adds up."""
    resource = CapacityResource(capacity)
    total = 0.0
    for request_time, duration in sorted(jobs):
        start, finish = resource.acquire(request_time, duration)
        assert start >= request_time
        assert finish == pytest.approx(start + duration)
        total += duration
    assert resource.total_busy_time == pytest.approx(total)
    assert resource.served == len(jobs)
