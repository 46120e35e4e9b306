"""Tests for the root-cause strategies and the analysis utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.statistics import normalize_scores, relative_difference, summary
from repro.analysis.trend import linear_slope, mann_kendall, theil_sen_slope
from repro.core.resource_map import ComponentSample, ResourceComponentMap
from repro.core.rootcause import (
    PaperMapStrategy,
    TrendStrategy,
    WeightedCompositeStrategy,
)


def _map_with_components(growths: dict, points: int = 30, noise: float = 0.0, seed: int = 0):
    """Build a resource map with linear growth per component (+ optional noise)."""
    rng = np.random.default_rng(seed)
    resource_map = ResourceComponentMap()
    for component, total_growth in growths.items():
        for index in range(points):
            value = 2048.0 + total_growth * index / (points - 1)
            if noise:
                value += rng.normal(0.0, noise)
            resource_map.add_samples(
                [
                    ComponentSample(
                        component,
                        timestamp=float(index * 60),
                        values={"object_size": value},
                    )
                ]
            )
    return resource_map


class TestTrendAnalysis:
    def test_mann_kendall_detects_increasing_trend(self):
        values = np.linspace(0.0, 100.0, 40) + np.random.default_rng(1).normal(0, 2, 40)
        result = mann_kendall(values)
        assert result.trending_up
        assert result.p_value < 0.01

    def test_mann_kendall_flat_series_not_significant(self):
        values = np.random.default_rng(2).normal(50.0, 1.0, 40)
        result = mann_kendall(values)
        assert not result.significant or abs(result.z_score) < 3

    def test_mann_kendall_short_series(self):
        assert not mann_kendall([1.0, 2.0]).significant

    def test_linear_and_theil_sen_slopes(self):
        times = np.arange(0, 50, dtype=float)
        values = 3.0 * times + 10.0
        assert linear_slope(times, values) == pytest.approx(3.0)
        assert theil_sen_slope(times, values) == pytest.approx(3.0)

    def test_theil_sen_robust_to_outliers(self):
        times = np.arange(0, 50, dtype=float)
        values = 2.0 * times
        values[10] += 10_000  # gross outlier
        assert abs(theil_sen_slope(times, values) - 2.0) < 0.2
        assert abs(linear_slope(times, values) - 2.0) > 0.5

    def test_slope_input_validation(self):
        with pytest.raises(ValueError):
            linear_slope([1, 2], [1])
        assert linear_slope([1.0], [5.0]) == 0.0
        assert theil_sen_slope([], []) == 0.0


class TestStatistics:
    def test_normalize_scores(self):
        assert normalize_scores({"a": 3.0, "b": 1.0}) == {"a": 0.75, "b": 0.25}
        assert normalize_scores({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}
        normalized = normalize_scores({"a": -5.0, "b": 5.0})
        assert normalized == {"a": 0.0, "b": 1.0}

    def test_summary_and_relative_difference(self):
        stats = summary([1.0, 2.0, 3.0])
        assert stats["mean"] == 2.0 and stats["count"] == 3
        assert summary([])["count"] == 0
        assert relative_difference(95.0, 100.0) == pytest.approx(-0.05)
        assert relative_difference(1.0, 0.0) == float("inf")


class TestStrategies:
    def test_paper_map_ranks_by_consumption(self):
        resource_map = _map_with_components({"A": 4_000_000, "B": 500_000, "C": 0})
        report = PaperMapStrategy().analyze(resource_map)
        assert report.ranking()[:2] == ["A", "B"]
        assert report.top().responsibility > 0.8
        assert report.responsibility("C") == 0.0

    def test_paper_map_single_guilty_component_gets_full_responsibility(self):
        resource_map = _map_with_components({"A": 1_000_000, "B": 0, "C": 0})
        report = PaperMapStrategy().analyze(resource_map)
        assert report.top().component == "A"
        assert report.top().responsibility == pytest.approx(1.0)

    def test_paper_map_ties_broken_by_usage(self):
        resource_map = ResourceComponentMap()
        for component, invocations in [("busy", 50), ("quiet", 5)]:
            for index in range(invocations):
                resource_map.add_samples(
                    [ComponentSample(component, float(index), values={"object_size": 1000.0})]
                )
        report = PaperMapStrategy().analyze(resource_map)
        assert report.ranking()[0] == "busy"

    def test_trend_strategy_ignores_noisy_flat_components(self):
        resource_map = _map_with_components(
            {"leaky": 2_000_000, "noisy": 0}, points=40, noise=3000.0, seed=3
        )
        report = TrendStrategy().analyze(resource_map)
        assert report.top().component == "leaky"
        assert report.responsibility("noisy") < 0.05

    def test_trend_strategy_requires_minimum_points(self):
        resource_map = _map_with_components({"A": 1_000_000}, points=3)
        report = TrendStrategy(min_points=5).analyze(resource_map)
        assert report.top().score == 0.0

    def test_composite_strategy_combines(self):
        resource_map = _map_with_components({"A": 3_000_000, "B": 100_000}, points=30)
        report = WeightedCompositeStrategy().analyze(resource_map)
        assert report.top().component == "A"
        assert report.strategy == "composite"
        details = report.top().details
        assert "paper-map_responsibility" in details and "trend_responsibility" in details

    def test_composite_validation(self):
        with pytest.raises(ValueError):
            WeightedCompositeStrategy(strategies=[PaperMapStrategy()], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            WeightedCompositeStrategy(strategies=[PaperMapStrategy()], weights=[0.0])

    def test_trend_strategy_validation(self):
        with pytest.raises(ValueError):
            TrendStrategy(alpha=1.5)
        with pytest.raises(ValueError):
            TrendStrategy(min_points=2)

    def test_report_rows_and_accessors(self):
        resource_map = _map_with_components({"A": 1_000_000, "B": 10_000})
        report = PaperMapStrategy().analyze(resource_map)
        rows = report.to_rows()
        assert rows[0]["rank"] == 1 and rows[0]["component"] == "A"
        assert report.responsibility("missing") == 0.0


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        # Growths either exactly zero or large enough not to vanish next to
        # the 2048-byte baseline used when synthesising the series.
        st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1e9)),
        min_size=1,
        max_size=5,
    )
)
def test_property_responsibilities_sum_to_one_or_zero(growths):
    """Responsibilities are a probability distribution whenever any growth exists."""
    resource_map = _map_with_components(growths, points=5)
    report = PaperMapStrategy().analyze(resource_map)
    total = sum(suspicion.responsibility for suspicion in report.suspicions)
    if any(value > 0 for value in growths.values()):
        assert total == pytest.approx(1.0)
    else:
        assert total == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=50))
def test_property_mann_kendall_symmetry(values):
    """Reversing a series flips the sign of the Mann-Kendall statistic."""
    forward = mann_kendall(values)
    backward = mann_kendall(list(reversed(values)))
    assert forward.statistic == pytest.approx(-backward.statistic)
