"""Tests for object sizing, overhead accounting and the resource-component map."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overhead import OverheadAccount
from repro.core.resource_map import ComponentSample, ResourceComponentMap
from repro.core.sizing import deep_object_size, retained_component_size
from repro.jvm.heap import Heap
from repro.jvm.objects import JavaObject


class TestSizing:
    def test_one_level_only(self):
        root = JavaObject("Root", 100)
        child = JavaObject("Child", 50)
        grandchild = JavaObject("GrandChild", 1000)
        root.add_reference(child)
        child.add_reference(grandchild)
        # The grandchild must NOT be counted (no recursion, per the paper).
        assert deep_object_size(root) == 150

    def test_duplicate_references_counted_once(self):
        root = JavaObject("Root", 10)
        child = JavaObject("Child", 5)
        root.add_reference(child)
        root.add_reference(child)
        assert deep_object_size(root) == 15

    def test_dead_children_skipped_with_heap(self):
        heap = Heap(10_000)
        root = heap.allocate("Root", 10, root=True)
        child = heap.allocate("Child", 100)
        root.add_reference(child)
        assert deep_object_size(root, heap) == 110
        heap.free(child)
        assert deep_object_size(root, heap) == 10

    def test_retained_component_size_over_multiple_roots(self):
        shared = JavaObject("Shared", 40)
        first = JavaObject("A", 10)
        second = JavaObject("B", 20)
        first.add_reference(shared)
        second.add_reference(shared)
        # Shared child counted once; duplicate root list counted once.
        assert retained_component_size([first, second, first]) == 70


class TestOverheadAccount:
    def test_charge_and_consume(self):
        account = OverheadAccount(sample_cost_seconds=0.002)
        account.charge_sample("home")
        account.charge_sample("home", samples=3)
        assert account.sample_count == 4
        assert account.pending_seconds == pytest.approx(0.008)
        assert account.consume_pending() == pytest.approx(0.008)
        assert account.consume_pending() == 0.0
        assert account.total_seconds == pytest.approx(0.008)
        assert account.by_component() == {"home": pytest.approx(0.008)}

    def test_invalid_values(self):
        for cost in (-1, -1e-9, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="must be non-negative and finite"):
                OverheadAccount(sample_cost_seconds=cost)
        account = OverheadAccount()
        with pytest.raises(ValueError):
            account.charge_sample("x", samples=-1)


class TestResourceComponentMap:
    def _sample(self, component, t, size):
        return ComponentSample(
            component=component,
            timestamp=t,
            deltas={"object_size": 0.0},
            values={"object_size": size},
        )

    def test_samples_accumulate_usage_and_consumption(self):
        resource_map = ResourceComponentMap()
        for index in range(10):
            resource_map.add_samples([self._sample("home", float(index), 1000.0 + 100 * index)])
        stats = resource_map.stats("home")
        assert stats.invocations == 10
        assert resource_map.consumption("home") == pytest.approx(900.0)
        assert resource_map.usage_frequency("home") == pytest.approx(10 / 9.0)
        assert len(resource_map.series("home")) == 10

    def test_snapshot_observations_do_not_count_as_usage(self):
        resource_map = ResourceComponentMap()
        resource_map.record_observation("home", "object_size", 0.0, 100.0)
        resource_map.record_observation("home", "object_size", 60.0, 500.0)
        assert resource_map.stats("home").invocations == 0
        assert resource_map.consumption("home") == pytest.approx(400.0)

    def test_consumption_falls_back_to_positive_deltas(self):
        resource_map = ResourceComponentMap()
        sample = ComponentSample("cart", 1.0, deltas={"heap_used": 300.0}, values={})
        resource_map.add_samples([sample])
        assert resource_map.consumption("cart", "heap_used") == pytest.approx(300.0)

    def test_quadrants_classification(self):
        resource_map = ResourceComponentMap()
        # A: high usage + high consumption, B: high usage only,
        # C: low usage + high consumption, D: neither.
        for index in range(20):
            resource_map.add_samples([self._sample("A", float(index), 1000.0 * index)])
            resource_map.add_samples([self._sample("B", float(index), 100.0)])
        resource_map.add_samples([self._sample("C", 0.0, 0.0)])
        resource_map.add_samples([self._sample("C", 19.0, 30000.0)])
        resource_map.add_samples([self._sample("D", 10.0, 10.0)])
        quadrants = resource_map.quadrants()
        assert "most suspicious" in quadrants["A"]
        assert quadrants["B"] == "high-usage / low-consumption"
        assert quadrants["C"] == "low-usage / high-consumption"
        assert quadrants["D"] == "low-usage / low-consumption"

    def test_application_components_excludes_pseudo(self):
        resource_map = ResourceComponentMap()
        resource_map.register_component("home")
        resource_map.record_observation("<jvm>", "heap_used", 0.0, 1.0)
        assert resource_map.application_components() == ["home"]
        assert "<jvm>" in resource_map.components()

    def test_to_rows_contains_expected_columns(self):
        resource_map = ResourceComponentMap()
        resource_map.add_samples([self._sample("home", 0.0, 10.0)])
        rows = resource_map.to_rows()
        assert rows[0]["component"] == "home"
        assert {"invocations", "usage_per_second", "object_size_consumed", "quadrant"} <= set(rows[0])


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=30),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_deep_size_is_shallow_plus_children(child_sizes, root_size):
    """deep size == root shallow + sum of distinct children shallow sizes."""
    root = JavaObject("Root", root_size)
    children = [JavaObject(f"C{index}", size) for index, size in enumerate(child_sizes)]
    for child in children:
        root.add_reference(child)
    assert deep_object_size(root) == root_size + sum(child_sizes)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(min_value=0, max_value=1e6)),
        min_size=1,
        max_size=60,
    )
)
def test_property_map_invocations_match_sample_counts(samples):
    """Per-component invocation counts equal the number of samples folded in."""
    resource_map = ResourceComponentMap()
    expected = {}
    for index, (component, size) in enumerate(samples):
        resource_map.add_samples(
            [ComponentSample(component, float(index), values={"object_size": size})]
        )
        expected[component] = expected.get(component, 0) + 1
    for component, count in expected.items():
        assert resource_map.stats(component).invocations == count
    assert resource_map.sample_count == len(samples)


@st.composite
def _sample_runs(draw):
    """Samples over 2-4 components, each carrying a random subset of a 2-3
    name pool of delta metrics and of value metrics, plus consecutive batch
    cut points.  Values are integer-valued floats, so every sum is exact in
    any order; timestamps never decrease, ties included."""
    components = draw(st.lists(st.sampled_from("ABCD"), min_size=2, max_size=4, unique=True))
    delta_pool = draw(
        st.lists(
            st.sampled_from(["object_size", "threads", "connections"]),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    value_pool = draw(
        st.lists(
            st.sampled_from(["object_size", "heap_used", "heap_free"]),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    numbers = st.integers(min_value=-1_000, max_value=1_000).map(float)
    samples = []
    timestamp = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        timestamp += draw(st.integers(min_value=0, max_value=3))
        deltas = draw(st.lists(st.sampled_from(delta_pool), unique=True))
        values = draw(st.lists(st.sampled_from(value_pool), unique=True))
        samples.append(
            ComponentSample(
                draw(st.sampled_from(components)),
                timestamp,
                deltas={metric: draw(numbers) for metric in deltas},
                values={metric: draw(numbers) for metric in values},
            )
        )
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(1, len(samples) - 1)))))
    return samples, cuts


def _map_state(resource_map):
    components = resource_map.components()
    state = {
        "components": components,
        "sample_count": resource_map.sample_count,
        "window": resource_map.observation_window(),
    }
    for name in components:
        stats = resource_map.stats(name)
        state[name] = (
            stats.invocations,
            dict(stats.cumulative_deltas),
            dict(stats.first_values),
            dict(stats.last_values),
            {
                metric: (list(series.times), list(series.values))
                for metric, series in stats.series.items()
            },
        )
    return state


@settings(max_examples=100, deadline=None)
@given(_sample_runs())
def test_property_fold_is_the_same_in_any_consecutive_batches(run):
    """One batch, one sample at a time, and random consecutive batches fold
    to the same map, also when the samples of one batch carry different
    delta and value metrics (the fold's per-metric fallbacks)."""
    samples, cuts = run
    whole = ResourceComponentMap()
    whole.add_samples(samples)
    single = ResourceComponentMap()
    for sample in samples:
        single.add_samples([sample])
    batched = ResourceComponentMap()
    bounds = [0, *cuts, len(samples)]
    for start, end in zip(bounds, bounds[1:]):
        batched.add_samples(samples[start:end])
    assert _map_state(whole) == _map_state(single) == _map_state(batched)
    assert whole.sample_count == len(samples)
