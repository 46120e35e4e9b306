"""The monitoring path against a reference copy of its two-step form.

Each Aspect-Component advice samples the agents, charges the overhead and
reports to the manager in one pass, and a flush folds the buffered samples
without numpy temporaries.  The reference classes below keep the earlier
form of each step, written out: per-agent dict copies, ``charge_sample``
through ``charge``, deltas keyed off the after values, the two-pass map
fold and ``np.asarray``/``np.diff`` series appends.  The property test
drives both through one random sequence of advice pairs, agent changes,
snapshots and flushes and requires the same map, overhead account, agent
counts and AC counters, bit for bit.  The call budget pins the one-pass
advice's Python calls.
"""

from __future__ import annotations

import sys
from typing import Dict, List
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.manager_agent as manager_agent
from repro.aop.joinpoint import JoinPoint, Signature
from repro.core.aspect_component import AspectComponent
from repro.core.manager_agent import MANAGER_OBJECT_NAME, ManagerAgent
from repro.core.monitoring_agents import HeapAgent, MonitoringAgent, ObjectSizeAgent
from repro.core.overhead import OverheadAccount
from repro.core.resource_map import DEFAULT_METRIC, ComponentSample, ResourceComponentMap
from repro.core.sizing import ComponentSizeCache, retained_component_size
from repro.jmx.mbean_server import MBeanServer
from repro.jvm.runtime import JvmRuntime
from repro.sim.clock import SimClock
from repro.sim.metrics import TimeSeries

COMPONENTS = ("home", "search", "cart", "admin")
SIGNATURE = Signature("org.example.Servlet", "service")


# --------------------------------------------------------------------------- #
# Reference copies of the two-step path
# --------------------------------------------------------------------------- #
class ReferenceOverheadAccount(OverheadAccount):
    def charge_sample(self, component: str, samples: int = 1) -> float:
        if samples < 0:
            raise ValueError(f"samples must be non-negative, got {samples}")
        cost = samples * self.sample_cost_seconds
        self.charge(component, cost)
        self._samples += samples
        return cost

    def charge(self, component: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"overhead seconds must be non-negative, got {seconds}")
        self._pending += seconds
        self._total += seconds
        self._by_component[component] = self._by_component.get(component, 0.0) + seconds


class ReferenceAspectComponent(AspectComponent):
    def __init__(self, *args, overhead=None, **kwargs) -> None:
        super().__init__(*args, overhead=overhead, **kwargs)
        self._overhead = overhead

    def _now(self) -> float:
        return float(getattr(self._clock, "now", 0.0)) if self._clock is not None else 0.0

    def _sample_agents(self) -> Dict[str, float]:
        if self._bound_epoch != self._server.epoch:
            self._bind()
        measurements: Dict[str, float] = {}
        component = self.component_name
        overhead = self._overhead
        for sample in self._agent_samplers:
            values = sample(component)
            if not values:
                continue
            measurements.update({metric: float(value) for metric, value in values.items()})
            if overhead is not None:
                overhead.charge_sample(component)
        return measurements

    def after_component_execution(self, join_point: JoinPoint) -> None:
        before_values = join_point.context.get("ac.before", {})
        after_values = self._sample_agents()
        deltas = {
            metric: after_values[metric] - before_values.get(metric, after_values[metric])
            for metric in after_values
        }
        self._invocations += 1
        self._last_deltas = deltas
        self._last_values = after_values
        sample = ComponentSample(
            component=self.component_name,
            timestamp=self._now() or join_point.timestamp,
            deltas=deltas,
            values=after_values,
        )
        record_sample = self._record_sample
        if record_sample is not None:
            record_sample(sample)
            self._samples_sent += 1


class ReferenceSizeCache(ComponentSizeCache):
    def component_size(self, component, roots) -> int:
        heap = self._heap
        epoch = heap.liveness_epoch if heap is not None else 0
        stamp = tuple((root.object_id, root.version) for root in roots)
        entry = self._cache.get(component)
        if entry is not None and entry[0] == epoch and entry[1] == stamp:
            self._hits += 1
            return entry[2]
        size = retained_component_size(roots, heap=heap)
        self._cache[component] = (epoch, stamp, size)
        self._misses += 1
        return size


class ReferenceObjectSizeAgent(ObjectSizeAgent):
    def __init__(self, runtime: JvmRuntime) -> None:
        super().__init__(runtime)
        self._size_cache = ReferenceSizeCache(heap=runtime.heap)


class ReferenceHeapAgent(HeapAgent):
    def _measure(self, component: str) -> Dict[str, float]:
        return {
            "heap_used": float(self._runtime.used_memory()),
            "heap_free": float(self._runtime.free_memory()),
        }


def reference_record_many(series: TimeSeries, timestamps, values) -> None:
    if not len(timestamps):
        return
    if len(timestamps) != len(values):
        raise ValueError(
            f"timestamps and values must have equal length "
            f"({len(timestamps)} vs {len(values)})"
        )
    batch_times = np.asarray(timestamps, dtype=np.float64)
    batch_values = np.asarray(values, dtype=np.float64)
    n = series._length
    if n and batch_times[0] < series._times_buf[n - 1]:
        raise ValueError(
            f"timestamps must be non-decreasing: got {float(batch_times[0])} "
            f"after {float(series._times_buf[n - 1])}"
        )
    if len(batch_times) > 1 and bool((np.diff(batch_times) < 0).any()):
        raise ValueError("timestamps must be non-decreasing within the batch")
    series._reserve(len(batch_times))
    end = n + len(batch_times)
    series._times_buf[n:end] = batch_times
    series._values_buf[n:end] = batch_values
    series._length = end
    series._times_arr = None
    series._values_arr = None


class ReferenceResourceComponentMap(ResourceComponentMap):
    def add_samples(self, samples) -> None:
        if not samples:
            return
        by_component: Dict[str, List[ComponentSample]] = {}
        for sample in samples:
            group = by_component.get(sample.component)
            if group is None:
                group = by_component[sample.component] = []
            group.append(sample)
        for component, group in by_component.items():
            stats = self.stats(component)
            stats.invocations += len(group)
            delta_totals = stats.cumulative_deltas
            delta_metrics = set().union(*(sample.deltas.keys() for sample in group))
            for metric in sorted(delta_metrics):
                try:
                    total = sum([sample.deltas[metric] for sample in group])
                except KeyError:
                    total = sum(sample.deltas.get(metric, 0.0) for sample in group)
                delta_totals[metric] = delta_totals.get(metric, 0.0) + total
            value_metrics = set().union(*(sample.values.keys() for sample in group))
            if value_metrics:
                metric_times = None
                for metric in sorted(value_metrics):
                    try:
                        metric_values = [sample.values[metric] for sample in group]
                        if metric_times is None:
                            metric_times = [sample.timestamp for sample in group]
                        times = metric_times
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
                    reference_record_many(stats.series_for(metric), times, metric_values)
        self._sample_count += len(samples)
        self._note_time(min(sample.timestamp for sample in samples))
        self._note_time(max(sample.timestamp for sample in samples))


class ReferenceManagerAgent(ManagerAgent):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._map = ReferenceResourceComponentMap()

    def _flush_samples(self) -> None:
        pending = self._pending_samples
        if not pending:
            return
        self._pending_samples = []
        self._pending_growth.clear()
        touched = dict.fromkeys(sample.component for sample in pending)
        for component in touched:
            if component not in self._known_set:
                self._known_set.add(component)
                self._known_components.append(component)
        self._map.add_samples(pending)
        for component in touched:
            if component in self._alerted:
                continue
            growth = self._map.consumption(component, DEFAULT_METRIC)
            if growth >= self.alert_growth_bytes:
                self._emit_alert(component, growth)
            else:
                self._folded_consumption[component] = growth


# --------------------------------------------------------------------------- #
# One JVM, two monitoring stacks
# --------------------------------------------------------------------------- #
class World:
    """The state both stacks measure: a heap, a clock and a tick."""

    def __init__(self, components: int) -> None:
        self.runtime = JvmRuntime(heap_bytes=1 << 40)
        self.clock = SimClock()
        self.tick = 0
        self.names = COMPONENTS[:components]
        self.roots = {
            name: self.runtime.heap.allocate("Servlet", 512, owner=name, root=True)
            for name in self.names
        }
        self.children: Dict[str, list] = {name: [] for name in self.names}

    def grow(self, component: str, size: int) -> None:
        child = self.runtime.heap.allocate("Leak", size, owner=component)
        self.roots[component].add_reference(child)
        self.children[component].append(child)

    def free(self, component: str) -> None:
        live = [child for child in self.children[component] if self.runtime.heap.is_live(child)]
        if live:
            self.runtime.heap.free(live[-1])


class ProbeAgent(MonitoringAgent):
    """Returns ints, numpy scalars, another agent's metric, or nothing."""

    description = "Test agent"

    def __init__(self, world: World, agent_type: str, mode: str) -> None:
        super().__init__()
        self.agent_type = agent_type
        self._world = world
        self._mode = mode

    def _measure(self, component: str) -> Dict[str, object]:
        tick = self._world.tick
        mode = self._mode
        if mode == "ints":
            return {"test_count": tick * 3 + len(component)}
        if mode == "numpy":
            return {"test_value": np.float64(tick / 3.0), "test_count": np.int64(tick)}
        if mode == "shared":
            return {"heap_used": np.int64(tick * 1000 + 7)}
        if mode == "alternating":
            # Metrics that come and go: deltas without a "before" value and
            # groups whose samples carry different keys.  The deltas round
            # differently, so a sum taken in another order changes its last
            # bits.
            if tick // 2 % 2:
                return {"test_odd": tick * tick / 7.0}
            return {"test_even": tick ** 1.5 / 3.0, "heap_free": 3}
        return {}


class Stack:
    """Agents, manager, overhead account and one AC per component."""

    def __init__(
        self, world: World, reference: bool, alert_bytes: float, test_agent, preregister=True
    ) -> None:
        self.world = world
        self.server = MBeanServer()
        size_cls, heap_cls = (
            (ReferenceObjectSizeAgent, ReferenceHeapAgent)
            if reference
            else (ObjectSizeAgent, HeapAgent)
        )
        self.size_agent = size_cls(world.runtime)
        self.heap_agent = heap_cls(world.runtime)
        self.test_agent = ProbeAgent(world, *test_agent)
        self.agents = [self.size_agent, self.heap_agent, self.test_agent]
        for agent in (self.size_agent, self.heap_agent):
            self.server.register(agent.object_name(), agent)
        manager_cls = ReferenceManagerAgent if reference else ManagerAgent
        self.manager = manager_cls(self.server, clock=world.clock, alert_growth_bytes=alert_bytes)
        self.server.register(MANAGER_OBJECT_NAME, self.manager)
        self.alerts: List[tuple] = []
        self.manager.add_notification_listener(
            lambda notification, handback: self.alerts.append(
                (notification.attributes["component"], notification.attributes["growth_bytes"].hex())
            )
        )
        self.overhead = (ReferenceOverheadAccount if reference else OverheadAccount)(
            sample_cost_seconds=1.7e-3
        )
        ac_cls = ReferenceAspectComponent if reference else AspectComponent
        self.acs = {}
        for name in world.names:
            self.size_agent.register_component(name, world.roots[name])
            if preregister:
                self.manager.register_component(name)
            self.acs[name] = ac_cls(
                name, f"org.example.{name}", self.server, overhead=self.overhead, clock=world.clock
            )
        self.join_points: Dict[str, JoinPoint] = {}

    def before(self, component: str) -> None:
        join_point = JoinPoint("method-execution", None, SIGNATURE, component=component)
        join_point.timestamp = self.world.clock.now
        self.join_points[component] = join_point
        self.acs[component].before_component_execution(join_point)

    def after(self, component: str) -> None:
        self.acs[component].after_component_execution(self.join_points.pop(component))

    def set_test_agent(self, registered: bool) -> None:
        name = self.test_agent.object_name()
        if registered and not self.server.is_registered(name):
            self.server.register(name, self.test_agent)
        elif not registered and self.server.is_registered(name):
            self.server.unregister(name)

    def outcome(self):
        """Everything the path writes, floats as ``float.hex``."""

        def hexed(table):
            return [(key, float(value).hex()) for key, value in table.items()]

        resource_map = self.manager.map
        components = []
        for name in resource_map.components():
            stats = resource_map.stats(name)
            components.append(
                (
                    name,
                    stats.invocations,
                    hexed(stats.cumulative_deltas),
                    hexed(stats.first_values),
                    hexed(stats.last_values),
                    [
                        (metric, series.times.tobytes(), series.values.tobytes())
                        for metric, series in stats.series.items()
                    ],
                )
            )
        overhead = self.overhead
        return {
            "map": components,
            "samples": resource_map.sample_count,
            "window": float(resource_map.observation_window()).hex(),
            "known": list(self.manager._known_components),
            "alerts": self.alerts,
            "overhead": (
                overhead.pending_seconds.hex(),
                overhead.total_seconds.hex(),
                hexed(overhead.by_component()),
                overhead.sample_count,
            ),
            "agents": [(agent.agent_type, agent.SampleCount()) for agent in self.agents],
            "size_cache": self.size_agent._size_cache.stats,
            "acs": [
                (name, ac.invocation_count, ac.samples_sent, hexed(ac.last_deltas),
                 hexed(ac.last_values))
                for name, ac in self.acs.items()
            ],
        }


#: One step: an optional agent, snapshot or heap event, then an advice pair
#: ``(component, bytes the execution leaks, seconds the clock moves first)``.
STEPS = st.tuples(
    st.one_of(
        st.none(),
        st.none(),
        st.tuples(st.just("toggle"), st.sampled_from(["size", "heap", "test"])),
        st.tuples(st.just("register"), st.booleans()),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("free"), st.integers(0, len(COMPONENTS) - 1)),
    ),
    st.tuples(
        st.integers(0, len(COMPONENTS) - 1),
        st.sampled_from([0, 0, 64, 1000, 40_000]),
        st.sampled_from([0.0, 0.0, 0.25, 1.0, 7.5]),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    components=st.integers(2, len(COMPONENTS)),
    test_agent=st.tuples(
        st.sampled_from(["aaa-test", "zzz-test"]),
        st.sampled_from(["ints", "numpy", "shared", "alternating", "empty"]),
    ),
    registered=st.booleans(),
    preregister=st.booleans(),
    threshold=st.sampled_from([1, 3, 8, manager_agent.SAMPLE_FLUSH_THRESHOLD]),
    alert_bytes=st.sampled_from([2_000.0, 60_000.0, 10 * 1024 * 1024.0]),
    steps=st.lists(STEPS, min_size=4, max_size=60),
)
def test_one_pass_path_writes_what_the_two_step_path_writes(
    components, test_agent, registered, preregister, threshold, alert_bytes, steps
):
    world = World(components)
    stacks = [
        Stack(world, reference, alert_bytes, test_agent, preregister)
        for reference in (False, True)
    ]
    for stack in stacks:
        stack.set_test_agent(registered)
    with mock.patch.object(manager_agent, "SAMPLE_FLUSH_THRESHOLD", threshold):
        for event, (index, grow, advance) in steps:
            kind = event[0] if event else None
            if kind == "toggle":
                for stack in stacks:
                    agent = {"size": stack.size_agent, "heap": stack.heap_agent}.get(
                        event[1], stack.test_agent
                    )
                    if agent.Enabled():
                        agent.disable()
                    else:
                        agent.enable()
            elif kind == "register":
                for stack in stacks:
                    stack.set_test_agent(event[1])
            elif kind == "snapshot":
                for stack in stacks:
                    stack.manager.snapshot()
            elif kind == "free":
                world.free(world.names[event[1] % len(world.names)])
            component = world.names[index % len(world.names)]
            world.clock.advance_by(advance)
            for stack in stacks:
                stack.before(component)
            if grow:
                world.grow(component, grow)
            world.tick += 1
            for stack in stacks:
                stack.after(component)
        new, reference = (stack.outcome() for stack in stacks)
    assert new == reference


def _map_outcome(resource_map: ResourceComponentMap):
    def hexed(table):
        return [(key, float(value).hex()) for key, value in table.items()]

    return [
        (
            name,
            resource_map.stats(name).invocations,
            hexed(resource_map.stats(name).cumulative_deltas),
            hexed(resource_map.stats(name).first_values),
            hexed(resource_map.stats(name).last_values),
            [
                (metric, series.times.tobytes(), series.values.tobytes())
                for metric, series in resource_map.stats(name).series.items()
            ],
        )
        for name in resource_map.components()
    ] + [resource_map.sample_count, float(resource_map.observation_window()).hex()]


METRICS = ("object_size", "heap_used", "heap_free", "extra")
MEASUREMENTS = st.dictionaries(
    st.sampled_from(METRICS),
    st.floats(-1e9, 1e9, allow_nan=False) | st.integers(-(10**6), 10**6),
    max_size=len(METRICS),
)


@settings(max_examples=100, deadline=None)
@given(
    samples=st.lists(
        st.tuples(
            st.sampled_from(COMPONENTS),
            st.sampled_from([0.0, 0.0, 0.1, 2.5]),
            MEASUREMENTS,
            MEASUREMENTS,
        ),
        min_size=1,
        max_size=60,
    ),
    cuts=st.lists(st.integers(1, 59), max_size=6),
)
def test_the_fold_writes_what_the_two_pass_fold_writes(samples, cuts):
    """Batches of samples whose metrics come and go, split anywhere."""
    clock = 0.0
    batch = []
    for component, advance, deltas, values in samples:
        clock += advance
        batch.append(ComponentSample(component, clock, deltas, values))
    bounds = [0] + sorted(cut for cut in set(cuts) if cut < len(batch)) + [len(batch)]
    new, reference = ResourceComponentMap(), ReferenceResourceComponentMap()
    for start, end in zip(bounds, bounds[1:]):
        touched = new.add_samples(batch[start:end])
        reference.add_samples(batch[start:end])
        assert touched == list(dict.fromkeys(sample.component for sample in batch[start:end]))
    assert _map_outcome(new) == _map_outcome(reference)


# --------------------------------------------------------------------------- #
# Call budget
# --------------------------------------------------------------------------- #
def test_an_advice_pair_with_the_default_agents_makes_at_most_25_python_calls():
    world = World(1)
    stack = Stack(world, reference=False, alert_bytes=10 * 1024 * 1024.0, test_agent=("t", "empty"))
    component = world.names[0]
    stack.before(component)  # binds the agents and the manager
    stack.after(component)
    join_point = JoinPoint("method-execution", None, SIGNATURE, component=component)
    ac = stack.acs[component]
    calls = []

    def count(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        ac.before_component_execution(join_point)
        ac.after_component_execution(join_point)
    finally:
        sys.setprofile(None)
    assert ac.invocation_count == 2 and stack.overhead.sample_count == 8
    # The two-step path made 46: per-agent dict comprehensions, charge
    # through charge_sample, generator stamps and heap property hops.
    assert len(calls) <= 25, calls
