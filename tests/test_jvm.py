"""Tests for the simulated JVM: objects, heap, GC, threads, runtime facade."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jvm.gc import GarbageCollector
from repro.jvm.heap import Heap, OutOfMemoryError
from repro.jvm.objects import JavaObject, sizeof_array, sizeof_string
from repro.jvm.runtime import JvmRuntime
from repro.jvm.threads import ThreadLimitError, ThreadRegistry, ThreadState


class TestJavaObject:
    def test_reference_management(self):
        a = JavaObject("A", 100)
        b = JavaObject("B", 200)
        a.add_reference(b)
        assert b in a.references
        a.remove_reference(b)
        assert a.reference_count == 0

    def test_self_reference_rejected(self):
        a = JavaObject("A")
        with pytest.raises(ValueError):
            a.add_reference(a)

    def test_named_fields(self):
        a = JavaObject("A")
        b = JavaObject("B")
        a.set_field("child", b)
        assert a.get_field("child") is b
        a.set_field("child", None)
        assert a.get_field("child") is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            JavaObject("A", -1)

    def test_sizeof_string_scales_with_length(self):
        assert sizeof_string("") == 32
        assert sizeof_string("a" * 32) > sizeof_string("ab")
        assert sizeof_string("abcd") % 8 == 0

    def test_sizeof_array(self):
        assert sizeof_array(8, 10) >= 16 + 80
        with pytest.raises(ValueError):
            sizeof_array(-1, 3)


class TestHeap:
    def test_allocation_accounting(self):
        heap = Heap(capacity_bytes=1000)
        obj = heap.allocate("A", 100)
        assert heap.used_bytes == 100
        assert heap.free_bytes == 900
        assert heap.is_live(obj)

    def test_out_of_memory(self):
        heap = Heap(capacity_bytes=100)
        heap.allocate("A", 60)
        with pytest.raises(OutOfMemoryError):
            heap.allocate("B", 60)

    def test_free_returns_bytes(self):
        heap = Heap(1000)
        obj = heap.allocate("A", 100)
        heap.free(obj)
        assert heap.used_bytes == 0
        assert not heap.is_live(obj)
        with pytest.raises(KeyError):
            heap.free(obj)

    def test_roots_and_reachability(self):
        heap = Heap(10_000)
        root = heap.allocate("Root", 10, root=True)
        child = heap.allocate("Child", 10)
        grandchild = heap.allocate("GrandChild", 10)
        orphan = heap.allocate("Orphan", 10)
        root.add_reference(child)
        child.add_reference(grandchild)
        reachable = heap.reachable_from_roots()
        assert {root.object_id, child.object_id, grandchild.object_id} <= reachable
        assert orphan.object_id not in reachable

    def test_used_by_owner_groups(self):
        heap = Heap(10_000)
        heap.allocate("A", 100, owner="home")
        heap.allocate("B", 50, owner="home")
        heap.allocate("C", 25)
        grouped = heap.used_by_owner()
        assert grouped["home"] == 150
        assert grouped["<unowned>"] == 25

    def test_peak_usage_tracked(self):
        heap = Heap(1000)
        a = heap.allocate("A", 400)
        heap.allocate("B", 100)
        heap.free(a)
        assert heap.peak_used_bytes == 500
        assert heap.used_bytes == 100


class TestGarbageCollector:
    def test_collects_unreachable_objects(self):
        heap = Heap(100_000)
        collector = GarbageCollector(heap)
        root = heap.allocate("Root", 100, root=True)
        kept = heap.allocate("Kept", 100)
        root.add_reference(kept)
        for _ in range(10):
            heap.allocate("Garbage", 50)
        pause = collector.collect()
        assert pause > 0
        assert heap.live_object_count == 2
        assert collector.stats.total_objects_reclaimed == 10
        assert collector.stats.total_bytes_reclaimed == 500

    def test_pause_grows_with_reclaimed_bytes(self):
        heap = Heap(200 * 1024 * 1024)
        collector = GarbageCollector(heap)
        heap.allocate("small", 1024)
        small_pause = collector.collect()
        heap.allocate("big", 100 * 1024 * 1024)
        big_pause = collector.collect()
        assert big_pause > small_pause


class TestThreads:
    def test_spawn_and_terminate(self):
        registry = ThreadRegistry()
        thread = registry.spawn("worker-1", owner="pool")
        assert thread.state is ThreadState.RUNNABLE
        assert registry.live_count() == 1
        registry.terminate(thread)
        assert registry.live_count() == 0
        assert registry.remove_terminated() == 1

    def test_count_by_owner(self):
        registry = ThreadRegistry()
        registry.spawn("a", owner="home")
        registry.spawn("b", owner="home")
        registry.spawn("c", owner="cart")
        assert registry.count_by_owner("home") == 2
        assert registry.peak_count == 3

    def test_thread_lifecycle_errors(self):
        registry = ThreadRegistry()
        thread = registry.spawn("x")
        with pytest.raises(RuntimeError):
            thread.start()
        thread.park()
        assert thread.state is ThreadState.WAITING
        thread.unpark()
        assert thread.state is ThreadState.RUNNABLE
        thread.terminate()
        with pytest.raises(RuntimeError):
            thread.park()

    def test_stack_bytes_total(self):
        registry = ThreadRegistry()
        registry.spawn("a", stack_bytes=1000)
        registry.spawn("b", stack_bytes=2000)
        assert registry.stack_bytes_total() == 3000


class TestJvmRuntime:
    def test_memory_facade(self):
        runtime = JvmRuntime(heap_bytes=10_000)
        runtime.allocate("A", 1000)
        assert runtime.total_memory() == 10_000
        assert runtime.used_memory() == 1000
        assert runtime.free_memory() == 9000

    def test_collects_at_the_occupancy_threshold(self):
        with pytest.raises(ValueError):
            JvmRuntime(heap_bytes=1000, gc_occupancy_threshold=0.0)
        with pytest.raises(ValueError):
            JvmRuntime(heap_bytes=1000, gc_occupancy_threshold=1.5)
        runtime = JvmRuntime(heap_bytes=1000, gc_occupancy_threshold=0.5)
        runtime.allocate("A", 400)
        runtime.allocate("B", 100)  # 400 B used before it: below the threshold
        assert runtime.collector.stats.collections == 0
        runtime.allocate("C", 10)  # 500 B used before it: at the threshold
        assert runtime.collector.stats.collections == 1

    def test_allocation_triggers_gc_under_pressure(self):
        runtime = JvmRuntime(heap_bytes=1000, gc_occupancy_threshold=0.5)
        # Unrooted garbage fills the heap; the next allocation collects it.
        for _ in range(6):
            runtime.allocate("Garbage", 100)
        assert runtime.used_memory() <= 1000
        assert runtime.collector.stats.collections >= 1
        assert runtime.consume_pending_gc_pause() > 0
        assert runtime.consume_pending_gc_pause() == 0.0

    def test_oom_when_roots_fill_heap(self):
        runtime = JvmRuntime(heap_bytes=500)
        runtime.allocate("Pinned", 400, root=True)
        with pytest.raises(OutOfMemoryError):
            runtime.allocate("TooBig", 300, root=True)

    def test_cpu_accounting(self):
        runtime = JvmRuntime()
        runtime.record_cpu_time("home", 0.5)
        runtime.record_cpu_time("home", 0.25)
        runtime.record_cpu_time("cart", 1.0)
        assert runtime.cpu_time("home") == pytest.approx(0.75)
        assert runtime.cpu_time() == pytest.approx(1.75)
        assert runtime.cpu_time_by_owner()["cart"] == 1.0
        with pytest.raises(ValueError):
            runtime.record_cpu_time("home", -1.0)


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=60))
def test_property_heap_byte_accounting(sizes):
    """used_bytes always equals the sum of live objects' shallow sizes."""
    heap = Heap(capacity_bytes=10_000_000)
    objects = [heap.allocate(f"C{index}", size) for index, size in enumerate(sizes)]
    assert heap.used_bytes == sum(sizes)
    # Free every other object.
    freed = 0
    for index, obj in enumerate(objects):
        if index % 2 == 0:
            heap.free(obj)
            freed += sizes[index]
    assert heap.used_bytes == sum(sizes) - freed


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_gc_never_collects_reachable(data):
    """Objects reachable from roots survive any collection."""
    heap = Heap(10_000_000)
    collector = GarbageCollector(heap)
    root = heap.allocate("Root", 16, root=True)
    chain = [root]
    depth = data.draw(st.integers(min_value=1, max_value=20))
    for index in range(depth):
        node = heap.allocate(f"Node{index}", 16)
        chain[-1].add_reference(node)
        chain.append(node)
    garbage_count = data.draw(st.integers(min_value=0, max_value=20))
    for index in range(garbage_count):
        heap.allocate(f"Garbage{index}", 16)
    collector.collect()
    for node in chain:
        assert heap.is_live(node)
    assert heap.live_object_count == len(chain)


_OWNERS = (None, "home", "cart")
_THREAD_STEPS = st.one_of(
    st.tuples(st.just("spawn"), st.sampled_from(_OWNERS)),
    st.tuples(st.just("registry_terminate"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("direct_terminate"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("terminate_twice"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("terminate_owned"), st.sampled_from(_OWNERS)),
    st.tuples(st.just("remove_terminated"), st.none()),
    st.tuples(st.just("park"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("unpark"), st.integers(min_value=0, max_value=50)),
)


@settings(max_examples=80, deadline=None)
@given(
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    steps=st.lists(_THREAD_STEPS, max_size=40),
)
def test_property_kept_thread_counts_equal_a_recount(capacity, steps):
    """Live, per-owner and peak counts and the capacity check match a recount."""
    registry = ThreadRegistry(capacity=capacity)
    spawned = []
    registered = set()
    peak = 0
    for action, arg in steps:
        live = registry.live_threads()
        if action == "spawn":
            if capacity is not None and len(live) >= capacity:
                with pytest.raises(ThreadLimitError):
                    registry.spawn(f"t{len(spawned)}", owner=arg)
            else:
                thread = registry.spawn(f"t{len(spawned)}", owner=arg)
                spawned.append(thread)
                registered.add(thread.thread_id)
        elif action == "terminate_owned":
            victims = {t.thread_id for t in live if t.owner == arg}
            assert registry.terminate_owned(arg)[0] == len(victims)
            registered -= victims
        elif action == "remove_terminated":
            dead = {t.thread_id for t in spawned if t.thread_id in registered and not t.is_alive}
            assert registry.remove_terminated() == len(dead)
            registered -= dead
        elif spawned:
            thread = spawned[arg % len(spawned)]
            if action in ("registry_terminate", "terminate_twice"):
                if thread.thread_id in registered:
                    registry.terminate(thread)
                else:
                    with pytest.raises(KeyError):
                        registry.terminate(thread)
            if action in ("direct_terminate", "terminate_twice"):
                thread.terminate()
            if action == "park" and thread.is_alive:
                thread.park(timed=arg % 2 == 1)
            if action == "unpark":
                thread.unpark()

        live = registry.live_threads()
        peak = max(peak, len(live))
        assert registry.live_count() == len(live)
        for owner in _OWNERS:
            assert registry.count_by_owner(owner) == sum(1 for t in live if t.owner == owner)
        assert registry.peak_count == peak
        assert registry.total_started == len(spawned)
