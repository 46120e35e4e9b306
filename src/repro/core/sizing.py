"""One-level "real object size" computation.

The paper's object-size JMX monitoring agent computes the *real size* of a
Java object as its own (shallow) size plus the size of the objects it
references **directly** — and explicitly not the transitive closure, because
in J2EE applications almost every object indirectly reaches almost every
other object, which would make the metric useless.

These functions implement exactly that rule over the simulated
:class:`~repro.jvm.objects.JavaObject` graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.jvm.heap import Heap
from repro.jvm.objects import JavaObject


def deep_object_size(obj: JavaObject, heap: Optional[Heap] = None) -> int:
    """Shallow size of ``obj`` plus the shallow sizes of its direct references.

    Parameters
    ----------
    obj:
        The object to measure.
    heap:
        When given, references to objects that are no longer live on the heap
        are skipped (they have been collected and occupy no memory).

    Notes
    -----
    Duplicate references to the same object are counted once, mirroring a
    retained-size computation over a set of children.
    """
    total = obj.shallow_size
    seen: Set[int] = set()
    for child in obj.iter_references():
        if child.object_id in seen:
            continue
        seen.add(child.object_id)
        if heap is not None and not heap.is_live(child):
            continue
        total += child.shallow_size
    return total


def retained_component_size(
    roots: Iterable[JavaObject], heap: Optional[Heap] = None
) -> int:
    """One-level size aggregated over a component's root objects.

    A component may expose several long-lived objects (instance state,
    caches); its reported size is the sum of their one-level sizes, with
    shared children counted once.
    """
    total = 0
    seen_children: Set[int] = set()
    seen_roots: Set[int] = set()
    for root in roots:
        if root.object_id in seen_roots:
            continue
        seen_roots.add(root.object_id)
        if heap is not None and not heap.is_live(root):
            continue
        total += root.shallow_size
        for child in root.iter_references():
            if child.object_id in seen_children or child.object_id in seen_roots:
                continue
            seen_children.add(child.object_id)
            if heap is not None and not heap.is_live(child):
                continue
            total += child.shallow_size
    return total


class ComponentSizeCache:
    """Dirty-flag memoisation of :func:`retained_component_size`.

    The monitoring stack measures every component's one-level size twice per
    intercepted request (the Aspect Component samples before *and* after the
    execution) plus once per periodic snapshot, but a component's size only
    changes when one of its roots gains/loses a reference (leak injections)
    or when a referenced object dies (garbage collection).  Both causes are
    observable in O(#roots) without walking the reference graph:

    * every :class:`~repro.jvm.objects.JavaObject` bumps a ``version``
      counter on reference mutations, and
    * the :class:`~repro.jvm.heap.Heap` bumps a ``liveness_epoch`` whenever
      any object stops being live.

    A cached size is therefore valid while the heap epoch and every root's
    ``(object_id, version)`` pair are unchanged.  Child-object sizes are
    immutable after allocation in this model, so they cannot invalidate a
    one-level measurement on their own.
    """

    def __init__(self, heap: Optional[Heap] = None) -> None:
        self._heap = heap
        #: component -> ([liveness epoch, root id, root version, ...], size)
        self._cache: Dict[str, Tuple[List[int], int]] = {}
        self._hits = 0
        self._misses = 0

    def component_size(self, component: str, roots: List[JavaObject]) -> int:
        """Cached one-level size of ``component``'s root set."""
        heap = self._heap
        stamp = [heap.liveness_epoch if heap is not None else 0]
        for root in roots:
            stamp += (root.object_id, root.version)
        entry = self._cache.get(component)
        if entry is not None and entry[0] == stamp:
            self._hits += 1
            return entry[1]
        size = retained_component_size(roots, heap=heap)
        self._cache[component] = (stamp, size)
        self._misses += 1
        return size

    def invalidate(self, component: Optional[str] = None) -> None:
        """Drop one component's cached size (or all of them)."""
        if component is None:
            self._cache.clear()
        else:
            self._cache.pop(component, None)

    @property
    def stats(self) -> Dict[str, int]:
        """Cache hit/miss counters; only tests read them."""
        return {"hits": self._hits, "misses": self._misses}
