"""Simulated JVM heap.

The heap tracks every live :class:`~repro.jvm.objects.JavaObject`, the total
number of bytes in use, and the set of *GC roots* (objects reachable from
static fields, active sessions, the container itself).  Memory-leak faults
manifest exactly as in a real JVM: a component keeps appending objects to a
collection reachable from a root, so the collector can never reclaim them
and used-heap grows until :class:`OutOfMemoryError`.

The experiment machine in the paper ran Tomcat with a 1 GB heap (Table I);
:data:`DEFAULT_HEAP_BYTES` matches that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.jvm.objects import JavaObject

#: 1 GiB, the -Xmx of the paper's Tomcat JVM (Table I).
DEFAULT_HEAP_BYTES = 1024 * 1024 * 1024


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation cannot be satisfied even after collection."""


class Heap:
    """A simulated heap with explicit roots and byte accounting.

    Parameters
    ----------
    capacity_bytes:
        Maximum heap size; allocations beyond it raise :class:`OutOfMemoryError`
        (after the owning runtime has had a chance to run the collector).
    """

    def __init__(self, capacity_bytes: int = DEFAULT_HEAP_BYTES) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"heap capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._objects: Dict[int, JavaObject] = {}
        self._roots: Set[int] = set()
        self._used_bytes = 0
        self._peak_used = 0
        self._liveness_epoch = 0

    # ------------------------------------------------------------------ #
    # Allocation / deallocation
    # ------------------------------------------------------------------ #
    def allocate(
        self,
        class_name: str,
        shallow_size: int,
        owner: Optional[str] = None,
        root: bool = False,
    ) -> JavaObject:
        """Allocate a new object.

        Raises
        ------
        OutOfMemoryError
            If the allocation would exceed heap capacity.  Callers that can
            trigger a collection (the :class:`~repro.jvm.runtime.JvmRuntime`)
            catch this, collect, and retry once.
        """
        if shallow_size < 0:
            raise ValueError(f"shallow_size must be non-negative, got {shallow_size}")
        if self._used_bytes + shallow_size > self.capacity_bytes:
            raise OutOfMemoryError(
                f"Java heap space: used={self._used_bytes}, requested={shallow_size}, "
                f"capacity={self.capacity_bytes}"
            )
        obj = JavaObject(class_name=class_name, shallow_size=shallow_size, owner=owner)
        self._objects[obj.object_id] = obj
        self._used_bytes += shallow_size
        if root:
            self._roots.add(obj.object_id)
        if self._used_bytes > self._peak_used:
            self._peak_used = self._used_bytes
        return obj

    def free(self, obj: JavaObject) -> None:
        """Explicitly free an object (used by the collector)."""
        stored = self._objects.pop(obj.object_id, None)
        if stored is None:
            raise KeyError(f"object {obj.object_id} is not live on this heap")
        self._used_bytes -= stored.shallow_size
        self._liveness_epoch += 1
        self._roots.discard(obj.object_id)

    def reclaim_owned(self, owner: str, keep_roots: bool = True) -> Tuple[int, int]:
        """Free every live object attributed to ``owner``; return ``(count, bytes)``.

        The surgical half of a component micro-reboot: only the guilty
        component's accumulated objects are reclaimed, without a full
        collection and without touching any other component's state.  GC
        roots (the component's long-lived instance object) survive by
        default — a micro-reboot recycles the component's *state*, not the
        component itself.
        """
        victims = [
            obj
            for obj in self._objects.values()
            if obj.owner == owner and not (keep_roots and obj.object_id in self._roots)
        ]
        freed_bytes = 0
        for obj in victims:
            freed_bytes += obj.shallow_size
            self.free(obj)
        return len(victims), freed_bytes

    # ------------------------------------------------------------------ #
    # Roots
    # ------------------------------------------------------------------ #
    def add_root(self, obj: JavaObject) -> None:
        """Pin an object as a GC root (static field / container reference)."""
        if obj.object_id not in self._objects:
            raise KeyError(f"object {obj.object_id} is not live on this heap")
        self._roots.add(obj.object_id)

    def remove_root(self, obj: JavaObject) -> None:
        """Unpin a root; the object becomes collectable if unreachable."""
        self._roots.discard(obj.object_id)

    def is_root(self, obj: JavaObject) -> bool:
        """Whether the object is currently a GC root."""
        return obj.object_id in self._roots

    def roots(self) -> List[JavaObject]:
        """All current root objects."""
        return [self._objects[i] for i in sorted(self._roots) if i in self._objects]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.capacity_bytes - self._used_bytes

    @property
    def peak_used_bytes(self) -> int:
        """High-water mark of heap usage."""
        return self._peak_used

    @property
    def live_object_count(self) -> int:
        """Number of live objects."""
        return len(self._objects)

    @property
    def liveness_epoch(self) -> int:
        """Counter bumped whenever an object stops being live.

        Size caches (see :mod:`repro.core.sizing`) use this as a cheap
        dirty flag: one-level component sizes can only change when a
        referenced object dies or a root's reference set mutates, never on
        unrelated allocations.
        """
        return self._liveness_epoch

    def live_objects(self) -> Iterable[JavaObject]:
        """Iterate over live objects (order: allocation id)."""
        for object_id in sorted(self._objects):
            yield self._objects[object_id]

    def is_live(self, obj: JavaObject) -> bool:
        """Whether the object is still allocated on this heap."""
        return obj.object_id in self._objects

    def reachable_from_roots(self) -> Set[int]:
        """Object ids reachable from the root set (full transitive closure).

        The *collector* uses the full closure (that is how a real GC decides
        liveness); only the per-component size metric uses the one-level rule.
        """
        visited: Set[int] = set()
        stack: List[JavaObject] = [
            self._objects[i] for i in self._roots if i in self._objects
        ]
        while stack:
            obj = stack.pop()
            if obj.object_id in visited:
                continue
            visited.add(obj.object_id)
            for ref in obj.iter_references():
                if ref.object_id not in visited and ref.object_id in self._objects:
                    stack.append(ref)
        return visited

    def live_reachable_bytes(self) -> int:
        """Shallow bytes of objects reachable from the root set.

        ``used_bytes`` includes collectable garbage accumulated since the
        last collection; this is the post-GC floor — the signal rejuvenation
        policies extrapolate, since exhaustion is driven by unreclaimable
        growth, not by the garbage sawtooth in between collections.
        """
        reachable = self.reachable_from_roots()
        objects = self._objects
        return sum(objects[object_id].shallow_size for object_id in reachable)

    def used_by_owner(self) -> Dict[str, int]:
        """Total shallow bytes of live objects grouped by owning component."""
        totals: Dict[str, int] = {}
        for obj in self._objects.values():
            key = obj.owner or "<unowned>"
            totals[key] = totals.get(key, 0) + obj.shallow_size
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Heap(used={self._used_bytes}, capacity={self.capacity_bytes}, "
            f"objects={len(self._objects)}, roots={len(self._roots)})"
        )
