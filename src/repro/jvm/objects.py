"""Java object model for the simulated heap.

A :class:`JavaObject` mirrors what the paper's "object size" JMX monitoring
agent needs to see: a class name, a shallow size in bytes, and the set of
objects it references *directly*.  The paper explicitly computes the "real
size" of an object as shallow size plus the sizes of directly referenced
objects only (one level, no recursion) to avoid the everything-reaches-
everything problem of J2EE object graphs; :mod:`repro.core.sizing` implements
that calculation over these objects.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional

#: Default shallow size of a bare object header (HotSpot-like, bytes).
OBJECT_HEADER_BYTES = 16


class JavaObject:
    """A simulated Java object.

    Parameters
    ----------
    class_name:
        Fully qualified class name, e.g. ``"org.tpcw.servlet.TPCW_home"``.
    shallow_size:
        The object's own footprint in bytes (header + fields + array payload).
    owner:
        Logical owning component (servlet name) used for attribution when the
        object is a component field; ``None`` for transient request data.
    """

    _ids = itertools.count(1)

    __slots__ = (
        "object_id",
        "class_name",
        "shallow_size",
        "owner",
        "_references",
        "_fields",
        "version",
    )

    def __init__(
        self,
        class_name: str,
        shallow_size: int = OBJECT_HEADER_BYTES,
        owner: Optional[str] = None,
    ) -> None:
        if shallow_size < 0:
            raise ValueError(f"shallow_size must be non-negative, got {shallow_size}")
        self.object_id = next(JavaObject._ids)
        self.class_name = class_name
        self.shallow_size = int(shallow_size)
        self.owner = owner
        self._references: List["JavaObject"] = []
        self._fields: Dict[str, "JavaObject"] = {}
        #: Bumped on every outgoing-reference mutation; lets size caches
        #: detect that an object's one-level reference set changed without
        #: re-walking it (see :mod:`repro.core.sizing`).
        self.version = 0

    # ------------------------------------------------------------------ #
    # Reference management
    # ------------------------------------------------------------------ #
    def add_reference(self, other: "JavaObject") -> None:
        """Add a direct (unnamed) reference to ``other``."""
        if other is self:
            raise ValueError("an object cannot reference itself in this model")
        self._references.append(other)
        self.version += 1

    def remove_reference(self, other: "JavaObject") -> None:
        """Remove one direct reference to ``other`` (raises if absent)."""
        self._references.remove(other)
        self.version += 1

    def set_field(self, name: str, value: Optional["JavaObject"]) -> None:
        """Set a named reference field (``None`` clears it)."""
        if value is None:
            self._fields.pop(name, None)
        else:
            self._fields[name] = value
        self.version += 1

    def get_field(self, name: str) -> Optional["JavaObject"]:
        """Return the named reference field or ``None``."""
        return self._fields.get(name)

    def clear_references(self) -> None:
        """Drop every outgoing reference (named and unnamed)."""
        self._references.clear()
        self._fields.clear()
        self.version += 1

    @property
    def references(self) -> List["JavaObject"]:
        """All directly referenced objects (unnamed refs then named fields)."""
        return list(self._references) + list(self._fields.values())

    def iter_references(self) -> Iterator["JavaObject"]:
        """Iterate over directly referenced objects without copying."""
        yield from self._references
        yield from self._fields.values()

    @property
    def reference_count(self) -> int:
        """Number of outgoing references."""
        return len(self._references) + len(self._fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JavaObject(id={self.object_id}, class={self.class_name!r}, "
            f"shallow={self.shallow_size}, refs={self.reference_count})"
        )


def sizeof_string(text: str) -> int:
    """Approximate JVM footprint of a ``java.lang.String``.

    Header (16) + char array header (16) + 2 bytes per UTF-16 code unit,
    rounded up to the 8-byte allocation granularity.
    """
    raw = 32 + 2 * len(text)
    return (raw + 7) // 8 * 8


def sizeof_array(element_size: int, length: int) -> int:
    """Approximate JVM footprint of a primitive array."""
    if element_size < 0 or length < 0:
        raise ValueError("element_size and length must be non-negative")
    raw = OBJECT_HEADER_BYTES + element_size * length
    return (raw + 7) // 8 * 8
