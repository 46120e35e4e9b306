"""MBean base class and attribute/operation introspection.

A managed bean exposes *attributes* (readable, optionally writable values)
and *operations* (invokable methods).  Rather than the Java convention of a
separate ``*MBean`` interface, Python MBeans mark their management surface
with the :func:`attribute` and :func:`operation` decorators; the base class
collects them into an :class:`MBeanInfo` the server and connectors use.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


class MBeanAttributeError(AttributeError):
    """Raised when an MBean attribute is missing or not writable."""


class MBeanOperationError(RuntimeError):
    """Raised when an MBean operation is missing or fails to dispatch."""


def attribute(method: Optional[Callable] = None, *, writable: bool = False, name: Optional[str] = None):
    """Mark a zero-argument method as a readable management attribute.

    Usage::

        class HeapAgent(MBean):
            @attribute
            def UsedMemory(self) -> int: ...

            @attribute(writable=True)
            def SamplingInterval(self) -> float: ...

    A writable attribute ``X`` is set through a companion method ``set_X``
    (or by assigning the underlying python attribute when no setter exists).
    """

    def wrap(func: Callable) -> Callable:
        func.__mbean_attribute__ = {  # type: ignore[attr-defined]
            "writable": writable,
            "name": name or func.__name__,
        }
        return func

    if method is not None:
        return wrap(method)
    return wrap


def operation(method: Optional[Callable] = None, *, name: Optional[str] = None):
    """Mark a method as an invokable management operation."""

    def wrap(func: Callable) -> Callable:
        func.__mbean_operation__ = {  # type: ignore[attr-defined]
            "name": name or func.__name__,
        }
        return func

    if method is not None:
        return wrap(method)
    return wrap


@dataclass
class MBeanInfo:
    """Introspection data describing an MBean's management surface."""

    class_name: str
    description: str = ""
    attributes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    operations: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def attribute_names(self) -> List[str]:
        """Sorted attribute names."""
        return sorted(self.attributes)

    def operation_names(self) -> List[str]:
        """Sorted operation names."""
        return sorted(self.operations)


class MBean:
    """Base class for all managed beans in the reproduction.

    Subclasses expose management attributes/operations with the
    :func:`attribute` and :func:`operation` decorators.  The server accesses
    them exclusively through :meth:`get_attribute`, :meth:`set_attribute`,
    :meth:`invoke` and :meth:`operation`, which is what keeps the manager
    agent decoupled from the concrete agent classes (the paper's flexibility
    argument).
    """

    #: Human readable description, overridden by subclasses.
    description: str = ""

    # ------------------------------------------------------------------ #
    def mbean_info(self) -> MBeanInfo:
        """Introspect the management surface of this bean.

        The result is cached per class: the management surface is defined by
        decorators at class-definition time, so it cannot change at runtime,
        and introspection (``inspect.signature``) is far too slow to repeat
        on every attribute read of a hot path like the Aspect Component.
        """
        cached = type(self).__dict__.get("__mbean_info_cache__")
        if cached is not None:
            return cached
        info = self._build_mbean_info()
        type(self).__mbean_info_cache__ = info  # type: ignore[attr-defined]
        return info

    def _build_mbean_info(self) -> MBeanInfo:
        info = MBeanInfo(class_name=type(self).__name__, description=self.description)
        for _, member in inspect.getmembers(type(self), predicate=inspect.isfunction):
            meta = getattr(member, "__mbean_attribute__", None)
            if meta is not None:
                info.attributes[meta["name"]] = {
                    "writable": meta["writable"],
                    "method": member.__name__,
                }
            meta = getattr(member, "__mbean_operation__", None)
            if meta is not None:
                signature = inspect.signature(member)
                params = [p for p in signature.parameters if p != "self"]
                info.operations[meta["name"]] = {
                    "method": member.__name__,
                    "parameters": params,
                }
        return info

    # ------------------------------------------------------------------ #
    def get_attribute(self, name: str) -> Any:
        """Read a management attribute by name."""
        info = self.mbean_info()
        meta = info.attributes.get(name)
        if meta is None:
            raise MBeanAttributeError(
                f"{type(self).__name__} has no management attribute {name!r} "
                f"(available: {info.attribute_names()})"
            )
        return getattr(self, meta["method"])()

    def get_attributes(self, names: List[str]) -> Dict[str, Any]:
        """Read several attributes at once."""
        return {name: self.get_attribute(name) for name in names}

    def set_attribute(self, name: str, value: Any) -> None:
        """Write a writable management attribute."""
        info = self.mbean_info()
        meta = info.attributes.get(name)
        if meta is None:
            raise MBeanAttributeError(
                f"{type(self).__name__} has no management attribute {name!r}"
            )
        if not meta["writable"]:
            raise MBeanAttributeError(
                f"management attribute {name!r} of {type(self).__name__} is read-only"
            )
        setter = getattr(self, f"set_{meta['method']}", None)
        if setter is None or not callable(setter):
            raise MBeanAttributeError(
                f"writable attribute {name!r} of {type(self).__name__} has no setter "
                f"set_{meta['method']}"
            )
        setter(value)

    def operation(self, operation_name: str) -> Callable[..., Any]:
        """The bound method behind a management operation.

        A caller that invokes the same operation many times (the Aspect
        Component's agent samples) resolves it once and calls the result.
        """
        info = self.mbean_info()
        meta = info.operations.get(operation_name)
        if meta is None:
            raise MBeanOperationError(
                f"{type(self).__name__} has no management operation {operation_name!r} "
                f"(available: {info.operation_names()})"
            )
        return getattr(self, meta["method"])

    def invoke(self, operation_name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a management operation by name."""
        return self.operation(operation_name)(*args, **kwargs)
