"""The MBeanServer: the agent level of the JMX architecture.

Registers MBeans under :class:`~repro.jmx.object_name.ObjectName`s, resolves
pattern queries, and routes attribute reads / writes, operation invocations
and notification subscriptions.  The server itself broadcasts
``jmx.mbean.registered`` / ``jmx.mbean.unregistered`` notifications so the
JMX Manager Agent can discover newly woven Aspect Components at runtime —
the mechanism the paper leans on for runtime (de)activation.

Every registration and unregistration bumps the server's registry
:attr:`~MBeanServer.epoch`.  Queries are not cached: a caller on a hot path
(the Aspect Component, twice per intercepted request) resolves its query to
bound operations once and re-resolves only when the epoch has moved, so an
agent or manager added, replaced or removed at runtime is still seen on its
next call.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.jmx.mbean import MBean
from repro.jmx.notifications import (
    Notification,
    NotificationBroadcaster,
    NotificationFilter,
    NotificationListener,
)
from repro.jmx.object_name import ObjectName, to_object_name


class InstanceAlreadyExistsError(RuntimeError):
    """Raised when registering a name that is already taken."""


class InstanceNotFoundError(KeyError):
    """Raised when an object name is not registered."""


REGISTRATION_NOTIFICATION = "jmx.mbean.registered"
UNREGISTRATION_NOTIFICATION = "jmx.mbean.unregistered"


class MBeanServer(NotificationBroadcaster):
    """In-process MBean registry and invocation router."""

    def __init__(self, name: str = "default") -> None:
        super().__init__()
        self.name = name
        self._registry: Dict[ObjectName, MBean] = {}
        #: Registry epoch: bumped by every registration and unregistration,
        #: so a caller holding resolved names or operations knows when to
        #: resolve them again.
        self.epoch = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: "ObjectName | str", mbean: MBean) -> ObjectName:
        """Register ``mbean`` under ``name``.

        Raises
        ------
        InstanceAlreadyExistsError
            If the name is already registered.
        ValueError
            If the name is a pattern (patterns cannot be registered).
        """
        object_name = to_object_name(name)
        if object_name.is_pattern:
            raise ValueError(f"cannot register a pattern object name: {object_name}")
        if not isinstance(mbean, MBean):
            raise TypeError(f"only MBean instances can be registered, got {type(mbean).__name__}")
        if object_name in self._registry:
            raise InstanceAlreadyExistsError(f"object name already registered: {object_name}")
        self._registry[object_name] = mbean
        self.epoch += 1
        self.send_notification(
            REGISTRATION_NOTIFICATION,
            source=str(object_name),
            message=f"registered {type(mbean).__name__}",
        )
        return object_name

    def unregister(self, name: "ObjectName | str") -> MBean:
        """Remove and return the MBean registered under ``name``."""
        object_name = to_object_name(name)
        mbean = self._registry.pop(object_name, None)
        if mbean is None:
            raise InstanceNotFoundError(str(object_name))
        self.epoch += 1
        self.send_notification(
            UNREGISTRATION_NOTIFICATION,
            source=str(object_name),
            message=f"unregistered {type(mbean).__name__}",
        )
        return mbean

    def is_registered(self, name: "ObjectName | str") -> bool:
        """Whether an MBean is registered under the exact name."""
        return to_object_name(name) in self._registry

    def get_mbean(self, name: "ObjectName | str") -> MBean:
        """The MBean registered under the exact name."""
        object_name = to_object_name(name)
        mbean = self._registry.get(object_name)
        if mbean is None:
            raise InstanceNotFoundError(str(object_name))
        return mbean

    @property
    def mbean_count(self) -> int:
        """Number of registered MBeans."""
        return len(self._registry)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query_names(self, pattern: "ObjectName | str | None" = None) -> List[ObjectName]:
        """Object names matching ``pattern`` (all names when ``None``).

        Sorted by canonical form; each call returns a fresh list.
        """
        if pattern is None:
            return sorted(self._registry, key=lambda n: n.canonical)
        pattern_name = to_object_name(pattern)
        names = [name for name in self._registry if pattern_name.matches(name)]
        return sorted(names, key=lambda n: n.canonical)

    def query_mbeans(self, pattern: "ObjectName | str | None" = None) -> Dict[ObjectName, MBean]:
        """Mapping of matching names to their MBeans."""
        return {name: self._registry[name] for name in self.query_names(pattern)}

    # ------------------------------------------------------------------ #
    # Attribute / operation routing
    # ------------------------------------------------------------------ #
    def get_attribute(self, name: "ObjectName | str", attribute_name: str) -> Any:
        """Read an attribute of the MBean registered under ``name``."""
        return self.get_mbean(name).get_attribute(attribute_name)

    def set_attribute(self, name: "ObjectName | str", attribute_name: str, value: Any) -> None:
        """Write an attribute of the MBean registered under ``name``."""
        self.get_mbean(name).set_attribute(attribute_name, value)

    def invoke(self, name: "ObjectName | str", operation_name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke an operation on the MBean registered under ``name``."""
        return self.get_mbean(name).operation(operation_name)(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Notification routing
    # ------------------------------------------------------------------ #
    def add_mbean_listener(
        self,
        name: "ObjectName | str",
        listener: NotificationListener,
        notification_filter: Optional[NotificationFilter] = None,
        handback: Any = None,
    ) -> None:
        """Subscribe to notifications emitted by a broadcaster MBean."""
        mbean = self.get_mbean(name)
        if not isinstance(mbean, NotificationBroadcaster):
            raise TypeError(
                f"MBean {name} ({type(mbean).__name__}) does not broadcast notifications"
            )
        mbean.add_notification_listener(listener, notification_filter, handback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MBeanServer(name={self.name!r}, mbeans={len(self._registry)})"
