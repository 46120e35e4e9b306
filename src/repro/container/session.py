"""HTTP session management.

Sessions are backed by simulated heap objects so that session state is
visible to the memory monitoring agents (session bloat is a classic software
aging vector, and the session manager is itself an application component the
framework can monitor).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.jvm.objects import sizeof_string
from repro.jvm.runtime import JvmRuntime


class HttpSession:
    """One client session."""

    def __init__(self, session_id: str, created_at: float, manager: "SessionManager") -> None:
        self.session_id = session_id
        self.created_at = created_at
        self.last_accessed = created_at
        self._attributes: Dict[str, Any] = {}
        self._manager = manager
        self._invalidated = False

    def touch(self, timestamp: float) -> None:
        """Record an access (keeps the session alive)."""
        if timestamp >= self.last_accessed:
            self.last_accessed = timestamp

    def get_attribute(self, name: str) -> Any:
        """A session attribute or ``None``."""
        self._check_valid()
        return self._attributes.get(name)

    def set_attribute(self, name: str, value: Any) -> None:
        """Set a session attribute (accounted on the simulated heap)."""
        self._check_valid()
        self._attributes[name] = value
        self._manager._account_attribute(self, name, value)

    def remove_attribute(self, name: str) -> None:
        """Remove a session attribute."""
        self._check_valid()
        self._attributes.pop(name, None)

    def attribute_names(self) -> List[str]:
        """Sorted attribute names."""
        self._check_valid()
        return sorted(self._attributes)

    def invalidate(self) -> None:
        """End the session and free its simulated storage."""
        if self._invalidated:
            return
        self._invalidated = True
        self._manager._invalidate(self)

    @property
    def is_valid(self) -> bool:
        """Whether the session is still usable."""
        return not self._invalidated

    def _check_valid(self) -> None:
        if self._invalidated:
            raise RuntimeError(f"session {self.session_id} has been invalidated")


class SessionManager:
    """Creates, stores and expires sessions.

    Parameters
    ----------
    runtime:
        The simulated JVM; session state is allocated on its heap under the
        ``"http-sessions"`` owner so monitoring agents can see it.
    session_timeout:
        Idle seconds after which :meth:`expire_idle_sessions` discards a
        session (Tomcat's default is 30 minutes).
    id_prefix:
        Prefix of minted session ids.  A clustered deployment gives every
        server instance a distinct prefix so a session id can never collide
        with one minted by another shard (ids travel with the client and may
        be presented to a different shard after a load-balancer failover).
    """

    COMPONENT_NAME = "http-sessions"

    def __init__(
        self,
        runtime: JvmRuntime,
        session_timeout: float = 1800.0,
        id_prefix: str = "S",
    ) -> None:
        if session_timeout <= 0:
            raise ValueError(f"session_timeout must be positive, got {session_timeout}")
        self._runtime = runtime
        self.session_timeout = float(session_timeout)
        self.id_prefix = id_prefix
        self._sessions: Dict[str, HttpSession] = {}
        self._session_objects: Dict[str, Any] = {}
        self._counter = 0
        self.created_count = 0

    # ------------------------------------------------------------------ #
    def new_session(self, timestamp: float) -> HttpSession:
        """Create a fresh session."""
        self._counter += 1
        session_id = f"{self.id_prefix}{self._counter:08d}"
        session = HttpSession(session_id, timestamp, self)
        self._sessions[session_id] = session
        self.created_count += 1
        # Backing heap object: a small map plus the id string.
        backing = self._runtime.allocate(
            "org.apache.catalina.session.StandardSession",
            shallow_size=128 + sizeof_string(session_id),
            owner=self.COMPONENT_NAME,
            root=True,
        )
        self._session_objects[session_id] = backing
        return session

    def get_session(self, session_id: Optional[str], create: bool, timestamp: float) -> Optional[HttpSession]:
        """Look up (or create) a session, mirroring ``request.getSession``."""
        if session_id is not None:
            session = self._sessions.get(session_id)
            if session is not None and session.is_valid:
                session.touch(timestamp)
                return session
        if not create:
            return None
        return self.new_session(timestamp)

    def _account_attribute(self, session: HttpSession, name: str, value: Any) -> None:
        backing = self._session_objects.get(session.session_id)
        if backing is None:
            return
        # Approximate attribute footprint; strings dominate TPC-W session state.
        size = sizeof_string(str(value)) + sizeof_string(name)
        attribute_object = self._runtime.allocate(
            "java.util.HashMap$Entry",
            shallow_size=size,
            owner=self.COMPONENT_NAME,
        )
        backing.set_field(name, attribute_object)

    def _invalidate(self, session: HttpSession) -> None:
        self._sessions.pop(session.session_id, None)
        backing = self._session_objects.pop(session.session_id, None)
        if backing is not None and self._runtime.heap.is_live(backing):
            self._runtime.heap.remove_root(backing)
            backing.clear_references()

    def invalidate_all(self) -> int:
        """Invalidate every live session (server restart); returns how many.

        Clients keep their stale session ids; the next request simply gets a
        fresh session, exactly like hitting a rebooted Tomcat.
        """
        sessions = list(self._sessions.values())
        for session in sessions:
            session.invalidate()
        return len(sessions)

    def expire_idle_sessions(self, now: float) -> int:
        """Expire sessions idle longer than the timeout; returns how many."""
        expired = [
            session
            for session in self._sessions.values()
            if now - session.last_accessed > self.session_timeout
        ]
        for session in expired:
            session.invalidate()
        return len(expired)

    @property
    def active_count(self) -> int:
        """Number of live sessions."""
        return len(self._sessions)
