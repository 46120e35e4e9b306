"""Base class shared by the TPC-W servlet components.

Responsibilities:

* wire the servlet to the simulated JVM, the JDBC data source and the random
  streams published in the :class:`~repro.container.servlet.ServletContext`;
* maintain the servlet's *instance state object* on the simulated heap (the
  object whose one-level deep size the paper's object-size monitoring agent
  tracks for this component);
* provide transient page-buffer allocation so every request creates heap
  garbage (keeping the GC model honest);
* host injected faults: the paper modified TPC-W servlets so that, every
  visit, a random draw in ``[0, N]`` decides whether a leak of ``L`` bytes is
  injected — :mod:`repro.faults` attaches such faults to servlet instances
  and the base class runs them at the end of ``service``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.container.servlet import (
    HttpServlet,
    HttpServletRequest,
    HttpServletResponse,
    ServletConfig,
    ServletException,
)
from repro.db.jdbc import Connection, DataSource
from repro.jvm.objects import JavaObject
from repro.jvm.runtime import JvmRuntime
from repro.sim.random import DrawEngine, RandomStreams

#: Context attribute names under which the deployment publishes shared services.
RUNTIME_ATTRIBUTE = "jvm.runtime"
DATASOURCE_ATTRIBUTE = "jdbc.datasource"
STREAMS_ATTRIBUTE = "random.streams"


class TpcwServlet(HttpServlet):
    """Common machinery for all TPC-W interaction servlets."""

    #: Overridden by subclasses: Java-style FQCN used by pointcut matching.
    java_class_name = "org.tpcw.servlet.TPCW_servlet"
    #: Overridden by subclasses: logical component / interaction name.
    component_name = "tpcw_servlet"
    #: Mean CPU seconds one execution of this interaction costs.
    base_cpu_demand_seconds = 0.10
    #: Simulated bytes of transient page data allocated per request.
    transient_bytes_per_request = 48 * 1024
    #: Shallow size of the servlet's long-lived instance state object.
    instance_state_bytes = 2 * 1024

    def __init__(self) -> None:
        super().__init__()
        self._runtime: Optional[JvmRuntime] = None
        self._datasource: Optional[DataSource] = None
        self._streams: Optional[RandomStreams] = None
        self._instance_root: Optional[JavaObject] = None
        self._injected_faults: List[Any] = []
        self._request_count = 0
        self._error_count = 0
        self._pending_fault_latency = 0.0
        self._cached_item_count: Optional[int] = None
        #: ``random_stream`` draw engines by suffix.
        self._random_streams: Dict[str, DrawEngine] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def init(self, config: ServletConfig) -> None:
        super().init(config)
        context = config.context
        self._runtime = context.get_attribute(RUNTIME_ATTRIBUTE)
        self._datasource = context.get_attribute(DATASOURCE_ATTRIBUTE)
        self._streams = context.get_attribute(STREAMS_ATTRIBUTE)
        self._random_streams = {}
        if self._runtime is None or self._datasource is None:
            raise ServletException(
                f"{type(self).__name__} requires {RUNTIME_ATTRIBUTE!r} and "
                f"{DATASOURCE_ATTRIBUTE!r} context attributes"
            )
        # Long-lived per-component state (caches, counters, static fields).
        self._instance_root = self._runtime.allocate(
            self.java_class_name,
            shallow_size=self.instance_state_bytes,
            owner=self.component_name,
            root=True,
        )

    def destroy(self) -> None:
        if (
            self._instance_root is not None
            and self._runtime is not None
            and self._runtime.heap.is_live(self._instance_root)
        ):
            self._runtime.heap.remove_root(self._instance_root)
            self._instance_root.clear_references()
        super().destroy()

    # ------------------------------------------------------------------ #
    # Shared services
    # ------------------------------------------------------------------ #
    @property
    def runtime(self) -> JvmRuntime:
        """The simulated JVM runtime."""
        if self._runtime is None:
            raise ServletException(f"{type(self).__name__} is not initialised")
        return self._runtime

    @property
    def datasource(self) -> DataSource:
        """The JDBC data source."""
        if self._datasource is None:
            raise ServletException(f"{type(self).__name__} is not initialised")
        return self._datasource

    @property
    def instance_root(self) -> JavaObject:
        """The servlet's long-lived heap object (monitored by the sizing agent)."""
        if self._instance_root is None:
            raise ServletException(f"{type(self).__name__} is not initialised")
        return self._instance_root

    @property
    def request_count(self) -> int:
        """Requests served so far by this component."""
        return self._request_count

    @property
    def error_count(self) -> int:
        """Requests that raised an exception inside this component."""
        return self._error_count

    def get_connection(self) -> Connection:
        """Borrow a pooled JDBC connection, tagged with this component.

        The tag lets the pool attribute held connections per component —
        the signal the rejuvenation controller's connection channel uses to
        blame (and surgically recycle) a connection-leaking component.
        """
        return self.datasource.get_connection(owner=self.component_name)

    def _item_count(self) -> int:
        """Items in the store, counted once per servlet instance.

        Cached on first use to avoid a COUNT(*) per request, mirroring the
        static initialisation of the Java servlet.
        """
        if self._cached_item_count is not None:
            return self._cached_item_count
        connection = self.get_connection()
        try:
            result = connection.execute_query("SELECT COUNT(*) AS n FROM item")
            result.next()
            count = max(1, result.get_int("n"))
        finally:
            connection.close()
        self._cached_item_count = count
        return count

    def random_stream(self, suffix: str) -> DrawEngine:
        """A component-scoped draw engine (deterministic per seed)."""
        engine = self._random_streams.get(suffix)
        if engine is None:
            if self._streams is None:
                raise ServletException(f"{type(self).__name__} has no random streams configured")
            engine = self._random_streams[suffix] = self._streams.engine(
                f"servlet.{self.component_name}.{suffix}"
            )
        return engine

    # ------------------------------------------------------------------ #
    # Memory helpers
    # ------------------------------------------------------------------ #
    def retain_in_component_state(self, obj: JavaObject) -> None:
        """Make the servlet's instance state reference ``obj`` (it leaks until removed)."""
        self.instance_root.add_reference(obj)

    # ------------------------------------------------------------------ #
    # Fault hosting
    # ------------------------------------------------------------------ #
    def attach_fault(self, fault: Any) -> None:
        """Attach an injected fault (see :mod:`repro.faults`)."""
        self._injected_faults.append(fault)

    def detach_fault(self, fault: Any) -> None:
        """Remove a previously attached fault."""
        self._injected_faults.remove(fault)

    @property
    def injected_faults(self) -> List[Any]:
        """Currently attached faults."""
        return list(self._injected_faults)

    def charge_fault_latency(self, seconds: float) -> None:
        """Charge extra wall-clock seconds to the *current* request.

        Latency-mode faults (lock convoys, cache stampedes, cascade
        coupling) stall a request without consuming a monitored resource;
        the container drains this per-component account after dispatch and
        folds it into the request's service demand, which both delays the
        response and holds the worker thread — so contention compounds under
        load, and per-component response-time series expose the culprit.
        """
        if seconds < 0:
            raise ValueError(f"fault latency must be non-negative, got {seconds}")
        self._pending_fault_latency += float(seconds)

    def drain_fault_latency(self) -> float:
        """Return and clear latency charged by faults during this request."""
        pending = self._pending_fault_latency
        self._pending_fault_latency = 0.0
        return pending

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def service(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        """Count the visit, run the interaction and its faults, buffer the page.

        Dispatches on the method itself (as :meth:`HttpServlet.service`
        does), so a request makes one call here whatever wraps it.  Every
        exception that escapes — from the interaction, a fault or the page
        buffer's allocation — counts once in :attr:`error_count`.
        """
        self._request_count += 1
        try:
            try:
                if not self._initialized:
                    raise ServletException(
                        f"servlet {type(self).__name__} received a request before init()"
                    )
                if request.method == "GET":
                    self.do_get(request, response)
                else:
                    self.do_post(request, response)
            finally:
                # The paper's modified TPC-W injects its aging error on every
                # servlet visit, independent of whether the page rendered fine.
                if self._injected_faults:
                    for fault in list(self._injected_faults):
                        fault.on_request(self, request)
            # Simulated page buffer for the rendered markup (request-scoped,
            # immediately collectable garbage).
            self._runtime.allocate("java.lang.StringBuilder", self.transient_bytes_per_request)
        except Exception:
            self._error_count += 1
            raise
