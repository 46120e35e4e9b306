"""The application server facade.

:class:`ApplicationServer` executes one request end-to-end in virtual time:

1. the dispatcher hands the request to the target servlet, which *really
   executes* (issuing SQL against the data tier and allocating simulated
   heap objects);
2. the server then derives the request's simulated resource demands —
   servlet CPU time, accumulated database cost, GC pauses triggered by the
   allocations, and any *external* cost charged by the monitoring framework
   (the Aspect Component registers an overhead provider here); and
3. books those demands on the capacity resources (worker thread pool, the
   application server's CPUs, the database server's CPUs) to obtain the
   request's completion time and response time under contention.

The split between a "4-way application server" and a "2-way database
server" follows Table I of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.container.dispatcher import RequestDispatcher
from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.container.session import SessionManager
from repro.container.threadpool import WorkerThreadPool
from repro.container.webapp import WebApplication
from repro.db.jdbc import DataSource
from repro.jvm.heap import DEFAULT_HEAP_BYTES
from repro.jvm.runtime import JvmRuntime
from repro.sim.metrics import TimeSeries
from repro.sim.random import RandomStreams
from repro.sim.resources import CapacityResource, ResourceBusyError


@dataclass
class ServerConfig:
    """Capacity and timing parameters of the simulated testbed.

    Defaults follow Table I of the paper: a 4-way Xeon application server
    with a 1 GB JVM heap and a 2-way Xeon database server.
    """

    app_cpu_cores: int = 4
    db_cpu_cores: int = 2
    max_threads: int = 150
    accept_queue: int = 400
    heap_bytes: int = DEFAULT_HEAP_BYTES
    #: Maximum live JVM threads (OS/ulimit analogue); thread-leak scenarios
    #: predict exhaustion against this bound.
    thread_capacity: Optional[int] = 2048
    #: JDBC connection-pool bound; ``None`` keeps the deployment default.
    pool_size: Optional[int] = None
    #: Coefficient of variation of per-request CPU service times.
    service_time_cv: float = 0.25
    #: Multiplier applied to database cost (lets ablations slow the DB down).
    db_speed_factor: float = 1.0
    #: Fallback CPU demand for servlets that do not declare one (seconds).
    default_cpu_demand: float = 0.10


@dataclass
class RequestOutcome:
    """Everything the harness wants to know about one completed request.

    The server builds it positionally, in field order.
    """

    request: HttpServletRequest
    response: HttpServletResponse
    arrival_time: float
    completion_time: float
    response_time: float
    servlet_name: str = ""
    cpu_seconds: float = 0.0
    db_seconds: float = 0.0
    gc_pause_seconds: float = 0.0
    monitoring_overhead_seconds: float = 0.0
    #: Extra latency charged by injected faults (convoys, stampedes, cascade
    #: coupling) — part of the service demand, attributed per component.
    fault_latency_seconds: float = 0.0
    rejected: bool = False
    #: The request was refused because the server (or its target component)
    #: was down for rejuvenation, not because capacity ran out.
    refused_by_outage: bool = False
    #: The request was refused by the dispatcher's load shedder (a low
    #: priority page class during a pool-occupancy spike).
    refused_by_shedding: bool = False
    #: Earliest time the outage that refused this request ends (callers that
    #: model patient clients can retry then); 0.0 when not refused.
    retry_after: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the request completed without an error status."""
        return not self.rejected and not self.response.is_error

    @property
    def refused(self) -> bool:
        """Refused load (outage or shedding) — never a completion or error."""
        return self.refused_by_outage or self.refused_by_shedding


class ApplicationServer:
    """The simulated Tomcat instance hosting one web application.

    Parameters
    ----------
    application:
        The deployed :class:`~repro.container.webapp.WebApplication`.
    datasource:
        The JDBC data source the servlets use (its accumulated query cost is
        read around each request to attribute database time).
    runtime:
        Simulated JVM; a fresh one (with ``config.heap_bytes``) is created
        when omitted.
    config:
        Capacity configuration.
    streams:
        Random streams for service-time noise; deterministic means are used
        when omitted.
    """

    def __init__(
        self,
        application: WebApplication,
        datasource: DataSource,
        runtime: Optional[JvmRuntime] = None,
        config: Optional[ServerConfig] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.application = application
        self.datasource = datasource
        self.runtime = runtime or JvmRuntime(
            heap_bytes=self.config.heap_bytes, thread_capacity=self.config.thread_capacity
        )
        self.streams = streams
        self.sessions = SessionManager(self.runtime)
        self.dispatcher = RequestDispatcher(self.sessions)
        self.thread_pool = WorkerThreadPool(
            self.runtime, max_threads=self.config.max_threads, max_queue=self.config.accept_queue
        )
        self.app_cpu = CapacityResource(self.config.app_cpu_cores, name="app-server-cpu")
        self.db_cpu = CapacityResource(self.config.db_cpu_cores, name="db-server-cpu")
        #: Callables returning *pending* extra seconds to fold into the next
        #: request's service time.  The monitoring framework's overhead
        #: account registers itself here; the container stays unaware of it.
        self.external_cost_providers: List[Callable[[], float]] = []
        self._completed = 0
        self._rejected = 0
        #: Active / future outage windows: ``(start, end, component-or-None)``.
        #: A ``None`` component means the whole server is down (full restart);
        #: otherwise only requests routed to that component are refused
        #: (micro-reboot).  Installed by the rejuvenation controller;
        #: :meth:`outage_for` prunes the expired ones.
        self.outages: List[tuple] = []
        self._refused_by_outage = 0
        self._refused_by_shedding = 0
        #: Record per-component response-time series (see
        #: :meth:`component_latency_series`).  Off by default: the hot path
        #: should not pay for series the classic scenarios never read; the
        #: latency-mode fault scenarios switch it on for trend-based
        #: attribution.
        self.record_component_latency = False
        self._component_latency: Dict[str, TimeSeries] = {}
        #: Occupancy contributed by the fluid bulk population in hybrid
        #: simulation mode (fraction of worker threads, additive on top of
        #: the discrete tracers').  Zero in pure discrete runs, so the
        #: balancer and shedders behave exactly as before.
        self.fluid_occupancy = 0.0

    # ------------------------------------------------------------------ #
    # Rejuvenation outages
    # ------------------------------------------------------------------ #
    def begin_outage(self, start: float, end: float, component: Optional[str] = None) -> None:
        """Refuse requests during ``[start, end)``.

        ``component=None`` takes the whole server down (full restart);
        naming a component refuses only requests routed to it (micro-reboot
        of one component while the rest keep serving).
        """
        if end <= start:
            raise ValueError(f"outage must have positive duration, got [{start}, {end})")
        self.outages.append((float(start), float(end), component))

    def outage_for(self, now: float, servlet_name: Optional[str] = None) -> Optional[tuple]:
        """The outage window covering ``now`` for ``servlet_name``, if any.

        Expired windows are pruned as a side effect so the list stays small.
        """
        if not self.outages:
            return None
        self.outages = [entry for entry in self.outages if entry[1] > now]
        for entry in self.outages:
            start, end, component = entry
            if start <= now < end and (component is None or component == servlet_name):
                return entry
        return None

    @property
    def refused_during_outage(self) -> int:
        """Requests refused because a rejuvenation outage was in effect."""
        return self._refused_by_outage

    @property
    def refused_by_shedding(self) -> int:
        """Requests refused by the dispatcher's load shedder."""
        return self._refused_by_shedding

    # ------------------------------------------------------------------ #
    # Load shedding
    # ------------------------------------------------------------------ #
    def install_load_shedder(self, shedder) -> None:
        """Install a :class:`~repro.container.resilience.LoadShedder` on the
        dispatcher (``None`` uninstalls)."""
        self.dispatcher.load_shedder = shedder

    def pool_occupancy(self, at_time: float) -> float:
        """Fraction of worker threads busy at ``at_time`` (0.0 — 1.0+queue).

        Includes the fluid bulk population's share in hybrid mode
        (:attr:`fluid_occupancy`, zero otherwise), so least-occupancy
        balancing and load shedding see the whole simulated load, not just
        the discrete tracers.
        """
        if self.config.max_threads <= 0:
            return 0.0
        occupancy = self.thread_pool.resource.busy_servers(at_time) / float(
            self.config.max_threads
        )
        if self.fluid_occupancy:
            occupancy += self.fluid_occupancy
        return occupancy

    # ------------------------------------------------------------------ #
    def add_external_cost_provider(self, provider: Callable[[], float]) -> None:
        """Register a provider of additional per-request service cost."""
        if not callable(provider):
            raise TypeError("external cost provider must be callable")
        self.external_cost_providers.append(provider)

    # ------------------------------------------------------------------ #
    def handle(self, request: HttpServletRequest, arrival_time: float) -> RequestOutcome:
        """Process one request arriving at ``arrival_time`` (virtual seconds)."""
        response = HttpServletResponse()
        registration = self.application.find_by_uri(request.uri)
        servlet_name = registration.name if registration is not None else ""

        # A server (or component) down for rejuvenation refuses up front:
        # the servlet never executes, so no SQL runs, no heap is allocated
        # and no injected fault fires while the component is being recycled.
        outage = self.outages and self.outage_for(arrival_time, servlet_name)
        if outage:
            response.status = HttpServletResponse.SC_SERVICE_UNAVAILABLE
            self._rejected += 1
            self._refused_by_outage += 1
            return RequestOutcome(
                request, response, arrival_time, arrival_time, 0.0, servlet_name,
                rejected=True, refused_by_outage=True, retry_after=outage[1],
            )

        # Graceful degradation: under pool pressure the dispatcher's load
        # shedder refuses low-priority page classes up front — before the
        # servlet executes — answering 503 with a Retry-After, accounted as
        # refused load (like outage refusals), never as a completion/error.
        shedder = self.dispatcher.load_shedder
        if shedder is not None and shedder.should_shed(
            servlet_name, self.pool_occupancy(arrival_time)
        ):
            shedder.record_shed(servlet_name)
            response.status = HttpServletResponse.SC_SERVICE_UNAVAILABLE
            self._rejected += 1
            self._refused_by_shedding += 1
            return RequestOutcome(
                request, response, arrival_time, arrival_time, 0.0, servlet_name,
                rejected=True, refused_by_shedding=True,
                retry_after=arrival_time + shedder.retry_after_seconds,
            )

        # Execute the servlet code (real Python execution, simulated resources).
        datasource = self.datasource
        config = self.config
        db_cost_before = datasource.total_cost_seconds
        self.dispatcher.dispatch(registration, request, response, arrival_time)
        db_seconds = (datasource.total_cost_seconds - db_cost_before) * config.db_speed_factor

        runtime = self.runtime
        if registration is not None:
            servlet = registration.servlet
            # Servlet CPU time: lognormal noise around the servlet's mean.
            cpu_seconds = float(
                getattr(servlet, "base_cpu_demand_seconds", config.default_cpu_demand)
            )
            cv = config.service_time_cv
            if self.streams is not None and cv > 0:
                cpu_seconds = self.streams.lognormal_service_time(
                    "container.service-time", cpu_seconds, cv
                )
        else:
            servlet = None
            cpu_seconds = 0.002
        # Pending monitoring overhead (the framework's account registers here).
        monitoring_overhead = 0.0
        for provider in self.external_cost_providers:
            value = float(provider())
            if value < 0:
                raise ValueError("external cost providers must return non-negative values")
            monitoring_overhead += value
        gc_pause = runtime.consume_pending_gc_pause()
        drain_fault_latency = getattr(servlet, "drain_fault_latency", None)
        fault_latency = drain_fault_latency() if drain_fault_latency is not None else 0.0

        if servlet is not None:
            runtime.record_cpu_time(servlet_name, cpu_seconds)
        if monitoring_overhead > 0:
            runtime.record_cpu_time("monitoring-framework", monitoring_overhead)

        app_demand = cpu_seconds + monitoring_overhead + gc_pause + fault_latency

        # Book the worker thread for the whole processing span, then the CPUs.
        try:
            thread_start, _ = self.thread_pool.book(arrival_time, app_demand + db_seconds)
        except ResourceBusyError:
            response.status = HttpServletResponse.SC_SERVICE_UNAVAILABLE
            self._rejected += 1
            return RequestOutcome(
                request, response, arrival_time, arrival_time, 0.0, servlet_name, rejected=True
            )

        _, cpu_finish = self.app_cpu.acquire(thread_start, app_demand)
        _, db_finish = self.db_cpu.acquire(cpu_finish, db_seconds)
        completion = db_finish
        response_time = completion - arrival_time

        self._completed += 1
        if self.record_component_latency and servlet_name:
            # Indexed by arrival time: arrivals are monotone in event order,
            # while completions may finish out of order across requests.
            series = self._component_latency.get(servlet_name)
            if series is None:
                series = self._component_latency[servlet_name] = TimeSeries(
                    f"latency.{servlet_name}"
                )
            series.record(arrival_time, response_time)

        return RequestOutcome(
            request,
            response,
            arrival_time,
            completion,
            response_time,
            servlet_name,
            cpu_seconds,
            db_seconds,
            gc_pause,
            monitoring_overhead,
            fault_latency,
        )

    # ------------------------------------------------------------------ #
    @property
    def completed_requests(self) -> int:
        """Requests that completed (successfully or with an error page)."""
        return self._completed

    @property
    def rejected_requests(self) -> int:
        """Requests rejected because the accept queue overflowed."""
        return self._rejected

    def component_latency_series(self) -> Dict[str, TimeSeries]:
        """Per-component response-time series (requires
        :attr:`record_component_latency`), keyed and sorted by component name."""
        return {name: self._component_latency[name] for name in sorted(self._component_latency)}

    def utilization_report(self, elapsed_seconds: float) -> dict:
        """Utilisation of the main capacity resources over the elapsed time."""
        return {
            "app_cpu": self.app_cpu.utilization(elapsed_seconds),
            "db_cpu": self.db_cpu.utilization(elapsed_seconds),
            "worker_threads": self.thread_pool.utilization(elapsed_seconds),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApplicationServer(app={self.application.name!r}, "
            f"completed={self._completed}, rejected={self._rejected})"
        )
