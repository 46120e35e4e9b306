"""TPC-W application assembly.

:func:`build_deployment` wires every substrate together — database, schema,
population, JVM runtime, web application with the 14 servlets, application
server — and returns a :class:`TpcwDeployment` handle the workload
generator, the monitoring framework and the experiment harness all work
against.  :class:`TpcwApplication` is a small facade over a deployment for
interactive / example use (issue a single interaction, look servlets up).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.container.server import ApplicationServer, RequestOutcome, ServerConfig
from repro.container.servlet import HttpServletRequest
from repro.container.webapp import WebApplication
from repro.db.engine import Database
from repro.db.jdbc import DataSource
from repro.jvm.runtime import JvmRuntime
from repro.sim.clock import SimClock
from repro.sim.random import RandomStreams
from repro.tpcw.mixes import INTERACTIONS
from repro.tpcw.population import PopulationScale, populate_database
from repro.tpcw.schema import create_tpcw_schema
from repro.tpcw.servlets import SERVLET_CLASSES
from repro.tpcw.servlets.base import (
    DATASOURCE_ATTRIBUTE,
    RUNTIME_ATTRIBUTE,
    STREAMS_ATTRIBUTE,
    TpcwServlet,
)

#: URL prefix of the deployed application.
CONTEXT_PATH = "/tpcw"

#: Default JDBC pool size (Tomcat DBCP-ish).
DEFAULT_POOL_SIZE = 64


@dataclass
class TpcwDeployment:
    """Everything that makes up one deployed TPC-W instance."""

    database: Database
    datasource: DataSource
    runtime: JvmRuntime
    application: WebApplication
    server: ApplicationServer
    clock: SimClock
    streams: RandomStreams
    scale: PopulationScale
    servlets: Dict[str, TpcwServlet] = field(default_factory=dict)

    def servlet(self, interaction: str) -> TpcwServlet:
        """The servlet component implementing ``interaction``."""
        servlet = self.servlets.get(interaction)
        if servlet is None:
            raise KeyError(
                f"unknown interaction {interaction!r} (expected one of {sorted(self.servlets)})"
            )
        return servlet

    def url_for(self, interaction: str) -> str:
        """The request URI mapped to ``interaction``."""
        self.servlet(interaction)
        return f"{CONTEXT_PATH}/{interaction}"

    def interaction_names(self):
        """All deployed interaction names, in TPC-W order."""
        return [name for name in INTERACTIONS if name in self.servlets]


def build_deployment(
    scale: Optional[PopulationScale] = None,
    seed: int = 0,
    config: Optional[ServerConfig] = None,
    clock: Optional[SimClock] = None,
    streams: Optional[RandomStreams] = None,
    pool_size: Optional[int] = None,
    database: Optional[Database] = None,
) -> TpcwDeployment:
    """Build a fully wired TPC-W deployment.

    Parameters
    ----------
    scale:
        Database population scale (defaults to the small unit-test scale;
        experiments pass :meth:`PopulationScale.standard`).
    seed:
        Master seed when ``streams`` is not supplied.
    config:
        Application-server capacities (defaults follow Table I of the paper).
    clock, streams:
        Shared simulation clock / random streams; fresh ones are created when
        omitted (the experiment harness passes the engine's clock).
    pool_size:
        JDBC connection-pool bound (defaults to ``config.pool_size`` when
        set, else :data:`DEFAULT_POOL_SIZE`).
    database:
        An empty :class:`Database` to deploy onto (a fresh one when omitted;
        the perf harness injects instrumented subclasses here).
    """
    scale = scale or PopulationScale()
    streams = streams or RandomStreams(seed)
    clock = clock or SimClock()
    config = config or ServerConfig()
    if pool_size is None:
        pool_size = config.pool_size if config.pool_size is not None else DEFAULT_POOL_SIZE

    database = database if database is not None else Database("tpcw")
    create_tpcw_schema(database)
    populate_database(database, scale, streams)
    datasource = DataSource(database, pool_size=pool_size)

    runtime = JvmRuntime(
        heap_bytes=config.heap_bytes, thread_capacity=config.thread_capacity
    )

    application = WebApplication("tpcw", context_path=CONTEXT_PATH)
    application.context.set_attribute(RUNTIME_ATTRIBUTE, runtime)
    application.context.set_attribute(DATASOURCE_ATTRIBUTE, datasource)
    application.context.set_attribute(STREAMS_ATTRIBUTE, streams)

    servlets: Dict[str, TpcwServlet] = {}
    for interaction in INTERACTIONS:
        servlet_class = SERVLET_CLASSES[interaction]
        servlet = servlet_class()
        application.deploy(
            servlet, name=interaction, url_pattern=f"{CONTEXT_PATH}/{interaction}"
        )
        servlets[interaction] = servlet

    server = ApplicationServer(
        application, datasource, runtime=runtime, config=config, streams=streams
    )
    return TpcwDeployment(
        database=database,
        datasource=datasource,
        runtime=runtime,
        application=application,
        server=server,
        clock=clock,
        streams=streams,
        scale=scale,
        servlets=servlets,
    )


class TpcwApplication:
    """Convenience facade over a :class:`TpcwDeployment`.

    Useful in examples and interactive exploration::

        app = TpcwApplication.build(seed=7)
        outcome = app.visit("home")
        print(outcome.response_time, outcome.response.model["promotions"])
    """

    def __init__(self, deployment: TpcwDeployment) -> None:
        self.deployment = deployment

    @classmethod
    def build(cls, **kwargs) -> "TpcwApplication":
        """Build a deployment (same keyword arguments as :func:`build_deployment`)."""
        return cls(build_deployment(**kwargs))

    @property
    def server(self) -> ApplicationServer:
        """The underlying application server."""
        return self.deployment.server

    def visit(
        self,
        interaction: str,
        parameters: Optional[dict] = None,
        session_id: Optional[str] = None,
        at_time: Optional[float] = None,
    ) -> RequestOutcome:
        """Issue one interaction and return its outcome."""
        arrival = at_time if at_time is not None else self.deployment.clock.now
        request = HttpServletRequest(
            uri=self.deployment.url_for(interaction),
            method="GET",
            parameters=parameters or {},
            session_id=session_id,
        )
        outcome = self.server.handle(request, arrival)
        # Advance the facade clock so successive visits move forward in time.
        if outcome.completion_time > self.deployment.clock.now:
            self.deployment.clock.advance_to(outcome.completion_time)
        return outcome

    def component_names(self):
        """Names of the deployed application components."""
        return self.deployment.interaction_names()
