"""Servlet container substrate (the "Tomcat" of the testbed).

Provides the J2EE-ish component model the paper instruments:

* :mod:`repro.container.servlet`    -- the servlet API (requests, responses,
  sessions, the :class:`HttpServlet` base class TPC-W servlets extend).
* :mod:`repro.container.session`    -- HTTP session manager (sessions hold
  simulated heap objects, so session bloat is measurable).
* :mod:`repro.container.webapp`     -- web application assembly (servlet
  registry + URL mappings, i.e. the deployment descriptor).
* :mod:`repro.container.dispatcher` -- dispatch of a resolved request to
  its servlet.
* :mod:`repro.container.threadpool` -- worker thread pool.
* :mod:`repro.container.server`     -- the application server facade that
  executes a request end-to-end in virtual time and reports per-request
  response time, folding in CPU contention, database time, GC pauses and
  whatever overhead the monitoring framework charges.
"""

from __future__ import annotations

from repro.container.dispatcher import RequestDispatcher
from repro.container.server import ApplicationServer, RequestOutcome, ServerConfig
from repro.container.servlet import (
    HttpServlet,
    HttpServletRequest,
    HttpServletResponse,
    ServletConfig,
    ServletContext,
    ServletException,
)
from repro.container.session import HttpSession, SessionManager
from repro.container.threadpool import WorkerThreadPool
from repro.container.webapp import ServletRegistration, WebApplication

__all__ = [
    "HttpServlet",
    "HttpServletRequest",
    "HttpServletResponse",
    "ServletConfig",
    "ServletContext",
    "ServletException",
    "HttpSession",
    "SessionManager",
    "WebApplication",
    "ServletRegistration",
    "RequestDispatcher",
    "WorkerThreadPool",
    "ApplicationServer",
    "ServerConfig",
    "RequestOutcome",
]
