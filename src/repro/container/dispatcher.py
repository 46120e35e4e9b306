"""Request dispatch and the servlet filter chain."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.container.session import SessionManager
from repro.container.webapp import ServletRegistration, WebApplication


class ServletFilter:
    """Base class for servlet filters (``javax.servlet.Filter`` analogue).

    Subclasses override :meth:`do_filter` and must call
    ``chain.do_filter(request, response)`` to continue processing.
    """

    filter_name: str = "filter"

    def do_filter(self, request: HttpServletRequest, response: HttpServletResponse, chain: "FilterChain") -> None:
        """Process the request and pass it down the chain."""
        chain.do_filter(request, response)


class FilterChain:
    """Runs the configured filters and finally the target servlet."""

    def __init__(self, filters: Sequence[ServletFilter], terminal: Callable[[HttpServletRequest, HttpServletResponse], None]) -> None:
        self._filters = tuple(filters)
        self._terminal = terminal
        self._index = 0

    def do_filter(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        """Invoke the next element of the chain."""
        if self._index < len(self._filters):
            current = self._filters[self._index]
            self._index += 1
            current.do_filter(request, response, self)
        else:
            self._terminal(request, response)


class RequestDispatcher:
    """Runs a resolved request through the filter chain to its servlet.

    Parameters
    ----------
    application:
        The deployed web application.
    session_manager:
        Attached to every dispatched request, so its servlet can ask for
        the session.
    """

    def __init__(self, application: WebApplication, session_manager: SessionManager) -> None:
        self.application = application
        self.session_manager = session_manager
        self.dispatched_count = 0
        self.not_found_count = 0
        self.error_count = 0
        #: Optional :class:`~repro.container.resilience.LoadShedder`; when
        #: installed, the server consults it before dispatching and refuses
        #: low-priority page classes under worker-pool pressure.
        self.load_shedder = None

    def dispatch(
        self,
        registration: Optional[ServletRegistration],
        request: HttpServletRequest,
        response: HttpServletResponse,
        timestamp: float = 0.0,
    ) -> HttpServletResponse:
        """Run a request through the filter chain to ``registration``'s servlet.

        ``registration`` is what :meth:`WebApplication.find_by_uri` resolved
        for the request's URI; ``None`` (an unknown URI) produces a 404.  A
        :class:`ServletException` or any other exception escaping the
        servlet produces a 500 (and is recorded but not propagated — the
        container isolates request failures, as Tomcat does).
        """
        if registration is None:
            response.status = HttpServletResponse.SC_NOT_FOUND
            self.not_found_count += 1
            return response

        request._session_manager = self.session_manager
        request.arrival_time = timestamp
        filters = self.application.filters
        try:
            if filters:
                FilterChain(filters, registration.servlet.service).do_filter(request, response)
            else:
                registration.servlet.service(request, response)
            self.dispatched_count += 1
        except Exception:
            response.status = HttpServletResponse.SC_INTERNAL_SERVER_ERROR
            self.error_count += 1
        return response
