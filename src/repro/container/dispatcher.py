"""Request dispatch: a resolved request to its servlet."""

from __future__ import annotations

from typing import Optional

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.container.session import SessionManager
from repro.container.webapp import ServletRegistration


class RequestDispatcher:
    """Runs a resolved request through its servlet.

    Parameters
    ----------
    session_manager:
        Attached to every dispatched request, so its servlet can ask for
        the session.
    """

    def __init__(self, session_manager: SessionManager) -> None:
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
        """Run a request through ``registration``'s servlet.

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
        try:
            registration.servlet.service(request, response)
            self.dispatched_count += 1
        except Exception:
            response.status = HttpServletResponse.SC_INTERNAL_SERVER_ERROR
            self.error_count += 1
        return response
