"""Servlet API analogue.

The TPC-W application is written against these classes exactly as the Java
version is written against ``javax.servlet.http``: servlets extend
:class:`HttpServlet`, receive an :class:`HttpServletRequest` and an
:class:`HttpServletResponse`, read parameters, use the session, and write a
page.  Keeping the shape of the API close to the original means the Aspect
Component can target the same join points (``service`` / ``doGet`` /
``doPost``) that the AspectJ pointcuts in the paper target.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.container.session import HttpSession, SessionManager
    from repro.container.webapp import WebApplication


class ServletException(RuntimeError):
    """Raised by servlets on unrecoverable request-handling errors."""


class ServletContext:
    """Application-wide context shared by all servlets of a web application."""

    def __init__(self, application: "WebApplication") -> None:
        self._application = application
        self._attributes: Dict[str, Any] = {}

    @property
    def application(self) -> "WebApplication":
        """The owning web application."""
        return self._application

    def get_attribute(self, name: str) -> Any:
        """Read a context attribute (``None`` when unset)."""
        return self._attributes.get(name)

    def set_attribute(self, name: str, value: Any) -> None:
        """Set a context attribute."""
        self._attributes[name] = value

    def remove_attribute(self, name: str) -> None:
        """Remove a context attribute (no error if absent)."""
        self._attributes.pop(name, None)

    def attribute_names(self) -> List[str]:
        """Sorted attribute names."""
        return sorted(self._attributes)


class ServletConfig:
    """Per-servlet configuration (name + init parameters)."""

    def __init__(self, servlet_name: str, context: ServletContext, init_params: Optional[Dict[str, str]] = None) -> None:
        self.servlet_name = servlet_name
        self.context = context
        self._init_params = dict(init_params or {})

    def get_init_parameter(self, name: str) -> Optional[str]:
        """An init parameter value or ``None``."""
        return self._init_params.get(name)

    def init_parameter_names(self) -> List[str]:
        """Sorted init parameter names."""
        return sorted(self._init_params)


class HttpServletRequest:
    """An HTTP request as seen by a servlet.

    Parameters
    ----------
    uri:
        The request URI (e.g. ``"/tpcw/home"``).
    method:
        ``"GET"`` or ``"POST"``.
    parameters:
        Query/form parameters.
    session_id:
        The client's session id (``None`` for a fresh session).
    """

    def __init__(
        self,
        uri: str,
        method: str = "GET",
        parameters: Optional[Dict[str, Any]] = None,
        session_id: Optional[str] = None,
    ) -> None:
        if method != "GET" and method != "POST":
            method = method.upper()
            if method not in ("GET", "POST"):
                raise ValueError(f"unsupported HTTP method {method!r}")
        self.uri = uri
        self.method = method
        self._parameters = dict(parameters) if parameters else {}
        self.session_id = session_id
        self._attributes: Dict[str, Any] = {}
        self._session: Optional["HttpSession"] = None
        #: Set by the dispatcher so servlets can ask for their session.
        self._session_manager: Optional["SessionManager"] = None
        #: Simulated arrival timestamp; set by the dispatcher.
        self.arrival_time: float = 0.0

    # -- parameters ------------------------------------------------------ #
    def get_parameter(self, name: str, default: Any = None) -> Any:
        """A request parameter (or ``default``)."""
        return self._parameters.get(name, default)

    def parameter_names(self) -> List[str]:
        """Sorted parameter names."""
        return sorted(self._parameters)

    def set_parameter(self, name: str, value: Any) -> None:
        """Set/override a parameter (used by workload generation)."""
        self._parameters[name] = value

    # -- attributes ------------------------------------------------------ #
    def get_attribute(self, name: str) -> Any:
        """A request attribute (or ``None``)."""
        return self._attributes.get(name)

    def set_attribute(self, name: str, value: Any) -> None:
        """Set a request attribute."""
        self._attributes[name] = value

    # -- session ---------------------------------------------------------- #
    def get_session(self, create: bool = True) -> Optional["HttpSession"]:
        """The request's session, creating one when ``create`` is true.

        A session found is touched, and a session created is stamped, at
        the request's arrival time.
        """
        if self._session is not None:
            return self._session
        manager = self._session_manager
        if manager is None:
            raise ServletException("request is not attached to a session manager")
        session = self._session = manager.get_session(self.session_id, create, self.arrival_time)
        if session is not None:
            self.session_id = session.session_id
        return session

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HttpServletRequest({self.method} {self.uri})"


class HttpServletResponse:
    """The response a servlet builds.

    A page rendered with :meth:`render` keeps its title and model; its
    markup is built on the first read of :attr:`body` or
    :attr:`content_length`, in its place among the written parts.
    """

    SC_OK = 200
    SC_NOT_FOUND = 404
    SC_INTERNAL_SERVER_ERROR = 500
    SC_SERVICE_UNAVAILABLE = 503

    def __init__(self) -> None:
        self.status = self.SC_OK
        #: Written text, and ``(title, model)`` for each page not yet marked up.
        self._body_parts: List[Any] = []
        #: Model data the servlet produced (the "rendered page" payload).
        self.model: Dict[str, Any] = {}

    def set_status(self, status: int) -> None:
        """Set the HTTP status code."""
        self.status = int(status)

    def write(self, text: str) -> None:
        """Append body text (the page markup)."""
        self._body_parts.append(text)

    def render(self, title: str, model: Dict[str, Any]) -> None:
        """Attach a page: its title, and its model merged into :attr:`model`.

        The page's markup, a title and one line per model entry, is built
        when the body is first read.
        """
        self.model.update(model)
        self._body_parts.append((title, model))

    def _parts(self) -> List[str]:
        """The body parts, with every pending page marked up."""
        parts = self._body_parts
        for index, part in enumerate(parts):
            if type(part) is tuple:
                parts[index] = _page_markup(*part)
        return parts

    @property
    def body(self) -> str:
        """The accumulated body."""
        return "".join(self._parts())

    @property
    def content_length(self) -> int:
        """Length of the accumulated body in characters."""
        return sum(len(part) for part in self._parts())

    @property
    def is_error(self) -> bool:
        """Whether the status signals an error."""
        return self.status >= 400


def _page_markup(title: str, model: Dict[str, Any]) -> str:
    """A small HTML page: the title, then each model entry (a list by its length)."""
    parts = [f"<html><head><title>{title}</title></head><body>"]
    for key, value in model.items():
        if isinstance(value, list):
            parts.append(f"<h2>{key} ({len(value)})</h2>")
        else:
            parts.append(f"<p>{key}: {value}</p>")
    parts.append("</body></html>")
    return "".join(parts)


class HttpServlet:
    """Base class of all servlets.

    Subclasses override :meth:`do_get` / :meth:`do_post` (and optionally
    :meth:`init` / :meth:`destroy`).  The container calls :meth:`service`,
    which dispatches on the HTTP method — the same lifecycle as
    ``javax.servlet.http.HttpServlet`` and the join point the paper's Aspect
    Component wraps.
    """

    #: Java-style class name used by AOP pointcut matching; subclasses set it.
    java_class_name: str = "javax.servlet.http.HttpServlet"
    #: Logical component name used for monitoring attribution.
    component_name: str = "servlet"

    def __init__(self) -> None:
        self._config: Optional[ServletConfig] = None
        self._initialized = False

    # -- lifecycle -------------------------------------------------------- #
    def init(self, config: ServletConfig) -> None:
        """Initialise the servlet (called once at deployment)."""
        self._config = config
        self._initialized = True

    def destroy(self) -> None:
        """Dispose of the servlet (called at undeployment)."""
        self._initialized = False

    @property
    def servlet_config(self) -> ServletConfig:
        """The servlet's configuration (raises if not initialised)."""
        if self._config is None:
            raise ServletException(f"servlet {type(self).__name__} is not initialised")
        return self._config

    @property
    def is_initialized(self) -> bool:
        """Whether :meth:`init` has run."""
        return self._initialized

    # -- request handling -------------------------------------------------- #
    def service(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        """Dispatch to :meth:`do_get` or :meth:`do_post`."""
        if not self._initialized:
            raise ServletException(
                f"servlet {type(self).__name__} received a request before init()"
            )
        if request.method == "GET":
            self.do_get(request, response)
        else:
            self.do_post(request, response)

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        """Handle a GET request (default: 404)."""
        response.set_status(HttpServletResponse.SC_NOT_FOUND)

    def do_post(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        """Handle a POST request (default: delegate to GET)."""
        self.do_get(request, response)
