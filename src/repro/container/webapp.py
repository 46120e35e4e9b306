"""Web application assembly (the deployment descriptor).

A :class:`WebApplication` is the unit the paper calls "the application": a
set of named servlets with URL mappings and a shared context.  The
Aspect Component weaver walks :meth:`WebApplication.servlets` to find the
components to instrument — no application code is modified, mirroring the
paper's "inject the solution at runtime over third-party applications"
claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.container.servlet import HttpServlet, ServletConfig, ServletContext


@dataclass
class ServletRegistration:
    """One deployed servlet: its name, instance and URL pattern."""

    name: str
    servlet: HttpServlet
    url_pattern: str


class WebApplication:
    """A deployed web application.

    Parameters
    ----------
    name:
        Context name, e.g. ``"tpcw"``.
    context_path:
        URL prefix, e.g. ``"/tpcw"``.
    """

    def __init__(self, name: str, context_path: str = "") -> None:
        if not name:
            raise ValueError("web application name must be non-empty")
        self.name = name
        self.context_path = context_path or f"/{name}"
        self.context = ServletContext(self)
        self._registrations: Dict[str, ServletRegistration] = {}
        self._by_url: Dict[str, ServletRegistration] = {}

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def deploy(
        self,
        servlet: HttpServlet,
        name: Optional[str] = None,
        url_pattern: Optional[str] = None,
        init_params: Optional[Dict[str, str]] = None,
    ) -> ServletRegistration:
        """Deploy a servlet instance under a name and URL pattern."""
        servlet_name = name or servlet.component_name or type(servlet).__name__
        if servlet_name in self._registrations:
            raise ValueError(f"servlet name {servlet_name!r} is already deployed")
        pattern = url_pattern or f"{self.context_path}/{servlet_name}"
        if pattern in self._by_url:
            raise ValueError(f"URL pattern {pattern!r} is already mapped")
        config = ServletConfig(servlet_name, self.context, init_params)
        servlet.init(config)
        registration = ServletRegistration(name=servlet_name, servlet=servlet, url_pattern=pattern)
        self._registrations[servlet_name] = registration
        self._by_url[pattern] = registration
        return registration

    def undeploy(self, name: str) -> None:
        """Remove a servlet and call its ``destroy`` hook."""
        registration = self._registrations.pop(name, None)
        if registration is None:
            raise KeyError(f"no servlet deployed under name {name!r}")
        self._by_url.pop(registration.url_pattern, None)
        registration.servlet.destroy()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def servlet_names(self) -> List[str]:
        """Sorted deployed servlet names."""
        return sorted(self._registrations)

    def servlets(self) -> List[HttpServlet]:
        """All deployed servlet instances (sorted by name)."""
        return [self._registrations[name].servlet for name in self.servlet_names()]

    def registration(self, name: str) -> ServletRegistration:
        """Registration by servlet name."""
        registration = self._registrations.get(name)
        if registration is None:
            raise KeyError(f"no servlet deployed under name {name!r}")
        return registration

    def find_by_uri(self, uri: str) -> Optional[ServletRegistration]:
        """Resolve a request URI to a registration (exact match on pattern)."""
        return self._by_url.get(uri)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WebApplication(name={self.name!r}, servlets={len(self._registrations)})"
