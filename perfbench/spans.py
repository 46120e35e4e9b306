"""Outside-in layer spans.

The program under test is not modified to be traced.  When tracing is on,
:meth:`SpanRecorder.install` replaces the method at each layer boundary with
a wrapper that times the call, so every span is recorded from the
benchmark's side of the boundary.  Wrappers are installed once, before any
simulation object exists, because several layers capture bound methods when
they are built (the weaver keeps the servlet's ``service``, the Aspect
Component hands its advice bodies to the weaver, the engine queue holds
``_issue_request``).

A layer's *self time* is the duration of its spans minus the part covered
by the spans they caused.  The engine span (``run_until``) is the root of
the run phase, so the self times of all layers add up to the traced
run-phase wall clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Tuple

#: Layer boundaries, outermost first: (layer, module, class, method).
#: ``client`` starts a request; spans it causes share that request's id.
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine", "repro.sim.engine", "SimulationEngine", "run_until"),
    ("client", "repro.tpcw.workload", "EmulatedBrowser", "_issue_request"),
    ("balancer", "repro.experiments.cluster", "ClusterGateway", "handle"),
    ("container", "repro.container.server", "ApplicationServer", "handle"),
    ("servlet", "repro.tpcw.servlets.base", "TpcwServlet", "service"),
    ("sql", "repro.db.engine", "Database", "execute"),
    ("advice", "repro.core.aspect_component", "AspectComponent", "before_component_execution"),
    ("advice", "repro.core.aspect_component", "AspectComponent", "after_component_execution"),
    ("agents", "repro.core.monitoring_agents", "MonitoringAgent", "sample"),
    ("manager", "repro.core.manager_agent", "ManagerAgent", "record_sample"),
    ("manager", "repro.core.manager_agent", "ManagerAgent", "snapshot"),
    ("blackbox", "repro.baselines.blackbox", "BlackBoxMonitor", "sample"),
    ("fluid", "repro.sim.fluid", "FluidProcess", "update"),
    ("obs", "repro.obs.transports", "JsonlMetricsStream", "emit"),
)

#: The woven dispatch wrapper is built per method at weave time, so its span
#: comes from wrapping what ``Weaver._compile_wrapper`` returns.
WEAVER_FACTORY = ("weaver", "repro.aop.weaver", "Weaver", "_compile_wrapper")

#: Spans kept per log; a traced iteration of any workload has more.
MAX_SPANS = 50_000

#: Every layer, in the order a request meets them.
LAYERS: Tuple[str, ...] = (
    "engine", "client", "balancer", "container", "weaver", "servlet", "sql",
    "advice", "agents", "manager", "blackbox", "fluid", "obs",
)


class SpanRecorder:
    """Per-layer self time and call counts, plus a bounded span log.

    Spans are ``(id, parent_id, layer, request_id, start_s, end_s)`` with
    times relative to :meth:`reset`; ``parent_id`` 0 is the root and
    ``request_id`` 0 means the span belongs to no request (periodic work
    such as snapshots and probes).
    """

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.spans: List[Tuple[int, int, str, int, float, float]] = []
        self.logging = False
        # One frame per open span: [child_seconds, span_id, request_id].
        self._stack: List[list] = []
        self._next_span = 1
        self._next_request = 1
        self._origin = time.perf_counter()

    def reset(self, log_spans: bool) -> None:
        """Zero the totals and start a new span log (if ``log_spans``)."""
        self.self_seconds = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.spans = []
        self.logging = log_spans
        self._next_span = 1
        self._next_request = 1
        self._origin = time.perf_counter()

    def wrap(self, layer: str, fn: Callable, starts_request: bool = False) -> Callable:
        """``fn`` with a span named ``layer`` around every call."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_span
            self._next_span = span_id + 1
            if starts_request:
                request_id = self._next_request
                self._next_request = request_id + 1
            else:
                request_id = stack[-1][2] if stack else 0
            frame = [0.0, span_id, request_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_seconds[layer] += duration - frame[0]
                self.calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if self.logging and len(self.spans) < MAX_SPANS:
                    origin = self._origin
                    self.spans.append(
                        (
                            span_id,
                            stack[-1][1] if stack else 0,
                            layer,
                            request_id,
                            start - origin,
                            end - origin,
                        )
                    )

        return traced

    def install(self) -> None:
        """Wrap every layer boundary (call before building any simulation)."""
        self.reset(log_spans=False)
        for layer, module_name, class_name, method_name in BOUNDARIES:
            cls = getattr(importlib.import_module(module_name), class_name)
            setattr(
                cls,
                method_name,
                self.wrap(layer, getattr(cls, method_name), starts_request=layer == "client"),
            )
        layer, module_name, class_name, method_name = WEAVER_FACTORY
        cls = getattr(importlib.import_module(module_name), class_name)
        compile_wrapper = getattr(cls, method_name)

        @functools.wraps(compile_wrapper)
        def traced_compile(weaver, *args, **kwargs):
            return self.wrap(layer, compile_wrapper(weaver, *args, **kwargs))

        setattr(cls, method_name, traced_compile)

    def write_spans(self, path: str) -> None:
        """Write the span log as JSON lines (times in microseconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, request_id, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "request": request_id,
                            "start_us": round(start * 1e6, 3),
                            "end_us": round(end * 1e6, 3),
                        }
                    )
                    + "\n"
                )
