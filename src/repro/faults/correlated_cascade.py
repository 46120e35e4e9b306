"""Correlated-cascade fault: component A's leak degrades component B."""

from __future__ import annotations

from typing import Optional

from repro.faults.base import Fault, TriggeredFault
from repro.sim.random import RandomStreams

KB = 1024
MB = 1024 * 1024


class _CascadeVictimDelay(Fault):
    """The victim-side shadow of a :class:`CorrelatedCascadeFault`.

    Attached to the victim servlet by the source fault; charges the victim's
    visits a delay proportional to how much the *source* component has
    leaked so far.  It never triggers on its own and carries no state beyond
    the back-reference — detaching the source makes it inert.
    """

    kind = "cascade-victim-delay"

    def __init__(self, source: "CorrelatedCascadeFault") -> None:
        super().__init__()
        self._source = source

    def on_request(self, servlet, request) -> None:
        if not self.active or not self._source.active:
            return
        self.request_count += 1
        delay = self._source.victim_delay_seconds()
        if delay > 0:
            servlet.charge_fault_latency(delay)
            self._source.victim_delay_seconds_total += delay

    def describe(self) -> str:
        return (
            f"cascade-victim-delay +{self._source.victim_delay_seconds() * 1000:.0f} ms/visit "
            f"(coupled to {self._source.kind})"
        )


class CorrelatedCascadeFault(TriggeredFault):
    """Component A leaks; component B pays the latency.

    Models cross-component coupling through a shared in-process resource:
    A's leaked objects evict B's hot entries from a shared cache (or bloat a
    shared index B scans), so B's visits slow down in proportion to A's
    *accumulated* leak — ``coupling_seconds_per_mb`` seconds per leaked MB,
    capped at ``max_victim_delay_seconds``.

    This is the attribution stress test: the resource growth lives on A,
    the latency trend lives on B.  A heap-only detector blames A and misses
    the user-facing symptom; a latency-only detector blames B — the wrong
    component to rejuvenate.  A correct cascade-aware strategy must rank A
    above B by combining both signals.
    """

    kind = "correlated-cascade"

    def __init__(
        self,
        victim: str = "home",
        leak_bytes: int = 64 * KB,
        coupling_seconds_per_mb: float = 0.05,
        max_victim_delay_seconds: float = 2.0,
        period_n: int = 100,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        super().__init__(period_n=period_n, streams=streams)
        if not victim:
            raise ValueError("victim component name must be non-empty")
        if leak_bytes <= 0:
            raise ValueError(f"leak_bytes must be positive, got {leak_bytes}")
        if coupling_seconds_per_mb <= 0:
            raise ValueError(
                f"coupling_seconds_per_mb must be positive, got {coupling_seconds_per_mb}"
            )
        if max_victim_delay_seconds <= 0:
            raise ValueError(
                f"max_victim_delay_seconds must be positive, got {max_victim_delay_seconds}"
            )
        self.victim = victim
        self.leak_bytes = int(leak_bytes)
        self.coupling_seconds_per_mb = float(coupling_seconds_per_mb)
        self.max_victim_delay_seconds = float(max_victim_delay_seconds)
        self.leaked_bytes_total = 0
        self.victim_delay_seconds_total = 0.0
        self._shadow: Optional[_CascadeVictimDelay] = None

    # ------------------------------------------------------------------ #
    def victim_delay_seconds(self) -> float:
        """Per-visit delay the victim currently pays for A's leak."""
        delay = self.coupling_seconds_per_mb * (self.leaked_bytes_total / MB)
        return min(delay, self.max_victim_delay_seconds)

    def _ensure_shadow(self, servlet) -> None:
        if self._shadow is not None:
            return
        application = servlet.servlet_config.context.application
        if servlet.component_name == self.victim:
            raise ValueError(
                f"correlated-cascade victim {self.victim!r} must differ from the "
                f"faulty component {servlet.component_name!r}"
            )
        try:
            victim_servlet = application.registration(self.victim).servlet
        except KeyError:
            raise ValueError(
                f"correlated-cascade victim {self.victim!r} is not deployed "
                f"(known components: {application.servlet_names()})"
            ) from None
        self._shadow = _CascadeVictimDelay(self)
        victim_servlet.attach_fault(self._shadow)

    def detach_shadow(self) -> None:
        """Deactivate the victim-side coupling (used when removing the fault)."""
        if self._shadow is not None:
            self._shadow.active = False

    def _inject(self, servlet, request) -> None:
        self._ensure_shadow(servlet)
        leak_object = servlet.runtime.allocate(
            f"{servlet.java_class_name}$SharedCachePressure",
            shallow_size=self.leak_bytes,
            owner=servlet.component_name,
        )
        servlet.retain_in_component_state(leak_object)
        self.leaked_bytes_total += self.leak_bytes

    def describe(self) -> str:
        return (
            f"correlated-cascade {self.leak_bytes} B/~{self.period_n} visits leaked "
            f"({self.leaked_bytes_total} B total), victim {self.victim!r} pays "
            f"+{self.victim_delay_seconds() * 1000:.1f} ms/visit "
            f"({self.victim_delay_seconds_total:.2f} s so far)"
        )
