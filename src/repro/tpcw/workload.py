"""Closed-loop Emulated Browser (EB) workload generator.

TPC-W load is generated by Emulated Browsers: each EB navigates the store in
a session, drawing the next interaction from the configured mix and waiting
a *think time* (negative-exponential, mean 7 s, capped at 70 s) between
receiving a page and issuing the next request.  The number of concurrent EBs
is held constant during a phase; the paper's Fig. 3 uses three phases
(50 EBs warm-up, 100 EBs, 200 EBs).

The generator runs on the discrete-event engine: every EB is a chain of
events (issue request → completion → think → next request), so response-time
inflation under load automatically throttles the offered load, exactly like
the real closed-loop harness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.container.resilience import BackoffSchedule, CircuitBreaker, ResilienceConfig
from repro.container.servlet import HttpServletRequest
from repro.container.server import RequestOutcome
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import TimeSeries, WindowedRate
from repro.sim.random import RandomStreams
from repro.tpcw.application import TpcwDeployment
from repro.tpcw.mixes import WorkloadMix, shopping_mix

#: TPC-W think time parameters (seconds).
DEFAULT_THINK_TIME_MEAN = 7.0
MAX_THINK_TIME = 70.0
#: Mean EB session duration before the browser starts a fresh session (15 min).
DEFAULT_SESSION_DURATION_MEAN = 900.0


@dataclass
class WorkloadPhase:
    """A constant-EB phase of the experiment (Fig. 3 uses three of them)."""

    start_time: float
    eb_count: int

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError(f"phase start_time must be >= 0, got {self.start_time}")
        if self.eb_count < 0:
            raise ValueError(f"phase eb_count must be >= 0, got {self.eb_count}")


class _UriTable(dict):
    """Interaction -> request URI, asking the deployment once per interaction."""

    def __init__(self, deployment) -> None:
        super().__init__()
        self._url_for = deployment.url_for

    def __missing__(self, interaction: str) -> str:
        uri = self[interaction] = self._url_for(interaction)
        return uri


class EmulatedBrowser:
    """One TPC-W Emulated Browser."""

    def __init__(self, browser_id: int, generator: "WorkloadGenerator") -> None:
        self.browser_id = browser_id
        self._generator = generator
        self.active = False
        self.current_interaction = "home"
        self.session_id: Optional[str] = None
        self.session_deadline = 0.0
        self.requests_issued = 0
        #: Retry attempts already spent on the current page visit (resilient
        #: clients only; attempt 0 is the initial try).
        self.retry_attempt = 0
        #: Firing time of a request that fell beyond the current run's end
        #: time; :meth:`WorkloadGenerator.run` revives it on the next segment.
        self.parked_time: Optional[float] = None
        self._event_name = f"eb{browser_id}.request"

    # ------------------------------------------------------------------ #
    def start(self, at_time: float) -> None:
        """Activate the browser and schedule its first request."""
        self.active = True
        self._begin_session(at_time)
        self._generator.engine.schedule_at(
            at_time, self._issue_request, name=f"eb{self.browser_id}.first-request"
        )

    def stop(self) -> None:
        """Deactivate the browser (it stops after its in-flight request).

        A deliberate stop also drops any parked request so a later
        :meth:`WorkloadGenerator.run` segment will not resurrect a browser
        that a ramp-down removed from the population.  (The end-of-segment
        sweep in ``run()`` deactivates browsers *without* calling this, so
        their parked requests survive into the next segment.)
        """
        self.active = False
        self.parked_time = None

    def _begin_session(self, at_time: float) -> None:
        self.session_id = None
        self.current_interaction = "home"
        generator = self._generator
        self.session_deadline = (
            at_time + generator.session_duration_mean * generator._session_draw()
        )

    # ------------------------------------------------------------------ #
    def _issue_request(self) -> None:
        if not self.active:
            return
        generator = self._generator
        now = generator._clock.now
        if now >= self.session_deadline:
            self._begin_session(now)
            self.retry_attempt = 0

        resilience = generator.resilience
        if resilience is not None and not self._breaker_admits(now):
            return

        interaction = self.current_interaction
        request = HttpServletRequest(generator._uris[interaction], "GET", None, self.session_id)
        outcome = generator._handle(request, now)
        self.requests_issued += 1
        generator.issued_requests += 1
        self.session_id = request.session_id
        generator._record_outcome(interaction, outcome, now)

        if outcome.refused:
            # The server refused the request — a rejuvenation outage window
            # or the load shedder's 503.  The user waits for the advertised
            # Retry-After and retries the *same* page.  The refusal itself
            # was recorded above (that is the paid "refused load"); parking
            # until the outage ends keeps the closed loop from burning its
            # think-time budget on a dead server.  This is server-directed
            # backpressure, not an opaque failure, so it does not consume a
            # retry budget or trip the circuit breaker.
            self.retry_attempt = 0
            think = generator.think_time()
            next_time = max(outcome.retry_after, now) + think
        else:
            if resilience is not None and self._handle_resilient_completion(outcome, now):
                return
            # Choose the next interaction and schedule it after think time.
            self.current_interaction = generator.mix.next_interaction(
                interaction, generator._mix_draw()
            )
            think = generator.think_time()
            next_time = max(outcome.completion_time, now) + think
        self._schedule_next(next_time)

    # ------------------------------------------------------------------ #
    # Resilient-client behaviour (no-ops when generator.resilience is None;
    # the legacy path above consumes exactly the same random draws in the
    # same order as before, which keeps seeded runs bit-identical).
    # ------------------------------------------------------------------ #
    def _breaker_admits(self, now: float) -> bool:
        """Client-side circuit-breaker admission for the current page.

        A breaker refusal is still an *issued* request for accounting (the
        user hit reload and got an instant client-side error page), counted
        as refused load.  If retry budget remains the browser backs off and
        tries again; otherwise it gives up and navigates on.
        """
        generator = self._generator
        breaker = generator._breaker_for(self.current_interaction)
        if breaker is None or breaker.allow(now):
            return True
        generator.issued_requests += 1
        generator.refused_requests += 1
        generator.breaker_refusals += 1
        resilience = generator.resilience
        if self.retry_attempt + 1 < resilience.max_attempts:
            self.retry_attempt += 1
            generator.retry_attempts += 1
            self._schedule_next(now + generator._retry_delay(self.retry_attempt - 1))
        else:
            generator.gave_up_requests += 1
            self.retry_attempt = 0
            self.current_interaction = generator.mix.next_interaction(
                self.current_interaction, generator._mix_draw()
            )
            self._schedule_next(now + generator.think_time())
        return False

    def _handle_resilient_completion(self, outcome: RequestOutcome, now: float) -> bool:
        """Timeout/retry/breaker bookkeeping for a served (non-refused) page.

        Returns True when a retry of the same page was scheduled (the caller
        must not advance the navigation mix).
        """
        generator = self._generator
        resilience = generator.resilience
        timeout = resilience.timeout_seconds
        timed_out = timeout is not None and outcome.response_time > timeout
        if timed_out:
            generator.client_timeouts += 1
        failed = timed_out or not outcome.ok
        done_at = max(outcome.completion_time, now)
        breaker = generator._breaker_for(self.current_interaction)
        if breaker is not None:
            if failed:
                breaker.record_failure(done_at)
            else:
                breaker.record_success(done_at)
        if failed and self.retry_attempt + 1 < resilience.max_attempts:
            self.retry_attempt += 1
            generator.retry_attempts += 1
            self._schedule_next(done_at + generator._retry_delay(self.retry_attempt - 1))
            return True
        if failed:
            generator.gave_up_requests += 1
        self.retry_attempt = 0
        return False

    def _schedule_next(self, next_time: float) -> None:
        """Schedule the next request (or park it past the segment end)."""
        generator = self._generator
        if generator.end_time is not None and next_time > generator.end_time:
            # Park instead of dropping: the browser used to deactivate
            # silently here, leaving any later run() segment with a dead
            # population.  run() re-schedules parked requests.
            self.parked_time = next_time
            return
        if generator._trace_names:
            generator.engine.schedule_at(
                next_time, self._issue_request, name=self._event_name
            )
        else:
            # Fast-path scheduling: one event per simulated request, never
            # cancelled, so no Event handle is needed.
            generator.engine.schedule_callback(next_time, self._issue_request)


class WorkloadGenerator:
    """Drives a TPC-W deployment with a phased, closed-loop EB population.

    Parameters
    ----------
    engine:
        The discrete-event engine (must share its clock with the deployment).
    deployment:
        The TPC-W deployment under test.
    mix:
        Navigation mix; the paper uses the shopping mix everywhere.
    streams:
        Random streams (defaults to the deployment's).
    think_time_mean:
        Mean think time in seconds.
    throughput_window:
        Width (seconds) of the throughput-reporting windows.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        deployment: TpcwDeployment,
        mix: Optional[WorkloadMix] = None,
        streams: Optional[RandomStreams] = None,
        think_time_mean: float = DEFAULT_THINK_TIME_MEAN,
        session_duration_mean: float = DEFAULT_SESSION_DURATION_MEAN,
        throughput_window: float = 30.0,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        # The draws bound below skip the per-draw parameter checks.
        for name, mean in (
            ("think_time_mean", think_time_mean),
            ("session_duration_mean", session_duration_mean),
        ):
            if not 0 < mean < math.inf:  # a NaN mean fails too
                raise ValueError(f"{name} must be positive and finite, got {mean}")
        self.engine = engine
        self.deployment = deployment
        self.mix = mix or shopping_mix()
        self.streams = streams or deployment.streams
        self.think_time_mean = float(think_time_mean)
        self.session_duration_mean = float(session_duration_mean)
        #: The per-request draws, each bound here to its stream's draw
        #: engine: a think time or session duration is ``mean * z`` over a
        #: standard exponential, numpy's ``exponential(mean)``.
        streams = self.streams
        self._think_draw = streams.engine("workload.think-time").standard_exponential
        self._mix_draw = functools.partial(
            streams.engine("workload.mix-transition").uniform, 0.0, 1.0
        )
        self._session_draw = streams.engine("workload.session-duration").standard_exponential
        #: Interaction -> request URI, resolved once per interaction, and
        #: the server's request entry, bound once per run.
        self._uris = _UriTable(deployment)
        self._handle = deployment.server.handle
        self._clock = engine.clock
        self.end_time: Optional[float] = None
        self._browsers: List[EmulatedBrowser] = []
        self._next_browser_id = 1
        #: Keep per-request event names when the engine records a trace.
        self._trace_names = getattr(engine, "trace_enabled", False)
        #: Client-side resilience (timeouts/retries/breakers); ``None`` keeps
        #: the legacy fire-and-move-on client, bit-identical to older runs.
        self.resilience = resilience
        self._backoff: Optional[BackoffSchedule] = (
            resilience.build_backoff(self.streams) if resilience is not None else None
        )
        self._breakers: Dict[str, CircuitBreaker] = {}
        # Metrics.
        self.throughput = WindowedRate(throughput_window, name="throughput")
        self.response_times = TimeSeries("response_time")
        self.interaction_counts: Dict[str, int] = {}
        self.error_count = 0
        self.completed_requests = 0
        #: Requests refused by a rejuvenation outage window, the load
        #: shedder, or a client-side circuit breaker.  Tracked apart from
        #: ``completed_requests``/``error_count``: a refusal is paid
        #: downtime, not a served (or failed) page, so it must not inflate
        #: throughput or the error column of availability reports.
        self.refused_requests = 0
        #: Every attempt the client made, including retries and requests a
        #: breaker refused client-side.  The accounting invariant holds that
        #: completions + errors + refusals (+ in-flight, zero at rest) equal
        #: this number — see :meth:`check_accounting`.
        self.issued_requests = 0
        self.retry_attempts = 0
        self.client_timeouts = 0
        self.gave_up_requests = 0
        self.breaker_refusals = 0
        self.shed_refusals = 0
        self.outage_refusals = 0
        #: Optional hook invoked with (interaction, outcome) after each request.
        self.on_request: Optional[Callable[[str, RequestOutcome], None]] = None

    # ------------------------------------------------------------------ #
    def think_time(self) -> float:
        """One TPC-W think-time draw (exponential, capped)."""
        return min(self.think_time_mean * self._think_draw(), MAX_THINK_TIME)

    def _retry_delay(self, attempt: int) -> float:
        """Client turnaround before retry ``attempt`` (0-based)."""
        if self._backoff is not None:
            return self._backoff.delay(attempt)
        return self.resilience.immediate_retry_delay_seconds

    def _breaker_for(self, interaction: str) -> Optional[CircuitBreaker]:
        """The per-component breaker (``None`` when breakers are disabled)."""
        if self.resilience is None or self.resilience.breaker_failure_threshold is None:
            return None
        breaker = self._breakers.get(interaction)
        if breaker is None:
            breaker = self.resilience.build_breaker(name=interaction)
            self._breakers[interaction] = breaker
        return breaker

    @property
    def breakers(self) -> Dict[str, CircuitBreaker]:
        """Per-component circuit breakers instantiated so far."""
        return dict(self._breakers)

    def _record_outcome(self, interaction: str, outcome: RequestOutcome, now: float) -> None:
        """Count one server answer to a request issued at ``now``."""
        if outcome.refused:
            # Counted (never silently dropped), but not as a completion: the
            # server was deliberately down or shed the request.  Observers
            # still see it.
            self.refused_requests += 1
            if outcome.refused_by_outage:
                self.outage_refusals += 1
            else:
                self.shed_refusals += 1
            if self.on_request is not None:
                self.on_request(interaction, outcome)
            return
        self.completed_requests += 1
        self.interaction_counts[interaction] = self.interaction_counts.get(interaction, 0) + 1
        if not outcome.ok:
            self.error_count += 1
        self.throughput.mark(outcome.completion_time)
        # Recorded at issue time (monotonic in event order); completions can
        # finish out of order, so the completion time is not a valid series axis.
        self.response_times.record(now, outcome.response_time)
        if self.on_request is not None:
            self.on_request(interaction, outcome)

    # ------------------------------------------------------------------ #
    # EB population control
    # ------------------------------------------------------------------ #
    @property
    def active_browsers(self) -> int:
        """Number of currently active EBs."""
        return sum(1 for browser in self._browsers if browser.active)

    def set_active_browsers(self, count: int, at_time: Optional[float] = None) -> None:
        """Grow or shrink the EB population to ``count``.

        The population includes *parked* browsers (those whose next request
        fell past the previous segment's end): shrinking stops them (which
        drops their parked request), growing only adds what is missing on
        top of them.
        """
        if count < 0:
            raise ValueError(f"EB count must be >= 0, got {count}")
        when = at_time if at_time is not None else self.engine.now
        active = [
            browser
            for browser in self._browsers
            if browser.active or browser.parked_time is not None
        ]
        if count < len(active):
            for browser in active[count:]:
                browser.stop()
            return
        to_add = count - len(active)
        if to_add <= 0:
            return
        # Stagger arrivals across one mean think time to avoid a thundering
        # herd.
        stagger = self.streams.engine("workload.start-stagger").uniform
        start_base = max(when, self.engine.now)
        for _ in range(to_add):
            browser = EmulatedBrowser(self._next_browser_id, self)
            self._next_browser_id += 1
            self._browsers.append(browser)
            browser.start(start_base + stagger(0.0, self.think_time_mean))

    def schedule_phases(self, phases: List[WorkloadPhase]) -> None:
        """Schedule EB-population changes for each phase."""
        if not phases:
            raise ValueError("at least one workload phase is required")
        ordered = sorted(phases, key=lambda phase: phase.start_time)
        for phase in ordered:
            self.engine.schedule_at(
                phase.start_time,
                lambda count=phase.eb_count: self.set_active_browsers(count),
                priority=-1,
                name=f"phase.{phase.eb_count}ebs",
            )

    # ------------------------------------------------------------------ #
    def run(self, duration: float) -> None:
        """Run the workload for ``duration`` simulated seconds.

        Consecutive calls form a multi-segment experiment: browsers whose
        next request fell beyond the previous segment's end were *parked*
        (not dropped) and are revived here, resuming their sessions where
        they left off.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        now = self.engine.now
        self.end_time = now + duration
        for browser in self._browsers:
            if browser.parked_time is not None:
                revive_at = max(browser.parked_time, now)
                if revive_at > self.end_time:
                    # This segment is too short to reach the parked request;
                    # keep it parked for a later segment instead of leaking a
                    # never-executed event into the heap.
                    continue
                browser.active = True
                if self._trace_names:
                    self.engine.schedule_at(
                        revive_at, browser._issue_request, name=browser._event_name
                    )
                else:
                    self.engine.schedule_callback(revive_at, browser._issue_request)
                browser.parked_time = None
        self.engine.run_until(self.end_time)
        self.throughput.finish(self.end_time)
        # Deactivate all browsers so a subsequent run() starts from a clean
        # slate, but keep their parked requests (unlike stop()) so the next
        # segment can revive the population above.
        for browser in self._browsers:
            browser.active = False

    # ------------------------------------------------------------------ #
    # Request accounting
    # ------------------------------------------------------------------ #
    def accounting(self) -> Dict[str, int]:
        """End-to-end request ledger.

        Every issued attempt lands in exactly one bucket — completion,
        error, or refusal (outage / shed / breaker); ``in_flight`` is the
        residual and must be zero at rest because the simulated server
        answers synchronously.
        """
        completions = self.completed_requests - self.error_count
        in_flight = self.issued_requests - self.completed_requests - self.refused_requests
        return {
            "issued": self.issued_requests,
            "completions": completions,
            "errors": self.error_count,
            "refusals": self.refused_requests,
            "in_flight": in_flight,
            "retries": self.retry_attempts,
            "client_timeouts": self.client_timeouts,
            "gave_up": self.gave_up_requests,
            "breaker_refusals": self.breaker_refusals,
            "shed_refusals": self.shed_refusals,
            "outage_refusals": self.outage_refusals,
        }

    def check_accounting(self) -> Dict[str, int]:
        """Assert ``completions + errors + refusals + in_flight == issued``
        (and ``in_flight == 0``); raises ``RuntimeError`` on violation."""
        ledger = self.accounting()
        total = (
            ledger["completions"]
            + ledger["errors"]
            + ledger["refusals"]
            + ledger["in_flight"]
        )
        if total != ledger["issued"] or ledger["in_flight"] != 0:
            raise RuntimeError(f"request accounting violated: {ledger}")
        return ledger

    # ------------------------------------------------------------------ #
    def throughput_series(self) -> TimeSeries:
        """Completed-requests-per-second over the reporting windows."""
        return self.throughput.series

    def mean_throughput(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Mean throughput over ``[start, end]`` (whole run by default)."""
        series = self.throughput.series
        if len(series) == 0:
            return 0.0
        values = series.values
        times = series.times
        import numpy as np

        mask = np.ones(len(values), dtype=bool)
        if start is not None:
            mask &= times >= start
        if end is not None:
            mask &= times <= end
        if not mask.any():
            return 0.0
        return float(values[mask].mean())

    def mean_response_time(self) -> float:
        """Mean response time across all completed requests."""
        if len(self.response_times) == 0:
            return 0.0
        return float(self.response_times.values.mean())
