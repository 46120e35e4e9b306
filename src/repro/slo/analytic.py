"""Analytic no-action model: M/M/c queueing + leak-driven exhaustion.

The empirical SLA scalar ranks policies from *measured* trajectories; this
module cross-checks its no-action side against closed-form queueing theory,
so a drifting simulation (or a mis-sized workload) is caught by arithmetic
instead of by eyeballing curves.

Two classical pieces:

* **M/M/c service model** — the request stream (arrival rate ``λ`` from the
  workload configuration) offered to ``c`` servers (the JVM's thread
  capacity, from ``ServerConfig.thread_capacity``) each completing at
  service rate ``μ`` (from the sizing's per-request CPU demand).  The
  Erlang-C formula gives the probability a request must queue::

      a = λ/μ   (offered load, Erlangs)        ρ = a/c   (utilization)

      ErlangB(c, a) = (a^c/c!) / Σ_{k=0..c} a^k/k!      (iteratively)
      P(wait) = ErlangC(c, a) = B / (1 - ρ + ρ·B)       (ρ < 1)

  A healthy deployment sits deep in the ρ ≪ 1 regime — the model predicts
  (and the runs confirm) that no-action errors come from *exhaustion*, not
  queueing.

* **Leak exhaustion model** — the paper's random-countdown injector draws
  ``n ~ U[0, N]`` and fires on the (n+1)-th visit, so a component visited
  ``v`` times per second leaks one injection every ``N/2 + 1`` visits on
  average::

      growth/s        = v / (N/2 + 1) · units_per_injection
      time-to-exhaust = (fraction·capacity - baseline) / growth

  After exhaustion the workload keeps arriving, and the requests that touch
  the exhausted resource fail; the predicted failure count over the rest of
  the run converts into SLA-comparable unavailable seconds exactly the way
  :class:`~repro.slo.cost_model.SlaCostModel` converts measured failures.

The predicted and realized numbers are compared per workload in the
``analytic`` report table of ``fig_adaptive``; the
stated acceptance tolerance is a factor of :data:`TTE_TOLERANCE_FACTOR` —
the leak injections are bursty (a handful of large random-countdown jumps),
so exhaustion-time realizations scatter around the fluid-limit prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.metrics import TimeSeries

#: Stated tolerance of the exhaustion-time cross-check: the analytic
#: prediction must fall within this multiplicative factor of the realized
#: time (both directions).  A factor of 2 is deliberately loose — it is a
#: sanity cross-check against a bursty injector, not a fit.
TTE_TOLERANCE_FACTOR = 2.0

#: Hybrid-vs-discrete validation bands (methodology in
#: ``benchmarks/README.md``).  Throughput: relative error of the mean
#: completed-requests/s.  Exhaustion: multiplicative factor on the
#: (extrapolated) time-to-exhaustion, reusing the analytic cross-check's
#: convention.  Decisions: rejuvenation action counts within ±1 and the
#: first action's time within a factor of the decision tolerance.
HYBRID_THROUGHPUT_TOLERANCE = 0.15
HYBRID_TTE_TOLERANCE_FACTOR = 2.0
HYBRID_DECISION_COUNT_SLACK = 1
HYBRID_DECISION_TIME_FACTOR = 2.0


# --------------------------------------------------------------------------- #
# M/M/c queueing
# --------------------------------------------------------------------------- #
def erlang_b(servers: int, offered_load: float) -> float:
    """Erlang-B blocking probability for ``servers`` and ``offered_load``.

    Computed with the standard numerically-stable recurrence
    ``B(0) = 1; B(k) = a·B(k-1) / (k + a·B(k-1))``.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered_load must be non-negative, got {offered_load}")
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    return blocking


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C probability that an arriving request must wait.

    Returns 1.0 for an unstable system (``offered_load >= servers``): every
    request eventually queues behind an unbounded backlog.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered_load must be non-negative, got {offered_load}")
    if offered_load == 0:
        return 0.0
    if offered_load >= servers:
        return 1.0
    utilization = offered_load / servers
    blocking = erlang_b(servers, offered_load)
    return blocking / (1.0 - utilization + utilization * blocking)


@dataclass(frozen=True)
class MmcMetrics:
    """Steady-state M/M/c metrics for one (λ, μ, c) triple."""

    arrival_rate: float
    service_rate: float
    servers: int

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError(f"arrival_rate must be non-negative, got {self.arrival_rate}")
        if self.service_rate <= 0:
            raise ValueError(f"service_rate must be positive, got {self.service_rate}")
        if self.servers < 1:
            raise ValueError(f"servers must be >= 1, got {self.servers}")

    @property
    def offered_load(self) -> float:
        """``a = λ/μ`` in Erlangs."""
        return self.arrival_rate / self.service_rate

    @property
    def utilization(self) -> float:
        """``ρ = a/c``."""
        return self.offered_load / self.servers

    @property
    def stable(self) -> bool:
        """Whether the queue has a steady state (``ρ < 1``)."""
        return self.utilization < 1.0

    @property
    def wait_probability(self) -> float:
        """Erlang-C probability that an arriving request queues."""
        return erlang_c(self.servers, self.offered_load)

    @property
    def mean_queue_length(self) -> float:
        """Mean number of waiting requests (infinite when unstable)."""
        if not self.stable:
            return math.inf
        rho = self.utilization
        return self.wait_probability * rho / (1.0 - rho)

    @property
    def mean_wait_seconds(self) -> float:
        """Mean queueing delay of a request (infinite when unstable)."""
        if self.arrival_rate == 0:
            return 0.0
        if not self.stable:
            return math.inf
        return self.mean_queue_length / self.arrival_rate


def mmc_metrics(arrival_rate: float, service_rate: float, servers: int) -> MmcMetrics:
    """Convenience constructor (validates through :class:`MmcMetrics`)."""
    return MmcMetrics(
        arrival_rate=float(arrival_rate),
        service_rate=float(service_rate),
        servers=int(servers),
    )


# --------------------------------------------------------------------------- #
# Closed-loop fluid rates (hybrid simulation)
# --------------------------------------------------------------------------- #
def capped_exponential_mean(mean: float, cap: float) -> float:
    """Mean of ``min(X, cap)`` for ``X ~ Exp(mean)``.

    The TPC-W think time is a capped exponential (7 s mean, 70 s cap), so
    the fluid bulk population must cycle at the *capped* mean —
    ``E[min(X, c)] = m·(1 − e^(−c/m))`` — or it would under-offer load
    relative to the discrete browsers.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    return mean * (1.0 - math.exp(-cap / mean))


def closed_loop_rate(population: float, think_mean: float, response_time: float) -> float:
    """Arrival rate of ``population`` closed-loop clients.

    The interactive response time law ``λ = N / (Z + R)``: each browser
    cycles through one request plus one think period, so the offered rate
    is the population over the mean cycle time.
    """
    if population < 0:
        raise ValueError(f"population must be non-negative, got {population}")
    cycle = think_mean + max(0.0, response_time)
    if cycle <= 0:
        raise ValueError(f"cycle time must be positive, got {cycle}")
    return population / cycle


# --------------------------------------------------------------------------- #
# Leak exhaustion
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LeakWorkloadModel:
    """Fluid-limit model of one leak workload's no-action run.

    Parameters
    ----------
    resource:
        Channel name (``"heap"``/``"threads"``/``"connections"``) — labels
        the report row.
    capacity:
        Units at which the resource is exhausted (bytes, threads, pooled
        connections).
    baseline:
        Units already consumed by a freshly deployed, leak-free instance.
    units_per_injection:
        Units each fired injection leaks (``leak_bytes`` for memory, 1 for
        a thread or a connection).
    period_n:
        The random-countdown parameter ``N`` (``n ~ U[0, N]``, fires on the
        (n+1)-th visit).
    trigger_visits_per_second:
        Visit rate of the leaking component (injections only happen there).
    failing_request_rate:
        Requests per second that fail once the resource is exhausted — the
        whole stream for a shared pool, only the injection attempts for a
        heap/thread wall.
    exhaustion_fraction:
        Fraction of capacity at which the run is considered exhausted on
        *both* sides of the cross-check (1.0 for hard pool bounds; below
        1.0 for the heap, which fails with OOMs near — not exactly at —
        the wall because the GC needs headroom).
    """

    resource: str
    capacity: float
    baseline: float
    units_per_injection: float
    period_n: int
    trigger_visits_per_second: float
    failing_request_rate: float
    exhaustion_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.baseline < 0:
            raise ValueError(f"baseline must be non-negative, got {self.baseline}")
        if self.units_per_injection <= 0:
            raise ValueError(
                f"units_per_injection must be positive, got {self.units_per_injection}"
            )
        if self.period_n < 0:
            raise ValueError(f"period_n must be non-negative, got {self.period_n}")
        if self.trigger_visits_per_second < 0:
            raise ValueError(
                f"trigger_visits_per_second must be non-negative, "
                f"got {self.trigger_visits_per_second}"
            )
        if self.failing_request_rate < 0:
            raise ValueError(
                f"failing_request_rate must be non-negative, "
                f"got {self.failing_request_rate}"
            )
        if not 0.0 < self.exhaustion_fraction <= 1.0:
            raise ValueError(
                f"exhaustion_fraction must be in (0, 1], got {self.exhaustion_fraction}"
            )

    @property
    def mean_visits_per_injection(self) -> float:
        """Expected visits between injections: ``E[U[0,N]] + 1 = N/2 + 1``."""
        return self.period_n / 2.0 + 1.0

    @property
    def growth_per_second(self) -> float:
        """Expected leaked units per second."""
        return (
            self.trigger_visits_per_second
            / self.mean_visits_per_injection
            * self.units_per_injection
        )

    def time_to_exhaustion(self) -> Optional[float]:
        """Predicted seconds until the exhaustion threshold is reached.

        ``None`` when the resource never grows; ``0.0`` when the baseline
        already sits at (or beyond) the threshold.
        """
        growth = self.growth_per_second
        if growth <= 0:
            return None
        remaining = self.exhaustion_fraction * self.capacity - self.baseline
        return max(0.0, remaining / growth)

    def predicted_failed_requests(self, duration_seconds: float) -> float:
        """Expected failed requests over a no-action run of ``duration_seconds``."""
        if duration_seconds <= 0:
            raise ValueError(f"duration must be positive, got {duration_seconds}")
        tte = self.time_to_exhaustion()
        if tte is None or tte >= duration_seconds:
            return 0.0
        return self.failing_request_rate * (duration_seconds - tte)

    def predicted_unavailable_seconds(
        self, duration_seconds: float, failure_downtime_equivalent_seconds: float = 1.0
    ) -> float:
        """Predicted failures converted to SLA-comparable unavailable seconds."""
        return (
            self.predicted_failed_requests(duration_seconds)
            * failure_downtime_equivalent_seconds
        )


# --------------------------------------------------------------------------- #
# Realized side + tolerance
# --------------------------------------------------------------------------- #
def realized_exhaustion_time(
    series: TimeSeries, capacity: float, fraction: float = 1.0
) -> Optional[float]:
    """First time the monitored series reaches ``fraction * capacity``.

    ``None`` when the run never got there (e.g. a recycling policy kept the
    resource below the threshold).
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if len(series) == 0:
        return None
    crossed = np.flatnonzero(series.values >= fraction * capacity)
    if crossed.size == 0:
        return None
    return float(series.times[crossed[0]])


def extrapolated_exhaustion_time(
    series: TimeSeries, capacity: float, fraction: float = 1.0
) -> Optional[float]:
    """Exhaustion time, linearly extrapolated when the run ended short.

    Falls back to :func:`realized_exhaustion_time` when the series actually
    crossed the threshold.  Otherwise fits a line to the observed growth and
    projects the crossing; ``None`` when the series is too short or not
    growing.  Hybrid validation compares *extrapolated* times so short
    smoke runs (which never reach the wall) still check the growth rates.
    """
    crossed = realized_exhaustion_time(series, capacity, fraction)
    if crossed is not None:
        return crossed
    if len(series) < 2:
        return None
    times = series.times
    values = series.values
    slope, intercept = np.polyfit(times, values, 1)
    if slope <= 0:
        return None
    return float((fraction * capacity - intercept) / slope)


def within_tolerance(
    analytic: Optional[float],
    realized: Optional[float],
    factor: float = TTE_TOLERANCE_FACTOR,
) -> Optional[bool]:
    """Whether prediction and realization agree within a multiplicative band.

    ``None`` when either side is missing (nothing to compare).
    """
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if analytic is None or realized is None:
        return None
    if analytic <= 0 or realized <= 0:
        return analytic == realized
    ratio = analytic / realized
    return 1.0 / factor <= ratio <= factor
