"""Baseline monitors and analysers the paper compares against conceptually.

* :mod:`repro.baselines.blackbox`  -- a Ganglia/Nagios-style black-box host
  monitor: sees system-level metrics (heap, threads, throughput) and can
  detect that *something* is aging, but cannot name a component.
* :mod:`repro.baselines.pinpoint`  -- a Pinpoint-style analyser: correlates
  components with *failed requests*; powerful for fail-stop faults, but blind
  to resource-consumption aging that has not yet caused failures, and unable
  to separate components that always appear together.
* :mod:`repro.baselines.rejuvenation` -- time-based vs. proactive
  rejuvenation policies used by the extension benchmarks to quantify the
  benefit of knowing the root-cause component.
"""

from __future__ import annotations

from repro.baselines.blackbox import BlackBoxMonitor, BlackBoxReport
from repro.baselines.pinpoint import PinpointAnalyzer, PinpointReport
from repro.baselines.rejuvenation import (
    NoActionPolicy,
    PolicyObservation,
    ProactiveRejuvenationPolicy,
    RejuvenationAction,
    RejuvenationPolicy,
    TimeBasedRejuvenationPolicy,
    exposure_seconds,
)

__all__ = [
    "BlackBoxMonitor",
    "BlackBoxReport",
    "PinpointAnalyzer",
    "PinpointReport",
    "RejuvenationPolicy",
    "NoActionPolicy",
    "TimeBasedRejuvenationPolicy",
    "ProactiveRejuvenationPolicy",
    "RejuvenationAction",
    "PolicyObservation",
    "exposure_seconds",
]
