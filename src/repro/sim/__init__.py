"""Discrete-event simulation substrate.

Every experiment in this reproduction runs on *virtual time*: a one-hour
TPC-W run (the paper's experiment length) completes in seconds of wall time.
The substrate provides:

* :class:`~repro.sim.clock.SimClock` -- the virtual clock.
* :class:`~repro.sim.engine.SimulationEngine` -- event queue + scheduler.
* :class:`~repro.sim.random.RandomStreams` -- named, independently seeded RNG
  streams so every stochastic decision in the system is reproducible.
* :class:`~repro.sim.metrics.TimeSeries` /
  :class:`~repro.sim.metrics.WindowedRate` -- time-series recorders.
* :mod:`~repro.sim.resources` -- capacity resources (CPU, thread slots)
  used by the container to turn load into queueing delay.
"""

from __future__ import annotations

from repro.sim.clock import SimClock
from repro.sim.engine import Event, SimulationEngine, StopSimulation
from repro.sim.metrics import TimeSeries, WindowedRate
from repro.sim.random import RandomStreams
from repro.sim.resources import CapacityResource, ResourceBusyError

__all__ = [
    "SimClock",
    "SimulationEngine",
    "Event",
    "StopSimulation",
    "RandomStreams",
    "TimeSeries",
    "WindowedRate",
    "CapacityResource",
    "ResourceBusyError",
]
