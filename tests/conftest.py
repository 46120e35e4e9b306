"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.sim.engine import SimulationEngine
from repro.sim.random import RandomStreams
from repro.tpcw.application import TpcwDeployment, build_deployment
from repro.tpcw.population import PopulationScale


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh discrete-event engine."""
    return SimulationEngine()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams."""
    return RandomStreams(seed=1234)


@pytest.fixture
def tiny_deployment(engine: SimulationEngine) -> TpcwDeployment:
    """A TPC-W deployment at the smallest population scale, sharing the engine clock."""
    return build_deployment(scale=PopulationScale.tiny(), seed=7, clock=engine.clock)


@pytest.fixture
def monitored_deployment(engine: SimulationEngine, tiny_deployment: TpcwDeployment):
    """A tiny deployment with the monitoring framework installed.

    Yields ``(deployment, framework)``.
    """
    framework = MonitoringFramework(
        tiny_deployment,
        engine=engine,
        config=FrameworkConfig(sample_cost_seconds=1e-3, snapshot_interval=30.0),
    )
    framework.install()
    yield tiny_deployment, framework
    framework.uninstall()


class _NumpyScalarDraws:
    """A draw engine's methods as numpy scalar calls on one generator."""

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator

    def integers(self, low: int, high: int) -> int:
        return int(self._generator.integers(low, high))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._generator.uniform(low, high))

    def standard_exponential(self) -> float:
        return float(self._generator.standard_exponential())

    def standard_normal(self) -> float:
        return float(self._generator.standard_normal())


class NumpyScalarStreams(RandomStreams):
    """Random streams drawn through numpy's scalar ``Generator`` calls.

    One numpy call per draw, on each name's generator: the draw path the
    draw engine replaces and must reproduce bit for bit.
    """

    def stream(self, name: str) -> np.random.Generator:
        # The base engine only derives the generator; nothing draws through it.
        return RandomStreams.engine(self, name).rewind()

    def engine(self, name: str) -> _NumpyScalarDraws:
        return _NumpyScalarDraws(self.stream(name))

    def exponential(self, name: str, mean: float) -> float:
        return float(self.stream(name).exponential(mean))

    def uniform_int(self, name: str, low: int, high: int) -> int:
        return int(self.stream(name).integers(low, high + 1))

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.stream(name).uniform(low, high))

    def lognormal_service_time(self, name: str, mean: float, cv: float = 0.3) -> float:
        if cv == 0:
            return float(mean)
        sigma2 = np.log(1.0 + cv * cv)
        return float(
            self.stream(name).lognormal(mean=np.log(mean) - sigma2 / 2.0, sigma=np.sqrt(sigma2))
        )


@pytest.fixture(scope="session")
def numpy_scalar_streams():
    """The :class:`NumpyScalarStreams` class (session-scoped, so Hypothesis
    tests may take it)."""
    return NumpyScalarStreams
