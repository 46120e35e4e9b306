"""Property tests for the hybrid fluid/discrete execution mode (ISSUE 9).

Three families:

* hybrid-vs-discrete tolerance bands — at tiny scale, across seeds, the
  hybrid run's throughput and heap growth must stay inside the same bands
  the ``fig_scale`` CI gate enforces;
* ledger conservation — the tracer population's request accounting must
  balance exactly under hybrid execution (the fluid bulk feeds the
  throughput *series* but never the counters);
* vectorised generation bit-identity — the workload generator's batched
  RNG draws must reproduce the scalar draw stream bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

import numpy as np
import pytest

from repro.container.resilience import ResilienceConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.scenarios import fig_scale
from repro.faults.injector import FaultInjector, FaultSpec
from repro.faults.memory_leak import MemoryLeakFault
from repro.jvm.heap import OutOfMemoryError
from repro.sim.engine import SimulationEngine
from repro.sim.fluid import _FluidRequest, split_phases
from repro.sim.random import RandomStreams
from repro.slo.analytic import HYBRID_THROUGHPUT_TOLERANCE, within_tolerance
from repro.tpcw.application import build_deployment
from repro.tpcw.population import PopulationScale
from repro.tpcw.workload import WorkloadGenerator, WorkloadPhase

COMPONENT = "product_detail"


def _leak_config(mode: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"hybrid-prop-{mode}-{seed}",
        seed=seed,
        scale=PopulationScale.tiny(),
        constant_ebs=60,
        duration=240.0,
        mix_name="shopping",
        monitored=True,
        faults=[
            FaultSpec(
                component=COMPONENT,
                kind="memory-leak",
                # Leak sized to dominate heap growth over transient request
                # garbage, so the growth band measures the leak, not GC noise.
                params={"leak_bytes": 2 * 1024 * 1024, "period_n": 5},
            )
        ],
        snapshot_interval=10.0,
        simulation_mode=mode,
        tracer_fraction=0.1,
    )


def _leak_triggers(result) -> int:
    total = 0
    for shard in result.cluster.shards:
        if shard.injector is None:
            continue
        for _component, fault in shard.injector.injected:
            total += fault.trigger_count
    return total


# --------------------------------------------------------------------------- #
# Tolerance bands across seeds
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [7, 11, 2026])
def test_hybrid_matches_discrete_within_bands(seed):
    discrete = run_experiment(_leak_config("discrete", seed))
    hybrid = run_experiment(_leak_config("hybrid", seed))

    reference = discrete.mean_throughput()
    assert reference > 0
    rel_diff = abs(hybrid.mean_throughput() - reference) / reference
    assert rel_diff <= HYBRID_THROUGHPUT_TOLERANCE

    # The fluid side must age the heap like the discrete bulk would: the
    # amplified leak fires within the same factor-of-two band, and with the
    # leak dominating allocation the observed heap growth tracks it too.
    assert within_tolerance(
        _leak_triggers(discrete), _leak_triggers(hybrid), 2.0
    )
    discrete_growth = float(discrete.heap_series.values[-1] - discrete.heap_series.values[0])
    hybrid_growth = float(hybrid.heap_series.values[-1] - hybrid.heap_series.values[0])
    assert discrete_growth > 0
    assert within_tolerance(discrete_growth, hybrid_growth, 2.0)

    # The hybrid run exists to execute fewer discrete events.
    assert hybrid.executed_events < discrete.executed_events


def test_hybrid_fluid_report_populated():
    result = run_experiment(_leak_config("hybrid", 7))
    fluid = result.fluid
    assert fluid is not None
    assert fluid.updates > 0
    assert fluid.bulk_completions > 0
    assert fluid.bulk_peak_population > 0
    # The amplified leak must have fired on the fluid side.
    assert fluid.amplified_injections.get("memory-leak", 0) > 0
    # Visits follow the stationary mix: the faulted component is among them.
    assert fluid.component_visits.get(COMPONENT, 0.0) > 0.0


def test_hybrid_run_whose_heap_fills_completes(monkeypatch):
    """The scale comparison's hybrid run without rejuvenation fills its heap.

    The run completes: the bulk's firings on a full heap are dropped and
    counted, as the discrete path fails such a request, and later ticks fire
    again (a micro-reboot could have freed the heap in between).
    """
    fluid_oom_ticks = set()
    inject = MemoryLeakFault._inject

    def recording_inject(fault, servlet, request):
        try:
            inject(fault, servlet, request)
        except OutOfMemoryError:
            if isinstance(request, _FluidRequest):
                fluid_oom_ticks.add(request.arrival_time)
            raise

    monkeypatch.setattr(MemoryLeakFault, "_inject", recording_inject)
    comparison = fig_scale(duration_scale=0.1, seed=42, scale=PopulationScale.tiny())
    config = replace(comparison.configs["hybrid"], rejuvenation=None)
    config.validate()
    result = run_experiment(config)
    assert result.fluid.dropped_injections.get("memory-leak", 0) >= len(fluid_oom_ticks) > 1
    assert result.fluid.amplified_injections.get("memory-leak", 0) > 0
    # The tracers' requests meet the same full heap and fail.
    assert result.error_count > 0


def test_unknown_simulation_mode_rejected():
    config = _leak_config("discrete", 7)
    config.simulation_mode = "fluid-only"
    with pytest.raises(ValueError):
        run_experiment(config)


# --------------------------------------------------------------------------- #
# Ledger conservation
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [7, 11])
def test_tracer_ledger_conserved_under_hybrid(seed):
    result = run_experiment(_leak_config("hybrid", seed))
    ledger = result.accounting
    assert ledger["in_flight"] == 0
    assert (
        ledger["completions"] + ledger["errors"] + ledger["refusals"]
        == ledger["issued"]
    )
    # The fluid bulk marks the throughput series but never the counters:
    # issued stays at tracer volume (~10 % of the discrete run's), while the
    # series carries the bulk's completions on top.
    discrete = run_experiment(_leak_config("discrete", seed))
    assert result.issued_requests < discrete.issued_requests / 2
    assert result.fluid is not None
    series_total = result.mean_throughput() * result.config.duration
    assert series_total > result.completed_requests


def test_split_phases_conserves_population():
    rng = np.random.default_rng(5)
    for _ in range(200):
        phases = [
            WorkloadPhase(start_time=float(index * 60), eb_count=int(rng.integers(0, 500)))
            for index in range(int(rng.integers(1, 6)))
        ]
        fraction = float(rng.uniform(0.01, 0.5))
        tracers, bulk = split_phases(phases, fraction)
        assert len(tracers) == len(bulk) == len(phases)
        for original, tracer, rest in zip(phases, tracers, bulk):
            assert tracer.eb_count + rest.eb_count == original.eb_count
            assert tracer.start_time == rest.start_time == original.start_time
            if original.eb_count:
                assert tracer.eb_count >= 1


# --------------------------------------------------------------------------- #
# Engine draws bit-identity
# --------------------------------------------------------------------------- #
def _run_generator(streams: RandomStreams) -> Tuple[WorkloadGenerator, int]:
    """A run over every draw site; returns its generator and leak count."""
    engine = SimulationEngine()
    deployment = build_deployment(
        scale=PopulationScale.tiny(), streams=streams, clock=engine.clock
    )
    # Besides the store, servlets, service times and workload: the fault's
    # countdown and the resilient client's jittered backoff.
    leak = FaultInjector(deployment).inject_spec(
        FaultSpec("product_detail", "memory-leak", {"period_n": 5})
    )
    generator = WorkloadGenerator(
        engine, deployment, resilience=ResilienceConfig(timeout_seconds=0.02, max_attempts=3)
    )
    generator.schedule_phases(
        [
            WorkloadPhase(start_time=0.0, eb_count=15),
            WorkloadPhase(start_time=60.0, eb_count=30),
            WorkloadPhase(start_time=120.0, eb_count=8),
        ]
    )
    generator.run(180.0)
    return generator, leak.trigger_count


def test_batched_draws_bit_identical_to_scalar(numpy_scalar_streams):
    """The draw engine's batched draws against one numpy scalar call per draw."""
    batched, batched_leaks = _run_generator(RandomStreams(123))
    scalar, scalar_leaks = _run_generator(numpy_scalar_streams(123))
    assert batched.retry_attempts > 0 and batched_leaks > 0
    assert (batched.retry_attempts, batched_leaks) == (scalar.retry_attempts, scalar_leaks)
    assert batched.completed_requests == scalar.completed_requests
    assert batched.error_count == scalar.error_count
    assert batched.issued_requests == scalar.issued_requests
    assert dict(batched.interaction_counts) == dict(scalar.interaction_counts)
    assert np.array_equal(batched.response_times.times, scalar.response_times.times)
    assert np.array_equal(batched.response_times.values, scalar.response_times.values)
