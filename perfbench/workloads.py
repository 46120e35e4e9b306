"""The benchmark's workloads: one experiment configuration each, plus checks.

Every workload is a closed loop of emulated browsers (each waits for its
page, thinks, then asks for the next) driven through the repository's own
``run_experiment``.  One *iteration* runs one experiment from scratch, so an
iteration has a set-up phase (database population, weaving, scheduling) and
a run phase (the event loop).  Iterations of one seed are identical work,
which is what lets the benchmark keep the fastest repeat of each part.

Why these three (and which layers each one leans on):

* ``paper_leak`` is the paper's Fig. 4 experiment at its own population
  scale: full Aspect-Component monitoring of all 14 components and one
  100 KB leak in ``product_detail``.  SQL over the standard store and the
  per-request monitoring path (weaver, advice, agents, manager) dominate.
* ``focused_browsing`` keeps monitoring on one component only (the paper's
  activation knob) on a tiny store under the browsing mix, with no fault.
  Monitoring and SQL are nearly bypassed, so the engine, client, container
  and the disabled-aspect dispatch path dominate.  It is the workload on
  which a monitoring or planner optimisation should change nothing.
* ``fleet_hybrid`` is a three-shard fleet in hybrid mode: 5 % of 3000
  browsers run the discrete path, the rest is the fluid process, which
  amplifies the leak through the real injection path.  A JSONL metrics
  stream records the run.  Only this workload runs the fluid and obs layers.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.runner import ExperimentConfig, ExperimentResult
from repro.faults.injector import FaultSpec
from repro.tpcw.population import PopulationScale

LEAKY_COMPONENT = "product_detail"
FOCUSED_COMPONENT = "search_results"


def _leak() -> List[FaultSpec]:
    return [
        FaultSpec(
            component=LEAKY_COMPONENT,
            kind="memory-leak",
            params={"leak_bytes": 100 * 1024, "period_n": 100},
        )
    ]


def _paper_leak(seed: int, out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        name="perfbench-paper-leak",
        seed=seed,
        scale=PopulationScale.standard(),
        constant_ebs=100,
        duration=400.0,
        mix_name="shopping",
        faults=_leak(),
        snapshot_interval=30.0,
    )


def _focused_browsing(seed: int, out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        name="perfbench-focused-browsing",
        seed=seed,
        scale=PopulationScale.tiny(),
        constant_ebs=100,
        duration=600.0,
        mix_name="browsing",
        monitored_components=[FOCUSED_COMPONENT],
        snapshot_interval=30.0,
    )


def _fleet_hybrid(seed: int, out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        name="perfbench-fleet-hybrid",
        seed=seed,
        scale=PopulationScale.tiny(),
        constant_ebs=3000,
        duration=300.0,
        mix_name="shopping",
        faults=_leak(),
        snapshot_interval=30.0,
        shards=3,
        simulation_mode="hybrid",
        tracer_fraction=0.05,
        stream_metrics=_stream_path(out_dir),
    )


def _stream_path(out_dir: str) -> str:
    return os.path.join(out_dir, "fleet_hybrid.metrics.jsonl")


# --------------------------------------------------------------------------- #
# Checks: each returns the list of problems found (empty when correct)
# --------------------------------------------------------------------------- #
def _check_leak_localised(result: ExperimentResult, out_dir: str) -> List[str]:
    problems = []
    for shard in result.cluster.shards:
        report = shard.framework.root_cause()
        top = report.top()
        if top is None or top.component != LEAKY_COMPONENT:
            problems.append(
                f"shard {shard.index}: root cause is "
                f"{top.component if top else None!r}, expected {LEAKY_COMPONENT!r}"
            )
    growth = result.component_growth()
    leaked = growth.get(LEAKY_COMPONENT, 0.0)
    if leaked <= 0.0:
        problems.append(f"{LEAKY_COMPONENT} did not grow")
    for component, grown in growth.items():
        if component != LEAKY_COMPONENT and grown > 0.1 * leaked:
            problems.append(f"{component} grew {grown:.0f} B next to a {leaked:.0f} B leak")
    return problems


def _check_focused_browsing(result: ExperimentResult, out_dir: str) -> List[str]:
    problems = []
    visits = result.interaction_counts.get(FOCUSED_COMPONENT, 0)
    if visits == 0:
        problems.append(f"{FOCUSED_COMPONENT} was never visited")
    for name, aspect in result.framework.aspect_components.items():
        expected = visits if name == FOCUSED_COMPONENT else 0
        if aspect.invocation_count != expected:
            problems.append(
                f"aspect of {name} observed {aspect.invocation_count} executions, "
                f"expected {expected}"
            )
    return problems


def _check_fleet_hybrid(result: ExperimentResult, out_dir: str) -> List[str]:
    problems = _check_leak_localised(result, out_dir)
    fluid = result.fluid
    if fluid is None or fluid.updates == 0 or fluid.bulk_completions <= 0.0:
        problems.append("the fluid process served no bulk traffic")
    with open(_stream_path(out_dir), encoding="utf-8") as handle:
        records = handle.read().splitlines()
    last = json.loads(records[-1]) if records else {}
    if last.get("counters") != result.accounting:
        problems.append("the metrics stream's last record does not match the ledger")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, str], ExperimentConfig]
    check: Callable[[ExperimentResult, str], List[str]]
    streams_metrics: bool = False

    def digest(self, result: ExperimentResult, out_dir: str) -> str:
        """A fingerprint of a run's outputs; one seed must always give the same."""
        summary = {
            "completed": result.completed_requests,
            "issued": result.issued_requests,
            "events": result.executed_events,
            "interactions": sorted(result.interaction_counts.items()),
            "sizes": sorted(result.final_component_sizes().items()),
            "ranking": result.root_cause.ranking() if result.root_cause else [],
            "bulk": result.fluid.bulk_completions if result.fluid else 0.0,
        }
        digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
        if self.streams_metrics:
            with open(_stream_path(out_dir), "rb") as handle:
                digest.update(handle.read())
        return digest.hexdigest()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("paper_leak", _paper_leak, _check_leak_localised),
        Workload("focused_browsing", _focused_browsing, _check_focused_browsing),
        Workload("fleet_hybrid", _fleet_hybrid, _check_fleet_hybrid, streams_metrics=True),
    )
}
