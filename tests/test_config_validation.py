"""A config is a value: validated before anything runs, never mutated.

``ExperimentConfig.validate`` gathers every config check and builds
nothing, so a bad config fails before a population is built; a
``Comparison`` validates its configs when it is built.  The property test
walks the config combinations the subsystems interact over: every
combination ``validate`` accepts must run with both request ledgers intact.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner
from repro.baselines.rejuvenation import NoActionPolicy, TimeBasedRejuvenationPolicy
from repro.container.resilience import ResilienceConfig
from repro.experiments.cluster import BALANCER_POLICIES, FLEET_REJUVENATION_MODES
from repro.experiments.deploy import ComponentVersion, RolloutPlan
from repro.experiments.reporting import accounting_sanity_check
from repro.experiments.runner import SIMULATION_MODES, ExperimentConfig, run_experiment
from repro.experiments.scenarios import (
    Comparison,
    client_observation,
    fig4_single_leak,
    fig_learning,
)
from repro.faults.injector import FaultSpec
from repro.obs.registry import MetricsRegistry
from repro.tpcw.population import PopulationScale

TINY = PopulationScale.tiny()


def _rollout(kind: str, shards: int):
    """No rollout, a blind ``(N,)`` ladder, or the default ruled ladder."""
    if kind == "none":
        return None
    return RolloutPlan(
        version=ComponentVersion(component="home", version="v2"),
        start_time=10.0,
        stage_sizes=(shards,) if kind == "blind" else None,
        stage_bake_seconds=10.0,
        stagger_seconds=5.0,
        deploy_downtime_seconds=1.0,
    )


_COST = "sample_cost_seconds must be non-negative and finite"

#: One case per config that used to fail only after the cluster was built
#: (or, for the mix and the fault kind, with a ``KeyError``; or, for the
#: monitored components and the hybrid fault, not at all): overrides -> the
#: error's wording.
LATE_FAILURES = {
    "rejuvenation-unmonitored": (
        dict(monitored=False, rejuvenation=NoActionPolicy()), "monitored=True"
    ),
    "unknown-balancer": (dict(shards=3, balancer_policy="random"), "unknown balancer_policy"),
    "unknown-mix": (dict(mix_name="weekend"), "unknown mix_name"),
    "zero-duration": (dict(duration=0.0), "duration must be positive"),
    "hybrid-no-tracers": (
        dict(simulation_mode="hybrid", tracer_fraction=0.0), "tracer_fraction"
    ),
    "ruled-rollout-unmonitored": (
        dict(monitored=False, shards=2, rollout=_rollout("canary", 2)), "ruled stage"
    ),
    "zero-snapshot-interval": (dict(snapshot_interval=0.0), "snapshot_interval"),
    # Used to pass and die in numpy's SeedSequence while building the store.
    "negative-seed": (dict(seed=-1), "seed must be non-negative"),
    # Used to pass: NaN fails no `<= 0` check, and a run whose end time is
    # NaN never stops (`time > nan` is never true).
    "nan-duration": (dict(duration=float("nan")), "duration must be positive"),
    "inf-duration": (dict(duration=float("inf")), "duration must be positive"),
    "nan-snapshot-interval": (
        dict(snapshot_interval=float("nan")), "snapshot_interval must be positive"
    ),
    "nan-think-time": (dict(think_time_mean=float("nan")), "think_time_mean must be positive"),
    # Used to pass and die in the event loop (``WindowedRate.mark`` cannot
    # index a NaN or infinite completion time).
    "nan-sample-cost": (dict(sample_cost_seconds=float("nan")), _COST),
    "inf-sample-cost": (dict(sample_cost_seconds=float("inf")), _COST),
    "negative-sample-cost": (dict(sample_cost_seconds=-1e-3), _COST),
    "fault-on-unknown-component": (
        dict(faults=[FaultSpec("nosuch", "memory-leak")]), "unknown component 'nosuch'"
    ),
    "unknown-fault-kind": (
        dict(faults=[FaultSpec("home", "nosuch")]), r"unknown fault kind .*memory-leak"
    ),
    "bad-fault-parameter": (
        dict(faults=[FaultSpec("home", "memory-leak", {"leak_bytes": -5})]),
        "leak_bytes must be positive",
    ),
    "rollout-fault-unknown-kind": (
        dict(
            shards=2,
            rollout=RolloutPlan(
                version=ComponentVersion("home", "v2", faults=(FaultSpec("home", "nosuch"),)),
                start_time=10.0,
            ),
        ),
        "unknown fault kind",
    ),
    "unknown-monitored-component": (
        dict(monitored_components=["nosuch"]), "monitored_components names unknown"
    ),
    "hybrid-tracer-only-fault": (
        dict(simulation_mode="hybrid", faults=[FaultSpec("home", "lock-convoy")]),
        "memory-leak, thread-leak, connection-leak",
    ),
    # Used to fail each firing as an error page at run time.
    "cascade-unknown-victim": (
        dict(faults=[FaultSpec("product_detail", "correlated-cascade", {"victim": "nosuch"})]),
        "victim, got 'nosuch'",
    ),
    "cascade-own-victim": (
        dict(faults=[FaultSpec("home", "correlated-cascade", {"victim": "home"})]),
        "victim, got 'home'",
    ),
    # Used to run with the version's leak on the tracers alone.
    "hybrid-rollout-version-fault": (
        dict(
            simulation_mode="hybrid",
            shards=2,
            rollout=RolloutPlan(
                version=ComponentVersion(
                    "home", "v2", faults=(FaultSpec("home", "memory-leak"),)
                ),
                start_time=10.0,
                stage_sizes=(2,),
            ),
        ),
        "rollout version's faults",
    ),
}


@pytest.mark.parametrize("case", sorted(LATE_FAILURES))
def test_bad_config_fails_in_validate_before_anything_is_built(case, monkeypatch):
    overrides, message = LATE_FAILURES[case]
    config = replace(
        ExperimentConfig(name=case, scale=TINY, constant_ebs=5, duration=30.0), **overrides
    )
    with pytest.raises(ValueError, match=message):
        config.validate()

    def build_nothing(*args, **kwargs):
        raise AssertionError("run_experiment built a cluster for an invalid config")

    monkeypatch.setattr(runner, "build_cluster", build_nothing)
    with pytest.raises(ValueError, match=message):
        run_experiment(config)
    with pytest.raises(ValueError, match=message):
        Comparison(
            title="t",
            expectation="e",
            context=[],
            configs={"only": config},
            observe=client_observation,
            caption="c",
            columns=("mode",),
        )


@pytest.mark.parametrize("duration_scale", [float("nan"), float("inf")])
def test_scenario_builder_refuses_a_non_finite_duration_scale(duration_scale):
    # Used to build a config with duration=nan, which validated and then ran
    # without end.
    with pytest.raises(ValueError, match="duration_scale must be positive"):
        fig4_single_leak(duration_scale=duration_scale, scale=TINY)


def test_pool_refuses_configs_a_run_writes_back_into(tmp_path):
    learning = fig_learning(
        duration_scale=0.02, scale=TINY, runs=2, store_path=str(tmp_path / "store.json")
    )
    with pytest.raises(ValueError, match="serially"):
        learning.run(jobs=2)
    observed = Comparison(
        title="t",
        expectation="e",
        context=[],
        configs={"only": ExperimentConfig(scale=TINY, metrics_registry=MetricsRegistry())},
        observe=client_observation,
        caption="c",
        columns=("mode",),
    )
    with pytest.raises(ValueError, match="serially"):
        observed.run(jobs=2)
    # Nothing ran: the store was never written.
    assert not (tmp_path / "store.json").exists()


_POLICIES = {
    "none": lambda: None,
    "no-action": NoActionPolicy,
    "time-based": lambda: TimeBasedRejuvenationPolicy(interval=15.0, restart_downtime=1.0),
}
_RESILIENCE = {
    "none": lambda: None,
    "default": ResilienceConfig,
    "full": lambda: ResilienceConfig.full(timeout_seconds=2.0),
}


@settings(max_examples=60, deadline=None)
@given(
    shards=st.sampled_from([1, 2, 3]),
    mode=st.sampled_from(SIMULATION_MODES),
    monitored=st.booleans(),
    resilience=st.sampled_from(sorted(_RESILIENCE)),
    rollout=st.sampled_from(["none", "blind", "canary"]),
    rejuvenation=st.sampled_from(sorted(_POLICIES)),
    fleet=st.sampled_from((None,) + FLEET_REJUVENATION_MODES),
    balancer=st.sampled_from(BALANCER_POLICIES),
)
def test_every_config_validate_accepts_runs_with_both_ledgers(
    shards, mode, monitored, resilience, rollout, rejuvenation, fleet, balancer
):
    config = ExperimentConfig(
        name="combination",
        seed=3,
        scale=TINY,
        constant_ebs=8,
        duration=45.0,
        snapshot_interval=5.0,
        faults=[
            FaultSpec("home", "memory-leak", {"leak_bytes": 64 * 1024, "period_n": 3})
        ],
        monitored=monitored,
        shards=shards,
        simulation_mode=mode,
        resilience=_RESILIENCE[resilience](),
        rollout=_rollout(rollout, shards),
        rejuvenation=_POLICIES[rejuvenation](),
        fleet_rejuvenation=fleet,
        balancer_policy=balancer,
    )
    try:
        config.validate()
    except ValueError:
        return
    # run_experiment raises on a client-ledger or fleet-ledger violation.
    result = run_experiment(config)
    accounting_sanity_check(result)
    assert len(result.shard_heap_series) == shards
    assert len(result.shard_rejuvenation) == (shards if config.rejuvenation else 0)
