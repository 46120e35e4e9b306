"""Tests for the cross-run calibration store (ISSUE 5 tentpole).

Covers the persistence layer in isolation — bit-identical round-trips,
unknown signatures, corrupted/truncated stores falling back to a cold start
with a warning — plus the workload-signature scheme (seed-independent,
sizing/rate-sensitive), the adaptive policy's warm-start surface, and the
runner wiring that persists and reapplies the calibration.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.container.server import ServerConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults.injector import FaultSpec
from repro.slo.adaptive_policy import AdaptiveRejuvenationPolicy
from repro.slo.calibration import (
    CalibrationRecord,
    CalibrationStore,
    CalibrationStoreWarning,
    ResourceCalibration,
    workload_signature,
)
from repro.slo.predictors import PredictionErrorStats
from repro.tpcw.population import PopulationScale


def make_stats(folds) -> PredictionErrorStats:
    stats = PredictionErrorStats()
    for predicted, realized in folds:
        stats.fold(predicted, realized)
    return stats


def make_policy(**overrides) -> AdaptiveRejuvenationPolicy:
    params = dict(base_horizon=100.0, min_horizon=25.0, max_horizon=400.0)
    params.update(overrides)
    return AdaptiveRejuvenationPolicy(**params)


# --------------------------------------------------------------------------- #
# PredictionErrorStats state round-trip
# --------------------------------------------------------------------------- #
class TestStatsState:
    def test_round_trip_is_bit_identical(self):
        stats = make_stats([(100.0, 93.7), (55.5, 61.2), (0.125, 0.3)])
        rebuilt = PredictionErrorStats.from_state(stats.to_state())
        assert rebuilt.to_state() == stats.to_state()
        assert rebuilt.bias_seconds == stats.bias_seconds
        assert rebuilt.mae_seconds == stats.mae_seconds
        assert rebuilt.calibration == stats.calibration

    def test_json_round_trip_is_bit_identical(self):
        # Through an actual JSON encode/decode: repr-exact float survival.
        stats = make_stats([(1234.5678, 901.2345), (3.3, 7.7)])
        decoded = json.loads(json.dumps(stats.to_state()))
        assert PredictionErrorStats.from_state(decoded).to_state() == stats.to_state()

    def test_merge_adds_sums(self):
        a = make_stats([(10.0, 5.0)])
        b = make_stats([(20.0, 25.0), (7.0, 7.0)])
        merged = a.copy()
        merged.merge(b)
        assert merged.count == 3
        reference = make_stats([(10.0, 5.0), (20.0, 25.0), (7.0, 7.0)])
        assert merged.to_state() == reference.to_state()

    def test_copy_is_independent(self):
        original = make_stats([(10.0, 5.0)])
        clone = original.copy()
        clone.fold(1.0, 1.0)
        assert original.count == 1
        assert clone.count == 2

    @pytest.mark.parametrize(
        "state",
        [
            "not-a-dict",
            {"count": -1, "sum_error": 0.0, "sum_abs_error": 0.0, "sum_ratio": 0.0},
            {"count": 1.5, "sum_error": 0.0, "sum_abs_error": 0.0, "sum_ratio": 0.0},
            {"count": True, "sum_error": 0.0, "sum_abs_error": 0.0, "sum_ratio": 0.0},
            {"count": 1, "sum_error": "x", "sum_abs_error": 0.0, "sum_ratio": 0.0},
            {"count": 1, "sum_error": 0.0, "sum_abs_error": True, "sum_ratio": 0.0},
            {"count": 1},
        ],
    )
    def test_from_state_rejects_malformed(self, state):
        with pytest.raises((TypeError, ValueError, KeyError)):
            PredictionErrorStats.from_state(state)

    def test_difference_subtracts_a_snapshot(self):
        stats = make_stats([(10.0, 5.0), (20.0, 25.0)])
        snapshot = stats.copy()
        stats.fold(7.0, 7.0)
        delta = stats.difference(snapshot)
        assert delta.to_state() == make_stats([(7.0, 7.0)]).to_state()
        with pytest.raises(ValueError):
            snapshot.difference(stats)  # baseline with more folds


# --------------------------------------------------------------------------- #
# Store round-trip + corruption
# --------------------------------------------------------------------------- #
class TestCalibrationStore:
    def populated_store(self, path) -> CalibrationStore:
        store = CalibrationStore(str(path))
        policy = make_policy()
        policy.predictor("heap").stats.merge(make_stats([(90.0, 80.0), (30.0, 28.5)]))
        policy._adapt("heap", 1.0)  # converge away from base
        policy.predictor("connections").stats.merge(make_stats([(10.0, 40.0)]))
        store.record_run("sig-a", policy)
        store.save()
        return store

    def test_save_load_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "calibration.json"
        store = self.populated_store(path)
        record = store.lookup("sig-a")
        reloaded = CalibrationStore(str(path))
        assert reloaded.loaded_from_disk
        assert reloaded.signatures() == ["sig-a"]
        loaded = reloaded.lookup("sig-a")
        assert loaded.runs == record.runs
        assert sorted(loaded.resources) == sorted(record.resources)
        for resource in record.resources:
            assert (
                loaded.resources[resource].stats.to_state()
                == record.resources[resource].stats.to_state()
            )
            assert (
                loaded.resources[resource].horizon_s
                == record.resources[resource].horizon_s
            )

    def test_unknown_signature_is_cold(self, tmp_path):
        store = self.populated_store(tmp_path / "calibration.json")
        assert store.lookup("some-other-workload") is None

    def test_missing_file_is_silent_cold_start(self, tmp_path, recwarn):
        store = CalibrationStore(str(tmp_path / "nope" / "calibration.json"))
        assert not store.loaded_from_disk
        assert len(store) == 0
        assert not any(
            isinstance(w.message, CalibrationStoreWarning) for w in recwarn.list
        )

    def test_truncated_json_warns_and_cold_starts(self, tmp_path):
        path = tmp_path / "calibration.json"
        self.populated_store(path)
        content = path.read_text()
        path.write_text(content[: len(content) // 2])
        with pytest.warns(CalibrationStoreWarning, match="starting cold"):
            store = CalibrationStore(str(path))
        assert not store.loaded_from_disk
        assert store.lookup("sig-a") is None

    @pytest.mark.parametrize(
        "content",
        [
            "",  # empty file
            "\x00\x01garbage\xff",  # binary junk
            "[1, 2, 3]",  # valid JSON, wrong shape
            '{"workloads": {}}',  # missing version
            '{"version": 999, "workloads": {}}',  # unsupported version
            '{"version": 1, "workloads": []}',  # workloads not an object
            '{"version": 1, "workloads": {"s": {"runs": "x", "resources": {}}}}',
            '{"version": 1, "workloads": {"s": {"runs": 1, "resources": '
            '{"heap": {"horizon_s": -5, "stats": {"count": 0, "sum_error": 0,'
            ' "sum_abs_error": 0, "sum_ratio": 0}}}}}}',
        ],
    )
    def test_garbage_store_warns_and_cold_starts(self, tmp_path, content):
        path = tmp_path / "calibration.json"
        path.write_text(content)
        with pytest.warns(CalibrationStoreWarning):
            store = CalibrationStore(str(path))
        assert len(store) == 0

    def test_corrupt_store_is_replaced_on_next_save(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("garbage{{{")
        with pytest.warns(CalibrationStoreWarning):
            store = CalibrationStore(str(path))
        store.record_run("sig-b", make_policy())
        store.save()
        reloaded = CalibrationStore(str(path))
        assert reloaded.loaded_from_disk
        assert reloaded.signatures() == ["sig-b"]

    def test_save_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "calibration.json"
        store = CalibrationStore(str(path))
        store.record_run("sig", make_policy())
        store.save()
        assert os.path.exists(path)

    def test_record_run_accumulates_runs_and_stats(self, tmp_path):
        store = CalibrationStore(str(tmp_path / "calibration.json"))
        first = make_policy()
        first.predictor("heap").stats.merge(make_stats([(10.0, 10.0), (20.0, 25.0)]))
        store.record_run("sig", first)
        second = make_policy()
        second.predictor("heap").stats.merge(make_stats([(5.0, 4.0)]))
        second._adapt("heap", 1.0)
        store.record_run("sig", second)
        record = store.lookup("sig")
        assert record.runs == 2
        assert record.resources["heap"].stats.count == 3
        # The horizon is the *latest* run's converged value.
        assert record.resources["heap"].horizon_s == pytest.approx(
            second.horizon("heap")
        )

    def test_rerecording_a_reused_policy_never_double_counts(self, tmp_path):
        # A policy instance run (and recorded) twice must contribute each
        # prediction exactly once: record_run consumes only the delta since
        # the previous recording.
        store = CalibrationStore(str(tmp_path / "calibration.json"))
        policy = make_policy()
        policy.predictor("heap").stats.merge(make_stats([(10.0, 10.0), (20.0, 25.0)]))
        store.record_run("sig", policy)
        assert store.lookup("sig").resources["heap"].stats.count == 2
        # Second "run" with the same instance folds one more prediction.
        policy.predictor("heap").stats.fold(5.0, 4.0)
        store.record_run("sig", policy)
        record = store.lookup("sig")
        assert record.runs == 2
        assert record.resources["heap"].stats.count == 3  # not 2 + 3
        reference = make_stats([(10.0, 10.0), (20.0, 25.0), (5.0, 4.0)])
        assert record.resources["heap"].stats.to_state() == reference.to_state()


# --------------------------------------------------------------------------- #
# Workload signatures
# --------------------------------------------------------------------------- #
def leak_config(**overrides) -> ExperimentConfig:
    params = dict(
        name="sig-test",
        seed=42,
        constant_ebs=100,
        duration=180.0,
        faults=[
            FaultSpec(
                component="product_detail",
                kind="memory-leak",
                params={"leak_bytes": 262144, "period_n": 25},
            )
        ],
        server_config=ServerConfig(heap_bytes=4_000_000),
        rejuvenation_channels=["heap"],
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestWorkloadSignature:
    def test_seed_independent(self):
        assert workload_signature(leak_config(seed=1)) == workload_signature(
            leak_config(seed=999)
        )

    def test_scenario_override_replaces_name(self):
        a = workload_signature(leak_config(name="run-0"), scenario="stable")
        b = workload_signature(leak_config(name="run-1"), scenario="stable")
        assert a == b
        assert "scenario=stable" in a

    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration": 360.0},
            {"constant_ebs": 200},
            {"mix_name": "browsing"},
            {"server_config": ServerConfig(heap_bytes=8_000_000)},
            {"server_config": ServerConfig(heap_bytes=4_000_000, pool_size=10)},
            {
                "faults": [
                    FaultSpec(
                        component="product_detail",
                        kind="memory-leak",
                        params={"leak_bytes": 262144, "period_n": 100},
                    )
                ]
            },
            {"faults": [FaultSpec(component="home", kind="connection-leak")]},
            {"rejuvenation_channels": ["heap", "connections"]},
        ],
    )
    def test_sensitive_to_workload_knobs(self, overrides):
        assert workload_signature(leak_config()) != workload_signature(
            leak_config(**overrides)
        )

    def test_fault_order_insensitive(self):
        one = leak_config(
            faults=[
                FaultSpec(component="home", kind="connection-leak"),
                FaultSpec(component="product_detail", kind="memory-leak"),
            ]
        )
        two = leak_config(
            faults=[
                FaultSpec(component="product_detail", kind="memory-leak"),
                FaultSpec(component="home", kind="connection-leak"),
            ]
        )
        assert workload_signature(one) == workload_signature(two)


# --------------------------------------------------------------------------- #
# Policy warm-start surface
# --------------------------------------------------------------------------- #
class TestWarmStart:
    def record(self, horizon=60.0, stats=None) -> CalibrationRecord:
        return CalibrationRecord(
            signature="sig",
            runs=1,
            resources={
                "heap": ResourceCalibration(
                    horizon_s=horizon,
                    stats=stats or make_stats([(10.0, 12.0)]),
                )
            },
        )

    def test_warm_start_opens_at_stored_horizon(self):
        policy = make_policy(warm_start=self.record(horizon=60.0))
        assert policy.warm_started
        assert policy.horizon("heap") == pytest.approx(60.0)
        assert policy.opening_horizon("heap") == pytest.approx(60.0)

    def test_cold_policy_opens_at_base(self):
        policy = make_policy()
        assert not policy.warm_started
        assert policy.opening_horizon("heap") == policy.base_horizon

    @pytest.mark.parametrize("stored,expected", [(1.0, 25.0), (9999.0, 400.0)])
    def test_warm_start_clamps_to_bounds(self, stored, expected):
        policy = make_policy(warm_start=self.record(horizon=stored))
        assert policy.horizon("heap") == pytest.approx(expected)

    def test_prior_stats_kept_separate_from_run_stats(self):
        prior = make_stats([(10.0, 12.0), (20.0, 18.0)])
        policy = make_policy(warm_start=self.record(stats=prior))
        predictor = policy.predictor("heap")
        # The running predictor starts the run at zero — prior runs live in
        # prior_stats so the store never double-counts a run's predictions.
        assert predictor.stats.count == 0
        assert policy.prior_stats("heap").count == 2
        rows = policy.predictor_rows()
        assert rows[0]["prior_predictions"] == 2

    def test_warm_start_leaves_other_resources_cold(self):
        policy = make_policy(warm_start=self.record())
        assert policy.horizon("connections") == policy.base_horizon
        assert policy.prior_stats("connections") is None

    def test_apply_warm_start_reports_resources_seeded(self):
        policy = make_policy()
        assert policy.apply_warm_start(self.record()) == 1
        assert policy.warm_started


# --------------------------------------------------------------------------- #
# Runner wiring
# --------------------------------------------------------------------------- #
def runner_config(store, policy, seed=42) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"calibration-runner-{seed}",
        seed=seed,
        scale=PopulationScale.tiny(),
        constant_ebs=60,
        duration=90.0,
        monitored=True,
        faults=[
            FaultSpec(
                component="product_detail",
                kind="memory-leak",
                params={"leak_bytes": 262144, "period_n": 25},
            )
        ],
        snapshot_interval=2.0,
        server_config=ServerConfig(heap_bytes=4_000_000),
        rejuvenation=policy,
        rejuvenation_channels=["heap"],
        calibration_store=store,
        calibration_signature="runner-integration",
    )


class TestRunnerWiring:
    def test_run_persists_and_next_run_warm_starts(self, tmp_path):
        path = tmp_path / "calibration.json"
        store = CalibrationStore(str(path))
        first_policy = AdaptiveRejuvenationPolicy(base_horizon=45.0, min_horizon=10.0)
        first = run_experiment(runner_config(store, first_policy, seed=42))
        assert os.path.exists(path)
        record = store.lookup("runner-integration")
        assert record is not None and record.runs == 1
        assert "heap" in record.resources
        assert not first.policy.warm_started

        second_policy = AdaptiveRejuvenationPolicy(base_horizon=45.0, min_horizon=10.0)
        second = run_experiment(runner_config(store, second_policy, seed=43))
        assert second.policy.warm_started
        assert second.policy.opening_horizon("heap") == pytest.approx(
            record.resources["heap"].horizon_s
        )
        # The config's policy is the template each run copies; it never runs.
        assert not second_policy.warm_started
        assert store.lookup("runner-integration").runs == 2

    def test_rerunning_one_config_counts_each_prediction_once(self, tmp_path):
        # Every run executes its own copy of the configured policy, so two
        # runs of one config fold each settled prediction into the store
        # exactly once.
        store = CalibrationStore(str(tmp_path / "calibration.json"))
        policy = AdaptiveRejuvenationPolicy(base_horizon=45.0, min_horizon=10.0)
        config = runner_config(store, policy)
        counts = [
            run_experiment(config).policy.predictor("heap").stats.count for _ in range(2)
        ]
        assert counts[0] > 0
        record = store.lookup("runner-integration")
        assert record.runs == 2
        assert record.resources["heap"].stats.count == sum(counts)

    def test_derived_signature_ignores_per_run_names(self, tmp_path):
        # Without an explicit calibration_signature, the runner derives one
        # from the workload knobs alone: two runs whose configs differ only
        # in name (the "…-run0"/"…-run1" pattern) and seed must share a
        # record, so the second run warm-starts instead of cold-missing.
        store = CalibrationStore(str(tmp_path / "calibration.json"))
        first = AdaptiveRejuvenationPolicy(base_horizon=45.0, min_horizon=10.0)
        config = runner_config(store, first, seed=42)
        config.calibration_signature = None
        run_experiment(config)
        second = AdaptiveRejuvenationPolicy(base_horizon=45.0, min_horizon=10.0)
        config = runner_config(store, second, seed=43)  # different name + seed
        config.calibration_signature = None
        assert run_experiment(config).policy.warm_started
        assert len(store) == 1
        assert store.lookup(store.signatures()[0]).runs == 2

    def test_store_ignored_for_non_adaptive_policies(self, tmp_path):
        from repro.baselines.rejuvenation import ProactiveRejuvenationPolicy

        store = CalibrationStore(str(tmp_path / "calibration.json"))
        policy = ProactiveRejuvenationPolicy(horizon=45.0, microreboot_downtime=0.25)
        run_experiment(runner_config(store, policy, seed=42))
        assert len(store) == 0
        assert not os.path.exists(tmp_path / "calibration.json")
