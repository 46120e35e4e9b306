"""Tests for the observability plane (registry, transports, zero-effect)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults.injector import FaultSpec
from repro.obs.registry import MetricsRegistry, canonical_value
from repro.obs.transports import JsonlMetricsStream
from repro.tpcw.population import PopulationScale


def _config(seed=11, stream_path=None, registry=None, **overrides):
    """A small monitored two-shard run with a component leak."""
    settings = dict(
        name="obs-test",
        seed=seed,
        scale=PopulationScale.tiny(),
        constant_ebs=30,
        duration=60.0,
        mix_name="shopping",
        monitored=True,
        shards=2,
        faults=[
            FaultSpec(
                component="home",
                kind="memory-leak",
                params={"leak_bytes": 64 * 1024, "period_n": 5},
            )
        ],
        snapshot_interval=5.0,
        metrics_registry=registry,
        stream_metrics=stream_path,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestCanonicalValue:
    def test_rounds_floats_to_six_decimals_recursively(self):
        value = {"a": 1.23456789, "b": [0.1 + 0.2], "c": {"d": (1.0000004,)}}
        assert canonical_value(value) == {"a": 1.234568, "b": [0.3], "c": {"d": [1.0]}}

    def test_preserves_bools_ints_strings(self):
        assert canonical_value({"flag": True, "n": 7, "s": "x"}) == {
            "flag": True,
            "n": 7,
            "s": "x",
        }
        assert canonical_value(True) is True


class TestMetricsRegistry:
    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        result = run_experiment(_config(registry=registry))
        snapshot = registry.snapshot()
        assert set(snapshot) == {
            "time_s",
            "counters",
            "shards",
            "alerts",
            "deploys",
            "slo",
            "calibration",
        }
        assert snapshot["time_s"] == pytest.approx(60.0)
        counters = snapshot["counters"]
        assert counters["issued"] == (
            counters["completions"]
            + counters["errors"]
            + counters["refusals"]
            + counters["in_flight"]
        )
        assert counters["completions"] > 0
        assert len(snapshot["shards"]) == 2
        for row in snapshot["shards"]:
            assert row["completed"] >= 0
            assert row["polls"] > 0
            assert row["last_poll_s"] > 0.0
            assert row["heap_used"] > 0.0
        assert snapshot["slo"]["duration_s"] == pytest.approx(60.0)
        assert result.completed_requests == counters["completions"] + counters["errors"]

    def test_registry_attaches_exactly_once(self):
        registry = MetricsRegistry()
        run_experiment(_config(registry=registry))
        with pytest.raises(RuntimeError, match="exactly one run"):
            run_experiment(_config(registry=registry))

    def test_snapshot_json_byte_identical_per_seed(self):
        first = MetricsRegistry()
        run_experiment(_config(seed=23, registry=first))
        second = MetricsRegistry()
        run_experiment(_config(seed=23, registry=second))
        assert first.snapshot_json(at=60.0) == second.snapshot_json(at=60.0)

    def test_snapshot_json_differs_across_seeds(self):
        first = MetricsRegistry()
        run_experiment(_config(seed=23, registry=first))
        second = MetricsRegistry()
        run_experiment(_config(seed=24, registry=second))
        assert first.snapshot_json(at=60.0) != second.snapshot_json(at=60.0)


class TestZeroEffect:
    def test_attached_plane_does_not_change_the_run(self, tmp_path):
        plain = run_experiment(_config(seed=31))
        observed = run_experiment(
            _config(
                seed=31,
                registry=MetricsRegistry(),
                stream_path=str(tmp_path / "stream.jsonl"),
            )
        )
        assert plain.accounting == observed.accounting
        assert plain.completed_requests == observed.completed_requests
        assert plain.error_count == observed.error_count
        plain_shards = [shard.summary() for shard in plain.cluster.shards]
        observed_shards = [shard.summary() for shard in observed.cluster.shards]
        assert plain_shards == observed_shards


class TestJsonlStream:
    @pytest.mark.parametrize("seed", [5, 17, 42])
    def test_mid_run_snapshots_are_monotone(self, tmp_path, seed):
        """Counters never decrease and the ledger invariant holds at every
        arbitrary mid-run snapshot point, not just at the end."""
        path = tmp_path / "stream.jsonl"
        # A prime interval puts the emission points at arbitrary offsets
        # relative to the 5 s polling/phase grid.
        run_experiment(
            _config(seed=seed, registry=MetricsRegistry(), stream_path=str(path), snapshot_interval=3.0)
        )
        records = [json.loads(line) for line in path.read_text().splitlines() if line]
        assert len(records) >= 10
        assert records[-1]["time_s"] == pytest.approx(60.0)
        previous = None
        for record in records:
            counters = record["counters"]
            assert (
                counters["completions"]
                + counters["errors"]
                + counters["refusals"]
                + counters["in_flight"]
                == counters["issued"]
            ), f"ledger invariant violated at t={record['time_s']}"
            assert counters["in_flight"] >= 0
            if previous is not None:
                assert record["time_s"] > previous["time_s"]
                for key in ("issued", "completions", "errors", "refusals", "retries"):
                    assert counters[key] >= previous["counters"][key], (
                        f"{key} decreased at t={record['time_s']}"
                    )
                for shard_row, previous_row in zip(record["shards"], previous["shards"]):
                    assert shard_row["completed"] >= previous_row["completed"]
                    assert shard_row["polls"] >= previous_row["polls"]
                assert record["slo"]["sla_cost"] >= 0.0
            previous = record

    def test_stream_requires_positive_interval(self, tmp_path):
        from repro.sim.engine import SimulationEngine

        stream = JsonlMetricsStream(MetricsRegistry(), str(tmp_path / "s.jsonl"))
        with pytest.raises(ValueError):
            stream.schedule(SimulationEngine(), duration=10.0, interval=0.0)
