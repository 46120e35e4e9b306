"""Tests for the perf harness (``repro bench``) and the fast-path caches."""

from __future__ import annotations

import json

import pytest

from repro.perf.registry import (
    BenchOptions,
    BenchResult,
    all_bench_names,
    run_benches,
    write_json,
)
from repro.perf.timer import BenchTimer, measure_rate, measure_seconds


class TestTimer:
    def test_bench_timer_measures_elapsed(self):
        with BenchTimer() as timer:
            sum(range(1000))
        assert timer.seconds >= 0.0

    def test_measure_seconds_reports_best_and_mean(self):
        stats = measure_seconds(lambda: None, repeats=3)
        assert stats["best_seconds"] <= stats["mean_seconds"] + 1e-12
        assert len(stats["repeats"]) == 3

    def test_measure_rate_reports_ops_per_second(self):
        stats = measure_rate(lambda: 1000, repeats=2)
        assert stats["best_ops_per_second"] > 0

    def test_measure_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            measure_seconds(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure_rate(lambda: 1, repeats=0)


class TestRegistry:
    def test_expected_benches_registered(self):
        names = all_bench_names()
        for expected in [
            "event_loop",
            "woven_dispatch",
            "fig3_e2e",
            "fig4_e2e",
            "request_path",
            "adaptive_e2e",
            "learning_e2e",
        ]:
            assert expected in names

    def test_unknown_bench_rejected(self):
        with pytest.raises(KeyError):
            run_benches(["no-such-bench"])

    def test_bench_result_pass_logic(self):
        met = BenchResult(name="x", speedup_vs_seed=3.5, target_speedup=3.0)
        missed = BenchResult(name="x", speedup_vs_seed=2.0, target_speedup=3.0)
        informational = BenchResult(name="x", speedup_vs_seed=2.0, target_speedup=None)
        incomparable = BenchResult(name="x", speedup_vs_seed=None, target_speedup=3.0)
        assert met.passed is True
        assert missed.passed is False
        assert informational.passed is None
        assert incomparable.passed is None

    def test_failed_claim_fails_the_bench(self):
        fast = dict(speedup_vs_seed=3.5, target_speedup=3.0)
        assert BenchResult(name="x", metrics={"claim_holds": True}, **fast).passed is True
        assert BenchResult(name="x", metrics={"claim_holds": False}, **fast).passed is False
        assert BenchResult(name="x", metrics={"claim_holds": False}).passed is False

    def test_options_resolve_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        monkeypatch.setenv("REPRO_BENCH_DURATION_SCALE", "0.01")
        monkeypatch.setenv("REPRO_BENCH_TINY", "1")
        options = BenchOptions.from_environment()
        assert options.seed == 7
        assert options.duration_scale == 0.01
        assert options.tiny is True

    @pytest.mark.parametrize(
        "variable, value",
        [
            # A NaN scale used to resolve, and a NaN-long run never ends.
            ("REPRO_BENCH_DURATION_SCALE", "nan"),
            ("REPRO_BENCH_DURATION_SCALE", "inf"),
            ("REPRO_BENCH_DURATION_SCALE", "-1"),
            ("REPRO_BENCH_DURATION_SCALE", "fast"),
            ("REPRO_BENCH_SEED", "abc"),
            ("REPRO_BENCH_TINY", "yes"),
        ],
    )
    def test_options_refuse_bad_environment_values(self, monkeypatch, variable, value):
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=variable):
            BenchOptions.from_environment()

    def test_json_artifact_schema(self, tmp_path):
        results = [
            BenchResult(
                name="demo",
                metrics={"ops": 1.0},
                speedup_vs_seed=4.0,
                target_speedup=3.0,
                config={"tiny": True},
            )
        ]
        path = tmp_path / "BENCH_perf.json"
        write_json(str(path), results, BenchOptions(tiny=True))
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-bench/v1"
        assert payload["options"]["tiny"] is True
        assert payload["benches"][0]["name"] == "demo"
        assert payload["benches"][0]["passed"] is True
        assert payload["all_targets_met"] is True

    def test_json_artifact_merges_into_existing(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        first = [
            BenchResult(name="alpha", metrics={"ops": 1.0}, speedup_vs_seed=2.0),
            BenchResult(name="beta", metrics={"ops": 2.0}, speedup_vs_seed=3.0),
        ]
        write_json(str(path), first, BenchOptions(tiny=True))
        # A partial re-run updates only its own entry and keeps the rest.
        rerun = [BenchResult(name="beta", metrics={"ops": 9.0}, speedup_vs_seed=4.0)]
        write_json(str(path), rerun, BenchOptions(tiny=True))
        payload = json.loads(path.read_text())
        by_name = {bench["name"]: bench for bench in payload["benches"]}
        assert sorted(by_name) == ["alpha", "beta"]
        assert by_name["alpha"]["speedup_vs_seed"] == 2.0  # preserved
        assert by_name["beta"]["speedup_vs_seed"] == 4.0  # replaced
        assert by_name["beta"]["metrics"]["ops"] == 9.0
        # Order: existing entries stay in place, new names append.
        assert [bench["name"] for bench in payload["benches"]] == ["alpha", "beta"]
        extra = [BenchResult(name="gamma", metrics={}, speedup_vs_seed=1.0)]
        write_json(str(path), extra, BenchOptions(tiny=True))
        payload = json.loads(path.read_text())
        assert [bench["name"] for bench in payload["benches"]] == [
            "alpha",
            "beta",
            "gamma",
        ]

    def test_json_artifact_merge_respects_preserved_failures(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        failing = [
            BenchResult(name="alpha", speedup_vs_seed=1.0, target_speedup=3.0)
        ]
        write_json(str(path), failing, BenchOptions(tiny=True))
        assert json.loads(path.read_text())["all_targets_met"] is False
        # A later partial run of a different bench must not hide the failure.
        other = [BenchResult(name="beta", speedup_vs_seed=5.0, target_speedup=3.0)]
        write_json(str(path), other, BenchOptions(tiny=True))
        payload = json.loads(path.read_text())
        assert payload["all_targets_met"] is False

    def test_json_artifact_rekeys_by_name_and_options(self, tmp_path, capsys):
        path = tmp_path / "BENCH_perf.json"
        full = [BenchResult(name="alpha", speedup_vs_seed=2.0, target_speedup=None)]
        write_json(str(path), full, BenchOptions(tiny=False))
        # Re-running the same bench under *different* options must not
        # replace the full-scale record: both entries coexist, keyed by
        # (name, options), and the mixture is flagged on stderr.
        tiny = [BenchResult(name="alpha", speedup_vs_seed=1.5, target_speedup=None)]
        write_json(str(path), tiny, BenchOptions(tiny=True))
        err = capsys.readouterr().err
        assert "mixes configurations" in err and "alpha" in err
        payload = json.loads(path.read_text())
        entries = [b for b in payload["benches"] if b["name"] == "alpha"]
        assert len(entries) == 2
        by_tiny = {bench["options"]["tiny"]: bench for bench in entries}
        assert by_tiny[False]["speedup_vs_seed"] == 2.0
        assert by_tiny[True]["speedup_vs_seed"] == 1.5
        # Same (name, options) still replaces in place.
        write_json(
            str(path),
            [BenchResult(name="alpha", speedup_vs_seed=1.7, target_speedup=None)],
            BenchOptions(tiny=True),
        )
        payload = json.loads(path.read_text())
        entries = [b for b in payload["benches"] if b["name"] == "alpha"]
        assert len(entries) == 2
        by_tiny = {bench["options"]["tiny"]: bench for bench in entries}
        assert by_tiny[True]["speedup_vs_seed"] == 1.7

    def test_microbenches_run_tiny(self):
        # The micro (non-e2e) benches must run green at tiny scale; the
        # speedup assertions proper live in the acceptance run, not in CI
        # unit tests, but an outright regression below 1x would be a bug.
        results = run_benches(["event_loop", "woven_dispatch"], BenchOptions(tiny=True))
        by_name = {result.name: result for result in results}
        assert by_name["event_loop"].speedup_vs_seed > 1.0
        assert by_name["woven_dispatch"].speedup_vs_seed > 1.0


class TestCompareArtifacts:
    @staticmethod
    def _write(path, entries):
        payload = {"schema": "repro-bench/v1", "benches": entries}
        path.write_text(json.dumps(payload))

    @staticmethod
    def _entry(name, speedup, passed=None, tiny=True):
        return {
            "name": name,
            "speedup_vs_seed": speedup,
            "passed": passed,
            "options": {"seed": 42, "duration_scale": 0.05, "tiny": tiny},
        }

    def test_regression_detection_and_tolerance(self, tmp_path):
        from repro.perf.registry import compare_artifacts

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._write(old, [self._entry("a", 3.0, passed=True), self._entry("b", 2.0)])
        self._write(new, [self._entry("a", 2.5, passed=True), self._entry("b", 1.85)])
        rows = {row.name: row for row in compare_artifacts(str(old), str(new))}
        assert rows["a"].regression  # -16.7 % > 10 % tolerance
        assert not rows["b"].regression  # -7.5 % within tolerance
        assert rows["b"].delta_percent == pytest.approx(-7.5)

    def test_drop_that_still_meets_target_is_not_a_regression(self, tmp_path):
        from repro.perf.registry import compare_artifacts

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        # Recorded 6.0x against a 3.0x target: falling to 3.2x is a big drop
        # but still comfortably passing — the gate must not ratchet past the
        # bench's own target.
        entry = self._entry("a", 6.0, passed=True)
        entry["target_speedup"] = 3.0
        self._write(old, [entry])
        self._write(new, [self._entry("a", 3.2, passed=True)])
        (row,) = compare_artifacts(str(old), str(new))
        assert not row.regression
        # Below the target AND below tolerance -> regression.
        self._write(new, [self._entry("a", 2.5, passed=True)])
        (row,) = compare_artifacts(str(old), str(new))
        assert row.regression

    def test_previously_failing_bench_is_not_gated(self, tmp_path):
        from repro.perf.registry import compare_artifacts

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._write(old, [self._entry("a", 2.0, passed=False)])
        self._write(new, [self._entry("a", 0.5, passed=False)])
        (row,) = compare_artifacts(str(old), str(new))
        assert not row.regression

    def test_option_mismatch_is_not_comparable(self, tmp_path):
        from repro.perf.registry import compare_artifacts

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._write(old, [self._entry("a", 3.0, passed=True, tiny=False)])
        self._write(new, [self._entry("a", 1.0, passed=True, tiny=True)])
        (row,) = compare_artifacts(str(old), str(new))
        assert not row.regression
        assert "options differ" in row.note

    def test_empty_artifacts_rejected(self, tmp_path):
        from repro.perf.registry import compare_artifacts

        old = tmp_path / "old.json"
        old.write_text("{}")
        new = tmp_path / "new.json"
        self._write(new, [self._entry("a", 1.0)])
        with pytest.raises(ValueError):
            compare_artifacts(str(old), str(new))


class TestComponentSizeCache:
    def test_cache_hits_until_mutation(self):
        from repro.core.sizing import ComponentSizeCache, retained_component_size
        from repro.jvm.heap import Heap

        heap = Heap()
        root = heap.allocate("C", 100, root=True)
        children = [heap.allocate("child", 64) for _ in range(5)]
        for child in children:
            root.add_reference(child)
        cache = ComponentSizeCache(heap=heap)

        expected = retained_component_size([root], heap=heap)
        assert cache.component_size("c", [root]) == expected
        assert cache.component_size("c", [root]) == expected
        assert cache.stats == {"hits": 1, "misses": 1}

        # Reference mutation invalidates.
        root.add_reference(heap.allocate("leak", 1024))
        grown = cache.component_size("c", [root])
        assert grown == expected + 1024
        assert cache.stats["misses"] == 2

        # Freeing a referenced object invalidates via the liveness epoch.
        heap.free(children[0])
        shrunk = cache.component_size("c", [root])
        assert shrunk == grown - 64
        assert cache.stats["misses"] == 3

        # Unrelated allocations do NOT invalidate.
        heap.allocate("noise", 4096)
        cache.component_size("c", [root])
        assert cache.stats["misses"] == 3

    def test_explicit_invalidation(self):
        from repro.core.sizing import ComponentSizeCache
        from repro.jvm.heap import Heap

        heap = Heap()
        root = heap.allocate("C", 100, root=True)
        cache = ComponentSizeCache(heap=heap)
        cache.component_size("c", [root])
        cache.invalidate("c")
        cache.component_size("c", [root])
        assert cache.stats == {"hits": 0, "misses": 2}


class TestEngineFastPath:
    def test_schedule_callback_interleaves_with_events(self):
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine()
        order = []
        engine.schedule_at(2.0, lambda: order.append("event"))
        engine.schedule_callback(1.0, lambda: order.append("fast1"))
        engine.schedule_callback(3.0, lambda: order.append("fast2"))
        assert engine.pending_events == 3
        engine.run()
        assert order == ["fast1", "event", "fast2"]
        assert engine.executed_events == 3
        assert engine.pending_events == 0

    def test_schedule_callback_rejects_past(self):
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine()
        engine.clock.advance_to(10.0)
        with pytest.raises(ValueError):
            engine.schedule_callback(5.0, lambda: None)

    def test_pending_events_is_live_counter(self):
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine()
        events = [engine.schedule_at(float(i + 1), lambda: None) for i in range(5)]
        assert engine.pending_events == 5
        events[0].cancel()
        events[0].cancel()  # double cancel must not double-decrement
        assert engine.pending_events == 4
        engine.run()
        assert engine.pending_events == 0
        # Cancelling an already-executed event is a no-op.
        events[1].cancel()
        assert engine.pending_events == 0

    def test_run_until_honours_fast_events(self):
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine()
        fired = []
        engine.schedule_callback(1.0, lambda: fired.append(1))
        engine.schedule_callback(100.0, lambda: fired.append(2))
        executed = engine.run_until(50.0)
        assert executed == 1
        assert fired == [1]
        assert engine.pending_events == 1
        assert engine.now == 50.0
