"""Tests for the ablation matrix: manifest validation, the ranking math,
the comparison it runs on and its deterministic artifacts."""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.ablation import (
    CELL_COLUMNS,
    FAULTS,
    MECHANISMS,
    POLICIES,
    AblationManifest,
    ablation_comparison,
    fault_severity,
    mechanism_importance,
    policy_regret,
    smoke_manifest,
    write_reports,
)
from repro.slo.cost_model import SlaCostModel, SlaObservation


class TestAblationManifest:
    def test_defaults_are_valid(self):
        manifest = AblationManifest()
        cells = ablation_comparison(manifest).configs
        assert len(cells) == len(manifest.faults) * len(manifest.mechanisms)
        assert set(manifest.mechanisms) <= set(MECHANISMS)
        assert set(manifest.faults) <= set(FAULTS)
        assert set(manifest.policies) <= set(POLICIES)

    def test_unknown_fault_rejected_listing_known(self):
        with pytest.raises(ValueError) as excinfo:
            AblationManifest(faults=["bit-rot"])
        message = str(excinfo.value)
        assert "bit-rot" in message
        assert "slow-downstream" in message  # the known set is spelled out

    def test_unknown_mechanism_and_policy_rejected(self):
        with pytest.raises(ValueError):
            AblationManifest(mechanisms=["prayer"])
        with pytest.raises(ValueError):
            AblationManifest(policies=["reboot-weekly"])

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            AblationManifest(faults=[])
        with pytest.raises(ValueError):
            AblationManifest(seeds=[])
        with pytest.raises(ValueError):
            AblationManifest(duration_scale=0.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            # More cases run through the CLI in test_cli.py.
            ({"name": ""}, "name must be a file-name stem"),
            ({"faults": ["lock-convoy", "lock-convoy"]}, "faults repeat an entry"),
            ({"seeds": [True]}, "seeds must be non-negative integers"),
            ({"seeds": [-1]}, "seeds must be non-negative integers"),
            ({"duration_scale": float("nan")}, "duration_scale must be a positive number"),
            ({"ebs": 2.5}, "ebs must be a positive integer"),
            ({"period_n": -3}, "period_n must be a positive integer"),
            ({"tiny": "yes"}, "tiny must be true or false"),
        ],
    )
    def test_field_types_and_ranges_checked_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AblationManifest(**fields)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError) as excinfo:
            AblationManifest.from_dict({"name": "x", "speeds": [1]})
        assert "speeds" in str(excinfo.value)

    def test_round_trips_through_dict(self):
        manifest = smoke_manifest()
        again = AblationManifest.from_dict(asdict(manifest))
        assert again == manifest

    def test_from_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(asdict(smoke_manifest())))
        assert AblationManifest.from_file(str(path)) == smoke_manifest()


def _synthetic_cells():
    """Hand-built cell rows with known costs to pin the ranking math."""
    costs = {
        # (policy, fault): {mechanism: cost}
        ("no-action", "memory-leak"): {"none": 10.0, "naive-retry": 8.0, "backoff": 2.0},
        ("no-action", "lock-convoy"): {"none": 20.0, "naive-retry": 18.0, "backoff": 6.0},
        ("time-based", "memory-leak"): {"none": 6.0, "naive-retry": 5.0, "backoff": 3.0},
        ("time-based", "lock-convoy"): {"none": 12.0, "naive-retry": 11.0, "backoff": 4.0},
    }
    return [
        {"policy": policy, "fault": fault, "mechanism": mechanism, "seed": 1, "sla_cost": cost}
        for (policy, fault), by_mechanism in costs.items()
        for mechanism, cost in by_mechanism.items()
    ]


class TestRankingMath:
    def test_mechanism_importance_vs_none_baseline(self):
        rows = mechanism_importance(_synthetic_cells())
        by_name = {row["mechanism"]: row for row in rows}
        # backoff removes mean((10-2)+(20-6)+(6-3)+(12-4))/4 = 8.25
        assert by_name["backoff"]["mean_cost_removed"] == pytest.approx(8.25)
        # naive-retry removes mean(2+2+1+1)/4 = 1.5
        assert by_name["naive-retry"]["mean_cost_removed"] == pytest.approx(1.5)
        assert by_name["backoff"]["rank"] == 1
        assert by_name["naive-retry"]["rank"] == 2
        assert all(row["baseline"] == "none" for row in rows)

    def test_policy_regret_ranks_the_best_policy_first(self):
        rows = policy_regret(_synthetic_cells())
        by_name = {row["policy"]: row for row in rows}
        # time-based is best in every (fault, mechanism) cell except
        # (memory-leak, backoff) where no-action wins by 1.
        assert by_name["time-based"]["mean_regret"] == pytest.approx(1.0 / 6.0)
        assert by_name["no-action"]["mean_regret"] == pytest.approx(
            (4.0 + 3.0 + 0.0 + 8.0 + 7.0 + 2.0) / 6.0
        )
        assert by_name["time-based"]["rank"] == 1

    def test_fault_severity_ranked_descending(self):
        rows = fault_severity(_synthetic_cells())
        assert [row["fault"] for row in rows] == ["lock-convoy", "memory-leak"]
        assert rows[0]["mean_sla_cost"] == pytest.approx((20 + 18 + 6 + 12 + 11 + 4) / 6)
        assert rows[0]["rank"] == 1


def _mini_manifest(name: str = "mini") -> AblationManifest:
    return AblationManifest(
        name=name,
        policies=["no-action"],
        faults=["slow-downstream"],
        mechanisms=["naive-retry", "backoff-breaker"],
        seeds=[42],
        duration_scale=0.01,
        period_n=3,
        ebs=20,
        tiny=True,
    )


class TestRunAblation:
    @pytest.fixture(scope="class")
    def mini(self):
        manifest = _mini_manifest()
        return manifest, ablation_comparison(manifest).run()

    def test_runs_every_cell_in_order(self, mini):
        _, scenario = mini
        cells = scenario.summary_rows()
        assert list(scenario.results) == [
            "slow-downstream/naive-retry/42/no-action",
            "slow-downstream/backoff-breaker/42/no-action",
        ]
        assert [cell["mechanism"] for cell in cells] == ["naive-retry", "backoff-breaker"]
        for cell in cells:
            assert tuple(cell) == CELL_COLUMNS
            assert (cell["policy"], cell["fault"], cell["seed"]) == ("no-action", "slow-downstream", 42)
            assert cell["completed"] > 0
            assert cell["sla_cost"] >= 0.0

    def test_artifacts_are_byte_identical_across_reruns(self, mini, tmp_path):
        manifest, scenario = mini
        first_paths = write_reports(manifest, scenario, str(tmp_path / "first"))
        assert sorted(path.split("/")[-1] for path in first_paths) == [
            "ablation_mini.csv",
            "ablation_mini.json",
            "ablation_mini.md",
        ]
        # A completely fresh run of the same manifest regenerates the same bytes.
        again = AblationManifest.from_dict(asdict(manifest))
        second_paths = write_reports(
            again, ablation_comparison(again).run(), str(tmp_path / "second")
        )
        for first_file, second_file in zip(first_paths, second_paths):
            with open(first_file, "rb") as a, open(second_file, "rb") as b:
                assert a.read() == b.read(), first_file

    def test_json_payload_holds_cells_and_the_three_reports(self, mini, tmp_path):
        manifest, scenario = mini
        paths = write_reports(manifest, scenario, str(tmp_path))
        payload = json.loads(Path(next(p for p in paths if p.endswith(".json"))).read_text())
        assert set(payload) == {
            "manifest",
            "duration_scale",
            "cells",
            "mechanism_importance",
            "policy_regret",
            "fault_severity",
        }
        assert payload["manifest"] == asdict(manifest)
        assert len(payload["cells"]) == 2

    def test_markdown_includes_the_three_ranked_tables(self, mini, tmp_path):
        manifest, scenario = mini
        paths = write_reports(manifest, scenario, str(tmp_path))
        rendered = Path(next(p for p in paths if p.endswith(".md"))).read_text()
        assert "# Ablation matrix: mini" in rendered
        assert "## Mechanism importance" in rendered
        assert "## Policy regret" in rendered
        assert "## Fault severity" in rendered
        assert "## Cells" in rendered

    def test_csv_has_fixed_columns(self, mini, tmp_path):
        manifest, scenario = mini
        paths = write_reports(manifest, scenario, str(tmp_path / "csv"))
        csv_path = next(path for path in paths if path.endswith(".csv"))
        with open(csv_path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip()
        assert header == (
            "policy,fault,mechanism,seed,sla_cost,completed,errors,"
            "timeouts,retries,refused,downtime_s"
        )


class TestCellScoring:
    """A cell's SLA cost charges every refusal of its ledger exactly once."""

    def test_outage_refusals_are_charged_once(self):
        # The rich golden's time-based x memory-leak x none x seed 42 cell:
        # every one of its refusals is a full-restart outage refusal.
        cell_axes = {
            "policies": ["time-based"], "faults": ["memory-leak"], "mechanisms": ["none"], "seeds": [42],
        }
        restarts = ablation_comparison(AblationManifest(**{**RICH_MANIFEST, **cell_axes})).run()
        (result,) = restarts.results.values()
        ledger = result.accounting
        assert ledger["outage_refusals"] == ledger["refusals"] > 0
        expected = SlaCostModel().score(
            SlaObservation(
                duration_seconds=result.config.duration,
                downtime_seconds=result.rejuvenation.total_downtime_seconds,
                failed_requests=result.error_count + result.client_timeouts,
                refused_requests=ledger["refusals"],
            )
        )
        (cell,) = restarts.summary_rows()
        assert cell["sla_cost"] == pytest.approx(expected, abs=1e-9)
        assert cell["refused"] == ledger["refusals"]
        assert cell["downtime_s"] > 0


class TestAblateCli:
    def test_parser_accepts_preset_and_overrides(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["ablate", "--preset", "smoke", "--tiny", "--duration-scale", "0.02"]
        )
        assert args.preset == "smoke"
        assert args.tiny
        assert args.duration_scale == pytest.approx(0.02)

    def test_bad_manifest_path_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        assert main(["ablate", "--manifest", str(missing)]) == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_prints_one_running_line_per_cell_before_the_report(self, tmp_path, capsys):
        from repro.cli import main

        manifest = tmp_path / "mini.json"
        manifest.write_text(json.dumps(asdict(_mini_manifest())))
        assert main(["ablate", "--manifest", str(manifest), "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        running = [index for index, line in enumerate(lines) if line.startswith("-- running ")]
        assert len(running) == 2
        assert "naive-retry" in lines[running[0]]
        assert max(running) < lines.index("== Ablation matrix: mini ==")


class TestParallelAblation:
    @pytest.fixture(scope="class")
    def runs(self):
        """The same comparison run serially and over a two-worker pool
        (recording the pool run's progress labels)."""
        comparison = ablation_comparison(_mini_manifest("par"))
        labels = []
        parallel = comparison.run(jobs=2, progress=labels.append)
        return comparison, comparison.run(jobs=1), parallel, labels

    def test_jobs_must_be_positive(self, runs):
        comparison = runs[0]
        with pytest.raises(ValueError, match="jobs"):
            comparison.run(jobs=0)

    def test_process_pool_payload_identical_to_serial(self, runs, tmp_path):
        """--jobs N must only change wall-clock, never a single byte.

        Each cell is an independent simulation seeded from its own
        coordinates, and the pool map preserves submission order, so the
        cells, all three ranked reports and the written artifacts must
        equal the serial run's.
        """
        _, serial, parallel, _ = runs
        manifest = _mini_manifest("par")
        assert list(parallel.results) == list(serial.results)
        assert parallel.summary_rows() == serial.summary_rows()
        for key, table in serial.tables().items():
            assert parallel.tables()[key].rows == table.rows
        serial_paths = write_reports(manifest, serial, str(tmp_path / "serial"))
        parallel_paths = write_reports(manifest, parallel, str(tmp_path / "parallel"))
        for first, second in zip(serial_paths, parallel_paths):
            assert Path(first).read_bytes() == Path(second).read_bytes()

    def test_pooled_results_come_back_without_live_handles(self, runs):
        for result in runs[2].results.values():
            # ``cluster`` is the one live handle; the shard-0 views read it.
            assert (result.cluster, result.deployment, result.framework) == (None, None, None)
            assert result.accounting["issued"] > 0

    def test_progress_reports_every_cell_up_front(self, runs):
        comparison, _, _, labels = runs
        assert labels == list(comparison.configs)
        assert "naive-retry" in labels[0]


#: The rich golden matrix: reaches both rejuvenation controllers (restarts
#: and micro-reboots, with their outage refusals) and the ``none`` baseline
#: mechanism, which the CI smoke preset never does.
RICH_MANIFEST = {
    "name": "rich",
    "policies": ["no-action", "time-based", "proactive-microreboot"],
    "faults": ["memory-leak", "lock-convoy"],
    "mechanisms": ["none", "backoff-breaker"],
    "seeds": [42, 7],
    "duration_scale": 0.01,
    "ebs": 20,
    "period_n": 5,
    "tiny": True,
}

_REPO = Path(__file__).resolve().parent.parent


class TestGoldenArtifacts:
    """``repro ablate`` regenerates the committed artifacts byte for byte."""

    @staticmethod
    def _assert_matches(out: Path, golden_dir: Path, stem: str) -> None:
        for ext in ("json", "csv", "md"):
            produced = (out / f"{stem}.{ext}").read_text(encoding="utf-8")
            golden = (golden_dir / f"{stem}.{ext}").read_text(encoding="utf-8")
            assert produced == golden, f"{stem}.{ext}"

    def test_smoke_preset_matches_committed_results(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["ablate", "--preset", "smoke", "--tiny", "--duration-scale", "0.02"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        self._assert_matches(tmp_path, _REPO / "benchmarks" / "results", "ablation_smoke")

    def test_rich_manifest_matches_golden(self, tmp_path, capsys):
        from repro.cli import main

        manifest = tmp_path / "rich.json"
        manifest.write_text(json.dumps(RICH_MANIFEST), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ablate", "--manifest", str(manifest), "--out", str(out)]) == 0
        self._assert_matches(out, _REPO / "tests" / "golden", "ablation_rich")
