"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestCliParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.seed == 42
        assert args.duration_scale == pytest.approx(0.1)
        assert args.ebs == 100
        assert not args.tiny

    def test_quickstart_options(self):
        args = build_parser().parse_args(
            ["quickstart", "--component", "best_sellers", "--leak-kb", "50", "--tiny"]
        )
        assert args.component == "best_sellers"
        assert args.leak_kb == 50
        assert args.tiny


class TestCliCommands:
    def test_environment_command(self, capsys):
        assert main(["environment"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Tomcat 5.5.26" in out

    def test_quickstart_command_small_run(self, capsys):
        exit_code = main(
            [
                "quickstart",
                "--tiny",
                "--ebs", "10",
                "--duration-scale", "0.03",
                "--period-n", "5",
                "--seed", "3",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Root cause ranking" in out
        assert "home" in out

    def test_fig4_command_small_run(self, capsys):
        # 20 EBs at duration_scale 0.03 is outside the claim's range: the
        # report still prints, and the failed claim exits 1.
        exit_code = main(
            ["fig4", "--tiny", "--ebs", "20", "--duration-scale", "0.03", "--seed", "3"]
        )
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "root-cause ranking" in out
        assert out.splitlines()[-1].rstrip().endswith("False")

    @pytest.mark.parametrize("figure", ["fig3", "fig4", "fig5", "fig7"])
    def test_figure_command_holds_at_ds_005(self, figure, capsys):
        assert main([figure, "--tiny", "--duration-scale", "0.05"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].rstrip().endswith("True")

    def test_rejuvenation_command_small_run(self, capsys):
        exit_code = main(["rejuvenation", "--tiny", "--duration-scale", "0.02"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "per-policy availability" in out
        assert "proactive-microreboot" in out
        assert "time-based" in out
        assert "sla_cost" in out

    def test_adaptive_command_small_run(self, capsys):
        exit_code = main(["adaptive", "--tiny", "--duration-scale", "0.02"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "sla_cost" in out
        assert "adaptive" in out
        assert "verdicts:" in out
        assert "rejuvenation eliminates error spike" in out

    def test_mixed_command_small_run(self, capsys):
        exit_code = main(["mixed", "--tiny", "--duration-scale", "0.02"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Mixed faults" in out
        assert "heap_recycles" in out
        assert "proactive-microreboot" in out

    def test_mixed_dual_command_small_run(self, capsys):
        exit_code = main(["mixed", "--tiny", "--duration-scale", "0.02", "--dual"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "memory-leak+connection-leak" in out

    def test_learning_command_small_run(self, capsys, tmp_path):
        store = tmp_path / "calibration.json"
        exit_code = main(
            [
                "learning",
                "--tiny",
                "--duration-scale",
                "0.02",
                "--runs",
                "2",
                "--store",
                str(store),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Cross-run calibration learning" in out
        assert "cumulative SLA cost: warm < cold" in out
        assert store.exists()


class TestBenchCompareCli:
    @staticmethod
    def _artifact(path, entries):
        path.write_text(json.dumps({"schema": "repro-bench/v1", "benches": entries}))

    @staticmethod
    def _entry(name, speedup, passed=None):
        return {
            "name": name,
            "speedup_vs_seed": speedup,
            "passed": passed,
            "options": {"seed": 42, "duration_scale": 0.05, "tiny": True},
        }

    def test_compare_passes_within_tolerance(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._artifact(old, [self._entry("a", 3.0, passed=True)])
        self._artifact(new, [self._entry("a", 2.9, passed=True)])
        assert main(["bench", "--compare", str(old), str(new)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_fails_on_regression(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._artifact(old, [self._entry("a", 3.0, passed=True)])
        self._artifact(new, [self._entry("a", 2.0, passed=True)])
        assert main(["bench", "--compare", str(old), str(new)]) == 1
        captured = capsys.readouterr()
        assert "regression" in captured.out + captured.err

    def test_compare_rejects_missing_artifact(self, tmp_path, capsys):
        old = tmp_path / "absent.json"
        new = tmp_path / "new.json"
        self._artifact(new, [self._entry("a", 1.0)])
        assert main(["bench", "--compare", str(old), str(new)]) == 2

    def test_compare_failure_summary_names_every_regressed_entry(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        self._artifact(
            old,
            [
                self._entry("a", 3.0, passed=True),
                self._entry("b", 2.0, passed=True),
                self._entry("c", 1.5, passed=True),
            ],
        )
        self._artifact(
            new,
            [
                self._entry("a", 2.0, passed=True),  # -33 %
                self._entry("b", 1.0, passed=True),  # -50 %
                self._entry("c", 1.5, passed=True),  # unchanged
            ],
        )
        assert main(["bench", "--compare", str(old), str(new)]) == 1
        err = capsys.readouterr().err
        summary = [line for line in err.splitlines() if "regression(s)" in line]
        assert len(summary) == 1, err
        # One line, naming each regressed (name, options) entry with its delta.
        assert "a[tiny] -33.3%" in summary[0]
        assert "b[tiny] -50.0%" in summary[0]
        assert "c[tiny]" not in summary[0]


class TestBenchEnvironmentCli:
    def test_bad_environment_value_exits_2_with_one_line(self, monkeypatch, capsys):
        # Used to end in a traceback from int("abc").
        monkeypatch.setenv("REPRO_BENCH_SEED", "abc")
        assert main(["bench", "--only", "event_loop", "--tiny"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error_lines = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and "REPRO_BENCH_SEED" in error_lines[0]


class TestScenarioRegistry:
    def test_every_registered_scenario_gets_a_subparser(self):
        from repro.cli import SCENARIO_COMMANDS

        parser = build_parser()
        for command in SCENARIO_COMMANDS:
            args = parser.parse_args([command.name])
            assert args.handler is command.handler
            assert args.seed == 42
            assert hasattr(args, "ebs") == command.include_ebs

    def test_fleet_command_options(self):
        args = build_parser().parse_args(
            ["fleet", "--shards", "2", "--balancer", "round-robin", "--tiny"]
        )
        assert args.shards == 2
        assert args.balancer_policy == "round-robin"
        assert args.tiny

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.shards == 4
        assert args.balancer_policy == "sticky"

    def test_ablate_jobs_option(self):
        args = build_parser().parse_args(["ablate", "--jobs", "3"])
        assert args.jobs == 3
        assert build_parser().parse_args(["ablate"]).jobs == 1

    def test_canary_command_options(self):
        args = build_parser().parse_args(
            ["canary", "--shards", "4", "--stream-metrics", "out.jsonl", "--tiny"]
        )
        assert args.shards == 4
        assert args.stream_metrics == "out.jsonl"
        assert args.tiny
        defaults = build_parser().parse_args(["canary"])
        assert defaults.shards == 3
        assert defaults.stream_metrics is None

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["canary", "--shards", "2"], "at least 3 shards"),
            (["rollout", "--shards", "2"], "at least 3 shards"),
            (["rollout", "--shards", "two"], "invalid int value"),
            (["rollout", "--duration-scale", "0"], "must be a positive number"),
            (["fig4", "--duration-scale", "-0.5"], "must be a positive number"),
            (["canary", "--duration-scale", "nan"], "must be a positive number"),
            (["learning", "--runs", "1"], "needs >= 2 runs"),
            (["fleet", "--shards", "1"], "at least 2 shards"),
            (["scale", "--shards", "1"], "at least 2 shards"),
            (["scale", "--population-factor", "1"], "population_factor must be >= 2"),
            (["scale", "--tracer-fraction", "0"], "tracer_fraction must be in (0, 1]"),
            (["scale", "--tracer-fraction", "1.5"], "tracer_fraction must be in (0, 1]"),
            (["storm", "--ebs", "-3"], "must be a positive integer"),
            (["bench", "--duration-scale", "0"], "must be a positive number"),
            (["ablate", "--duration-scale", "0"], "must be a positive number"),
            (["ablate", "--jobs", "0"], "must be a positive integer"),
            # Used to end in a traceback from numpy's SeedSequence.
            (["fig4", "--tiny", "--seed", "-1"], "must be a non-negative integer"),
            (["bench", "--seed", "-1"], "must be a non-negative integer"),
            # A non-string argument is a manifest's JSON content, written to
            # a file whose path takes its place.
            (["ablate", "--manifest", {"duration_scale": "0.05"}], "duration_scale must be a positive number"),
            (["ablate", "--manifest", {"seeds": ["42"]}], "seeds must be non-negative integers"),
            (["ablate", "--manifest", {"timeout_seconds": 0}], "timeout_seconds must be a positive number"),
            (["ablate", "--manifest", {"name": "a/b"}], "name must be a file-name stem"),
            (["ablate", "--manifest", {"ebs": 0}], "ebs must be a positive integer"),
            (["ablate", "--manifest", {"policies": "no-action"}], "policies must be a non-empty list"),
            (["ablate", "--manifest", [1, 2]], "manifest must be a JSON object, got list"),
        ],
    )
    def test_bad_scenario_arguments_exit_2_with_one_line(self, argv, message, capsys, tmp_path):
        # Argument types fail in argparse (SystemExit); builder and manifest
        # checks fail in the handler before anything runs (return code).
        manifest = tmp_path / "manifest.json"
        for index, arg in enumerate(argv):
            if not isinstance(arg, str):
                manifest.write_text(json.dumps(arg), encoding="utf-8")
                argv = argv[:index] + [str(manifest)] + argv[index + 1:]
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error_lines = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and message in error_lines[0]


class TestUnknownCommand:
    def test_unknown_command_prints_registry_table(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'frobnicate'" in err
        # The registry table, not argparse's bare "invalid choice" error.
        assert "invalid choice" not in err
        for name in ("environment", "bench", "ablate", "fig3", "fleet", "canary"):
            assert name in err

    def test_no_command_prints_registry_table(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "available commands" in err
        assert "canary" in err

    def test_help_and_version_still_reach_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out


class TestFleetCommand:
    def test_fleet_smoke_run(self, capsys):
        exit_code = main(
            ["fleet", "--tiny", "--duration-scale", "0.02", "--shards", "2", "--seed", "42"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "rolling" in out
        assert "simultaneous" in out
        assert "served == issued" in out
