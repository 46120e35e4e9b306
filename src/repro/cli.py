"""Command-line interface.

A small operational front door so the library can be driven without writing
Python — useful for the "administrator" persona the paper's External
Front-end targets::

    python -m repro.cli quickstart                 # install + leak + diagnose
    python -m repro.cli fig3 --duration-scale 0.1  # overhead experiment
    python -m repro.cli fig4                       # single-leak experiment
    python -m repro.cli fig5                       # four identical leaks (+ Fig. 6 map)
    python -m repro.cli fig7                       # heterogeneous leak sizes
    python -m repro.cli rejuvenation               # live restarts vs. micro-reboots
    python -m repro.cli adaptive                   # adaptive policies + SLA cost model
    python -m repro.cli learning                   # cross-run calibration learning
    python -m repro.cli environment                # Table I, paper vs. reproduction

All experiments run in virtual time; ``--duration-scale`` scales the paper's
one-hour runs, ``--tiny`` switches to the small test database population.
Every scenario command (the figures included) prints one comparison report
and exits 1 when its claim fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro._version import __version__
from repro.experiments.environment import environment_rows
from repro.experiments.reporting import comparison_report, format_table
from repro.experiments.scenarios import COMPARISONS
from repro.tpcw.population import PopulationScale


def _positive_float(text: str) -> float:
    """argparse type of a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of an int > 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _population(args: argparse.Namespace) -> PopulationScale:
    return PopulationScale.tiny() if args.tiny else PopulationScale.standard()


def _cmd_environment(args: argparse.Namespace) -> int:
    print("== Table I: experimental environment (paper vs. reproduction) ==")
    print(format_table(environment_rows(), ["tier", "attribute", "paper", "reproduction"]))
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro.core.framework import FrameworkConfig, MonitoringFramework
    from repro.faults.injector import FaultInjector
    from repro.faults.memory_leak import MemoryLeakFault
    from repro.sim.engine import SimulationEngine
    from repro.tpcw.application import build_deployment
    from repro.tpcw.workload import WorkloadGenerator, WorkloadPhase

    engine = SimulationEngine()
    deployment = build_deployment(scale=_population(args), seed=args.seed, clock=engine.clock)
    framework = MonitoringFramework(
        deployment, engine=engine, config=FrameworkConfig(snapshot_interval=30.0)
    )
    framework.install()
    FaultInjector(deployment).inject(
        args.component,
        MemoryLeakFault(leak_bytes=args.leak_kb * 1024, period_n=args.period_n,
                        streams=deployment.streams),
    )
    generator = WorkloadGenerator(engine, deployment)
    generator.schedule_phases([WorkloadPhase(0.0, args.ebs)])
    duration = 3600.0 * args.duration_scale
    framework.schedule_snapshots(duration=duration, interval=30.0)
    generator.run(duration)

    print(
        f"{generator.completed_requests} requests served at "
        f"{generator.mean_throughput():.2f} req/s "
        f"(mean response time {generator.mean_response_time() * 1000:.1f} ms)\n"
    )
    print(framework.frontend.map_report())
    print()
    print(framework.frontend.root_cause_report())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.registry import BenchOptions, all_bench_names, run_benches, write_json

    if args.list:
        for name in all_bench_names():
            print(name)
        return 0

    if args.compare:
        return _cmd_bench_compare(args.compare[0], args.compare[1])

    try:
        options = BenchOptions.from_environment()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.seed is not None:
        options.seed = args.seed
    if args.duration_scale is not None:
        options.duration_scale = args.duration_scale
    if args.tiny:
        options.tiny = True
    names = None
    if args.only:
        names = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = sorted(set(names) - set(all_bench_names()))
        if unknown:
            known = ", ".join(all_bench_names())
            print(f"error: unknown benchmark(s): {', '.join(unknown)} (known: {known})", file=sys.stderr)
            return 2

    print(f"== repro bench (seed={options.seed}, duration_scale={options.duration_scale}, tiny={options.tiny}) ==")
    results = run_benches(names, options, progress=lambda name: print(f"-- running {name} ..."))

    failed = False
    for result in results:
        speedup = (
            f"{result.speedup_vs_seed:.2f}x vs seed" if result.speedup_vs_seed is not None else "no comparable baseline"
        )
        if result.passed is None:
            verdict = "info"
        elif result.passed:
            verdict = "PASS"
        else:
            verdict = "FAIL"
            failed = True
        target = f" (target {result.target_speedup:.2f}x)" if result.target_speedup is not None else ""
        print(f"{result.name:18s} {speedup}{target} [{verdict}]")
    if args.json:
        write_json(args.json, results, options)
        print(f"wrote {args.json}")
    return 1 if failed else 0


def _cmd_bench_compare(old_path: str, new_path: str) -> int:
    """Print per-bench speedup deltas; exit non-zero on a >10 % regression."""
    from repro.perf.registry import compare_artifacts

    try:
        comparisons = compare_artifacts(old_path, new_path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"== bench compare: {old_path} -> {new_path} ==")
    regressions: List[str] = []
    for row in comparisons:
        old = f"{row.old_speedup:.2f}x" if row.old_speedup is not None else "-"
        new = f"{row.new_speedup:.2f}x" if row.new_speedup is not None else "-"
        delta = f"{row.delta_percent:+.1f}%" if row.delta_percent is not None else "n/a"
        tiny = "tiny" if row.options.get("tiny") else "full"
        note = f"  [{row.note}]" if row.note else ""
        print(f"{row.name:18s} {tiny:4s}  {old:>8s} -> {new:>8s}  {delta:>8s}{note}")
        if row.regression:
            regressions.append(f"{row.name}[{tiny}] {delta}")
    if regressions:
        # One line naming every regressed (name, options) entry and its
        # delta, so a CI log tail identifies the culprits without scrolling.
        print(
            f"{len(regressions)} regression(s) beyond tolerance: "
            + ", ".join(regressions),
            file=sys.stderr,
        )
        return 1
    print("no regressions beyond tolerance")
    return 0


def _check_streamed_ledger(path: str, ledger: Dict[str, int]) -> int:
    """Exit code of the streamed-plane check: the final JSONL record's
    counters must equal the run's post-hoc ledger (0), else 2."""
    import json

    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line]
    streamed = json.loads(lines[-1])["counters"]
    if streamed != ledger:
        print(
            "error: streamed final counters disagree with the post-hoc "
            f"ledger\n  stream: {streamed}\n  ledger: {ledger}",
            file=sys.stderr,
        )
        return 2
    print(
        f"\nstreamed {len(lines)} metrics records to {path}; "
        "final counters match the post-hoc ledger "
        f"(replay the rulings with: repro replay {path})"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.obs.transports import (
        load_stream,
        recorded_verdicts,
        replay_verdicts,
        ruling_events,
    )

    try:
        records = load_stream(args.stream)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    record = records[-1]
    events = ruling_events(record)
    if not events:
        print(
            f"{args.stream}: {len(records)} records, no analyzer rulings "
            "recorded (was the run deployed with analysis?)"
        )
        return 0

    overrides = {}
    if args.growth_ratio_threshold is not None:
        overrides["growth_ratio_threshold"] = args.growth_ratio_threshold
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.burn_delta_threshold is not None:
        overrides["burn_delta_threshold"] = args.burn_delta_threshold

    try:
        recorded = recorded_verdicts(record)
        replayed = replay_verdicts(record, overrides or None)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(
        f"== repro replay: {len(events)} ruling(s) over {len(records)} "
        f"records from {args.stream} =="
    )
    rows = []
    for event, live, offline in zip(events, recorded, replayed):
        analysis = event["analysis"]
        rows.append(
            {
                "ruled_at_s": round(float(analysis["ruled_at"]), 1),
                "stage": event.get("stage", "-"),
                "trigger": analysis.get("trigger", "-"),
                "recorded": "promote" if live["promote"] else "rollback",
                "replayed": "promote" if offline["promote"] else "rollback",
                "growth_ratio": round(float(offline["growth_ratio"]), 1),
                "samples": offline["canary_samples"],
            }
        )
    print(format_table(rows))

    if overrides:
        named = ", ".join(f"{key}={value:g}" for key, value in sorted(overrides.items()))
        flips = sum(
            1 for live, offline in zip(recorded, replayed) if live["promote"] != offline["promote"]
        )
        print(
            f"\nre-ruled under tuned thresholds ({named}): "
            f"{flips} verdict(s) flipped vs. the live run"
        )
        return 0

    def _canonical(verdicts):
        return json.dumps(verdicts, sort_keys=True, separators=(",", ":"))

    if _canonical(recorded) == _canonical(replayed):
        print("\nreplayed verdicts are byte-identical to the live run's")
        return 0
    print("\nerror: replayed verdicts diverge from the recorded ones", file=sys.stderr)
    for index, (live, offline) in enumerate(zip(recorded, replayed)):
        for key in live:
            if live.get(key) != offline.get(key):
                print(
                    f"  ruling {index}: {key}: recorded {live.get(key)!r} "
                    f"!= replayed {offline.get(key)!r}",
                    file=sys.stderr,
                )
    return 1


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import (
        AblationManifest,
        ablation_comparison,
        smoke_manifest,
        write_reports,
    )

    try:
        if args.manifest is not None:
            manifest = AblationManifest.from_file(args.manifest)
        else:
            manifest = smoke_manifest() if args.preset == "smoke" else AblationManifest()
        manifest = replace(
            manifest,
            tiny=manifest.tiny or args.tiny,
            duration_scale=args.duration_scale or manifest.duration_scale,
        )
        comparison = ablation_comparison(manifest)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"== repro ablate: {manifest.name} ({len(comparison.configs)} cells, "
        f"duration_scale={manifest.duration_scale:g}) =="
    )
    scenario = comparison.run(jobs=args.jobs, progress=lambda mode: print(f"-- running {mode} ..."))
    print()
    print(comparison_report(scenario))
    for path in write_reports(manifest, scenario, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_comparison(args: argparse.Namespace) -> int:
    """Build the subcommand's comparison, run it and print its report.

    The comparison is built, and every config of it validated, before
    anything runs, so a builder's or a config's ``ValueError`` (bad shard
    count, too few runs, a tracer fraction out of range, ...) exits 2 with
    one line.  A failed claim exits 1; a streamed run whose final JSONL
    record disagrees with the post-hoc ledger exits 2.
    """
    try:
        comparison = COMPARISONS[args.command](
            duration_scale=args.duration_scale,
            seed=args.seed,
            scale=_population(args),
            **{dest: getattr(args, dest) for dest in args.options},
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scenario = comparison.run()
    print(comparison_report(scenario))
    for result in scenario.results.values():
        path = result.config.stream_metrics
        if path and _check_streamed_ledger(path, dict(result.accounting)):
            return 2
    return 0 if scenario.holds() else 1


# --------------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------------- #
#: One subcommand-specific argument: ``(flag, add_argument kwargs)``.
Option = Tuple[str, Dict[str, object]]

#: Help of the sharded comparisons' ``--shards``.
_SHARDS_HELP = "application-server instances behind the balancer"


@dataclass(frozen=True)
class ScenarioCommand:
    """One subcommand: parser shape + handler, in one row.

    New subcommands plug in by appending a row to :data:`SCENARIO_COMMANDS`
    (or :data:`UTILITY_COMMANDS`); the parser builder and the dispatcher
    never change.  A comparison command (the default handler) builds
    ``COMPARISONS[name]`` from the shared knobs plus every option, passed as
    the keyword argument named by the option's ``dest``.
    """

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int] = _cmd_comparison
    #: Whether the subcommand takes the shared ``--seed``,
    #: ``--duration-scale`` and ``--tiny`` knobs.
    common: bool = True
    #: Whether the subcommand takes the shared ``--ebs`` knob.
    include_ebs: bool = True
    #: Subcommand-specific arguments.
    options: Tuple[Option, ...] = ()


def _deploy_options(default_shards: int, streamed_run: str) -> Tuple[Option, ...]:
    """The shared arguments of the deploy comparisons."""
    return (
        ("--shards", dict(type=int, default=default_shards, help=f"{_SHARDS_HELP} (>= 3)")),
        (
            "--stream-metrics",
            dict(
                metavar="PATH",
                default=None,
                help=f"stream observability snapshots of the {streamed_run} run to "
                "a JSONL file (replayable with `repro replay`)",
            ),
        ),
    )


UTILITY_COMMANDS: List[ScenarioCommand] = [
    ScenarioCommand("environment", "print Table I (paper vs. reproduction)", _cmd_environment, common=False),
    ScenarioCommand(
        "quickstart",
        "install the framework, inject a leak, diagnose",
        _cmd_quickstart,
        options=(
            ("--component", dict(default="home", help="component to inject the leak into")),
            ("--leak-kb", dict(type=int, default=100, help="leak size in KB")),
            ("--period-n", dict(type=int, default=20, help="injection countdown parameter N")),
        ),
    ),
    ScenarioCommand(
        "bench",
        "run the perf microbenchmarks (speedups vs. the seed baseline)",
        _cmd_bench,
        common=False,
        options=(
            ("--json", dict(metavar="PATH", help="write a BENCH_perf.json artifact")),
            ("--only", dict(metavar="NAMES", help="comma-separated benchmark names")),
            ("--list", dict(action="store_true", help="list benchmark names and exit")),
            ("--seed", dict(type=int, default=None, help="override REPRO_BENCH_SEED")),
            ("--duration-scale", dict(type=_positive_float, default=None, help="override REPRO_BENCH_DURATION_SCALE")),
            ("--tiny", dict(action="store_true", help="tiny iteration counts (CI smoke; REPRO_BENCH_TINY=1)")),
            (
                "--compare",
                dict(
                    nargs=2,
                    metavar=("OLD.json", "NEW.json"),
                    help="compare two bench artifacts per (name, options); exit non-zero "
                    "on a >10%% speedup regression of any previously-passing bench",
                ),
            ),
        ),
    ),
    ScenarioCommand(
        "ablate",
        "run the policy × fault × mechanism × seed ablation matrix and "
        "write ranked importance/regret reports",
        _cmd_ablate,
        common=False,
        options=(
            ("--manifest", dict(metavar="PATH", default=None, help="manifest JSON path")),
            ("--preset", dict(choices=["default", "smoke"], default="default", help="built-in manifest to run when --manifest is not given")),
            ("--out", dict(metavar="DIR", default="benchmarks/results", help="directory the ablation_<name>.{json,csv,md} artifacts go to")),
            ("--duration-scale", dict(type=_positive_float, default=None, help="override the manifest's duration scale")),
            ("--tiny", dict(action="store_true", help="force the small test database population")),
            ("--jobs", dict(type=_positive_int, default=1, help="worker processes for matrix cells (1 = serial; reports are byte-identical either way)")),
        ),
    ),
    ScenarioCommand(
        "replay",
        "feed a recorded JSONL metrics stream back through the canary "
        "analyzer offline (verify byte-identity, or tune thresholds)",
        _cmd_replay,
        common=False,
        options=(
            ("stream", dict(metavar="STREAM.jsonl", help="stream recorded with --stream-metrics")),
            ("--growth-ratio-threshold", dict(type=float, default=None, help="re-rule under this growth-ratio threshold instead of the recorded one")),
            ("--alpha", dict(type=float, default=None, help="re-rule under this Mann-Kendall significance level")),
            ("--burn-delta-threshold", dict(type=float, default=None, help="re-rule under this SLA-burn delta threshold")),
        ),
    ),
]

SCENARIO_COMMANDS: List[ScenarioCommand] = [
    ScenarioCommand("fig3", "overhead experiment (monitored vs. unmonitored throughput)", include_ebs=False),
    ScenarioCommand("fig4", "single-leak experiment"),
    ScenarioCommand("fig5", "four identical leaks (+ the Fig. 6 map)"),
    ScenarioCommand("fig7", "heterogeneous leak sizes"),
    ScenarioCommand("rejuvenation", "live rejuvenation: no action vs. restarts vs. micro-reboots"),
    ScenarioCommand("adaptive", "adaptive rejuvenation & SLA comparison over memory/thread/connection leaks"),
    ScenarioCommand(
        "mixed",
        "mixed faults: concurrent heap + connection leaks in different components",
        options=(("--dual", dict(dest="dual_leak", action="store_true", help="dual-leak variant: the same component leaks heap AND connections")),),
    ),
    ScenarioCommand(
        "learning",
        "cross-run calibration learning: cold vs. warm-started adaptive",
        options=(
            ("--runs", dict(type=int, default=4, help="repeated runs per mode (cold/warm)")),
            ("--store", dict(dest="store_path", metavar="PATH", default=None, help="calibration store JSON path (default: a fresh temporary file)")),
        ),
    ),
    ScenarioCommand("zoo", "fault zoo: five degradation modes + cascade-aware attribution verdicts"),
    ScenarioCommand("storm", "retry storm: naive immediate retries vs. backoff + circuit breaker"),
    ScenarioCommand(
        "fleet",
        "sharded fleet: rolling vs. simultaneous vs. no-action rejuvenation",
        options=(
            ("--shards", dict(type=int, default=4, help=_SHARDS_HELP)),
            ("--balancer", dict(dest="balancer_policy", choices=["sticky", "round-robin", "least-occupancy"], default="sticky", help="load-balancer policy")),
        ),
    ),
    ScenarioCommand("canary", "canary deploy of a leaky build: catch + rollback vs. blind rollout", options=_deploy_options(3, "canary")),
    ScenarioCommand("rollout", "progressive delivery: staged ladder + alert-driven rollback vs. single canary vs. blind", options=_deploy_options(4, "staged")),
    ScenarioCommand(
        "scale",
        "hybrid fluid/discrete engine: 1x validation bands + scaled population",
        options=(
            ("--shards", dict(type=int, default=2, help=_SHARDS_HELP)),
            ("--population-factor", dict(type=int, default=100, help="bulk-population multiplier of the scaled hybrid run")),
            ("--tracer-fraction", dict(type=float, default=0.02, help="fraction of EBs kept on the discrete servlet/SQL path")),
        ),
    ),
]


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software-aging root-cause determination (Alonso et al. 2010) — reproduction CLI",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in UTILITY_COMMANDS + SCENARIO_COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help)
        if command.common:
            sub.add_argument("--seed", type=int, default=42, help="master random seed")
            sub.add_argument(
                "--duration-scale",
                type=_positive_float,
                default=0.1,
                help="scale of the paper's one-hour experiments (1.0 = full length)",
            )
            sub.add_argument("--tiny", action="store_true", help="use the small test database population")
        options = []
        if command.common and command.include_ebs:
            sub.add_argument("--ebs", type=_positive_int, default=100, help="number of Emulated Browsers")
            options.append("ebs")
        options += [sub.add_argument(flag, **spec).dest for flag, spec in command.options]
        sub.set_defaults(handler=command.handler, options=options)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = list(sys.argv[1:] if argv is None else argv)
    # A wrong or missing subcommand prints the command registry instead of
    # argparse's bare "invalid choice" error.  The only pre-subcommand flags
    # (-h/--help/--version) take no value, so the first non-flag argument is
    # the attempted command.
    command = next((arg for arg in arguments if not arg.startswith("-")), None)
    commands = UTILITY_COMMANDS + SCENARIO_COMMANDS
    wants_help = any(arg in ("-h", "--help", "--version") for arg in arguments)
    if (command is None and not wants_help) or (
        command is not None and command not in {row.name for row in commands}
    ):
        if command is not None:
            print(f"error: unknown command {command!r}", file=sys.stderr)
        print("available commands:", file=sys.stderr)
        rows = [{"command": row.name, "what it runs": row.help} for row in commands]
        print(format_table(rows, ["command", "what it runs"]), file=sys.stderr)
        return 2
    args = parser.parse_args(arguments)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
