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
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro._version import __version__
from repro.experiments.environment import environment_rows
from repro.experiments.reporting import (
    adaptive_report,
    canary_report,
    fig3_report,
    fig6_report,
    fleet_report,
    format_table,
    leak_scenario_report,
    learning_report,
    mixed_report,
    rejuvenation_report,
    retry_storm_report,
    rollout_report,
    scale_report,
    zoo_report,
)
from repro.experiments.scenarios import (
    fig3_overhead,
    fig4_single_leak,
    fig5_multi_leak,
    fig6_manager_map,
    fig7_injection_sizes,
    fig_adaptive,
    fig_canary,
    fig_fleet,
    fig_learning,
    fig_mixed,
    fig_rejuvenation,
    fig_retry_storm,
    fig_rollout,
    fig_scale,
    fig_zoo,
)
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


def _cmd_fig3(args: argparse.Namespace) -> int:
    result = fig3_overhead(
        duration_scale=args.duration_scale, seed=args.seed, scale=_population(args)
    )
    print(fig3_report(result))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    scenario = fig4_single_leak(
        duration_scale=args.duration_scale, seed=args.seed, scale=_population(args), ebs=args.ebs
    )
    print(
        leak_scenario_report(
            scenario,
            title="Fig. 4: injection in component A (100 KB, N=100)",
            expectation="A grows to MBs, the rest stay flat, A gets 100% responsibility",
        )
    )
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    scenario = fig5_multi_leak(
        duration_scale=args.duration_scale, seed=args.seed, scale=_population(args), ebs=args.ebs
    )
    print(
        leak_scenario_report(
            scenario,
            title="Fig. 5: 100 KB (N=100) injected in components A, B, C and D",
            expectation="A and B grow fastest and similarly, C slower, D flat",
        )
    )
    print()
    print(fig6_report(fig6_manager_map(scenario)))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.registry import BenchOptions, all_bench_names, run_benches, write_json

    if args.list:
        for name in all_bench_names():
            print(name)
        return 0

    if args.compare:
        return _cmd_bench_compare(args.compare[0], args.compare[1])

    options = BenchOptions.from_environment()
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


def _cmd_rejuvenation(args: argparse.Namespace) -> int:
    scenario = fig_rejuvenation(
        duration_scale=args.duration_scale, seed=args.seed, scale=_population(args), ebs=args.ebs
    )
    print(rejuvenation_report(scenario))
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    scenario = fig_adaptive(
        duration_scale=args.duration_scale, seed=args.seed, scale=_population(args), ebs=args.ebs
    )
    print(adaptive_report(scenario))
    return 0


def _cmd_mixed(args: argparse.Namespace) -> int:
    scenario = fig_mixed(
        duration_scale=args.duration_scale,
        seed=args.seed,
        scale=_population(args),
        ebs=args.ebs,
        dual_leak=args.dual,
    )
    print(mixed_report(scenario))
    return 0


def _cmd_learning(args: argparse.Namespace) -> int:
    scenario = fig_learning(
        duration_scale=args.duration_scale,
        seed=args.seed,
        scale=_population(args),
        ebs=args.ebs,
        runs=args.runs,
        store_path=args.store,
    )
    print(learning_report(scenario))
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    scenario = fig_zoo(
        duration_scale=args.duration_scale, seed=args.seed, scale=_population(args), ebs=args.ebs
    )
    print(zoo_report(scenario))
    return 0


def _cmd_storm(args: argparse.Namespace) -> int:
    scenario = fig_retry_storm(
        duration_scale=args.duration_scale, seed=args.seed, scale=_population(args), ebs=args.ebs
    )
    print(retry_storm_report(scenario))
    return 0 if scenario.cost_delta() > 0 else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    scenario = fig_fleet(
        duration_scale=args.duration_scale,
        seed=args.seed,
        scale=_population(args),
        ebs=args.ebs,
        shards=args.shards,
        balancer_policy=args.balancer,
    )
    print(fleet_report(scenario))
    return 0 if scenario.rolling_wins() else 1


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


def _cmd_canary(args: argparse.Namespace) -> int:
    scenario = fig_canary(
        duration_scale=args.duration_scale,
        seed=args.seed,
        scale=_population(args),
        ebs=args.ebs,
        shards=args.shards,
        stream_metrics=args.stream_metrics,
    )
    print(canary_report(scenario))
    if args.stream_metrics and _check_streamed_ledger(
        args.stream_metrics, dict(scenario.results["canary"].accounting)
    ):
        return 2
    return 0 if scenario.canary_wins() else 1


def _cmd_rollout(args: argparse.Namespace) -> int:
    scenario = fig_rollout(
        duration_scale=args.duration_scale,
        seed=args.seed,
        scale=_population(args),
        ebs=args.ebs,
        shards=args.shards,
        stream_metrics=args.stream_metrics,
    )
    print(rollout_report(scenario))
    if args.stream_metrics and _check_streamed_ledger(
        args.stream_metrics, dict(scenario.results["staged"].accounting)
    ):
        return 2
    return 0 if scenario.staged_wins() else 1


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


def _cmd_scale(args: argparse.Namespace) -> int:
    scenario = fig_scale(
        duration_scale=args.duration_scale,
        seed=args.seed,
        scale=_population(args),
        ebs=args.ebs,
        shards=args.shards,
        population_factor=args.population_factor,
        tracer_fraction=args.tracer_fraction,
    )
    print(scale_report(scenario))
    return 0 if scenario.within_bands() else 1


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import (
        AblationManifest,
        default_manifest,
        run_ablation,
        smoke_manifest,
        write_reports,
    )
    from repro.experiments.reporting import format_table as _table

    if args.manifest is not None:
        try:
            manifest = AblationManifest.from_file(args.manifest)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.preset == "smoke":
        manifest = smoke_manifest()
    else:
        manifest = default_manifest()
    if args.tiny:
        manifest.tiny = True
    duration_scale = args.duration_scale

    print(
        f"== repro ablate: {manifest.name} "
        f"({manifest.cell_count()} cells, duration_scale="
        f"{duration_scale if duration_scale is not None else manifest.duration_scale:g}) =="
    )
    result = run_ablation(
        manifest,
        duration_scale=duration_scale,
        progress=lambda label: print(f"-- running {label} ..."),
        jobs=args.jobs,
    )
    print()
    print("mechanism importance (SLA cost removed vs. baseline):")
    print(_table(result.mechanism_importance()))
    print()
    print("policy regret (mean excess SLA cost over per-cell best):")
    print(_table(result.policy_regret()))
    print()
    print("fault severity (mean SLA cost):")
    print(_table(result.fault_severity()))
    for path in write_reports(result, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    scenario = fig7_injection_sizes(
        duration_scale=args.duration_scale, seed=args.seed, scale=_population(args), ebs=args.ebs
    )
    print(
        leak_scenario_report(
            scenario,
            title="Fig. 7: A=100 KB, B=10 KB, C=1 MB, D=1 MB (N=100)",
            expectation="C first, A second, B third, D flat",
        )
    )
    return 0


# --------------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioCommand:
    """One scenario subcommand: parser shape + handler, in one row.

    New scenarios plug in by appending a row to :data:`SCENARIO_COMMANDS`
    (or calling :func:`register_scenario`); the parser builder and the
    dispatcher never change.
    """

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    #: Whether the subcommand takes the shared ``--ebs`` knob.
    include_ebs: bool = True
    #: Hook adding subcommand-specific arguments to its subparser.
    extra_args: Optional[Callable[[argparse.ArgumentParser], None]] = None


def _mixed_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--dual",
        action="store_true",
        help="dual-leak variant: the same component leaks heap AND connections",
    )


def _learning_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--runs", type=int, default=4, help="repeated runs per mode (cold/warm)")
    sub.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="calibration store JSON path (default: a fresh temporary file)",
    )


def _fleet_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--shards", type=int, default=4, help="application-server instances behind the balancer"
    )
    sub.add_argument(
        "--balancer",
        choices=["sticky", "round-robin", "least-occupancy"],
        default="sticky",
        help="load-balancer policy",
    )


def _deploy_shards(text: str) -> int:
    """``--shards`` of the deploy comparisons: the deployed stage needs at
    least two baseline shards to be ruled against."""
    try:
        shards = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if shards < 3:
        raise argparse.ArgumentTypeError(
            f"a deploy comparison needs at least 3 shards "
            f"(a deployed stage + >=2 baselines), got {shards}"
        )
    return shards


def _deploy_args(
    default_shards: int, streamed_run: str
) -> Callable[[argparse.ArgumentParser], None]:
    """The shared argument builder of the deploy comparisons."""

    def add(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--shards",
            type=_deploy_shards,
            default=default_shards,
            help="application-server instances behind the balancer (>= 3)",
        )
        sub.add_argument(
            "--stream-metrics",
            metavar="PATH",
            default=None,
            help=f"stream observability snapshots of the {streamed_run} run to "
            "a JSONL file (replayable with `repro replay`)",
        )

    return add


def _scale_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--shards", type=int, default=2, help="application-server instances behind the balancer"
    )
    sub.add_argument(
        "--population-factor",
        type=int,
        default=100,
        help="bulk-population multiplier of the scaled hybrid run",
    )
    sub.add_argument(
        "--tracer-fraction",
        type=float,
        default=0.02,
        help="fraction of EBs kept on the discrete servlet/SQL path",
    )


SCENARIO_COMMANDS: List[ScenarioCommand] = [
    ScenarioCommand("fig3", "overhead experiment (monitored vs. unmonitored throughput)", _cmd_fig3, include_ebs=False),
    ScenarioCommand("fig4", "single-leak experiment", _cmd_fig4),
    ScenarioCommand("fig5", "four identical leaks (+ the Fig. 6 map)", _cmd_fig5),
    ScenarioCommand("fig7", "heterogeneous leak sizes", _cmd_fig7),
    ScenarioCommand("rejuvenation", "live rejuvenation: no action vs. restarts vs. micro-reboots", _cmd_rejuvenation),
    ScenarioCommand("adaptive", "adaptive rejuvenation & SLA comparison over memory/thread/connection leaks", _cmd_adaptive),
    ScenarioCommand("mixed", "mixed faults: concurrent heap + connection leaks in different components", _cmd_mixed, extra_args=_mixed_args),
    ScenarioCommand("learning", "cross-run calibration learning: cold vs. warm-started adaptive", _cmd_learning, extra_args=_learning_args),
    ScenarioCommand("zoo", "fault zoo: five degradation modes + cascade-aware attribution verdicts", _cmd_zoo),
    ScenarioCommand("storm", "retry storm: naive immediate retries vs. backoff + circuit breaker", _cmd_storm),
    ScenarioCommand("fleet", "sharded fleet: rolling vs. simultaneous vs. no-action rejuvenation", _cmd_fleet, extra_args=_fleet_args),
    ScenarioCommand("canary", "canary deploy of a leaky build: catch + rollback vs. blind rollout", _cmd_canary, extra_args=_deploy_args(3, "canary")),
    ScenarioCommand("rollout", "progressive delivery: staged ladder + alert-driven rollback vs. single canary vs. blind", _cmd_rollout, extra_args=_deploy_args(4, "staged")),
    ScenarioCommand("scale", "hybrid fluid/discrete engine: 1x validation bands + scaled population", _cmd_scale, extra_args=_scale_args),
]


def register_scenario(command: ScenarioCommand) -> None:
    """Add a scenario subcommand to the registry (idempotent by name)."""
    if any(existing.name == command.name for existing in SCENARIO_COMMANDS):
        raise ValueError(f"scenario command {command.name!r} is already registered")
    SCENARIO_COMMANDS.append(command)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software-aging root-cause determination (Alonso et al. 2010) — reproduction CLI",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")

    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, include_ebs: bool = True) -> None:
        sub.add_argument("--seed", type=int, default=42, help="master random seed")
        sub.add_argument(
            "--duration-scale",
            type=_positive_float,
            default=0.1,
            help="scale of the paper's one-hour experiments (1.0 = full length)",
        )
        sub.add_argument("--tiny", action="store_true", help="use the small test database population")
        if include_ebs:
            sub.add_argument("--ebs", type=int, default=100, help="number of Emulated Browsers")

    environment_parser = subparsers.add_parser("environment", help="print Table I (paper vs. reproduction)")
    environment_parser.set_defaults(handler=_cmd_environment)

    quickstart_parser = subparsers.add_parser("quickstart", help="install the framework, inject a leak, diagnose")
    add_common(quickstart_parser)
    quickstart_parser.add_argument("--component", default="home", help="component to inject the leak into")
    quickstart_parser.add_argument("--leak-kb", type=int, default=100, help="leak size in KB")
    quickstart_parser.add_argument("--period-n", type=int, default=20, help="injection countdown parameter N")
    quickstart_parser.set_defaults(handler=_cmd_quickstart)

    for command in SCENARIO_COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help)
        add_common(sub, include_ebs=command.include_ebs)
        if command.extra_args is not None:
            command.extra_args(sub)
        sub.set_defaults(handler=command.handler)

    bench_parser = subparsers.add_parser(
        "bench", help="run the perf microbenchmarks (speedups vs. the seed baseline)"
    )
    bench_parser.add_argument("--json", metavar="PATH", help="write a BENCH_perf.json artifact")
    bench_parser.add_argument("--only", metavar="NAMES", help="comma-separated benchmark names")
    bench_parser.add_argument("--list", action="store_true", help="list benchmark names and exit")
    bench_parser.add_argument("--seed", type=int, default=None, help="override REPRO_BENCH_SEED")
    bench_parser.add_argument(
        "--duration-scale", type=float, default=None, help="override REPRO_BENCH_DURATION_SCALE"
    )
    bench_parser.add_argument(
        "--tiny", action="store_true", help="tiny iteration counts (CI smoke; REPRO_BENCH_TINY=1)"
    )
    bench_parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD.json", "NEW.json"),
        help="compare two bench artifacts per (name, options); exit non-zero "
        "on a >10%% speedup regression of any previously-passing bench",
    )
    bench_parser.set_defaults(handler=_cmd_bench)

    ablate_parser = subparsers.add_parser(
        "ablate",
        help="run the policy × fault × mechanism × seed ablation matrix and "
        "write ranked importance/regret reports",
    )
    ablate_parser.add_argument(
        "--manifest", metavar="PATH", default=None, help="manifest JSON path"
    )
    ablate_parser.add_argument(
        "--preset",
        choices=["default", "smoke"],
        default="default",
        help="built-in manifest to run when --manifest is not given",
    )
    ablate_parser.add_argument(
        "--out",
        metavar="DIR",
        default="benchmarks/results",
        help="directory the ablation_<name>.{json,csv,md} artifacts go to",
    )
    ablate_parser.add_argument(
        "--duration-scale",
        type=float,
        default=None,
        help="override the manifest's duration scale",
    )
    ablate_parser.add_argument(
        "--tiny", action="store_true", help="force the small test database population"
    )
    ablate_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for matrix cells (1 = serial; reports are "
        "byte-identical either way)",
    )
    ablate_parser.set_defaults(handler=_cmd_ablate)

    replay_parser = subparsers.add_parser(
        "replay",
        help="feed a recorded JSONL metrics stream back through the canary "
        "analyzer offline (verify byte-identity, or tune thresholds)",
    )
    replay_parser.add_argument(
        "stream", metavar="STREAM.jsonl", help="stream recorded with --stream-metrics"
    )
    replay_parser.add_argument(
        "--growth-ratio-threshold",
        type=float,
        default=None,
        help="re-rule under this growth-ratio threshold instead of the recorded one",
    )
    replay_parser.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="re-rule under this Mann-Kendall significance level",
    )
    replay_parser.add_argument(
        "--burn-delta-threshold",
        type=float,
        default=None,
        help="re-rule under this SLA-burn delta threshold",
    )
    replay_parser.set_defaults(handler=_cmd_replay)

    return parser


#: Non-scenario subcommands and their one-line help, for the registry table.
_UTILITY_COMMANDS = [
    ("environment", "print Table I (paper vs. reproduction)"),
    ("quickstart", "install the framework, inject a leak, diagnose"),
    ("bench", "run the perf microbenchmarks (speedups vs. the seed baseline)"),
    ("ablate", "run the policy × fault × mechanism × seed ablation matrix"),
    ("replay", "replay a recorded metrics stream through the canary analyzer offline"),
]


def _registry_table() -> str:
    """The full command registry as a table (shown on unknown commands)."""
    rows = [
        {"command": name, "what it runs": help_text}
        for name, help_text in _UTILITY_COMMANDS
    ]
    rows += [
        {"command": command.name, "what it runs": command.help}
        for command in SCENARIO_COMMANDS
    ]
    return format_table(rows, ["command", "what it runs"])


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = list(sys.argv[1:] if argv is None else argv)
    # A wrong or missing subcommand prints the scenario registry instead of
    # argparse's bare "invalid choice" error.  The only pre-subcommand flags
    # (-h/--help/--version) take no value, so the first non-flag argument is
    # the attempted command.
    command = next((arg for arg in arguments if not arg.startswith("-")), None)
    known = {name for name, _ in _UTILITY_COMMANDS}
    known.update(command_row.name for command_row in SCENARIO_COMMANDS)
    wants_help = any(arg in ("-h", "--help", "--version") for arg in arguments)
    if (command is None and not wants_help) or (command is not None and command not in known):
        if command is not None:
            print(f"error: unknown command {command!r}", file=sys.stderr)
        print("available commands:", file=sys.stderr)
        print(_registry_table(), file=sys.stderr)
        return 2
    args = parser.parse_args(arguments)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
