"""The microbenchmark suite behind ``repro bench``.

Each bench is kept because a speed target, a CI step or a ROADMAP claim
reads it.  Coverage, in registration order:

``event_loop``
    Discrete-event engine throughput on a realistic mix (a closed-loop
    browser-style population of self-rescheduling chains plus a pre-scheduled
    sampler fan), current engine vs. the seed's dataclass-heap engine.
``woven_dispatch``
    Woven method call overhead (the Aspect Component shape: one ``before`` +
    one ``after``), current compiled dispatch vs. the seed's closure chain —
    measured with monitoring enabled and disabled.
``fig3_e2e`` / ``fig4_e2e``
    End-to-end wall-clock of the paper experiments (vs. wall-clock recorded
    at the seed commit — only comparable on similar hardware).
``rejuvenation_e2e``
    End-to-end wall-clock of the three-policy live rejuvenation scenario
    (no action / time-based full restarts / proactive micro-reboots), plus
    the availability metrics the comparison is about.
``request_path``
    Full container request path (dispatch -> servlet -> SQL -> capacity
    booking), with the planned SQL executor + single-table fast path vs.
    the seed's wrapper-dict row handling (live A/B in one process).
``join_topk``
    The planner's single-join ORDER BY + LIMIT shape (the ``new_products``
    query) on a large synthetic item/author population: compiled plan with
    tuple rows and heap top-k vs. the seed's merged-wrapper-dict join with
    full sort, re-measured live.
``adaptive_e2e``
    End-to-end wall-clock of the adaptive rejuvenation & SLA comparison
    (four policies x three leak workloads), plus its headline verdict
    metrics.
``learning_e2e``
    End-to-end wall-clock of the cross-run calibration learning comparison
    (cold vs. warm-started adaptive over repeated runs), plus its headline
    verdict metrics (cumulative SLA cost and total recycles per mode).
``fleet_e2e``
    End-to-end wall-clock of the sharded-fleet scenario (rolling vs.
    simultaneous vs. no-action rejuvenation at four shards behind the load
    balancer), plus its headline verdicts (per-mode SLA cost, rolling
    minimum capacity, whether rolling wins).
``obs_overhead``
    Cost of the observability plane as a share of the Fig. 3 e2e run.
``group_by``
    The planner's GROUP BY aggregates (the ``best_sellers`` statement and a
    fact-table scan) vs. the seed executor, re-measured live.
``hybrid_e2e``
    Discrete-event reduction of the hybrid engine on the scale scenario.

The live A/B benches (``request_path``, ``join_topk``, ``group_by``) time
both sides back to back in each round and report the median of the
per-round ratios (:func:`~repro.perf.timer.measure_rates_interleaved`).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.perf.baseline import RECORDED_ON, recorded_e2e_seconds
from repro.perf.registry import BenchOptions, BenchResult, microbench
from repro.perf.seed_reference import SeedSimulationEngine, SeedWeaver
from repro.perf.timer import measure_rate, measure_rates_interleaved, measure_seconds

#: Minimum speedups this PR's tentpole commits to (ISSUE 1).
EVENT_LOOP_TARGET = 3.0
DISPATCH_TARGET = 3.0
#: >= 40 % wall-clock reduction expressed as a speedup ratio.
E2E_TARGET = 1.0 / (1.0 - 0.40)
#: ISSUE 4 tentpole targets: the planner's top-k join shape and the
#: cumulative full-request-path gain over the seed row handling.
JOIN_TOPK_TARGET = 3.0
REQUEST_PATH_TARGET = 1.6


# --------------------------------------------------------------------------- #
# Event loop
# --------------------------------------------------------------------------- #
def _event_loop_workload(engine, chains: int, total: int, fan: int) -> int:
    """Schedule the mixed workload on ``engine`` and drain it."""
    count = [0]
    clock = engine.clock
    schedule = getattr(engine, "schedule_callback", None) or engine.schedule_at

    def make_chain() -> Callable[[], None]:
        def tick() -> None:
            count[0] += 1
            if count[0] < total:
                schedule(clock.now + 1.0, tick)

        return tick

    def noop() -> None:
        return None

    for index in range(fan):
        schedule(index * 0.05, noop)
    for index in range(chains):
        engine.schedule_at(index * 0.001, make_chain())
    engine.run()
    return engine.executed_events


@microbench("event_loop")
def bench_event_loop(options: BenchOptions) -> BenchResult:
    """Engine throughput: current tuple-heap engine vs. seed dataclass heap."""
    chains, total, fan = (50, 30_000, 4_000) if options.tiny else (200, 150_000, 20_000)

    from repro.sim.engine import SimulationEngine

    current = measure_rate(lambda: _event_loop_workload(SimulationEngine(), chains, total, fan))
    seed = measure_rate(lambda: _event_loop_workload(SeedSimulationEngine(), chains, total, fan))
    current_rate = float(current["best_ops_per_second"])  # type: ignore[arg-type]
    seed_rate = float(seed["best_ops_per_second"])  # type: ignore[arg-type]
    return BenchResult(
        name="event_loop",
        metrics={
            "events_per_second": current_rate,
            "seed_events_per_second": seed_rate,
            "chains": chains,
            "events_total": total,
            "prescheduled_fan": fan,
        },
        speedup_vs_seed=current_rate / seed_rate,
        target_speedup=EVENT_LOOP_TARGET,
        config={"tiny": options.tiny},
    )


# --------------------------------------------------------------------------- #
# Woven dispatch
# --------------------------------------------------------------------------- #
class _BenchTarget:
    """Stand-in application component with a Java-style class name."""

    java_class_name = "org.tpcw.servlet.TPCW_bench"
    component_name = "bench"

    def service(self, value: int) -> int:
        return value + 1


def _make_monitor_aspect():
    from repro.aop.aspect import Aspect, after, before

    class _MonitorAspect(Aspect):
        """One before + one after: the Aspect Component dispatch shape.

        The bodies are deliberately empty so the benchmark isolates dispatch
        infrastructure (wrapper, join point, enabled probes) rather than
        advice work, which is identical under both weavers.
        """

        @before("execution(org.tpcw..*.service)")
        def record_before(self, join_point) -> None:
            pass

        @after("execution(org.tpcw..*.service)")
        def record_after(self, join_point) -> None:
            pass

    return _MonitorAspect()


def _dispatch_rates(weaver_factory: Callable[[], object], calls: int) -> Dict[str, float]:
    target = _BenchTarget()
    aspect = _make_monitor_aspect()
    weaver = weaver_factory()
    weaver.register_aspect(aspect)  # type: ignore[attr-defined]
    weaver.weave_object(target, method_names=["service"])  # type: ignore[attr-defined]

    def run_calls() -> int:
        service = target.service
        for index in range(calls):
            service(index)
        return calls

    enabled = measure_rate(run_calls)
    aspect.disable()
    disabled = measure_rate(run_calls)
    return {
        "enabled": float(enabled["best_ops_per_second"]),  # type: ignore[arg-type]
        "disabled": float(disabled["best_ops_per_second"]),  # type: ignore[arg-type]
    }


@microbench("woven_dispatch")
def bench_woven_dispatch(options: BenchOptions) -> BenchResult:
    """Woven vs. unwoven call overhead, compiled dispatch vs. seed chain."""
    calls = 30_000 if options.tiny else 150_000

    from repro.aop.weaver import Weaver

    current = _dispatch_rates(Weaver, calls)
    seed = _dispatch_rates(SeedWeaver, calls)

    # Unwoven reference: the raw method call, for the overhead-factor metric.
    target = _BenchTarget()

    def run_unwoven() -> int:
        service = target.service
        for index in range(calls):
            service(index)
        return calls

    unwoven = float(measure_rate(run_unwoven)["best_ops_per_second"])  # type: ignore[arg-type]

    return BenchResult(
        name="woven_dispatch",
        metrics={
            "calls_per_second_enabled": current["enabled"],
            "calls_per_second_disabled": current["disabled"],
            "seed_calls_per_second_enabled": seed["enabled"],
            "seed_calls_per_second_disabled": seed["disabled"],
            "unwoven_calls_per_second": unwoven,
            "enabled_overhead_factor": unwoven / current["enabled"],
            "calls": calls,
        },
        # The paper's claim is about *always-on* monitoring, so the enabled
        # path is the one that must clear the target.
        speedup_vs_seed=current["enabled"] / seed["enabled"],
        target_speedup=DISPATCH_TARGET,
        config={"tiny": options.tiny},
    )


# --------------------------------------------------------------------------- #
# End-to-end experiments
# --------------------------------------------------------------------------- #
def _e2e_config(options: BenchOptions) -> Dict[str, object]:
    # The e2e benches always use the tiny population: they measure
    # interpreter overhead of the stack, and the recorded baseline was
    # measured tiny.  The figure benchmarks (pytest benchmarks/) cover the
    # paper-scale population.
    return {"duration_scale": options.duration_scale, "tiny": True, "seed": options.seed}


def _run_e2e(name: str, runner: Callable[[], Dict[str, object]], options: BenchOptions) -> BenchResult:
    config = _e2e_config(options)
    last: Dict[str, object] = {}

    def timed_runner() -> None:
        last.clear()
        last.update(runner())

    stats = measure_seconds(timed_runner, repeats=2, warmup=False)
    seconds = float(stats["best_seconds"])  # type: ignore[arg-type]
    extra = dict(last)
    baseline = recorded_e2e_seconds(name, config)
    metrics: Dict[str, object] = {
        "wall_clock_seconds": seconds,
        "recorded_seed_seconds": baseline,
        "recorded_on": RECORDED_ON if baseline is not None else None,
        **extra,
    }
    speedup = baseline / seconds if baseline is not None else None
    if speedup is not None:
        metrics["wall_clock_reduction_percent"] = 100.0 * (1.0 - 1.0 / speedup)
    return BenchResult(
        name=name,
        metrics=metrics,
        speedup_vs_seed=speedup,
        target_speedup=E2E_TARGET if baseline is not None else None,
        config=config,
    )


@microbench("fig3_e2e")
def bench_fig3_e2e(options: BenchOptions) -> BenchResult:
    """Wall-clock of the Fig. 3 overhead experiment (monitored + unmonitored)."""
    from repro.experiments.scenarios import fig3_overhead, overhead_percent
    from repro.tpcw.population import PopulationScale

    def runner() -> Dict[str, object]:
        scenario = fig3_overhead(
            duration_scale=options.duration_scale,
            seed=options.seed,
            scale=PopulationScale.tiny(),
        ).run()
        return {
            "overhead_percent": round(overhead_percent(scenario), 4),
            "monitored_requests": scenario.result("monitored").completed_requests,
            "unmonitored_requests": scenario.result("unmonitored").completed_requests,
            "claim_holds": scenario.holds(),
        }

    return _run_e2e("fig3_e2e", runner, options)


# --------------------------------------------------------------------------- #
# Live rejuvenation end-to-end
# --------------------------------------------------------------------------- #
@microbench("rejuvenation_e2e")
def bench_rejuvenation_e2e(options: BenchOptions) -> BenchResult:
    """Wall-clock + availability metrics of the live rejuvenation scenario."""
    from repro.experiments.scenarios import fig_rejuvenation
    from repro.tpcw.population import PopulationScale

    def runner() -> Dict[str, object]:
        scenario = fig_rejuvenation(
            duration_scale=options.duration_scale,
            seed=options.seed,
            scale=PopulationScale.tiny(),
        ).run()
        full = scenario.sla_observation("time-based")
        micro = scenario.sla_observation("proactive-microreboot")
        return {
            "full_restart_downtime_s": round(full.downtime_seconds, 2),
            "microreboot_downtime_s": round(micro.downtime_seconds, 2),
            "no_action_exposure_s": round(
                scenario.sla_observation("no-action").exposure_seconds, 1
            ),
            "microreboot_exposure_s": round(micro.exposure_seconds, 1),
            "no_action_errors": scenario.results["no-action"].error_count,
        }

    return _run_e2e("rejuvenation_e2e", runner, options)


# --------------------------------------------------------------------------- #
# Container request path (SQL row handling fast path)
# --------------------------------------------------------------------------- #
@microbench("request_path")
def bench_request_path(options: BenchOptions) -> BenchResult:
    """Requests/s through the full container path, fast path vs. generic rows.

    Each mode drives its own fresh tiny deployment with the same interaction
    cycle, so both measurements pay identical dispatch/session/GC costs and
    the difference isolates the SELECT row-handling change.
    """
    from repro.container.servlet import HttpServletRequest
    from repro.perf.seed_reference import make_seed_row_database_class
    from repro.tpcw.application import build_deployment
    from repro.tpcw.population import PopulationScale

    requests = 1_000 if options.tiny else 6_000
    interactions = ["home", "product_detail", "new_products", "search_results", "best_sellers"]

    def make_runner(database=None):
        deployment = build_deployment(
            scale=PopulationScale.tiny(), seed=options.seed, database=database
        )
        urls = [deployment.url_for(name) for name in interactions]
        handle = deployment.server.handle
        clock_state = {"t": 0.0}

        def run() -> int:
            t = clock_state["t"]
            for index in range(requests):
                outcome = handle(HttpServletRequest(uri=urls[index % len(urls)]), t)
                if outcome.response.is_error:
                    raise RuntimeError(f"bench request failed: {outcome.response.status}")
                t += 0.05
            clock_state["t"] = t
            return requests

        return run

    seed_database = make_seed_row_database_class()("tpcw")
    rates = measure_rates_interleaved(make_runner(), make_runner(database=seed_database))
    return BenchResult(
        name="request_path",
        metrics={
            "requests_per_second": rates["current"],
            "seed_requests_per_second": rates["seed"],
            "requests": requests,
            "interactions": interactions,
        },
        speedup_vs_seed=rates["speedup"],
        # Cumulative SQL row-handling gain over the seed (ISSUE 4); only
        # asserted at full scale — tiny runs are CI smoke on noisy runners.
        target_speedup=None if options.tiny else REQUEST_PATH_TARGET,
        config={"tiny": options.tiny},
    )


# --------------------------------------------------------------------------- #
# Planner: single-join ORDER BY + LIMIT top-k
# --------------------------------------------------------------------------- #
def _build_join_topk_database(database_class, items: int, authors: int, subjects: int):
    """A synthetic item/author population big enough to stress row handling.

    The TPC-W populations keep per-subject item counts small, so the seed's
    per-joined-row costs (wrapper dict, projection, full sort) drown in
    fixed per-query overhead there; this population gives the ``new_products``
    shape a realistic large listing (items/subjects rows per probe).
    """
    from repro.db.table import Column, ColumnType

    database = database_class("join_topk")
    database.create_table(
        "author",
        [
            Column("a_id", ColumnType.INTEGER, primary_key=True),
            Column("a_fname", ColumnType.VARCHAR),
            Column("a_lname", ColumnType.VARCHAR),
        ],
    )
    database.create_table(
        "item",
        [
            Column("i_id", ColumnType.INTEGER, primary_key=True),
            Column("i_title", ColumnType.VARCHAR),
            Column("i_subject", ColumnType.VARCHAR),
            Column("i_pub_date", ColumnType.DATE),
            Column("i_srp", ColumnType.FLOAT),
            Column("i_a_id", ColumnType.INTEGER),
        ],
    )
    database.table("item").create_index("i_subject")
    database.table("item").create_index("i_a_id")
    author_table = database.table("author")
    for author_id in range(1, authors + 1):
        author_table.insert(
            {
                "a_id": author_id,
                "a_fname": f"First{author_id % 97}",
                "a_lname": f"Last{author_id % 83}",
            }
        )
    item_table = database.table("item")
    for item_id in range(1, items + 1):
        item_table.insert(
            {
                "i_id": item_id,
                "i_title": f"Title {item_id}",
                "i_subject": f"SUBJECT{item_id % subjects}",
                # Deterministic pseudo-shuffled publication dates so the
                # ORDER BY actually reorders.
                "i_pub_date": float((item_id * 7919) % 1_000_003),
                "i_srp": float(item_id % 500),
                "i_a_id": 1 + (item_id * 31) % authors,
            }
        )
    return database


@microbench("join_topk")
def bench_join_topk(options: BenchOptions) -> BenchResult:
    """Planned top-k join vs. the seed join executor (live A/B).

    The measured statement is the ``new_products`` shape — single hash join,
    indexed WHERE, ``ORDER BY ... DESC LIMIT 50`` — the remaining SQL hot
    spot ROADMAP's perf item named.  Both sides run identically populated
    databases in one process; the equivalence suite asserts the rows match.
    Before each probe both sides update one item's ``i_pub_date``, a column
    the plan reads, so every probe misses the plan's result memo and runs
    the join and the top-k.
    """
    from repro.db.engine import Database
    from repro.perf.seed_reference import make_seed_row_database_class
    from repro.tpcw.servlets.new_products import NEW_PRODUCTS_SQL

    items, authors, subjects = (4_000, 100, 10) if options.tiny else (20_000, 400, 10)
    queries = 50 if options.tiny else 60
    # The literal servlet statement: the bench measures what production runs.
    sql = NEW_PRODUCTS_SQL
    touch_sql = "UPDATE item SET i_pub_date = ? WHERE i_id = ?"

    def make_runner(database) -> Callable[[], int]:
        def run() -> int:
            for index in range(queries):
                database.execute(touch_sql, [float(index), 1 + index])
                database.execute(sql, [f"SUBJECT{index % subjects}"])
            return queries

        return run

    current_db = _build_join_topk_database(Database, items, authors, subjects)
    seed_db = _build_join_topk_database(
        make_seed_row_database_class(), items, authors, subjects
    )
    rates = measure_rates_interleaved(make_runner(current_db), make_runner(seed_db))
    return BenchResult(
        name="join_topk",
        metrics={
            "queries_per_second": rates["current"],
            "seed_queries_per_second": rates["seed"],
            "items": items,
            "rows_per_probe": items // subjects,
            "limit": 50,
        },
        speedup_vs_seed=rates["speedup"],
        # Asserted at full scale only; tiny runs are CI smoke on noisy
        # runners (the compare gate still bounds their drift).
        target_speedup=None if options.tiny else JOIN_TOPK_TARGET,
        config={"tiny": options.tiny},
    )


# --------------------------------------------------------------------------- #
# Adaptive rejuvenation & SLA end-to-end
# --------------------------------------------------------------------------- #
@microbench("adaptive_e2e")
def bench_adaptive_e2e(options: BenchOptions) -> BenchResult:
    """Wall-clock + headline verdicts of the adaptive SLA comparison."""
    from repro.experiments.scenarios import best_fixed_cost, fig_adaptive
    from repro.tpcw.population import PopulationScale

    def runner() -> Dict[str, object]:
        scenario = fig_adaptive(
            duration_scale=options.duration_scale,
            seed=options.seed,
            scale=PopulationScale.tiny(),
        ).run()
        return {
            "memory_adaptive_sla_cost": round(scenario.sla_cost("memory/adaptive"), 1),
            "memory_best_fixed_sla_cost": round(best_fixed_cost(scenario, "memory"), 1),
            "threads_no_action_errors": scenario.result("threads/no-action").error_count,
            "threads_adaptive_errors": scenario.result("threads/adaptive").error_count,
            "connections_no_action_errors": scenario.result(
                "connections/no-action"
            ).error_count,
            "connections_adaptive_errors": scenario.result(
                "connections/adaptive"
            ).error_count,
        }

    return _run_e2e("adaptive_e2e", runner, options)


@microbench("learning_e2e")
def bench_learning_e2e(options: BenchOptions) -> BenchResult:
    """Wall-clock + headline verdicts of the cross-run learning comparison."""
    import os
    import tempfile

    from repro.experiments.scenarios import (
        cumulative_sla_cost,
        fig_learning,
        total_recycles,
    )
    from repro.tpcw.population import PopulationScale

    # Each timed repeat gets its own store file (the warm mode must open
    # against an empty store), all inside one directory the bench cleans up
    # — the CLI's leave-the-store-on-disk default is for inspecting the
    # printed path, which a bench run never shows.
    with tempfile.TemporaryDirectory(prefix="repro-learning-bench-") as scratch:
        repeat = [0]

        def runner() -> Dict[str, object]:
            repeat[0] += 1
            scenario = fig_learning(
                duration_scale=options.duration_scale,
                seed=options.seed,
                scale=PopulationScale.tiny(),
                store_path=os.path.join(scratch, f"calibration-{repeat[0]}.json"),
            ).run()
            return {
                "runs_per_mode": len(scenario.results) // 2,
                "cold_cumulative_sla_cost": round(cumulative_sla_cost(scenario, "cold"), 1),
                "warm_cumulative_sla_cost": round(cumulative_sla_cost(scenario, "warm"), 1),
                "cold_total_recycles": total_recycles(scenario, "cold"),
                "warm_total_recycles": total_recycles(scenario, "warm"),
            }

        return _run_e2e("learning_e2e", runner, options)


@microbench("fig4_e2e")
def bench_fig4_e2e(options: BenchOptions) -> BenchResult:
    """Wall-clock of the Fig. 4 single-leak experiment."""
    from repro.experiments.scenarios import fig4_single_leak
    from repro.tpcw.population import PopulationScale

    def runner() -> Dict[str, object]:
        scenario = fig4_single_leak(
            duration_scale=options.duration_scale,
            seed=options.seed,
            scale=PopulationScale.tiny(),
        ).run()
        (result,) = scenario.results.values()
        top = result.root_cause.top()
        return {
            "completed_requests": result.completed_requests,
            "root_cause_component": top.component if top else "",
            "claim_holds": scenario.holds(),
        }

    return _run_e2e("fig4_e2e", runner, options)


@microbench("fleet_e2e")
def bench_fleet_e2e(options: BenchOptions) -> BenchResult:
    """Wall-clock + headline verdicts of the sharded-fleet rejuvenation scenario."""
    from repro.experiments.scenarios import fig_fleet, min_capacity_fraction
    from repro.tpcw.population import PopulationScale

    def runner() -> Dict[str, object]:
        scenario = fig_fleet(
            duration_scale=options.duration_scale,
            seed=options.seed,
            scale=PopulationScale.tiny(),
        ).run()
        return {
            "shards": scenario.result("rolling").config.shards,
            "rolling_sla_cost": round(scenario.sla_cost("rolling"), 1),
            "simultaneous_sla_cost": round(scenario.sla_cost("simultaneous"), 1),
            "no_action_sla_cost": round(scenario.sla_cost("no-action"), 1),
            "rolling_min_capacity_pct": round(
                100.0 * min_capacity_fraction(scenario.result("rolling")), 1
            ),
            "rolling_wins": scenario.holds(),
        }

    return _run_e2e("fleet_e2e", runner, options)


# --------------------------------------------------------------------------- #
# Observability-plane overhead
# --------------------------------------------------------------------------- #
#: The observability plane may cost at most 3 % of the Fig. 3 e2e wall
#: clock (speedup of the observed run vs. the plain run >= 0.97).
OBS_OVERHEAD_TARGET = 0.97


@microbench("obs_overhead")
def bench_obs_overhead(options: BenchOptions) -> BenchResult:
    """Cost of attaching the observability plane to the Fig. 3 e2e run.

    The plane's true cost (a dict copy per polling snapshot + one canonical
    JSON serialisation per stream interval) is far below the wall-clock noise
    of two back-to-back ~1 s runs on a shared box, so a naive A/B cannot
    certify a 3 % bound.  Instead the bench times the plain run, measures the
    plane's *per-event* costs precisely at micro scale (thousands of
    repetitions), and scales them by the event counts of the real run:

        plane_seconds = stream_emits * t(snapshot_json)
                      + polling_snapshots * t(poll listener)
        speedup       = e2e_seconds / (e2e_seconds + plane_seconds)

    ``snapshot_json`` is timed against the *finished* run's registry — the
    longest series and the full-run exposure scan — so per-emission cost is
    an upper bound on any mid-run emission.
    """
    import math
    from dataclasses import replace

    from repro.experiments.scenarios import Comparison, fig3_overhead
    from repro.obs.registry import MetricsRegistry
    from repro.tpcw.population import PopulationScale

    def build() -> Comparison:
        return fig3_overhead(
            duration_scale=options.duration_scale,
            seed=options.seed,
            scale=PopulationScale.tiny(),
        )

    e2e = float(measure_seconds(lambda: build().run(), repeats=2, warmup=False)["best_seconds"])  # type: ignore[arg-type]

    # One observed run populates a registry with the run's full state.
    registry = MetricsRegistry()
    observed = build()
    observed.configs["monitored"] = replace(observed.configs["monitored"], metrics_registry=registry)
    observed.run()
    duration = registry.now()
    interval = max(30.0, 60.0 * options.duration_scale)
    stream_emits = int(math.floor((duration - 1e-9) / interval)) + 1  # + final emit
    polls = sum(int(row.get("polls", 0)) for row in registry.shard_rows())

    def emit_batch() -> int:
        for _ in range(20):
            registry.snapshot_json(at=duration)
        return 20

    sizes = {f"c{index}": float(index) for index in range(14)}
    relay = registry._poll_relay(0)

    def relay_batch() -> int:
        for _ in range(5_000):
            relay(duration, sizes)
        return 5_000

    snapshot_rate = float(measure_rate(emit_batch, repeats=3)["best_ops_per_second"])  # type: ignore[arg-type]
    relay_rate = float(measure_rate(relay_batch, repeats=3)["best_ops_per_second"])  # type: ignore[arg-type]
    plane = stream_emits / snapshot_rate + polls / relay_rate
    return BenchResult(
        name="obs_overhead",
        metrics={
            "e2e_seconds": e2e,
            "plane_seconds": plane,
            "snapshot_seconds": 1.0 / snapshot_rate,
            "stream_emits": stream_emits,
            "polling_snapshots": polls,
            "overhead_percent": 100.0 * plane / e2e,
        },
        speedup_vs_seed=e2e / (e2e + plane),
        target_speedup=OBS_OVERHEAD_TARGET,
        config=_e2e_config(options),
    )


# --------------------------------------------------------------------------- #
# Planner: streaming GROUP BY aggregates
# --------------------------------------------------------------------------- #
def _build_group_by_database(
    database_class, items: int, authors: int, subjects: int, lines: int
):
    """The join_topk population plus an order_line fact table.

    Gives the ``best_sellers`` statement — double join, GROUP BY over four
    keys, ``SUM`` aggregate, ``ORDER BY sold DESC LIMIT 50`` — a realistic
    group cardinality (items/subjects groups per probe, several order lines
    per item).
    """
    from repro.db.table import Column, ColumnType

    database = _build_join_topk_database(database_class, items, authors, subjects)
    database.create_table(
        "order_line",
        [
            Column("ol_id", ColumnType.INTEGER, primary_key=True),
            Column("ol_i_id", ColumnType.INTEGER),
            Column("ol_qty", ColumnType.INTEGER),
        ],
    )
    database.table("order_line").create_index("ol_i_id")
    order_line_table = database.table("order_line")
    for line_id in range(1, lines + 1):
        order_line_table.insert(
            {
                "ol_id": line_id,
                "ol_i_id": 1 + (line_id * 17) % items,
                "ol_qty": 1 + line_id % 9,
            }
        )
    return database


#: The planner's aggregate path against the seed's interpreted one.
GROUP_BY_TARGET = 3.0


@microbench("group_by")
def bench_group_by(options: BenchOptions) -> BenchResult:
    """Planned GROUP BY aggregates vs. the seed executor (live A/B).

    Both sides run the same two statements against identically populated
    databases, interleaved: the planner (memoised join, compiled streaming
    fold with per-group accumulators) against the seed's interpreter
    (wrapper-dict rows, a member list per group, each aggregate evaluated
    over it).  The equivalence suite asserts the rows match.  The statements
    cover both production shapes: the literal ``best_sellers`` servlet query
    (double join + GROUP BY) and a fact-table scan (``SUM/COUNT/MIN/MAX``
    over order_line, aggregation-dominated — where the fold is the whole
    story).  Before each probe both sides append one order line, as
    ``buy_confirm`` does, so the planner's plans miss their result memos and
    fold the appended line into their kept states, as in ``paper_leak``.
    """
    from repro.db.engine import Database
    from repro.perf.seed_reference import make_seed_row_database_class
    from repro.tpcw.servlets.best_sellers import _BEST_SELLERS_SQL

    scan_sql = (
        "SELECT ol_i_id, SUM(ol_qty) AS sold, COUNT(*) AS n, "
        "MIN(ol_qty) AS lo, MAX(ol_qty) AS hi "
        "FROM order_line GROUP BY ol_i_id ORDER BY sold DESC LIMIT 50"
    )
    items, authors, subjects, lines = (
        (2_000, 100, 10, 8_000) if options.tiny else (10_000, 400, 10, 40_000)
    )
    queries = 5
    append_sql = "INSERT INTO order_line (ol_id, ol_i_id, ol_qty) VALUES (?, ?, ?)"

    def make_runner(database) -> Callable[[], int]:
        next_line = [lines + 1]

        def append_line() -> None:
            line_id = next_line[0]
            next_line[0] += 1
            database.execute(append_sql, [line_id, 1 + (line_id * 17) % items, 1 + line_id % 9])

        def run() -> int:
            for index in range(queries):
                append_line()
                database.execute(_BEST_SELLERS_SQL, [f"SUBJECT{index % subjects}"])
                append_line()
                database.execute(scan_sql, [])
            return 2 * queries

        return run

    current_db = _build_group_by_database(Database, items, authors, subjects, lines)
    seed_db = _build_group_by_database(
        make_seed_row_database_class(), items, authors, subjects, lines
    )
    rates = measure_rates_interleaved(make_runner(current_db), make_runner(seed_db))
    return BenchResult(
        name="group_by",
        metrics={
            "queries_per_second": rates["current"],
            "seed_queries_per_second": rates["seed"],
            "groups_per_probe": items // subjects,
            "order_lines": lines,
            "queries": 2 * queries,
        },
        speedup_vs_seed=rates["speedup"],
        target_speedup=GROUP_BY_TARGET,
        config={"tiny": options.tiny},
    )


# --------------------------------------------------------------------------- #
# Hybrid fluid/discrete engine end-to-end
# --------------------------------------------------------------------------- #
@microbench("hybrid_e2e")
def bench_hybrid_e2e(options: BenchOptions) -> BenchResult:
    """Event reduction of the hybrid engine on the scale scenario.

    Runs the full three-way ``fig_scale`` validation (discrete 1x, hybrid 1x,
    hybrid at 100x population) and reports the scaled run's extrapolated
    discrete-event reduction as the speedup — a deterministic count ratio,
    not a wall-clock measurement (the ``obs_overhead`` precedent), so the
    compare gate tracks it without machine noise.  The 1x validation bands
    ride along as metrics; ``within_bands`` failing means the reduction was
    bought with fidelity, which the scenario's CI job catches.
    """
    from repro.experiments.scenarios import (
        SCALE_EVENT_REDUCTION_TARGET,
        event_reduction,
        fig_scale,
        population_factor,
        throughput_rel_diff,
    )
    from repro.tpcw.population import PopulationScale

    last: Dict[str, object] = {}

    def runner() -> None:
        scenario = fig_scale(
            duration_scale=options.duration_scale,
            seed=options.seed,
            scale=PopulationScale.tiny(),
        ).run()
        last["scenario"] = scenario

    stats = measure_seconds(runner, repeats=1, warmup=False)
    scenario = last["scenario"]
    reduction = event_reduction(scenario)
    return BenchResult(
        name="hybrid_e2e",
        metrics={
            "wall_clock_seconds": float(stats["best_seconds"]),
            "event_reduction": reduction,
            "population_factor": population_factor(scenario),
            "discrete_1x_events": scenario.results["discrete"].executed_events,
            "hybrid_1x_events": scenario.results["hybrid"].executed_events,
            "hybrid_scaled_events": scenario.results["hybrid-scaled"].executed_events,
            "throughput_rel_diff": round(throughput_rel_diff(scenario), 4),
            "within_bands": scenario.holds(),
        },
        speedup_vs_seed=reduction,
        target_speedup=SCALE_EVENT_REDUCTION_TARGET,
        config=_e2e_config(options),
    )
