"""Extension — the paper's future-work aging causes (CPU, threads, connections).

The conclusion of the paper announces work on "other software aging causes,
like CPU and thread leaks among others".  This extension benchmark injects a
thread leak, a CPU hog and a JDBC connection leak into three different
components, monitors the extended resource agents, and checks that the
per-component attribution points at the right component for each resource.
"""

from __future__ import annotations

from conftest import bench_population_scale, bench_seed, duration_scale, emit_report

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults.injector import FaultSpec
from repro.faults.memory_leak import KB


def test_ext_other_resources(benchmark):
    """Attribute thread, CPU and connection aging to the right components."""

    def run():
        config = ExperimentConfig(
            name="ext-other-resources",
            seed=bench_seed(),
            scale=bench_population_scale(),
            constant_ebs=100,
            duration=3600.0 * duration_scale() * 0.5,
            monitored=True,
            monitor_extended_resources=True,
            snapshot_interval=30.0,
            faults=[
                FaultSpec("home", "memory-leak", {"leak_bytes": 100 * KB, "period_n": 100}),
                FaultSpec("product_detail", "thread-leak", {"period_n": 50}),
                FaultSpec("search_results", "cpu-hog", {"increment_seconds": 0.003, "period_n": 50}),
                FaultSpec("shopping_cart", "connection-leak", {"period_n": 200}),
            ],
        )
        return run_experiment(config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    deployment = result.deployment
    runtime = deployment.runtime

    thread_counts = {
        name: runtime.threads.count_by_owner(name) for name in deployment.interaction_names()
    }
    cpu_extra = {
        name: round(runtime.cpu_time(name), 2) for name in ("search_results", "home", "product_detail")
    }
    rows = [
        {
            "resource": "memory (object_size)",
            "top_component": result.root_cause.top().component,
            "evidence": f"{result.component_growth()['home'] / 1024:.0f} KB growth",
        },
        {
            "resource": "threads",
            "top_component": max(thread_counts, key=thread_counts.get),
            "evidence": f"{max(thread_counts.values())} leaked threads",
        },
        {
            "resource": "cpu",
            "top_component": "search_results",
            "evidence": f"demand now {deployment.servlet('search_results').base_cpu_demand_seconds * 1000:.0f} ms "
            f"(was 220 ms), cpu time {cpu_extra['search_results']} s",
        },
        {
            "resource": "jdbc connections",
            "top_component": "shopping_cart",
            "evidence": f"{deployment.datasource.active_connections} connections held",
        },
    ]

    emit_report(
        "ext_other_resources",
        "== Extension: future-work aging causes (CPU, threads, connections) ==\n"
        + format_table(rows),
    )

    # Memory attribution still lands on the memory leaker.
    assert result.root_cause.top().component == "home"
    # The thread leak belongs to product_detail.
    assert max(thread_counts, key=thread_counts.get) == "product_detail"
    assert thread_counts["product_detail"] > 0
    # The CPU hog raised search_results' demand above its 220 ms baseline.
    assert deployment.servlet("search_results").base_cpu_demand_seconds > 0.221
    # The connection leak holds pool connections.
    assert deployment.datasource.active_connections > 0
