"""Ablation — monitoring scope vs. overhead.

The paper argues that the JMX Manager Agent can deactivate Aspect Components
at runtime "to reduce the overhead of the solution or to focus the
monitoring over a set of determined objects".  This ablation quantifies that
knob: the same constant 200-EB workload is run with monitoring off, with
half of the components monitored (the most-used half — the worst case), and
with every component monitored.
"""

from __future__ import annotations

from conftest import bench_population_scale, bench_seed, duration_scale, emit_report

from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import scope_overhead_ablation


def test_ablation_scope_overhead(benchmark):
    """Overhead grows with the number of monitored components."""

    def run():
        return scope_overhead_ablation(
            duration_scale=duration_scale() * 0.5,
            seed=bench_seed(),
            scale=bench_population_scale(),
            ebs=200,
        ).run()

    scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report("ablation_scope_overhead", comparison_report(scenario))

    by_fraction = {row["monitored_fraction"]: row for row in scenario.summary_rows()}
    # Charged overhead strictly grows with the monitored fraction.
    assert by_fraction[0.0]["overhead_seconds"] == 0.0
    assert by_fraction[0.5]["overhead_seconds"] > 0.0
    assert by_fraction[1.0]["overhead_seconds"] > by_fraction[0.5]["overhead_seconds"]
    # Throughput with full monitoring never exceeds the unmonitored run by
    # more than noise (and typically sits a few percent below it).
    assert by_fraction[1.0]["mean_throughput_rps"] <= 1.05 * by_fraction[0.0]["mean_throughput_rps"]
    # The claim restates these asserts.
    assert scenario.holds()
