"""Fig. 4 — determining a single memory-leaking component.

The paper injects a 100 KB leak with N=100 into component A only and runs
for one hour: A's object size grows from a few KB to MBs while every other
component stays flat, and the framework assigns A 100 % of the
responsibility for the aging.
"""

from __future__ import annotations

from conftest import bench_population_scale, bench_seed, duration_scale, emit_report

from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import COMPONENT_A, fig4_single_leak
from repro.faults.memory_leak import KB


def test_fig4_single_leak(benchmark):
    """Reproduce Fig. 4: single 100 KB / N=100 leak in component A."""

    def run():
        return fig4_single_leak(
            duration_scale=duration_scale(),
            seed=bench_seed(),
            scale=bench_population_scale(),
        ).run()

    scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report("fig4_single_leak", comparison_report(scenario))

    (result,) = scenario.results.values()
    growth = result.component_growth()
    report = result.root_cause

    # A grew into the MB range (scaled run still accumulates hundreds of KB+).
    assert growth[COMPONENT_A] > 500 * KB
    # Every other component stays flat (within a couple of KB of drift).
    for component, value in growth.items():
        if component != COMPONENT_A:
            assert value < 0.05 * growth[COMPONENT_A]
    # 100 % responsibility on A.
    assert report.top().component == COMPONENT_A
    assert report.top().responsibility > 0.95
    # The claim the CLI gates on restates these asserts.
    assert scenario.holds()
