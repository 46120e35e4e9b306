"""Fig. 7 — root-cause determination under different injection sizes.

The paper keeps A at 100 KB, lowers B to 10 KB and raises C and D to 1 MB
(N=100 everywhere).  Expectation: C — a moderately used component with a
large leak — becomes the most suspicious, A stays important (second), B
drops to third, and D remains flat because it is still visited too rarely to
trigger injections.
"""

from __future__ import annotations

from conftest import bench_population_scale, bench_seed, duration_scale, emit_report

from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import (
    COMPONENT_A,
    COMPONENT_B,
    COMPONENT_C,
    COMPONENT_D,
    fig7_injection_sizes,
)


def test_fig7_injection_sizes(benchmark):
    """Reproduce Fig. 7: heterogeneous injection sizes change the ranking."""

    def run():
        return fig7_injection_sizes(
            duration_scale=duration_scale(),
            seed=bench_seed(),
            scale=bench_population_scale(),
        ).run()

    scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report("fig7_injection_sizes", comparison_report(scenario))

    (result,) = scenario.results.values()
    growth = result.component_growth()
    ranking = result.root_cause.ranking()

    # C's 1 MB leak dominates despite its lower usage.
    assert ranking[0] == COMPONENT_C
    assert ranking[1] == COMPONENT_A
    assert growth[COMPONENT_C] > growth[COMPONENT_A] > growth[COMPONENT_B] > 0
    # D's leak never fires (usage too low): flat relative to the others.
    assert growth[COMPONENT_D] <= 0.5 * growth[COMPONENT_B] or growth[COMPONENT_D] < 2 * 1024 * 1024
    # The claim the CLI gates on restates these asserts.
    assert scenario.holds()
