"""Fig. 5 — four leaking components with identical injections.

The paper injects the same 100 KB / N=100 leak into components A, B, C and
D.  Because the injection countdown advances once per *visit*, growth rate
is proportional to usage frequency: A and B (similar, high usage) grow
fastest and similarly, C (moderate usage) grows more slowly, and D is
visited too rarely for the countdown ever to fire, so it stays flat.
"""

from __future__ import annotations

from conftest import bench_population_scale, bench_seed, duration_scale, emit_report

from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import (
    COMPONENT_A,
    COMPONENT_B,
    COMPONENT_C,
    COMPONENT_D,
    fig5_multi_leak,
)


def test_fig5_multi_leak(benchmark):
    """Reproduce Fig. 5: identical leaks in A-D, growth ordered by usage."""

    def run():
        return fig5_multi_leak(
            duration_scale=duration_scale(),
            seed=bench_seed(),
            scale=bench_population_scale(),
        ).run()

    scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report("fig5_multi_leak", comparison_report(scenario))

    (result,) = scenario.results.values()
    growth = result.component_growth()
    counts = result.interaction_counts

    # A and B are the heavily used components and grow the most.
    assert growth[COMPONENT_A] > growth[COMPONENT_C]
    assert growth[COMPONENT_B] > growth[COMPONENT_C]
    # Their usage (and hence growth) is of the same order ("more or less the
    # same frequency", per the paper): within a factor of ~2.5.
    assert growth[COMPONENT_B] > 0
    assert growth[COMPONENT_A] / growth[COMPONENT_B] < 2.5
    assert counts[COMPONENT_A] / max(counts[COMPONENT_B], 1) < 2.5
    # C leaks but visibly less; D is essentially flat.
    assert growth[COMPONENT_C] > 0
    assert growth[COMPONENT_D] <= 0.25 * growth[COMPONENT_C]
    # The two top suspects are A and B.
    assert set(result.root_cause.ranking()[:2]) == {COMPONENT_A, COMPONENT_B}
    # The claim the CLI gates on restates these asserts.
    assert scenario.holds()
