"""Fig. 6 — the consumption-vs-usage map composed by the JMX Manager Agent.

The map is built from the same run as Fig. 5: the manager classifies A and B
in the most-suspicious quadrant (high usage, high accumulated consumption),
C below them, and D with the non-leaking components.
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


def test_fig6_manager_map(benchmark):
    """Reproduce Fig. 6: the manager-composed map for the Fig. 5 scenario."""

    def run():
        return fig5_multi_leak(
            duration_scale=duration_scale() * 0.5,
            seed=bench_seed() + 1,
            scale=bench_population_scale(),
        ).run()

    scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    (result,) = scenario.results.values()
    emit_report(
        "fig6_manager_map",
        comparison_report(scenario)
        + "\n\nfront-end rendering:\n"
        + result.framework.frontend.map_report(),
    )

    map_rows = scenario.tables()["map"].rows
    by_component = {row["component"]: row for row in map_rows}
    assert "most suspicious" in by_component[COMPONENT_A]["quadrant"]
    assert "most suspicious" in by_component[COMPONENT_B]["quadrant"]
    # D never leaked: it sits in a low-consumption quadrant.
    assert "low-consumption" in by_component[COMPONENT_D]["quadrant"]
    # The map reports more usage for A/B than for C, and more consumption than C.
    assert by_component[COMPONENT_A]["invocations"] > by_component[COMPONENT_C]["invocations"]
    assert (
        by_component[COMPONENT_A]["object_size_consumed"]
        > by_component[COMPONENT_C]["object_size_consumed"]
    )
