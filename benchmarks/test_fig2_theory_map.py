"""Fig. 2 — the theoretical resource-consumption vs. component-usage map.

The paper's example: components A and B leak 100 KB per injection, C and D
leak 10 KB; A is used more than B, C more than D.  The quadrant map must
place A in the most-suspicious corner, then B, then C, then D.
"""

from __future__ import annotations

from conftest import emit_report

from repro.core.resource_map import ComponentSample, ResourceComponentMap
from repro.core.rootcause import PaperMapStrategy
from repro.experiments.reporting import format_table

#: (component, visits, leak bytes per visit) for the paper's illustrative example.
THEORY_COMPONENTS = [
    ("A", 400, 100 * 1024),
    ("B", 150, 100 * 1024),
    ("C", 400, 10 * 1024),
    ("D", 150, 10 * 1024),
]


def _build_theory_map() -> ResourceComponentMap:
    resource_map = ResourceComponentMap()
    for component, visits, leak in THEORY_COMPONENTS:
        size = 2048.0
        for visit in range(visits):
            size += leak / 100.0  # the paper's N=100 average injection rate
            resource_map.add_samples(
                [
                    ComponentSample(
                        component,
                        timestamp=float(visit * 9),
                        deltas={"object_size": leak / 100.0},
                        values={"object_size": size},
                    )
                ]
            )
    return resource_map


def test_fig2_theory_map(benchmark):
    """Build the Fig. 2 map and check the quadrant placement of A, B, C, D."""
    resource_map = benchmark.pedantic(_build_theory_map, rounds=1, iterations=1)

    quadrants = resource_map.quadrants()
    report = PaperMapStrategy().analyze(resource_map)
    rows = resource_map.to_rows()
    text = "\n".join(
        [
            "== Fig. 2: theoretical consumption-vs-usage map ==",
            "paper expectation: A most suspicious (high usage, high leak), then B, then C, then D",
            "",
            format_table(rows),
            "",
            "ranking: " + " > ".join(report.ranking()),
        ]
    )
    emit_report("fig2_theory_map", text)

    assert "most suspicious" in quadrants["A"]
    assert report.ranking() == ["A", "B", "C", "D"]
    # A and B accumulate an order of magnitude more than C and D.
    assert resource_map.consumption("A") > 5 * resource_map.consumption("C")
