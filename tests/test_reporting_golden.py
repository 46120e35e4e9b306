"""Golden-snapshot tests for the report artifact renderers.

The Markdown/CSV artifacts must be byte-stable per (scenario, seed): floats
are fixed to 6 decimal places and default columns are the sorted union of
row keys, so regenerating an artifact from the same run produces the same
bytes.  The checked-in goldens under ``tests/golden/`` pin both the
formatting discipline and every comparison's summary numbers at the CI
smoke scale; one parametrized test drives them all from the comparison
registry (:data:`GOLDEN_RUNS`).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.reporting import (
    comparison_artifacts,
    comparison_report,
    rows_to_csv,
    rows_to_markdown,
)
from repro.experiments.scenarios import COMPARISONS
from repro.tpcw.population import PopulationScale

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestArtifactFormatting:
    def test_floats_fixed_to_six_decimals(self):
        rows = [{"ratio": 1.0 / 3.0, "count": 2}]
        markdown = rows_to_markdown(rows)
        assert "0.333333" in markdown
        assert "0.3333333" not in markdown
        csv_text = rows_to_csv(rows)
        assert "0.333333" in csv_text

    def test_default_columns_are_sorted_union_of_keys(self):
        rows = [{"zeta": 1, "alpha": 2}, {"mid": 3}]
        markdown = rows_to_markdown(rows)
        assert markdown.splitlines()[0] == "| alpha | mid | zeta |"
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0] == "alpha,mid,zeta"
        # Missing keys render as empty cells, not KeyErrors.
        assert csv_text.splitlines()[2] == ",3,"

    def test_explicit_columns_respected(self):
        rows = [{"b": 1.5, "a": 2}]
        assert rows_to_csv(rows, columns=["b", "a"]).splitlines()[0] == "b,a"
        assert rows_to_markdown(rows, columns=["b"]).splitlines()[0] == "| b |"

    def test_bools_render_as_python_literals(self):
        text = rows_to_csv([{"holds": True}])
        assert text.splitlines()[1] == "True"

    def test_empty_rows(self):
        assert rows_to_markdown([]) == "(no data)\n"
        assert rows_to_csv([]) == "\n"


#: golden name -> (registry name, builder overrides, pinned extra tables).
#: Every comparison runs at tiny / seed 42 / duration_scale 0.02 (the CI
#: smoke scale); the fleet golden runs 2 shards, like its CI step.
GOLDEN_RUNS = {
    **{name: (name, {}, ()) for name in COMPARISONS},
    "fig3": ("fig3", {}, ("phases", "throughput")),
    "fig4": ("fig4", {}, ("growth", "trajectories", "ranking")),
    "fig5": ("fig5", {}, ("growth", "trajectories", "ranking", "map")),
    "fig7": ("fig7", {}, ("growth", "trajectories", "ranking")),
    "adaptive": ("adaptive", {}, ("analytic", "predictor")),
    "learning": ("learning", {}, ("verdicts",)),
    "zoo": ("zoo", {}, ("verdicts",)),
    "scale": ("scale", {}, ("bands",)),
    "fleet": ("fleet", {"shards": 2}, ()),
    "mixed_dual": ("mixed", {"dual_leak": True}, ()),
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Run each golden comparison once per module (lazily, cached)."""
    cache = {}

    def run(golden):
        if golden not in cache:
            name, overrides, _ = GOLDEN_RUNS[golden]
            if name == "learning":
                store = tmp_path_factory.mktemp("learning") / "calibration.json"
                overrides = {**overrides, "store_path": str(store)}
            cache[golden] = COMPARISONS[name](
                duration_scale=0.02, seed=42, scale=PopulationScale.tiny(), **overrides
            ).run()
        return cache[golden]

    return run


class TestGoldenSnapshots:
    """Regenerate the smoke-scale artifacts and compare byte-for-byte.

    ``tests/golden/<golden>_summary.{md,csv}`` pins every comparison's
    summary rows (and so their int-versus-float types: ``0`` and ``0.0``
    render differently); ``<golden>_<table>.{md,csv}`` pins the extra
    tables named in :data:`GOLDEN_RUNS`.  An intentional change regenerates
    them from the same runs.
    """

    @pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
    def test_artifacts_match_golden(self, golden, golden_run):
        scenario = golden_run(golden)
        artifacts = comparison_artifacts(scenario)
        assert artifacts["markdown"] == (GOLDEN_DIR / f"{golden}_summary.md").read_text()
        assert artifacts["csv"] == (GOLDEN_DIR / f"{golden}_summary.csv").read_text()
        tables = scenario.tables()
        for key in GOLDEN_RUNS[golden][2]:
            rows = tables[key].rows
            assert rows_to_markdown(rows) == (GOLDEN_DIR / f"{golden}_{key}.md").read_text()
            assert rows_to_csv(rows) == (GOLDEN_DIR / f"{golden}_{key}.csv").read_text()
        # The report renders over the same run (and re-checks every ledger).
        assert comparison_report(scenario).startswith(f"== {scenario.comparison.title} ==")

    def test_fleet_report_renders_over_the_same_run(self, golden_run):
        text = comparison_report(golden_run("fleet"))
        assert "Fleet rejuvenation at 2 shards" in text
        assert "rolling" in text and "holds" in text

    def test_canary_report_renders_over_the_same_run(self, golden_run):
        text = comparison_report(golden_run("canary"))
        assert "Canary deployment at 3 shards" in text
        assert "canary analyzer verdict" in text
        assert "canary+rollback SLA cost < blind rollout" in text
