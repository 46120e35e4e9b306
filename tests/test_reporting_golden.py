"""Golden-snapshot tests for the report artifact renderers.

The Markdown/CSV artifacts must be byte-stable per (scenario, seed): floats
are fixed to 6 decimal places and default columns are the sorted union of
row keys, so regenerating an artifact from the same run produces the same
bytes.  The checked-in goldens under ``tests/golden/`` pin both the
formatting discipline and the scenarios' summary numbers at the CI smoke
scale; an intentional change regenerates them (see the module docstring of
each golden's generator below).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.reporting import (
    canary_report,
    canary_report_artifacts,
    fleet_report,
    fleet_report_artifacts,
    rollout_report_artifacts,
    rows_to_csv,
    rows_to_markdown,
)
from repro.experiments.scenarios import fig_canary, fig_fleet, fig_rollout
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


class TestGoldenSnapshots:
    """Regenerate the smoke-scale artifacts and compare byte-for-byte.

    Goldens were generated with::

        fleet  = fig_fleet(duration_scale=0.02, seed=42, scale=tiny, shards=2)
        canary = fig_canary(duration_scale=0.02, seed=42, scale=tiny)
        rollout = fig_rollout(duration_scale=0.02, seed=42, scale=tiny)
    """

    @pytest.fixture(scope="class")
    def fleet(self):
        return fig_fleet(
            duration_scale=0.02, seed=42, scale=PopulationScale.tiny(), shards=2
        )

    @pytest.fixture(scope="class")
    def canary(self):
        return fig_canary(duration_scale=0.02, seed=42, scale=PopulationScale.tiny())

    @pytest.fixture(scope="class")
    def rollout(self):
        return fig_rollout(duration_scale=0.02, seed=42, scale=PopulationScale.tiny())

    def test_fleet_artifacts_match_golden(self, fleet):
        artifacts = fleet_report_artifacts(fleet)
        assert artifacts["markdown"] == (GOLDEN_DIR / "fleet_summary.md").read_text()
        assert artifacts["csv"] == (GOLDEN_DIR / "fleet_summary.csv").read_text()

    def test_canary_artifacts_match_golden(self, canary):
        artifacts = canary_report_artifacts(canary)
        assert artifacts["markdown"] == (GOLDEN_DIR / "canary_summary.md").read_text()
        assert artifacts["csv"] == (GOLDEN_DIR / "canary_summary.csv").read_text()

    def test_rollout_artifacts_match_golden(self, rollout):
        artifacts = rollout_report_artifacts(rollout)
        assert artifacts["markdown"] == (GOLDEN_DIR / "rollout_summary.md").read_text()
        assert artifacts["csv"] == (GOLDEN_DIR / "rollout_summary.csv").read_text()

    def test_fleet_report_renders_over_the_same_run(self, fleet):
        text = fleet_report(fleet)
        assert "Fleet rejuvenation at 2 shards" in text
        assert "rolling" in text and "holds" in text

    def test_canary_report_renders_over_the_same_run(self, canary):
        text = canary_report(canary)
        assert "Canary deployment at 3 shards" in text
        assert "canary analyzer verdict" in text
        assert "canary+rollback SLA cost < blind rollout" in text
