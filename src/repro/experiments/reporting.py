"""Text reporting of experiment results and paper-vs-measured comparisons.

The benchmark harness prints these tables so that a run of
``pytest benchmarks/ --benchmark-only`` regenerates, in text form, the same
rows/series the paper's figures report.  ``EXPERIMENTS.md`` is written from
the same renderers.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import ComparisonResult


def format_table(rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None) -> str:
    """Render dict rows as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {column: len(str(column)) for column in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(str(row.get(column, ""))))
    lines = [
        "  ".join(str(column).ljust(widths[column]) for column in columns),
        "  ".join("-" * widths[column] for column in columns),
    ]
    for row in rows:
        lines.append("  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    """One cell of a machine-readable artifact.

    Floats are fixed to 6 decimal places (never ``repr`` — the artifact must
    not change bytes across Python versions); everything else is ``str``.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _artifact_columns(
    rows: Sequence[Dict[str, object]], columns: Optional[List[str]]
) -> List[str]:
    if columns is not None:
        return list(columns)
    keys = set()
    for row in rows:
        keys.update(row)
    return sorted(str(key) for key in keys)


def rows_to_markdown(
    rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None
) -> str:
    """Render dict rows as a GitHub-flavored Markdown table.

    Column order defaults to the sorted union of row keys and floats are
    fixed to 6 decimal places, so the output is byte-stable per input —
    suitable for golden-snapshot tests and checked-in artifacts.
    """
    rows = list(rows)
    columns = _artifact_columns(rows, columns)
    if not columns:
        return "(no data)\n"
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_format_cell(row.get(column, "")) for column in columns) + " |"
        )
    return "\n".join(lines) + "\n"


def rows_to_csv(
    rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None
) -> str:
    """Render dict rows as CSV with the same byte-stability discipline
    as :func:`rows_to_markdown` (sorted default columns, 6dp floats)."""
    rows = list(rows)
    columns = _artifact_columns(rows, columns)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(column, "")) for column in columns])
    return buffer.getvalue()


# --------------------------------------------------------------------------- #
# Comparisons (every scenario)
# --------------------------------------------------------------------------- #
def comparison_report(scenario: ComparisonResult) -> str:
    """Any comparison's text report: header, per-mode summary, extra tables
    and the claim row.  Re-asserts every run's request ledger first."""
    for result in scenario.results.values():
        accounting_sanity_check(result)
    spec = scenario.comparison
    lines = [
        f"== {spec.title} ==",
        f"expectation: {spec.expectation}",
        *spec.context,
        "",
        f"{spec.caption}:",
        format_table(scenario.summary_rows()),
    ]
    for table in scenario.tables().values():
        if table.rows:
            lines += ["", f"{table.caption}:", format_table(table.rows, table.columns)]
            lines += table.notes
    claim = scenario.claim_row()
    if claim is not None:
        lines += ["", format_table([claim])]
    return "\n".join(lines)


def comparison_artifacts(scenario: ComparisonResult) -> Dict[str, str]:
    """Machine-readable per-mode summary of any comparison
    (``{"markdown", "csv"}``, byte-stable per seed)."""
    rows = scenario.summary_rows()
    return {"markdown": rows_to_markdown(rows), "csv": rows_to_csv(rows)}


# --------------------------------------------------------------------------- #
# Robustness: accounting sanity
# --------------------------------------------------------------------------- #
def accounting_sanity_check(result: ExperimentResult) -> Dict[str, int]:
    """Re-assert the request ledger of a finished run before reporting it.

    ``completions + errors + refusals + in_flight`` must equal ``issued``
    and nothing may still be in flight — every issued attempt has to land
    in exactly one bucket, or some refusal/retry was silently dropped.
    Raises ``RuntimeError`` on violation; returns the ledger otherwise.
    """
    ledger = result.accounting
    total = (
        ledger["completions"]
        + ledger["errors"]
        + ledger["refusals"]
        + ledger["in_flight"]
    )
    if total != ledger["issued"] or ledger["in_flight"] != 0:
        raise RuntimeError(f"request accounting violated: {ledger}")
    return ledger
