"""Statistical utilities used by the root-cause strategies and the harness.

* :mod:`repro.analysis.trend`      -- linear / Theil-Sen slopes and the
  Mann-Kendall trend test (is a component's size *really* growing?).
* :mod:`repro.analysis.statistics` -- small descriptive-statistics helpers.
"""

from __future__ import annotations

from repro.analysis.statistics import normalize_scores, summary
from repro.analysis.trend import TrendResult, linear_slope, mann_kendall, theil_sen_slope

__all__ = [
    "TrendResult",
    "mann_kendall",
    "linear_slope",
    "theil_sen_slope",
    "normalize_scores",
    "summary",
]
