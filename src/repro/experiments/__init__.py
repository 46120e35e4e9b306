"""Experiment harness reproducing the paper's evaluation.

* :mod:`repro.experiments.environment` -- Table I (the paper's testbed) and
  the simulated equivalent used here.
* :mod:`repro.experiments.runner`      -- generic experiment runner: build a
  deployment, optionally install monitoring, inject faults, drive the EB
  workload, and collect every series the figures need.
* :mod:`repro.experiments.scenarios`   -- every scenario as a
  :class:`~repro.experiments.scenarios.Comparison` spec: the paper's figures
  (Fig. 3 overhead, Fig. 4 single leak, Fig. 5 multi leak with Fig. 6's map
  as a table, Fig. 7 heterogeneous injection sizes), the multi-run
  comparisons and the scope ablation; plus the strategy ablation.
* :mod:`repro.experiments.reporting`   -- text rendering of results and
  paper-vs-measured comparisons.
"""

from __future__ import annotations

from repro.experiments.environment import PAPER_TESTBED, simulated_environment
from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.experiments.scenarios import (
    COMPARISONS,
    Comparison,
    ComparisonResult,
    fig3_overhead,
    fig4_single_leak,
    fig5_multi_leak,
    fig7_injection_sizes,
    fig_rejuvenation,
    scope_overhead_ablation,
    strategy_ablation,
)

__all__ = [
    "PAPER_TESTBED",
    "simulated_environment",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "COMPARISONS",
    "Comparison",
    "ComparisonResult",
    "fig3_overhead",
    "fig4_single_leak",
    "fig5_multi_leak",
    "fig7_injection_sizes",
    "fig_rejuvenation",
    "scope_overhead_ablation",
    "strategy_ablation",
]
