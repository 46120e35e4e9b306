#!/usr/bin/env python
"""Leak hunt: reproduce the paper's multi-component experiments end to end.

Runs scaled-down versions of Fig. 5 (four identical leaks) and Fig. 7
(heterogeneous leak sizes), prints the per-component size trajectories, the
manager-composed consumption-vs-usage map (Fig. 6) and the root-cause
rankings — the same analysis an operator would run after a traditional
monitor raised an aging alarm.

Run with::

    python examples/leak_hunt_report.py [duration_scale]

where ``duration_scale`` scales the paper's one-hour experiments (default
0.1 → 6 simulated minutes, a few seconds of wall time).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import fig5_multi_leak, fig7_injection_sizes
from repro.tpcw.population import PopulationScale


def main() -> None:
    duration_scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    scale = PopulationScale.tiny()

    print("### Experiment 1: identical 100 KB leaks in four components (paper Fig. 5/6)\n")
    fig5 = fig5_multi_leak(duration_scale=duration_scale, seed=7, scale=scale, ebs=60).run()
    print(comparison_report(fig5))
    (fig5_run,) = fig5.results.values()
    print("\ninjected faults:")
    for description in fig5_run.fault_descriptions:
        print(f"  - {description}")

    print("\n\n### Experiment 2: heterogeneous leak sizes (paper Fig. 7)\n")
    fig7 = fig7_injection_sizes(duration_scale=duration_scale, seed=7, scale=scale, ebs=60).run()
    print(comparison_report(fig7))
    (fig7_run,) = fig7.results.values()

    print("\n==> Fig. 5 ranking:", " > ".join(fig5_run.root_cause.ranking()[:4]))
    print("==> Fig. 7 ranking:", " > ".join(fig7_run.root_cause.ranking()[:4]))


if __name__ == "__main__":
    main()
