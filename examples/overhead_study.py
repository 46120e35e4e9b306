#!/usr/bin/env python
"""Overhead study: what does runtime monitoring cost? (paper Fig. 3)

Runs the paper's dynamic-workload experiment twice — once without and once
with the monitoring framework installed — under the same seed, then prints
the two throughput curves, the per-phase means and the measured overhead.
Also demonstrates the runtime activation knob: a third run monitors only the
most-used half of the components.

Run with::

    python examples/overhead_study.py [duration_scale]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import fig3_overhead, scope_overhead_ablation
from repro.tpcw.population import PopulationScale


def main() -> None:
    duration_scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.08
    scale = PopulationScale.tiny()

    print("### Monitored vs. unmonitored throughput (paper Fig. 3)\n")
    fig3 = fig3_overhead(duration_scale=duration_scale, seed=11, scale=scale)
    print(comparison_report(fig3.run()))

    print("\n\n### Runtime activation knob: overhead vs. monitoring scope\n")
    scope = scope_overhead_ablation(duration_scale=duration_scale, seed=11, scale=scale, ebs=100)
    print(comparison_report(scope.run()))
    print(
        "\nThe Manager Agent deactivated half of the Aspect Components at runtime "
        "for the 0.5 row — no redeployment, no code change."
    )


if __name__ == "__main__":
    main()
