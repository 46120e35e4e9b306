#!/usr/bin/env python
"""Why component-level attribution matters: framework vs. Pinpoint vs. black-box.

Reproduces the argument of the paper's related-work section as a runnable
experiment.  A memory leak is injected into one TPC-W component and three
observers watch the same run:

* the paper's AOP/JMX framework (per-component resource attribution),
* a Pinpoint-style analyser (correlates components with *failed* requests),
* a Ganglia/Nagios-style black-box host monitor (system metrics only).

Run with::

    python examples/baseline_comparison.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults.injector import FaultSpec
from repro.tpcw.population import PopulationScale


def main() -> None:
    config = ExperimentConfig(
        name="baseline-comparison",
        seed=5,
        scale=PopulationScale.tiny(),
        constant_ebs=25,
        duration=480.0,
        monitored=True,
        collect_pinpoint_traces=True,
        snapshot_interval=30.0,
        faults=[FaultSpec("product_detail", "memory-leak",
                          {"leak_bytes": 100 * 1024, "period_n": 10})],
    )
    result = run_experiment(config)

    print(f"run finished: {result.completed_requests} requests, "
          f"{result.error_count} errors, "
          f"heap grew to {result.heap_series.values[-1] / 1e6:.1f} MB\n")

    # 1. The paper's framework.
    top = result.root_cause.top()
    print("AOP/JMX framework     :",
          f"root cause = {top.component!r} "
          f"({top.responsibility * 100:.0f}% responsibility, "
          f"{top.score / 1024:.0f} KB accumulated)")

    # 2. Pinpoint.
    pinpoint_report = result.pinpoint.analyze()
    print("Pinpoint baseline     :",
          f"root cause = {pinpoint_report.top()!r} "
          f"({pinpoint_report.failed_requests} failed requests out of "
          f"{pinpoint_report.total_requests})")

    # 3. Black-box monitor.
    blackbox_report = result.blackbox
    eta = blackbox_report.time_to_exhaustion_seconds
    print("Black-box monitor     :",
          f"aging detected = {blackbox_report.aging_detected}, "
          f"root cause = {blackbox_report.root_cause_component!r}, "
          f"time to heap exhaustion ≈ "
          + (f"{eta / 3600:.1f} h" if eta else "n/a"))

    print("\nConclusion: only the per-component resource attribution names the "
          "guilty component before anything actually fails — which is what "
          "enables surgical (micro-reboot) rejuvenation.")


if __name__ == "__main__":
    main()
