"""Ablation — root-cause strategies and baseline analysers.

Compares, on the same Fig. 4-style single-leak run:

* the paper's consumption×usage map strategy,
* the trend-based refinement (Mann-Kendall + Theil-Sen),
* the weighted composite of both,
* a Pinpoint-style failure-correlation baseline, and
* a Ganglia/Nagios-style black-box host monitor.

Expected outcome: all three map-based strategies name the leaking component;
Pinpoint finds nothing (no request ever fails during resource-consumption
aging); the black-box monitor detects *that* the system is aging but cannot
name a component.
"""

from __future__ import annotations

from conftest import bench_population_scale, bench_seed, duration_scale, emit_report

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.scenarios import COMPONENT_A, strategy_ablation
from repro.faults.injector import FaultSpec
from repro.faults.memory_leak import KB


def test_ablation_rankers(benchmark):
    """Strategy / baseline comparison on a single-leak run."""

    def run():
        config = ExperimentConfig(
            name="ablation-rankers",
            seed=bench_seed(),
            scale=bench_population_scale(),
            constant_ebs=100,
            duration=3600.0 * duration_scale() * 0.5,
            monitored=True,
            faults=[FaultSpec(COMPONENT_A, "memory-leak", {"leak_bytes": 100 * KB, "period_n": 100})],
            snapshot_interval=30.0,
            collect_pinpoint_traces=True,
        )
        return run_experiment(config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    strategy_rows = strategy_ablation(result)
    pinpoint_report = result.pinpoint.analyze()
    blackbox_report = result.blackbox
    baseline_rows = [
        {
            "analyser": "pinpoint (failure correlation)",
            "root_cause": pinpoint_report.top() or "(none — no failed requests)",
            "detail": f"{pinpoint_report.failed_requests}/{pinpoint_report.total_requests} failed",
        },
        {
            "analyser": "black-box host monitor",
            "root_cause": blackbox_report.root_cause_component or "(cannot attribute)",
            "detail": "aging detected: "
            + ("yes (" + ", ".join(blackbox_report.trending_metrics) + ")" if blackbox_report.aging_detected else "no"),
        },
    ]
    emit_report(
        "ablation_rankers",
        "== Ablation: root-cause strategies vs. baselines (single 100 KB leak in A) ==\n"
        + format_table(strategy_rows)
        + "\n\nbaselines:\n"
        + format_table(baseline_rows),
    )

    # Every map-based strategy blames the right component.
    assert all(row["top_component"] == COMPONENT_A for row in strategy_rows)
    # Pinpoint is blind to failure-free aging.
    assert pinpoint_report.top() is None
    # The black-box monitor at best sees the host-level heap trend (detection
    # depends on how much GC sawtooth masks the leak in a short run) and can
    # never attribute it to a component.
    assert blackbox_report.aging_detected or blackbox_report.slopes.get("heap_used", 0.0) > 0
    assert blackbox_report.root_cause_component is None
