"""Fig. 3 — TPC-W throughput under a dynamic workload, monitored vs. unmonitored.

The paper's schedule: 2 minutes at 50 EBs (warm-up), 30 minutes at 100 EBs,
30 minutes at 200 EBs, shopping mix, no fault injected.  Claim: monitoring
every TPC-W component costs only ≈5 % of throughput.

The benchmark runs both the unmonitored and the monitored experiment (same
seed, same workload) in virtual time, prints the two throughput curves and
the measured overhead, and asserts the shape: throughput rises with the EB
count, the monitored curve never exceeds the unmonitored one by more than
noise, and the measured penalty stays in the single-digit-percent band the
paper reports.
"""

from __future__ import annotations

from conftest import bench_population_scale, bench_seed, duration_scale, emit_report

from repro.experiments.reporting import comparison_report
from repro.experiments.scenarios import (
    fig3_overhead,
    overhead_percent,
    phase_times,
    throughput_pair,
)


def test_fig3_overhead(benchmark):
    """Reproduce Fig. 3 and check the ≈5 % overhead claim (shape-level)."""

    def run():
        return fig3_overhead(
            duration_scale=duration_scale(),
            seed=bench_seed(),
            scale=bench_population_scale(),
        ).run()

    scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report("fig3_overhead", comparison_report(scenario))

    warmup_end, mid_end, end = phase_times(scenario)
    mid = throughput_pair(scenario, warmup_end, mid_end)
    high = throughput_pair(scenario, mid_end, end)

    # Throughput grows with the EB count (both curves step up at the phase change).
    assert high["unmonitored"] > 1.5 * mid["unmonitored"]
    assert high["monitored"] > 1.5 * mid["monitored"]

    # Monitoring costs something, but stays in the single-digit-percent band.
    overhead = overhead_percent(scenario)
    assert -2.0 <= overhead <= 12.0, f"overall overhead {overhead:.2f}% outside expected band"

    # The monitored run really did pay for its samples.
    monitored, unmonitored = scenario.result("monitored"), scenario.result("unmonitored")
    assert monitored.overhead_seconds > 0
    assert monitored.monitoring_samples > 0
    assert unmonitored.overhead_seconds == 0.0
    # The claim the CLI gates on restates these asserts.
    assert scenario.holds()
