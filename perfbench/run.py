"""Steady run-phase throughput of the simulator, with outside-in layer spans.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_leak --seed 1 --seconds 36 --trace 0

One run imports the program from ``src/``, runs one warm-up
iteration of the workload, then repeats identical iterations (same seed,
fresh experiment each time) until ``--seconds`` of measurement have passed.
Every iteration is checked: no request fails, the workload's own outcome
checks hold, and its output fingerprint equals the warm-up's.

``--trace 0`` reports the end-to-end metrics:

* ``run_rps`` -- simulated requests completed (discrete and fluid) per
  wall-clock second of the run phase, where the run phase's time is the sum
  over its ``SEGMENTS`` segments of each segment's fastest repeat;
* ``setup_s`` -- wall-clock seconds from the start of an experiment to the
  start of its event loop, fastest iteration.

Iterations are identical work, so a slower repeat of the same segment is
time the host took away, not time the program needed.  On a shared virtual
machine whose speed swings by up to 2x for seconds at a time, the fastest
repeat is steady where a median is not.

``--trace 1`` wraps every layer boundary (see ``spans.py``) and reports,
per layer, the median self time per completed request and the work counts
of one iteration.  The spans of the first measured iteration are written to
``perfbench/out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: Measured iterations per run, whatever ``--seconds`` allows.
MIN_ITERATIONS = 3

#: Equal simulated-time steps the run phase is timed in.
SEGMENTS = 40

#: Layers on every workload's path; their self time is a per-layer metric.
#: ``fluid`` and ``obs`` run on one workload only, so they are reported as
#: counts (their self time is in the span file and the stderr table).
TIMED_LAYERS = (
    "engine", "client", "balancer", "container", "weaver", "servlet", "sql",
    "advice", "agents", "manager", "blackbox",
)
#: Per-layer call counts reported as metrics.
COUNTED_LAYERS = ("sql", "advice", "agents", "manager", "blackbox", "fluid", "obs")


def _import_program():
    """The program's experiment runner from this checkout's ``src/``, or None."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return None
    sys.path.insert(0, SRC)
    try:
        import repro.experiments.runner as runner
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return None
    return runner


class PhaseClock:
    """Marks where an experiment's set-up ends and times its run phase.

    ``run_experiment`` builds everything, then hands over to
    ``WorkloadGenerator.run``, which runs the event loop to the end with one
    ``run_until`` call.  For the length of that call the engine's
    ``run_until`` is replaced by one that covers the same simulated span in
    ``SEGMENTS`` equal steps and times each step.  Consecutive ``run_until``
    calls run exactly the events one call would (the output fingerprint
    checks that), so segment ``k`` is the same work in every iteration.

    The cyclic garbage collector is off for the run phase, as ``timeit``
    has it, and collects between iterations.  How many full collections
    land in a run steps with the seed (six against four on ``paper_leak``,
    each walking the whole standard store), which alone moved ``run_rps``
    by about 15 % between seeds doing the same work per request.
    """

    def __init__(self) -> None:
        self.run_start = 0.0
        self.run_end = 0.0
        self.segments: List[float] = []

    def install(self) -> None:
        from repro.tpcw.workload import WorkloadGenerator

        original = WorkloadGenerator.run

        @functools.wraps(original)
        def run(generator, duration):
            engine = generator.engine
            run_until = engine.run_until
            self.segments = []

            def segmented_run_until(end_time):
                begin = engine.now
                executed = 0
                for step in range(1, SEGMENTS + 1):
                    until = end_time if step == SEGMENTS else begin + (end_time - begin) * step / SEGMENTS
                    started = time.perf_counter()
                    executed += run_until(until)
                    self.segments.append(time.perf_counter() - started)
                    if engine._stopped:
                        break
                return executed

            engine.run_until = segmented_run_until
            gc.disable()
            self.run_start = time.perf_counter()
            try:
                original(generator, duration)
            finally:
                self.run_end = time.perf_counter()
                gc.enable()
                del engine.run_until

        WorkloadGenerator.run = run


@dataclass
class Iteration:
    """What one experiment did and how long its phases took."""

    setup_s: float
    run_s: float
    segments: List[float]
    completions: int
    attempted: int
    failed: int
    events: int
    rows_scanned: int
    problems: List[str]
    digest: str

    @property
    def run_rps(self) -> float:
        return self.completions / self.run_s


def run_iteration(runner, phases: PhaseClock, workload, seed: int) -> Iteration:
    """Run and check one experiment of ``workload``."""
    config = workload.config(seed, OUT_DIR)
    gc.collect()
    start = time.perf_counter()
    result = runner.run_experiment(config)
    bulk = int(result.fluid.bulk_completions) if result.fluid is not None else 0
    databases = {id(s.deployment.database): s.deployment.database for s in result.cluster.shards}
    return Iteration(
        setup_s=phases.run_start - start,
        run_s=phases.run_end - phases.run_start,
        segments=phases.segments,
        completions=result.completed_requests + bulk,
        attempted=result.issued_requests + bulk,
        failed=result.error_count + result.refused_requests,
        events=result.executed_events,
        rows_scanned=sum(db.stats.rows_scanned for db in databases.values()),
        problems=workload.check(result, OUT_DIR),
        digest=workload.digest(result, OUT_DIR),
    )


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    runner = _import_program()
    if runner is None:
        print(f"perfbench: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    from spans import LAYERS, SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    os.makedirs(OUT_DIR, exist_ok=True)

    phases = PhaseClock()
    phases.install()
    # The warm-up runs untraced: its fingerprint is the reference every
    # measured iteration must match, which also shows tracing changes nothing.
    warmup = run_iteration(runner, phases, workload, args.seed)
    recorder: Optional[SpanRecorder] = None
    if args.trace:
        recorder = SpanRecorder()
        recorder.install()

    iterations: List[Iteration] = []
    self_us: List[Dict[str, float]] = []
    calls: List[Dict[str, int]] = []
    began = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - began < args.seconds:
        if recorder is not None:
            recorder.reset(log_spans=not iterations)
        iteration = run_iteration(runner, phases, workload, args.seed)
        iterations.append(iteration)
        if recorder is not None:
            self_us.append(
                {layer: 1e6 * s / iteration.completions for layer, s in recorder.self_seconds.items()}
            )
            calls.append(dict(recorder.calls))
            if len(iterations) == 1:
                recorder.write_spans(
                    os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
                )

    problems = list(warmup.problems)
    for index, iteration in enumerate(iterations, start=1):
        problems += [f"iteration {index}: {problem}" for problem in iteration.problems]
        if iteration.digest != warmup.digest:
            problems.append(f"iteration {index}: outputs differ from the warm-up run")
    if any(counts != calls[0] for counts in calls):
        problems.append("layer call counts differ between identical iterations")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    last = iterations[-1]
    if recorder is not None:
        median_us = {layer: statistics.median(sample[layer] for sample in self_us) for layer in LAYERS}
        print(f"{'layer':<10} {'self us/req':>12} {'calls':>10}", file=sys.stderr)
        for layer in LAYERS:
            print(f"{layer:<10} {median_us[layer]:>12.2f} {calls[-1][layer]:>10}", file=sys.stderr)
        metrics = {f"{layer}_self_us": _metric(median_us[layer], "us/req") for layer in TIMED_LAYERS}
        metrics["engine_events"] = _metric(last.events, "count")
        metrics["sql_rows_scanned"] = _metric(last.rows_scanned, "count")
        for layer in COUNTED_LAYERS:
            metrics[f"{layer}_calls"] = _metric(calls[-1][layer], "count")
    else:
        # Untraced, the warm-up is the same work as the rest, so it is timed too.
        timed = [warmup] + iterations
        fastest_run_s = sum(map(min, zip(*(i.segments for i in timed))))
        metrics = {
            "run_rps": _metric(last.completions / fastest_run_s, "req/s"),
            "setup_s": _metric(min(i.setup_s for i in timed), "s"),
        }
    print(
        f"perfbench: {workload.name} seed {args.seed}: {len(iterations)} iterations of "
        f"{last.completions} requests, run_rps {[round(i.run_rps) for i in iterations]}, "
        f"setup_ms {[round(1e3 * i.setup_s, 1) for i in iterations]}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(i.attempted for i in iterations),
                "failed": sum(i.failed for i in iterations),
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
