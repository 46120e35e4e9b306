"""Timing primitives for the perf harness.

Wall-clock measurement on a laptop/CI box is noisy; the helpers here follow
the standard microbenchmark playbook: warm up once, repeat the measurement a
few times, and report the *best* observation (the run least disturbed by the
OS scheduler / allocator), plus the raw repeats so the JSON artifact keeps
the evidence.  A live A/B (:func:`measure_rates_interleaved`) reports the
median of its per-round ratios instead.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List


class BenchTimer:
    """Context-manager stopwatch: ``with BenchTimer() as t: ...; t.seconds``."""

    __slots__ = ("seconds", "_start")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "BenchTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start


def measure_seconds(
    fn: Callable[[], object], repeats: int = 3, warmup: bool = True
) -> Dict[str, object]:
    """Run ``fn`` ``repeats`` times; report best/mean wall-clock seconds."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup:
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        with BenchTimer() as timer:
            fn()
        samples.append(timer.seconds)
    return {
        "best_seconds": min(samples),
        "mean_seconds": sum(samples) / len(samples),
        "repeats": samples,
    }


def measure_rates_interleaved(
    current: Callable[[], int],
    seed: Callable[[], int],
    rounds: int = 21,
    warmup: bool = True,
) -> Dict[str, float]:
    """Live A/B of ``current`` against ``seed``: each side's rate and the speedup.

    Each round times ``current`` and then ``seed`` back to back, so both
    sides of a round share its slice of machine drift (thermal or cgroup
    throttling, a noisy neighbour starting mid-run).  The speedup is the
    median of the per-round ratios: the ratio of two best-of-N rates picks
    an outlier on each side, and moved by more than 10 % between runs on a
    2-vCPU host.  Each side's best rate (operations per second) is kept for
    information.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if warmup:
        current()
        seed()
    best = {"current": 0.0, "seed": 0.0}
    ratios: List[float] = []
    for _ in range(rounds):
        rates: Dict[str, float] = {}
        for name, fn in (("current", current), ("seed", seed)):
            with BenchTimer() as timer:
                count = fn()
            if timer.seconds <= 0 or count <= 0:
                raise RuntimeError("benchmark produced no measurable work")
            rates[name] = count / timer.seconds
            best[name] = max(best[name], rates[name])
        ratios.append(rates["current"] / rates["seed"])
    return dict(best, speedup=statistics.median(ratios))


def measure_rate(
    fn: Callable[[], int], repeats: int = 3, warmup: bool = True
) -> Dict[str, object]:
    """Run ``fn`` (which returns an operation count); report best ops/second."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup:
        fn()
    rates: List[float] = []
    for _ in range(repeats):
        with BenchTimer() as timer:
            count = fn()
        if timer.seconds <= 0 or count <= 0:
            continue
        rates.append(count / timer.seconds)
    if not rates:
        raise RuntimeError("benchmark produced no measurable work")
    return {
        "best_ops_per_second": max(rates),
        "mean_ops_per_second": sum(rates) / len(rates),
        "repeats": rates,
    }
