"""Microbenchmark registry and JSON artifact emitter.

Benchmarks register themselves with :func:`microbench`; the CLI (``repro
bench``) runs them through :func:`run_benches` and persists the results with
:func:`write_json`.  Each benchmark returns a :class:`BenchResult`, whose
``speedup_vs_seed`` / ``target_speedup`` drive the pass/fail verdict.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro._version import __version__


@dataclass
class BenchOptions:
    """Shared knobs, resolved from the environment by default."""

    seed: int = 42
    duration_scale: float = 0.05
    tiny: bool = False

    @classmethod
    def from_environment(cls) -> "BenchOptions":
        """Resolve options from ``REPRO_BENCH_*`` variables.

        Raises ``ValueError``, naming the variable, for a seed that is not a
        non-negative integer, a duration scale that is not positive and
        finite, or a ``REPRO_BENCH_TINY`` other than ``0`` or ``1``.
        """
        seed = os.environ.get("REPRO_BENCH_SEED", "42")
        scale = os.environ.get("REPRO_BENCH_DURATION_SCALE", "0.05")
        tiny = os.environ.get("REPRO_BENCH_TINY", "0")
        try:
            seed_value = int(seed)
        except ValueError:
            seed_value = -1
        if seed_value < 0:
            raise ValueError(f"REPRO_BENCH_SEED must be a non-negative integer, got {seed!r}")
        try:
            scale_value = float(scale)
        except ValueError:
            scale_value = math.nan
        if not 0 < scale_value < math.inf:
            raise ValueError(
                f"REPRO_BENCH_DURATION_SCALE must be a positive number, got {scale!r}"
            )
        if tiny not in ("0", "1"):
            raise ValueError(f"REPRO_BENCH_TINY must be 0 or 1, got {tiny!r}")
        return cls(seed=seed_value, duration_scale=scale_value, tiny=tiny == "1")


@dataclass
class BenchResult:
    """Outcome of one microbenchmark."""

    name: str
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Ratio current/seed (higher is better); ``None`` when no comparable
    #: baseline exists for the configuration that was run.
    speedup_vs_seed: Optional[float] = None
    #: Minimum acceptable ``speedup_vs_seed`` (``None``: informational only).
    target_speedup: Optional[float] = None
    config: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> Optional[bool]:
        """Whether the target was met (``None`` when not comparable).

        A bench that records its scenario's verdict as ``claim_holds`` fails
        when that claim fails, however fast it ran.
        """
        if self.metrics.get("claim_holds") is False:
            return False
        if self.target_speedup is None:
            return None
        if self.speedup_vs_seed is None:
            return None
        return self.speedup_vs_seed >= self.target_speedup

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "metrics": self.metrics,
            "speedup_vs_seed": self.speedup_vs_seed,
            "target_speedup": self.target_speedup,
            "passed": self.passed,
            "config": self.config,
        }


#: name -> bench callable.
_BENCHES: Dict[str, Callable[[BenchOptions], BenchResult]] = {}


def microbench(name: str) -> Callable:
    """Decorator registering a benchmark under ``name``."""

    def register(fn: Callable[[BenchOptions], BenchResult]) -> Callable:
        if name in _BENCHES:
            raise ValueError(f"benchmark {name!r} is already registered")
        _BENCHES[name] = fn
        return fn

    return register


def all_bench_names() -> List[str]:
    """Registered benchmark names, in registration order."""
    _load_benches()
    return list(_BENCHES)


def run_benches(
    names: Optional[List[str]] = None,
    options: Optional[BenchOptions] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run the named benchmarks (all of them by default)."""
    _load_benches()
    options = options or BenchOptions.from_environment()
    selected = names if names is not None else list(_BENCHES)
    unknown = [name for name in selected if name not in _BENCHES]
    if unknown:
        raise KeyError(f"unknown benchmark(s): {', '.join(sorted(unknown))}")
    results: List[BenchResult] = []
    for name in selected:
        if progress is not None:
            progress(name)
        results.append(_BENCHES[name](options))
    return results


def _options_key(options: object) -> tuple:
    """Canonical hashable form of an entry's ``options`` stamp."""
    if not isinstance(options, dict):
        return ()
    return tuple(sorted(options.items()))


def write_json(path: str, results: List[BenchResult], options: BenchOptions) -> None:
    """Persist a bench run as a ``BENCH_perf.json``-style artifact.

    When ``path`` already holds a bench artifact, the new results are
    *merged into* it, keyed by ``(name, options)``: an entry re-measured
    under the same configuration is replaced in place; entries for
    benchmarks (or configurations) not run are preserved — so a partial run
    (``repro bench --only fig3_e2e``) keeps the perf trajectory intact, and
    a tiny smoke entry can live next to the full-scale record of the same
    benchmark.  Keying by name alone silently let an entry measured under
    *different* options pose as the current run's result, which corrupted
    speedup comparisons; now the configurations coexist explicitly and a
    warning on stderr flags every benchmark whose retained entries were
    measured under options other than this invocation's.  The top-level
    ``options`` describe only the latest invocation; every entry carries its
    own ``options`` stamp recording what it was actually measured under.
    """
    run_options = {
        "seed": options.seed,
        "duration_scale": options.duration_scale,
        "tiny": options.tiny,
    }
    bench_dicts = [dict(result.to_dict(), options=run_options) for result in results]
    existing = _read_existing_benches(path)
    if existing:
        by_key = {
            (bench.get("name"), _options_key(bench.get("options"))): bench
            for bench in bench_dicts
        }
        merged: List[Dict[str, object]] = []
        for bench in existing:
            key = (bench.get("name"), _options_key(bench.get("options")))
            merged.append(by_key.pop(key, bench))
        merged.extend(by_key.values())
        bench_dicts = merged
    run_key = _options_key(run_options)
    stale = sorted(
        {
            str(bench.get("name"))
            for bench in bench_dicts
            if _options_key(bench.get("options")) != run_key
        }
    )
    if stale:
        # Informational, not an error: an artifact that deliberately carries
        # tiny smoke entries next to full-scale records triggers this on
        # every merge.  The point is that the top-level ``options`` do not
        # describe those entries.
        print(
            f"note: {os.path.basename(path)} mixes configurations — entries for "
            f"{', '.join(stale)} were measured under options other than this run's "
            f"{run_options}; speedups are only comparable per (name, options)",
            file=sys.stderr,
        )
    payload = {
        "schema": "repro-bench/v1",
        "version": __version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "options": run_options,
        "benches": bench_dicts,
        "all_targets_met": all(bench.get("passed") is not False for bench in bench_dicts),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


#: Relative speedup loss treated as a regression by :func:`compare_artifacts`.
REGRESSION_TOLERANCE = 0.10


@dataclass
class BenchComparison:
    """One benchmark's old-vs-new speedup delta."""

    name: str
    options: Dict[str, object]
    old_speedup: Optional[float]
    new_speedup: Optional[float]
    #: ``None`` when either side has no comparable speedup.
    delta_percent: Optional[float]
    #: True when a previously-passing entry lost more than the tolerance.
    regression: bool
    note: str = ""


def compare_artifacts(old_path: str, new_path: str) -> List[BenchComparison]:
    """Compare two ``BENCH_perf.json`` artifacts per ``(name, options)``.

    Every bench entry of the *new* artifact is matched against the old
    artifact under the same ``(name, options)`` key — entries measured under
    different configurations are never compared against each other (that is
    the silent corruption the merge re-keying exists to prevent; a name-only
    match is reported as ``options differ`` instead).  A matched pair where
    the old entry was not failing its target counts as a **regression** when
    the new speedup falls more than ``REGRESSION_TOLERANCE`` below the old
    one; ``repro bench --compare`` exits non-zero if any regression is found.
    """
    old_benches = _read_existing_benches(old_path)
    new_benches = _read_existing_benches(new_path)
    if not old_benches:
        raise ValueError(f"no bench entries in {old_path!r}")
    if not new_benches:
        raise ValueError(f"no bench entries in {new_path!r}")
    old_by_key = {
        (bench.get("name"), _options_key(bench.get("options"))): bench
        for bench in old_benches
    }
    old_names = {bench.get("name") for bench in old_benches}
    comparisons: List[BenchComparison] = []
    for bench in new_benches:
        name = str(bench.get("name"))
        options = bench.get("options") if isinstance(bench.get("options"), dict) else {}
        key = (bench.get("name"), _options_key(bench.get("options")))
        new_speedup = bench.get("speedup_vs_seed")
        new_speedup = float(new_speedup) if isinstance(new_speedup, (int, float)) else None
        old = old_by_key.get(key)
        if old is None:
            note = (
                "options differ (not comparable)"
                if bench.get("name") in old_names
                else "new benchmark"
            )
            comparisons.append(
                BenchComparison(
                    name=name,
                    options=dict(options),
                    old_speedup=None,
                    new_speedup=new_speedup,
                    delta_percent=None,
                    regression=False,
                    note=note,
                )
            )
            continue
        old_speedup = old.get("speedup_vs_seed")
        old_speedup = float(old_speedup) if isinstance(old_speedup, (int, float)) else None
        delta: Optional[float] = None
        regression = False
        note = ""
        if old_speedup is not None and new_speedup is not None and old_speedup > 0:
            delta = 100.0 * (new_speedup / old_speedup - 1.0)
            previously_passing = old.get("passed") is not False
            # A recorded speedup well above the bench's own target must not
            # ratchet the gate past that target: a drop that still clears
            # the entry's target_speedup is not a regression.
            target = old.get("target_speedup")
            still_meets_target = (
                isinstance(target, (int, float)) and new_speedup >= float(target)
            )
            if (
                previously_passing
                and not still_meets_target
                and new_speedup < old_speedup * (1.0 - REGRESSION_TOLERANCE)
            ):
                regression = True
                note = f"regression: lost more than {REGRESSION_TOLERANCE:.0%}"
        else:
            note = "no comparable speedup"
        comparisons.append(
            BenchComparison(
                name=name,
                options=dict(options),
                old_speedup=old_speedup,
                new_speedup=new_speedup,
                delta_percent=delta,
                regression=regression,
                note=note,
            )
        )
    return comparisons


def _read_existing_benches(path: str) -> List[Dict[str, object]]:
    """Bench entries of an existing artifact (empty when absent/unreadable)."""
    if not os.path.exists(path):
        return []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return []
    benches = payload.get("benches") if isinstance(payload, dict) else None
    if not isinstance(benches, list):
        return []
    return [bench for bench in benches if isinstance(bench, dict) and bench.get("name")]


def _load_benches() -> None:
    """Import the benchmark definitions (idempotent)."""
    # Imported lazily so `import repro.perf` stays cheap and dependency-free.
    from repro.perf import benches  # noqa: F401
