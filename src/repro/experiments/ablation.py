"""Manifest-driven ablation matrix: policy × fault × mechanism × seed.

``repro ablate`` turns a manifest into one
:class:`~repro.experiments.scenarios.Comparison` whose modes are the matrix
cells, scores every cell with the shared client-side SLA observation, and
ranks the cells three ways: mechanism importance, policy regret and fault
severity.  Artifacts are written as JSON + CSV + Markdown under
``benchmarks/results/ablation_<name>.*``.  Everything is deterministic for
a fixed manifest + seed — keys sorted, fixed column order, fixed float
formatting, no wall-clock timestamps — so regenerated artifacts are
byte-identical.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.rejuvenation import (
    ProactiveRejuvenationPolicy,
    RejuvenationPolicy,
    TimeBasedRejuvenationPolicy,
)
from repro.container.resilience import ResilienceConfig
from repro.experiments.reporting import rows_to_csv, rows_to_markdown
from repro.experiments.scenarios import (
    RETRY_STORM_TIMEOUT_SECONDS,
    ZOO_FAULT_KINDS,
    Comparison,
    ComparisonResult,
    Table,
    _base_config,
    _memory_leak,
    client_observation,
    zoo_fault_spec,
)
from repro.faults.injector import FaultSpec
from repro.tpcw.mixes import PAGE_PRIORITIES
from repro.tpcw.population import PopulationScale

#: Default EB population of a matrix cell (kept small: the matrix multiplies).
ABLATION_EBS = 30

#: Injection countdown used by every matrix fault.
ABLATION_PERIOD_N = 10

#: Fault registry: name -> FaultSpec builder (period_n -> spec).
FAULTS: Dict[str, Callable[[int], FaultSpec]] = {
    "memory-leak": lambda period_n: _memory_leak(period_n=period_n),
    **{
        kind: (lambda period_n, kind=kind: zoo_fault_spec(kind, period_n=period_n))
        for kind in ZOO_FAULT_KINDS
    },
}

#: Mechanism registry: name -> ResilienceConfig builder (timeout -> config).
MECHANISMS: Dict[str, Callable[[float], Optional[ResilienceConfig]]] = {
    "none": lambda timeout: None,
    "naive-retry": lambda timeout: ResilienceConfig.naive_retries(
        timeout_seconds=timeout
    ),
    "backoff": lambda timeout: ResilienceConfig.backoff_retries(
        timeout_seconds=timeout
    ),
    "backoff-breaker": lambda timeout: ResilienceConfig.backoff_with_breaker(
        timeout_seconds=timeout
    ),
    "full": lambda timeout: ResilienceConfig.full(
        timeout_seconds=timeout, priorities=dict(PAGE_PRIORITIES)
    ),
}

#: Policy registry: name -> (duration -> rejuvenation policy or ``None``).
#: ``None`` means no controller (and the run skips monitoring entirely).
POLICIES: Dict[str, Callable[[float], Optional[RejuvenationPolicy]]] = {
    "no-action": lambda duration: None,
    "time-based": lambda duration: TimeBasedRejuvenationPolicy(
        interval=duration / 3.0, restart_downtime=max(0.5, duration / 90.0)
    ),
    "proactive-microreboot": lambda duration: ProactiveRejuvenationPolicy(
        horizon=duration / 4.0,
        microreboot_downtime=max(0.25, duration / 1800.0),
        min_samples=4,
    ),
}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < math.inf


#: Scalar manifest fields: name -> (validity check, what a valid value is).
_SCALAR_FIELDS: Dict[str, Tuple[Callable[[object], bool], str]] = {
    "name": (
        lambda value: isinstance(value, str) and re.fullmatch(r"[A-Za-z0-9._-]+", value) is not None,
        "a file-name stem (letters, digits, '.', '_', '-')",
    ),
    "duration_scale": (_is_positive, "a positive number"),
    "timeout_seconds": (_is_positive, "a positive number"),
    "ebs": (lambda value: _is_int(value) and value > 0, "a positive integer"),
    "period_n": (lambda value: _is_int(value) and value > 0, "a positive integer"),
    "tiny": (lambda value: isinstance(value, bool), "true or false"),
}


@dataclass
class AblationManifest:
    """Declarative description of one ablation matrix (the defaults are the
    matrix ``repro ablate`` runs without ``--manifest``).

    Every field's type and range is checked at construction (``ValueError``
    naming the field), so a bad manifest fails before any cell runs.
    """

    name: str = "default"
    policies: List[str] = field(default_factory=lambda: ["no-action"])
    faults: List[str] = field(
        default_factory=lambda: ["slow-downstream", "lock-convoy", "cache-stampede"]
    )
    mechanisms: List[str] = field(
        default_factory=lambda: ["none", "naive-retry", "backoff", "backoff-breaker"]
    )
    seeds: List[int] = field(default_factory=lambda: [42])
    duration_scale: float = 0.05
    ebs: int = ABLATION_EBS
    period_n: int = ABLATION_PERIOD_N
    timeout_seconds: float = RETRY_STORM_TIMEOUT_SECONDS
    tiny: bool = True

    def __post_init__(self) -> None:
        for label, (valid, expected) in _SCALAR_FIELDS.items():
            value = getattr(self, label)
            if not valid(value):
                raise ValueError(f"{label} must be {expected}, got {value!r}")
        for label, registry in (
            ("policies", POLICIES),
            ("faults", FAULTS),
            ("mechanisms", MECHANISMS),
            ("seeds", None),
        ):
            chosen = getattr(self, label)
            if not isinstance(chosen, list) or not chosen:
                raise ValueError(f"{label} must be a non-empty list, got {chosen!r}")
            if registry is None:
                bad = [seed for seed in chosen if not (_is_int(seed) and seed >= 0)]
                if bad:
                    raise ValueError(f"seeds must be non-negative integers, got {bad}")
            else:
                unknown = [item for item in chosen if not isinstance(item, str) or item not in registry]
                if unknown:
                    raise ValueError(f"unknown {label} {unknown} (known: {sorted(registry)})")
            if len(set(chosen)) != len(chosen):
                raise ValueError(f"{label} repeat an entry: {chosen}")

    @classmethod
    def from_dict(cls, data: object) -> "AblationManifest":
        """Build a manifest from a parsed JSON object (unknown keys rejected)."""
        if not isinstance(data, dict):
            raise ValueError(f"a manifest must be a JSON object, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown manifest key(s) {unknown} (known keys: {sorted(known)})")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "AblationManifest":
        """Load a manifest from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def smoke_manifest() -> AblationManifest:
    """The CI smoke matrix: 1 policy × 2 faults × 2 mechanisms × 1 seed."""
    return AblationManifest(
        name="smoke",
        policies=["no-action"],
        faults=["slow-downstream", "lock-convoy"],
        mechanisms=["naive-retry", "backoff-breaker"],
        seeds=[42],
        duration_scale=0.02,
        period_n=5,
        tiny=True,
    )


# --------------------------------------------------------------------------- #
# The matrix as a comparison
# --------------------------------------------------------------------------- #
#: The per-cell summary columns (keys of ``SUMMARY_COLUMNS``).
CELL_COLUMNS = (
    "policy", "fault", "mechanism", "seed", "sla_cost", "completed", "errors",
    "timeouts", "retries", "refused", "downtime_s",
)

#: One cell row (``CELL_COLUMNS``) or ranking row.
_Row = Dict[str, object]


def ablation_comparison(manifest: AblationManifest) -> Comparison:
    """The manifest's matrix as one comparison, built without running it.

    One mode per cell, in canonical (policy, fault, mechanism, seed) order;
    a cell's key is ``fault/mechanism/seed/policy`` — its workload
    coordinates, then the policy — which the shared ``policy``, ``fault``
    and ``mechanism`` summary columns split.
    """
    duration = 3600.0 * manifest.duration_scale
    scale = PopulationScale.tiny() if manifest.tiny else PopulationScale.standard()
    configs = {}
    for policy, fault, mechanism, seed in product(
        manifest.policies, manifest.faults, manifest.mechanisms, manifest.seeds
    ):
        rejuvenation = POLICIES[policy](duration)
        configs[f"{fault}/{mechanism}/{seed}/{policy}"] = _base_config(
            manifest.duration_scale, seed, scale, manifest.ebs,
            name=f"ablate-{manifest.name}-{policy}-{fault}-{mechanism}-{seed}",
            monitored=rejuvenation is not None,
            collect_blackbox_samples=False,
            faults=[FAULTS[fault](manifest.period_n)],
            rejuvenation=rejuvenation,
            resilience=MECHANISMS[mechanism](manifest.timeout_seconds),
        )
    return Comparison(
        title=f"Ablation matrix: {manifest.name}",
        expectation="a mechanism carries weight when removing it raises the SLA "
        "cost; the policy to pick has the least regret",
        context=[
            f"policies: {', '.join(manifest.policies)}",
            f"faults: {', '.join(manifest.faults)}",
            f"mechanisms: {', '.join(manifest.mechanisms)}",
            f"seeds: {', '.join(str(seed) for seed in manifest.seeds)}",
            f"duration scale: {manifest.duration_scale:g} "
            f"(population: {'tiny' if manifest.tiny else 'standard'}, "
            f"{manifest.ebs} EBs, timeout {manifest.timeout_seconds:g} s)",
            f"cells: {len(configs)}",
        ],
        configs=configs,
        observe=client_observation,
        caption="cells",
        columns=CELL_COLUMNS,
        tables=ranked_tables,
        exact=True,
    )


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _ranked(rows: List[_Row], name: str, score: str, descending: bool) -> List[_Row]:
    """Sort by ``score`` (ties by ``name``) and number the ranks from 1."""
    rows.sort(key=lambda row: (-row[score] if descending else row[score], row[name]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def _groups(cells: List[_Row], *keys: str) -> Dict[tuple, List[_Row]]:
    """The cells grouped by their ``keys`` coordinates, groups in cell order."""
    groups: Dict[tuple, List[_Row]] = {}
    for cell in cells:
        groups.setdefault(tuple(cell[key] for key in keys), []).append(cell)
    return groups


def _costs_by(cells: List[_Row], coordinate: str, *keys: str) -> List[Dict[object, float]]:
    """Each group's SLA costs keyed by the cells' ``coordinate``."""
    return [
        {cell[coordinate]: cell["sla_cost"] for cell in group}
        for group in _groups(cells, *keys).values()
    ]


def mechanism_importance(cells: List[_Row]) -> List[_Row]:
    """SLA cost removed by each mechanism vs. the baseline, ranked desc.

    Baseline is ``"none"`` when the matrix includes it, else the first
    mechanism listed.  Importance of mechanism *m* is the mean of
    ``cost(baseline) - cost(m)`` over all (policy, fault, seed) cells (the
    ablate-one reading: a big positive delta means *m* carries weight).
    """
    mechanisms = [mechanism for (mechanism,) in _groups(cells, "mechanism")]
    baseline = "none" if "none" in mechanisms else mechanisms[0]
    groups = _costs_by(cells, "mechanism", "policy", "fault", "seed")
    rows = [
        {
            "mechanism": mechanism,
            "baseline": baseline,
            "cells": len(groups),
            "mean_cost_removed": _mean([costs[baseline] - costs[mechanism] for costs in groups]),
        }
        for mechanism in mechanisms
        if mechanism != baseline
    ]
    return _ranked(rows, "mechanism", "mean_cost_removed", descending=True)


def policy_regret(cells: List[_Row]) -> List[_Row]:
    """Mean excess SLA cost of each policy over the per-cell best policy,
    ranked ascending (rank 1 = the policy you would pick)."""
    groups = _costs_by(cells, "policy", "fault", "mechanism", "seed")
    rows = [
        {
            "policy": policy,
            "cells": len(groups),
            "mean_regret": _mean([costs[policy] - min(costs.values()) for costs in groups]),
        }
        for (policy,) in _groups(cells, "policy")
    ]
    return _ranked(rows, "policy", "mean_regret", descending=False)


def fault_severity(cells: List[_Row]) -> List[_Row]:
    """Mean SLA cost per fault across all cells, ranked descending."""
    rows = [
        {"fault": fault, "cells": len(group), "mean_sla_cost": _mean([cell["sla_cost"] for cell in group])}
        for (fault,), group in _groups(cells, "fault").items()
    ]
    return _ranked(rows, "fault", "mean_sla_cost", descending=True)


def ranked_tables(scenario: ComparisonResult) -> Dict[str, Table]:
    """The matrix's three ranked reports, computed from its cell rows."""
    cells = scenario.summary_rows()
    return {
        "mechanism_importance": Table(
            "mechanism importance (SLA cost removed vs. baseline, ranked)",
            mechanism_importance(cells),
            ["rank", "mechanism", "baseline", "cells", "mean_cost_removed"],
        ),
        "policy_regret": Table(
            "policy regret (mean excess SLA cost over per-cell best, ranked)",
            policy_regret(cells),
            ["rank", "policy", "cells", "mean_regret"],
        ),
        "fault_severity": Table(
            "fault severity (mean SLA cost, ranked)",
            fault_severity(cells),
            ["rank", "fault", "cells", "mean_sla_cost"],
        ),
    }


# --------------------------------------------------------------------------- #
# Artifacts (byte-identical for a fixed manifest + seed)
# --------------------------------------------------------------------------- #
def _round_floats(obj: object) -> object:
    """Round every float to 6 decimals so JSON output is stable."""
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(item) for item in obj]
    return obj


def render_markdown(scenario: ComparisonResult) -> str:
    """The human-readable artifact: the context, the ranked tables, then
    every cell (same numbers as the JSON)."""
    spec = scenario.comparison
    cells = Table(spec.caption, scenario.summary_rows(), list(spec.columns))
    sections = [f"# {spec.title}\n\n" + "".join(f"- {line}\n" for line in spec.context)]
    for table in [*scenario.tables().values(), cells]:
        heading = table.caption[:1].upper() + table.caption[1:]
        sections.append(f"## {heading}\n\n" + rows_to_markdown(table.rows, table.columns))
    return "\n".join(sections)


def write_reports(manifest: AblationManifest, scenario: ComparisonResult, out_dir: str) -> List[str]:
    """Write the JSON / CSV / Markdown artifacts; returns the written paths."""
    cells = scenario.summary_rows()
    payload = {
        "manifest": asdict(manifest),
        "duration_scale": manifest.duration_scale,
        "cells": cells,
        **{key: table.rows for key, table in scenario.tables().items()},
    }
    texts = {
        "json": json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n",
        "csv": rows_to_csv(cells, list(scenario.comparison.columns)),
        "md": render_markdown(scenario),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {extension: out / f"ablation_{manifest.name}.{extension}" for extension in texts}
    for extension, text in texts.items():
        paths[extension].write_text(text, encoding="utf-8")
    return [str(path) for path in paths.values()]
