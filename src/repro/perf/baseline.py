"""Recorded seed-commit baselines.

Two kinds of baseline feed the ``repro bench`` speedup numbers:

* **Live baselines** — the microbenchmarks re-measure the seed algorithms
  bundled in :mod:`repro.perf.seed_reference` in-process, so those ratios
  are machine-independent.
* **Recorded baselines** (this module) — end-to-end experiment wall-clock
  cannot re-run the whole seed stack, so the numbers below were measured at
  the seed commit (``26dbe4d``) and are only comparable on similar hardware.
  They are keyed by the exact configuration they were measured under; a
  bench run with a different configuration reports ``speedup_vs_seed: null``
  instead of a misleading ratio.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Machine/interpreter the recorded numbers were measured on.
RECORDED_ON = "Linux x86_64, CPython 3.11.7 (seed commit 26dbe4d)"

#: name -> {"config": {...}, "seconds": wall-clock of the seed implementation}
RECORDED_E2E_SECONDS: Dict[str, Dict[str, object]] = {
    "fig3_e2e": {
        "config": {"duration_scale": 0.05, "tiny": True, "seed": 42},
        "seconds": 5.28,
    },
    "fig4_e2e": {
        "config": {"duration_scale": 0.05, "tiny": True, "seed": 42},
        "seconds": 2.05,
    },
}


def recorded_e2e_seconds(name: str, config: Dict[str, object]) -> Optional[float]:
    """The recorded seed wall-clock for ``name``, if ``config`` matches."""
    entry = RECORDED_E2E_SECONDS.get(name)
    if entry is None or entry["config"] != config:
        return None
    return float(entry["seconds"])  # type: ignore[arg-type]
