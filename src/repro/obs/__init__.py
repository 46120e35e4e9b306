"""Live observability plane: watch a running experiment like a fleet.

Everything the repo produced before this package was a post-hoc report; the
paper's premise, though, is that software aging is something operators watch
*during* the run.  :class:`~repro.obs.registry.MetricsRegistry` is the
read-only window onto a running experiment (per-shard series, aging alerts,
rolling SLA burn, ledger counters, predictor calibration), and a
streamed-JSONL sink serves it live; ``repro replay`` reads a recorded stream
back.

The stream is strictly an observer — attaching it schedules no state
mutation and perturbs no random stream, so a run with the plane attached is
bit-identical to one without.
"""

from repro.obs.registry import MetricsRegistry
from repro.obs.transports import OBS_STREAM_PRIORITY, JsonlMetricsStream

__all__ = [
    "MetricsRegistry",
    "JsonlMetricsStream",
    "OBS_STREAM_PRIORITY",
]
