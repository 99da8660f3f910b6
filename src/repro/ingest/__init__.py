"""Async streaming ingestion: live sources → watermarks → adaptive batches.

The subsystem that turns the offline reproduction into a servable streaming
system: :mod:`repro.ingest.sources` define where tuples come from
(:class:`ReplaySource`, :class:`SyntheticRateSource`, :class:`CallbackSource`),
:mod:`repro.ingest.clock` tracks event time with per-stream watermarks and
bounded lateness, :mod:`repro.ingest.batcher` forms micro-batches
adaptively (size / latency deadline), and
:mod:`repro.ingest.driver` multiplexes N sources into the staged runtime
with graceful drain + checkpoint — deterministically reproducing the
offline executors' results when replaying the same interleaved input.
"""

from repro.ingest.batcher import (
    AdaptiveBatcher,
    BatchPolicy,
    TRIGGER_DEADLINE,
    TRIGGER_DRAIN,
    TRIGGER_SIZE,
)
from repro.ingest.clock import (
    LATE_ADMIT,
    LATE_SHED,
    OBSERVED_LATE_ADMITTED,
    OBSERVED_LATE_SHED,
    OBSERVED_READY,
    OBSERVED_REORDERED,
    WatermarkClock,
)
from repro.ingest.driver import IngestDriver, IngestReport
from repro.ingest.sources import (
    CallbackSource,
    ReplaySource,
    Source,
    StreamElement,
    SyntheticRateSource,
)

__all__ = [
    "AdaptiveBatcher",
    "BatchPolicy",
    "CallbackSource",
    "IngestDriver",
    "IngestReport",
    "LATE_ADMIT",
    "LATE_SHED",
    "OBSERVED_LATE_ADMITTED",
    "OBSERVED_LATE_SHED",
    "OBSERVED_READY",
    "OBSERVED_REORDERED",
    "ReplaySource",
    "Source",
    "StreamElement",
    "SyntheticRateSource",
    "TRIGGER_DEADLINE",
    "TRIGGER_DRAIN",
    "TRIGGER_SIZE",
    "WatermarkClock",
]
