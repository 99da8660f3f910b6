"""Adaptive micro-batch formation for the ingestion driver.

A batch is emitted when the first of two triggers fires:

* **size** — the pending buffer reached ``max_batch`` elements;
* **deadline** — the oldest pending element has waited ``max_delay``
  wall-clock seconds (bounds formation latency under a trickle).

The batcher is deliberately synchronous and pure (wall-clock instants are
passed in), so its trigger behaviour is directly unit- and
property-testable; the asyncio plumbing lives in
:class:`~repro.ingest.driver.IngestDriver`.  Trigger counts, batch sizes and
formation latencies are recorded on the shared
:class:`~repro.runtime.context.IngestStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.ingest.sources import StreamElement, check_finite_positive
from repro.runtime.context import IngestStats

#: Trigger labels recorded in ``IngestStats.triggers``.
TRIGGER_SIZE = "size"
TRIGGER_DEADLINE = "deadline"
TRIGGER_DRAIN = "drain"


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of adaptive batch formation.

    ``max_batch`` must be positive; ``max_delay`` (seconds) is an optional
    deadline — ``None`` disables it, leaving pure size-triggered batching.
    When set it must be finite and positive: a NaN deadline would never
    fire yet always read as due, spinning the driver's wait loop.
    """

    max_batch: int = 64
    max_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        check_finite_positive("max_delay", self.max_delay)


class AdaptiveBatcher:
    """Size / deadline triggered micro-batch formation.

    Runs the one static :class:`BatchPolicy` its caller gives it.  The
    triggers adapt each batch to the arrival pattern; the thresholds
    themselves never change at runtime.  Match sets do not depend on how
    the stream is cut into batches, so the policy trades latency against
    per-batch overhead and nothing else.
    """

    def __init__(self, policy: BatchPolicy, stats: IngestStats,
                 queue_depth: Optional[Callable[[], int]] = None) -> None:
        self.policy = policy
        self.stats = stats
        #: Probe for the arrival-queue depth at emit time (the driver wires
        #: its bounded queue's ``qsize`` in; standalone use reports 0).
        self.queue_depth = queue_depth or (lambda: 0)
        self._pending: List[StreamElement] = []
        self._first_enqueue: Optional[float] = None

    @property
    def pending(self) -> int:
        """Number of elements waiting for a trigger."""
        return len(self._pending)

    def pending_elements(self) -> List[StreamElement]:
        """Snapshot of the waiting elements (checkpoint serialisation)."""
        return list(self._pending)

    def add(self, element: StreamElement,
            now: float) -> Optional[List[StreamElement]]:
        """Buffer one released element; returns a batch on the size trigger."""
        if not self._pending:
            self._first_enqueue = now
        self._pending.append(element)
        if len(self._pending) >= self.policy.max_batch:
            return self._emit(now, TRIGGER_SIZE)
        return None

    def poll(self, now: float) -> Optional[List[StreamElement]]:
        """Check the deadline trigger (after adds/timeouts)."""
        if (self._pending and self.policy.max_delay is not None
                and self._first_enqueue is not None
                and now - self._first_enqueue >= self.policy.max_delay):
            return self._emit(now, TRIGGER_DEADLINE)
        return None

    def time_until_due(self, now: float) -> Optional[float]:
        """Seconds until the deadline trigger fires (None = no deadline)."""
        if self.policy.max_delay is None or not self._pending:
            return None
        assert self._first_enqueue is not None
        return max(0.0, self._first_enqueue + self.policy.max_delay - now)

    def flush(self, now: float,
              trigger: str = TRIGGER_DRAIN) -> Optional[List[StreamElement]]:
        """Emit whatever is pending (drain path); None when empty."""
        if not self._pending:
            return None
        return self._emit(now, trigger)

    def _emit(self, now: float, trigger: str) -> List[StreamElement]:
        batch = self._pending
        self._pending = []
        latency = 0.0 if self._first_enqueue is None else now - self._first_enqueue
        self._first_enqueue = None
        self.stats.record_batch(size=len(batch), latency=latency,
                                queue_depth=self.queue_depth(),
                                trigger=trigger)
        return batch
