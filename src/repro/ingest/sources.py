"""Ingestion sources: where live tuples come from.

A :class:`Source` is an async iterator of :class:`StreamElement`\\ s — a
record plus its *event time* (the logical instant the tuple belongs to,
distinct from both the wall clock and the record's engine-assigned arrival
``timestamp``, which the sources never touch).  Three implementations cover
the spectrum the ingest driver needs:

* :class:`ReplaySource` — wraps an existing record sequence,
  :class:`~repro.core.stream.IncompleteDataStream` or
  :class:`~repro.core.stream.StreamSet` (round-robin interleaving) and
  replays it, optionally paced against the wall clock.  Event times count
  up from ``start_event_time``, so a replay is strictly in order and — with
  lateness 0 — the driver reproduces the offline executors' results
  bit-identically.
* :class:`SyntheticRateSource` — generates records from a factory under a
  configurable arrival-rate/burst model (load benchmarks, soak tests).
* :class:`CallbackSource` — a push API for external producers: call
  :meth:`~CallbackSource.push` from the event loop (or via
  ``loop.call_soon_threadsafe`` from another thread), then
  :meth:`~CallbackSource.close`.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass
from typing import (
    AsyncIterator,
    Callable,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.core.stream import IncompleteDataStream, StreamSet
from repro.core.tuples import Record


@dataclass
class StreamElement:
    """One arriving tuple: the record, its event time and its origin.

    ``origin`` is the *ingest source* name (watermarks are tracked per
    source), which is independent of ``record.source`` (the logical stream a
    tuple belongs to — one replay source may interleave several streams).
    ``seq`` is a global arrival sequence number assigned by the watermark
    clock; it breaks event-time ties deterministically.
    """

    record: Record
    event_time: float
    origin: str = ""
    seq: int = -1


def check_finite_positive(name: str, value: Optional[float]) -> None:
    """Reject an optional threshold that is set but not finite and
    positive; ``None`` (the knob is off) passes."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@runtime_checkable
class Source(Protocol):
    """An asynchronous producer of stream elements.

    ``name`` identifies the source to the watermark clock; iteration ends
    when the source is exhausted (the driver then closes the source's
    watermark so it no longer holds back the global one).
    """

    name: str

    def __aiter__(self) -> AsyncIterator[StreamElement]:  # pragma: no cover
        ...


ReplayInput = Union[Sequence[Record], IncompleteDataStream, StreamSet]


class ReplaySource:
    """Replay a pre-materialized workload as a live source.

    Parameters
    ----------
    records:
        A record sequence, a single :class:`IncompleteDataStream`, or a
        :class:`StreamSet` (replayed in its round-robin interleaving —
        exactly the order ``StreamSet.interleaved`` / the offline harness
        would produce).
    name:
        Source name (the watermark clock tracks one watermark per name).
    pace:
        Seconds of wall-clock delay between consecutive arrivals (finite
        and ``>= 0``); ``None`` (default) replays as fast as the loop
        allows.
    start_event_time:
        First event time (finite); event times are ``start_event_time + i``
        for the ``i``-th replayed record, so they are strictly increasing
        and a resumed replay can continue the sequence where a checkpoint
        left it.
    """

    def __init__(self, records: ReplayInput, name: str = "replay",
                 pace: Optional[float] = None,
                 start_event_time: float = 0.0) -> None:
        if pace is not None and not (math.isfinite(pace) and pace >= 0):
            raise ValueError(f"pace must be finite and >= 0, got {pace}")
        if not math.isfinite(start_event_time):
            raise ValueError(
                f"start_event_time must be finite, got {start_event_time}")
        self.name = name
        self.pace = pace
        self.start_event_time = start_event_time
        self._records = records

    def _iter_records(self) -> Iterable[Record]:
        if isinstance(self._records, StreamSet):
            return self._records.interleaved()
        # A plain sequence and an IncompleteDataStream both just iterate
        # (the stream stamps its own per-stream arrival timestamps).
        return iter(self._records)

    async def __aiter__(self) -> AsyncIterator[StreamElement]:
        event_time = self.start_event_time
        for record in self._iter_records():
            if self.pace:
                await asyncio.sleep(self.pace)
            else:
                # Cooperative yield so an unpaced replay cannot starve the
                # mux (and the bounded queue can exert backpressure).
                await asyncio.sleep(0)
            yield StreamElement(record=record, event_time=event_time,
                                origin=self.name)
            event_time += 1.0


class SyntheticRateSource:
    """Generate records under a configurable arrival-rate/burst model.

    Parameters
    ----------
    factory:
        ``factory(i) -> Record`` producing the ``i``-th tuple.
    count:
        Total number of tuples to emit.
    name:
        Source name.
    rate:
        Mean arrival rate in tuples/second (finite and positive); ``None``
        emits as fast as the loop allows (throughput benchmarks).
    burst_every / burst_size:
        Every ``burst_every``-th arrival additionally emits ``burst_size``
        back-to-back tuples with no pacing delay — a simple bursty-traffic
        model (the burst tuples count towards ``count``).
    jitter:
        Fractional uniform jitter on the pacing interval (0 = deterministic
        pacing), drawn from a ``random.Random(seed)`` so runs repeat.
    """

    def __init__(self, factory: Callable[[int], Record], count: int,
                 name: str = "synthetic", rate: Optional[float] = None,
                 burst_every: Optional[int] = None, burst_size: int = 0,
                 jitter: float = 0.0, seed: int = 7) -> None:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        check_finite_positive("rate", rate)
        if burst_every is not None and burst_every <= 0:
            raise ValueError(f"burst_every must be positive, got {burst_every}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.name = name
        self.factory = factory
        self.count = count
        self.rate = rate
        self.burst_every = burst_every
        self.burst_size = burst_size
        self.jitter = jitter
        self.seed = seed

    async def __aiter__(self) -> AsyncIterator[StreamElement]:
        rng = random.Random(self.seed)
        interval = (1.0 / self.rate) if self.rate else 0.0
        emitted = 0
        arrivals = 0
        while emitted < self.count:
            if interval:
                delay = interval
                if self.jitter:
                    delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
                await asyncio.sleep(delay)
            else:
                await asyncio.sleep(0)
            arrivals += 1
            burst = 1
            if (self.burst_every is not None
                    and arrivals % self.burst_every == 0):
                burst += self.burst_size
            for _ in range(burst):
                if emitted >= self.count:
                    break
                yield StreamElement(record=self.factory(emitted),
                                    event_time=float(emitted),
                                    origin=self.name)
                emitted += 1


#: Queue sentinel marking the end of a callback source.
_CLOSED = object()


class CallbackSource:
    """Push API for external producers.

    ``push`` enqueues one record (with an optional explicit event time;
    defaults to a per-source arrival counter), ``close`` ends the source.
    Both must be called from the event-loop thread — external threads go
    through ``loop.call_soon_threadsafe(source.push, record)``.  A bounded
    ``capacity`` makes ``push`` return ``False`` (and count the drop) when
    the producer outruns the pipeline, surfacing backpressure to the caller
    instead of buffering without bound.
    """

    def __init__(self, name: str = "callback",
                 capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.dropped = 0
        # One slot above capacity is reserved for the close sentinel, so
        # closing a full source can never fail; ``push`` enforces the
        # user-visible capacity itself.
        self._queue: "asyncio.Queue" = asyncio.Queue(
            maxsize=(capacity + 1) if capacity else 0)
        self._next_event_time = 0.0
        self._closed = False

    def push(self, record: Record,
             event_time: Optional[float] = None) -> bool:
        """Enqueue one record; ``False`` when the source is closed or full."""
        if self._closed:
            return False
        if event_time is None:
            event_time = self._next_event_time
        self._next_event_time = max(self._next_event_time, event_time) + 1.0
        if self.capacity is not None and self._queue.qsize() >= self.capacity:
            self.dropped += 1
            return False
        self._queue.put_nowait(StreamElement(record=record,
                                             event_time=event_time,
                                             origin=self.name))
        return True

    def close(self) -> None:
        """End the source; the driver releases its watermark hold."""
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(_CLOSED)

    async def __aiter__(self) -> AsyncIterator[StreamElement]:
        while True:
            item = await self._queue.get()
            if item is _CLOSED:
                return
            yield item
