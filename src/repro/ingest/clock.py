"""Event-time tracking: per-stream watermarks and bounded lateness.

The watermark clock sits between the ingest sources and the batcher.  Every
source has a *high mark* (the largest event time it has emitted) and a
watermark ``high - lateness``; the **global watermark** is the minimum over
all open sources (an exhausted/closed source stops holding it back).  An
element is *released* to the batcher once its event time is covered by the
global watermark, and releases happen in ``(event_time, arrival_seq)``
order — so as long as no element is *late* (behind its own stream's
watermark on arrival), the released sequence is non-decreasing in event
time: watermark-monotone batches, whatever interleaving the sources
produced within the lateness bound.

Late elements (event time strictly behind the stream watermark) follow the
configured policy: ``admit`` releases them immediately out of order (they
are counted, and batches lose strict monotonicity), ``shed`` drops them
(counted as shed).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from repro.ingest.sources import StreamElement

#: Late-arrival policies.
LATE_ADMIT = "admit"
LATE_SHED = "shed"

#: ``observe`` outcomes.
OBSERVED_READY = "ready"          # in order; releasable now or soon
OBSERVED_REORDERED = "reordered"  # out of order but within the bound
OBSERVED_LATE_ADMITTED = "late_admitted"
OBSERVED_LATE_SHED = "late_shed"


class WatermarkClock:
    """Bounded-lateness event-time clock over N ingest sources.

    Parameters
    ----------
    lateness:
        Allowed lateness ``L`` in event-time units: a stream's watermark
        trails its high mark by ``L``, so an element may arrive up to ``L``
        event-time units behind the newest one of its stream before it
        counts as late.
    late_policy:
        ``"admit"`` (default) or ``"shed"`` — what to do with late elements.
    """

    def __init__(self, lateness: float = 0.0,
                 late_policy: str = LATE_ADMIT) -> None:
        if not lateness >= 0:  # also rejects NaN
            raise ValueError(f"lateness must be >= 0, got {lateness}")
        if late_policy not in (LATE_ADMIT, LATE_SHED):
            raise ValueError(
                f"late_policy must be {LATE_ADMIT!r} or {LATE_SHED!r}, "
                f"got {late_policy!r}")
        self.lateness = lateness
        self.late_policy = late_policy
        self._high: Dict[str, float] = {}
        self._closed: Dict[str, bool] = {}
        self._idle: set = set()
        self._buffer: List[Tuple[float, int, StreamElement]] = []
        self._admitted: List[StreamElement] = []
        self._seq = 0

    # -- stream lifecycle ----------------------------------------------------
    def register(self, origin: str) -> None:
        """Announce a source before it emits; it holds the global watermark
        at ``-inf`` until its first element (or its close)."""
        self._high.setdefault(origin, -math.inf)
        self._closed.setdefault(origin, False)

    def close(self, origin: str) -> None:
        """Mark a source exhausted; it no longer holds back the watermark."""
        self.register(origin)
        self._closed[origin] = True

    def open(self, origin: str) -> None:
        """(Re-)open a source: a driver that actively reads it counts it
        into the global watermark again even if a restored checkpoint had
        recorded it closed (e.g. the final drain closes every stream)."""
        self.register(origin)
        self._closed[origin] = False
        self._idle.discard(origin)

    # -- idle punctuation ----------------------------------------------------
    def mark_idle(self, origin: str) -> bool:
        """Temporarily exclude a silent source from the global watermark.

        A registered source that has stopped emitting (a stalled
        ``CallbackSource``, a producer outage) would otherwise hold the
        global watermark — and with it the reorder buffer and any
        watermark-triggered batching/expiry — forever.  Marking it idle is
        a revocable punctuation: the source rejoins the watermark
        automatically with its next :meth:`observe`, whose element is then
        classified against its own stream watermark as usual (it may be
        late under the configured policy, exactly like any stale arrival).
        Returns ``False`` when the source is already idle or closed (so
        callers can count distinct idle transitions).
        """
        self.register(origin)
        if self._closed.get(origin, False) or origin in self._idle:
            return False
        self._idle.add(origin)
        return True

    def is_idle(self, origin: str) -> bool:
        return origin in self._idle

    # -- watermarks ----------------------------------------------------------
    def stream_watermark(self, origin: str) -> float:
        if self._closed.get(origin, False) or origin in self._idle:
            return math.inf
        return self._high.get(origin, -math.inf) - self.lateness

    @property
    def watermark(self) -> float:
        """Global watermark: min over the open sources' watermarks."""
        if not self._high:
            return -math.inf
        return min(self.stream_watermark(origin) for origin in self._high)

    @property
    def buffered(self) -> int:
        """Elements held in the reorder buffer (not yet released)."""
        return len(self._buffer)

    @property
    def observed_count(self) -> int:
        """Total arrivals observed so far (including shed ones)."""
        return self._seq

    def buffered_elements(self) -> List[StreamElement]:
        """Snapshot of the reorder buffer in ``(event_time, seq)`` order."""
        return [element for _, _, element in sorted(self._buffer)]

    def restore_buffered(self, elements: List[StreamElement]) -> None:
        """Re-inject checkpointed in-flight elements, bypassing the late
        check (they were admitted before the snapshot; re-classifying them
        against the restored high marks could wrongly shed them when
        another stream held the global watermark back).  The elements were
        already counted by ``observed_count`` before the snapshot, so they
        are renumbered *below* the current sequence — list order preserves
        the original tie-breaking, and future arrivals still sort after
        them on event-time ties."""
        base = self._seq - len(elements)
        for offset, element in enumerate(elements):
            element.seq = base + offset
            heapq.heappush(self._buffer,
                           (element.event_time, element.seq, element))

    # -- element flow --------------------------------------------------------
    def observe(self, element: StreamElement) -> str:
        """Admit one arrival; returns the ``OBSERVED_*`` outcome.

        Non-late elements go to the reorder buffer until the global
        watermark covers them; late ones are admitted immediately or shed
        according to the policy.
        """
        origin = element.origin
        self.register(origin)
        # A woken idle source rejoins the watermark *before* the late
        # check — against an idle (infinite) stream watermark every
        # arrival would count as late.  A *closed* source that emits again
        # (e.g. a CallbackSource pushed after a drain, without the driver
        # re-opening it) wakes the same way: its closed-stream watermark is
        # also infinite, so without the wake every element of the revived
        # stream would be classified late.
        self._idle.discard(origin)
        if self._closed.get(origin, False):
            self._closed[origin] = False
        element.seq = self._seq
        self._seq += 1
        if element.event_time < self.stream_watermark(origin):
            if self.late_policy == LATE_SHED:
                return OBSERVED_LATE_SHED
            self._admitted.append(element)
            return OBSERVED_LATE_ADMITTED
        out_of_order = element.event_time < self._high.get(origin, -math.inf)
        self._high[origin] = max(self._high.get(origin, -math.inf),
                                 element.event_time)
        heapq.heappush(self._buffer,
                       (element.event_time, element.seq, element))
        return OBSERVED_REORDERED if out_of_order else OBSERVED_READY

    def release_ready(self) -> List[StreamElement]:
        """Pop every element covered by the global watermark, in
        ``(event_time, seq)`` order; late-admitted elements ride along."""
        released: List[StreamElement] = self._admitted
        self._admitted = []
        watermark = self.watermark
        while self._buffer and self._buffer[0][0] <= watermark:
            released.append(heapq.heappop(self._buffer)[2])
        return released

    def release_overflow(self, capacity: int) -> List[StreamElement]:
        """Force-release the oldest buffered elements beyond ``capacity``.

        Bounds the reorder buffer when one source stalls the global
        watermark (e.g. a registered ``CallbackSource`` that has not pushed
        yet) while others keep arriving: beyond the cap, ordering degrades
        to best-effort — the oldest elements are released ahead of the
        watermark (still in ``(event_time, seq)`` order) rather than
        buffered without bound.
        """
        released: List[StreamElement] = []
        while len(self._buffer) > capacity:
            released.append(heapq.heappop(self._buffer)[2])
        return released

    def drain(self) -> List[StreamElement]:
        """Close every source and release everything still buffered."""
        for origin in self._high:
            self._closed[origin] = True
        return self.release_ready()

    # -- checkpointing -------------------------------------------------------
    def state_to_dict(self) -> Dict:
        """High marks of each source.  The reorder buffer is serialised
        separately by the driver (``in_flight``), since its elements carry
        whole records."""
        return {
            "lateness": self.lateness,
            "observed": self._seq,
            "high": {origin: high for origin, high in sorted(self._high.items())
                     if high != -math.inf},
            "closed": sorted(origin for origin, closed in self._closed.items()
                             if closed),
            "idle": sorted(self._idle),
        }

    def restore_state(self, state: Dict) -> None:
        lateness = state.get("lateness")
        if lateness is not None and float(lateness) != self.lateness:
            # A different bound silently re-classifies arrivals near the
            # restored high marks (shed or admitted out of order), so the
            # resumed run would diverge from the uninterrupted one.
            raise ValueError(
                f"checkpoint was taken with lateness {lateness}, this clock "
                f"uses {self.lateness}; resume with the same bound")
        for origin, high in state.get("high", {}).items():
            self.register(origin)
            self._high[origin] = max(self._high[origin], float(high))
        # Exhausted sources stay closed on restore, or their stale high
        # marks would cap the global watermark forever; sources the new
        # driver actually reads are re-opened by ``open`` at run start.
        for origin in state.get("closed", []):
            self.close(origin)
        # Idle punctuation survives the snapshot too: a source marked idle
        # before the checkpoint was releasing the watermark, and must not
        # silently rejoin (and stall) the restored one — until the next
        # idle timeout if the resumed driver reads it, forever if not.  It
        # still wakes on its next observe, exactly like a live idle mark.
        for origin in state.get("idle", []):
            self.register(origin)
            self._idle.add(origin)
        # Continue the arrival numbering where the snapshot left off so
        # ``observed_count`` stays a cumulative replay offset across resumes.
        self._seq = max(self._seq, int(state.get("observed", 0)))
