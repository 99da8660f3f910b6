"""The ingestion driver: N async sources → watermark clock → adaptive
batcher → staged TER-iDS runtime.

:class:`IngestDriver` multiplexes any number of :class:`~repro.ingest.sources.Source`
implementations into one bounded arrival queue, runs every arrival through
the :class:`~repro.ingest.clock.WatermarkClock` (per-stream watermarks,
bounded lateness, deterministic reordering) and the
:class:`~repro.ingest.batcher.AdaptiveBatcher` (size / deadline / watermark
triggers), and feeds the formed micro-batches to
``TERiDSEngine.process_batch`` — so the live path exercises exactly the
executors the offline harness pins against the goldens.

Determinism: replaying the same interleaved input through a
:class:`~repro.ingest.sources.ReplaySource` with ``lateness=0`` releases the
tuples in their original order whatever the trigger policy, and batched
execution is match-equivalent to the serial one — so ingestion reproduces
the offline executors' results bit-identically (pinned by
``tests/test_ingest.py`` against the ``tests/data/`` goldens).

Shutdown: when every source is exhausted (or :meth:`IngestDriver.stop` is
called) the driver performs a *graceful drain* — already-admitted arrivals
are observed, the reorder buffer is released, the final partial batch is
flushed — and then writes a final checkpoint when a ``checkpoint_path`` is
configured.  A checkpoint captures the *admitted* prefix: the engine's
online state plus every in-flight element (batcher pending + reorder
buffer), watermark positions and ingest counters.  A resumed run restores
the in-flight set and re-feeds the input from the first unadmitted tuple —
the snapshot's ``ingest.tuples_admitted`` gives the offset for a replay
(see :meth:`IngestDriver.checkpoint`).
"""

from __future__ import annotations

import asyncio
import logging
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.matching import MatchPair
from repro.core.time_window import TimeBasedWindow
from repro.ingest.batcher import AdaptiveBatcher, BatchPolicy
from repro.ingest.clock import (
    LATE_ADMIT,
    OBSERVED_LATE_ADMITTED,
    OBSERVED_LATE_SHED,
    OBSERVED_REORDERED,
    WatermarkClock,
)
from repro.ingest.sources import Source, StreamElement
from repro.persistence import record_from_dict, record_to_dict, save_checkpoint
from repro.runtime.checkpoint import engine_state_to_dict
from repro.runtime.context import IngestStats

logger = logging.getLogger(__name__)

#: Arrival-queue message kinds.
_ITEM = 0
_CLOSE = 1
_STOP = 2


@dataclass
class IngestReport:
    """Summary of one driver run.

    ``tuples_processed`` / ``batches_processed`` / ``total_seconds`` cover
    *this* run only; ``stats`` is the context-level :class:`IngestStats`,
    whose counters are cumulative across checkpoint restores.
    """

    tuples_processed: int
    batches_processed: int
    matches: List[MatchPair]
    stats: IngestStats
    final_watermark: float
    total_seconds: float

    @property
    def tuples_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.tuples_processed / self.total_seconds


class IngestDriver:
    """Multiplex live sources into the staged TER-iDS pipeline.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.engine.TERiDSEngine` to feed; its executor
        (serial or micro-batch) is used as-is.
    sources:
        The ingest sources; each holds its own watermark until exhausted.
    policy:
        Batch-formation policy (default: size-64 batches with a 50 ms
        latency deadline).
    lateness / late_policy:
        Bounded-lateness knobs of the :class:`WatermarkClock`.
    queue_capacity:
        Bound of the shared arrival queue; full-queue waits are counted as
        ``backpressure_waits`` and slow the sources down (asyncio
        backpressure) instead of buffering without bound.
    reorder_capacity:
        Bound of the watermark clock's reorder buffer (default
        ``4 * queue_capacity``).  A silent source holds the global
        watermark back while others keep arriving; beyond this cap the
        oldest held-back elements are force-released ahead of the
        watermark (best-effort ordering, counted as ``force_released``)
        so memory stays bounded.
    event_time_window:
        Optional event-time window horizon: when set, tuples whose event
        time falls ``event_time_window`` units behind the global watermark
        are retracted from the ER-grid and the entity result set
        (watermark-driven expiry over the existing
        :class:`~repro.core.time_window.TimeBasedWindow` machinery).
    idle_timeout:
        Optional idle-source punctuation in wall-clock seconds: a source
        with no arrival for this long is marked idle on the watermark
        clock and stops holding the global watermark back (a stalled
        ``CallbackSource`` no longer freezes batching, reordering and
        event-time expiry for every other stream).  The source rejoins
        the watermark with its next arrival, which is then subject to the
        normal late policy.  Idle transitions are counted as
        ``idle_timeouts`` on :class:`IngestStats`.
    process_in_executor:
        Run ``engine.process_batch`` on a single worker thread
        (``loop.run_in_executor``) instead of inline on the event loop, so
        paced sources keep producing into the arrival queue while a slow
        refinement runs.  Batches stay strictly sequential (one in flight);
        each off-loop invocation is counted as ``executor_waits`` on
        :class:`IngestStats`.
    checkpoint_path / checkpoint_every_batches:
        Write a JSON checkpoint after every N processed batches (and a
        final one on drain) to ``checkpoint_path``.
    on_batch:
        Optional callback ``on_batch(driver, records)`` invoked after each
        processed batch (tests, live metrics, custom checkpoint triggers).
    controller:
        Optional :class:`~repro.runtime.controller.RuntimeController` to
        run between batches.  The driver adopts it: the controller's
        ``batcher`` is bound to the driver's live batcher (so batch-policy
        retargets act on the real trigger policy) and its
        :meth:`~repro.runtime.controller.RuntimeController.after_batch` is
        invoked after each processed batch — a quiescent point even with
        ``process_in_executor`` (the batch has fully returned).  Runs after
        ``on_batch``.
    collect_matches:
        Accumulate every discovered pair on ``driver.matches`` (the replay
        / testing default).  Disable for indefinitely running drivers —
        the maintained result set (``engine.current_matches()``) and
        ``on_batch`` remain available without unbounded growth.
    """

    def __init__(self, engine, sources: Sequence[Source],
                 policy: Optional[BatchPolicy] = None,
                 lateness: float = 0.0, late_policy: str = LATE_ADMIT,
                 queue_capacity: int = 1024,
                 reorder_capacity: Optional[int] = None,
                 event_time_window: Optional[float] = None,
                 idle_timeout: Optional[float] = None,
                 process_in_executor: bool = False,
                 checkpoint_path=None,
                 checkpoint_every_batches: Optional[int] = None,
                 on_batch: Optional[Callable] = None,
                 controller=None,
                 collect_matches: bool = True) -> None:
        if not sources:
            raise ValueError("IngestDriver needs at least one source")
        names = [source.name for source in sources]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate source names: {names}")
        if queue_capacity <= 0:
            raise ValueError(
                f"queue_capacity must be positive, got {queue_capacity}")
        if reorder_capacity is not None and reorder_capacity <= 0:
            raise ValueError(
                f"reorder_capacity must be positive, got {reorder_capacity}")
        if event_time_window is not None and event_time_window <= 0:
            raise ValueError(
                f"event_time_window must be positive, got {event_time_window}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be positive, got {idle_timeout}")
        if checkpoint_every_batches is not None and checkpoint_every_batches <= 0:
            raise ValueError("checkpoint_every_batches must be positive, "
                             f"got {checkpoint_every_batches}")
        if checkpoint_every_batches is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every_batches requires a "
                             "checkpoint_path to write to")
        self.engine = engine
        self.sources = list(sources)
        self.policy = policy or BatchPolicy(max_batch=64, max_delay=0.05)
        self.queue_capacity = queue_capacity
        self.reorder_capacity = (reorder_capacity if reorder_capacity
                                 is not None else 4 * queue_capacity)
        self.event_time_window = event_time_window
        self.idle_timeout = idle_timeout
        self.process_in_executor = process_in_executor
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every_batches = checkpoint_every_batches
        self.on_batch = on_batch
        self.collect_matches = collect_matches
        self.stats: IngestStats = engine.ctx.ingest
        self.matches: List[MatchPair] = []
        self.batches_processed = 0
        self.tuples_processed = 0
        self._clock = WatermarkClock(lateness=lateness, late_policy=late_policy)
        self._batcher = AdaptiveBatcher(self.policy, self.stats,
                                        queue_depth=self._queue_depth)
        self.controller = controller
        if controller is not None:
            if controller.engine is not engine:
                raise ValueError("controller is attached to a different "
                                 "engine than this driver feeds")
            # Bind the controller to the live batcher so retargets act on
            # the real trigger policy (a controller built standalone has no
            # batcher yet).
            controller.batcher = self._batcher
            if not controller.state.get("target_max_batch"):
                controller.state["target_max_batch"] = self.policy.max_batch
        self._event_window = (TimeBasedWindow(duration=event_time_window)
                              if event_time_window is not None else None)
        self._max_event = -math.inf
        self._queue: Optional[asyncio.Queue] = None
        #: Wall-clock instant of the last arrival per still-open source
        #: (idle-timeout tracking; entries leave on close).
        self._last_arrival: Dict[str, float] = {}
        #: Idleness accrues only while the loop is receptive: an *inline*
        #: ``process_batch`` blocks the event loop, so no source could have
        #: produced during it — the floor advances past such sections so
        #: they never count towards a source's silence.
        self._idle_floor = 0.0
        self._process_pool = None
        self._stopping = False
        self._ran = False
        self._checkpoint_due = False
        self._restored_pending: List[StreamElement] = []

    # -- public API ----------------------------------------------------------
    def run(self) -> IngestReport:
        """Drive every source to exhaustion (blocking asyncio front-end).

        If a source's iterator raises, the driver still drains and
        checkpoints everything already admitted, then re-raises the
        source's exception instead of returning a partial report.
        """
        return asyncio.run(self.run_async())

    def stop(self) -> None:
        """Request a graceful drain: stop pulling from the sources, process
        everything already admitted, flush, checkpoint.

        Call from the event-loop thread (e.g. an ``on_batch`` callback or a
        task on the same loop); from another thread, dispatch it with
        ``loop.call_soon_threadsafe(driver.stop)`` — the arrival queue is a
        plain ``asyncio.Queue`` and is not thread-safe.
        """
        self._stopping = True
        if self._queue is not None:
            try:
                self._queue.put_nowait((_STOP, None))
            except asyncio.QueueFull:
                pass  # the mux is draining the queue; the flag suffices

    async def run_async(self) -> IngestReport:
        if self._ran:
            raise RuntimeError("an IngestDriver is single-use; build a new "
                               "one (restoring a checkpoint) to resume")
        self._ran = True
        loop = asyncio.get_running_loop()
        start = loop.time()
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_capacity)
        self._queue = queue
        for source in self.sources:
            # ``open`` (not ``register``): a restored checkpoint may have
            # recorded this source name closed by its final drain.  A
            # restored *idle* mark is re-applied after the open: the source
            # was silent at the snapshot and must stay off the watermark
            # until it actually emits (its next observe wakes it), instead
            # of stalling the resumed run until the next idle timeout.
            was_idle = self._clock.is_idle(source.name)
            self._clock.open(source.name)
            if was_idle:
                self._clock.mark_idle(source.name)
            self._last_arrival[source.name] = loop.time()
        self._idle_floor = loop.time()
        if self.process_in_executor and self._process_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            # A single worker keeps batches strictly sequential (the
            # engine is not re-entrant); the point is only that the event
            # loop — and with it the paced source readers — stays live
            # while a batch refines.
            self._process_pool = ThreadPoolExecutor(max_workers=1)
        readers = [asyncio.create_task(self._read(source, queue))
                   for source in self.sources]
        open_sources = len(self.sources)
        try:
            return await self._mux(loop, queue, readers, open_sources, start)
        finally:
            # The off-loop worker thread must not outlive the run — also
            # on the exception paths (a raising engine or source).
            if self._process_pool is not None:
                self._process_pool.shutdown()
                self._process_pool = None

    async def _mux(self, loop, queue: asyncio.Queue, readers, open_sources,
                   start: float) -> IngestReport:
        """The mux loop + graceful drain of :meth:`run_async`."""
        try:
            if self._restored_pending:
                # Re-enter the snapshot's batcher-pending elements in their
                # original processing order before any new arrival is
                # *processed* (the readers may already enqueue).
                now = loop.time()
                for element in self._restored_pending:
                    await self._maybe_process(self._batcher.add(element, now))
                self._restored_pending = []
            while open_sources > 0 and not self._stopping:
                now = loop.time()
                timeout = self._next_due(now)
                try:
                    kind, payload = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    now = loop.time()
                    if self._check_idle(now):
                        # An idle mark advances the global watermark, so
                        # held-back elements may release: run a full pump,
                        # not just the trigger poll.
                        await self._pump(now)
                    else:
                        await self._maybe_process(
                            self._batcher.poll(now, self._clock.watermark))
                    self._write_due_checkpoint()
                    continue
                if kind == _STOP:
                    break
                if kind == _CLOSE:
                    self._clock.close(payload)
                    self._last_arrival.pop(payload, None)
                    open_sources -= 1
                else:
                    self._observe(payload)
                self._check_idle(loop.time())
                await self._pump(loop.time())
                # Periodic checkpoints are written here, at a quiescent
                # point: every released element is either processed or in
                # the batcher, so the snapshot (engine state + in-flight
                # elements) is complete even under reordering.
                self._write_due_checkpoint()
        finally:
            for task in readers:
                task.cancel()
            outcomes = await asyncio.gather(*readers, return_exceptions=True)
            # A source whose iterator raised still delivered its close
            # marker (finally), which must not masquerade as a clean
            # exhaustion: remember the failure and surface it after the
            # drain below has secured the already-admitted data.
            source_errors = [
                outcome for outcome in outcomes
                if isinstance(outcome, BaseException)
                and not isinstance(outcome, asyncio.CancelledError)
            ]

        # Graceful drain: everything already admitted to the arrival queue
        # is observed, the reorder buffer is released, and the final
        # partial batch is flushed.
        while True:
            try:
                kind, payload = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if kind == _ITEM:
                self._observe(payload)
            elif kind == _CLOSE:
                self._clock.close(payload)
        now = loop.time()
        for element in self._clock.drain():
            await self._maybe_process(self._batcher.add(element, now))
        await self._maybe_process(self._batcher.flush(now))

        if self.checkpoint_path is not None:
            save_checkpoint(self.checkpoint(), self.checkpoint_path)
        if source_errors:
            raise source_errors[0]
        return IngestReport(
            tuples_processed=self.tuples_processed,
            batches_processed=self.batches_processed,
            matches=self.matches,
            stats=self.stats,
            final_watermark=self._clock.watermark,
            total_seconds=loop.time() - start,
        )

    # -- query-time resolution (interleaved lookups) -------------------------
    def resolve(self, rid: str, source: str, topic=None, gamma=None):
        """Resolve one in-window entity's cluster between batches.

        The on-demand read path over the live window (see
        :mod:`repro.runtime.query`): safe from the event-loop thread — an
        ``on_batch`` callback or a task on the same loop — where lookups
        interleave with batch processing at batch boundaries.  With
        ``process_in_executor`` a batch may be refining *off* the loop
        while this runs; use :meth:`resolve_async` there so the lookup
        serialises behind the in-flight batch instead of racing it.
        """
        return self.engine.resolve(rid, source, topic=topic, gamma=gamma)

    async def resolve_async(self, rid: str, source: str, topic=None,
                            gamma=None):
        """:meth:`resolve`, serialised with off-loop batch processing.

        When the driver processes batches on its single worker thread
        (``process_in_executor``), the lookup is submitted to that same
        thread — batches stay strictly sequential and the lookup observes a
        quiescent engine.  Without the worker thread this is just
        :meth:`resolve`.
        """
        if self._process_pool is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._process_pool,
                lambda: self.engine.resolve(rid, source, topic=topic,
                                            gamma=gamma))
        return self.engine.resolve(rid, source, topic=topic, gamma=gamma)

    def resolve_many(self, entities, topic=None, gamma=None):
        """Resolve a batch of in-window entities between batches.

        One shared frontier expansion serves all of them (see
        :meth:`~repro.core.engine.TERiDSEngine.resolve_many`); same
        threading rules as :meth:`resolve`.
        """
        return self.engine.resolve_many(entities, topic=topic, gamma=gamma)

    async def resolve_many_async(self, entities, topic=None, gamma=None):
        """:meth:`resolve_many`, serialised with off-loop batch processing
        (same single-worker hand-off as :meth:`resolve_async`)."""
        if self._process_pool is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._process_pool,
                lambda: self.engine.resolve_many(entities, topic=topic,
                                                 gamma=gamma))
        return self.engine.resolve_many(entities, topic=topic, gamma=gamma)

    # -- internals -----------------------------------------------------------
    def _queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def _next_due(self, now: float) -> Optional[float]:
        """Seconds until the mux must wake without an arrival: the batcher
        deadline or the next idle-source timeout, whichever comes first."""
        due = self._batcher.time_until_due(now)
        if self.idle_timeout is not None:
            deadlines = [
                max(last, self._idle_floor) + self.idle_timeout - now
                for name, last in self._last_arrival.items()
                if not self._clock.is_idle(name)
            ]
            if deadlines:
                idle_due = max(0.0, min(deadlines))
                due = idle_due if due is None else min(due, idle_due)
        return due

    def _check_idle(self, now: float) -> bool:
        """Mark sources silent for ``idle_timeout`` receptive seconds as idle."""
        if self.idle_timeout is None:
            return False
        marked = False
        for name, last in self._last_arrival.items():
            if (now - max(last, self._idle_floor) >= self.idle_timeout
                    and self._clock.mark_idle(name)):
                self.stats.idle_timeouts += 1
                marked = True
        return marked

    async def _read(self, source: Source, queue: asyncio.Queue) -> None:
        cancelled = False
        loop = asyncio.get_running_loop()
        try:
            async for element in source:
                if self._stopping:
                    break
                # Idle tracking is stamped HERE, at true arrival time: the
                # mux may be busy in a slow ``_process`` for longer than
                # ``idle_timeout``, and a stamp taken at dequeue time would
                # then mark perfectly live sources idle (and release
                # reorder-buffered elements ahead of their queued ones).
                self._last_arrival[source.name] = loop.time()
                if queue.full():
                    self.stats.backpressure_waits += 1
                await queue.put((_ITEM, element))
        except asyncio.CancelledError:
            cancelled = True
            raise
        finally:
            # On normal exhaustion the close marker MUST reach the mux or
            # ``open_sources`` never hits zero and the run hangs, so block
            # until there is room.  After a cancellation (stop/drain) the
            # blocking put would deadlock instead — the cancellation was
            # already delivered, nobody consumes the queue while the mux
            # awaits this task — so skip it: the post-loop drain closes
            # every stream through ``clock.drain`` anyway.
            try:
                queue.put_nowait((_CLOSE, source.name))
            except asyncio.QueueFull:
                if not cancelled:
                    await queue.put((_CLOSE, source.name))

    def _observe(self, element: StreamElement) -> None:
        status = self._clock.observe(element)
        if status == OBSERVED_REORDERED:
            self.stats.reordered += 1
        elif status == OBSERVED_LATE_ADMITTED:
            self.stats.admitted_late += 1
        elif status == OBSERVED_LATE_SHED:
            self.stats.shed_late += 1

    async def _pump(self, now: float) -> None:
        """Move released elements into the batcher; fire due triggers."""
        for element in self._clock.release_ready():
            await self._maybe_process(self._batcher.add(element, now))
        overflow = self._clock.release_overflow(self.reorder_capacity)
        if overflow:
            self.stats.force_released += len(overflow)
            for element in overflow:
                await self._maybe_process(self._batcher.add(element, now))
        await self._maybe_process(self._batcher.poll(now,
                                                     self._clock.watermark))

    async def _maybe_process(self,
                             batch: Optional[List[StreamElement]]) -> None:
        if batch:
            await self._process(batch)

    async def _process(self, batch: List[StreamElement]) -> None:
        records = [element.record for element in batch]
        if self._process_pool is not None:
            # Off-loop processing: the source readers keep filling the
            # arrival queue while the engine refines; batches remain
            # strictly sequential (awaited one at a time).  The readers
            # stamp arrivals throughout, so idle accounting stays live.
            self.stats.executor_waits += 1
            loop = asyncio.get_running_loop()
            batch_matches = await loop.run_in_executor(
                self._process_pool, self.engine.process_batch, records)
        else:
            batch_matches = self.engine.process_batch(records)
            # The inline call blocked the loop: nothing could arrive, so
            # the blocked span must not count towards any source's silence.
            self._idle_floor = asyncio.get_running_loop().time()
        if self.collect_matches:
            self.matches.extend(batch_matches)
        self.batches_processed += 1
        self.tuples_processed += len(records)
        absorbed = self.engine.pipeline.maintenance.absorb_complete_stream_tuples(
            records)
        self.stats.absorbed_samples += absorbed
        if self._event_window is not None:
            self._expire_by_watermark(batch)
        if self.on_batch is not None:
            self.on_batch(self, records)
        if self.controller is not None:
            # A quiescent point even off-loop: the batch above has fully
            # returned.
            self.controller.after_batch(self, records)
        if (self.checkpoint_every_batches is not None
                and self.batches_processed % self.checkpoint_every_batches == 0):
            # Deferred to the mux loop's quiescent point — mid-``_pump``,
            # elements released but not yet handed to the batcher would be
            # missing from the snapshot.
            self._checkpoint_due = True

    def _write_due_checkpoint(self) -> None:
        if self._checkpoint_due and self.checkpoint_path is not None:
            save_checkpoint(self.checkpoint(), self.checkpoint_path)
            ctx = self.engine.ctx
            logger.info(
                "periodic checkpoint: batch_seq=%d trace_id=%s batches=%d "
                "tuples=%d path=%s", ctx.batch_seq, ctx.last_trace_id,
                self.batches_processed, self.tuples_processed,
                self.checkpoint_path)
        self._checkpoint_due = False

    def _expire_by_watermark(self, batch: List[StreamElement]) -> None:
        """Watermark-driven event-time expiry (grid + result-set retraction)."""
        window = self._event_window
        retract = self.engine.pipeline.maintenance.retract
        for element in batch:
            self._max_event = max(self._max_event, element.event_time)
            # Late-admitted elements may sit behind the window clock; they
            # enter at the current edge rather than rewinding time.
            arrival = max(element.event_time, window.current_time)
            self.stats.expired_by_watermark += retract(
                window.insert(element.record, arrival))
        watermark = self._clock.watermark
        if watermark == math.inf:
            # All sources closed: event time stands at the newest observed
            # event, it does not leap to infinity.  (A -inf watermark — a
            # still-silent source — must NOT fall back: that source may
            # yet deliver old events, so the window cannot advance on the
            # other streams' progress.)
            watermark = self._max_event
        if math.isfinite(watermark) and watermark > window.current_time:
            self.stats.expired_by_watermark += retract(
                window.advance_to(watermark))

    # -- checkpoint / restore ------------------------------------------------
    def checkpoint(self) -> Dict:
        """Snapshot the admitted prefix: engine state + in-flight elements.

        ``in_flight`` carries every element admitted from the sources but
        not yet processed — the batcher's pending buffer plus the clock's
        reorder buffer — so nothing is lost even when a periodic checkpoint
        fires while out-of-order tuples are held back.  A resumed run
        restores those and re-feeds the input from the first *unadmitted*
        tuple (``ingest.tuples_admitted`` gives the offset for a replay;
        external producers must re-push anything sent after the snapshot).
        The driver's own periodic checkpoints are taken at quiescent mux
        points; call this yourself only when the driver is not mid-run
        (e.g. after ``run`` returns).
        """
        state = engine_state_to_dict(self.engine.ctx)

        def rows(elements):
            return [[element.event_time, element.origin,
                     record_to_dict(element.record)] for element in elements]

        ingest: Dict = {
            "clock": self._clock.state_to_dict(),
            "tuples_admitted": self._clock.observed_count,
            # Kept separate: the batcher's pending elements preserve their
            # *processing* order (a late-admitted element sits out of event-
            # time order there), while the reorder buffer is event-time
            # sorted.  Restoring both through one sorted pool would reorder
            # the late-admitted ones and diverge from the uninterrupted run.
            "in_flight": {
                "pending": rows(self._batcher.pending_elements()),
                "buffered": rows(self._clock.buffered_elements()),
            },
        }
        if self._event_window is not None:
            ingest["event_window"] = {
                "duration": self._event_window.duration,
                "current_time": self._event_window.current_time,
                "items": [
                    [arrival, record_to_dict(item)]
                    for arrival, item in zip(self._event_window.timestamps(),
                                             self._event_window.items())
                ],
            }
        state["ingest"] = ingest
        return state

    def restore_checkpoint(self, state: Dict) -> None:
        """Rebuild engine + ingest state from a :meth:`checkpoint` snapshot."""
        self.engine.restore_checkpoint(state)
        ingest = state.get("ingest", {})
        self._clock.restore_state(ingest.get("clock", {}))

        def elements(rows):
            return [
                StreamElement(record=record_from_dict(row),
                              event_time=event_time, origin=origin)
                for event_time, origin, row in rows
            ]

        in_flight = ingest.get("in_flight", {})
        # Batcher-pending elements keep their snapshot *processing* order
        # (late-admitted ones sit out of event-time order); they re-enter
        # the batcher directly when the run starts.  Reorder-buffer
        # elements go back to the clock and wait for the watermark.
        self._restored_pending = elements(in_flight.get("pending", []))
        self._clock.restore_buffered(elements(in_flight.get("buffered", [])))
        window_state = ingest.get("event_window")
        if window_state is not None:
            if self._event_window is None:
                raise ValueError(
                    "checkpoint carries an event-time window but this driver "
                    "was built without event_time_window")
            duration = window_state.get("duration")
            if duration is not None and duration != self._event_window.duration:
                # A narrower resumed window would expire restored items on
                # insert *after* the engine restore already re-registered
                # them in the grid/result set — silently stranding them.
                raise ValueError(
                    f"checkpoint event-time window duration {duration} does "
                    f"not match this driver's event_time_window "
                    f"{self._event_window.duration}")
            for arrival, row in window_state.get("items", []):
                item = record_from_dict(row)
                self._event_window.insert(item, arrival)
                self._max_event = max(self._max_event, arrival)
            current = window_state.get("current_time", 0)
            if current > self._event_window.current_time:
                self._event_window.advance_to(current)
