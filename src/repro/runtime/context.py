"""Shared mutable state of the staged TER-iDS runtime.

The :class:`RuntimeContext` owns everything the online operator reads or
writes — the offline substrates built in the pre-computation phase (pivot
table, CDD rules and indexes, DR-index, imputer) and the online state
(per-stream sliding windows, ER-grid, entity result set, pruning pipeline,
stage timer, timestamp counter).  Stages receive the context at construction
time and mutate it; executors schedule stages; the
:class:`~repro.core.engine.TERiDSEngine` facade exposes the context's fields
under their historical attribute names.

Keeping the state in one object (instead of scattered over the engine) is
what makes checkpoint/restore and alternative executors possible without the
engine knowing about either.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.core.config import TERiDSConfig
from repro.core.matching import EntityResultSet
from repro.core.pruning import PruningPipeline
from repro.core.stream import SlidingWindow
from repro.core.tuples import Schema
from repro.imputation.cdd import CDDDiscoveryConfig, CDDRule
from repro.imputation.imputer import CDDImputer
from repro.imputation.repository import DataRepository
from repro.indexes.cdd_index import CDDIndex, build_cdd_indexes
from repro.indexes.dr_index import DRIndex
from repro.indexes.er_grid import ERGrid
from repro.indexes.pivots import PivotTable
from repro.metrics.timing import StageTimer
from repro.obs.registry import HistogramValue
from repro.obs.telemetry import NULL_TELEMETRY


@dataclass(frozen=True)
class TransportStats:
    """All-zero stub: nothing is shipped between processes any more.

    Kept only because the frozen end-to-end benchmark reads these three
    fields off ``ctx.transport`` (``benchmarks/e2e/layers.py``, the
    ``runtime.workers.*`` rows); it goes when a ``benchmark`` issue drops
    those rows.
    """

    bytes_shipped: int = 0
    orders_shipped: int = 0
    backfills: int = 0


@dataclass
class QueryStats:
    """Query-time resolution accounting (see :mod:`repro.runtime.query`).

    Maintained by the :class:`~repro.runtime.query.QueryResolver` next to
    the ingest stats.  Lives on the runtime context so the counters ride in
    checkpoints and survive a drain/resume cycle.
    """

    #: Entities resolved (one per distinct seed of a call).
    resolves: int = 0
    #: Frontier records expanded across all resolves — the query-time
    #: analogue of the grid's ``tuples_examined``.
    frontier_expansions: int = 0
    #: All-zero stubs: there is no result cache any more.  Kept only because
    #: the frozen end-to-end benchmark reads these three attributes off
    #: ``ctx.query`` (``benchmarks/e2e/layers.py``, the ``runtime.query.*``
    #: rows); they go when a ``benchmark`` issue drops those rows.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0

    _SCALARS = ("resolves", "frontier_expansions")

    def as_dict(self) -> Dict:
        return {name: getattr(self, name) for name in self._SCALARS}

    def restore(self, state: Dict) -> None:
        for name in self._SCALARS:
            setattr(self, name, state.get(name, 0))


#: Retained per-batch sample count of the ingest series (latency / depth).
INGEST_SERIES_WINDOW = 4096


@dataclass
class IngestStats:
    """Arrival/backpressure accounting of the async ingestion front-end.

    Maintained by :class:`~repro.ingest.driver.IngestDriver` (the asyncio
    ingestion subsystem) so operators can watch batch formation, queue depth
    and lateness handling in one place.  Lives on the runtime context — not
    on the driver — so the counters ride in checkpoints and survive a
    drain/resume cycle.
    """

    tuples_ingested: int = 0
    batches_formed: int = 0
    #: Out-of-order arrivals held back by the watermark clock's reorder
    #: buffer (event time behind the stream's high mark, within lateness).
    reordered: int = 0
    #: Elements released ahead of the watermark because the reorder buffer
    #: hit its capacity (a stalled source was holding the watermark back).
    force_released: int = 0
    #: Arrivals behind the per-stream watermark, by late policy.
    admitted_late: int = 0
    shed_late: int = 0
    #: Times a source reader found the arrival queue full and had to wait.
    backpressure_waits: int = 0
    max_queue_depth: int = 0
    #: Times a silent source was marked idle after ``idle_timeout`` seconds
    #: without an arrival, releasing its hold on the global watermark.
    idle_timeouts: int = 0
    #: ``process_batch`` invocations awaited off the event loop (the
    #: ``process_in_executor`` driver flag), during which the source
    #: readers kept filling the arrival queue.
    executor_waits: int = 0
    #: Complete stream tuples absorbed into the repository (gated growth).
    absorbed_samples: int = 0
    #: Tuples retracted from grid/result set by watermark-driven expiry.
    expired_by_watermark: int = 0
    #: Batch-formation trigger counts (``size`` / ``deadline`` /
    #: ``watermark`` / ``drain``).
    triggers: Dict[str, int] = field(default_factory=dict)
    #: Per-batch formation latency (seconds from first enqueue to emit) as
    #: a full histogram — exponential buckets plus a sample ring bounded to
    #: the most recent ``INGEST_SERIES_WINDOW`` batches, serving exact
    #: p50/p95/p99 quantiles — and arrival-queue depth sampled at emit
    #: time.  Bounded so an indefinitely running driver does not accrue
    #: unbounded memory; the scalar counters above remain lifetime totals.
    formation: HistogramValue = field(
        default_factory=lambda: HistogramValue(
            sample_window=INGEST_SERIES_WINDOW,
            quantiles=(0.5, 0.95, 0.99)))
    queue_depths: Deque[int] = field(
        default_factory=lambda: deque(maxlen=INGEST_SERIES_WINDOW))

    @property
    def formation_latencies(self) -> Deque[float]:
        """The retained formation-latency samples (compatibility view of
        the histogram's sample ring)."""
        return self.formation.samples

    def record_batch(self, size: int, latency: float, queue_depth: int,
                     trigger: str) -> None:
        self.batches_formed += 1
        self.tuples_ingested += size
        self.formation.observe(latency)
        self.queue_depths.append(queue_depth)
        self.max_queue_depth = max(self.max_queue_depth, queue_depth)
        self.triggers[trigger] = self.triggers.get(trigger, 0) + 1

    def p95_formation_latency(self) -> float:
        """95th-percentile batch-formation latency in seconds (0 when
        empty), over the retained window of recent batches."""
        return self.formation.quantile(0.95)

    _SCALARS = ("tuples_ingested", "batches_formed", "reordered",
                "force_released", "admitted_late", "shed_late",
                "backpressure_waits", "max_queue_depth", "idle_timeouts",
                "executor_waits", "absorbed_samples", "expired_by_watermark")

    def as_dict(self) -> Dict:
        """Checkpointable summary (scalar counters + trigger counts)."""
        state = {name: getattr(self, name) for name in self._SCALARS}
        state["triggers"] = dict(self.triggers)
        return state

    def restore(self, state: Dict) -> None:
        for name in self._SCALARS:
            setattr(self, name, state.get(name, 0))
        self.triggers = dict(state.get("triggers", {}))
        self.formation.reset()
        self.queue_depths.clear()

    def reset(self) -> None:
        self.restore({})


@dataclass
class RuntimeContext:
    """All state shared by the pipeline stages of one TER-iDS operator."""

    config: TERiDSConfig
    repository: DataRepository
    pivots: PivotTable
    rules: List[CDDRule]
    cdd_indexes: Dict[str, CDDIndex]
    dr_index: DRIndex
    grid: ERGrid
    imputer: CDDImputer
    windows: Dict[str, SlidingWindow] = field(default_factory=dict)
    result_set: EntityResultSet = field(default_factory=EntityResultSet)
    pruning: Optional[PruningPipeline] = None
    timer: StageTimer = field(default_factory=StageTimer)
    timestamps_processed: int = 0
    #: Rule-mining knobs used for exact re-mines of the evolving repository;
    #: the maintenance stage reads them when asked to re-mine.
    discovery_config: Optional[CDDDiscoveryConfig] = None
    #: See :class:`TransportStats`: an all-zero stub the benchmark reads.
    transport: TransportStats = TransportStats()
    #: Arrival/backpressure accounting of the async ingestion front-end
    #: (see :class:`IngestStats`); zero unless an ``IngestDriver`` feeds
    #: this context.
    ingest: IngestStats = field(default_factory=IngestStats)
    #: Query-time resolution accounting (see :class:`QueryStats`); zero
    #: unless a ``QueryResolver`` serves lookups over this context.
    query: QueryStats = field(default_factory=QueryStats)
    #: Rule-installation accounting: installs skipped because the incoming
    #: rule list was value-identical, and installs that rebuilt the
    #: CDD-indexes.
    installs_skipped: int = 0
    installs_rebuilt: int = 0
    #: The telemetry plane (see :mod:`repro.obs`): :data:`NULL_TELEMETRY`
    #: until :meth:`enable_telemetry` swaps in a live recorder.  Not a
    #: typed field on purpose — the null object and the live plane share
    #: only the recording protocol.
    telemetry: object = field(default=NULL_TELEMETRY, repr=False)
    #: Monotonic batch sequence number.  Advances on every executor batch
    #: regardless of telemetry state, rides in checkpoint metadata, and
    #: seeds the per-batch trace ids — so a restored run's traces correlate
    #: with its pre-checkpoint history instead of restarting at zero.
    batch_seq: int = 0
    #: Trace id of the most recently started batch (``None`` while
    #: telemetry has never been enabled).
    last_trace_id: Optional[str] = None
    #: Live state of the runtime controller steering this context's
    #: executor (see :mod:`repro.runtime.controller`): a plain JSON-safe
    #: dict (mode, batch-size target, decision counters) so
    #: checkpoints and the metrics registry reach it through the context
    #: without importing the controller.  ``None`` until one attaches.
    controller_state: Optional[Dict] = None

    def __post_init__(self) -> None:
        if self.pruning is None:
            config = self.config
            self.pruning = PruningPipeline(
                keywords=config.keywords,
                gamma=config.gamma,
                alpha=config.alpha,
                use_topic=config.use_topic_pruning,
                use_similarity=config.use_similarity_pruning,
                use_probability=config.use_probability_pruning,
                use_instance=config.use_instance_pruning,
            )

    @property
    def schema(self) -> Schema:
        return self.config.schema

    def install_rules(self, rules: List[CDDRule]) -> None:
        """Swap a new CDD rule set into the runtime (indexes + imputer).

        The single authority for rule installation: an exact re-mine of the
        evolving repository (``MaintenanceStage``) routes through it.  The
        imputer object is kept (statistics, candidate cache and DR-index
        retriever survive); only the rule grouping and the per-attribute
        CDD-indexes change.  A value-identical rule list short-circuits to
        a no-op; anything else rebuilds the indexes.
        """
        rules = list(rules)
        if rules == self.rules:
            self.installs_skipped += 1
            return
        self.cdd_indexes = build_cdd_indexes(rules, self.schema, self.pivots)
        self.installs_rebuilt += 1
        self.rules = rules
        self.imputer.set_rules(self.rules)

    def window_for(self, source: str) -> SlidingWindow:
        """The sliding window of one stream, created on first use."""
        window = self.windows.get(source)
        if window is None:
            window = SlidingWindow(capacity=self.config.window_size)
            self.windows[source] = window
        return window

    def clear_online_state(self) -> None:
        """Drop every window, grid entry and reported pair (keep substrates)."""
        self.windows.clear()
        self.result_set.clear()
        grid = self.grid
        for synopsis in grid.synopses():
            grid.remove(synopsis.rid, synopsis.source)
        self.timestamps_processed = 0

    # -- telemetry -----------------------------------------------------------
    def begin_batch(self, size: int):
        """Advance ``batch_seq`` and open this batch's telemetry scope.

        Executors wrap each batch in ``with ctx.begin_batch(len(records)):``.
        The sequence number always advances (it is checkpoint metadata,
        not telemetry); with telemetry disabled the returned scope is the
        shared no-op context manager, so the disabled path allocates
        nothing.
        """
        self.batch_seq += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            scope = telemetry.begin_batch(self.batch_seq, size)
            self.last_trace_id = telemetry.current_trace.trace_id
            return scope
        from repro.obs.telemetry import NULL_SCOPE
        return NULL_SCOPE

    def enable_telemetry(self, registry=None, trace_ring: int = 16,
                         profile_slowest: int = 0):
        """Swap the live telemetry plane in (idempotent-ish: re-enabling
        builds a fresh plane) and bind every stat object onto its registry.

        Returns the :class:`~repro.obs.telemetry.Telemetry` instance so
        callers can reach the registry/tracer/profiler directly.
        """
        from repro.obs.telemetry import Telemetry, bind_context_metrics

        telemetry = Telemetry(registry=registry, trace_ring=trace_ring,
                              profile_slowest=profile_slowest)
        bind_context_metrics(telemetry.registry, self)
        self.telemetry = telemetry
        return telemetry

    def disable_telemetry(self) -> None:
        """Back to the null plane (recorded traces/metrics are dropped)."""
        self.telemetry = NULL_TELEMETRY

    def metrics_snapshot(self) -> Dict:
        """JSON-safe snapshot of every measured signal of this context.

        Always available — stats, timers and sequencing come straight off
        the context — and enriched with the registry/traces/profiles when
        the telemetry plane is enabled.
        """
        snapshot: Dict = {
            "batch_seq": self.batch_seq,
            "last_trace_id": self.last_trace_id,
            "timestamps_processed": self.timestamps_processed,
            "matches": len(self.result_set),
            "pruning": self.pruning.stats.as_dict(),
            "imputation": self.imputer.stats.as_dict(),
            "ingest": self.ingest.as_dict(),
            "query": self.query.as_dict(),
            "grid": {"cells_examined": self.grid.cells_examined,
                     "tuples_examined": self.grid.tuples_examined},
            "rule_installs": {"skipped": self.installs_skipped,
                              "rebuilt": self.installs_rebuilt},
            "stage_seconds": dict(self.timer.totals),
            "stage_counts": dict(self.timer.counts),
            "telemetry_enabled": bool(self.telemetry.enabled),
        }
        detail = self.telemetry.snapshot()
        if detail is not None:
            snapshot.update(detail)
        return snapshot
