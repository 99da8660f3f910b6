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
from functools import partial
from operator import attrgetter
from typing import Deque, Dict, Iterator, List, Optional, Tuple

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
from repro.obs.registry import COUNTER, GAUGE, HISTOGRAM, HistogramValue
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
    #: All-zero stubs, not counters: there is no result cache any more.
    #: Kept only because the frozen end-to-end benchmark reads these three
    #: attributes off ``ctx.query`` (``benchmarks/e2e/layers.py``, the
    #: ``runtime.query.*`` rows); they go when a ``benchmark`` issue drops
    #: those rows.
    cache_hits = 0
    cache_misses = 0
    cache_invalidations = 0


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
    #: Complete stream tuples absorbed into the repository (gated growth).
    absorbed_samples: int = 0
    #: Batch-formation trigger counts (``size`` / ``deadline`` / ``drain``).
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

    @property
    def queue_depth(self) -> int:
        """Arrival-queue depth at the most recent batch (0 before any)."""
        return self.queue_depths[-1] if self.queue_depths else 0


#: Kind of a counter row whose value is a ``{key: count}`` dict, exported
#: as one registry series per key under its family's label.
MAP = "map"


@dataclass(frozen=True)
class Counter:
    """One runtime counter, declared once for all three readers.

    ``path`` is its attribute path from the :class:`RuntimeContext`;
    ``checkpoint`` and ``snapshot`` its dotted keys in the checkpoint state
    and in :meth:`RuntimeContext.metrics_snapshot` (``None``: absent), a key
    ending in ``.`` being completed by the attribute name; ``family`` its
    registry family and ``label`` its value of the family's label, if the
    family has one (default: the attribute name).
    """

    path: str
    checkpoint: Optional[str]
    snapshot: Optional[str]
    family: str
    label: Optional[str] = None
    kind: str = COUNTER

    def __post_init__(self) -> None:
        name = self.path.rpartition(".")[2]
        for key in ("checkpoint", "snapshot"):
            value = getattr(self, key)
            if value is not None and value.endswith("."):
                object.__setattr__(self, key, value + name)
        if self.label is None:
            object.__setattr__(self, "label", name)

    def read(self, ctx: "RuntimeContext"):
        value = attrgetter(self.path)(ctx)
        return dict(value) if self.kind == MAP else value

    def write(self, ctx: "RuntimeContext", value) -> None:
        holder, _, name = self.path.rpartition(".")
        setattr(attrgetter(holder)(ctx) if holder else ctx, name,
                dict(value) if self.kind == MAP else value)


#: ``(checkpoint section, snapshot group, family)`` of a stat holder's
#: counters, spliced into each of its rows below.
_PRUNING = ("pruning_stats.", "pruning.", "terids_pruning_pairs_total")
_IMPUTATION = ("imputation_stats.", "imputation.",
               "terids_imputation_events_total")
_INGEST = ("ingest_stats.", "ingest.", "terids_ingest_events_total")
_QUERY = ("query_stats.", "query.", "terids_query_events_total")

#: Registry families of the rows below, in exposition order:
#: ``(label name, help)``.
FAMILIES: Dict[str, Tuple[Optional[str], str]] = {
    "terids_pruning_pairs_total": (
        "outcome", "Pruning-cascade pair outcomes (Figure 4 counters)"),
    "terids_imputation_events_total": (
        "kind", "Imputation event counts by kind"),
    "terids_ingest_events_total": (
        "kind", "Ingest driver event counts by kind"),
    "terids_ingest_max_queue_depth": (
        None, "High-water mark of the bounded arrival queue"),
    "terids_ingest_queue_depth": (
        None, "Arrival-queue depth at the most recent batch"),
    "terids_ingest_batches_total": (
        "trigger", "Batches formed, by release trigger"),
    "terids_ingest_formation_seconds": (None, "Batch formation latency"),
    "terids_query_events_total": (
        "kind", "Query-time resolve() counts by kind"),
    "terids_stage_wall_seconds_total": (
        "stage", "Cumulative wall seconds per pipeline stage"),
    "terids_stage_invocations_total": (
        "stage", "Cumulative invocations per pipeline stage"),
    "terids_grid_cells_examined_total": (
        None, "ER-grid cells examined during candidate lookup"),
    "terids_grid_tuples_examined_total": (
        None, "ER-grid tuples examined during candidate lookup"),
    "terids_packed_store_vocabulary_size": (
        None, "Tokens in the packed store's token -> id vocabulary"),
    "terids_dr_index_nodes_visited_total": (
        None, "aR-tree nodes visited by DR-index candidate_samples "
              "(scalar path)"),
    "terids_dr_index_packed_probes_total": (
        None, "DR-index probes answered from the packed repository mirror"),
    "terids_rule_installs_total": ("outcome", "Rule-install dispatch outcomes"),
    "terids_batch_seq": (
        None, "Monotonic batch sequence number (survives checkpoints)"),
    "terids_timestamps_processed": (None, "Stream timestamps processed so far"),
}

#: Every runtime counter, read by the checkpoint
#: (:mod:`repro.runtime.checkpoint`), :meth:`RuntimeContext.metrics_snapshot`
#: and the metrics registry (:func:`repro.obs.telemetry.bind_context_metrics`).
#: Rows are in checkpoint order: a section sits where its first row does.
COUNTERS: Tuple[Counter, ...] = (
    # The pruning cascade: Figure 4's pruning power.
    Counter("pruning.stats.pairs_considered", *_PRUNING, "considered"),
    Counter("pruning.stats.pruned_by_topic", *_PRUNING, "topic"),
    Counter("pruning.stats.pruned_by_similarity", *_PRUNING, "similarity"),
    Counter("pruning.stats.pruned_by_probability", *_PRUNING, "probability"),
    Counter("pruning.stats.pruned_by_instance", *_PRUNING, "instance"),
    Counter("pruning.stats.refined_matches", *_PRUNING, "refined_match"),
    Counter("pruning.stats.refined_non_matches", *_PRUNING,
            "refined_non_match"),
    Counter("imputer.stats.records_imputed", *_IMPUTATION),
    Counter("imputer.stats.attributes_imputed", *_IMPUTATION),
    Counter("imputer.stats.attributes_unimputable", *_IMPUTATION),
    Counter("imputer.stats.rules_considered", *_IMPUTATION),
    Counter("imputer.stats.rules_applied", *_IMPUTATION),
    Counter("imputer.stats.samples_scanned", *_IMPUTATION),
    Counter("imputer.stats.samples_matched", *_IMPUTATION),
    Counter("imputer.stats.candidate_values", *_IMPUTATION),
    # The stage timer: Figure 6's break-up cost.
    Counter("timer.totals", "timer.", "stage_seconds",
            "terids_stage_wall_seconds_total", kind=MAP),
    Counter("timer.counts", "timer.", "stage_counts",
            "terids_stage_invocations_total", kind=MAP),
    # ER-grid candidate lookup.
    Counter("grid.cells_examined", "grid_counters.", "grid.",
            "terids_grid_cells_examined_total"),
    Counter("grid.tuples_examined", "grid_counters.", "grid.",
            "terids_grid_tuples_examined_total"),
    # The ingest driver (zero unless an IngestDriver feeds this context).
    Counter("ingest.tuples_ingested", *_INGEST),
    Counter("ingest.batches_formed", *_INGEST),
    Counter("ingest.reordered", *_INGEST),
    Counter("ingest.force_released", *_INGEST),
    Counter("ingest.admitted_late", *_INGEST),
    Counter("ingest.shed_late", *_INGEST),
    Counter("ingest.backpressure_waits", *_INGEST),
    Counter("ingest.max_queue_depth", "ingest_stats.", "ingest.",
            "terids_ingest_max_queue_depth", kind=GAUGE),
    Counter("ingest.idle_timeouts", *_INGEST),
    Counter("ingest.absorbed_samples", *_INGEST),
    Counter("ingest.triggers", "ingest_stats.", "ingest.",
            "terids_ingest_batches_total", kind=MAP),
    # Per-batch series: process-local, a restore starts them empty.
    Counter("ingest.formation", None, None,
            "terids_ingest_formation_seconds", kind=HISTOGRAM),
    Counter("ingest.queue_depth", None, None, "terids_ingest_queue_depth",
            kind=GAUGE),
    Counter("query.resolves", *_QUERY),
    Counter("query.frontier_expansions", *_QUERY),
    # Sequencing: the batch sequence seeds trace ids; the engine clock is
    # checkpointed by hand, ahead of the windows it stamps.
    Counter("batch_seq", "telemetry.", "batch_seq", "terids_batch_seq",
            kind=GAUGE),
    Counter("timestamps_processed", None, "timestamps_processed",
            "terids_timestamps_processed", kind=GAUGE),
    # Rule installs: value-identical lists skip, anything else rebuilds.
    Counter("installs_skipped", "rule_installs.", "rule_installs.skipped",
            "terids_rule_installs_total", "skipped"),
    Counter("installs_rebuilt", "rule_installs.", "rule_installs.rebuilt",
            "terids_rule_installs_total", "rebuilt"),
    # DR-index work by path: which of the two answered imputation probes.
    Counter("dr_index.nodes_visited", "dr_index.", "dr_index.",
            "terids_dr_index_nodes_visited_total"),
    Counter("dr_index.packed_probes", "dr_index.", "dr_index.",
            "terids_dr_index_packed_probes_total"),
    Counter("grid.vocabulary_size", None, None,
            "terids_packed_store_vocabulary_size", kind=GAUGE),
)


def put_key(tree: Dict, key: str, value) -> None:
    """Set ``tree[key]``, or ``tree[section][name]`` for ``"section.name"``."""
    section, _, name = key.rpartition(".")
    (tree.setdefault(section, {}) if section else tree)[name] = value


def get_key(tree: Dict, key: str, default):
    """The value :func:`put_key` set under ``key``, or ``default``."""
    section, _, name = key.rpartition(".")
    return (tree.get(section, {}) if section else tree).get(name, default)


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

    def metric_bindings(self) -> Iterator[Tuple]:
        """``(family, kind, help, label name, label value, read)`` for every
        :data:`COUNTERS` row, family by family in :data:`FAMILIES` order,
        read through this context at collect time.  A labelled row without
        a label value is a ``{key: count}`` dict, one series per key."""
        for family, (label, help) in FAMILIES.items():
            for row in COUNTERS:
                if row.family == family:
                    read = partial(attrgetter(row.path), self)
                    if row.kind == MAP:
                        yield family, COUNTER, help, label, None, read
                    else:
                        yield family, row.kind, help, label, row.label, read

    def disable_telemetry(self) -> None:
        """Back to the null plane (recorded traces/metrics are dropped)."""
        self.telemetry = NULL_TELEMETRY

    def metrics_snapshot(self) -> Dict:
        """JSON-safe snapshot of every measured signal of this context.

        Always available — every :data:`COUNTERS` row with a snapshot key
        comes straight off the context — and enriched with the
        registry/traces/profiles when the telemetry plane is enabled.
        """
        snapshot: Dict = {"last_trace_id": self.last_trace_id,
                          "matches": len(self.result_set),
                          "telemetry_enabled": bool(self.telemetry.enabled)}
        for row in COUNTERS:
            if row.snapshot is not None:
                put_key(snapshot, row.snapshot, row.read(self))
        detail = self.telemetry.snapshot()
        if detail is not None:
            snapshot.update(detail)
        return snapshot
