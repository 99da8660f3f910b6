"""The telemetry facade the runtime talks to, and its null twin.

``RuntimeContext.telemetry`` is either :data:`NULL_TELEMETRY` (the
default: every call is a no-op returning a single shared context manager,
so the disabled path costs one attribute load and one method call per
site) or a :class:`Telemetry` instance wiring the metrics registry, the
batch tracer, and the optional slow-batch profiler together.

The invariant that keeps golden bit-identity safe: telemetry only ever
*measures wall clock* and *reads* the existing stat objects at collect
time.  It never increments a pruning counter, never reorders candidates,
never touches any value that participates in the golden comparisons.
"""

from __future__ import annotations

import time
from dataclasses import fields
from typing import Dict, Optional

from .profiler import SlowBatchProfiler
from .registry import (GAUGE, HISTOGRAM, HistogramValue, MetricsRegistry,
                       exponential_buckets)
from .tracing import BatchTrace, Span, Tracer


class _NullScope:
    """The one shared no-op context manager of the disabled plane."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SCOPE = _NullScope()


class NullTelemetry:
    """Disabled telemetry: every call no-ops, nothing is allocated."""

    __slots__ = ()
    enabled = False
    current_trace = None

    def begin_batch(self, batch_seq: int, size: int) -> _NullScope:
        return NULL_SCOPE

    def span(self, name: str) -> _NullScope:
        return NULL_SCOPE

    def observe_resolve(self, seconds: float) -> None:
        return None

    def snapshot(self) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()


class _BatchScope:
    """Scopes one batch: trace lifetime, batch metrics, optional profile."""

    __slots__ = ("_telemetry", "_trace", "_profile_scope", "_start")

    def __init__(self, telemetry: "Telemetry", trace: BatchTrace) -> None:
        self._telemetry = telemetry
        self._trace = trace
        self._profile_scope = None
        self._start = 0.0

    def __enter__(self) -> BatchTrace:
        self._start = time.perf_counter()
        profiler = self._telemetry.profiler
        if profiler is not None:
            self._profile_scope = profiler.profile(self._trace.batch_seq)
            self._profile_scope.__enter__()
        return self._trace

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._profile_scope is not None:
            self._profile_scope.__exit__(exc_type, exc, tb)
        telemetry = self._telemetry
        elapsed = time.perf_counter() - self._start
        telemetry.batch_seconds.observe(elapsed)
        telemetry.batch_tuples.observe(float(self._trace.size))
        telemetry.batches_total.inc()
        telemetry.tracer.end()


class Telemetry:
    """The enabled plane: registry + tracer + optional profiler."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 trace_ring: int = 16, profile_slowest: int = 0) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(ring=trace_ring, on_span=self._on_span)
        self.profiler = (SlowBatchProfiler(top_n=profile_slowest)
                         if profile_slowest > 0 else None)
        reg = self.registry
        self.batches_total = reg.counter(
            "terids_batches_total", "Batches processed by the executor")
        self.batch_seconds = reg.histogram(
            "terids_batch_seconds", "End-to-end wall time per batch")
        self.batch_tuples = reg.histogram(
            "terids_batch_tuples", "Tuples per processed batch",
            buckets=exponential_buckets(1.0, 2.0, 16))
        self.stage_seconds = reg.histogram(
            "terids_stage_seconds",
            "Wall time of pipeline stages per batch",
            labelnames=("stage",))
        self.resolve_seconds = reg.histogram(
            "terids_resolve_seconds",
            "Query-time resolve() / resolve_many() latency per call")

    enabled = True

    # -- batch/trace lifecycle ----------------------------------------------
    def begin_batch(self, batch_seq: int, size: int) -> _BatchScope:
        trace = self.tracer.begin(f"batch-{batch_seq:08d}", batch_seq, size)
        return _BatchScope(self, trace)

    @property
    def current_trace(self) -> Optional[BatchTrace]:
        return self.tracer.current

    def span(self, name: str):
        trace = self.tracer.current
        if trace is None:
            return NULL_SCOPE
        return trace.span(name)

    def _on_span(self, span: Span) -> None:
        if span.name != "batch":
            self.stage_seconds.labels(stage=span.name).observe(span.duration)

    # -- query path ----------------------------------------------------------
    def observe_resolve(self, seconds: float) -> None:
        self.resolve_seconds.observe(seconds)

    # -- export ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "metrics": self.registry.collect(),
            "traces": self.tracer.export(),
        }
        if self.profiler is not None:
            out["profiles"] = self.profiler.as_dicts()
        return out


def bind_context_metrics(registry: MetricsRegistry, ctx) -> None:
    """Bind a ``RuntimeContext``'s stat objects onto ``registry``.

    Everything goes through collect-time closures over ``ctx`` — never
    over the stat objects themselves, because ``ctx.imputer.stats`` is
    *replaced* (not mutated) on checkpoint restore.  (``ctx.pruning.stats``
    is overwritten field by field; the same closures serve both.)
    """
    # Pruning cascade — the Figure-4 counters, labelled by the ``outcome``
    # each ``PruningStats`` field declares.
    for stat in fields(ctx.pruning.stats):
        registry.bind(
            "terids_pruning_pairs_total",
            (lambda a=stat.name: float(getattr(ctx.pruning.stats, a))),
            help="Pruning-cascade pair outcomes (Figure 4 counters)",
            labels={"outcome": stat.metadata["outcome"]})

    # Imputation.
    for attr in ctx.imputer.stats.as_dict():
        registry.bind(
            "terids_imputation_events_total",
            (lambda a=attr: float(getattr(ctx.imputer.stats, a))),
            help="Imputation event counts by kind",
            labels={"kind": attr})

    # Ingest: scalars as counters, depth as gauges, triggers fanned out,
    # the formation-latency histogram bound live.
    for attr in ctx.ingest._SCALARS:
        if attr == "max_queue_depth":  # a high-water mark: the gauge below
            continue
        registry.bind(
            "terids_ingest_events_total",
            (lambda a=attr: float(getattr(ctx.ingest, a))),
            help="Ingest driver event counts by kind",
            labels={"kind": attr})
    registry.bind(
        "terids_ingest_max_queue_depth",
        lambda: float(ctx.ingest.max_queue_depth),
        help="High-water mark of the bounded arrival queue", kind=GAUGE)
    registry.bind(
        "terids_ingest_queue_depth",
        lambda: float(ctx.ingest.queue_depths[-1]
                      if ctx.ingest.queue_depths else 0),
        help="Arrival-queue depth at the most recent batch", kind=GAUGE)
    registry.bind_multi(
        "terids_ingest_batches_total", "trigger",
        lambda: dict(ctx.ingest.triggers),
        help="Batches formed, by release trigger")
    registry.bind(
        "terids_ingest_formation_seconds",
        lambda: ctx.ingest.formation,
        help="Batch formation latency", kind=HISTOGRAM)

    # Query-time resolution.
    for attr in ("resolves", "frontier_expansions"):
        registry.bind(
            "terids_query_events_total",
            (lambda a=attr: float(getattr(ctx.query, a))),
            help="Query-time resolve() counts by kind",
            labels={"kind": attr})

    # Stage wall-clock totals (the StageTimer the benches already read).
    registry.bind_multi(
        "terids_stage_wall_seconds_total", "stage",
        lambda: dict(ctx.timer.totals),
        help="Cumulative wall seconds per pipeline stage")
    registry.bind_multi(
        "terids_stage_invocations_total", "stage",
        lambda: dict(ctx.timer.counts),
        help="Cumulative invocations per pipeline stage")

    # ER-grid scan counters.
    registry.bind(
        "terids_grid_cells_examined_total",
        lambda: float(ctx.grid.cells_examined),
        help="ER-grid cells examined during candidate lookup")
    registry.bind(
        "terids_grid_tuples_examined_total",
        lambda: float(ctx.grid.tuples_examined),
        help="ER-grid tuples examined during candidate lookup")

    # Token vocabulary of the grid's packed store: bounded by the resident
    # rows, re-encoded once it has doubled (0 while no store is enabled).
    registry.bind(
        "terids_packed_store_vocabulary_size",
        lambda: float(len(ctx.grid.packed_store.vocabulary)
                      if ctx.grid.packed_store is not None else 0),
        help="Tokens in the packed store's token -> id vocabulary",
        kind=GAUGE)

    # DR-index work by path: which of the two answered imputation probes.
    registry.bind(
        "terids_dr_index_nodes_visited_total",
        lambda: float(ctx.dr_index.nodes_visited),
        help="aR-tree nodes visited by DR-index candidate_samples "
             "(scalar path)")
    registry.bind(
        "terids_dr_index_packed_probes_total",
        lambda: float(ctx.dr_index.packed_probes),
        help="DR-index probes answered from the packed repository mirror")

    # Rule-install dispatch (skip / rebuild).
    for attr, outcome in (("installs_skipped", "skipped"),
                          ("installs_rebuilt", "rebuilt")):
        registry.bind(
            "terids_rule_installs_total",
            (lambda a=attr: float(getattr(ctx, a))),
            help="Rule-install dispatch outcomes",
            labels={"outcome": outcome})

    # Batch sequencing.
    registry.bind(
        "terids_batch_seq", lambda: float(ctx.batch_seq),
        help="Monotonic batch sequence number (survives checkpoints)",
        kind=GAUGE)
    registry.bind(
        "terids_timestamps_processed", lambda: float(ctx.timestamps_processed),
        help="Stream timestamps processed so far", kind=GAUGE)
