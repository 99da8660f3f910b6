"""Where the tracer wraps the program, and the per-layer metrics read there.

One entry per layer boundary; the layer is named after the module that owns
the work.  Counts come from hooks at the same boundary or from the public
stat objects on the runtime context (``ctx.pruning.stats``,
``ctx.imputer.stats``, ``ctx.ingest``, ``ctx.query``, ``ctx.transport``,
``ctx.grid``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import repro.core.engine as engine_module
import repro.runtime.evaluation as evaluation_module
import repro.runtime.executors as executors_module
from repro import EntityResultSet, TERiDSEngine, WatermarkClock
from repro.indexes import DRIndex
from repro.ingest import AdaptiveBatcher
from repro.runtime.stages import (
    CandidateLookupStage,
    ImputationStage,
    MaintenanceStage,
    RuleSelectionStage,
    SynopsisStage,
)

from percentiles import percentile
from tracer import LayerTotals, Tracer

CLOCK = "ingest.clock"
BATCHER = "ingest.batcher"
EXECUTORS = "runtime.executors"
CDD_INDEX = "indexes.cdd_index"
IMPUTER = "imputation.imputer"
DR_INDEX = "indexes.dr_index"
SYNOPSIS = "core.pruning.synopsis"
LOOKUP = "indexes.er_grid.lookup"
MAINTAIN = "indexes.er_grid.maintain"
CASCADE = "core.pruning.cascade"
REFINE = "runtime.evaluation.refine"
MATCHING = "core.matching"
QUERY = "runtime.query"
DRIVER = "ingest.driver"

#: Set-up layers: the four pre-computation steps of the engine constructor.
SETUP_LAYERS = ("setup.pivots", "setup.rule_mining", "setup.cdd_index",
                "setup.dr_index")
#: Run-time layers in dataflow order (the rows of the layer table).
RUN_LAYERS = (CLOCK, BATCHER, EXECUTORS, CDD_INDEX, IMPUTER, DR_INDEX,
              SYNOPSIS, LOOKUP, MAINTAIN, CASCADE, REFINE, MATCHING, QUERY)

#: Figure 6's three columns as sums of layer rows (busy time, children in).
BREAKUP_ROWS = {
    "cdd_selection": (CDD_INDEX,),
    "imputation": (IMPUTER, SYNOPSIS),
    "entity_resolution": (LOOKUP, MAINTAIN, REFINE, MATCHING),
}

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("setup.pivots_s", "s", "lower"),
    ("setup.rule_mining_s", "s", "lower"),
    ("setup.cdd_index_s", "s", "lower"),
    ("setup.dr_index_s", "s", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("ingest.clock.busy_s", "s", "lower"),
    ("ingest.clock.observed", "count", "higher"),
    ("ingest.clock.reordered", "count", "lower"),
    ("ingest.clock.admitted_late", "count", "lower"),
    ("ingest.clock.shed_late", "count", "lower"),
    ("ingest.clock.force_released", "count", "lower"),
    ("ingest.clock.hold_p50_ms", "ms", "lower"),
    ("ingest.batcher.busy_s", "s", "lower"),
    ("ingest.batcher.batches", "count", "lower"),
    ("ingest.batcher.mean_batch", "count", "higher"),
    ("ingest.batcher.trigger_size", "count", "higher"),
    ("ingest.batcher.trigger_deadline", "count", "lower"),
    ("ingest.batcher.trigger_drain", "count", "lower"),
    ("ingest.batcher.formation_p50_ms", "ms", "lower"),
    ("ingest.driver.wait_p50_ms", "ms", "lower"),
    ("ingest.driver.wait_p99_ms", "ms", "lower"),
    ("ingest.driver.self_s", "s", "lower"),
    ("ingest.driver.max_queue_depth", "count", "lower"),
    ("ingest.driver.backpressure_waits", "count", "lower"),
    ("ingest.driver.backlog_end", "count", "lower"),
    ("runtime.executors.calls", "count", "lower"),
    ("runtime.executors.busy_s", "s", "lower"),
    ("runtime.executors.self_s", "s", "lower"),
    ("runtime.executors.service_p50_ms", "ms", "lower"),
    ("runtime.executors.service_p99_ms", "ms", "lower"),
    ("indexes.cdd_index.busy_s", "s", "lower"),
    ("indexes.cdd_index.tuples", "count", "higher"),
    ("indexes.cdd_index.rules_returned", "count", "lower"),
    ("imputation.imputer.busy_s", "s", "lower"),
    ("imputation.imputer.self_s", "s", "lower"),
    ("imputation.imputer.attributes_imputed", "count", "higher"),
    ("imputation.imputer.attributes_unimputable", "count", "lower"),
    ("imputation.imputer.samples_scanned", "count", "lower"),
    ("imputation.imputer.samples_matched", "count", "higher"),
    ("imputation.imputer.match_ratio", "ratio", "higher"),
    ("indexes.dr_index.busy_s", "s", "lower"),
    ("indexes.dr_index.calls", "count", "lower"),
    ("indexes.dr_index.samples_returned", "count", "lower"),
    ("core.pruning.synopsis.busy_s", "s", "lower"),
    ("indexes.er_grid.lookup.busy_s", "s", "lower"),
    ("indexes.er_grid.lookup.calls", "count", "lower"),
    ("indexes.er_grid.lookup.candidates", "count", "lower"),
    ("indexes.er_grid.lookup.cells_examined", "count", "lower"),
    ("indexes.er_grid.lookup.tuples_examined", "count", "lower"),
    ("indexes.er_grid.maintain.busy_s", "s", "lower"),
    ("indexes.er_grid.maintain.inserts", "count", "lower"),
    ("indexes.er_grid.maintain.evictions", "count", "lower"),
    ("core.pruning.cascade.busy_s", "s", "lower"),
    ("core.pruning.cascade.pairs_in", "count", "lower"),
    ("core.pruning.cascade.pruned_topic", "count", "higher"),
    ("core.pruning.cascade.pruned_similarity", "count", "higher"),
    ("core.pruning.cascade.pruned_probability", "count", "higher"),
    ("core.pruning.cascade.survivor_ratio", "ratio", "lower"),
    ("runtime.evaluation.refine.busy_s", "s", "lower"),
    ("runtime.evaluation.refine.pairs_in", "count", "lower"),
    ("runtime.evaluation.refine.pruned_instance", "count", "higher"),
    ("runtime.evaluation.refine.matches", "count", "higher"),
    ("runtime.evaluation.refine.match_ratio", "ratio", "higher"),
    ("core.matching.busy_s", "s", "lower"),
    ("core.matching.adds", "count", "lower"),
    ("core.matching.removes", "count", "lower"),
    ("runtime.query.busy_s", "s", "lower"),
    ("runtime.query.calls", "count", "lower"),
    ("runtime.query.cache_hits", "count", "higher"),
    ("runtime.query.cache_misses", "count", "lower"),
    ("runtime.query.cache_invalidations", "count", "lower"),
    ("runtime.query.hit_ratio", "ratio", "higher"),
    ("runtime.query.resolve_p50_ms", "ms", "lower"),
    ("runtime.query.resolve_p90_ms", "ms", "lower"),
    ("runtime.checkpoint.save_ms", "ms", "lower"),
    ("runtime.checkpoint.bytes", "bytes", "lower"),
    ("runtime.workers.bytes_shipped", "bytes", "lower"),
    ("runtime.workers.orders_shipped", "count", "lower"),
    ("runtime.workers.backfills", "count", "lower"),
    ("quality.f1", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


class Probes:
    """Counts taken by the tracer's hooks at the layer boundaries."""

    def __init__(self, due_of: Callable[[object], float]) -> None:
        self._due_of = due_of
        self._observed_at: Dict[int, float] = {}
        self.hold_s: List[float] = []
        self.wait_s: List[float] = []
        self.observed_count = 0
        self.cdd_tuples = 0
        self.rules_returned = 0
        self.samples_returned = 0
        self.candidates = 0
        self.evictions = 0
        self.inserts = 0
        self.adds = 0
        self.removes = 0

    def observed(self, args, result, start, end) -> None:
        self.observed_count += 1
        self._observed_at[id(args[1])] = end

    def released(self, args, result, start, end) -> None:
        for element in result:
            observed_at = self._observed_at.pop(id(element), None)
            if observed_at is not None:
                self.hold_s.append(end - observed_at)

    def batch_entered(self, args, result, start, end) -> None:
        due_of = self._due_of
        self.wait_s.extend(start - due_of(record) for record in args[1])

    def rules_selected(self, args, result, start, end) -> None:
        tasks = args[1]
        self.cdd_tuples += len(tasks)
        self.rules_returned += sum(
            len(rules) for task in tasks
            for rules in (task.selected_rules or {}).values())

    def samples_retrieved(self, args, result, start, end) -> None:
        self.samples_returned += len(result)

    def looked_up(self, args, result, start, end) -> None:
        self.candidates += len(result)

    def expired(self, args, result, start, end) -> None:
        self.evictions += result is not None

    def inserted(self, args, result, start, end) -> None:
        self.inserts += 1

    def pair_added(self, args, result, start, end) -> None:
        self.adds += 1

    def record_removed(self, args, result, start, end) -> None:
        self.removes += 1


#: ``(owner, attribute, layer, leaf, probe hook)`` of every wrapped callable,
#: outside in.  The set-up rows are the names the engine constructor looks
#: up.  Reads are a leaf: a resolve reaches the grid and the cascade too, and
#: its share must not leak into the write path's rows.
WRAP_POINTS = (
    (engine_module, "select_pivots", "setup.pivots", False, None),
    (engine_module, "discover_cdd_rules", "setup.rule_mining", False, None),
    (engine_module, "build_cdd_indexes", "setup.cdd_index", False, None),
    (engine_module, "DRIndex", "setup.dr_index", False, None),
    (WatermarkClock, "observe", CLOCK, False, "observed"),
    (WatermarkClock, "release_ready", CLOCK, False, "released"),
    (WatermarkClock, "release_overflow", CLOCK, False, "released"),
    (WatermarkClock, "drain", CLOCK, False, "released"),
    (AdaptiveBatcher, "add", BATCHER, False, None),
    (AdaptiveBatcher, "poll", BATCHER, False, None),
    (AdaptiveBatcher, "flush", BATCHER, False, None),
    (TERiDSEngine, "process_batch", EXECUTORS, False, "batch_entered"),
    (RuleSelectionStage, "run", CDD_INDEX, False, "rules_selected"),
    (ImputationStage, "run", IMPUTER, False, None),
    (DRIndex, "candidate_samples", DR_INDEX, False, "samples_retrieved"),
    (SynopsisStage, "run", SYNOPSIS, False, None),
    (CandidateLookupStage, "lookup", LOOKUP, False, "looked_up"),
    (MaintenanceStage, "expire", MAINTAIN, False, "expired"),
    (MaintenanceStage, "insert", MAINTAIN, False, "inserted"),
    (evaluation_module, "batch_prune", CASCADE, False, None),
    (executors_module, "evaluate_task_batch", REFINE, False, None),
    (EntityResultSet, "add", MATCHING, False, "pair_added"),
    (EntityResultSet, "remove_record", MATCHING, False, "record_removed"),
    (TERiDSEngine, "resolve", QUERY, True, None),
)


def install(tracer: Tracer, probes: Probes) -> None:
    """Wrap every layer boundary; ``tracer.restore()`` undoes it all."""
    for owner, attr, layer, leaf, hook in WRAP_POINTS:
        tracer.wrap(owner, attr, layer, leaf=leaf,
                    after=getattr(probes, hook) if hook else None)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(setup: Dict[str, LayerTotals], run: Dict[str, LayerTotals],
                  wall_s: float, probes: Probes, service_s: Sequence[float],
                  ctx) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (all but the few the harness
    measures itself: loadgen lag, backlog, checkpoint, f1, read latency,
    overhead).  ``setup`` / ``run`` are the layer totals of the spans before
    and during ``driver.run()``.
    """

    def of(layer: str) -> LayerTotals:
        return run.get(layer, LayerTotals())

    ingest, pruning, imputer = ctx.ingest, ctx.pruning.stats, ctx.imputer.stats
    query, transport, grid = ctx.query, ctx.transport, ctx.grid
    attributed = sum(of(layer).self_s for layer in RUN_LAYERS)
    cascade_out = (pruning.pairs_considered - pruning.pruned_by_topic
                   - pruning.pruned_by_similarity
                   - pruning.pruned_by_probability)
    metrics = {
        f"{layer}_s": setup.get(layer, LayerTotals()).busy_s
        for layer in SETUP_LAYERS
    }
    metrics.update({
        "ingest.clock.busy_s": of(CLOCK).busy_s,
        "ingest.clock.observed": probes.observed_count,
        "ingest.clock.reordered": ingest.reordered,
        "ingest.clock.admitted_late": ingest.admitted_late,
        "ingest.clock.shed_late": ingest.shed_late,
        "ingest.clock.force_released": ingest.force_released,
        "ingest.clock.hold_p50_ms": 1e3 * percentile(probes.hold_s, 50),
        "ingest.batcher.busy_s": of(BATCHER).busy_s,
        "ingest.batcher.batches": ingest.batches_formed,
        "ingest.batcher.mean_batch": ratio(ingest.tuples_ingested,
                                           ingest.batches_formed),
        "ingest.batcher.trigger_size": ingest.triggers.get("size", 0),
        "ingest.batcher.trigger_deadline": ingest.triggers.get("deadline", 0),
        "ingest.batcher.trigger_drain": ingest.triggers.get("drain", 0),
        "ingest.batcher.formation_p50_ms": 1e3 * ingest.formation.quantile(0.5),
        "ingest.driver.wait_p50_ms": 1e3 * percentile(probes.wait_s, 50),
        "ingest.driver.wait_p99_ms": 1e3 * percentile(probes.wait_s, 99),
        "ingest.driver.self_s": wall_s - attributed,
        "ingest.driver.max_queue_depth": ingest.max_queue_depth,
        "ingest.driver.backpressure_waits": ingest.backpressure_waits,
        "runtime.executors.calls": of(EXECUTORS).calls,
        "runtime.executors.busy_s": of(EXECUTORS).busy_s,
        "runtime.executors.self_s": of(EXECUTORS).self_s,
        "runtime.executors.service_p50_ms": 1e3 * percentile(service_s, 50),
        "runtime.executors.service_p99_ms": 1e3 * percentile(service_s, 99),
        "indexes.cdd_index.busy_s": of(CDD_INDEX).busy_s,
        "indexes.cdd_index.tuples": probes.cdd_tuples,
        "indexes.cdd_index.rules_returned": probes.rules_returned,
        "imputation.imputer.busy_s": of(IMPUTER).busy_s,
        "imputation.imputer.self_s": of(IMPUTER).self_s,
        "imputation.imputer.attributes_imputed": imputer.attributes_imputed,
        "imputation.imputer.attributes_unimputable":
            imputer.attributes_unimputable,
        "imputation.imputer.samples_scanned": imputer.samples_scanned,
        "imputation.imputer.samples_matched": imputer.samples_matched,
        "imputation.imputer.match_ratio": ratio(imputer.samples_matched,
                                                imputer.samples_scanned),
        "indexes.dr_index.busy_s": of(DR_INDEX).busy_s,
        "indexes.dr_index.calls": of(DR_INDEX).calls,
        "indexes.dr_index.samples_returned": probes.samples_returned,
        "core.pruning.synopsis.busy_s": of(SYNOPSIS).busy_s,
        "indexes.er_grid.lookup.busy_s": of(LOOKUP).busy_s,
        "indexes.er_grid.lookup.calls": of(LOOKUP).calls,
        "indexes.er_grid.lookup.candidates": probes.candidates,
        "indexes.er_grid.lookup.cells_examined": grid.cells_examined,
        "indexes.er_grid.lookup.tuples_examined": grid.tuples_examined,
        "indexes.er_grid.maintain.busy_s": of(MAINTAIN).busy_s,
        "indexes.er_grid.maintain.inserts": probes.inserts,
        "indexes.er_grid.maintain.evictions": probes.evictions,
        "core.pruning.cascade.busy_s": of(CASCADE).busy_s,
        "core.pruning.cascade.pairs_in": pruning.pairs_considered,
        "core.pruning.cascade.pruned_topic": pruning.pruned_by_topic,
        "core.pruning.cascade.pruned_similarity": pruning.pruned_by_similarity,
        "core.pruning.cascade.pruned_probability":
            pruning.pruned_by_probability,
        "core.pruning.cascade.survivor_ratio": ratio(
            cascade_out, pruning.pairs_considered),
        # The refinement row is evaluate_task_batch minus the cascade below it.
        "runtime.evaluation.refine.busy_s": of(REFINE).self_s,
        "runtime.evaluation.refine.pairs_in": cascade_out,
        "runtime.evaluation.refine.pruned_instance": pruning.pruned_by_instance,
        "runtime.evaluation.refine.matches": pruning.refined_matches,
        "runtime.evaluation.refine.match_ratio": ratio(
            pruning.refined_matches, cascade_out),
        "core.matching.busy_s": of(MATCHING).busy_s,
        "core.matching.adds": probes.adds,
        "core.matching.removes": probes.removes,
        "runtime.query.busy_s": of(QUERY).busy_s,
        "runtime.query.calls": query.resolves,
        "runtime.query.cache_hits": query.cache_hits,
        "runtime.query.cache_misses": query.cache_misses,
        "runtime.query.cache_invalidations": query.cache_invalidations,
        "runtime.query.hit_ratio": ratio(query.cache_hits, query.resolves),
        "runtime.workers.bytes_shipped": transport.bytes_shipped,
        "runtime.workers.orders_shipped": transport.orders_shipped,
        "runtime.workers.backfills": transport.backfills,
        "trace.coverage": ratio(attributed, wall_s),
    })
    return metrics


def breakup_agreement(run: Dict[str, LayerTotals], engine) -> Dict[str, float]:
    """Layer-row sums over the engine's own Figure-6 break-up, per column."""
    breakup = engine.breakup_cost().as_dict()
    tuples = engine.timestamps_processed
    out = {}
    for column, layers in BREAKUP_ROWS.items():
        rows = sum(run.get(layer, LayerTotals()).busy_s for layer in layers)
        out[column] = ratio(rows, breakup[column] * tuples)
    return out
