"""Checkpoint / restore of the online engine state.

A checkpoint captures everything the online operator has accumulated — the
per-stream window contents (as imputed records), the entity result set, the
pruning / imputation / timing counters and the timestamp counter — using the
JSON serialisers of :mod:`repro.persistence`.  The offline substrates
(pivots, rules, indexes) are *not* persisted: they are a deterministic
function of the repository and the configuration and are rebuilt by the
``TERiDSEngine`` constructor; likewise each window tuple's grid synopsis is
re-derived from its imputed record, so restoring reproduces the exact grid
and result-set state and a resumed run yields the same answers as an
uninterrupted one.
"""

from __future__ import annotations

from typing import Dict

from repro.core.pruning import RecordSynopsis
from repro.imputation.imputer import ImputationStats
from repro.persistence import (
    CheckpointError,
    imputed_record_from_dict,
    imputed_record_to_dict,
    match_from_dict,
    match_to_dict,
)
from repro.runtime.context import RuntimeContext


def engine_state_to_dict(ctx: RuntimeContext) -> Dict:
    """Serialise the online state of one runtime context."""
    windows = {
        source: [imputed_record_to_dict(item.record) for item in window.items()]
        for source, window in sorted(ctx.windows.items())
    }
    return {
        "timestamps_processed": ctx.timestamps_processed,
        "windows": windows,
        "matches": [match_to_dict(pair) for pair in ctx.result_set.pairs()],
        "pruning_stats": ctx.pruning.stats.as_dict(),
        "imputation_stats": ctx.imputer.stats.as_dict(),
        "timer": {"totals": dict(ctx.timer.totals),
                  "counts": dict(ctx.timer.counts)},
        "grid_counters": {"cells_examined": ctx.grid.cells_examined,
                          "tuples_examined": ctx.grid.tuples_examined},
        # Ingestion counters (zero unless an IngestDriver feeds this
        # context) ride along so a drain/resume cycle keeps its arrival,
        # lateness and backpressure accounting.
        "ingest_stats": ctx.ingest.as_dict(),
        # Query-time resolution counters.
        "query_stats": ctx.query.as_dict(),
        # Telemetry correlation metadata: the monotonic batch sequence and
        # the last trace id let a restored run's traces be lined up with
        # its pre-checkpoint history.  The metrics/traces themselves are
        # process-local scratch and are not persisted.
        "telemetry": {"batch_seq": ctx.batch_seq,
                      "trace_id": ctx.last_trace_id},
        # The repository grows mid-stream (absorb_complete_tuples,
        # add_repository_samples) and is not checkpointed: its size lets a
        # restore refuse an engine built over a different repository.
        "repository_size": len(ctx.repository),
    }


def restore_engine_state(ctx: RuntimeContext, state: Dict) -> None:
    """Rebuild the online state of ``ctx`` from a checkpoint dict.

    The context must have been built over the same repository,
    configuration and rule set as the checkpointed engine; windows, grid and
    result set are cleared and repopulated, counters are overwritten.
    Raises :class:`~repro.persistence.CheckpointError`, before touching any
    state, when the checkpoint records a ``repository_size`` other than
    ``len(ctx.repository)`` (a checkpoint without one skips the check).
    Keys this version no longer writes (``transport_stats``,
    ``rule_maintainer``, ``controller``, and the ``ingest_stats`` counters
    of the deleted thread offload and event-time expiry) are ignored.
    """
    saved_size = state.get("repository_size")
    if saved_size is not None and saved_size != len(ctx.repository):
        raise CheckpointError(
            f"checkpoint was taken over a repository of {saved_size} "
            f"samples, but this engine's repository holds "
            f"{len(ctx.repository)}; build the engine over the repository "
            f"the checkpointed run had grown to")
    ctx.clear_online_state()

    # Window tuples are re-inserted globally ordered by arrival timestamp
    # (ties broken by source and in-window position), approximating the
    # original cross-stream interleaving so the rebuilt grid matches the
    # checkpointed one cell for cell.
    entries = []
    for source, rows in state.get("windows", {}).items():
        for position, row in enumerate(rows):
            imputed = imputed_record_from_dict(row, ctx.schema)
            entries.append((imputed.timestamp, source, position, imputed))
    entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    keywords = ctx.config.keywords
    evicted_keys = []
    for _, source, _, imputed in entries:
        synopsis = RecordSynopsis.build(imputed, ctx.pivots, keywords)
        evicted = ctx.window_for(source).insert(synopsis)
        if evicted is not None:
            # Restoring into a smaller window than the checkpoint's: the
            # window auto-evicts, and the grid (and any checkpointed pair
            # involving the evicted tuple) must follow, or the evicted
            # tuples would linger forever.
            ctx.grid.remove(evicted.record.rid, evicted.record.source)
            evicted_keys.append((evicted.record.rid, evicted.record.source))
        ctx.grid.insert(synopsis)

    for row in state.get("matches", []):
        ctx.result_set.add(match_from_dict(row))
    for rid, source in evicted_keys:
        ctx.result_set.remove_record(rid, source)

    pruning_stats = ctx.pruning.stats
    saved_pruning = state.get("pruning_stats", {})
    for name in pruning_stats.as_dict():
        setattr(pruning_stats, name, saved_pruning.get(name, 0))

    imputation = state.get("imputation_stats", {})
    fresh = ImputationStats()
    for name in fresh.as_dict():
        setattr(fresh, name, imputation.get(name, 0))
    ctx.imputer.stats = fresh

    timer_state = state.get("timer", {})
    ctx.timer.totals = dict(timer_state.get("totals", {}))
    ctx.timer.counts = dict(timer_state.get("counts", {}))

    grid_counters = state.get("grid_counters", {})
    ctx.grid.cells_examined = grid_counters.get("cells_examined", 0)
    ctx.grid.tuples_examined = grid_counters.get("tuples_examined", 0)

    ctx.ingest.restore(state.get("ingest_stats", {}))
    ctx.query.restore(state.get("query_stats", {}))

    telemetry_meta = state.get("telemetry", {})
    ctx.batch_seq = telemetry_meta.get("batch_seq", 0)
    ctx.last_trace_id = telemetry_meta.get("trace_id")

    ctx.timestamps_processed = state.get("timestamps_processed", 0)
