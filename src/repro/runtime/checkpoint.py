"""Checkpoint / restore of the online engine state.

A checkpoint captures everything the online operator has accumulated — the
timestamp counter, the per-stream window contents (as imputed records) and
the entity result set, serialised by :mod:`repro.persistence`, plus every
counter of :data:`~repro.runtime.context.COUNTERS` with a checkpoint key,
one loop over the table each way.  The offline substrates
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
from repro.persistence import (
    CheckpointError,
    imputed_record_from_dict,
    imputed_record_to_dict,
    match_from_dict,
    match_to_dict,
)
from repro.runtime.context import (COUNTERS, MAP, RuntimeContext, get_key,
                                    put_key)


def engine_state_to_dict(ctx: RuntimeContext) -> Dict:
    """Serialise the online state of one runtime context."""
    windows = {
        source: [imputed_record_to_dict(item.record) for item in window.items()]
        for source, window in sorted(ctx.windows.items())
    }
    state = {
        "timestamps_processed": ctx.timestamps_processed,
        "windows": windows,
        "matches": [match_to_dict(pair) for pair in ctx.result_set.pairs()],
    }
    for row in COUNTERS:
        if row.checkpoint is not None:
            put_key(state, row.checkpoint, row.read(ctx))
    # The last trace id rides beside the batch sequence, so a restored run's
    # traces line up with its history; the traces themselves are not kept.
    state["telemetry"]["trace_id"] = ctx.last_trace_id
    # The repository grows mid-stream (absorb_complete_tuples,
    # add_repository_samples) and is not checkpointed: its size lets a
    # restore refuse an engine built over a different repository.
    state["repository_size"] = len(ctx.repository)
    return state


def restore_engine_state(ctx: RuntimeContext, state: Dict) -> None:
    """Rebuild the online state of ``ctx`` from a checkpoint dict.

    The context must have been built over the same repository,
    configuration and rule set as the checkpointed engine; windows, grid and
    result set are cleared and repopulated, counters are overwritten (a
    counter the checkpoint does not carry restores as 0).
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

    for row in COUNTERS:
        if row.checkpoint is not None:
            empty = {} if row.kind == MAP else 0
            row.write(ctx, get_key(state, row.checkpoint, empty))
    # The retained per-batch ingest series are process-local: they restart.
    ctx.ingest.formation.reset()
    ctx.ingest.queue_depths.clear()
    ctx.last_trace_id = get_key(state, "telemetry.trace_id", None)
    ctx.timestamps_processed = state.get("timestamps_processed", 0)
