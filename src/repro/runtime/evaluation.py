"""The row cascade: batch-granular candidate-pair evaluation.

The ER phase has two cascades and no switch between them.
``PruningPipeline.evaluate_pair`` is the scalar oracle ``SerialExecutor``
runs and every golden is pinned to; :func:`evaluate_task_batch` here is what
``MicroBatchExecutor`` and the query-time resolver run — Theorems 4.1 and 4.2
in one blocked :func:`~repro.core.pruning.batch_prune` pass over the rows of the
grid's :class:`~repro.core.pruning.PackedStore`, then Theorem 4.4 / Eq. (2)
for every survivor in one :func:`~repro.core.pruning.batch_refine` call over
the store's instance table.  Every floating-point accumulation replicates
the oracle's operation order, so verdicts and probabilities are
bit-identical to :func:`repro.core.matching.ter_ids_probability_with_cutoff`
/ :func:`repro.core.matching.ter_ids_probability`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as _np

from repro.core.pruning import (
    PackedStore,
    PruningPipeline,
    RecordSynopsis,
    batch_prune,
    batch_refine,
)


def _batch_pair_rows(items, store: PackedStore):
    """``(query_rows, candidate_rows, starts)`` of a micro-batch's pairs.

    The two flat row arrays hold one entry per (query, candidate) pair, item
    after item; item ``i`` owns the flat positions ``starts[i]:starts[i+1]``.
    """
    counts = [len(rows) for _, rows in items]
    return (_np.repeat(store.rows_for([query for query, _ in items]), counts),
            _np.concatenate([rows for _, rows in items]),
            _np.cumsum([0] + counts))


def evaluate_task_batch(items: Sequence[Tuple[RecordSynopsis, _np.ndarray]],
                        pruning: PruningPipeline, store: PackedStore,
                        ) -> List[List[Tuple[bool, float]]]:
    """Verdicts for a whole micro-batch of ``(query, candidate_rows)`` items.

    ``candidate_rows`` is an ``intp`` array of ``store`` rows (as
    :meth:`~repro.indexes.er_grid.ERGrid.candidate_rows` hands them out);
    the query must be resident too.  Two passes instead of per-query
    interleaving: first the three bound strategies run for every pair of
    the batch — one blocked :func:`~repro.core.pruning.batch_prune` pass
    over the rows of ``store`` — then the instance-level refinement
    (Theorem 4.4) takes *all* surviving pairs of the batch at once, in one
    :func:`~repro.core.pruning.batch_refine` call over the store's instance
    table.  Thresholds, strategy switches and the counters written are
    those of ``pruning``.  Verdicts, probabilities and counters are
    identical to calling ``pruning.evaluate_pair`` pair by pair — the
    per-pair work is a pure function of the two synopses, only the schedule
    changes.
    """
    if not items:
        return []
    verdicts_per_item: List[List[Tuple[bool, float]]] = [
        [(False, 0.0)] * len(rows) for _, rows in items]
    query_rows, candidate_rows, starts = _batch_pair_rows(items, store)
    alive, pruned_topic, pruned_similarity = batch_prune(
        query_rows, candidate_rows, pruning, store)
    stats = pruning.stats
    stats.pairs_considered += len(candidate_rows)
    stats.pruned_by_topic += pruned_topic
    stats.pruned_by_similarity += pruned_similarity

    flat = alive.nonzero()[0]
    is_match, probability, cut = batch_refine(
        query_rows[flat], candidate_rows[flat], pruning, store)
    matches = int(_np.count_nonzero(is_match))
    pruned_instance = int(_np.count_nonzero(cut))
    stats.pruned_by_instance += pruned_instance
    stats.refined_matches += matches
    stats.refined_non_matches += len(flat) - matches - pruned_instance
    # Most lanes come back as the pre-filled (False, 0.0): write the others.
    differs = (is_match | (probability != 0.0)).nonzero()[0]
    verdicts = zip(is_match[differs].tolist(), probability[differs].tolist())
    for item_index, position, verdict in zip(
            *_item_positions(flat[differs], starts), verdicts):
        verdicts_per_item[item_index][position] = verdict
    return verdicts_per_item


def _item_positions(flat, starts):
    """Flat pair positions back to ``(item indexes, positions within the
    item)``, as two lists."""
    owners = _np.searchsorted(starts, flat, side="right") - 1
    return owners.tolist(), (flat - starts[owners]).tolist()
