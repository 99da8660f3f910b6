"""The row cascade: batch-granular candidate-pair evaluation.

The ER phase has two cascades and no switch between them.
``PruningPipeline.evaluate_pair`` is the scalar oracle ``SerialExecutor``
runs and every golden is pinned to; :func:`evaluate_task_batch` here is what
``MicroBatchExecutor`` and the query-time resolver run — Theorems 4.1–4.3 in
one blocked :func:`~repro.core.pruning.batch_prune` pass over the rows of the
grid's :class:`~repro.core.pruning.PackedStore`, then Theorem 4.4 / Eq. (2)
over the survivors.

Most survivors pair two single-instance tuples (a complete tuple has one
possible world), where Theorem 4.4's early termination decides nothing:
they go through one blocked :func:`~repro.core.pruning.batch_refine` pass
over the store's token-id columns.  A pair with a multi-instance side keeps
the scalar cut-off sweep; a tuple is refined against many queries while it
stays in its window, so for those an :class:`InstanceProfile` per instance —
existence probability, per-attribute token sets in schema order, topic
flag — is memoised on the :class:`~repro.core.pruning.RecordSynopsis`.
Every floating-point accumulation replicates the seed's operation order, so
verdicts and probabilities are bit-identical to
:func:`repro.core.matching.ter_ids_probability_with_cutoff` /
:func:`repro.core.matching.ter_ids_probability`.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

import numpy as _np

from repro.core.pruning import (
    PackedStore,
    PruningPipeline,
    PruningStats,
    RecordSynopsis,
    batch_prune,
    batch_refine,
)
from repro.core.similarity import jaccard_similarity

#: Attribute under which profiles are cached on a synopsis.  The cache is
#: keyed by the keyword set so a synopsis shared between differently
#: configured operators can never leak a stale topic flag.
_PROFILE_ATTR = "_runtime_instance_profiles"

#: One cached instance: (probability, per-attribute token sets, topic flag).
InstanceProfile = Tuple[float, Tuple[frozenset, ...], bool]

#: Attribute under which the descending-probability profile order is cached.
_SORTED_PROFILE_ATTR = "_runtime_sorted_profiles"


def instance_profiles(synopsis: RecordSynopsis,
                      keywords: FrozenSet[str]) -> List[InstanceProfile]:
    """Per-instance cached profiles of one synopsis (built lazily once)."""
    cached = getattr(synopsis, _PROFILE_ATTR, None)
    if cached is not None and cached[0] == keywords:
        return cached[1]
    schema = synopsis.record.schema
    profiles: List[InstanceProfile] = []
    for instance in synopsis.record.instances():
        record = instance.record
        tokens = tuple(record.tokens(name) for name in schema)
        if keywords:
            union: set = set()
            for token_set in tokens:
                union |= token_set
            has_topic = any(keyword in union for keyword in keywords)
        else:
            has_topic = False
        profiles.append((instance.probability, tokens, has_topic))
    setattr(synopsis, _PROFILE_ATTR, (keywords, profiles))
    return profiles


def sorted_instance_profiles(synopsis: RecordSynopsis,
                             keywords: FrozenSet[str]) -> List[InstanceProfile]:
    """Descending-probability profiles of one synopsis, cached once.

    ``cutoff_probability_sorted`` visits instances in descending probability; a
    tuple is refined against many queries during its window residency, so
    the sort is hoisted out of the per-pair path.  Sorting is deterministic
    (stable sort over the same enumeration), so the cached order is exactly
    what the per-pair sort would produce — verdicts stay bit-identical.
    """
    cached = getattr(synopsis, _SORTED_PROFILE_ATTR, None)
    if cached is not None and cached[0] == keywords:
        return cached[1]
    profiles = sorted(instance_profiles(synopsis, keywords),
                      key=lambda profile: -profile[0])
    setattr(synopsis, _SORTED_PROFILE_ATTR, (keywords, profiles))
    return profiles


def _profile_pair_matches(left: InstanceProfile, right: InstanceProfile,
                          has_keywords: bool, gamma: float) -> bool:
    """χ(...) over cached profiles; replicates ``instance_pair_matches``."""
    if has_keywords and not (left[2] or right[2]):
        return False
    left_tokens = left[1]
    right_tokens = right[1]
    similarity = 0.0
    for index in range(len(left_tokens)):
        similarity += jaccard_similarity(left_tokens[index], right_tokens[index])
    return similarity > gamma


def cutoff_probability_sorted(lefts: Sequence[InstanceProfile],
                              rights: Sequence[InstanceProfile],
                              has_keywords: bool, gamma: float,
                              alpha: float) -> Tuple[float, bool, int]:
    """Theorem 4.4 early-terminating Eq. (2) over cached profiles, both
    lists already in descending probability.

    Bit-identical to ``ter_ids_probability_with_cutoff``: same visit order
    (stable sort over the same instance enumeration), same accumulation
    order, same bounds.
    """
    matched_mass = 0.0
    explored_mass = 0.0
    pairs_checked = 0
    for left in lefts:
        left_probability = left[0]
        for right in rights:
            pair_mass = left_probability * right[0]
            if _profile_pair_matches(left, right, has_keywords, gamma):
                matched_mass += pair_mass
            explored_mass += pair_mass
            pairs_checked += 1
            if matched_mass > alpha:
                return matched_mass, True, pairs_checked
            upper_bound = matched_mass + max(0.0, 1.0 - explored_mass)
            if upper_bound <= alpha:
                return upper_bound, False, pairs_checked
    return matched_mass, matched_mass > alpha, pairs_checked


def exact_probability(lefts: Sequence[InstanceProfile],
                      rights: Sequence[InstanceProfile],
                      has_keywords: bool, gamma: float) -> float:
    """Exact Eq. (2) over cached profiles (``ter_ids_probability`` twin)."""
    total = 0.0
    for left in lefts:
        left_probability = left[0]
        for right in rights:
            if _profile_pair_matches(left, right, has_keywords, gamma):
                total += left_probability * right[0]
    return total


def refine_pair_cached(left: RecordSynopsis, right: RecordSynopsis,
                       keywords: FrozenSet[str], gamma: float, alpha: float,
                       use_instance: bool,
                       stats: PruningStats) -> Tuple[bool, float]:
    """Instance-level refinement (Theorem 4.4 / Eq. (2)) of one pair.

    The tail of the row cascade: pairs reaching it have survived the three
    bound strategies, so only the exact (cutoff) probability and the
    refinement counters remain.
    """
    has_keywords = bool(keywords)
    if use_instance:
        # The cutoff loop visits instances in descending probability, so it
        # reads the cached pre-sorted order (the exact list the per-pair
        # sort would rebuild).
        left_profiles = sorted_instance_profiles(left, keywords)
        right_profiles = sorted_instance_profiles(right, keywords)
        probability, is_match, pairs_checked = cutoff_probability_sorted(
            left_profiles, right_profiles, has_keywords, gamma, alpha)
        total_pairs = len(left_profiles) * len(right_profiles)
        if not is_match and pairs_checked < total_pairs:
            stats.pruned_by_instance += 1
            return False, probability
    else:
        # The exact sum accumulates in enumeration order — keep it.
        probability = exact_probability(instance_profiles(left, keywords),
                                        instance_profiles(right, keywords),
                                        has_keywords, gamma)
        is_match = probability > alpha

    if is_match:
        stats.refined_matches += 1
    else:
        stats.refined_non_matches += 1
    return is_match, probability


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
    (Theorem 4.4) takes *all* surviving pairs of the batch at once: those
    between two single-instance tuples in one blocked
    :func:`~repro.core.pruning.batch_refine` pass over the store's token
    columns, the rest pair by pair over the cached pre-sorted profiles of
    the row's synopsis.  Thresholds, strategy switches and the counters
    written are those of ``pruning``.  Verdicts, probabilities and counters
    are identical to calling ``pruning.evaluate_pair`` pair by pair — the
    per-pair work is a pure function of the two synopses, only the schedule
    changes.
    """
    if not items:
        return []
    verdicts_per_item: List[List[Tuple[bool, float]]] = [
        [(False, 0.0)] * len(rows) for _, rows in items]
    query_rows, candidate_rows, starts = _batch_pair_rows(items, store)
    alive, pruned_topic, pruned_similarity, pruned_probability = batch_prune(
        query_rows, candidate_rows, pruning, store)
    stats = pruning.stats
    stats.pairs_considered += len(candidate_rows)
    stats.pruned_by_topic += pruned_topic
    stats.pruned_by_similarity += pruned_similarity
    stats.pruned_by_probability += pruned_probability

    flat = alive.nonzero()[0]
    query_rows, candidate_rows = query_rows[flat], candidate_rows[flat]
    columnar = store.single[query_rows] & store.single[candidate_rows]
    is_match, probability = batch_refine(
        query_rows[columnar], candidate_rows[columnar], pruning, store)
    matches = int(_np.count_nonzero(is_match))
    stats.refined_matches += matches
    stats.refined_non_matches += len(is_match) - matches
    # Most lanes come back as the pre-filled (False, 0.0): write the others.
    differs = (is_match | (probability != 0.0)).nonzero()[0]
    verdicts = zip(is_match[differs].tolist(), probability[differs].tolist())
    for item_index, position, verdict in zip(
            *_item_positions(flat[columnar][differs], starts), verdicts):
        verdicts_per_item[item_index][position] = verdict

    # Multi-instance pairs keep the scalar sweep: its early termination
    # visits fewer instance pairs than a kernel would have to expand, and
    # its accumulation order fixes ``repr(probability)``.
    refine_args = (pruning.keywords, pruning.gamma, pruning.alpha,
                   pruning.use_instance, stats)
    scalar = ~columnar
    for item_index, position, row in zip(
            *_item_positions(flat[scalar], starts),
            candidate_rows[scalar].tolist()):
        verdicts_per_item[item_index][position] = refine_pair_cached(
            items[item_index][0], store.synopsis_at(row), *refine_args)
    return verdicts_per_item


def _item_positions(flat, starts):
    """Flat pair positions back to ``(item indexes, positions within the
    item)``, as two lists."""
    owners = _np.searchsorted(starts, flat, side="right") - 1
    return owners.tolist(), (flat - starts[owners]).tolist()
