"""Cached, batch-friendly candidate-pair evaluation.

The refinement step (Theorem 4.4 / Equation (2)) dominates the online cost:
for every surviving candidate pair it enumerates instance pairs, and for
every instance pair the seed engine re-derives the instance's token sets and
topic flag from scratch.  A tuple stays in its window for ``w`` arrivals and
is evaluated against many queries, so that per-instance work is recomputed
hundreds of times.

This module memoises an :class:`InstanceProfile` per instance — existence
probability, per-attribute token sets in schema order, topic flag — directly
on the :class:`~repro.core.pruning.RecordSynopsis`, and re-implements the
exact refinement loops over the cached profiles.  Every floating-point
accumulation replicates the seed's operation order, so verdicts and
probabilities are bit-identical to
:func:`repro.core.matching.ter_ids_probability_with_cutoff` /
:func:`repro.core.matching.ter_ids_probability`; only the redundant work is
gone.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.pruning import (
    PackedStore,
    PruningStats,
    RecordSynopsis,
    batch_prune,
    probability_prune,
    similarity_prune,
    topic_keyword_prune,
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

    ``cutoff_probability`` visits instances in descending probability; a
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


def cutoff_probability(lefts: Sequence[InstanceProfile],
                       rights: Sequence[InstanceProfile],
                       has_keywords: bool, gamma: float,
                       alpha: float) -> Tuple[float, bool, int]:
    """Theorem 4.4 early-terminating Eq. (2) over cached profiles.

    Bit-identical to ``ter_ids_probability_with_cutoff``: same
    descending-probability visit order (stable sort over the same instance
    enumeration), same accumulation order, same bounds.
    """
    return cutoff_probability_sorted(
        sorted(lefts, key=lambda profile: -profile[0]),
        sorted(rights, key=lambda profile: -profile[0]),
        has_keywords, gamma, alpha)


def cutoff_probability_sorted(lefts: Sequence[InstanceProfile],
                              rights: Sequence[InstanceProfile],
                              has_keywords: bool, gamma: float,
                              alpha: float) -> Tuple[float, bool, int]:
    """:func:`cutoff_probability` over already-sorted profile lists."""
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

    The tail of the cascade shared by the scalar per-pair path and the
    vectorized kernel: pairs reaching it have survived the three bound
    strategies, so only the exact (cutoff) probability and the refinement
    counters remain.
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


def evaluate_pair_cached(left: RecordSynopsis, right: RecordSynopsis,
                         keywords: FrozenSet[str], gamma: float, alpha: float,
                         use_topic: bool, use_similarity: bool,
                         use_probability: bool, use_instance: bool,
                         stats: PruningStats) -> Tuple[bool, float]:
    """Profile-cached twin of ``PruningPipeline.evaluate_pair``.

    Applies the four strategies in the paper's order with identical
    counters; the refinement runs over the cached instance profiles instead
    of re-deriving token sets per instance pair.
    """
    stats.pairs_considered += 1

    if use_topic and topic_keyword_prune(left, right, keywords):
        stats.pruned_by_topic += 1
        return False, 0.0

    if use_similarity and similarity_prune(left, right, gamma):
        stats.pruned_by_similarity += 1
        return False, 0.0

    if use_probability and probability_prune(left, right, gamma, alpha):
        stats.pruned_by_probability += 1
        return False, 0.0

    return refine_pair_cached(left, right, keywords, gamma, alpha,
                              use_instance, stats)


def evaluate_candidates(query: RecordSynopsis,
                        candidates: Sequence[RecordSynopsis],
                        keywords: FrozenSet[str], gamma: float, alpha: float,
                        use_topic: bool, use_similarity: bool,
                        use_probability: bool, use_instance: bool,
                        stats: PruningStats, vectorized: bool = True,
                        store: Optional[PackedStore] = None,
                        ) -> List[Tuple[bool, float]]:
    """Verdicts of one query against its whole candidate list (in order).

    With ``vectorized`` the three bound strategies run through
    :func:`~repro.core.pruning.batch_prune` — a handful of columnar array
    operations over the packed synopses, gathered from ``store`` when the
    candidates are resident — and only the surviving pairs fall through to
    the scalar instance-level refinement.  Verdicts, probabilities and
    every counter are identical to the per-pair scalar cascade; the
    ``vectorized=False`` path *is* that scalar cascade, kept as the oracle
    the kernel tests compare against.
    """
    if not candidates:
        return []
    if not vectorized:
        return [
            evaluate_pair_cached(
                query, candidate, keywords=keywords, gamma=gamma, alpha=alpha,
                use_topic=use_topic, use_similarity=use_similarity,
                use_probability=use_probability, use_instance=use_instance,
                stats=stats)
            for candidate in candidates
        ]
    alive = _counted_prune(
        query, candidates, keywords=keywords, gamma=gamma, alpha=alpha,
        use_topic=use_topic, use_similarity=use_similarity,
        use_probability=use_probability, stats=stats, store=store)
    verdicts: List[Tuple[bool, float]] = [(False, 0.0)] * len(candidates)
    for position in alive.nonzero()[0].tolist():
        verdicts[position] = refine_pair_cached(
            query, candidates[position], keywords, gamma, alpha,
            use_instance, stats)
    return verdicts


def _counted_prune(query, candidates, stats: PruningStats, **kernel_args):
    """One :func:`batch_prune` call (either form) folded into ``stats``.

    The single authority for how the vectorized kernel's results map onto
    the cascade's counters; returns the survivor mask.
    """
    alive, pruned_topic, pruned_similarity, pruned_probability = batch_prune(
        query, candidates, **kernel_args)
    stats.pairs_considered += len(candidates)
    stats.pruned_by_topic += pruned_topic
    stats.pruned_by_similarity += pruned_similarity
    stats.pruned_by_probability += pruned_probability
    return alive


def _batch_pair_rows(items, store: Optional[PackedStore]):
    """``(query_rows, candidate_rows, starts)`` of a micro-batch's pairs.

    The two flat row arrays hold one entry per (query, candidate) pair, item
    after item; item ``i`` owns the flat positions ``starts[i]:starts[i+1]``.
    ``None`` when the pairs cannot all be gathered from ``store`` — no store
    enabled, or a synopsis is not resident (a foreign pivot shape is never
    stored) — which sends the batch down the per-query path.
    """
    if store is None or not items:
        return None
    query_rows: List[int] = []
    candidate_rows = []  # one row array per item
    for query, candidates in items:
        row = store.row_for(query)
        rows = store.rows_for(candidates)
        if row is None or rows is None:
            store.restacks += 1
            return None
        query_rows.append(row)
        candidate_rows.append(rows)
    counts = [len(rows) for rows in candidate_rows]
    return (_np.repeat(_np.array(query_rows, dtype=_np.intp), counts),
            _np.concatenate(candidate_rows),
            _np.cumsum([0] + counts))


def evaluate_task_batch(items: Sequence[Tuple[RecordSynopsis,
                                              Sequence[RecordSynopsis]]],
                        keywords: FrozenSet[str], gamma: float, alpha: float,
                        use_topic: bool, use_similarity: bool,
                        use_probability: bool, use_instance: bool,
                        stats: PruningStats, vectorized: bool = True,
                        store: Optional[PackedStore] = None,
                        ) -> List[List[Tuple[bool, float]]]:
    """Verdicts for a whole micro-batch of ``(query, candidates)`` items.

    Two passes instead of per-query interleaving: first the three bound
    strategies run for every pair of the batch — one blocked
    :func:`~repro.core.pruning.batch_prune` pass over the rows of ``store``
    when every synopsis is resident there, one kernel call per query
    otherwise — then the instance-level refinement (Theorem 4.4) sweeps
    *all* surviving pairs of the batch at once over the cached pre-sorted
    profiles.  Verdicts, probabilities and counters are identical to
    calling :func:`evaluate_candidates` item by item — the per-pair work is
    a pure function of the two synopses, only the schedule changes.
    """
    if not vectorized:
        return [
            evaluate_candidates(
                query, candidates, keywords=keywords, gamma=gamma,
                alpha=alpha, use_topic=use_topic,
                use_similarity=use_similarity,
                use_probability=use_probability, use_instance=use_instance,
                stats=stats, vectorized=False)
            for query, candidates in items
        ]
    kernel_args = dict(keywords=keywords, gamma=gamma, alpha=alpha,
                       use_topic=use_topic, use_similarity=use_similarity,
                       use_probability=use_probability, stats=stats,
                       store=store)
    verdicts_per_item: List[List[Tuple[bool, float]]] = [
        [(False, 0.0)] * len(candidates) for _, candidates in items]
    #: (item, position) of every pair the bound strategies left alive.
    survivors: List[Tuple[int, int]] = []
    pair_rows = _batch_pair_rows(items, store)
    if pair_rows is not None:
        query_rows, candidate_rows, starts = pair_rows
        alive = _counted_prune(query_rows, candidate_rows, **kernel_args)
        # Flat pair positions back to (item, position within the item).
        flat = alive.nonzero()[0]
        owners = _np.searchsorted(starts, flat, side="right") - 1
        survivors = list(zip(owners.tolist(),
                             (flat - starts[owners]).tolist()))
    else:
        for item_index, (query, candidates) in enumerate(items):
            if candidates:
                alive = _counted_prune(query, candidates, **kernel_args)
                survivors.extend((item_index, position)
                                 for position in alive.nonzero()[0].tolist())
    for item_index, position in survivors:
        query, candidates = items[item_index]
        verdicts_per_item[item_index][position] = refine_pair_cached(
            query, candidates[position], keywords, gamma, alpha,
            use_instance, stats)
    return verdicts_per_item
