"""Cost-model-based pivot tuple selection (Section 5.4, Appendix B).

Textual attribute values are converted to numeric coordinates by taking
their Jaccard distance to per-attribute *pivot values*.  The first pivot of
each attribute (the *main pivot* ``piv_1[A_x]``) defines the coordinate used
by the DR-index and the ER-grid; the remaining *auxiliary pivots* provide
extra distance aggregates used to tighten the pruning bounds.

A good pivot spreads the converted values evenly over ``[0, 1]``; the cost
model measures this with the Shannon entropy of the bucketised distance
distribution (Equation (5)) and selects, per attribute, the fewest pivots
(up to ``cntMax``) whose combined entropy reaches the threshold ``eMin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.similarity import (
    jaccard_distance_column,
    text_distance,
    token_postings,
    tokenize,
)
from repro.core.tuples import Record, Schema
from repro.imputation.repository import DataRepository


def shannon_entropy(distances: Sequence[float], buckets: int) -> float:
    """Equation (5): entropy of the bucketised converted-value distribution."""
    if not distances or buckets < 2:
        return 0.0
    counts = [0] * buckets
    for distance in distances:
        index = min(buckets - 1, max(0, int(distance * buckets)))
        counts[index] += 1
    return _bucket_entropy(counts, len(distances))


def _bucket_entropy(counts: Sequence[int], total: int) -> float:
    """Shannon entropy of bucket counts, accumulated in bucket order."""
    entropy = 0.0
    for count in counts:
        if count:
            p = count / total
            entropy -= p * math.log(p)
    return entropy


@dataclass(frozen=True)
class PivotSelectionReport:
    """Diagnostics of the pivot selection for one attribute."""

    attribute: str
    pivots: Tuple[str, ...]
    entropies: Tuple[float, ...]
    candidates_evaluated: int

    @property
    def main_entropy(self) -> float:
        return self.entropies[0] if self.entropies else 0.0


@dataclass
class PivotTable:
    """Selected pivot values per attribute.

    ``pivots[attribute][0]`` is the main pivot; the remaining entries are
    auxiliary pivots (at most ``cntMax - 1`` of them).
    """

    schema: Schema
    pivots: Dict[str, List[str]]
    reports: Dict[str, PivotSelectionReport] = field(default_factory=dict)
    #: Memo of ``pivot_distances``: the pivot values are immutable for the
    #: lifetime of the table, so the distance of a constant to an attribute's
    #: pivots can be computed once and reused by every CDD-index build and
    #: patch (the same rule constants recur across installs).
    _distance_cache: Dict[Tuple[str, str], Tuple[float, ...]] = field(
        default_factory=dict, repr=False, compare=False)

    def main_pivot(self, attribute: str) -> str:
        """The main pivot value ``piv_1[A_x]``."""
        return self.pivots[attribute][0]

    def pivot_distances(self, attribute: str, value: str) -> Tuple[float, ...]:
        """Distances of ``value`` to all of ``attribute``'s pivots, memoised.

        Element 0 is the main-pivot coordinate; the remainder are the
        auxiliary-pivot distances.  The memo is keyed by ``(attribute,
        value)`` and is sound because the pivot lists never change after
        selection.
        """
        key = (attribute, value)
        distances = self._distance_cache.get(key)
        if distances is None:
            distances = tuple(text_distance(value, pivot_value)
                              for pivot_value in self.pivots[attribute])
            self._distance_cache[key] = distances
        return distances

    def auxiliary_pivots(self, attribute: str) -> List[str]:
        """Auxiliary pivot values ``piv_a[A_x]`` for ``a >= 2``."""
        return self.pivots[attribute][1:]

    def pivot_count(self, attribute: str) -> int:
        """Number of pivots ``n_x`` selected for one attribute."""
        return len(self.pivots[attribute])

    def all_pivots(self, attribute: str) -> List[str]:
        """Main pivot followed by auxiliary pivots."""
        return list(self.pivots[attribute])

    def convert_value(self, attribute: str, value: Optional[str],
                      pivot_index: int = 0) -> float:
        """Jaccard distance from ``value`` to the selected pivot.

        A missing value converts to ``1.0`` (maximally far from any pivot) so
        that unimputable attributes never shrink a distance lower bound.
        """
        if value is None:
            return 1.0
        pivot_values = self.pivots[attribute]
        index = min(pivot_index, len(pivot_values) - 1)
        return text_distance(value, pivot_values[index])

    def convert_record(self, record: Record, pivot_index: int = 0) -> List[float]:
        """Convert a complete record into its d-dimensional coordinates."""
        return [self.convert_value(name, record[name], pivot_index)
                for name in self.schema]


@dataclass(frozen=True)
class PivotSelectionConfig:
    """Knobs of the cost-model-based pivot selection (Appendix B)."""

    buckets: int = 10
    min_entropy: float = 1.5
    max_pivots: int = 3
    max_candidates: int = 200


def _candidate_entropies(repository: DataRepository, attribute: str,
                         config: PivotSelectionConfig) -> List[Tuple[float, str]]:
    """Entropy of every candidate pivot value (best first).

    Each candidate is scored against the whole value column at once:
    :func:`~repro.core.similarity.jaccard_distance_column` gives the exact
    :func:`text_distance` floats (the distance is symmetric), the buckets are
    ``shannon_entropy``'s truncate-and-clamp as one ``bincount``, and the
    entropy is summed over the counts in the same bucket order — so every
    entropy equals ``shannon_entropy`` of the scalar distance list.
    """
    domain = repository.domain(attribute)[: config.max_candidates]
    postings, sizes = token_postings(repository.values(attribute))
    buckets = config.buckets
    scored: List[Tuple[float, str]] = []
    for candidate in domain:
        entropy = 0.0
        if buckets >= 2:
            distances = jaccard_distance_column(tokenize(candidate),
                                                postings, sizes)
            index = np.clip((distances * buckets).astype(np.int64),
                            0, buckets - 1)
            counts = np.bincount(index, minlength=buckets).tolist()
            entropy = _bucket_entropy(counts, len(sizes))
        scored.append((entropy, candidate))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return scored


def select_pivots(repository: DataRepository,
                  config: Optional[PivotSelectionConfig] = None) -> PivotTable:
    """Select pivot values for every attribute of the repository schema.

    For each attribute the candidate with maximal entropy becomes the main
    pivot; auxiliary pivots are added greedily (next-highest entropy) until
    either the summed entropy reaches ``min_entropy`` or ``max_pivots``
    pivots have been chosen — the stopping rule of Appendix B.
    """
    config = config or PivotSelectionConfig()
    if len(repository) == 0:
        raise ValueError("cannot select pivots from an empty repository")

    pivots: Dict[str, List[str]] = {}
    reports: Dict[str, PivotSelectionReport] = {}
    for attribute in repository.schema:
        scored = _candidate_entropies(repository, attribute, config)
        if not scored:
            raise ValueError(f"attribute {attribute!r} has an empty domain")
        chosen: List[str] = []
        entropies: List[float] = []
        cumulative = 0.0
        for entropy, candidate in scored:
            chosen.append(candidate)
            entropies.append(entropy)
            cumulative += entropy
            if cumulative >= config.min_entropy or len(chosen) >= config.max_pivots:
                break
        pivots[attribute] = chosen
        reports[attribute] = PivotSelectionReport(
            attribute=attribute,
            pivots=tuple(chosen),
            entropies=tuple(entropies),
            candidates_evaluated=len(scored),
        )
    return PivotTable(schema=repository.schema, pivots=pivots, reports=reports)


def pivot_selection_cost(repository: DataRepository,
                         config: Optional[PivotSelectionConfig] = None) -> int:
    """Number of distance evaluations the selection performs (cost model size).

    Every candidate is scored against every sample value — ``min(|dom|,
    max_candidates) × |R|`` distances per attribute.  They are evaluated
    columnwise (one :func:`~repro.core.similarity.jaccard_distance_column`
    per candidate), but the count is unchanged.  Used by the Figure 11
    benches to report how the offline pivot-selection cost scales with the
    repository size and with ``cntMax``.
    """
    config = config or PivotSelectionConfig()
    evaluations = 0
    for attribute in repository.schema:
        domain = min(repository.domain_size(attribute), config.max_candidates)
        evaluations += domain * len(repository)
    return evaluations
