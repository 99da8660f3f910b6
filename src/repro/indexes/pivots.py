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
    token_postings,
    tokenize,
)
from repro.core.tuples import Schema
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


@dataclass
class PivotTable:
    """Selected pivot values per attribute.

    ``pivots[attribute][0]`` is the main pivot; the remaining entries are
    auxiliary pivots (at most ``cntMax - 1`` of them).
    """

    schema: Schema
    pivots: Dict[str, List[str]]
    reports: Dict[str, PivotSelectionReport] = field(default_factory=dict)

    def main_pivot(self, attribute: str) -> str:
        """The main pivot value ``piv_1[A_x]``."""
        return self.pivots[attribute][0]

    def all_pivots(self, attribute: str) -> List[str]:
        """Main pivot followed by auxiliary pivots."""
        return list(self.pivots[attribute])


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
