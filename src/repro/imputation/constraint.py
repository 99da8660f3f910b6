"""Constraint-based (stream-neighbour) imputation — the ``con+ER`` baseline.

The ``con+ER`` baseline of the paper [Zhang et al., SIGMOD 2016] imputes a
missing attribute from *other tuples of the data streams themselves* rather
than from the repository: the incomplete tuple is compared against recently
seen complete tuples, and the dependent values of the most similar neighbours
(subject to a similarity constraint) are used as candidates.  The paper notes
this is fast (no repository access) but the least accurate method because it
ignores the semantic association between attributes (Section 6.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

from repro.core.similarity import attribute_similarity
from repro.core.tuples import ImputedRecord, Record, Schema


@dataclass
class StreamConstraintImputer:
    """Impute from the most similar recently-seen complete stream tuples.

    Parameters
    ----------
    schema:
        Shared attribute schema.
    history_size:
        Number of recent complete tuples retained as imputation donors.
    min_similarity:
        Constraint on the (normalised) similarity over non-missing attributes
        a donor must reach to contribute candidates.
    top_k:
        Number of nearest donors whose values form the candidate
        distribution.
    """

    schema: Schema
    history_size: int = 200
    min_similarity: float = 0.2
    top_k: int = 3
    _history: Deque[Record] = field(default_factory=deque, repr=False)

    def observe(self, record: Record) -> None:
        """Add a stream tuple to the donor history (complete tuples only)."""
        if not record.is_complete(self.schema):
            return
        self._history.append(record)
        while len(self._history) > self.history_size:
            self._history.popleft()

    def _donor_similarity(self, record: Record, donor: Record) -> float:
        """Average per-attribute similarity over the record's present attributes."""
        present = [name for name in self.schema if not record.is_missing(name)]
        if not present:
            return 0.0
        total = sum(attribute_similarity(record, donor, name) for name in present)
        return total / len(present)

    def candidate_distribution(self, record: Record,
                               attribute: str) -> Dict[str, float]:
        """Candidate values for one missing attribute from nearby donors."""
        scored: List[tuple] = []
        for donor in self._history:
            if donor.rid == record.rid and donor.source == record.source:
                continue
            similarity = self._donor_similarity(record, donor)
            if similarity >= self.min_similarity:
                value = donor[attribute]
                if value is not None:
                    scored.append((similarity, value))
        if not scored:
            return {}
        scored.sort(key=lambda item: -item[0])
        top = scored[: self.top_k]
        weight_total = sum(weight for weight, _ in top)
        distribution: Dict[str, float] = {}
        for weight, value in top:
            distribution[value] = distribution.get(value, 0.0) + weight / weight_total
        return distribution

    def impute(self, record: Record) -> ImputedRecord:
        """Impute every missing attribute from the donor history."""
        candidates: Dict[str, Dict[str, float]] = {}
        for attribute in record.missing_attributes(self.schema):
            distribution = self.candidate_distribution(record, attribute)
            if distribution:
                candidates[attribute] = distribution
        return ImputedRecord(base=record, schema=self.schema, candidates=candidates)
