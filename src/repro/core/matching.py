"""TER-iDS matching semantics: the topic predicate and Equation (2).

The TER-iDS probability of a pair of imputed tuples is the total probability
mass of instance pairs that (a) contain at least one query keyword in either
instance and (b) have tuple similarity strictly greater than the similarity
threshold ``γ``::

    Pr(r_i, r_j) = Σ_m Σ_m'  p_m · p_m' · χ((ϖ(r_im,K) ∨ ϖ(r_jm',K)) ∧ sim > γ)

A pair is a TER-iDS answer when this probability exceeds the probabilistic
threshold ``α``.  :func:`ter_ids_probability` evaluates the sum exactly;
:func:`ter_ids_probability_with_cutoff` additionally implements the
instance-pair-level early termination of Theorem 4.4 (both for pruning and
for early acceptance once the accumulated mass already exceeds ``α``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.similarity import record_similarity
from repro.core.tuples import ImputedRecord, Instance, Record, Schema


def normalise_keywords(keywords: Iterable[str]) -> FrozenSet[str]:
    """Lower-case and deduplicate a keyword set ``K``."""
    return frozenset(keyword.lower() for keyword in keywords if keyword)


def topic_predicate(record: Record, keywords: FrozenSet[str], schema: Schema) -> bool:
    """ϖ(r, K): true when the record's tokens contain at least one keyword."""
    if not keywords:
        return False
    tokens = record.all_tokens(schema)
    return any(keyword in tokens for keyword in keywords)


def instance_pair_matches(
    left: Instance,
    right: Instance,
    keywords: FrozenSet[str],
    gamma: float,
    schema: Schema,
) -> bool:
    """χ(...) for one instance pair: topic constraint AND sim > γ."""
    if keywords:
        has_topic = (
            topic_predicate(left.record, keywords, schema)
            or topic_predicate(right.record, keywords, schema)
        )
        if not has_topic:
            return False
    return record_similarity(left.record, right.record, schema) > gamma


def ter_ids_probability(
    left: ImputedRecord,
    right: ImputedRecord,
    keywords: FrozenSet[str],
    gamma: float,
) -> float:
    """Exact TER-iDS probability (Equation (2)) of an imputed tuple pair."""
    schema = left.schema
    total = 0.0
    for left_instance in left.instances():
        for right_instance in right.instances():
            if instance_pair_matches(left_instance, right_instance,
                                     keywords, gamma, schema):
                total += left_instance.probability * right_instance.probability
    return total


def ter_ids_probability_with_cutoff(
    left: ImputedRecord,
    right: ImputedRecord,
    keywords: FrozenSet[str],
    gamma: float,
    alpha: float,
) -> Tuple[float, bool, int]:
    """Equation (2) with Theorem 4.4 early termination.

    Iterates over instance pairs in decreasing probability-mass order,
    keeping a lower bound (accumulated matching mass) and an upper bound
    (accumulated matching mass plus the unexplored mass).  Returns a tuple
    ``(probability_estimate, is_match, pairs_checked)``:

    * when the lower bound exceeds ``α`` the pair is accepted early;
    * when the upper bound drops to ``α`` or below the pair is pruned early
      (this is exactly Theorem 4.4);
    * otherwise the exact probability is returned.
    """
    schema = left.schema
    left_instances = sorted(left.instances(), key=lambda i: -i.probability)
    right_instances = sorted(right.instances(), key=lambda i: -i.probability)

    matched_mass = 0.0
    explored_mass = 0.0
    pairs_checked = 0
    for left_instance in left_instances:
        for right_instance in right_instances:
            pair_mass = left_instance.probability * right_instance.probability
            if instance_pair_matches(left_instance, right_instance,
                                     keywords, gamma, schema):
                matched_mass += pair_mass
            explored_mass += pair_mass
            pairs_checked += 1
            if matched_mass > alpha:
                return matched_mass, True, pairs_checked
            upper_bound = matched_mass + max(0.0, 1.0 - explored_mass)
            if upper_bound <= alpha:
                return upper_bound, False, pairs_checked
    return matched_mass, matched_mass > alpha, pairs_checked


@dataclass(frozen=True)
class MatchPair:
    """One TER-iDS answer: a pair of records deemed to be the same entity."""

    left_rid: str
    left_source: str
    right_rid: str
    right_source: str
    probability: float
    timestamp: int = -1

    def key(self) -> Tuple[Tuple[str, str], Tuple[str, str]]:
        """Order-independent identity of the pair."""
        left = (self.left_source, self.left_rid)
        right = (self.right_source, self.right_rid)
        return (left, right) if left <= right else (right, left)

    def involves(self, rid: str, source: str) -> bool:
        """True when one endpoint of the pair is the given record."""
        return ((self.left_rid == rid and self.left_source == source)
                or (self.right_rid == rid and self.right_source == source))

    @classmethod
    def from_records(cls, left: Record, right: Record, probability: float,
                     timestamp: int = -1) -> "MatchPair":
        return cls(left_rid=left.rid, left_source=left.source,
                   right_rid=right.rid, right_source=right.source,
                   probability=probability, timestamp=timestamp)


@dataclass
class EntityResultSet:
    """The maintained entity set ``ES`` of current TER-iDS answers.

    The engine adds pairs when new tuples arrive and removes every pair that
    involves an expired tuple (Algorithm 2, lines 4–5).  A per-record
    incidence index (``(rid, source)`` → the keys of the pairs touching that
    record) makes an expiry O(degree) and lets a reader walk the connected
    component of one record without scanning every pair.
    """

    _pairs: dict = field(default_factory=dict)
    _incident: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs.values())

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, MatchPair):
            return False
        return pair.key() in self._pairs

    def add(self, pair: MatchPair) -> None:
        """Insert or refresh a match pair."""
        key = pair.key()
        if key not in self._pairs:
            for source, rid in key:
                self._incident.setdefault((rid, source), {})[key] = None
        self._pairs[key] = pair

    def extend(self, pairs: Iterable[MatchPair]) -> None:
        for pair in pairs:
            self.add(pair)

    def remove_record(self, rid: str, source: str) -> int:
        """Drop every pair involving the given (expired) record.

        Returns the number of removed pairs.
        """
        keys = self._incident.pop((rid, source), {})
        for key in keys:
            del self._pairs[key]
            for other_source, other_rid in key:
                other = self._incident.get((other_rid, other_source))
                if other is not None:
                    del other[key]
                    if not other:
                        del self._incident[(other_rid, other_source)]
        return len(keys)

    def pairs_involving(self, rid: str, source: str) -> List[MatchPair]:
        """The pairs touching one record, in the order they were added."""
        pairs = self._pairs
        return [pairs[key] for key in self._incident.get((rid, source), ())]

    def pairs(self) -> List[MatchPair]:
        """Snapshot of the current answer set."""
        return list(self._pairs.values())

    def pair_keys(self) -> set:
        """Set of order-independent pair identities (for metric computation)."""
        return set(self._pairs.keys())

    def clear(self) -> None:
        self._pairs.clear()
        self._incident.clear()
