"""Record and probabilistic (imputed) tuple models.

The paper (Definitions 1 and 4) models every stream element as a *record*
``r_i`` with a unique profile identifier and ``d`` textual attribute values,
some of which may be missing (denoted ``-`` in the paper, ``None`` here).
Imputation turns an incomplete record into an *imputed record* ``r^p_i`` that
holds, for every missing attribute, a discrete distribution over candidate
values.  The imputed record therefore induces a set of mutually exclusive
*instances* ``r_{i,m}``, each a fully specified record with an existence
probability ``r_{i,m}.p`` such that the probabilities sum to at most one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.similarity import tokenize

#: Sentinel used in textual dumps for a missing attribute value (the paper
#: renders missing values as a dash).
MISSING_DISPLAY = "-"


class SchemaError(ValueError):
    """Raised when a record does not conform to the expected schema."""


@dataclass(frozen=True)
class Schema:
    """An ordered, homogeneous attribute schema shared by all streams.

    The paper assumes homogeneous schemas across the ``n`` incomplete data
    streams and the data repository ``R`` (Section 2.3).  A :class:`Schema`
    is simply the ordered tuple of attribute names; the identifier column is
    *not* part of the schema.
    """

    attributes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("a schema needs at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError("duplicate attribute names in schema")

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def __contains__(self, name: object) -> bool:
        return name in self.attributes

    def index(self, name: str) -> int:
        """Return the position of ``name`` in the schema."""
        try:
            return self.attributes.index(name)
        except ValueError as exc:
            raise SchemaError(f"unknown attribute {name!r}") from exc

    @property
    def dimensionality(self) -> int:
        """Number of attributes ``d`` used in the similarity function."""
        return len(self.attributes)


@dataclass(frozen=True)
class Record:
    """A (possibly incomplete) tuple from an incomplete data stream.

    Parameters
    ----------
    rid:
        Unique profile identifier ``rid_i``.
    values:
        Mapping from attribute name to textual value.  A missing attribute is
        represented by ``None`` (or may be absent from the mapping).
    source:
        Identifier of the data stream the record belongs to.  The TER-iDS
        problem statement asks for matches across *different* streams, so the
        engine uses ``source`` to avoid intra-stream pairs.
    timestamp:
        Arrival timestamp assigned by the stream.  ``-1`` means "not yet
        assigned" (e.g. repository samples).
    """

    rid: str
    values: Mapping[str, Optional[str]]
    source: str = "stream-0"
    timestamp: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))

    # -- attribute access --------------------------------------------------
    def __getitem__(self, attribute: str) -> Optional[str]:
        return self.values.get(attribute)

    def get(self, attribute: str, default: Optional[str] = None) -> Optional[str]:
        """Return the value of ``attribute`` or ``default`` when missing."""
        value = self.values.get(attribute)
        return default if value is None else value

    def is_missing(self, attribute: str) -> bool:
        """True when ``attribute`` has no value in this record."""
        return self.values.get(attribute) is None

    def missing_attributes(self, schema: Schema) -> List[str]:
        """Names of schema attributes with a missing value, in schema order."""
        return [name for name in schema if self.is_missing(name)]

    def is_complete(self, schema: Schema) -> bool:
        """True when every schema attribute has a value."""
        return not self.missing_attributes(schema)

    # -- token helpers -----------------------------------------------------
    def tokens(self, attribute: str) -> frozenset:
        """Token set ``T(r[A_j])`` of one attribute (empty when missing)."""
        value = self.values.get(attribute)
        if value is None:
            return frozenset()
        return tokenize(value)

    def all_tokens(self, schema: Schema) -> frozenset:
        """Union of token sets over all schema attributes."""
        out: set = set()
        for name in schema:
            out |= self.tokens(name)
        return frozenset(out)

    def contains_keyword(self, keywords: Iterable[str], schema: Schema) -> bool:
        """Topic predicate ϖ(r, K): does any keyword appear in the tokens?"""
        token_union = self.all_tokens(schema)
        return any(keyword.lower() in token_union for keyword in keywords)

    # -- convenience -------------------------------------------------------
    def with_value(self, attribute: str, value: Optional[str]) -> "Record":
        """Return a copy of this record with one attribute replaced."""
        new_values = dict(self.values)
        new_values[attribute] = value
        return Record(rid=self.rid, values=new_values, source=self.source,
                      timestamp=self.timestamp)

    def as_display_row(self, schema: Schema) -> List[str]:
        """Row of display strings, using ``-`` for missing values."""
        return [self.values.get(name) or MISSING_DISPLAY for name in schema]

    def __hash__(self) -> int:  # records are identified by rid + source
        return hash((self.rid, self.source))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.rid == other.rid and self.source == other.source


@dataclass(frozen=True)
class Instance:
    """One possible world ``r_{i,m}`` of an imputed record.

    An instance is a fully specified record together with its existence
    probability.  Instances of the same imputed record are mutually
    exclusive and their probabilities sum to at most one (Definition 4).
    """

    record: Record
    probability: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0 + 1e-9):
            raise ValueError(
                f"instance probability must be in [0, 1], got {self.probability}")

    def tokens(self, attribute: str) -> frozenset:
        """Token set of one attribute of the instance."""
        return self.record.tokens(attribute)


@dataclass
class ImputedRecord:
    """The imputed (probabilistic) version ``r^p_i`` of an incomplete record.

    ``candidates`` maps every *originally missing* attribute to a discrete
    distribution over candidate textual values (value -> probability).  The
    non-missing attributes keep their observed value with probability one.
    A record that was already complete has an empty ``candidates`` mapping
    and exactly one instance with probability one.
    """

    base: Record
    schema: Schema
    candidates: Dict[str, Dict[str, float]] = field(default_factory=dict)
    _instances: Optional[List[Instance]] = field(default=None, repr=False)

    MAX_INSTANCES = 256

    def __post_init__(self) -> None:
        for attribute, distribution in self.candidates.items():
            if attribute not in self.schema:
                raise SchemaError(f"candidate attribute {attribute!r} not in schema")
            if not distribution:
                raise ValueError(
                    f"empty candidate distribution for attribute {attribute!r}")
            total = sum(distribution.values())
            if total > 1.0 + 1e-6:
                raise ValueError(
                    f"candidate probabilities for {attribute!r} sum to {total} > 1")

    # -- basic properties ----------------------------------------------------
    @property
    def rid(self) -> str:
        return self.base.rid

    @property
    def source(self) -> str:
        return self.base.source

    @property
    def timestamp(self) -> int:
        return self.base.timestamp

    @property
    def imputed_attributes(self) -> List[str]:
        """Attributes whose values were filled in by the imputer."""
        return list(self.candidates)

    def is_trivial(self) -> bool:
        """True when the record required no imputation."""
        return not self.candidates

    # -- possible values -----------------------------------------------------
    def possible_values(self, attribute: str) -> Dict[str, float]:
        """Distribution of possible values of ``attribute`` (prob-weighted).

        For a non-missing attribute this is a single observed value with
        probability one; for an imputed attribute it is the candidate
        distribution produced by the imputer.
        """
        if attribute in self.candidates:
            return dict(self.candidates[attribute])
        value = self.base[attribute]
        if value is None:
            # Missing attribute that the imputer could not fill: the paper
            # treats it as an empty token set (similarity contribution 0).
            return {"": 1.0}
        return {value: 1.0}

    def token_size_bounds(self, attribute: str) -> Tuple[int, int]:
        """``[|T^-|, |T^+|]`` bounds of the token-set size on one attribute."""
        sizes = [len(tokenize(value)) for value in self.possible_values(attribute)]
        return min(sizes), max(sizes)

    def may_contain_keyword(self, keywords: Iterable[str]) -> bool:
        """Can *any* instance contain at least one topic keyword?

        Used by the topic keyword pruning (Theorem 4.1): a pair can be pruned
        only when neither tuple has *any chance* of containing a keyword.
        """
        lowered = [keyword.lower() for keyword in keywords]
        if not lowered:
            return False
        for name in self.schema:
            for value in self.possible_values(name):
                token_set = tokenize(value)
                if any(keyword in token_set for keyword in lowered):
                    return True
        return False

    # -- instances -----------------------------------------------------------
    def instances(self) -> List[Instance]:
        """Enumerate the mutually exclusive instances ``r_{i,m}``.

        The cross product over imputed attributes is capped at
        :attr:`MAX_INSTANCES` instances (keeping the most probable
        combinations) so that adversarial candidate distributions cannot blow
        up memory; the retained probability mass is reported faithfully, i.e.
        probabilities are *not* re-normalised, matching Definition 4's
        ``sum <= 1`` semantics.
        """
        if self._instances is not None:
            return self._instances

        if not self.candidates:
            instances = [Instance(record=self.base, probability=1.0)]
            self._instances = instances
            return instances

        attributes = list(self.candidates)
        per_attribute: List[List[Tuple[str, float]]] = []
        for attribute in attributes:
            ranked = sorted(self.candidates[attribute].items(),
                            key=lambda item: (-item[1], item[0]))
            per_attribute.append(ranked)

        combos: List[Tuple[Tuple[str, ...], float]] = []
        for assignment in itertools.product(*per_attribute):
            values = tuple(value for value, _ in assignment)
            probability = 1.0
            for _, p in assignment:
                probability *= p
            combos.append((values, probability))
        combos.sort(key=lambda item: (-item[1], item[0]))
        combos = combos[: self.MAX_INSTANCES]

        instances = []
        for values, probability in combos:
            record = self.base
            for attribute, value in zip(attributes, values):
                record = record.with_value(attribute, value)
            instances.append(Instance(record=record, probability=probability))
        self._instances = instances
        return instances

    def expected_instance(self) -> Record:
        """The single most probable instance (used for point predictions)."""
        return max(self.instances(), key=lambda inst: inst.probability).record

    def total_probability(self) -> float:
        """Total retained probability mass of the enumerated instances."""
        return sum(instance.probability for instance in self.instances())

    @classmethod
    def from_complete(cls, record: Record, schema: Schema) -> "ImputedRecord":
        """Wrap an already complete record as a trivial imputed record."""
        return cls(base=record, schema=schema, candidates={})


def make_records(rows: Sequence[Mapping[str, Optional[str]]], schema: Schema,
                 source: str = "stream-0", prefix: str = "r") -> List[Record]:
    """Build a list of records from dict rows, assigning sequential ids."""
    records = []
    for index, row in enumerate(rows):
        values = {name: row.get(name) for name in schema}
        records.append(Record(rid=f"{prefix}{index}", values=values, source=source))
    return records
