"""The static, complete data repository ``R`` used for imputation.

The paper assumes a repository of complete historical records collected from
the same application (Section 2.2).  The repository exposes the attribute
domains ``dom(A_j)`` (all values observed for an attribute), which the CDD
imputation uses as the candidate pool, and supports incremental extension
with new complete samples (Section 5.5, dynamic repository).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.core.tuples import Record, Schema


class RepositoryError(ValueError):
    """Raised when the repository is fed inconsistent data."""


@dataclass
class DataRepository:
    """A collection of complete sample tuples ``s ∈ R``.

    Parameters
    ----------
    schema:
        The shared attribute schema.
    samples:
        Complete records; a record with a missing schema attribute is
        rejected because the imputation rules assume complete samples.
    """

    schema: Schema
    samples: List[Record] = field(default_factory=list)
    _domains: Dict[str, List[str]] = field(default_factory=dict, repr=False)
    _domain_sets: Dict[str, Set[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        existing = list(self.samples)
        self.samples = []
        # Always rebuild the domain caches from scratch: a caller may hand us
        # pre-populated caches (``dataclasses.replace`` copies them from the
        # source repository), and re-adding the samples into shared or stale
        # dicts would double-count domains — ``domain_size`` would then stay
        # wrong forever, including after every later ``extend``.
        self._domains = {}
        self._domain_sets = {}
        for sample in existing:
            self.add_sample(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    # -- mutation ------------------------------------------------------------
    def add_sample(self, sample: Record) -> None:
        """Insert one complete sample (Section 5.5 incremental updates)."""
        missing = sample.missing_attributes(self.schema)
        if missing:
            raise RepositoryError(
                f"repository samples must be complete; {sample.rid} misses {missing}")
        self.samples.append(sample)
        for attribute in self.schema:
            value = sample[attribute]
            assert value is not None
            bucket = self._domain_sets.setdefault(attribute, set())
            if value not in bucket:
                bucket.add(value)
                self._domains.setdefault(attribute, []).append(value)

    def extend(self, samples: Iterable[Record]) -> None:
        """Insert a batch of complete samples."""
        for sample in samples:
            self.add_sample(sample)

    # -- domains ---------------------------------------------------------------
    def domain(self, attribute: str) -> List[str]:
        """``dom(A_j)``: the distinct values of one attribute, insertion order."""
        if attribute not in self.schema:
            raise RepositoryError(f"unknown attribute {attribute!r}")
        return list(self._domains.get(attribute, []))

    def domain_size(self, attribute: str) -> int:
        """Number of distinct values of one attribute."""
        return len(self._domains.get(attribute, []))

    # -- retrieval -------------------------------------------------------------
    def values(self, attribute: str) -> List[str]:
        """Per-sample values of one attribute (with repetitions)."""
        return [sample[attribute] for sample in self.samples]  # type: ignore[misc]
