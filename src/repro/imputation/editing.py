"""Editing rules [Fan et al., VLDB 2010] — the ``er+ER`` imputation baseline.

An editing rule imputes a missing attribute with a *certain fix*: when the
incomplete tuple agrees exactly with a master-data (repository) sample on a
set of determinant attributes, the sample's dependent value is copied.  The
paper uses editing rules both as a standalone baseline (``er+ER``) and as the
fallback inside CDD detection when an attribute cannot impute accurately with
a distance interval.

Because editing rules require exact equality they retrieve fewer candidate
samples than DDs/CDDs on sparse textual data, which is why the paper reports
lower imputation accuracy for ``er+ER`` (Section 6.3, Figure 5(a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.tuples import ImputedRecord, Record
from repro.imputation.repository import DataRepository


@dataclass(frozen=True)
class EditingRule:
    """``(X = pattern) → A_j``: copy the dependent value on exact agreement."""

    determinants: Tuple[str, ...]
    dependent: str

    def __post_init__(self) -> None:
        if not self.determinants:
            raise ValueError("an editing rule needs at least one determinant")
        if self.dependent in self.determinants:
            raise ValueError("dependent attribute cannot be a determinant")

    def applicable_to(self, record: Record, missing_attribute: str) -> bool:
        """The rule targets the missing attribute and determinants are present."""
        if self.dependent != missing_attribute:
            return False
        return all(not record.is_missing(name) for name in self.determinants)

    def matches_sample(self, record: Record, sample: Record) -> bool:
        """Exact equality on every determinant attribute."""
        return all(record[name] == sample[name] for name in self.determinants)

    def describe(self) -> str:
        lhs = " ".join(self.determinants)
        return f"ER {lhs} = match -> {self.dependent}"


def discover_editing_rules(repository: DataRepository) -> List[EditingRule]:
    """Enumerate editing rules over single attributes and attribute pairs.

    Editing rules are schema-level statements (the master data provides the
    patterns at imputation time), so discovery only decides which determinant
    sets are worth using: an attribute (or pair) qualifies when its values
    are reasonably discriminative in the repository, i.e. matching on it
    pins down few samples.
    """
    schema = repository.schema
    rules: List[EditingRule] = []
    total = max(1, len(repository))
    for dependent in schema:
        for determinant in schema:
            if determinant == dependent:
                continue
            distinct = repository.domain_size(determinant)
            # Require some selectivity: on average at most ~25% of samples
            # share one determinant value.
            if distinct >= max(2, total // 4):
                rules.append(EditingRule(determinants=(determinant,),
                                         dependent=dependent))
        others = [name for name in schema if name != dependent]
        for i in range(len(others)):
            for j in range(i + 1, len(others)):
                rules.append(EditingRule(determinants=(others[i], others[j]),
                                         dependent=dependent))
    return rules


@dataclass
class EditingRuleImputer:
    """Impute missing attributes by exact-match lookups against master data."""

    repository: DataRepository
    rules: List[EditingRule]
    samples_scanned: int = field(default=0, repr=False)

    def candidate_distribution(self, record: Record,
                               attribute: str) -> Dict[str, float]:
        """Candidate values (with probabilities) for one missing attribute."""
        counts: Dict[str, int] = {}
        for rule in self.rules:
            if not rule.applicable_to(record, attribute):
                continue
            for sample in self.repository.samples:
                self.samples_scanned += 1
                if rule.matches_sample(record, sample):
                    value = sample[attribute]
                    if value is not None:
                        counts[value] = counts.get(value, 0) + 1
        total = sum(counts.values())
        if total == 0:
            return {}
        return {value: count / total for value, count in counts.items()}

    def impute(self, record: Record) -> ImputedRecord:
        """Impute every missing attribute of ``record`` (empty dist ⇒ left missing)."""
        schema = self.repository.schema
        candidates: Dict[str, Dict[str, float]] = {}
        for attribute in record.missing_attributes(schema):
            distribution = self.candidate_distribution(record, attribute)
            if distribution:
                candidates[attribute] = distribution
        return ImputedRecord(base=record, schema=schema, candidates=candidates)
