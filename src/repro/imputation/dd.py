"""Differential dependencies (DDs) — the imputation baseline CDDs refine.

A DD [Song & Chen, TODS 2011] is a CDD whose determinant constraints are all
*distance intervals* (no constant conditions).  The paper compares against a
``DD+ER`` baseline whose rules, having looser constraints than CDDs, retrieve
more candidate samples, produce more imputed instances and are both slower
and slightly less accurate (Section 6.3).

We represent a DD as a thin wrapper around :class:`~repro.imputation.cdd.CDDRule`
restricted to interval constraints, so the same imputation machinery applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.imputation.cdd import (
    CONSTRAINT_INTERVAL,
    AttributeConstraint,
    CDDDiscoveryConfig,
    CDDRule,
    RuleError,
    _mine_interval_rules,
    _sample_pairs,
    pair_distance_columns,
)
from repro.imputation.repository import DataRepository

#: DD mining uses wider bands than CDD mining: without constant conditions
#: the rules must cover the full determinant range to stay applicable.
DEFAULT_DD_BANDS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.3),
    (0.0, 0.5),
    (0.0, 0.7),
)


@dataclass(frozen=True)
class DDRule:
    """A differential dependency ``X → A_j`` with interval constraints only."""

    rule: CDDRule

    def __post_init__(self) -> None:
        for constraint in self.rule.determinants:
            if constraint.kind != CONSTRAINT_INTERVAL:
                raise RuleError("DD rules only allow interval constraints")

    @property
    def determinants(self) -> Tuple[AttributeConstraint, ...]:
        return self.rule.determinants

    @property
    def determinant_attributes(self) -> Tuple[str, ...]:
        return self.rule.determinant_attributes

    @property
    def dependent(self) -> str:
        return self.rule.dependent

    @property
    def dependent_interval(self) -> Tuple[float, float]:
        return self.rule.dependent_interval

    @property
    def support(self) -> int:
        return self.rule.support

    def applicable_to(self, record, missing_attribute: str) -> bool:
        """Delegate applicability to the wrapped CDD semantics."""
        return self.rule.applicable_to(record, missing_attribute)

    def matches_sample(self, record, sample) -> bool:
        """Delegate determinant-constraint checking to the wrapped rule."""
        return self.rule.matches_sample(record, sample)

    def describe(self) -> str:
        return "DD " + self.rule.describe()


@dataclass(frozen=True)
class DDDiscoveryConfig:
    """Knobs of the DD mining procedure (looser than CDD mining)."""

    max_dependent_width: float = 1.0
    min_support: int = 2
    max_pairs: int = 20_000
    distance_bands: Tuple[Tuple[float, float], ...] = DEFAULT_DD_BANDS
    seed: int = 17

    def as_cdd_config(self) -> CDDDiscoveryConfig:
        """Translate into the shared mining configuration."""
        return CDDDiscoveryConfig(
            max_dependent_width=self.max_dependent_width,
            min_support=self.min_support,
            max_pairs=self.max_pairs,
            distance_bands=self.distance_bands,
            max_constant_conditions=0,
            combine_determinants=False,
            seed=self.seed,
        )


def discover_dd_rules(
    repository: DataRepository,
    config: Optional[DDDiscoveryConfig] = None,
    dependents: Optional[Iterable[str]] = None,
) -> List[DDRule]:
    """Mine differential dependencies from a complete data repository.

    The procedure mirrors CDD mining but only emits interval-constraint
    single-determinant rules with a wider tolerated dependent interval.
    """
    config = config or DDDiscoveryConfig()
    cdd_config = config.as_cdd_config()
    schema = repository.schema
    if len(repository) < 2:
        return []

    columns = pair_distance_columns(
        repository,
        _sample_pairs(len(repository), cdd_config.max_pairs, cdd_config.seed))
    targets = list(dependents) if dependents is not None else list(schema)

    rules: List[DDRule] = []
    for dependent in targets:
        for determinant in schema:
            if determinant == dependent:
                continue
            for mined in _mine_interval_rules(determinant, dependent,
                                              columns, cdd_config):
                rules.append(DDRule(rule=mined))
    return rules


def dd_rules_as_cdds(rules: Iterable[DDRule]) -> List[CDDRule]:
    """Unwrap DD rules so the shared CDD imputer can consume them."""
    return [rule.rule for rule in rules]


def group_dd_rules_by_dependent(rules: Iterable[DDRule]) -> Dict[str, List[DDRule]]:
    """Bucket DD rules by dependent attribute."""
    grouped: Dict[str, List[DDRule]] = {}
    for rule in rules:
        grouped.setdefault(rule.dependent, []).append(rule)
    return grouped
