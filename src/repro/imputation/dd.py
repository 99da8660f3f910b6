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

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.imputation.cdd import (
    CONSTRAINT_INTERVAL,
    MAINTENANCE_FULL,
    AttributeConstraint,
    CDDDiscoveryConfig,
    CDDRule,
    RuleError,
    _mine_interval_rules,
    _sample_pairs,
    pair_distance_columns,
)
from repro.imputation.incremental import IncrementalRuleMaintainer
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
    """Knobs of the DD mining procedure (looser than CDD mining).

    The maintenance knobs mirror :class:`CDDDiscoveryConfig` so the DD
    baseline can run the same incremental sketch machinery (band sketches,
    pending pool, drift-triggered hybrid re-mine) via
    :class:`IncrementalDDMaintainer` — keeping ``DD+ER`` comparisons honest
    once the CDD side maintains rules incrementally.
    """

    max_dependent_width: float = 1.0
    min_support: int = 2
    max_pairs: int = 20_000
    distance_bands: Tuple[Tuple[float, float], ...] = DEFAULT_DD_BANDS
    seed: int = 17
    maintenance_mode: str = MAINTENANCE_FULL
    min_confidence: float = 0.5
    drift_threshold: float = 0.35
    pending_pool_size: int = 64
    max_update_pairs: int = 4000
    max_group_pairs_per_sample: int = 64

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
            maintenance_mode=self.maintenance_mode,
            min_confidence=self.min_confidence,
            drift_threshold=self.drift_threshold,
            pending_pool_size=self.pending_pool_size,
            max_update_pairs=self.max_update_pairs,
            max_group_pairs_per_sample=self.max_group_pairs_per_sample,
        )

    def __post_init__(self) -> None:
        # Delegate validation (bands, supports, maintenance knobs) to the
        # shared CDD configuration so both miners reject the same inputs.
        self.as_cdd_config()


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


@dataclass
class DDMaintenanceReport:
    """Outcome of one :meth:`IncrementalDDMaintainer.absorb` call.

    The DD-typed mirror of
    :class:`~repro.imputation.incremental.MaintenanceReport`.
    """

    rules: List[DDRule]
    rules_changed: bool
    remined: bool
    drift: float
    promoted: List[str] = field(default_factory=list)
    retired: List[str] = field(default_factory=list)
    deferred: List[str] = field(default_factory=list)
    widened: int = 0
    widened_ids: List[str] = field(default_factory=list)
    pairs_observed: int = 0
    pairs_skipped: int = 0


class IncrementalDDMaintainer:
    """Maintains a DD rule set under repository extensions in O(batch).

    The DD baseline shares the CDD miner's band pass, so incremental
    maintenance is pure delegation: an
    :class:`~repro.imputation.incremental.IncrementalRuleMaintainer` runs
    over the DD-translated configuration (interval bands only — no constant
    groups qualify, no combined rules) and every emitted rule is wrapped
    back into a :class:`DDRule`.  ``initialize`` matches
    :func:`discover_dd_rules` exactly; ``absorb`` folds a batch into the
    band sketches without revisiting pre-existing repository pairs.
    """

    def __init__(self, config: Optional[DDDiscoveryConfig],
                 schema) -> None:
        self.config = config or DDDiscoveryConfig()
        self._inner = IncrementalRuleMaintainer(self.config.as_cdd_config(),
                                                schema)

    @property
    def rules(self) -> List[DDRule]:
        return [DDRule(rule=rule) for rule in self._inner.rules]

    @property
    def drift(self) -> float:
        return self._inner.drift

    @property
    def full_resyncs(self) -> int:
        return self._inner.full_resyncs

    def initialize(self, repository: DataRepository) -> List[DDRule]:
        """Exact sketch pass over the repository; equals a full DD mine."""
        return [DDRule(rule=rule)
                for rule in self._inner.initialize(repository)]

    def absorb(self, repository: DataRepository, added: Sequence,
               force_full: bool = False) -> DDMaintenanceReport:
        """Fold a batch of new samples into the sketches, regenerate rules."""
        report = self._inner.absorb(repository, added, force_full=force_full)
        return DDMaintenanceReport(
            rules=[DDRule(rule=rule) for rule in report.rules],
            rules_changed=report.rules_changed,
            remined=report.remined,
            drift=report.drift,
            promoted=list(report.promoted),
            retired=list(report.retired),
            deferred=list(report.deferred),
            widened=report.widened,
            widened_ids=list(report.widened_ids),
            pairs_observed=report.pairs_observed,
            pairs_skipped=report.pairs_skipped,
        )

    def state_to_dict(self) -> Dict:
        """Checkpointable sufficient statistics (delegated)."""
        return self._inner.state_to_dict()

    def restore_state(self, state: Dict) -> List[DDRule]:
        """Restore the sketches and return the regenerated DD rules."""
        return [DDRule(rule=rule)
                for rule in self._inner.restore_state(state)]


def dd_rules_as_cdds(rules: Iterable[DDRule]) -> List[CDDRule]:
    """Unwrap DD rules so the shared CDD imputer can consume them."""
    return [rule.rule for rule in rules]


def group_dd_rules_by_dependent(rules: Iterable[DDRule]) -> Dict[str, List[DDRule]]:
    """Bucket DD rules by dependent attribute."""
    grouped: Dict[str, List[DDRule]] = {}
    for rule in rules:
        grouped.setdefault(rule.dependent, []).append(rule)
    return grouped
