"""Conditional differential dependencies (CDDs): rule model and discovery.

A CDD (Definition 3) has the form ``(X → A_j, φ[X A_j])`` where every
determinant attribute ``A_x ∈ X`` carries either a *distance constraint*
``[ε_min, ε_max]`` on the Jaccard distance between the two tuples' values, or
a *constant constraint* ``A_x = v`` (both tuples take the exact value ``v``),
and the dependent attribute carries a distance constraint ``A_j.I``.  Two
tuples that agree on all determinant constraints are required to have a
dependent-attribute distance inside ``A_j.I``.

Rule discovery follows the recipe in Section 2.2 (CDD Rule Detection): for
every dependent attribute and every candidate determinant attribute we mine
differential bands from sample pairs of the repository, tightening to
editing-rule-style constant conditions when the plain differential band is
not selective enough, and we additionally combine pairs of single-attribute
rules into two-attribute rules (the Gender+Symptom → Diagnosis shape of the
running example).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.similarity import (
    jaccard_distance_column,
    text_distance,
    token_postings,
    tokenize,
)
from repro.core.tuples import Record, Schema
from repro.imputation.repository import DataRepository

CONSTRAINT_INTERVAL = "interval"
CONSTRAINT_CONSTANT = "constant"
CONSTRAINT_MISSING = "missing"

#: Distance bands examined when mining interval constraints.  Each band is a
#: candidate ``[ε_min, ε_max]`` on the determinant attribute.
DEFAULT_DISTANCE_BANDS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.2),
    (0.0, 0.4),
    (0.2, 0.5),
    (0.0, 0.6),
)


class RuleError(ValueError):
    """Raised when a rule is built with inconsistent constraints."""


@dataclass(frozen=True)
class AttributeConstraint:
    """Constraint function φ[A_x] of one determinant attribute.

    ``kind`` is one of:

    * ``interval`` – the Jaccard distance between the two tuples' values must
      fall inside ``interval`` (inclusive);
    * ``constant`` – both tuples must take exactly the value ``constant``;
    * ``missing`` – the attribute is marked missing (interval ``[-1, -1]`` in
      the paper's aR-tree encoding); the constraint is vacuously true and the
      attribute is not indexed.
    """

    attribute: str
    kind: str
    interval: Tuple[float, float] = (0.0, 1.0)
    constant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (CONSTRAINT_INTERVAL, CONSTRAINT_CONSTANT, CONSTRAINT_MISSING):
            raise RuleError(f"unknown constraint kind {self.kind!r}")
        if self.kind == CONSTRAINT_INTERVAL:
            low, high = self.interval
            if not (0.0 <= low < high <= 1.0 + 1e-9):
                raise RuleError(
                    f"invalid distance interval {self.interval} for {self.attribute}")
        if self.kind == CONSTRAINT_CONSTANT and self.constant is None:
            raise RuleError(f"constant constraint on {self.attribute} needs a value")

    def satisfied_by(self, left_value: Optional[str], right_value: Optional[str]) -> bool:
        """Check ``(r_1, r_2) ≍ φ[A_x]`` for one attribute of two tuples."""
        if self.kind == CONSTRAINT_MISSING:
            return True
        if left_value is None or right_value is None:
            return False
        if self.kind == CONSTRAINT_CONSTANT:
            return left_value == self.constant and right_value == self.constant
        low, high = self.interval
        distance = text_distance(left_value, right_value)
        return low - 1e-9 <= distance <= high + 1e-9

    def describe(self) -> str:
        """Human-readable rendering used in logs and examples."""
        if self.kind == CONSTRAINT_CONSTANT:
            return f"{self.attribute}={self.constant!r}"
        if self.kind == CONSTRAINT_MISSING:
            return f"{self.attribute}=[-1,-1]"
        low, high = self.interval
        return f"{self.attribute}∈[{low:.2f},{high:.2f}]"


@dataclass(frozen=True)
class CDDRule:
    """A conditional differential dependency ``(X → A_j, φ[X A_j])``."""

    determinants: Tuple[AttributeConstraint, ...]
    dependent: str
    dependent_interval: Tuple[float, float]
    support: int = 0
    rule_id: str = ""

    def __post_init__(self) -> None:
        if not self.determinants:
            raise RuleError("a CDD needs at least one determinant attribute")
        names = [constraint.attribute for constraint in self.determinants]
        if len(set(names)) != len(names):
            raise RuleError("duplicate determinant attribute in CDD")
        if self.dependent in names:
            raise RuleError("dependent attribute cannot also be a determinant")
        low, high = self.dependent_interval
        if not (0.0 <= low <= high <= 1.0 + 1e-9):
            raise RuleError(f"invalid dependent interval {self.dependent_interval}")

    @functools.cached_property
    def determinant_attributes(self) -> Tuple[str, ...]:
        """Names of the determinant attributes ``X`` (cached: the rule is
        frozen)."""
        return tuple(constraint.attribute for constraint in self.determinants)

    @property
    def dependent_width(self) -> float:
        """Width of the dependent distance interval (smaller = tighter rule)."""
        low, high = self.dependent_interval
        return high - low

    def constraint_for(self, attribute: str) -> Optional[AttributeConstraint]:
        """The determinant constraint on ``attribute`` (None when absent)."""
        for constraint in self.determinants:
            if constraint.attribute == attribute:
                return constraint
        return None

    def applicable_to(self, record: Record, missing_attribute: str) -> bool:
        """Can this rule impute ``missing_attribute`` of ``record``?

        The rule must target the missing attribute and every non-``missing``
        determinant constraint must refer to a *present* attribute of the
        record (we cannot evaluate a distance against a missing value).
        """
        if self.dependent != missing_attribute:
            return False
        for constraint in self.determinants:
            if constraint.kind == CONSTRAINT_MISSING:
                continue
            if record.is_missing(constraint.attribute):
                return False
            if constraint.kind == CONSTRAINT_CONSTANT:
                if record[constraint.attribute] != constraint.constant:
                    return False
        return True

    def matches_sample(self, record: Record, sample: Record) -> bool:
        """Do ``record`` and ``sample`` satisfy all determinant constraints?"""
        for constraint in self.determinants:
            if not constraint.satisfied_by(record[constraint.attribute],
                                           sample[constraint.attribute]):
                return False
        return True

    def dependent_satisfied(self, left_value: str, right_value: str) -> bool:
        """Is the dependent-attribute distance within ``A_j.I``?"""
        low, high = self.dependent_interval
        distance = text_distance(left_value, right_value)
        return low - 1e-9 <= distance <= high + 1e-9

    def holds_for(self, left: Record, right: Record) -> bool:
        """Full CDD semantics on a pair: determinants satisfied ⇒ dependent in I."""
        if not self.matches_sample(left, right):
            return True
        left_value = left[self.dependent]
        right_value = right[self.dependent]
        if left_value is None or right_value is None:
            return True
        return self.dependent_satisfied(left_value, right_value)

    def describe(self) -> str:
        """Paper-style rendering, e.g. ``A B -> C, {a1, [0,0.1], [0,0.1]}``."""
        lhs = " ".join(self.determinant_attributes)
        constraints = ", ".join(c.describe() for c in self.determinants)
        low, high = self.dependent_interval
        return f"{lhs} -> {self.dependent}, {{{constraints}, [{low:.2f},{high:.2f}]}}"


@dataclass(frozen=True)
class CDDDiscoveryConfig:
    """Knobs of the CDD mining procedure (:func:`discover_cdd_rules`)."""

    max_dependent_width: float = 0.6
    min_support: int = 2
    max_pairs: int = 20_000
    distance_bands: Tuple[Tuple[float, float], ...] = DEFAULT_DISTANCE_BANDS
    max_constant_conditions: int = 25
    combine_determinants: bool = True
    max_combined_rules: int = 200
    seed: int = 13


def _sample_pairs(count: int, max_pairs: int, seed: int) -> List[Tuple[int, int]]:
    """All index pairs when small, otherwise a deterministic random sample."""
    total = count * (count - 1) // 2
    if total <= max_pairs:
        return [(i, j) for i in range(count) for j in range(i + 1, count)]
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < max_pairs:
        i = rng.randrange(count)
        j = rng.randrange(count)
        if i == j:
            continue
        pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def interval_rule_from_band(
    determinant: str,
    dependent: str,
    band: Tuple[float, float],
    support: int,
    dep_low: float,
    dep_high: float,
    config: CDDDiscoveryConfig,
) -> Optional[CDDRule]:
    """Emission decision of the interval miner from a band's statistics:
    ``None`` unless the band has enough support and a tight enough
    dependent interval; otherwise the rendered single-determinant rule."""
    if support < config.min_support:
        return None
    if dep_high - dep_low > config.max_dependent_width:
        return None
    low, high = band
    constraint = AttributeConstraint(attribute=determinant,
                                     kind=CONSTRAINT_INTERVAL,
                                     interval=band)
    return CDDRule(
        determinants=(constraint,),
        dependent=dependent,
        dependent_interval=(dep_low, min(1.0, dep_high)),
        support=support,
        rule_id=f"cdd:{determinant}->{dependent}:band[{low:.2f},{high:.2f}]",
    )


def constant_rule_from_group(
    determinant: str,
    value: str,
    group_size: int,
    dependent: str,
    dep_low: float,
    dep_high: float,
    config: CDDDiscoveryConfig,
) -> Optional[CDDRule]:
    """Emission decision of the constant-condition miner from group stats.

    ``group_size`` is the number of repository samples taking the constant
    ``value``; ``dep_low``/``dep_high`` bound the dependent-attribute
    distances over the group's sample pairs.
    """
    if group_size < config.min_support:
        return None
    if dep_high - dep_low > config.max_dependent_width:
        return None
    constraint = AttributeConstraint(attribute=determinant,
                                     kind=CONSTRAINT_CONSTANT,
                                     constant=value)
    # The full constant value keeps the id unique: two distinct constants
    # must never share an id (a truncated prefix would conflate them).
    return CDDRule(
        determinants=(constraint,),
        dependent=dependent,
        dependent_interval=(dep_low, min(1.0, dep_high)),
        support=group_size,
        rule_id=f"cdd:{determinant}={value}->{dependent}",
    )


def pair_distance_columns(
    repository: DataRepository,
    pairs: Sequence[Tuple[int, int]],
) -> Dict[str, np.ndarray]:
    """Per-attribute distance columns over sampled sample pairs.

    ``columns[A][k]`` is ``text_distance(s_i[A], s_j[A])`` for ``(i, j) =
    pairs[k]``, bit for bit: each run of pairs sharing a left index is one
    :func:`~repro.core.similarity.jaccard_distance_column` call over the
    attribute's value column, gathered at the right indices.  Every
    distance the miners need is computed once, and nothing ``n × n`` is
    held — one length-``n`` column per left index, transiently.
    """
    left = np.fromiter((i for i, _ in pairs), dtype=np.intp, count=len(pairs))
    right = np.fromiter((j for _, j in pairs), dtype=np.intp, count=len(pairs))
    starts = np.flatnonzero(np.diff(left, prepend=-1)).tolist()
    runs = list(zip(starts, starts[1:] + [len(pairs)]))
    columns: Dict[str, np.ndarray] = {}
    for attribute in repository.schema:
        values = repository.values(attribute)
        postings, sizes = token_postings(values)
        column = np.empty(len(pairs), dtype=np.float64)
        for start, stop in runs:
            distances = jaccard_distance_column(
                tokenize(values[left[start]]), postings, sizes)
            column[start:stop] = distances[right[start:stop]]
        columns[attribute] = column
    return columns


def band_range(determinant: np.ndarray, dependent: np.ndarray,
               band: Tuple[float, float]) -> Tuple[int, float, float]:
    """``(support, min, max)`` of the dependent distances inside one band.

    The band test is the miner's inclusive ``low - 1e-9 <= d <= high + 1e-9``
    on the determinant column; ``min`` / ``max`` are meaningless (and
    returned as ``(1.0, 0.0)``) when the support is zero.
    """
    low, high = band
    mask = (determinant >= low - 1e-9) & (determinant <= high + 1e-9)
    support = int(np.count_nonzero(mask))
    if not support:
        return 0, 1.0, 0.0
    selected = dependent[mask]
    return support, float(selected.min()), float(selected.max())


def _mine_interval_rules(
    determinant: str,
    dependent: str,
    columns: Dict[str, np.ndarray],
    config: CDDDiscoveryConfig,
) -> List[CDDRule]:
    """Mine interval-constraint rules ``A_x → A_j`` from sampled pairs.

    ``columns`` are the :func:`pair_distance_columns` of the sampled pairs.
    Each distance band is one mask over the determinant column; its support
    and the dependent interval are the mask's count and the ``min`` / ``max``
    of the dependent column under it (:func:`band_range`).
    """
    rules: List[CDDRule] = []
    for band in config.distance_bands:
        support, dep_low, dep_high = band_range(
            columns[determinant], columns[dependent], band)
        if not support:
            continue
        rule = interval_rule_from_band(
            determinant, dependent, band, support=support,
            dep_low=dep_low, dep_high=dep_high, config=config)
        if rule is not None:
            rules.append(rule)
    return rules


def _mine_constant_rules(
    repository: DataRepository,
    determinant: str,
    dependent: str,
    config: CDDDiscoveryConfig,
) -> List[CDDRule]:
    """Mine constant-condition rules (editing-rule shape) ``A_x=v → A_j``."""
    groups: Dict[str, List[Record]] = {}
    for sample in repository.samples:
        groups.setdefault(sample[determinant], []).append(sample)  # type: ignore[arg-type]

    ranked = sorted(groups.items(), key=lambda item: -len(item[1]))
    rules: List[CDDRule] = []
    for value, members in ranked[: config.max_constant_conditions]:
        if len(members) < config.min_support:
            continue
        distances = [
            text_distance(left[dependent], right[dependent])
            for left, right in itertools.combinations(members, 2)
        ]
        if not distances:
            continue
        rule = constant_rule_from_group(
            determinant, value, len(members), dependent,
            dep_low=min(distances), dep_high=max(distances), config=config)
        if rule is not None:
            rules.append(rule)
    return rules


def _combine_rules(rules: Sequence[CDDRule], dependent: str,
                   config: CDDDiscoveryConfig) -> List[CDDRule]:
    """Combine single-determinant rules into two-determinant rules.

    The combined rule requires both determinant constraints and takes the
    tighter (intersection) dependent interval, mirroring the lattice Level 2
    of the CDD-index.
    """
    combined: List[CDDRule] = []
    for left, right in itertools.combinations(rules, 2):
        if left.determinant_attributes == right.determinant_attributes:
            continue
        if set(left.determinant_attributes) & set(right.determinant_attributes):
            continue
        low = max(left.dependent_interval[0], right.dependent_interval[0])
        high = min(left.dependent_interval[1], right.dependent_interval[1])
        if low > high:
            # Disjoint dependent intervals: fall back to their union so the
            # combined rule stays sound (it only ever widens the constraint).
            low = min(left.dependent_interval[0], right.dependent_interval[0])
            high = max(left.dependent_interval[1], right.dependent_interval[1])
        combined.append(CDDRule(
            determinants=left.determinants + right.determinants,
            dependent=dependent,
            dependent_interval=(low, high),
            support=min(left.support, right.support),
            rule_id=f"{left.rule_id}+{right.rule_id}",
        ))
        if len(combined) >= config.max_combined_rules:
            break
    return combined


def discover_cdd_rules(
    repository: DataRepository,
    config: Optional[CDDDiscoveryConfig] = None,
    dependents: Optional[Iterable[str]] = None,
) -> List[CDDRule]:
    """Mine CDD rules from a complete data repository.

    For every dependent attribute ``A_j`` (all schema attributes by default)
    and every other attribute ``A_x`` the miner emits:

    * interval-constraint rules for each distance band whose induced
      dependent interval is tight enough;
    * constant-condition rules for frequent constants of ``A_x`` whose group
      agrees on ``A_j`` within a tight interval;
    * two-determinant combinations of the above (optional).
    """
    config = config or CDDDiscoveryConfig()
    schema = repository.schema
    if len(repository) < 2:
        return []

    columns = pair_distance_columns(
        repository, _sample_pairs(len(repository), config.max_pairs, config.seed))
    targets = list(dependents) if dependents is not None else list(schema)

    all_rules: List[CDDRule] = []
    for dependent in targets:
        per_dependent: List[CDDRule] = []
        for determinant in schema:
            if determinant == dependent:
                continue
            per_dependent.extend(
                _mine_interval_rules(determinant, dependent, columns, config))
            per_dependent.extend(
                _mine_constant_rules(repository, determinant, dependent, config))
        if config.combine_determinants:
            singles = [rule for rule in per_dependent
                       if len(rule.determinants) == 1]
            per_dependent.extend(_combine_rules(singles, dependent, config))
        all_rules.extend(per_dependent)
    return all_rules


def rules_for_attribute(rules: Iterable[CDDRule], dependent: str) -> List[CDDRule]:
    """Filter a rule collection down to one dependent attribute."""
    return [rule for rule in rules if rule.dependent == dependent]


def group_rules_by_dependent(rules: Iterable[CDDRule]) -> Dict[str, List[CDDRule]]:
    """Bucket rules by dependent attribute (the CDD-index is built per A_j)."""
    grouped: Dict[str, List[CDDRule]] = {}
    for rule in rules:
        grouped.setdefault(rule.dependent, []).append(rule)
    return grouped
