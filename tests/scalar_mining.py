"""Scalar reference miners: one ``text_distance`` per pair, per band.

The library mines CDD / DD interval rules and the pivot-candidate entropies
from per-attribute distance columns computed once (``pair_distance_columns``,
``jaccard_distance_column``).  This module keeps the per-pair loops those
replaced, verbatim in their arithmetic, as the oracle the columnar path must
equal bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.similarity import text_distance
from repro.imputation.cdd import (
    CDDDiscoveryConfig,
    CDDRule,
    _combine_rules,
    _mine_constant_rules,
    _sample_pairs,
    interval_rule_from_band,
)
from repro.imputation.dd import DDDiscoveryConfig, DDRule
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import PivotSelectionConfig


def scalar_interval_rules(repository: DataRepository, determinant: str,
                          dependent: str, pairs: Sequence[Tuple[int, int]],
                          config: CDDDiscoveryConfig) -> List[CDDRule]:
    """Interval rules ``A_x → A_j``: one pass over the pairs per band."""
    samples = repository.samples
    rules: List[CDDRule] = []
    for band in config.distance_bands:
        low, high = band
        dependent_distances: List[float] = []
        for i, j in pairs:
            left, right = samples[i], samples[j]
            det_distance = text_distance(left[determinant], right[determinant])
            if low - 1e-9 <= det_distance <= high + 1e-9:
                dependent_distances.append(
                    text_distance(left[dependent], right[dependent]))
        if not dependent_distances:
            continue
        rule = interval_rule_from_band(
            determinant, dependent, band,
            support=len(dependent_distances),
            dep_low=min(dependent_distances),
            dep_high=max(dependent_distances),
            config=config)
        if rule is not None:
            rules.append(rule)
    return rules


def scalar_discover_cdd_rules(
        repository: DataRepository,
        config: Optional[CDDDiscoveryConfig] = None) -> List[CDDRule]:
    """``discover_cdd_rules`` with the scalar interval miner."""
    config = config or CDDDiscoveryConfig()
    if len(repository) < 2:
        return []
    pairs = _sample_pairs(len(repository), config.max_pairs, config.seed)
    all_rules: List[CDDRule] = []
    for dependent in repository.schema:
        per_dependent: List[CDDRule] = []
        for determinant in repository.schema:
            if determinant == dependent:
                continue
            per_dependent.extend(scalar_interval_rules(
                repository, determinant, dependent, pairs, config))
            per_dependent.extend(
                _mine_constant_rules(repository, determinant, dependent, config))
        if config.combine_determinants:
            singles = [rule for rule in per_dependent
                       if len(rule.determinants) == 1]
            per_dependent.extend(_combine_rules(singles, dependent, config))
        all_rules.extend(per_dependent)
    return all_rules


def scalar_discover_dd_rules(
        repository: DataRepository,
        config: Optional[DDDiscoveryConfig] = None) -> List[DDRule]:
    """``discover_dd_rules`` with the scalar interval miner."""
    cdd_config = (config or DDDiscoveryConfig()).as_cdd_config()
    if len(repository) < 2:
        return []
    pairs = _sample_pairs(len(repository), cdd_config.max_pairs,
                          cdd_config.seed)
    return [DDRule(rule=mined)
            for dependent in repository.schema
            for determinant in repository.schema if determinant != dependent
            for mined in scalar_interval_rules(repository, determinant,
                                               dependent, pairs, cdd_config)]


def scalar_shannon_entropy(distances: Sequence[float], buckets: int) -> float:
    """Equation (5) as one loop over a Python list of distances."""
    if not distances or buckets < 2:
        return 0.0
    counts = [0] * buckets
    for distance in distances:
        index = min(buckets - 1, max(0, int(distance * buckets)))
        counts[index] += 1
    total = len(distances)
    entropy = 0.0
    for count in counts:
        if count:
            p = count / total
            entropy -= p * math.log(p)
    return entropy


def scalar_candidate_entropies(
        repository: DataRepository, attribute: str,
        config: PivotSelectionConfig) -> List[Tuple[float, str]]:
    """Entropy of every candidate pivot from a scalar distance list each."""
    domain = repository.domain(attribute)[: config.max_candidates]
    values = repository.values(attribute)
    scored: List[Tuple[float, str]] = []
    for candidate in domain:
        distances = [text_distance(value, candidate) for value in values]
        scored.append((scalar_shannon_entropy(distances, config.buckets),
                       candidate))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return scored
