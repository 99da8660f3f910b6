"""Rule-based imputers implementing Equations (3) and (4) of the paper.

Given an incomplete tuple ``r`` with missing attribute ``A_j`` and a set of
CDD rules ``X_i → A_j``:

1. for every applicable rule, retrieve the repository samples ``s`` that
   satisfy the rule's determinant constraints w.r.t. ``r``;
2. for every such sample, collect the candidate set ``cand(s[A_j])`` of
   domain values whose Jaccard distance to ``s[A_j]`` lies inside the
   dependent interval ``A_j.I``;
3. aggregate candidate frequencies per rule (Eq. 3) and across all rules
   (Eq. 4), normalising into existence probabilities.

The imputer exposes counters (rules considered, samples scanned, candidate
values generated) used by the break-up cost experiment (Figure 6) and by the
baseline comparisons.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.similarity import (
    jaccard_distance_column,
    text_distance,
    token_postings,
    tokenize,
)
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.imputation.cdd import CDDRule, group_rules_by_dependent
from repro.imputation.dd import DDRule, dd_rules_as_cdds
from repro.imputation.repository import DataRepository

if TYPE_CHECKING:  # pragma: no cover - the index package imports this one
    from repro.indexes.dr_index import DRIndex

#: Optional hook that, given (record, rule), returns candidate repository
#: samples to test against the rule.  The index-join engine plugs the
#: DR-index here; the default scans the whole repository.
SampleRetriever = Callable[[Record, CDDRule], Sequence[Record]]


@dataclass
class ImputationStats:
    """Counters describing the work done by an imputer."""

    records_imputed: int = 0
    attributes_imputed: int = 0
    attributes_unimputable: int = 0
    rules_considered: int = 0
    rules_applied: int = 0
    samples_scanned: int = 0
    samples_matched: int = 0
    candidate_values: int = 0

    def merge(self, other: "ImputationStats") -> None:
        """Accumulate another stats object into this one."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)

    def as_dict(self) -> Dict[str, int]:
        """Every counter by field name, in declaration order (checkpoints,
        snapshots, telemetry and the experiment harness read this)."""
        return asdict(self)


def candidate_set_for_sample(sample_value: str, domain: Sequence[str],
                             dependent_interval: Tuple[float, float],
                             max_candidates: int = 12) -> List[str]:
    """``cand(s[A_j])``: domain values within the dependent distance interval.

    When the interval admits more than ``max_candidates`` domain values, the
    ones closest to ``s[A_j]`` are kept — the far end of a wide interval
    carries no information about the missing value and only dilutes the
    Eq. (3)/(4) frequency distribution.
    """
    low, high = dependent_interval
    scored: List[Tuple[float, str]] = []
    for value in domain:
        distance = text_distance(sample_value, value)
        if low - 1e-9 <= distance <= high + 1e-9:
            scored.append((distance, value))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [value for _, value in scored[:max_candidates]]


def candidate_set_from_columns(sample_value: str, domain: Sequence[str],
                               postings, sizes,
                               dependent_interval: Tuple[float, float],
                               max_candidates: int = 12) -> List[str]:
    """Columnar :func:`candidate_set_for_sample`: same values, same order.

    ``postings`` / ``sizes`` are :func:`token_postings` of ``domain``.  The
    whole domain is scored by one :func:`jaccard_distance_column` call; the
    ``(distance, value)`` sort and the cap touch the survivors only.
    """
    low, high = dependent_interval
    distances = jaccard_distance_column(tokenize(sample_value), postings, sizes)
    rows = np.flatnonzero((low - 1e-9 <= distances) & (distances <= high + 1e-9))
    scored = sorted(zip(distances[rows].tolist(),
                        (domain[row] for row in rows.tolist())))
    return [value for _, value in scored[:max_candidates]]


def truncate_distribution(distribution: Dict[str, float],
                          max_values: int) -> Dict[str, float]:
    """Keep the ``max_values`` most probable candidates and renormalise.

    The paper keeps every candidate value; in practice the tail of the
    Eq. (4) distribution carries negligible mass while inflating the number
    of tuple instances (and therefore the Eq. (2) evaluation cost)
    exponentially in the number of missing attributes.  Truncating to the
    head of the distribution bounds that blow-up.
    """
    if max_values <= 0 or len(distribution) <= max_values:
        return distribution
    ranked = sorted(distribution.items(), key=lambda item: (-item[1], item[0]))
    kept = dict(ranked[:max_values])
    total = sum(kept.values())
    return {value: probability / total for value, probability in kept.items()}


def combine_frequencies(per_rule_frequencies: Sequence[Dict[str, int]]) -> Dict[str, float]:
    """Equation (4): merge per-rule frequency distributions into probabilities."""
    total = 0
    merged: Dict[str, int] = {}
    for frequencies in per_rule_frequencies:
        for value, count in frequencies.items():
            merged[value] = merged.get(value, 0) + count
            total += count
    if total == 0:
        return {}
    return {value: count / total for value, count in merged.items()}


@dataclass
class CDDImputer:
    """The paper's CDD-based imputer (multi-rule strategy, Eq. (4)).

    Parameters
    ----------
    repository:
        The static complete data repository ``R``.
    rules:
        The mined CDD rules (all dependent attributes mixed; they are grouped
        internally).
    max_candidates_per_sample:
        Cap on ``|cand(s[A_j])|`` to keep the candidate pool bounded.
    max_rules_per_attribute:
        Upper bound on the number of rules consulted per missing attribute
        (the tightest rules — smallest dependent interval — are preferred).
    sample_retriever:
        Optional pluggable sample-retrieval hook (the index join supplies a
        DR-index-backed retriever; the default scans ``R``).
    candidate_cache:
        Optional mutable mapping memoising ``cand(s[A_j])`` computations
        across records.  ``candidate_set_for_sample`` depends only on the
        sample value, the attribute domain and the rule's dependent interval,
        so its results can be shared between all records of a micro-batch
        (and across batches).  The cache key includes the domain size, which
        only grows (the repository is append-only), so stale hits are
        impossible.  ``None`` (the default) disables memoisation and keeps
        the single-tuple engine's exact seed behaviour.

    ``packed_index`` (not a constructor argument; ``None`` by default) is the
    DR-index behind ``sample_retriever``.  Once the batched runtime sets it,
    ``matching_samples`` is answered by the index's packed probe and
    ``cand(s[A_j])`` by the columnar domain scan — bit-identical to the
    scalar retrieve-then-verify path, which stays the reference.
    """

    repository: DataRepository
    rules: Sequence[CDDRule]
    max_candidates_per_sample: int = 12
    max_rules_per_attribute: int = 12
    max_candidate_values: int = 16
    sample_retriever: Optional[SampleRetriever] = None
    stats: ImputationStats = field(default_factory=ImputationStats)
    candidate_cache: Optional[MutableMapping] = field(default=None, repr=False)
    packed_index: Optional["DRIndex"] = field(default=None, init=False,
                                              repr=False)
    _rules_by_dependent: Dict[str, List[CDDRule]] = field(default_factory=dict, repr=False)
    #: attribute -> ``token_postings`` of its domain (columnar scan only).
    _domain_columns: Dict[str, tuple] = field(default_factory=dict, init=False,
                                              repr=False)

    def __post_init__(self) -> None:
        self._regroup_rules()

    def _regroup_rules(self) -> None:
        grouped = group_rules_by_dependent(self.rules)
        self._rules_by_dependent = {
            attribute: sorted(rules, key=lambda rule: (rule.dependent_width,
                                                       -rule.support))
            for attribute, rules in grouped.items()
        }

    def set_rules(self, rules: Sequence[CDDRule]) -> None:
        """Swap the rule set in place (Section 5.5 rule maintenance).

        Keeps the imputer object — and with it the accumulated statistics,
        the candidate cache and the sample retriever — so callers that hold
        a reference (the runtime context, the engine facade) observe the new
        rules without any rewiring.
        """
        self.rules = list(rules)
        self._regroup_rules()

    # -- rule selection -------------------------------------------------------
    def _filter_ranked(self, record: Record, attribute: str,
                       ranked: Sequence[CDDRule]) -> List[CDDRule]:
        """Shared tail of rule selection: count, check applicability, cap."""
        self.stats.rules_considered += len(ranked)
        applicable = [rule for rule in ranked
                      if rule.applicable_to(record, attribute)]
        return applicable[: self.max_rules_per_attribute]

    def rules_for(self, record: Record, attribute: str) -> List[CDDRule]:
        """Applicable rules for one missing attribute, tightest first."""
        return self._filter_ranked(record, attribute,
                                   self._rules_by_dependent.get(attribute, []))

    def scoped_rules_for(self, record: Record, attribute: str,
                         rules: Sequence[CDDRule]) -> List[CDDRule]:
        """Rank and filter an externally selected rule set for one attribute.

        Mirrors :meth:`rules_for` exactly (same ordering key, same counters,
        same applicability filter and cap), but over a caller-supplied rule
        set — e.g. the output of a CDD-index probe — instead of the imputer's
        own rules.  This is what lets the engine impute with index-selected
        rules without instantiating a throwaway scoped imputer per attribute.
        """
        ranked = sorted((rule for rule in rules if rule.dependent == attribute),
                        key=lambda rule: (rule.dependent_width, -rule.support))
        return self._filter_ranked(record, attribute, ranked)

    # -- sample retrieval -------------------------------------------------------
    def _samples_for_rule(self, record: Record, rule: CDDRule) -> Sequence[Record]:
        if self.sample_retriever is not None:
            return self.sample_retriever(record, rule)
        return self.repository.samples

    def matching_samples(self, record: Record, rule: CDDRule) -> List[Record]:
        """Repository samples satisfying the rule's determinant constraints."""
        if self.packed_index is not None:
            scanned, matched = self.packed_index.matching_samples(record, rule)
            self.stats.samples_scanned += scanned
        else:
            matched = []
            for sample in self._samples_for_rule(record, rule):
                self.stats.samples_scanned += 1
                if rule.matches_sample(record, sample):
                    matched.append(sample)
        self.stats.samples_matched += len(matched)
        return matched

    def _scan_domain(self, sample_value: str, attribute: str,
                     domain: Sequence[str], rule: CDDRule) -> List[str]:
        """One uncached ``cand(s[A_j])`` computation."""
        if self.packed_index is None:
            return candidate_set_for_sample(sample_value, domain,
                                            rule.dependent_interval,
                                            self.max_candidates_per_sample)
        columns = self._domain_columns.get(attribute)
        if columns is None or len(columns[1]) != len(domain):
            # Domains are append-only, so a changed length is the only way
            # the posting index can go stale (Section 5.5 repository growth).
            columns = self._domain_columns[attribute] = token_postings(domain)
        return candidate_set_from_columns(sample_value, domain, *columns,
                                          rule.dependent_interval,
                                          self.max_candidates_per_sample)

    def _candidate_set(self, sample_value: str, attribute: str,
                       domain: Sequence[str], rule: CDDRule) -> List[str]:
        """``cand(s[A_j])`` with optional cross-record memoisation."""
        if self.candidate_cache is None:
            return self._scan_domain(sample_value, attribute, domain, rule)
        key = (attribute, sample_value, rule.dependent_interval,
               self.max_candidates_per_sample, len(domain))
        cached = self.candidate_cache.get(key)
        if cached is None:
            cached = self._scan_domain(sample_value, attribute, domain, rule)
            self.candidate_cache[key] = cached
        return cached

    def _select_rules(self, record: Record, attribute: str,
                      rules: Optional[Sequence[CDDRule]]) -> List[CDDRule]:
        if rules is None:
            return self.rules_for(record, attribute)
        return self.scoped_rules_for(record, attribute, rules)

    def _rule_frequencies(self, record: Record, attribute: str, rule: CDDRule,
                          domain: Sequence[str]) -> Dict[str, int]:
        """Equation (3) for one rule: candidate-value frequencies over the
        samples matching the rule (empty when the rule yields nothing)."""
        frequencies: Dict[str, int] = {}
        for sample in self.matching_samples(record, rule):
            sample_value = sample[attribute]
            if sample_value is None:
                continue
            for value in self._candidate_set(sample_value, attribute,
                                             domain, rule):
                frequencies[value] = frequencies.get(value, 0) + 1
        if frequencies:
            self.stats.rules_applied += 1
        return frequencies

    # -- imputation --------------------------------------------------------------
    def candidate_distribution(self, record: Record, attribute: str,
                               rules: Optional[Sequence[CDDRule]] = None,
                               ) -> Dict[str, float]:
        """Equation (4) candidate distribution for one missing attribute.

        When ``rules`` is given (e.g. the output of an online CDD-index
        probe) it overrides the imputer's own rule selection; the override is
        ranked / filtered identically to the internal path, so the resulting
        distribution is bit-identical to running a scoped imputer built from
        those rules.
        """
        domain = self.repository.domain(attribute)
        per_rule: List[Dict[str, int]] = []
        for rule in self._select_rules(record, attribute, rules):
            frequencies = self._rule_frequencies(record, attribute, rule, domain)
            if frequencies:
                per_rule.append(frequencies)
        distribution = truncate_distribution(combine_frequencies(per_rule),
                                             self.max_candidate_values)
        self.stats.candidate_values += len(distribution)
        return distribution

    def impute(self, record: Record) -> ImputedRecord:
        """Impute every missing attribute of ``record``.

        Attributes for which no rule/sample produces candidates are left
        missing (their token set stays empty and they contribute zero
        similarity), exactly like the straightforward method of the paper.
        """
        schema = self.repository.schema
        candidates: Dict[str, Dict[str, float]] = {}
        for attribute in record.missing_attributes(schema):
            distribution = self.candidate_distribution(record, attribute)
            if distribution:
                candidates[attribute] = distribution
                self.stats.attributes_imputed += 1
            else:
                self.stats.attributes_unimputable += 1
        self.stats.records_imputed += 1
        return ImputedRecord(base=record, schema=schema, candidates=candidates)


@dataclass
class SingleCDDImputer(CDDImputer):
    """Single-rule strategy (Eq. (3)): only the tightest applicable rule is used.

    The paper mentions this alternative strategy and leaves it as future
    work; it is implemented here for the multi-vs-single CDD ablation bench.
    """

    def candidate_distribution(self, record: Record, attribute: str,
                               rules: Optional[Sequence[CDDRule]] = None,
                               ) -> Dict[str, float]:
        domain = self.repository.domain(attribute)
        for rule in self._select_rules(record, attribute, rules):
            frequencies = self._rule_frequencies(record, attribute, rule, domain)
            if frequencies:
                distribution = truncate_distribution(
                    combine_frequencies([frequencies]), self.max_candidate_values)
                self.stats.candidate_values += len(distribution)
                return distribution
        return {}


def make_dd_imputer(repository: DataRepository, rules: Sequence[DDRule],
                    **kwargs) -> CDDImputer:
    """Build an imputer driven by DD rules (the ``DD+ER`` baseline)."""
    return CDDImputer(repository=repository, rules=dd_rules_as_cdds(rules), **kwargs)
