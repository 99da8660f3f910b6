"""Rule-based imputers implementing Equations (3) and (4) of the paper.

Given an incomplete tuple ``r`` with missing attribute ``A_j``, the imputer
is the one place that runs the paper's online imputation step (Section 5.1):

1. select the rules of ``A_j`` applicable to ``r`` from the CDD-index
   ``I_j`` (:meth:`CDDImputer.select_rules`; the indexes are
   :func:`~repro.imputation.cdd.build_cdd_indexes`);
2. for each selected rule, retrieve the repository samples ``s`` that
   satisfy the rule's determinant constraints — through the DR-index
   ``I_R`` when the imputer has one, else by scanning ``R``;
3. for every such sample, collect the candidate set ``cand(s[A_j])`` of
   domain values whose Jaccard distance to ``s[A_j]`` lies inside the
   dependent interval ``A_j.I``;
4. aggregate candidate frequencies per rule (Eq. 3) and across all rules
   (Eq. 4), normalising into existence probabilities.

The engine's two executors, the ``Ij+GER``, ``CDD+ER`` and ``DD+ER``
baselines and the multi-CDD ablation all call :meth:`CDDImputer.impute`.
The imputer exposes counters (rules considered, samples scanned, candidate
values generated) used by the break-up cost experiment (Figure 6) and by the
baseline comparisons.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
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
from repro.core.tuples import ImputedRecord, Record
from repro.imputation.cdd import CDDRule, build_cdd_indexes
from repro.imputation.dd import DDRule, dd_rules_as_cdds
from repro.imputation.repository import DataRepository

if TYPE_CHECKING:  # pragma: no cover - the index package imports this one
    from repro.indexes.dr_index import DRIndex


@dataclass
class ImputationStats:
    """Counters describing the work done by an imputer."""

    #: Incomplete records imputed (complete records pass through uncounted).
    records_imputed: int = 0
    attributes_imputed: int = 0
    attributes_unimputable: int = 0
    #: Applicable rules offered to Eq. (4), before ``max_rules_per_attribute``.
    rules_considered: int = 0
    rules_applied: int = 0
    samples_scanned: int = 0
    samples_matched: int = 0
    candidate_values: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Every counter by field name, in declaration order (the
        experiment harness and the golden fixtures read this)."""
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


def combine_frequencies(per_rule_frequencies: Iterable[Dict[str, int]]) -> Dict[str, float]:
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
    indexes:
        The CDD-indexes: dependent attribute -> its rules, tightest first
        (:func:`~repro.imputation.cdd.build_cdd_indexes`).
    max_candidates_per_sample:
        Cap on ``|cand(s[A_j])|`` to keep the candidate pool bounded.
    max_rules_per_attribute:
        Upper bound on the number of rules consulted per missing attribute
        (the tightest rules — smallest dependent interval — are preferred).
    dr_index:
        The DR-index ``I_R`` samples are retrieved through
        (:meth:`~repro.indexes.dr_index.DRIndex.candidate_samples`);
        ``None`` scans ``R``.
    candidate_cache:
        Optional mutable mapping memoising ``cand(s[A_j])`` computations
        across records.  ``candidate_set_for_sample`` depends only on the
        sample value, the attribute domain and the rule's dependent interval,
        so its results can be shared between all records of a micro-batch
        (and across batches).  The cache key includes the domain size, which
        only grows (the repository is append-only), so stale hits are
        impossible.  ``None`` (the default) disables memoisation and keeps
        the single-tuple engine's exact seed behaviour.

    ``packed_index`` (not a constructor argument; ``False`` by default) is
    set by the batched runtime when the imputer has a DR-index.  Then
    ``matching_samples`` is answered by the index's packed probe and
    ``cand(s[A_j])`` by the columnar domain scan — bit-identical to the
    scalar retrieve-then-verify path, which stays the reference.
    """

    repository: DataRepository
    indexes: Dict[str, List[CDDRule]]
    max_candidates_per_sample: int = 12
    max_rules_per_attribute: int = 12
    max_candidate_values: int = 16
    dr_index: Optional["DRIndex"] = None
    stats: ImputationStats = field(default_factory=ImputationStats)
    candidate_cache: Optional[MutableMapping] = field(default=None, repr=False)
    packed_index: bool = field(default=False, init=False, repr=False)
    #: attribute -> ``token_postings`` of its domain (columnar scan only).
    _domain_columns: Dict[str, tuple] = field(default_factory=dict, init=False,
                                              repr=False)
    #: How many rules that yield candidates Eq. (4) combines (``None``:
    #: every one); the single-rule strategy stops at the first.
    _rules_combined = None

    # -- rule selection -------------------------------------------------------
    def select_rules(self, record: Record, attribute: str) -> List[CDDRule]:
        """The rules of ``attribute`` applicable to ``record``, tightest
        first and uncapped: one probe of the CDD-index ``I_j``."""
        return [rule for rule in self.indexes.get(attribute, ())
                if rule.applicable_to(record, attribute)]

    # -- sample retrieval -------------------------------------------------------
    def matching_samples(self, record: Record, rule: CDDRule) -> List[Record]:
        """Repository samples satisfying the rule's determinant constraints."""
        if self.packed_index:
            scanned, matched = self.dr_index.matching_samples(record, rule)
        else:
            samples = (self.repository.samples if self.dr_index is None
                       else self.dr_index.candidate_samples(record, rule))
            scanned = len(samples)
            matched = [sample for sample in samples
                       if rule.matches_sample(record, sample)]
        self.stats.samples_scanned += scanned
        self.stats.samples_matched += len(matched)
        return matched

    def _scan_domain(self, sample_value: str, attribute: str,
                     domain: Sequence[str], rule: CDDRule) -> List[str]:
        """One uncached ``cand(s[A_j])`` computation."""
        if not self.packed_index:
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

    def _rule_frequencies(self, record: Record, attribute: str,
                          rules: Sequence[CDDRule]) -> Iterator[Dict[str, int]]:
        """Equation (3) for each rule that yields candidates, lazily: a rule
        is only applied once the previous one's frequencies were taken."""
        domain = self.repository.domain(attribute)
        for rule in rules:
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
                yield frequencies

    # -- imputation --------------------------------------------------------------
    def candidate_distribution(self, record: Record, attribute: str,
                               rules: Sequence[CDDRule]) -> Dict[str, float]:
        """Equation (4) candidate distribution for one missing attribute.

        ``rules`` are the rules of ``attribute`` applicable to ``record``,
        tightest first — what :meth:`select_rules` returns.  They are
        counted, capped at ``max_rules_per_attribute`` and applied.
        """
        if not rules:
            return {}
        self.stats.rules_considered += len(rules)
        per_rule = self._rule_frequencies(
            record, attribute, rules[: self.max_rules_per_attribute])
        distribution = truncate_distribution(
            combine_frequencies(islice(per_rule, self._rules_combined)),
            self.max_candidate_values)
        self.stats.candidate_values += len(distribution)
        return distribution

    def impute(self, record: Record,
               selected: Optional[Dict[str, List[CDDRule]]] = None,
               ) -> ImputedRecord:
        """Impute every missing attribute of ``record``.

        ``selected`` maps each missing attribute to its rules when they were
        already chosen (the engine times rule selection on its own, Figure
        6); without it the imputer selects them.  Attributes for which no
        rule/sample produces candidates are left missing (their token set
        stays empty and they contribute zero similarity), exactly like the
        straightforward method of the paper.
        """
        schema = self.repository.schema
        missing = record.missing_attributes(schema)
        if not missing:
            return ImputedRecord.from_complete(record, schema)
        candidates: Dict[str, Dict[str, float]] = {}
        for attribute in missing:
            rules = (self.select_rules(record, attribute) if selected is None
                     else selected[attribute])
            distribution = self.candidate_distribution(record, attribute, rules)
            if distribution:
                candidates[attribute] = distribution
                self.stats.attributes_imputed += 1
            else:
                self.stats.attributes_unimputable += 1
        self.stats.records_imputed += 1
        return ImputedRecord(base=record, schema=schema, candidates=candidates)


@dataclass
class SingleCDDImputer(CDDImputer):
    """Single-rule strategy (Eq. (3)): only the tightest applicable rule
    that yields candidates is used.

    The paper mentions this alternative strategy and leaves it as future
    work; it is implemented here for the multi-vs-single CDD ablation bench.
    """

    _rules_combined = 1


def make_dd_imputer(repository: DataRepository, rules: Sequence[DDRule],
                    **kwargs) -> CDDImputer:
    """Build an imputer driven by DD rules (the ``DD+ER`` baseline)."""
    return CDDImputer(repository=repository,
                      indexes=build_cdd_indexes(dd_rules_as_cdds(rules)),
                      **kwargs)
