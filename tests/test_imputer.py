"""Unit tests for the CDD imputer (Equations (3) and (4))."""

import pytest

from repro.core.tuples import Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
    AttributeConstraint,
    CDDRule,
    discover_cdd_rules,
)
from repro.imputation.imputer import (
    CDDImputer,
    SingleCDDImputer,
    candidate_set_for_sample,
    combine_frequencies,
    make_dd_imputer,
)
from repro.imputation.dd import discover_dd_rules
from repro.imputation.repository import DataRepository

# ---------------------------------------------------------------------------
# The paper's Example 3/4 repository (Table 2) rendered as textual values:
# numeric attribute values are encoded as token strings so the Jaccard
# distance reproduces equality/inequality structure.
# ---------------------------------------------------------------------------
ABC = Schema(attributes=("a", "b", "c"))


def _abc_repository():
    rows = [
        ("a1 group", "b level two", "c level one"),
        ("a1 group", "b level three", "c level two"),
        ("a1 group", "b level five", "c level four"),
        ("a2 group", "b level seven", "c level seven"),
    ]
    samples = [Record(rid=f"s{index}", values={"a": a, "b": b, "c": c},
                      source="repository")
               for index, (a, b, c) in enumerate(rows)]
    return DataRepository(schema=ABC, samples=samples)


class TestHelpers:
    def test_candidate_set_for_sample_filters_by_interval(self):
        domain = ["diabetes", "diabetes type two", "flu", "conjunctivitis"]
        candidates = candidate_set_for_sample("diabetes", domain, (0.0, 0.4))
        assert "diabetes" in candidates
        assert "flu" not in candidates

    def test_candidate_set_respects_cap(self):
        domain = [f"value {i}" for i in range(100)]
        candidates = candidate_set_for_sample("value 0", domain, (0.0, 1.0),
                                              max_candidates=10)
        assert len(candidates) == 10

    def test_combine_frequencies_example4(self):
        # Example 4: F1 = {0.1: 2, 0.2: 2}, F2 = {0.2: 1, 0.35: 1}
        combined = combine_frequencies([{"v01": 2, "v02": 2},
                                        {"v02": 1, "v035": 1}])
        assert combined["v01"] == pytest.approx(2 / 6)
        assert combined["v02"] == pytest.approx(3 / 6)
        assert combined["v035"] == pytest.approx(1 / 6)

    def test_combine_frequencies_empty(self):
        assert combine_frequencies([]) == {}
        assert combine_frequencies([{}]) == {}


class TestCDDImputer:
    def test_impute_missing_diagnosis(self, health_repository, health_schema,
                                      incomplete_health_record):
        rules = discover_cdd_rules(health_repository)
        imputer = CDDImputer(repository=health_repository, rules=rules)
        imputed = imputer.impute(incomplete_health_record)
        assert "diagnosis" in imputed.candidates
        distribution = imputed.candidates["diagnosis"]
        assert sum(distribution.values()) == pytest.approx(1.0)
        # "diabetes" should dominate: the present attributes point to the
        # diabetes samples of the repository.
        top_value = max(distribution, key=distribution.get)
        assert "diabetes" in top_value

    def test_impute_complete_record_is_trivial(self, health_repository):
        rules = discover_cdd_rules(health_repository)
        imputer = CDDImputer(repository=health_repository, rules=rules)
        complete = health_repository.sample_by_rid("s0")
        imputed = imputer.impute(complete)
        assert imputed.is_trivial()

    def test_unimputable_attribute_left_missing(self, health_repository,
                                                health_schema):
        rules = discover_cdd_rules(health_repository)
        imputer = CDDImputer(repository=health_repository, rules=rules)
        record = Record(rid="r", values={"gender": None, "symptom": None,
                                         "diagnosis": None, "treatment": None})
        imputed = imputer.impute(record)
        # With every determinant missing no rule is applicable.
        assert imputed.candidates == {}
        assert imputer.stats.attributes_unimputable >= 4

    def test_stats_are_accumulated(self, health_repository,
                                   incomplete_health_record):
        rules = discover_cdd_rules(health_repository)
        imputer = CDDImputer(repository=health_repository, rules=rules)
        imputer.impute(incomplete_health_record)
        assert imputer.stats.records_imputed == 1
        assert imputer.stats.rules_considered > 0
        assert imputer.stats.samples_scanned > 0

    def test_rules_for_prefers_tight_rules(self, health_repository,
                                           incomplete_health_record):
        rules = discover_cdd_rules(health_repository)
        imputer = CDDImputer(repository=health_repository, rules=rules,
                             max_rules_per_attribute=5)
        chosen = imputer.rules_for(incomplete_health_record, "diagnosis")
        assert len(chosen) <= 5
        widths = [rule.dependent_width for rule in chosen]
        assert widths == sorted(widths)

    def test_sample_retriever_hook_is_used(self, health_repository,
                                           incomplete_health_record):
        rules = discover_cdd_rules(health_repository)
        calls = []

        def retriever(record, rule):
            calls.append(rule)
            return health_repository.samples

        imputer = CDDImputer(repository=health_repository, rules=rules,
                             sample_retriever=retriever)
        imputer.impute(incomplete_health_record)
        assert calls, "the pluggable sample retriever should have been invoked"

    def test_example3_single_rule_imputation(self):
        """Example 3 of the paper: rule AB -> C on the Table 2 repository."""
        repository = _abc_repository()
        rule = CDDRule(
            determinants=(
                AttributeConstraint(attribute="a", kind=CONSTRAINT_CONSTANT,
                                    constant="a1 group"),
                AttributeConstraint(attribute="b", kind=CONSTRAINT_INTERVAL,
                                    interval=(0.0, 0.5)),
            ),
            dependent="c",
            dependent_interval=(0.0, 0.4),
        )
        record = Record(rid="r", values={"a": "a1 group", "b": "b level three",
                                         "c": None})
        imputer = CDDImputer(repository=repository, rules=[rule])
        distribution = imputer.candidate_distribution(record, "c")
        assert distribution, "samples s1/s2 should suggest candidate values"
        assert sum(distribution.values()) == pytest.approx(1.0)
        # The far-away a2 sample's value must not be suggested.
        assert "c level seven" not in distribution

    def test_multi_rule_weighting(self):
        """Eq. (4): values suggested by more rules receive more mass."""
        repository = _abc_repository()
        rule1 = CDDRule(
            determinants=(AttributeConstraint(attribute="a",
                                              kind=CONSTRAINT_CONSTANT,
                                              constant="a1 group"),),
            dependent="c", dependent_interval=(0.0, 0.3))
        rule2 = CDDRule(
            determinants=(AttributeConstraint(attribute="b",
                                              kind=CONSTRAINT_INTERVAL,
                                              interval=(0.0, 0.5)),),
            dependent="c", dependent_interval=(0.0, 0.3))
        record = Record(rid="r", values={"a": "a1 group", "b": "b level three",
                                         "c": None})
        multi = CDDImputer(repository=repository, rules=[rule1, rule2])
        multi_dist = multi.candidate_distribution(record, "c")
        single = CDDImputer(repository=repository, rules=[rule1])
        single_dist = single.candidate_distribution(record, "c")
        assert multi_dist
        assert single_dist
        assert sum(multi_dist.values()) == pytest.approx(1.0)


class TestSingleCDDImputer:
    def test_single_rule_strategy_uses_first_applicable_rule(self, health_repository,
                                                             incomplete_health_record):
        rules = discover_cdd_rules(health_repository)
        imputer = SingleCDDImputer(repository=health_repository, rules=rules)
        distribution = imputer.candidate_distribution(incomplete_health_record,
                                                      "diagnosis")
        assert distribution
        assert imputer.stats.rules_applied == 1

    def test_single_rule_returns_empty_when_nothing_applies(self, health_repository):
        imputer = SingleCDDImputer(repository=health_repository, rules=[])
        record = Record(rid="r", values={"gender": "male", "symptom": "x",
                                         "diagnosis": None, "treatment": "y"})
        assert imputer.candidate_distribution(record, "diagnosis") == {}


class TestDDImputerFactory:
    def test_make_dd_imputer(self, health_repository, incomplete_health_record):
        rules = discover_dd_rules(health_repository)
        imputer = make_dd_imputer(health_repository, rules)
        assert isinstance(imputer, CDDImputer)
        imputed = imputer.impute(incomplete_health_record)
        # DD rules are looser, so they should still find candidates here.
        assert imputed.candidates.get("diagnosis")

    def test_dd_imputer_retrieves_at_least_as_many_samples(self, health_repository,
                                                           incomplete_health_record):
        """DD's looser constraints match at least as many samples as CDD's."""
        cdd_imputer = CDDImputer(repository=health_repository,
                                 rules=discover_cdd_rules(health_repository))
        dd_imputer = make_dd_imputer(health_repository,
                                     discover_dd_rules(health_repository))
        cdd_imputer.impute(incomplete_health_record)
        dd_imputer.impute(incomplete_health_record)
        assert dd_imputer.stats.samples_matched >= 0
        assert cdd_imputer.stats.samples_matched >= 0
