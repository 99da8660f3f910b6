"""Unit tests for DD rules, editing rules and constraint-based imputation."""

import pytest

from repro.core.tuples import Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
    AttributeConstraint,
    CDDRule,
    RuleError,
)
from repro.imputation.constraint import StreamConstraintImputer
from repro.imputation.dd import (
    DDDiscoveryConfig,
    DDRule,
    dd_rules_as_cdds,
    discover_dd_rules,
)
from repro.imputation.editing import (
    EditingRule,
    EditingRuleImputer,
    discover_editing_rules,
)
from repro.imputation.repository import DataRepository


class TestDDRule:
    def _interval_rule(self):
        return CDDRule(
            determinants=(AttributeConstraint(attribute="symptom",
                                              kind=CONSTRAINT_INTERVAL,
                                              interval=(0.0, 0.5)),),
            dependent="diagnosis",
            dependent_interval=(0.0, 0.5),
        )

    def test_wraps_interval_rule(self):
        rule = DDRule(rule=self._interval_rule())
        assert rule.dependent == "diagnosis"
        assert rule.determinant_attributes == ("symptom",)
        assert rule.dependent_interval == (0.0, 0.5)
        assert "DD" in rule.describe()

    def test_rejects_constant_constraints(self):
        constant_rule = CDDRule(
            determinants=(AttributeConstraint(attribute="gender",
                                              kind=CONSTRAINT_CONSTANT,
                                              constant="male"),),
            dependent="diagnosis",
            dependent_interval=(0.0, 0.5),
        )
        with pytest.raises(RuleError):
            DDRule(rule=constant_rule)

    def test_delegation(self, incomplete_health_record, health_repository):
        rule = DDRule(rule=self._interval_rule())
        assert rule.applicable_to(incomplete_health_record, "diagnosis")
        sample = health_repository.samples[0]  # s0
        assert rule.matches_sample(incomplete_health_record, sample)


class TestDDDiscovery:
    def test_discovery_returns_interval_only_rules(self, health_repository):
        rules = discover_dd_rules(health_repository)
        assert rules
        for rule in rules:
            for constraint in rule.determinants:
                assert constraint.kind == CONSTRAINT_INTERVAL

    def test_dd_rules_are_single_determinant(self, health_repository):
        rules = discover_dd_rules(health_repository)
        assert all(len(rule.determinants) == 1 for rule in rules)

    def test_dd_rules_wider_than_cdds(self, health_repository):
        """DD mining tolerates a wider dependent interval than CDD mining."""
        config = DDDiscoveryConfig()
        assert config.max_dependent_width >= 0.8

    def test_unwrap_to_cdds(self, health_repository):
        rules = discover_dd_rules(health_repository)
        unwrapped = dd_rules_as_cdds(rules)
        assert len(unwrapped) == len(rules)
        assert all(isinstance(rule, CDDRule) for rule in unwrapped)

    def test_empty_repository(self, health_schema):
        assert discover_dd_rules(DataRepository(schema=health_schema, samples=[])) == []

    def test_dependent_filter(self, health_repository):
        rules = discover_dd_rules(health_repository, dependents=["treatment"])
        assert all(rule.dependent == "treatment" for rule in rules)


class TestEditingRules:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            EditingRule(determinants=(), dependent="x")
        with pytest.raises(ValueError):
            EditingRule(determinants=("x",), dependent="x")

    def test_applicability(self, incomplete_health_record):
        rule = EditingRule(determinants=("symptom",), dependent="diagnosis")
        assert rule.applicable_to(incomplete_health_record, "diagnosis")
        assert not rule.applicable_to(incomplete_health_record, "gender")
        missing_det = EditingRule(determinants=("treatment",), dependent="diagnosis")
        assert not missing_det.applicable_to(incomplete_health_record, "diagnosis")

    def test_matches_sample_exact_equality(self, health_repository):
        rule = EditingRule(determinants=("gender",), dependent="diagnosis")
        record = Record(rid="r", values={"gender": "male", "symptom": "x",
                                         "diagnosis": None, "treatment": "y"})
        male_sample = health_repository.samples[0]  # s0
        female_sample = health_repository.samples[2]  # s2
        assert rule.matches_sample(record, male_sample)
        assert not rule.matches_sample(record, female_sample)

    def test_discovery_produces_rules(self, health_repository):
        rules = discover_editing_rules(health_repository)
        assert rules
        assert all(isinstance(rule, EditingRule) for rule in rules)
        assert any(len(rule.determinants) == 2 for rule in rules)

    def test_imputer_copies_exact_match_values(self, health_repository,
                                               health_schema):
        rules = [EditingRule(determinants=("symptom",), dependent="diagnosis")]
        imputer = EditingRuleImputer(repository=health_repository, rules=rules)
        record = Record(rid="r", values={
            "gender": "male", "symptom": "weight loss blurred vision",
            "diagnosis": None, "treatment": "drug therapy"}, source="s")
        imputed = imputer.impute(record)
        assert imputed.candidates["diagnosis"] == {"diabetes": 1.0}

    def test_imputer_leaves_unmatchable_missing(self, health_repository):
        rules = [EditingRule(determinants=("symptom",), dependent="diagnosis")]
        imputer = EditingRuleImputer(repository=health_repository, rules=rules)
        record = Record(rid="r", values={
            "gender": "male", "symptom": "no such symptom text at all",
            "diagnosis": None, "treatment": "x"}, source="s")
        imputed = imputer.impute(record)
        assert "diagnosis" not in imputed.candidates

    def test_imputer_distribution_normalised(self, health_repository):
        rules = discover_editing_rules(health_repository)
        imputer = EditingRuleImputer(repository=health_repository, rules=rules)
        record = Record(rid="r", values={
            "gender": "male", "symptom": "fever poor appetite cough",
            "diagnosis": None, "treatment": "drink more sleep more"}, source="s")
        imputed = imputer.impute(record)
        if "diagnosis" in imputed.candidates:
            assert sum(imputed.candidates["diagnosis"].values()) == pytest.approx(1.0)


class TestStreamConstraintImputer:
    schema = Schema(attributes=("x", "y"))

    def _imputer(self, **kwargs):
        return StreamConstraintImputer(schema=self.schema, **kwargs)

    def test_only_complete_records_are_donors(self):
        imputer = self._imputer()
        imputer.observe(Record(rid="d1", values={"x": "a", "y": None}))
        imputer.observe(Record(rid="d2", values={"x": "a", "y": "b"}))
        assert len(imputer._history) == 1

    def test_history_bounded(self):
        imputer = self._imputer(history_size=3)
        for index in range(10):
            imputer.observe(Record(rid=f"d{index}",
                                   values={"x": f"x{index}", "y": "y"}))
        assert len(imputer._history) == 3

    def test_impute_from_similar_donor(self):
        imputer = self._imputer(min_similarity=0.3)
        imputer.observe(Record(rid="d1", values={"x": "query index join",
                                                 "y": "databases"}))
        record = Record(rid="r", values={"x": "query index scan", "y": None})
        imputed = imputer.impute(record)
        assert imputed.candidates["y"] == {"databases": 1.0}

    def test_no_donor_means_no_candidates(self):
        imputer = self._imputer()
        record = Record(rid="r", values={"x": "query", "y": None})
        imputed = imputer.impute(record)
        assert imputed.candidates == {}

    def test_dissimilar_donor_filtered_by_constraint(self):
        imputer = self._imputer(min_similarity=0.9)
        imputer.observe(Record(rid="d1", values={"x": "totally different text",
                                                 "y": "databases"}))
        record = Record(rid="r", values={"x": "query index", "y": None})
        assert imputer.impute(record).candidates == {}

    def test_top_k_weighting(self):
        imputer = self._imputer(min_similarity=0.1, top_k=2)
        imputer.observe(Record(rid="d1", values={"x": "query index join",
                                                 "y": "databases"}))
        imputer.observe(Record(rid="d2", values={"x": "query index",
                                                 "y": "retrieval"}))
        imputer.observe(Record(rid="d3", values={"x": "query",
                                                 "y": "other"}))
        record = Record(rid="r", values={"x": "query index join", "y": None})
        distribution = imputer.impute(record).candidates["y"]
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert len(distribution) <= 2

    def test_self_donation_excluded(self):
        imputer = self._imputer(min_similarity=0.0)
        record_complete = Record(rid="r", values={"x": "a b", "y": "c"}, source="s")
        imputer.observe(record_complete)
        record_missing = Record(rid="r", values={"x": "a b", "y": None}, source="s")
        assert imputer.impute(record_missing).candidates == {}
