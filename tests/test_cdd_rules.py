"""Unit tests for CDD rules and CDD discovery (Definition 3, Section 3)."""

import pytest

from repro.core.tuples import Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
    CONSTRAINT_MISSING,
    AttributeConstraint,
    CDDDiscoveryConfig,
    CDDRule,
    RuleError,
    build_cdd_indexes,
    discover_cdd_rules,
)
from repro.imputation.repository import DataRepository


class TestAttributeConstraint:
    def test_interval_constraint_satisfied(self):
        constraint = AttributeConstraint(attribute="x", kind=CONSTRAINT_INTERVAL,
                                         interval=(0.0, 0.5))
        assert constraint.satisfied_by("query index join", "query index scan")
        assert not constraint.satisfied_by("query index", "totally different words")

    def test_interval_with_nonzero_minimum(self):
        constraint = AttributeConstraint(attribute="x", kind=CONSTRAINT_INTERVAL,
                                         interval=(0.3, 0.8))
        # Identical values have distance 0 < 0.3, so the constraint fails.
        assert not constraint.satisfied_by("same words", "same words")

    def test_constant_constraint(self):
        constraint = AttributeConstraint(attribute="x", kind=CONSTRAINT_CONSTANT,
                                         constant="male")
        assert constraint.satisfied_by("male", "male")
        assert not constraint.satisfied_by("male", "female")
        assert not constraint.satisfied_by("female", "female")

    def test_missing_constraint_always_true(self):
        constraint = AttributeConstraint(attribute="x", kind=CONSTRAINT_MISSING)
        assert constraint.satisfied_by(None, None)
        assert constraint.satisfied_by("a", "b")

    def test_missing_values_fail_non_missing_constraints(self):
        constraint = AttributeConstraint(attribute="x", kind=CONSTRAINT_INTERVAL,
                                         interval=(0.0, 1.0))
        assert not constraint.satisfied_by(None, "a")

    def test_invalid_kind_rejected(self):
        with pytest.raises(RuleError):
            AttributeConstraint(attribute="x", kind="weird")

    def test_invalid_interval_rejected(self):
        with pytest.raises(RuleError):
            AttributeConstraint(attribute="x", kind=CONSTRAINT_INTERVAL,
                                interval=(0.5, 0.4))

    def test_constant_requires_value(self):
        with pytest.raises(RuleError):
            AttributeConstraint(attribute="x", kind=CONSTRAINT_CONSTANT)

    def test_describe(self):
        constant = AttributeConstraint(attribute="g", kind=CONSTRAINT_CONSTANT,
                                       constant="male")
        interval = AttributeConstraint(attribute="s", kind=CONSTRAINT_INTERVAL,
                                       interval=(0.0, 0.3))
        assert "male" in constant.describe()
        assert "0.30" in interval.describe()


class TestCDDRule:
    def test_rule_validation(self, simple_cdd_rule):
        assert simple_cdd_rule.determinant_attributes == ("gender", "symptom")
        assert simple_cdd_rule.dependent == "diagnosis"
        assert simple_cdd_rule.dependent_width == pytest.approx(0.4)

    def test_needs_determinants(self):
        with pytest.raises(RuleError):
            CDDRule(determinants=(), dependent="d", dependent_interval=(0, 0.1))

    def test_dependent_cannot_be_determinant(self):
        constraint = AttributeConstraint(attribute="d", kind=CONSTRAINT_INTERVAL,
                                         interval=(0.0, 0.1))
        with pytest.raises(RuleError):
            CDDRule(determinants=(constraint,), dependent="d",
                    dependent_interval=(0.0, 0.1))

    def test_duplicate_determinants_rejected(self):
        constraint = AttributeConstraint(attribute="a", kind=CONSTRAINT_INTERVAL,
                                         interval=(0.0, 0.1))
        with pytest.raises(RuleError):
            CDDRule(determinants=(constraint, constraint), dependent="d",
                    dependent_interval=(0.0, 0.1))

    def test_invalid_dependent_interval(self):
        constraint = AttributeConstraint(attribute="a", kind=CONSTRAINT_INTERVAL,
                                         interval=(0.0, 0.1))
        with pytest.raises(RuleError):
            CDDRule(determinants=(constraint,), dependent="d",
                    dependent_interval=(0.5, 0.2))

    def test_applicable_to(self, simple_cdd_rule, incomplete_health_record):
        assert simple_cdd_rule.applicable_to(incomplete_health_record, "diagnosis")
        assert not simple_cdd_rule.applicable_to(incomplete_health_record, "treatment")

    def test_applicable_requires_constant_match(self, simple_cdd_rule,
                                                incomplete_health_record):
        female = incomplete_health_record.with_value("gender", "female")
        assert not simple_cdd_rule.applicable_to(female, "diagnosis")

    def test_applicable_requires_present_determinants(self, simple_cdd_rule,
                                                      incomplete_health_record):
        no_symptom = incomplete_health_record.with_value("symptom", None)
        assert not simple_cdd_rule.applicable_to(no_symptom, "diagnosis")

    def test_matches_sample(self, simple_cdd_rule, incomplete_health_record,
                            health_repository):
        matching = health_repository.samples[0]  # s0: male, similar symptom
        assert simple_cdd_rule.matches_sample(incomplete_health_record, matching)
        non_matching = health_repository.samples[2]  # s2: female
        assert not simple_cdd_rule.matches_sample(incomplete_health_record,
                                                  non_matching)

    def test_dependent_satisfied(self, simple_cdd_rule):
        assert simple_cdd_rule.dependent_satisfied("diabetes", "diabetes")
        assert not simple_cdd_rule.dependent_satisfied("diabetes", "flu")

    def test_holds_for_vacuous_when_determinants_differ(self, simple_cdd_rule):
        left = Record(rid="l", values={"gender": "female", "symptom": "cough",
                                       "diagnosis": "flu", "treatment": "rest"})
        right = Record(rid="r", values={"gender": "male", "symptom": "fever",
                                        "diagnosis": "pneumonia", "treatment": "x"})
        assert simple_cdd_rule.holds_for(left, right)

    def test_describe_contains_rule_shape(self, simple_cdd_rule):
        text = simple_cdd_rule.describe()
        assert "gender symptom -> diagnosis" in text


class TestCDDDiscovery:
    def test_discovery_returns_rules(self, health_repository):
        rules = discover_cdd_rules(health_repository)
        assert rules, "expected at least one CDD rule from the health repository"
        assert all(isinstance(rule, CDDRule) for rule in rules)

    def test_discovered_rules_cover_dependents(self, health_repository):
        rules = discover_cdd_rules(health_repository)
        dependents = {rule.dependent for rule in rules}
        # Every schema attribute should be imputable by at least one rule on
        # this dense little repository.
        assert dependents == set(health_repository.schema)

    def test_discovery_respects_dependent_filter(self, health_repository):
        rules = discover_cdd_rules(health_repository, dependents=["diagnosis"])
        assert rules
        assert all(rule.dependent == "diagnosis" for rule in rules)

    def test_discovery_on_tiny_repository(self, health_schema):
        repository = DataRepository(schema=health_schema, samples=[])
        assert discover_cdd_rules(repository) == []

    def test_discovered_rules_hold_on_repository_pairs(self, health_repository):
        """Soundness: a discovered CDD must hold on the repository it came from."""
        config = CDDDiscoveryConfig(max_pairs=1000)
        rules = discover_cdd_rules(health_repository, config)
        samples = health_repository.samples
        for rule in rules[:50]:
            for i in range(len(samples)):
                for j in range(i + 1, len(samples)):
                    assert rule.holds_for(samples[i], samples[j]), rule.describe()

    def test_constant_rules_present(self, health_repository):
        rules = discover_cdd_rules(health_repository)
        kinds = {constraint.kind for rule in rules for constraint in rule.determinants}
        assert CONSTRAINT_CONSTANT in kinds
        assert CONSTRAINT_INTERVAL in kinds

    def test_combined_rules_have_two_determinants(self, health_repository):
        config = CDDDiscoveryConfig(combine_determinants=True)
        rules = discover_cdd_rules(health_repository, config)
        assert any(len(rule.determinants) == 2 for rule in rules)

    def test_combination_can_be_disabled(self, health_repository):
        config = CDDDiscoveryConfig(combine_determinants=False)
        rules = discover_cdd_rules(health_repository, config)
        assert all(len(rule.determinants) == 1 for rule in rules)

    def test_grouping_helpers(self, health_repository):
        rules = discover_cdd_rules(health_repository)
        grouped = build_cdd_indexes(rules)
        assert set(grouped) == {rule.dependent for rule in rules}
        diagnosis_rules = [rule for rule in rules if rule.dependent == "diagnosis"]
        # Tightest first, ties in mining order (a stable sort).
        mining_order = {id(rule): position
                        for position, rule in enumerate(diagnosis_rules)}
        assert [(rule.dependent_width, -rule.support, mining_order[id(rule)])
                for rule in grouped["diagnosis"]] == sorted(
            (rule.dependent_width, -rule.support, mining_order[id(rule)])
            for rule in diagnosis_rules)

    def test_discovery_is_deterministic(self, health_repository):
        first = discover_cdd_rules(health_repository)
        second = discover_cdd_rules(health_repository)
        assert [rule.rule_id for rule in first] == [rule.rule_id for rule in second]
