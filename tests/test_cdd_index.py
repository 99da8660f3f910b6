"""Unit tests for the CDD-index I_j (per-determinant-set R-trees, Section 5.1)."""

import pytest

from repro.core.tuples import Record
from repro.imputation.cdd import discover_cdd_rules, group_rules_by_dependent
from repro.indexes.cdd_index import CDDIndex, build_cdd_indexes


@pytest.fixture
def health_rules(health_repository):
    return discover_cdd_rules(health_repository)


@pytest.fixture
def diagnosis_index(health_repository, health_rules, health_pivots):
    return CDDIndex(dependent="diagnosis", rules=health_rules,
                    schema=health_repository.schema, pivots=health_pivots)


class TestConstruction:
    def test_index_keeps_only_its_dependent(self, diagnosis_index, health_rules):
        expected = [rule for rule in health_rules if rule.dependent == "diagnosis"]
        assert diagnosis_index.rule_count == len(expected)

    def test_group_trees_exist(self, diagnosis_index):
        assert diagnosis_index.group_count >= 1

    def test_empty_rule_set(self, health_repository, health_pivots):
        index = CDDIndex(dependent="diagnosis", rules=[],
                         schema=health_repository.schema, pivots=health_pivots)
        assert index.rule_count == 0
        assert index.group_count == 0


class TestCandidateRules:
    def test_no_false_dismissals(self, diagnosis_index, health_rules,
                                 incomplete_health_record):
        """Every exactly-applicable rule must be returned by the index."""
        applicable = [
            rule for rule in health_rules
            if rule.dependent == "diagnosis"
            and rule.applicable_to(incomplete_health_record, "diagnosis")
        ]
        candidates = diagnosis_index.candidate_rules(incomplete_health_record)
        candidate_ids = {id(rule) for rule in candidates}
        for rule in applicable:
            assert id(rule) in candidate_ids, rule.describe()

    def test_returned_rules_are_applicable(self, diagnosis_index,
                                           incomplete_health_record):
        for rule in diagnosis_index.candidate_rules(incomplete_health_record):
            assert rule.applicable_to(incomplete_health_record, "diagnosis")

    def test_rules_sorted_tightest_first(self, diagnosis_index,
                                         incomplete_health_record):
        candidates = diagnosis_index.candidate_rules(incomplete_health_record)
        widths = [rule.dependent_width for rule in candidates]
        assert widths == sorted(widths)

    def test_nodes_visited_counter(self, diagnosis_index, incomplete_health_record):
        """A running total over probes, like ``DRIndex.nodes_visited``."""
        diagnosis_index.candidate_rules(incomplete_health_record)
        once = diagnosis_index.nodes_visited
        assert once > 0
        diagnosis_index.candidate_rules(incomplete_health_record)
        assert diagnosis_index.nodes_visited == 2 * once

    def test_record_with_all_determinants_missing(self, diagnosis_index,
                                                  health_repository):
        record = Record(rid="r", values={name: None
                                         for name in health_repository.schema})
        assert diagnosis_index.candidate_rules(record) == []


class TestBuildAllIndexes:
    def test_one_index_per_dependent(self, health_repository, health_rules,
                                     health_pivots):
        indexes = build_cdd_indexes(health_rules, health_repository.schema,
                                    health_pivots)
        assert set(indexes) == set(group_rules_by_dependent(health_rules))
        for dependent, index in indexes.items():
            assert index.dependent == dependent
            assert index.rule_count > 0
