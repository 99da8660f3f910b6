"""Unit tests for the CDD-index I_j (a rule list in mining order, Section 5.1)."""

import pytest

from golden_utils import GOLDEN_WORKLOADS, build_config, build_workload
from repro.core.engine import TERiDSEngine
from repro.core.tuples import Record
from repro.imputation.cdd import discover_cdd_rules, group_rules_by_dependent
from repro.imputation.imputer import CDDImputer
from repro.indexes.cdd_index import CDDIndex, build_cdd_indexes


@pytest.fixture
def health_rules(health_repository):
    return discover_cdd_rules(health_repository)


@pytest.fixture
def diagnosis_index(health_rules):
    return CDDIndex(dependent="diagnosis", rules=health_rules)


class TestConstruction:
    def test_index_keeps_only_its_dependent(self, diagnosis_index, health_rules):
        expected = [rule for rule in health_rules if rule.dependent == "diagnosis"]
        assert diagnosis_index.rule_count == len(expected)

    def test_empty_rule_set(self, incomplete_health_record):
        index = CDDIndex(dependent="diagnosis", rules=[])
        assert index.rule_count == 0
        assert index.candidate_rules(incomplete_health_record) == []


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

    def test_probe_equals_the_unindexed_scan_on_a_golden(self):
        """Every probe returns, list for list, what the imputer's own rule
        selection returns without an index, uncapped: the ``CDD+ER`` scan."""
        # ``test_index_order.py`` checks the first golden the same way.
        dataset, scale, seed, window = GOLDEN_WORKLOADS[1]
        workload = build_workload(dataset, scale, seed)
        engine = TERiDSEngine(workload.repository, build_config(workload, window))
        scan = CDDImputer(repository=workload.repository, rules=engine.rules,
                          max_rules_per_attribute=len(engine.rules))
        probes = 0
        for record in workload.interleaved_records():
            for dependent, index in engine.cdd_indexes.items():
                rules = index.candidate_rules(record)
                assert list(map(id, rules)) == list(map(
                    id, scan.rules_for(record, dependent)))
                probes += bool(rules)
        assert probes > 0

    def test_record_with_all_determinants_missing(self, diagnosis_index,
                                                  health_repository):
        record = Record(rid="r", values={name: None
                                         for name in health_repository.schema})
        assert diagnosis_index.candidate_rules(record) == []


class TestBuildAllIndexes:
    def test_one_index_per_dependent(self, health_rules):
        indexes = build_cdd_indexes(health_rules)
        assert set(indexes) == set(group_rules_by_dependent(health_rules))
        for dependent, index in indexes.items():
            assert index.dependent == dependent
            assert index.rule_count > 0
