"""Unit tests for the CDD-index I_j (Section 5.1).

The index is data: :func:`build_cdd_indexes` sorts each dependent's rules
tightest first, and :meth:`CDDImputer.select_rules` probes it with the
exact :meth:`CDDRule.applicable_to` check.
"""

import pytest

from golden_utils import GOLDEN_WORKLOADS, build_config, build_workload
from repro.core.engine import TERiDSEngine
from repro.core.tuples import Record
from repro.imputation.cdd import build_cdd_indexes, discover_cdd_rules
from repro.imputation.imputer import CDDImputer


@pytest.fixture
def health_rules(health_repository):
    return discover_cdd_rules(health_repository)


@pytest.fixture
def imputer(health_repository, health_rules):
    return CDDImputer(repository=health_repository,
                      indexes=build_cdd_indexes(health_rules))


class TestConstruction:
    def test_index_keeps_only_its_dependent(self, health_rules):
        indexes = build_cdd_indexes(health_rules)
        expected = [rule for rule in health_rules if rule.dependent == "diagnosis"]
        assert sorted(map(id, indexes["diagnosis"])) == sorted(map(id, expected))

    def test_empty_rule_set(self, health_repository, incomplete_health_record):
        assert build_cdd_indexes([]) == {}
        empty = CDDImputer(repository=health_repository, indexes={})
        assert empty.select_rules(incomplete_health_record, "diagnosis") == []


class TestCandidateRules:
    def test_no_false_dismissals(self, imputer, health_rules,
                                 incomplete_health_record):
        """Every exactly-applicable rule must be returned by the index."""
        applicable = [
            rule for rule in health_rules
            if rule.dependent == "diagnosis"
            and rule.applicable_to(incomplete_health_record, "diagnosis")
        ]
        candidates = imputer.select_rules(incomplete_health_record, "diagnosis")
        candidate_ids = {id(rule) for rule in candidates}
        for rule in applicable:
            assert id(rule) in candidate_ids, rule.describe()

    def test_returned_rules_are_applicable(self, imputer,
                                           incomplete_health_record):
        for rule in imputer.select_rules(incomplete_health_record, "diagnosis"):
            assert rule.applicable_to(incomplete_health_record, "diagnosis")

    def test_rules_sorted_tightest_first(self, imputer, health_repository,
                                         incomplete_health_record):
        distinct = 0
        for record in [incomplete_health_record, *health_repository.samples]:
            for dependent in imputer.indexes:
                keys = [(rule.dependent_width, -rule.support)
                        for rule in imputer.select_rules(record, dependent)]
                assert keys == sorted(keys)
                distinct = max(distinct, len(set(keys)))
        assert distinct > 1, "no probe returned rules of different tightness"

    def test_probe_equals_the_unindexed_scan_on_a_golden(self):
        """Every probe returns, list for list and uncapped, the applicable
        rules of the dependent in mining order, stable-sorted tightest
        first — an in-test scan over the engine's mined rule list."""
        # ``test_index_order.py`` pins the first golden's lists by digest.
        dataset, scale, seed, window = GOLDEN_WORKLOADS[1]
        workload = build_workload(dataset, scale, seed)
        engine = TERiDSEngine(workload.repository, build_config(workload, window))
        dependents = {rule.dependent for rule in engine.rules}
        assert set(engine.imputer.indexes) == dependents
        probes = 0
        for record in workload.interleaved_records():
            for dependent in dependents:
                scan = sorted(
                    (rule for rule in engine.rules
                     if rule.applicable_to(record, dependent)),
                    key=lambda rule: (rule.dependent_width, -rule.support))
                rules = engine.imputer.select_rules(record, dependent)
                assert list(map(id, rules)) == list(map(id, scan))
                probes += bool(rules)
        assert probes > 0

    def test_record_with_all_determinants_missing(self, imputer,
                                                  health_repository):
        record = Record(rid="r", values={name: None
                                         for name in health_repository.schema})
        assert imputer.select_rules(record, "diagnosis") == []


class TestBuildAllIndexes:
    def test_one_index_per_dependent(self, health_rules):
        indexes = build_cdd_indexes(health_rules)
        assert set(indexes) == {rule.dependent for rule in health_rules}
        for dependent, rules in indexes.items():
            assert rules
            assert all(rule.dependent == dependent for rule in rules)
        assert sum(map(len, indexes.values())) == len(health_rules)
