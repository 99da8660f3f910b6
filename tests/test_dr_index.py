"""Unit tests for the DR-index I_R over the data repository (Section 5.1)."""

import pytest

from repro.core.tuples import Record
from repro.imputation.cdd import discover_cdd_rules
from repro.indexes.dr_index import DRIndex


@pytest.fixture
def dr_index(health_repository, health_pivots):
    return DRIndex(health_repository, health_pivots)


@pytest.fixture
def health_rules(health_repository):
    return discover_cdd_rules(health_repository)


class TestConstruction:
    def test_every_sample_indexed(self, dr_index, health_repository):
        assert len(dr_index) == len(health_repository)


class TestCandidateSamples:
    def test_no_false_dismissals(self, dr_index, health_repository, health_rules,
                                 incomplete_health_record):
        """Every sample that exactly satisfies a rule must be returned."""
        for rule in health_rules:
            if rule.dependent != "diagnosis":
                continue
            if not rule.applicable_to(incomplete_health_record, "diagnosis"):
                continue
            exact = {sample.rid for sample in health_repository.samples
                     if rule.matches_sample(incomplete_health_record, sample)}
            candidates = {sample.rid for sample in
                          dr_index.candidate_samples(incomplete_health_record, rule)}
            assert exact <= candidates, rule.describe()

    def test_rule_with_missing_determinant_returns_nothing(self, dr_index,
                                                           health_rules,
                                                           health_repository):
        record = Record(rid="r", values={name: None
                                         for name in health_repository.schema})
        for rule in health_rules[:10]:
            assert dr_index.candidate_samples(record, rule) == []

    def test_retriever_hook(self, dr_index, health_rules, incomplete_health_record):
        retriever = dr_index.make_retriever()
        applicable = [rule for rule in health_rules
                      if rule.applicable_to(incomplete_health_record, "diagnosis")]
        if applicable:
            samples = retriever(incomplete_health_record, applicable[0])
            assert isinstance(samples, list)


class TestRangeQueryAndMaintenance:
    def test_insert_sample_updates_repository_and_index(self, dr_index,
                                                        health_repository,
                                                        health_rules):
        before = len(dr_index)
        new_sample = Record(rid="new", values={
            "gender": "female", "symptom": "thirst fatigue",
            "diagnosis": "diabetes", "treatment": "insulin"}, source="repository")
        dr_index.insert_sample(new_sample)
        assert len(dr_index) == before + 1
        assert health_repository.sample_by_rid("new") is not None
        # A probe with the new sample's own values must reach it, as the
        # table's last row.
        probe = Record(rid="probe", values=dict(new_sample.values,
                                                diagnosis=None))
        rules = [rule for rule in health_rules
                 if rule.applicable_to(probe, "diagnosis")]
        assert rules
        for rule in rules:
            candidates = dr_index.candidate_samples(probe, rule)
            assert candidates[-1] is new_sample, rule.describe()
