"""Unit tests for the DR-index I_R over the data repository (Section 5.1)."""

import pytest

from repro.core.similarity import text_distance
from repro.core.tuples import Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_INTERVAL,
    AttributeConstraint,
    CDDRule,
    discover_cdd_rules,
)
from repro.imputation.repository import DataRepository
from repro.indexes.dr_index import DRIndex
from repro.indexes.pivots import PivotTable


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


class TestRangeQueryAndMaintenance:
    def test_insert_sample_updates_repository_and_index(self, dr_index,
                                                        health_repository,
                                                        health_rules):
        before = len(dr_index)
        new_sample = Record(rid="new", values={
            "gender": "female", "symptom": "thirst fatigue",
            "diagnosis": "diabetes", "treatment": "insulin"}, source="repository")
        health_repository.add_sample(new_sample)
        dr_index.index_sample(new_sample)
        assert len(dr_index) == before + 1
        assert health_repository.samples[-1] is new_sample
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


class TestRectangleSlack:
    """Both probes widen the query rectangle by ``1e-12``: a sample whose
    coordinate overshoots the rectangle by float noise is still scanned.

    The pivot ``t0 … t9`` puts the record ``t0 … t8`` at
    ``0.09999999999999998`` and the sample ``t0 … t6`` at
    ``0.30000000000000004``.  A rule reaching ``5e-13`` short of the
    sample keeps it only through the slack; ``5e-12`` short drops it.
    """

    PIVOT = " ".join(f"t{i}" for i in range(10))
    RECORD = " ".join(f"t{i}" for i in range(9))
    SAMPLE = " ".join(f"t{i}" for i in range(7))

    def _probe(self, shortfall):
        schema = Schema(attributes=("a", "b"))
        sample = Record(rid="s", values={"a": self.SAMPLE, "b": "x"},
                        source="repository")
        repository = DataRepository(schema=schema, samples=[sample])
        pivots = PivotTable(schema=schema,
                            pivots={"a": [self.PIVOT], "b": ["x"]})
        index = DRIndex(repository, pivots)
        record = Record(rid="q", values={"a": self.RECORD, "b": None})
        gap = (text_distance(self.SAMPLE, self.PIVOT)
               - text_distance(self.RECORD, self.PIVOT))
        rule = CDDRule(
            determinants=(AttributeConstraint(
                "a", CONSTRAINT_INTERVAL, (0.0, gap - shortfall)),),
            dependent="b", dependent_interval=(0.0, 1.0))
        return (sample, index.candidate_samples(record, rule),
                index.matching_samples(record, rule)[0])

    def test_a_sample_within_the_slack_is_scanned_by_both_probes(self):
        assert text_distance(self.RECORD, self.PIVOT) == 0.09999999999999998
        assert text_distance(self.SAMPLE, self.PIVOT) == 0.30000000000000004
        sample, candidates, scanned = self._probe(5e-13)
        assert candidates == [sample]
        assert scanned == 1

    def test_a_sample_beyond_the_slack_is_dropped_by_both_probes(self):
        _, candidates, scanned = self._probe(5e-12)
        assert candidates == []
        assert scanned == 0
