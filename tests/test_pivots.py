"""Unit tests for the cost-model-based pivot selection (Section 5.4, App. B)."""

import math

import pytest

from repro.core.tuples import Record, Schema
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import (
    PivotSelectionConfig,
    PivotTable,
    select_pivots,
    shannon_entropy,
)


class TestShannonEntropy:
    def test_uniform_distribution_maximises_entropy(self):
        distances = [i / 10 + 0.05 for i in range(10)]
        entropy = shannon_entropy(distances, buckets=10)
        assert entropy == pytest.approx(math.log(10), rel=1e-6)

    def test_degenerate_distribution_zero_entropy(self):
        assert shannon_entropy([0.5] * 20, buckets=10) == 0.0

    def test_empty_and_invalid_inputs(self):
        assert shannon_entropy([], buckets=10) == 0.0
        assert shannon_entropy([0.5], buckets=1) == 0.0

    def test_entropy_monotone_in_spread(self):
        clumped = shannon_entropy([0.1, 0.11, 0.12, 0.13], buckets=10)
        spread = shannon_entropy([0.05, 0.35, 0.65, 0.95], buckets=10)
        assert spread > clumped

    def test_distance_one_goes_to_last_bucket(self):
        # values exactly 1.0 must not index out of range
        assert shannon_entropy([1.0, 1.0], buckets=10) == 0.0


class TestSelectPivots:
    def test_selects_pivot_per_attribute(self, health_repository):
        pivots = select_pivots(health_repository)
        for attribute in health_repository.schema:
            assert len(pivots.pivots[attribute]) >= 1
            assert pivots.main_pivot(attribute) in health_repository.domain(attribute)

    def test_max_pivots_respected(self, health_repository):
        config = PivotSelectionConfig(max_pivots=2, min_entropy=100.0)
        pivots = select_pivots(health_repository, config)
        for attribute in health_repository.schema:
            assert len(pivots.pivots[attribute]) == 2

    def test_single_pivot_when_entropy_reached(self, health_repository):
        config = PivotSelectionConfig(max_pivots=5, min_entropy=0.0)
        pivots = select_pivots(health_repository, config)
        for attribute in health_repository.schema:
            assert len(pivots.pivots[attribute]) == 1

    def test_main_pivot_has_max_entropy(self, health_repository):
        pivots = select_pivots(health_repository)
        for attribute in health_repository.schema:
            report = pivots.reports[attribute]
            assert report.entropies[0] == max(report.entropies)

    def test_empty_repository_rejected(self, health_schema):
        with pytest.raises(ValueError):
            select_pivots(DataRepository(schema=health_schema, samples=[]))

    def test_reports_populated(self, health_repository):
        pivots = select_pivots(health_repository)
        for attribute in health_repository.schema:
            report = pivots.reports[attribute]
            assert report.attribute == attribute
            assert report.candidates_evaluated > 0
            assert len(report.pivots) == len(report.entropies)

    def test_selection_is_deterministic(self, health_repository):
        first = select_pivots(health_repository)
        second = select_pivots(health_repository)
        assert first.pivots == second.pivots


class TestPivotTable:
    def test_all_pivots_order(self, health_pivots):
        for attribute in health_pivots.schema:
            pivots = health_pivots.all_pivots(attribute)
            assert pivots[0] == health_pivots.main_pivot(attribute)
            assert pivots[1:] == health_pivots.pivots[attribute][1:]
