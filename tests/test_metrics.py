"""Tests for the accuracy metrics (Eq. (6)) and the timing utilities."""

import time

import pytest

from repro.core.matching import MatchPair
from repro.metrics.accuracy import (
    AccuracyReport,
    evaluate_matches,
    match_pairs_to_keys,
    pair_key,
)
from repro.metrics.timing import (
    STAGE_CDD_SELECTION,
    STAGE_ER,
    STAGE_IMPUTATION,
    BreakupCost,
    StageTimer,
    time_callable,
)


class TestPairKey:
    def test_order_independence(self):
        assert pair_key("a", "r1", "b", "r2") == pair_key("b", "r2", "a", "r1")

    def test_match_pairs_to_keys(self):
        pairs = [MatchPair("r1", "a", "r2", "b", 0.9),
                 MatchPair("r2", "b", "r1", "a", 0.8)]
        assert len(match_pairs_to_keys(pairs)) == 1


class TestAccuracyReport:
    def test_perfect_report(self):
        report = AccuracyReport(true_positives=10, false_positives=0,
                                false_negatives=0)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f_score == 1.0

    def test_equation6(self):
        report = AccuracyReport(true_positives=6, false_positives=2,
                                false_negatives=4)
        precision = 6 / 8
        recall = 6 / 10
        expected = 2 * precision * recall / (precision + recall)
        assert report.precision == pytest.approx(precision)
        assert report.recall == pytest.approx(recall)
        assert report.f_score == pytest.approx(expected)

    def test_empty_report(self):
        report = AccuracyReport(true_positives=0, false_positives=0,
                                false_negatives=0)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f_score == 0.0

    def test_as_dict(self):
        report = AccuracyReport(true_positives=1, false_positives=2,
                                false_negatives=3)
        data = report.as_dict()
        assert data["true_positives"] == 1
        assert data["false_negatives"] == 3


class TestEvaluateMatches:
    def test_evaluate_against_ground_truth(self):
        truth = {pair_key("a", "r1", "b", "r2"), pair_key("a", "r3", "b", "r4")}
        reported = [MatchPair("r1", "a", "r2", "b", 0.9),   # true positive
                    MatchPair("r9", "a", "r2", "b", 0.9)]   # false positive
        report = evaluate_matches(reported, truth)
        assert report.true_positives == 1
        assert report.false_positives == 1
        assert report.false_negatives == 1

    def test_empty_reported(self):
        truth = {pair_key("a", "1", "b", "2")}
        report = evaluate_matches([], truth)
        assert report.recall == 0.0
        assert report.false_negatives == 1


class TestStageTimer:
    def test_measure_accumulates(self):
        timer = StageTimer()
        with timer.measure("stage"):
            time.sleep(0.001)
        with timer.measure("stage"):
            time.sleep(0.001)
        assert timer.total("stage") >= 0.002
        assert timer.counts["stage"] == 2

    def test_manual_add_and_total(self):
        timer = StageTimer(totals={"a": 1.0, "b": 2.0})
        assert timer.total() == pytest.approx(3.0)
        assert timer.total("a") == pytest.approx(1.0)
        assert timer.total("nothing") == 0.0


class TestBreakupCost:
    def test_from_timer_averages(self):
        timer = StageTimer(totals={STAGE_CDD_SELECTION: 1.0,
                                   STAGE_IMPUTATION: 2.0, STAGE_ER: 3.0})
        cost = BreakupCost.from_timer(timer, timestamps=2)
        assert cost.cdd_selection == pytest.approx(0.5)
        assert cost.imputation == pytest.approx(1.0)
        assert cost.entity_resolution == pytest.approx(1.5)
        assert cost.total == pytest.approx(3.0)
        assert set(cost.as_dict()) == {STAGE_CDD_SELECTION, STAGE_IMPUTATION,
                                       STAGE_ER}

    def test_zero_timestamps_safe(self):
        cost = BreakupCost.from_timer(StageTimer(), timestamps=0)
        assert cost.total == 0.0


class TestStopwatchAndTimeCallable:
    def test_time_callable(self):
        result, elapsed = time_callable(sum, [1, 2, 3])
        assert result == 6
        assert elapsed >= 0.0
