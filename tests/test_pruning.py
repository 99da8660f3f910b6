"""Unit tests for the pruning strategies (Theorems 4.1, 4.2, 4.4, Lemmas 4.1-4.2).

The crucial property throughout is *safety*: a pruned pair must never be a
true TER-iDS answer.  Every bound is therefore checked against the exact
probability / similarity computed by brute force over the instances.
"""

import pytest

from repro.core.matching import ter_ids_probability
from repro.core.pruning import (
    PruningPipeline,
    RecordSynopsis,
    min_attribute_distance,
    similarity_prune,
    similarity_upper_bound,
    similarity_upper_bound_by_pivot,
    similarity_upper_bound_by_size,
    topic_keyword_prune,
)
from repro.core.similarity import record_similarity
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import PivotSelectionConfig, select_pivots

SCHEMA = Schema(attributes=("symptom", "diagnosis"))


def _pivots():
    samples = [
        Record(rid="p0", values={"symptom": "fever cough chills",
                                 "diagnosis": "flu"}),
        Record(rid="p1", values={"symptom": "weight loss blurred vision",
                                 "diagnosis": "diabetes"}),
        Record(rid="p2", values={"symptom": "red eye itchy",
                                 "diagnosis": "conjunctivitis"}),
        Record(rid="p3", values={"symptom": "chest pain palpitation",
                                 "diagnosis": "cardio issue"}),
    ]
    repository = DataRepository(schema=SCHEMA, samples=samples)
    return select_pivots(repository, PivotSelectionConfig(buckets=5,
                                                          min_entropy=0.3,
                                                          max_pivots=2))


PIVOTS = _pivots()
KEYWORDS = frozenset({"diabetes"})


def _synopsis(rid, symptom, diagnosis, candidates=None, source="s1",
              keywords=KEYWORDS):
    record = Record(rid=rid, values={"symptom": symptom, "diagnosis": diagnosis},
                    source=source)
    imputed = ImputedRecord(base=record, schema=SCHEMA,
                            candidates=candidates or {})
    return RecordSynopsis.build(imputed, PIVOTS, keywords)


class TestRecordSynopsis:
    def test_identity_passthrough(self):
        synopsis = _synopsis("r1", "fever", "flu")
        assert synopsis.rid == "r1"
        assert synopsis.source == "s1"

    def test_complete_record_has_degenerate_bounds(self):
        synopsis = _synopsis("r1", "fever cough", "flu")
        for attribute in SCHEMA:
            low, high = synopsis.main_interval(attribute)
            assert low == pytest.approx(high)

    def test_imputed_record_has_interval_bounds(self):
        synopsis = _synopsis("r1", "fever cough", None,
                             candidates={"diagnosis": {"flu": 0.5,
                                                       "diabetes": 0.5}})
        low, high = synopsis.main_interval("diagnosis")
        assert low <= high

    def test_build_survives_empty_possible_values(self):
        """Regression: an empty candidate map must not crash ``build``.

        ``ImputedRecord.__post_init__`` rejects empty distributions at
        construction, but callers can end up with one later (hand-built
        records, upstream imputers that retained nothing); ``build`` used to
        die in ``min(sizes)``.  The attribute must behave exactly like an
        unimputable missing value: empty token set, distance 1.0 to every
        pivot.
        """
        record = Record(rid="r1", values={"symptom": "fever cough",
                                          "diagnosis": None}, source="s1")
        imputed = ImputedRecord(base=record, schema=SCHEMA,
                                candidates={"diagnosis": {"flu": 1.0}})
        imputed.candidates["diagnosis"] = {}
        synopsis = RecordSynopsis.build(imputed, PIVOTS, KEYWORDS)
        reference = RecordSynopsis.build(
            ImputedRecord(base=record, schema=SCHEMA, candidates={}),
            PIVOTS, KEYWORDS)
        assert synopsis.token_size_bounds["diagnosis"] == (0, 0)
        assert (synopsis.distance_bounds["diagnosis"]
                == reference.distance_bounds["diagnosis"])

    def test_bounds_enclose_every_instance(self):
        synopsis = _synopsis("r1", "fever cough", None,
                             candidates={"diagnosis": {"flu": 0.4,
                                                       "diabetes": 0.3,
                                                       "pneumonia": 0.3}})
        for instance in synopsis.record.instances():
            for index, attribute in enumerate(SCHEMA):
                value = instance.record[attribute]
                distance = PIVOTS.convert_value(attribute, value)
                low, high = synopsis.main_interval(attribute)
                assert low - 1e-9 <= distance <= high + 1e-9

    def test_keyword_flags(self):
        topical = _synopsis("r1", "thirst", "diabetes")
        non_topical = _synopsis("r2", "fever", "flu")
        maybe = _synopsis("r3", "fever", None,
                          candidates={"diagnosis": {"diabetes": 0.1, "flu": 0.9}})
        assert topical.may_have_keyword
        assert not non_topical.may_have_keyword
        assert maybe.may_have_keyword

    def test_coordinate_rectangle_dimensions(self):
        synopsis = _synopsis("r1", "fever", "flu")
        assert len(synopsis.coordinate_rectangle()) == len(SCHEMA)


class TestTopicKeywordPruning:
    def test_prunes_when_neither_topical(self):
        left = _synopsis("r1", "fever", "flu")
        right = _synopsis("r2", "cough", "pneumonia", source="s2")
        assert topic_keyword_prune(left, right, KEYWORDS)

    def test_keeps_when_one_side_topical(self):
        left = _synopsis("r1", "thirst", "diabetes")
        right = _synopsis("r2", "cough", "flu", source="s2")
        assert not topic_keyword_prune(left, right, KEYWORDS)

    def test_keeps_when_candidate_may_be_topical(self):
        left = _synopsis("r1", "fever", None,
                         candidates={"diagnosis": {"diabetes": 0.1, "flu": 0.9}})
        right = _synopsis("r2", "cough", "flu", source="s2")
        assert not topic_keyword_prune(left, right, KEYWORDS)

    def test_no_keywords_never_prunes(self):
        left = _synopsis("r1", "fever", "flu", keywords=frozenset())
        right = _synopsis("r2", "cough", "flu", source="s2", keywords=frozenset())
        assert not topic_keyword_prune(left, right, frozenset())

    def test_safety_pruned_pair_has_zero_probability(self):
        left = _synopsis("r1", "fever", "flu")
        right = _synopsis("r2", "fever", "flu", source="s2")
        if topic_keyword_prune(left, right, KEYWORDS):
            assert ter_ids_probability(left.record, right.record, KEYWORDS,
                                       gamma=0.5) == 0.0


class TestSimilarityUpperBounds:
    def test_min_attribute_distance_cases(self):
        assert min_attribute_distance((0.7, 0.9), (0.1, 0.2)) == pytest.approx(0.5)
        assert min_attribute_distance((0.1, 0.2), (0.7, 0.9)) == pytest.approx(0.5)
        assert min_attribute_distance((0.1, 0.5), (0.4, 0.9)) == 0.0

    def test_size_bound_is_valid(self):
        left = _synopsis("r1", "fever cough chills aches", "flu")
        right = _synopsis("r2", "fever", "flu severe case", source="s2")
        bound = similarity_upper_bound_by_size(left, right)
        actual = record_similarity(left.record.base, right.record.base, SCHEMA)
        assert actual <= bound + 1e-9

    def test_pivot_bound_is_valid(self):
        left = _synopsis("r1", "weight loss blurred vision", "diabetes")
        right = _synopsis("r2", "fever cough", "flu", source="s2")
        bound = similarity_upper_bound_by_pivot(left, right)
        actual = record_similarity(left.record.base, right.record.base, SCHEMA)
        assert actual <= bound + 1e-9

    def test_combined_bound_not_larger_than_components(self):
        left = _synopsis("r1", "weight loss", "diabetes")
        right = _synopsis("r2", "fever cough", "flu", source="s2")
        combined = similarity_upper_bound(left, right)
        assert combined <= similarity_upper_bound_by_size(left, right) + 1e-9
        assert combined <= similarity_upper_bound_by_pivot(left, right) + 1e-9

    def test_bound_valid_over_all_instance_pairs(self):
        left = _synopsis("r1", "weight loss", None,
                         candidates={"diagnosis": {"diabetes": 0.5,
                                                   "diabetes type two": 0.5}})
        right = _synopsis("r2", "weight loss thirst", "diabetes", source="s2")
        bound = similarity_upper_bound(left, right)
        for left_instance in left.record.instances():
            for right_instance in right.record.instances():
                actual = record_similarity(left_instance.record,
                                           right_instance.record, SCHEMA)
                assert actual <= bound + 1e-9

    def test_similarity_prune_safety(self):
        """A pruned pair can never have an instance pair above gamma."""
        gamma = 1.0
        left = _synopsis("r1", "chest pain", "cardio issue")
        right = _synopsis("r2", "red eye itchy", "conjunctivitis", source="s2")
        if similarity_prune(left, right, gamma):
            probability = ter_ids_probability(left.record, right.record,
                                              frozenset(), gamma)
            assert probability == 0.0

    def test_identical_pair_not_pruned(self):
        left = _synopsis("r1", "weight loss thirst", "diabetes")
        right = _synopsis("r2", "weight loss thirst", "diabetes", source="s2")
        assert not similarity_prune(left, right, gamma=1.0)


class TestPruningPipeline:
    def _pipeline(self, **kwargs):
        defaults = dict(keywords=KEYWORDS, gamma=1.0, alpha=0.3)
        defaults.update(kwargs)
        return PruningPipeline(**defaults)

    def test_matching_pair_accepted(self):
        pipeline = self._pipeline()
        left = _synopsis("r1", "weight loss thirst", "diabetes")
        right = _synopsis("r2", "weight loss thirst", "diabetes", source="s2")
        is_match, probability = pipeline.evaluate_pair(left, right)
        assert is_match
        assert probability > 0.3

    def test_non_topical_pair_rejected_and_counted(self):
        pipeline = self._pipeline()
        left = _synopsis("r1", "fever", "flu")
        right = _synopsis("r2", "fever", "flu", source="s2")
        is_match, _ = pipeline.evaluate_pair(left, right)
        assert not is_match
        assert pipeline.stats.pruned_by_topic == 1

    def test_dissimilar_pair_rejected(self):
        pipeline = self._pipeline()
        left = _synopsis("r1", "weight loss", "diabetes")
        right = _synopsis("r2", "red eye itchy", "conjunctivitis", source="s2")
        is_match, _ = pipeline.evaluate_pair(left, right)
        assert not is_match
        assert pipeline.stats.total_pruned + pipeline.stats.refined_non_matches == 1

    def test_pipeline_agrees_with_exact_probability(self):
        """The pipeline's verdict must equal the exact Eq. (2) verdict."""
        pipeline = self._pipeline()
        cases = [
            ("weight loss thirst", "diabetes", "weight loss thirst", "diabetes"),
            ("weight loss", "diabetes", "fever cough", "flu"),
            ("fever cough", "flu", "fever cough chills", "flu"),
            ("weight loss", None, "weight loss blurred vision", "diabetes"),
        ]
        for index, (ls, ld, rs, rd) in enumerate(cases):
            candidates = ({"diagnosis": {"diabetes": 0.7, "flu": 0.3}}
                          if ld is None else None)
            left = _synopsis(f"l{index}", ls, ld, candidates=candidates)
            right = _synopsis(f"x{index}", rs, rd, source="s2")
            is_match, _ = pipeline.evaluate_pair(left, right)
            exact = ter_ids_probability(left.record, right.record, KEYWORDS,
                                        gamma=1.0)
            assert is_match == (exact > 0.3), f"case {index}"

    def test_disabled_strategies_still_correct(self):
        pipeline = self._pipeline(use_topic=False, use_similarity=False,
                                  use_instance=False)
        left = _synopsis("r1", "weight loss thirst", "diabetes")
        right = _synopsis("r2", "weight loss thirst", "diabetes", source="s2")
        is_match, _ = pipeline.evaluate_pair(left, right)
        assert is_match
        assert pipeline.stats.total_pruned == 0

    def test_stats_pruning_power_sums(self):
        pipeline = self._pipeline()
        pairs = [
            (_synopsis("a", "fever", "flu"),
             _synopsis("b", "cough", "pneumonia", source="s2")),
            (_synopsis("c", "weight loss", "diabetes"),
             _synopsis("d", "red eye", "conjunctivitis", source="s2")),
        ]
        for left, right in pairs:
            pipeline.evaluate_pair(left, right)
        power = pipeline.stats.pruning_power()
        assert power["total"] <= 1.0
        assert pipeline.stats.pairs_considered == 2

