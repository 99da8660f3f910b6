"""Unit tests for the TER-iDS probability (Eq. (2)) and the result set."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import (
    EntityResultSet,
    MatchPair,
    instance_pair_matches,
    normalise_keywords,
    ter_ids_probability,
    ter_ids_probability_with_cutoff,
    topic_predicate,
)
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.tuples import ImputedRecord, Instance, Record, Schema
from repro.datasets.synthetic import generate_dataset
from repro.ingest import BatchPolicy, IngestDriver, ReplaySource

SCHEMA = Schema(attributes=("x", "y"))


def _imputed(rid, x, y, candidates=None, source="s1"):
    record = Record(rid=rid, values={"x": x, "y": y}, source=source)
    return ImputedRecord(base=record, schema=SCHEMA, candidates=candidates or {})


class TestKeywordHandling:
    def test_normalise_keywords(self):
        assert normalise_keywords(["Diabetes", "FLU", ""]) == {"diabetes", "flu"}

    def test_topic_predicate_true(self):
        record = Record(rid="r", values={"x": "diabetes care", "y": "rest"})
        assert topic_predicate(record, frozenset({"diabetes"}), SCHEMA)

    def test_topic_predicate_false(self):
        record = Record(rid="r", values={"x": "fever", "y": "rest"})
        assert not topic_predicate(record, frozenset({"diabetes"}), SCHEMA)

    def test_topic_predicate_empty_keywords(self):
        record = Record(rid="r", values={"x": "fever", "y": "rest"})
        assert not topic_predicate(record, frozenset(), SCHEMA)


class TestInstancePairMatches:
    def test_similar_topical_pair_matches(self):
        left = Instance(Record(rid="l", values={"x": "diabetes sugar", "y": "drug"}), 1.0)
        right = Instance(Record(rid="r", values={"x": "diabetes sugar", "y": "drug"}), 1.0)
        assert instance_pair_matches(left, right, frozenset({"diabetes"}),
                                     gamma=1.0, schema=SCHEMA)

    def test_similar_non_topical_pair_fails_topic(self):
        left = Instance(Record(rid="l", values={"x": "fever chills", "y": "rest"}), 1.0)
        right = Instance(Record(rid="r", values={"x": "fever chills", "y": "rest"}), 1.0)
        assert not instance_pair_matches(left, right, frozenset({"diabetes"}),
                                         gamma=1.0, schema=SCHEMA)

    def test_no_keywords_disables_topic_requirement(self):
        left = Instance(Record(rid="l", values={"x": "fever chills", "y": "rest"}), 1.0)
        right = Instance(Record(rid="r", values={"x": "fever chills", "y": "rest"}), 1.0)
        assert instance_pair_matches(left, right, frozenset(), gamma=1.0,
                                     schema=SCHEMA)

    def test_dissimilar_pair_fails_gamma(self):
        left = Instance(Record(rid="l", values={"x": "diabetes", "y": "a"}), 1.0)
        right = Instance(Record(rid="r", values={"x": "diabetes", "y": "zzz"}), 1.0)
        # similarity = 1.0 (x) + 0.0 (y) = 1.0, not > 1.5
        assert not instance_pair_matches(left, right, frozenset({"diabetes"}),
                                         gamma=1.5, schema=SCHEMA)


class TestTerIdsProbability:
    def test_complete_identical_pair_probability_one(self):
        left = _imputed("l", "diabetes sugar", "drug therapy")
        right = _imputed("r", "diabetes sugar", "drug therapy", source="s2")
        probability = ter_ids_probability(left, right, frozenset({"diabetes"}),
                                          gamma=1.5)
        assert probability == pytest.approx(1.0)

    def test_probability_weights_candidates(self):
        left = _imputed("l", "diabetes sugar", "drug therapy")
        right = _imputed("r", "diabetes sugar", None,
                         candidates={"y": {"drug therapy": 0.6, "surgery": 0.4}},
                         source="s2")
        probability = ter_ids_probability(left, right, frozenset({"diabetes"}),
                                          gamma=1.5)
        # Only the "drug therapy" instance reaches similarity 2.0 > 1.5.
        assert probability == pytest.approx(0.6)

    def test_probability_zero_when_no_topic(self):
        left = _imputed("l", "fever chills", "rest")
        right = _imputed("r", "fever chills", "rest", source="s2")
        assert ter_ids_probability(left, right, frozenset({"diabetes"}),
                                   gamma=1.0) == 0.0

    def test_probability_zero_when_dissimilar(self):
        left = _imputed("l", "diabetes", "alpha beta")
        right = _imputed("r", "flu", "gamma delta", source="s2")
        assert ter_ids_probability(left, right, frozenset({"diabetes"}),
                                   gamma=1.0) == 0.0

    def test_probability_bounded_by_total_mass(self):
        left = _imputed("l", "diabetes sugar", None,
                        candidates={"y": {"drug": 0.5, "rest": 0.3}})
        right = _imputed("r", "diabetes sugar", "drug", source="s2")
        probability = ter_ids_probability(left, right, frozenset({"diabetes"}),
                                          gamma=1.2)
        assert 0.0 <= probability <= 0.8 + 1e-9


class TestCutoffEvaluation:
    def test_cutoff_agrees_with_exact_on_match(self):
        keywords = frozenset({"diabetes"})
        left = _imputed("l", "diabetes sugar", None,
                        candidates={"y": {"drug therapy": 0.7, "surgery": 0.3}})
        right = _imputed("r", "diabetes sugar", "drug therapy", source="s2")
        exact = ter_ids_probability(left, right, keywords, gamma=1.5)
        estimate, is_match, checked = ter_ids_probability_with_cutoff(
            left, right, keywords, gamma=1.5, alpha=0.5)
        assert is_match == (exact > 0.5)
        assert checked >= 1

    def test_cutoff_early_accept(self):
        keywords = frozenset({"diabetes"})
        left = _imputed("l", "diabetes sugar", "drug therapy")
        right = _imputed("r", "diabetes sugar", "drug therapy", source="s2")
        estimate, is_match, checked = ter_ids_probability_with_cutoff(
            left, right, keywords, gamma=1.0, alpha=0.3)
        assert is_match
        assert checked == 1  # the single instance pair already exceeds alpha

    def test_cutoff_early_reject_via_upper_bound(self):
        keywords = frozenset({"diabetes"})
        # 10 equally likely candidates, none of which can match.
        candidates = {f"value{i} unrelated": 0.1 for i in range(10)}
        left = _imputed("l", "diabetes", None, candidates={"y": candidates})
        right = _imputed("r", "flu", "other stuff entirely", source="s2")
        estimate, is_match, checked = ter_ids_probability_with_cutoff(
            left, right, keywords, gamma=1.9, alpha=0.0)
        assert not is_match

    def test_cutoff_never_exceeds_total_pairs(self):
        left = _imputed("l", "diabetes", None,
                        candidates={"y": {"a": 0.5, "b": 0.5}})
        right = _imputed("r", "diabetes", None,
                         candidates={"y": {"a": 0.5, "c": 0.5}}, source="s2")
        _, _, checked = ter_ids_probability_with_cutoff(
            left, right, frozenset({"diabetes"}), gamma=1.0, alpha=0.99)
        assert checked <= len(left.instances()) * len(right.instances())


class TestMatchPair:
    def test_key_is_order_independent(self):
        pair1 = MatchPair("r1", "a", "r2", "b", 0.9)
        pair2 = MatchPair("r2", "b", "r1", "a", 0.8)
        assert pair1.key() == pair2.key()


class TestEntityResultSet:
    def test_add_and_len(self):
        result_set = EntityResultSet()
        result_set.add(MatchPair("r1", "a", "r2", "b", 0.9))
        assert len(result_set) == 1

    def test_duplicate_pairs_deduplicated(self):
        result_set = EntityResultSet()
        result_set.add(MatchPair("r1", "a", "r2", "b", 0.9))
        result_set.add(MatchPair("r2", "b", "r1", "a", 0.95))
        assert len(result_set) == 1

    def test_contains(self):
        result_set = EntityResultSet()
        pair = MatchPair("r1", "a", "r2", "b", 0.9)
        result_set.add(pair)
        assert pair in result_set
        assert MatchPair("r9", "a", "r2", "b", 0.9) not in result_set
        assert "not a pair" not in result_set

    def test_remove_record_drops_involving_pairs(self):
        result_set = EntityResultSet()
        result_set.add(MatchPair("r1", "a", "r2", "b", 0.9))
        result_set.add(MatchPair("r1", "a", "r3", "b", 0.9))
        result_set.add(MatchPair("r4", "a", "r5", "b", 0.9))
        removed = result_set.remove_record("r1", "a")
        assert removed == 2
        assert len(result_set) == 1

    def test_extend_and_clear(self):
        result_set = EntityResultSet()
        result_set.extend([MatchPair("r1", "a", "r2", "b", 0.9),
                           MatchPair("r3", "a", "r4", "b", 0.9)])
        assert len(result_set.pairs()) == 2
        result_set.clear()
        assert len(result_set) == 0


class ListResultSet:
    """Reference model of ``EntityResultSet``: a list scanned per call."""

    def __init__(self):
        self.pairs = []

    def add(self, pair):
        for index, held in enumerate(self.pairs):
            if held.key() == pair.key():
                self.pairs[index] = pair
                return
        self.pairs.append(pair)

    def remove_record(self, rid, source):
        kept = [pair for pair in self.pairs
                if (source, rid) not in pair.key()]
        removed = len(self.pairs) - len(kept)
        self.pairs = kept
        return removed


_ENDPOINTS = st.tuples(st.sampled_from(["r0", "r1", "r2", "r3", "r4"]),
                       st.sampled_from(["a", "b", "c"]))
_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("add"), _ENDPOINTS, _ENDPOINTS,
              st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("remove"), _ENDPOINTS),
    st.tuples(st.just("clear"))), max_size=60)


@given(operations=_OPERATIONS)
@settings(max_examples=200, deadline=None)
def test_result_set_equals_a_list_backed_model(operations):
    """Random add / refresh / remove_record / clear sequences: the indexed
    result set answers exactly as a list scanned on every call, in the
    same order (a refresh keeps the pair's place)."""
    result_set, model = EntityResultSet(), ListResultSet()
    for operation in operations:
        if operation[0] == "add":
            _, (left_rid, left_source), (right_rid, right_source), p = \
                operation
            pair = MatchPair(left_rid, left_source, right_rid, right_source, p)
            result_set.add(pair)
            model.add(pair)
        elif operation[0] == "remove":
            assert result_set.remove_record(*operation[1]) == \
                model.remove_record(*operation[1])
        else:
            result_set.clear()
            model.pairs = []
        assert result_set.pairs() == model.pairs
        assert list(result_set) == model.pairs
        assert len(result_set) == len(model.pairs)
        for pair in model.pairs:
            assert pair in result_set
        for rid in ("r0", "r1", "r2", "r3", "r4"):
            for source in ("a", "b", "c"):
                assert result_set.pairs_involving(rid, source) == [
                    pair for pair in model.pairs
                    if (source, rid) in pair.key()]
                absent = MatchPair(rid, source, "r9", "z", 0.5)
                assert absent not in result_set


def test_driver_checkpoints_keep_their_keys_and_match_order():
    """The checkpoint after every batch of a fixed driver run holds the
    same keys and the same ``matches`` list, pair for pair and in order,
    as before the result set was indexed by record (digest pinned from the
    list-scanning implementation)."""
    workload = generate_dataset("citations", missing_rate=0.3, scale=2.0,
                                seed=7)
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          alpha=0.3, similarity_ratio=0.3, window_size=40)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    snapshots = []
    driver = IngestDriver(
        engine, [ReplaySource(workload.interleaved_records())],
        policy=BatchPolicy(max_batch=8),
        on_batch=lambda driver, _: snapshots.append(
            driver.checkpoint()["matches"]))
    driver.run()
    assert sorted(driver.checkpoint()) == [
        "arrival_sources", "dr_index", "grid_counters", "imputation_stats", "ingest",
        "ingest_stats", "matches", "pruning_stats", "query_stats",
        "repository_size", "rule_installs", "telemetry", "timer",
        "timestamps_processed", "windows"]
    assert len(snapshots) == 43
    assert max(len(matches) for matches in snapshots) > 10
    digest = hashlib.sha256(json.dumps(snapshots).encode()).hexdigest()
    assert digest == ("40a630d5fc31e051b0199f748844a850"
                      "0c7cb5b9539730db0449eaa82b4d6fb5")
