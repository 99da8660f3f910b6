"""Unit and behavioural tests for the TER-iDS engine (Algorithms 1-2)."""

import pytest

from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.matching import ter_ids_probability
from repro.core.tuples import Record, Schema
from repro.runtime import MicroBatchExecutor, SerialExecutor


@pytest.fixture
def health_engine(health_repository, health_config):
    return TERiDSEngine(repository=health_repository, config=health_config)


def _post(rid, gender, symptom, diagnosis, treatment, source="stream-a"):
    return Record(rid=rid, values={"gender": gender, "symptom": symptom,
                                   "diagnosis": diagnosis, "treatment": treatment},
                  source=source)


class TestPrecomputation:
    def test_offline_structures_built(self, health_engine, health_repository):
        assert len(health_engine.rules) > 0
        assert set(health_engine.imputer.indexes) <= set(health_repository.schema)
        assert len(health_engine.dr_index) == len(health_repository)
        for attribute in health_repository.schema:
            assert len(health_engine.pivots.pivots[attribute]) >= 1

    def test_prebuilt_rules_can_be_supplied(self, health_repository, health_config):
        from repro.imputation.cdd import discover_cdd_rules

        rules = discover_cdd_rules(health_repository)
        engine = TERiDSEngine(repository=health_repository, config=health_config,
                              rules=rules)
        assert engine.rules == list(rules)


class TestOnlineProcessing:
    def test_single_record_produces_no_matches(self, health_engine):
        matches = health_engine.process(_post("a1", "male", "thirst weight loss",
                                              "diabetes", "insulin"))
        assert matches == []
        assert health_engine.timestamps_processed == 1
        assert len(health_engine.grid) == 1

    def test_matching_pair_across_streams(self, health_engine):
        health_engine.process(_post("a1", "male", "loss of weight blurred vision",
                                    "diabetes", "drug therapy", source="stream-a"))
        matches = health_engine.process(
            _post("b1", "male", "loss of weight blurred vision", "diabetes",
                  "drug therapy", source="stream-b"))
        assert len(matches) == 1
        pair = matches[0]
        assert {pair.left_rid, pair.right_rid} == {"a1", "b1"}
        assert pair.probability > health_engine.config.alpha
        assert pair in health_engine.result_set

    def test_same_stream_pairs_never_reported(self, health_engine):
        health_engine.process(_post("a1", "male", "thirst weight loss", "diabetes",
                                    "insulin", source="stream-a"))
        matches = health_engine.process(
            _post("a2", "male", "thirst weight loss", "diabetes", "insulin",
                  source="stream-a"))
        assert matches == []

    def test_non_topical_pair_not_reported(self, health_engine):
        health_engine.process(_post("a1", "female", "fever cough", "flu", "rest",
                                    source="stream-a"))
        matches = health_engine.process(
            _post("b1", "female", "fever cough", "flu", "rest", source="stream-b"))
        assert matches == []
        assert health_engine.pruning.stats.pruned_by_topic >= 1

    def test_incomplete_tuple_is_imputed_and_matched(self, health_engine):
        health_engine.process(_post("a1", "male", "loss of weight blurred vision",
                                    "diabetes", "drug therapy", source="stream-a"))
        incomplete = _post("b1", "male", "loss of weight blurred vision", None,
                           "drug therapy", source="stream-b")
        matches = health_engine.process(incomplete)
        assert len(matches) == 1
        assert health_engine.imputer.stats.records_imputed >= 1

    def test_engine_verdicts_match_exact_probability(self, health_engine,
                                                     health_config):
        """Integration-level exactness: engine answers == brute-force Eq. (2)."""
        arrivals = [
            _post("a1", "male", "loss of weight blurred vision", "diabetes",
                  "drug therapy", source="stream-a"),
            _post("b1", "male", "weight loss blurred vision", None,
                  "drug therapy", source="stream-b"),
            _post("a2", "female", "fever cough", "flu", "rest", source="stream-a"),
            _post("b2", "female", "fever cough chills", "flu", "rest",
                  source="stream-b"),
            _post("a3", "male", "thirst fatigue weight loss", "diabetes", None,
                  source="stream-a"),
        ]
        reported = set()
        synopses = {}
        for record in arrivals:
            for pair in health_engine.process(record):
                reported.add(pair.key())
            synopses[(record.rid, record.source)] = health_engine.grid.get_synopsis(
                record.rid, record.source)

        # Brute force over all cross-stream pairs using the engine's own
        # imputed records (so imputation quality is factored out).
        expected = set()
        keys = list(synopses)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                left = synopses[keys[i]]
                right = synopses[keys[j]]
                if left.record.source == right.record.source:
                    continue
                probability = ter_ids_probability(
                    left.record, right.record, health_config.keywords,
                    health_config.gamma)
                if probability > health_config.alpha:
                    from repro.core.matching import MatchPair
                    expected.add(MatchPair(left.rid, left.source, right.rid,
                                           right.source, probability).key())
        assert reported == expected


class TestWindowExpiry:
    def test_expired_tuples_leave_grid_and_results(self, health_repository,
                                                   health_config):
        config = health_config.replace(window_size=2)
        engine = TERiDSEngine(repository=health_repository, config=config)
        for index in range(5):
            engine.process(_post(f"a{index}", "male", "thirst weight loss",
                                 "diabetes", "insulin", source="stream-a"))
        # Window keeps only the 2 most recent stream-a tuples.
        assert sum(1 for s in engine.grid.synopses()
                   if s.source == "stream-a") == 2

    def test_match_involving_expired_tuple_removed_from_result_set(
            self, health_repository, health_config):
        config = health_config.replace(window_size=1)
        engine = TERiDSEngine(repository=health_repository, config=config)
        engine.process(_post("a1", "male", "thirst weight loss", "diabetes",
                             "insulin", source="stream-a"))
        matches = engine.process(_post("b1", "male", "thirst weight loss",
                                       "diabetes", "insulin", source="stream-b"))
        assert matches
        # A new stream-a tuple evicts a1, so the (a1, b1) pair must vanish.
        engine.process(_post("a2", "female", "fever", "flu", "rest",
                             source="stream-a"))
        assert all(("stream-a", "a1") not in pair.key()
                   for pair in engine.result_set.pairs())


class TestReArrival:
    """A re-arriving ``(source, rid)`` replaces its earlier entry."""

    @staticmethod
    def _stream():
        diabetic = ("male", "thirst weight loss", "diabetes", "insulin")
        return [
            _post("a4", *diabetic),
            _post("b1", *diabetic, source="stream-b"),
            _post("a5", "female", "fever cough", "flu", "rest"),
            # a4 again, now unlike b1: the (a4, b1) answer must go.
            _post("a4", "female", "red eye itchy", "diabetes", "eye drop"),
            _post("a1", "female", "sneeze pollen rash", "allergy",
                  "antihistamine"),
        ]

    @staticmethod
    def _state(engine):
        return (sorted((s.source, s.rid, s.record.base.values["symptom"])
                       for s in engine.grid.synopses()),
                {pair.key() for pair in engine.current_matches()})

    @pytest.mark.parametrize("make_executor", [
        SerialExecutor, lambda: MicroBatchExecutor(1),
        lambda: MicroBatchExecutor(7)], ids=["serial", "micro-1", "micro-7"])
    def test_window_grid_and_results_keep_the_live_copy(
            self, health_repository, health_config, make_executor):
        config = health_config.replace(window_size=3)
        engine = TERiDSEngine(repository=health_repository, config=config,
                              executor=make_executor())
        report = engine.run(self._stream())
        assert {pair.key() for pair in report.matches} == {
            (("stream-a", "a4"), ("stream-b", "b1"))}

        window = engine.windows["stream-a"]
        assert [item.rid for item in window] == ["a5", "a4", "a1"]
        live = window.get("a4", "stream-a")
        assert live is not None
        assert live.record.base.values["symptom"] == "red eye itchy"
        assert engine.grid.get_synopsis("a4", "stream-a") is live
        assert {s.rid for s in engine.grid.synopses()
                if s.source == "stream-a"} == {"a5", "a4", "a1"}
        assert engine.current_matches() == []

        # The checkpoint restores exactly the live state, and both engines
        # answer the same afterwards.
        restored = TERiDSEngine(repository=health_repository, config=config,
                                executor=make_executor())
        restored.restore_checkpoint(engine.checkpoint())
        assert self._state(restored) == self._state(engine)
        follow_up = _post("b2", "female", "red eye itchy", "diabetes",
                          "eye drop", source="stream-b")
        assert ({pair.key() for pair in engine.process(follow_up)}
                == {pair.key() for pair in restored.process(follow_up)}
                == {(("stream-a", "a4"), ("stream-b", "b2"))})
        assert self._state(restored) == self._state(engine)


class TestRunAndReporting:
    def test_run_returns_report(self, health_repository, health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        records = [
            _post("a1", "male", "loss of weight blurred vision", "diabetes",
                  "drug therapy", source="stream-a"),
            _post("b1", "male", "loss of weight blurred vision", "diabetes",
                  "drug therapy", source="stream-b"),
            _post("a2", "female", "fever cough", "flu", "rest", source="stream-a"),
        ]
        report = engine.run(records)
        assert report.timestamps_processed == 3
        assert report.total_seconds > 0
        assert report.mean_seconds_per_timestamp > 0
        assert len(report.matches) >= 1
        assert report.breakup_cost.total > 0

    def test_breakup_cost_stages_all_measured(self, health_repository,
                                              health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        engine.process(_post("a1", "male", "thirst", None, "insulin",
                             source="stream-a"))
        cost = engine.breakup_cost()
        assert cost.cdd_selection >= 0
        assert cost.imputation > 0
        assert cost.entity_resolution > 0

    def test_pruning_power_report(self, health_repository, health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        engine.process(_post("a1", "female", "fever", "flu", "rest",
                             source="stream-a"))
        engine.process(_post("b1", "female", "fever", "flu", "rest",
                             source="stream-b"))
        power = engine.pruning_power()
        assert set(power) == {"topic_keyword", "similarity_upper_bound",
                              "probability_upper_bound", "instance_pair_level",
                              "total"}
        assert 0.0 <= power["total"] <= 1.0


class TestDynamicRepository:
    def test_add_samples_without_remining(self, health_repository, health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        rules_before = list(engine.rules)
        new_sample = _post("new", "female", "thirst fatigue", "diabetes",
                           "insulin", source="repository")
        engine.add_repository_samples([new_sample])
        assert len(engine.dr_index) == len(health_repository)
        assert engine.rules == rules_before

    def test_add_samples_with_remining(self, health_repository, health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        new_sample = _post("new", "female", "thirst fatigue", "diabetes",
                           "insulin", source="repository")
        engine.add_repository_samples([new_sample], remine_rules=True)
        assert len(engine.rules) > 0


class TestPruningAblation:
    def test_disabling_pruning_preserves_answers(self, health_repository,
                                                 health_config):
        """Pruning strategies must only save work, never change the answers."""
        records = [
            _post("a1", "male", "loss of weight blurred vision", "diabetes",
                  "drug therapy", source="stream-a"),
            _post("b1", "male", "weight loss blurred vision", None,
                  "drug therapy", source="stream-b"),
            _post("a2", "female", "fever cough", "flu", "rest", source="stream-a"),
            _post("b2", "male", "thirst weight loss", "diabetes", None,
                  source="stream-b"),
        ]
        with_pruning = TERiDSEngine(repository=health_repository,
                                    config=health_config)
        without_pruning = TERiDSEngine(
            repository=health_repository,
            config=health_config.replace(use_topic_pruning=False,
                                         use_similarity_pruning=False,
                                         use_instance_pruning=False))
        report_with = with_pruning.run(list(records))
        report_without = without_pruning.run(list(records))
        keys_with = {pair.key() for pair in report_with.matches}
        keys_without = {pair.key() for pair in report_without.matches}
        assert keys_with == keys_without
