"""Round-trip tests for the JSON persistence layer."""

from repro.core.matching import MatchPair
from repro.core.tuples import Record
from repro.persistence import (
    match_from_dict,
    match_to_dict,
    record_from_dict,
    record_to_dict,
    repository_from_dict,
    repository_to_dict,
)


class TestRecordRoundTrip:
    def test_complete_record(self):
        record = Record(rid="r1", values={"x": "a b", "y": "c"}, source="s1",
                        timestamp=4)
        restored = record_from_dict(record_to_dict(record))
        assert restored == record
        assert restored.values == record.values
        assert restored.timestamp == 4

    def test_incomplete_record_keeps_none(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        restored = record_from_dict(record_to_dict(record))
        assert restored.is_missing("y")


class TestRepositoryRoundTrip:
    def test_repository(self, health_repository):
        data = repository_to_dict(health_repository)
        restored = repository_from_dict(data)
        assert len(restored) == len(health_repository)
        assert list(restored.schema) == list(health_repository.schema)
        assert restored.domain("diagnosis") == health_repository.domain("diagnosis")


class TestMatchRoundTrip:
    def test_single_match(self):
        pair = MatchPair("r1", "a", "r2", "b", 0.75, timestamp=9)
        restored = match_from_dict(match_to_dict(pair))
        assert restored == pair

    def test_engine_results_can_be_persisted(self, health_repository,
                                             health_config):
        from repro.core.engine import TERiDSEngine

        engine = TERiDSEngine(repository=health_repository, config=health_config)
        records = [
            Record(rid="a1", values={"gender": "male",
                                     "symptom": "thirst weight loss",
                                     "diagnosis": "diabetes",
                                     "treatment": "insulin"}, source="stream-a"),
            Record(rid="b1", values={"gender": "male",
                                     "symptom": "thirst weight loss",
                                     "diagnosis": "diabetes",
                                     "treatment": "insulin"}, source="stream-b"),
        ]
        report = engine.run(records)
        assert report.matches
        restored = [match_from_dict(match_to_dict(pair))
                    for pair in report.matches]
        assert restored == report.matches
