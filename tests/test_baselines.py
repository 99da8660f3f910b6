"""Tests for the straightforward method and the five baseline pipelines."""

import pytest

from repro.baselines.naive import NestedLoopMatcher, StraightforwardTERiDS
from repro.baselines.pipelines import (
    ALL_BASELINES,
    METHOD_CDD_ER,
    METHOD_CON_ER,
    METHOD_DD_ER,
    METHOD_ER_ER,
    METHOD_IJ_GER,
    IndexedSequentialPipeline,
    build_baseline,
    build_cdd_er_pipeline,
    build_con_er_pipeline,
    build_dd_er_pipeline,
    build_er_er_pipeline,
)
from repro.core.config import TERiDSConfig
from repro.core.tuples import ImputedRecord, Record


def _post(rid, gender, symptom, diagnosis, treatment, source="stream-a"):
    return Record(rid=rid, values={"gender": gender, "symptom": symptom,
                                   "diagnosis": diagnosis, "treatment": treatment},
                  source=source)


MATCHING_SEQUENCE = [
    _post("a1", "male", "loss of weight blurred vision", "diabetes",
          "drug therapy", source="stream-a"),
    _post("b1", "male", "loss of weight blurred vision", "diabetes",
          "drug therapy", source="stream-b"),
    _post("a2", "female", "fever cough", "flu", "rest", source="stream-a"),
    _post("b2", "female", "red eye itchy", "conjunctivitis", "eye drop",
          source="stream-b"),
]


class TestNestedLoopMatcher:
    def test_candidates_exclude_same_stream(self, health_config, health_schema):
        matcher = NestedLoopMatcher(config=health_config)
        first = ImputedRecord.from_complete(MATCHING_SEQUENCE[0], health_schema)
        second = ImputedRecord.from_complete(MATCHING_SEQUENCE[2], health_schema)
        matcher.expire_and_insert(first)
        matcher.expire_and_insert(second)
        other_stream = ImputedRecord.from_complete(MATCHING_SEQUENCE[1],
                                                   health_schema)
        candidates = matcher.candidates(other_stream)
        assert {candidate.rid for candidate in candidates} == {"a1", "a2"}

    def test_window_eviction(self, health_config, health_schema):
        config = health_config.replace(window_size=1)
        matcher = NestedLoopMatcher(config=config)
        first = ImputedRecord.from_complete(MATCHING_SEQUENCE[0], health_schema)
        second = ImputedRecord.from_complete(MATCHING_SEQUENCE[2], health_schema)
        assert matcher.expire_and_insert(first) is None
        evicted = matcher.expire_and_insert(second)
        assert evicted.rid == "a1"

    def test_match_counts_pairs(self, health_config, health_schema):
        matcher = NestedLoopMatcher(config=health_config)
        left = ImputedRecord.from_complete(MATCHING_SEQUENCE[0], health_schema)
        right = ImputedRecord.from_complete(MATCHING_SEQUENCE[1], health_schema)
        matches = matcher.match(right, [left])
        assert matcher.pairs_evaluated == 1
        assert len(matches) == 1
        assert matches[0].probability > health_config.alpha


class TestBaselineConstruction:
    def test_build_baseline_registry(self, health_repository, health_config):
        for method in ALL_BASELINES:
            pipeline = build_baseline(method, health_repository, health_config)
            assert pipeline is not None

    def test_unknown_baseline_rejected(self, health_repository, health_config):
        with pytest.raises(KeyError):
            build_baseline("does-not-exist", health_repository, health_config)

    def test_factory_types(self, health_repository, health_config):
        assert isinstance(build_baseline(METHOD_IJ_GER, health_repository,
                                         health_config),
                          IndexedSequentialPipeline)
        assert isinstance(build_baseline(METHOD_CDD_ER, health_repository,
                                         health_config),
                          StraightforwardTERiDS)


class TestBaselineBehaviour:
    @pytest.mark.parametrize("method", list(ALL_BASELINES))
    def test_every_baseline_finds_the_obvious_match(self, method,
                                                    health_repository,
                                                    health_config):
        pipeline = build_baseline(method, health_repository, health_config)
        report = pipeline.run(list(MATCHING_SEQUENCE))
        keys = {pair.key() for pair in report.matches}
        expected_key = (("stream-a", "a1"), ("stream-b", "b1"))
        assert expected_key in keys, f"{method} missed the exact duplicate pair"
        assert report.timestamps_processed == len(MATCHING_SEQUENCE)
        assert report.total_seconds > 0

    @pytest.mark.parametrize("method", list(ALL_BASELINES))
    def test_no_same_stream_pairs(self, method, health_repository, health_config):
        pipeline = build_baseline(method, health_repository, health_config)
        report = pipeline.run(list(MATCHING_SEQUENCE))
        for pair in report.matches:
            assert pair.left_source != pair.right_source

    def test_cdd_er_imputes_incomplete_tuples(self, health_repository,
                                              health_config):
        pipeline = build_cdd_er_pipeline(health_repository, health_config)
        sequence = list(MATCHING_SEQUENCE)
        sequence[1] = _post("b1", "male", "loss of weight blurred vision", None,
                            "drug therapy", source="stream-b")
        report = pipeline.run(sequence)
        keys = {pair.key() for pair in report.matches}
        assert (("stream-a", "a1"), ("stream-b", "b1")) in keys

    def test_con_er_never_touches_repository(self, health_repository,
                                             health_config):
        pipeline = build_con_er_pipeline(health_repository, health_config)
        assert not hasattr(pipeline.imputer, "repository")

    def test_ij_ger_uses_grid_and_indexes(self, health_repository, health_config):
        pipeline = IndexedSequentialPipeline(health_repository, health_config)
        assert pipeline.imputer.indexes
        assert pipeline.imputer.dr_index is pipeline.dr_index
        assert len(pipeline.dr_index) == len(health_repository)
        report = pipeline.run(list(MATCHING_SEQUENCE))
        assert report.method == METHOD_IJ_GER
        assert len(pipeline.grid) == len(MATCHING_SEQUENCE)

    def test_baseline_reports_track_breakup(self, health_repository,
                                            health_config):
        pipeline = build_dd_er_pipeline(health_repository, health_config)
        report = pipeline.run(list(MATCHING_SEQUENCE))
        assert report.imputation_seconds >= 0
        assert report.er_seconds > 0
        assert report.mean_seconds_per_timestamp > 0

    def test_er_er_pipeline_runs(self, health_repository, health_config):
        pipeline = build_er_er_pipeline(health_repository, health_config)
        report = pipeline.run(list(MATCHING_SEQUENCE))
        assert report.method == METHOD_ER_ER

    def test_result_set_expiry_in_straightforward(self, health_repository,
                                                  health_config):
        config = health_config.replace(window_size=1)
        pipeline = build_cdd_er_pipeline(health_repository, config)
        pipeline.process(MATCHING_SEQUENCE[0])
        pipeline.process(MATCHING_SEQUENCE[1])
        # Next stream-a tuple evicts a1; pairs involving it must be dropped.
        pipeline.process(MATCHING_SEQUENCE[2])
        assert all(("stream-a", "a1") not in pair.key()
                   for pair in pipeline.result_set.pairs())


class TestBaselineVsEngineConsistency:
    def test_ter_ids_and_ij_ger_report_same_pairs(self, health_repository,
                                                  health_config):
        """The index join changes the cost, not the answer set."""
        from repro.core.engine import TERiDSEngine

        engine = TERiDSEngine(repository=health_repository, config=health_config)
        engine_report = engine.run(list(MATCHING_SEQUENCE))
        baseline = IndexedSequentialPipeline(health_repository, health_config)
        baseline_report = baseline.run(list(MATCHING_SEQUENCE))
        assert ({pair.key() for pair in engine_report.matches}
                == {pair.key() for pair in baseline_report.matches})

    @pytest.mark.parametrize("dataset", ["citations", "anime", "songs"])
    def test_ij_ger_imputes_exactly_as_the_engine(self, dataset):
        """One impute loop: ``Ij+GER`` selects rules from the same CDD-indexes
        and retrieves through the same DR-index as the engine under either
        executor, so every imputation counter agrees.  ``CDD+ER`` scans all
        of ``R``, which moves ``samples_scanned`` only."""
        from golden_utils import build_config, build_workload
        from repro.core.engine import TERiDSEngine
        from repro.runtime import MicroBatchExecutor, SerialExecutor

        workload = build_workload(dataset, 0.5, 7)
        config = build_config(workload, 40)
        records = list(workload.interleaved_records())
        engine_stats = []
        for executor in (SerialExecutor(), MicroBatchExecutor()):
            engine = TERiDSEngine(workload.repository, config,
                                  executor=executor)
            engine.run(records)
            engine_stats.append(engine.imputer.stats.as_dict())
        serial, batched = engine_stats
        assert batched == serial
        assert serial["records_imputed"] > 0

        ij_ger = IndexedSequentialPipeline(workload.repository, config)
        ij_ger.run(records)
        assert ij_ger.imputer.stats.as_dict() == serial

        cdd_er = build_cdd_er_pipeline(workload.repository, config)
        cdd_er.run(records)
        scan = cdd_er.imputer.stats.as_dict()
        assert scan.pop("samples_scanned") > serial["samples_scanned"]
        assert scan == {name: count for name, count in serial.items()
                        if name != "samples_scanned"}
