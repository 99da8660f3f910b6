"""Tests for the staged streaming runtime (stages, executors, equivalence).

The heavyweight guarantees:

* ``SerialExecutor`` is bit-identical to the seed monolithic engine — match
  sets *and* pruning / imputation counters — pinned by the golden fixtures
  under ``tests/data/`` (generated from the seed implementation);
* ``MicroBatchExecutor`` produces the same match sets (and, because its
  cached refinement replicates the seed's float operation order, the same
  counters) at any batch size;
* window expiry keeps the ER-grid and the entity result set free of evicted
  tuples under both executors;
* however the stream is cut into batches — any schedule of batch sizes —
  the match set, the result set and every pruning / grid counter equal the
  serial reference exactly.
"""

import functools
import hashlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_utils import (
    GOLDEN_WORKLOADS,
    build_config,
    build_workload,
    canonical_matches,
    golden_path,
    run_reference,
)
from test_er_grid import _observables, _small_config, _small_workload
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.tuples import Record, Schema
from repro.runtime import (
    MicroBatchExecutor,
    Pipeline,
    SerialExecutor,
    TupleTask,
)
from repro.runtime.evaluation import evaluate_task_batch


def _post(rid, gender, symptom, diagnosis, treatment, source="stream-a"):
    return Record(rid=rid, values={"gender": gender, "symptom": symptom,
                                   "diagnosis": diagnosis, "treatment": treatment},
                  source=source)


# ---------------------------------------------------------------------------
# Golden regression: the serial executor is bit-identical to the seed engine
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dataset,scale,seed,window", GOLDEN_WORKLOADS)
def test_serial_executor_matches_seed_goldens(dataset, scale, seed, window):
    golden = json.loads(golden_path(dataset).read_text())["reference"]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    got = run_reference(
        lambda **kwargs: TERiDSEngine(executor=SerialExecutor(), **kwargs),
        workload, config)
    assert got == golden


@pytest.mark.parametrize("dataset,scale,seed,window", GOLDEN_WORKLOADS)
@pytest.mark.parametrize("batch_size", [1, 7, 32])
def test_micro_batch_executor_matches_seed_goldens(dataset, scale, seed,
                                                   window, batch_size):
    golden = json.loads(golden_path(dataset).read_text())["reference"]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    got = run_reference(
        lambda **kwargs: TERiDSEngine(
            executor=MicroBatchExecutor(batch_size=batch_size), **kwargs),
        workload, config)
    assert got == golden


#: ``GOLDEN_WORKLOADS[0]`` at ``α = 0.9``: the only corner of the paper's
#: parameter grid with ``α ≥ 1 − ρ²``, the one place the Paley–Zygmund
#: bound (Theorem 4.3, not implemented) could have pruned a pair.  Per
#: ``ρ``: sha256 of the canonical matches and the pruning counters, both
#: taken from the engine that still ran the bound.
HIGH_ALPHA_PINS = {
    0.5: ("a1672b7ba56a18673458413e50b1b9551e5e4b090342fadd5892c13913c9efd5",
          {"pairs_considered": 1766, "pruned_by_topic": 814,
           "pruned_by_similarity": 10, "pruned_by_probability": 0,
           "pruned_by_instance": 431, "refined_matches": 6,
           "refined_non_matches": 505}),
    0.7: ("5f5189b266c942c965894d247ba27868fc28e00baa89934e5235b4da3d5e08c8",
          {"pairs_considered": 1687, "pruned_by_topic": 787,
           "pruned_by_similarity": 285, "pruned_by_probability": 0,
           "pruned_by_instance": 325, "refined_matches": 5,
           "refined_non_matches": 285}),
}


@pytest.mark.parametrize("rho", sorted(HIGH_ALPHA_PINS))
@pytest.mark.parametrize("executor_factory", [
    SerialExecutor,
    lambda: MicroBatchExecutor(batch_size=16),
], ids=["serial", "micro-batch"])
def test_high_alpha_corner_matches_pins(rho, executor_factory):
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window).replace(alpha=0.9,
                                                    similarity_ratio=rho)
    got = run_reference(
        lambda **kwargs: TERiDSEngine(executor=executor_factory(), **kwargs),
        workload, config)
    digest = hashlib.sha256(
        json.dumps(got["matches"]).encode()).hexdigest()
    assert (digest, got["pruning_stats"]) == HIGH_ALPHA_PINS[rho]


# ---------------------------------------------------------------------------
# Stage-level behaviour
# ---------------------------------------------------------------------------
class TestStages:
    def test_pipeline_exposes_stages_in_dataflow_order(self, health_repository,
                                                       health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        names = [stage.name for stage in engine.pipeline.stages]
        assert names == ["rule_selection", "imputation", "synopsis",
                         "candidate_lookup", "matching", "maintenance"]

    def test_grouped_rule_selection_equals_per_record(self, health_repository,
                                                      health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        records = [
            _post("a1", "male", "thirst weight loss", None, "insulin"),
            _post("a2", "male", "blurred vision", None, "drug therapy"),
            _post("a3", "female", "fever cough", "flu", None),
            _post("a4", "male", "chest pain", "cardio issue", "statin"),
        ]
        tasks = [TupleTask(record=record) for record in records]
        engine.pipeline.rule_selection.run(tasks)
        for task in tasks:
            assert task.selected_rules == engine.pipeline.rule_selection.select(
                task.record)

    def test_imputation_stage_skips_complete_records(self, health_repository,
                                                     health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        complete = _post("a1", "male", "thirst", "diabetes", "insulin")
        task = TupleTask(record=complete)
        engine.pipeline.rule_selection.run([task])
        engine.pipeline.imputation.run([task])
        assert task.imputed.is_trivial()

    def test_maintenance_expire_defers_result_set(self, health_repository,
                                                  health_config):
        config = health_config.replace(window_size=1)
        engine = TERiDSEngine(repository=health_repository, config=config)
        engine.process(_post("a1", "male", "thirst weight loss", "diabetes",
                             "insulin", source="stream-a"))
        matches = engine.process(_post("b1", "male", "thirst weight loss",
                                       "diabetes", "insulin", source="stream-b"))
        assert matches
        evicted = engine.pipeline.maintenance.expire(
            _post("a2", "male", "thirst", "diabetes", "insulin",
                  source="stream-a"),
            defer_result_set=True)
        assert evicted is not None
        assert evicted.record.rid == "a1"
        # The grid no longer holds a1 but the deferred pair is still reported.
        assert not engine.grid.contains("a1", "stream-a")
        assert any(pair.involves("a1", "stream-a")
                   for pair in engine.result_set.pairs())


# ---------------------------------------------------------------------------
# Cached pair evaluation
# ---------------------------------------------------------------------------
class TestCachedEvaluation:
    def test_cached_evaluation_identical_to_pruning_pipeline(
            self, health_repository, health_config):
        """Exhaustive pairwise check: cached verdicts == seed verdicts."""
        from dataclasses import replace

        from repro.core.pruning import PruningPipeline, PruningStats

        engine = TERiDSEngine(repository=health_repository, config=health_config)
        arrivals = [
            _post("a1", "male", "loss of weight blurred vision", "diabetes",
                  "drug therapy", source="stream-a"),
            _post("b1", "male", "weight loss blurred vision", None,
                  "drug therapy", source="stream-b"),
            _post("a2", "female", "fever cough", "flu", "rest", source="stream-a"),
            _post("b2", "female", "fever cough chills", "flu", None,
                  source="stream-b"),
            _post("a3", "male", "thirst fatigue weight loss", "diabetes", None,
                  source="stream-a"),
        ]
        for record in arrivals:
            engine.process(record)
        synopses = engine.grid.synopses()
        reference = PruningPipeline(keywords=health_config.keywords,
                                    gamma=health_config.gamma,
                                    alpha=health_config.alpha)
        items = [(left, [right for right in synopses if right is not left])
                 for left in synopses]
        cached = replace(reference, stats=PruningStats())
        store = engine.grid.enable_packed_store()
        got = evaluate_task_batch(
            [(left, store.rows_for(rights)) for left, rights in items],
            cached, store)
        assert got == [[reference.evaluate_pair(left, right)
                        for right in rights] for left, rights in items]
        assert cached.stats == reference.stats


# ---------------------------------------------------------------------------
# Expiry consistency (satellite): grid and result set drop evicted tuples
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("executor_factory", [
    SerialExecutor,
    lambda: MicroBatchExecutor(batch_size=4),
], ids=["serial", "micro-batch"])
def test_expiry_leaves_no_grid_or_result_references(health_repository,
                                                    health_config,
                                                    executor_factory):
    config = health_config.replace(window_size=2)
    engine = TERiDSEngine(repository=health_repository, config=config,
                          executor=executor_factory())
    arrivals = []
    for index in range(6):
        arrivals.append(_post(f"a{index}", "male", "thirst weight loss",
                              "diabetes", "insulin", source="stream-a"))
        arrivals.append(_post(f"b{index}", "male", "thirst weight loss",
                              "diabetes", "insulin", source="stream-b"))
    engine.process_batch(arrivals)

    surviving = {(item.record.rid, item.record.source)
                 for window in engine.windows.values()
                 for item in window.items()}
    # Exactly the last window_size tuples per stream survive.
    assert surviving == {("a4", "stream-a"), ("a5", "stream-a"),
                         ("b4", "stream-b"), ("b5", "stream-b")}
    # The grid holds exactly the surviving tuples.
    in_grid = {(synopsis.record.rid, synopsis.record.source)
               for synopsis in engine.grid.synopses()}
    assert in_grid == surviving
    for index in range(4):
        assert not engine.grid.contains(f"a{index}", "stream-a")
        assert not engine.grid.contains(f"b{index}", "stream-b")
    # No reported pair references an evicted tuple.
    for pair in engine.result_set.pairs():
        for index in range(4):
            assert not pair.involves(f"a{index}", "stream-a")
            assert not pair.involves(f"b{index}", "stream-b")
    # The surviving cross-stream pairs are still reported.
    assert len(engine.result_set) > 0


# ---------------------------------------------------------------------------
# Engine facade behaviour
# ---------------------------------------------------------------------------
class TestEngineFacade:
    def test_process_batch_equals_tuple_at_a_time(self, health_repository,
                                                  health_config):
        arrivals = [
            _post("a1", "male", "loss of weight blurred vision", "diabetes",
                  "drug therapy", source="stream-a"),
            _post("b1", "male", "weight loss blurred vision", None,
                  "drug therapy", source="stream-b"),
            _post("a2", "female", "fever cough", "flu", "rest",
                  source="stream-a"),
            _post("b2", "male", "thirst weight loss", "diabetes", None,
                  source="stream-b"),
        ]
        serial = TERiDSEngine(repository=health_repository, config=health_config)
        serial_matches = []
        for record in arrivals:
            serial_matches.extend(serial.process(record))

        batched = TERiDSEngine(repository=health_repository,
                               config=health_config,
                               executor=MicroBatchExecutor(batch_size=4))
        batch_matches = batched.process_batch(arrivals)

        assert canonical_matches(batch_matches) == canonical_matches(serial_matches)
        assert (canonical_matches(batched.current_matches())
                == canonical_matches(serial.current_matches()))
        assert batched.timestamps_processed == serial.timestamps_processed

    def test_run_chunks_by_executor_batch_size(self, health_repository,
                                               health_config):
        records = [
            _post(f"a{index}", "male", "thirst weight loss", "diabetes",
                  "insulin", source="stream-a")
            for index in range(5)
        ]
        engine = TERiDSEngine(repository=health_repository, config=health_config,
                              executor=MicroBatchExecutor(batch_size=2))
        report = engine.run(records)
        assert report.timestamps_processed == 5
        assert report.total_seconds > 0

    def test_executor_close_is_idempotent(self, health_repository,
                                          health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config,
                              executor=MicroBatchExecutor(batch_size=2))
        engine.close()
        engine.close()

    def test_micro_batch_executor_validates_arguments(self):
        with pytest.raises(ValueError):
            MicroBatchExecutor(batch_size=0)

    def test_micro_batch_executor_takes_batch_size_only(self):
        """The execution matrix is two classes, not a knob space."""
        parameters = inspect.signature(MicroBatchExecutor).parameters
        assert list(parameters) == ["batch_size"]
        assert not hasattr(MicroBatchExecutor, "reconfigure")


# ---------------------------------------------------------------------------
# Batched stream emission (satellite)
# ---------------------------------------------------------------------------
class TestBatchedEmission:
    def _streams(self, health_schema):
        from repro.core.stream import StreamSet, build_stream

        stream_a = [_post(f"a{index}", "male", "thirst", "diabetes", "insulin")
                    for index in range(5)]
        stream_b = [_post(f"b{index}", "female", "fever", "flu", "rest")
                    for index in range(3)]
        return StreamSet(streams=[
            build_stream("stream-a", stream_a, health_schema),
            build_stream("stream-b", stream_b, health_schema),
        ])

    def test_interleaved_batches_preserve_interleaving(self, health_schema):
        streams = self._streams(health_schema)
        reference = [record.rid for record in self._streams(health_schema)
                     .interleaved()]
        batches = list(streams.interleaved_batches(3))
        assert [len(batch) for batch in batches] == [3, 3, 2]
        assert [record.rid for batch in batches for record in batch] == reference

    def test_interleaved_batches_rejects_bad_size(self, health_schema):
        with pytest.raises(ValueError):
            list(self._streams(health_schema).interleaved_batches(0))

    def test_next_batch_drains_stream(self, health_schema):
        streams = self._streams(health_schema)
        stream = streams.streams[1]
        first = stream.next_batch(2)
        assert [record.rid for record in first] == ["b0", "b1"]
        assert [record.timestamp for record in first] == [0, 1]
        rest = stream.next_batch(10)
        assert [record.rid for record in rest] == ["b2"]
        assert stream.next_batch(4) == []
        with pytest.raises(ValueError):
            stream.next_batch(0)

    def test_batched_emission_drives_micro_batch_engine(self, health_repository,
                                                        health_config):
        streams = self._streams(health_config.schema)
        engine = TERiDSEngine(repository=health_repository, config=health_config,
                              executor=MicroBatchExecutor(batch_size=3))
        for batch in streams.interleaved_batches(3):
            engine.process_batch(batch)
        assert engine.timestamps_processed == 8


# ---------------------------------------------------------------------------
# Dynamic repository maintenance (satellite)
# ---------------------------------------------------------------------------
class TestRepositoryMaintenance:
    def test_added_samples_reach_repository_and_index(self, health_repository,
                                                      health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        before = len(engine.repository)
        new_sample = _post("new", "female", "thirst fatigue", "diabetes",
                           "insulin", source="repository")
        engine.add_repository_samples([new_sample])
        assert len(engine.repository) == before + 1
        assert len(engine.dr_index) == before + 1
        assert engine.repository.sample_by_rid("new") is not None

    def test_remining_sees_added_samples(self, health_schema, health_config):
        """Re-mined rules must reflect the extended repository, not a stale one."""
        from repro.imputation.repository import DataRepository

        rows = [
            ("male", "weight loss blurred vision", "diabetes", "drug therapy"),
            ("male", "loss of weight thirst", "diabetes", "dietary therapy"),
            ("female", "fever cough low spirit", "pneumonia", "antibiotics rest"),
            ("male", "fever poor appetite cough", "flu", "drink more"),
            ("male", "blurred vision fatigue", "diabetes", "drug therapy"),
        ]
        samples = [
            Record(rid=f"s{index}",
                   values={"gender": gender, "symptom": symptom,
                           "diagnosis": diagnosis, "treatment": treatment},
                   source="repository")
            for index, (gender, symptom, diagnosis, treatment) in enumerate(rows)
        ]
        repository = DataRepository(schema=health_schema, samples=samples)
        engine = TERiDSEngine(repository=repository, config=health_config)
        # A burst of near-identical samples creates support for new rule
        # patterns; remining must be computed over the extended repository.
        additions = [
            _post(f"extra{index}", "female", "sneeze pollen rash", "allergy",
                  "antihistamine", source="repository")
            for index in range(4)
        ]
        engine.add_repository_samples(additions, remine_rules=True)
        assert len(engine.repository) == len(rows) + len(additions)
        assert engine.imputer.repository is engine.repository
        # The rules were re-mined over a repository containing the additions:
        # mining the same repository directly yields the identical rule set.
        from repro.imputation.cdd import discover_cdd_rules
        expected = discover_cdd_rules(engine.repository, engine.discovery_config)
        assert [rule.rule_id for rule in engine.rules] == [
            rule.rule_id for rule in expected]

    def test_remining_preserves_imputation_stats(self, health_repository,
                                                 health_config):
        engine = TERiDSEngine(repository=health_repository, config=health_config)
        engine.process(_post("a1", "male", "thirst", None, "insulin"))
        counted = engine.imputer.stats.records_imputed
        assert counted >= 1
        engine.add_repository_samples(
            [_post("new", "female", "thirst fatigue", "diabetes", "insulin",
                   source="repository")],
            remine_rules=True)
        assert engine.imputer.stats.records_imputed == counted

    def test_adding_samples_clears_candidate_cache(self, health_repository,
                                                   health_config):
        """Domain growth invalidates the cache keys; stale entries are dropped."""
        engine = TERiDSEngine(repository=health_repository, config=health_config,
                              executor=MicroBatchExecutor(batch_size=4))
        engine.process_batch([_post("a1", "male", "thirst weight loss", None,
                                    "insulin")])
        assert engine.imputer.candidate_cache  # populated by the batch path
        engine.add_repository_samples(
            [_post("new", "female", "thirst fatigue", "diabetes", "insulin",
                   source="repository")])
        assert engine.imputer.candidate_cache == {}


# ---------------------------------------------------------------------------
# Imputation scoped-rules API (satellite)
# ---------------------------------------------------------------------------
class TestScopedImputation:
    def test_rules_override_matches_scoped_imputer(self, health_repository,
                                                   health_config):
        """The ``rules=`` override equals a per-attribute scoped CDDImputer.

        This is the exact pattern the seed hot path used (one throwaway
        imputer per missing attribute); the override must produce identical
        distributions and counters without the construction cost.
        """
        from repro.imputation.imputer import CDDImputer

        engine = TERiDSEngine(repository=health_repository, config=health_config)
        incomplete = [
            _post("q1", "male", "thirst weight loss", None, None),
            _post("q2", "male", "blurred vision fatigue", None, "drug therapy"),
            _post("q3", "female", "fever cough", None, "rest"),
        ]
        for record in incomplete:
            for attribute in record.missing_attributes(engine.schema):
                index = engine.cdd_indexes.get(attribute)
                selected = index.candidate_rules(record) if index else []
                if not selected:
                    continue
                # Seed-style throwaway scoped imputer.
                scoped = CDDImputer(
                    repository=engine.repository,
                    rules=selected,
                    max_candidates_per_sample=engine.imputer.max_candidates_per_sample,
                    max_rules_per_attribute=engine.imputer.max_rules_per_attribute,
                    max_candidate_values=engine.imputer.max_candidate_values,
                    sample_retriever=engine.imputer.sample_retriever,
                )
                expected = scoped.candidate_distribution(record, attribute)
                got = engine.imputer.candidate_distribution(record, attribute,
                                                            rules=selected)
                assert got == expected

    def test_candidate_cache_does_not_change_distributions(
            self, health_repository, health_config):
        from repro.imputation.cdd import discover_cdd_rules
        from repro.imputation.imputer import CDDImputer

        rules = discover_cdd_rules(health_repository)
        plain = CDDImputer(repository=health_repository, rules=rules)
        cached = CDDImputer(repository=health_repository, rules=rules,
                            candidate_cache={})
        record = _post("q1", "male", "thirst weight loss", None, None)
        for attribute in ("diagnosis", "treatment"):
            assert (plain.candidate_distribution(record, attribute)
                    == cached.candidate_distribution(record, attribute))
        assert len(cached.candidate_cache) > 0


# ---------------------------------------------------------------------------
# Bit-identity under batch-size schedules
# ---------------------------------------------------------------------------
_SCHEDULE_WORKLOAD = _small_workload()


def _schedule_engine(executor):
    return TERiDSEngine(repository=_SCHEDULE_WORKLOAD.repository,
                        config=_small_config(_SCHEDULE_WORKLOAD),
                        executor=executor)


def _run_with_schedule(executor, schedule):
    """Feed the workload one ``executor.batch_size`` batch at a time.

    ``schedule`` maps batch index → the batch size assigned *before* that
    batch is cut (a quiescent point: ``batch_size`` is a plain attribute).
    """
    engine = _schedule_engine(executor)
    records = list(_SCHEDULE_WORKLOAD.interleaved_records())
    matches = []
    start = 0
    batch_index = 0
    while start < len(records):
        if batch_index in schedule:
            executor.batch_size = schedule[batch_index]
        batch = records[start:start + executor.batch_size]
        matches.extend(engine.process_batch(batch))
        start += len(batch)
        batch_index += 1
    return _observables(engine, matches)


@functools.lru_cache(maxsize=None)
def _serial_observables():
    return _run_with_schedule(SerialExecutor(), {})


def test_batch_size_schedule_is_bit_identical():
    executor = MicroBatchExecutor(batch_size=16)
    schedule = {1: 4, 3: 64, 5: 1}
    assert _run_with_schedule(executor, schedule) == _serial_observables()


@given(schedule=st.dictionaries(st.integers(min_value=0, max_value=8),
                                st.integers(min_value=1, max_value=64),
                                max_size=4))
@settings(max_examples=8, deadline=None)
def test_random_batch_size_schedules_are_bit_identical(schedule):
    executor = MicroBatchExecutor(batch_size=8)
    assert _run_with_schedule(executor, schedule) == _serial_observables()


def test_executor_is_reusable_after_close():
    """close() is not a tombstone: the executor keeps working after it."""
    executor = MicroBatchExecutor(batch_size=16)
    engine = _schedule_engine(executor)
    records = list(_SCHEDULE_WORKLOAD.interleaved_records())
    half = len(records) // 2
    matches = list(engine.process_batch(records[:half]))
    executor.close()
    executor.close()  # idempotent
    matches.extend(engine.process_batch(records[half:]))
    assert _observables(engine, matches) == _serial_observables()


# ---------------------------------------------------------------------------
# Import surface: the library is single-process
# ---------------------------------------------------------------------------
def test_import_repro_loads_no_multiprocessing_or_mmap():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; import repro; "
             "print([name for name in sys.modules "
             "if name == 'mmap' or name.split('.')[0] == 'multiprocessing'])")
    done = subprocess.run([sys.executable, "-c", probe], cwd=src,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
