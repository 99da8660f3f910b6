"""Checkpoint / restore tests: pause a stream, resume, identical answers."""

import json
import random

import pytest

from golden_utils import (
    build_config,
    build_workload,
    canonical_matches,
    decoded_token_rows,
    instance_token_rows,
)
from test_er_grid import _observables, _small_config, _small_workload
from repro.core.engine import TERiDSEngine
from repro.core.tuples import Record
from repro.ingest import BatchPolicy, IngestDriver, ReplaySource
from repro.persistence import CheckpointError, load_checkpoint, save_checkpoint
from repro.runtime import MicroBatchExecutor, SerialExecutor


def _fresh(workload, window, executor=None):
    return TERiDSEngine(repository=workload.repository,
                        config=build_config(workload, window),
                        executor=executor)


@pytest.mark.parametrize("resume_executor_factory", [
    lambda: SerialExecutor(),
    lambda: MicroBatchExecutor(batch_size=16),
], ids=["resume-serial", "resume-micro-batch"])
def test_checkpoint_restore_resume_equals_uninterrupted(tmp_path,
                                                        resume_executor_factory):
    """Run N tuples, checkpoint, restore into a fresh engine, run M more."""
    dataset, scale, seed, window = "citations", 0.5, 7, 40
    split = 50

    # Uninterrupted reference run.
    reference_workload = build_workload(dataset, scale, seed)
    reference = _fresh(reference_workload, window)
    reference_report = reference.run(reference_workload.interleaved_records())

    # Interrupted run: N tuples, checkpoint to disk, restore, M more tuples.
    workload = build_workload(dataset, scale, seed)
    records = list(workload.interleaved_records())
    first = _fresh(workload, window)
    first_matches = []
    for record in records[:split]:
        first_matches.extend(first.process(record))
    path = tmp_path / "engine.ckpt.json"
    first.save_checkpoint(path)

    resumed = _fresh(workload, window, executor=resume_executor_factory())
    resumed.load_checkpoint(path)
    assert resumed.timestamps_processed == split
    resumed_matches = list(first_matches)
    resumed_matches.extend(resumed.process_batch(records[split:]))
    resumed.close()

    assert (canonical_matches(resumed_matches)
            == canonical_matches(reference_report.matches))
    assert (canonical_matches(resumed.current_matches())
            == canonical_matches(reference.current_matches()))
    assert resumed.timestamps_processed == reference.timestamps_processed
    assert (resumed.imputer.stats.as_dict()
            == reference.imputer.stats.as_dict())
    assert (resumed.pruning.stats.pairs_considered
            == reference.pruning.stats.pairs_considered)
    assert resumed.pruning.stats.total_pruned == reference.pruning.stats.total_pruned

    # The packed store is rebuilt from the restored window, never
    # checkpointed: its token columns must decode to the tokens of the
    # synopses they were rebuilt from, like the uninterrupted run's.
    if resumed.grid.packed_store is not None:
        decoded = decoded_token_rows(resumed.grid.packed_store)
        assert decoded == instance_token_rows(resumed.grid.synopses())
        assert len(decoded) > 10
        assert decoded == decoded_token_rows(
            reference.grid.enable_packed_store())
        assert resumed.checkpoint().keys() == first.checkpoint().keys()


def _three_source_records(repository):
    """60 raw records cycling through sources a, b, c: every one carries
    timestamp -1, so only the checkpoint can say how they interleaved."""
    rng = random.Random(3)
    records = []
    for index in range(60):
        values = dict(repository.samples[index % len(repository)].values)
        for attribute in ("diagnosis", "treatment"):
            if rng.random() < 0.3:
                values[attribute] = None
        records.append(Record(rid=f"r{index}", values=values,
                              source="abc"[index % 3]))
    return records


@pytest.mark.parametrize("executor_factory", [
    lambda: SerialExecutor(),
    lambda: MicroBatchExecutor(batch_size=8),
], ids=["serial", "micro-batch"])
def test_restore_keeps_the_arrival_order_of_three_sources(
        health_repository, health_config, executor_factory):
    """A restore re-inserts the window rows in arrival order, so the
    resumed run returns each tuple's matches in the uninterrupted run's
    list order, not only as the same set."""
    records = _three_source_records(health_repository)

    def engine():
        return TERiDSEngine(repository=health_repository,
                            config=health_config, executor=executor_factory())

    def keys(matches):
        return [pair.key() for pair in matches]

    reference = engine()
    expected = [keys(reference.process(record)) for record in records]
    assert sum(map(len, expected)) > 0
    for cut in range(5, 55, 5):
        first = engine()
        for record in records[:cut]:
            first.process(record)
        resumed = engine()
        resumed.restore_checkpoint(json.loads(json.dumps(first.checkpoint())))
        resumed_keys = [keys(resumed.process(record))
                        for record in records[cut:]]
        assert resumed_keys == expected[cut:], cut


def test_restore_refuses_arrivals_that_do_not_name_the_window_rows(
        health_repository, health_config):
    records = _three_source_records(health_repository)[:9]
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    for record in records:
        engine.process(record)
    state = json.loads(json.dumps(engine.checkpoint()))
    assert state["arrival_sources"] == ["a", "b", "c"] * 3
    state["arrival_sources"].append("a")
    fresh = TERiDSEngine(repository=health_repository, config=health_config)
    with pytest.raises(CheckpointError, match="arrival_sources"):
        fresh.restore_checkpoint(state)


def test_checkpoint_roundtrip_preserves_state(health_repository, health_config):
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    posts = [
        Record(rid="a1", values={"gender": "male",
                                 "symptom": "loss of weight blurred vision",
                                 "diagnosis": "diabetes",
                                 "treatment": "drug therapy"},
               source="stream-a", timestamp=0),
        Record(rid="b1", values={"gender": "male",
                                 "symptom": "loss of weight blurred vision",
                                 "diagnosis": None,
                                 "treatment": "drug therapy"},
               source="stream-b", timestamp=0),
    ]
    for post in posts:
        engine.process(post)
    assert len(engine.result_set) == 1

    state = engine.checkpoint()
    clone = TERiDSEngine(repository=health_repository, config=health_config)
    clone.restore_checkpoint(state)

    assert clone.timestamps_processed == engine.timestamps_processed
    assert clone.result_set.pair_keys() == engine.result_set.pair_keys()
    assert len(clone.grid) == len(engine.grid)
    for synopsis in engine.grid.synopses():
        restored = clone.grid.get_synopsis(synopsis.record.rid,
                                           synopsis.record.source)
        assert restored is not None
        assert restored.distance_bounds == synopsis.distance_bounds
        assert restored.token_size_bounds == synopsis.token_size_bounds
        assert restored.may_have_keyword == synopsis.may_have_keyword
        assert restored.record.candidates == synopsis.record.candidates
    assert clone.imputer.stats.as_dict() == engine.imputer.stats.as_dict()
    assert clone.timer.totals == engine.timer.totals


def test_checkpoint_file_roundtrip_and_validation(tmp_path, health_repository,
                                                  health_config):
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    engine.process(Record(rid="a1",
                          values={"gender": "male", "symptom": "thirst",
                                  "diagnosis": "diabetes",
                                  "treatment": "insulin"},
                          source="stream-a"))
    path = tmp_path / "state.json"
    engine.save_checkpoint(path)

    # The file is a versioned envelope around the state dict.
    payload = json.loads(path.read_text())
    assert payload["format"] == "ter-ids-checkpoint"
    assert payload["version"] == 1
    assert load_checkpoint(path) == engine.checkpoint()

    # Tampered envelopes are rejected.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else", "state": {}}))
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"format": "ter-ids-checkpoint",
                                 "version": 999, "state": {}}))
    with pytest.raises(ValueError):
        load_checkpoint(stale)

    # save_checkpoint accepts any state dict (runtime owns the schema).
    save_checkpoint({"timestamps_processed": 0}, tmp_path / "minimal.json")
    assert load_checkpoint(tmp_path / "minimal.json") == {
        "timestamps_processed": 0}


_GOOD_ENVELOPE = {"format": "ter-ids-checkpoint", "version": 1, "state": {}}


@pytest.mark.parametrize("text", [
    pytest.param(json.dumps(_GOOD_ENVELOPE, indent=2)[:-9], id="truncated"),
    pytest.param("", id="empty"),
    pytest.param(json.dumps([_GOOD_ENVELOPE]), id="not-an-object"),
    pytest.param(json.dumps({"format": "ter-ids-checkpoint", "version": 1}),
                 id="no-state"),
    pytest.param(json.dumps({**_GOOD_ENVELOPE, "format": "something-else"}),
                 id="foreign-format"),
    pytest.param(json.dumps({**_GOOD_ENVELOPE, "version": 999}),
                 id="other-version"),
])
def test_damaged_checkpoint_raises_one_error_naming_the_file(tmp_path, text):
    path = tmp_path / "damaged.json"
    path.write_text(text)
    with pytest.raises(CheckpointError) as raised:
        load_checkpoint(path)
    assert str(path) in str(raised.value)
    assert isinstance(raised.value, ValueError)  # what callers caught before


def test_interrupted_save_leaves_the_previous_checkpoint_loadable(
        tmp_path, monkeypatch):
    """The file is replaced whole: a writer killed before the rename leaves
    the last good checkpoint, not a truncated one."""
    path = tmp_path / "state.json"
    save_checkpoint({"timestamps_processed": 1}, path)

    def killed(source, target):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.persistence.os.replace", killed)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint({"timestamps_processed": 2}, path)
    monkeypatch.undo()
    assert load_checkpoint(path) == {"timestamps_processed": 1}
    save_checkpoint({"timestamps_processed": 3}, path)
    assert load_checkpoint(path) == {"timestamps_processed": 3}
    assert [entry.name for entry in tmp_path.iterdir()] == ["state.json"]


def test_restore_into_smaller_window_keeps_grid_consistent(tmp_path):
    """Shrinking the window across a restore must not desync grid/windows."""
    workload = build_workload("citations", 0.4, 2)
    config = build_config(workload, 20)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    records = list(workload.interleaved_records())
    for record in records[:30]:
        engine.process(record)
    path = tmp_path / "wide.json"
    engine.save_checkpoint(path)

    shrunk = TERiDSEngine(repository=workload.repository,
                          config=config.replace(window_size=3))
    shrunk.load_checkpoint(path)
    window_total = sum(len(window) for window in shrunk.windows.values())
    assert all(len(window) <= 3 for window in shrunk.windows.values())
    assert len(shrunk.grid) == window_total
    for pair in shrunk.result_set.pairs():
        assert shrunk.grid.contains(pair.left_rid, pair.left_source)
        assert shrunk.grid.contains(pair.right_rid, pair.right_source)


def test_restore_clears_previous_online_state(health_repository, health_config):
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    empty_state = engine.checkpoint()
    engine.process(Record(rid="a1",
                          values={"gender": "male", "symptom": "thirst",
                                  "diagnosis": "diabetes",
                                  "treatment": "insulin"},
                          source="stream-a"))
    assert len(engine.grid) == 1
    engine.restore_checkpoint(empty_state)
    assert len(engine.grid) == 0
    assert engine.timestamps_processed == 0
    assert len(engine.result_set) == 0
    assert all(len(window) == 0 for window in engine.windows.values())


#: A checkpoint state exactly as the commit before ``PruningStats.as_dict``
#: wrote it (counters only: no window, no match), key order included.
_PARENT_FORMAT_STATE = {
    "timestamps_processed": 60,
    "windows": {},
    "matches": [],
    "pruning_stats": {
        "pairs_considered": 393, "pruned_by_topic": 156,
        "pruned_by_similarity": 15, "pruned_by_probability": 2,
        "pruned_by_instance": 120, "refined_matches": 4,
        "refined_non_matches": 96},
    "imputation_stats": {
        "records_imputed": 21, "attributes_imputed": 17,
        "attributes_unimputable": 9, "rules_considered": 40,
        "rules_applied": 31, "samples_scanned": 812, "samples_matched": 77,
        "candidate_values": 52},
    "timer": {"totals": {}, "counts": {}},
    "grid_counters": {"cells_examined": 1450, "tuples_examined": 1210},
    "ingest_stats": {
        "tuples_ingested": 60, "batches_formed": 8, "reordered": 3,
        "force_released": 1, "admitted_late": 2, "shed_late": 1,
        "backpressure_waits": 4, "max_queue_depth": 16, "idle_timeouts": 1,
        "executor_waits": 8, "absorbed_samples": 5,
        "expired_by_watermark": 6, "triggers": {"size": 7, "drain": 1}},
    "query_stats": {"resolves": 3, "frontier_expansions": 11},
    "telemetry": {"batch_seq": 8, "trace_id": "batch-00000008"},
}

#: Ingest counters of ``_PARENT_FORMAT_STATE`` whose features were deleted
#: since: the thread offload, event-time expiry and stream-tuple absorption.
_REMOVED_INGEST_COUNTERS = frozenset(
    {"executor_waits", "expired_by_watermark", "absorbed_samples"})

#: DR-index counters of later checkpoints whose subject was deleted since:
#: the R-tree walk of the scalar path.
_REMOVED_DR_INDEX_COUNTERS = frozenset({"nodes_visited"})


def test_parent_format_checkpoint_restores_and_reserialises_equal(
        health_repository, health_config):
    """The counters are named once, in the context's counter table; the
    checkpoint JSON they produce must stay byte-identical, key order
    included — less the ingest and DR-index counters whose features were
    deleted since."""
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    state = json.loads(json.dumps(_PARENT_FORMAT_STATE))
    # A later checkpoint's DR-index section, with the R-tree walk's counter.
    state["dr_index"] = {"nodes_visited": 4410, "packed_probes": 23}
    engine.restore_checkpoint(state)
    ingest_stats = {
        name: value
        for name, value in _PARENT_FORMAT_STATE["ingest_stats"].items()
        if name not in _REMOVED_INGEST_COUNTERS}
    dr_index = {name: value for name, value in state["dr_index"].items()
                if name not in _REMOVED_DR_INDEX_COUNTERS}
    assert not any(hasattr(engine.dr_index, name)
                   for name in _REMOVED_DR_INDEX_COUNTERS)
    # The keys added since: the rule-install counters, absent from the
    # parent's checkpoint and so restored as 0, the repository size the
    # restore guard reads and the windows' arrival order (no row here).
    expected = dict(_PARENT_FORMAT_STATE, ingest_stats=ingest_stats,
                    rule_installs={"installs_skipped": 0,
                                   "installs_rebuilt": 0},
                    dr_index=dr_index,
                    repository_size=len(health_repository),
                    arrival_sources=[])
    assert json.dumps(engine.checkpoint()) == json.dumps(expected)
    snapshot = engine.metrics_snapshot()
    assert snapshot["pruning"] == _PARENT_FORMAT_STATE["pruning_stats"]
    assert snapshot["imputation"] == _PARENT_FORMAT_STATE["imputation_stats"]


def test_rule_install_and_dr_index_counters_survive_a_restore():
    """A value-identical rule install and the packed DR-index probes of a
    micro-batch pass are counted, checkpointed and restored like every
    other counter."""
    workload = build_workload("citations", 0.5, 7)
    records = list(workload.interleaved_records())

    def engine():
        return _fresh(workload, 40, MicroBatchExecutor(batch_size=16))

    first = engine()
    first.ctx.install_rules(list(first.rules))
    first.process_batch(records[:64])
    assert first.ctx.installs_skipped == 1
    assert first.dr_index.packed_probes > 0
    state = json.loads(json.dumps(first.checkpoint()))

    resumed = engine()
    resumed.restore_checkpoint(state)
    assert resumed.ctx.installs_skipped == 1
    assert resumed.ctx.installs_rebuilt == first.ctx.installs_rebuilt
    assert resumed.dr_index.packed_probes == first.dr_index.packed_probes
    snapshot = resumed.metrics_snapshot()
    assert snapshot["rule_installs"]["skipped"] == 1
    assert snapshot["dr_index"] == {
        "packed_probes": first.dr_index.packed_probes}


def test_parent_checkpoint_with_maintainer_state_restores_ignoring_it(
        health_repository, health_config):
    """Checkpoints once carried sketch state under ``rule_maintainer``; the
    key is ignored, and the rules stay the ones mined from the repository."""
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    rules = list(engine.rules)
    state = json.loads(json.dumps(_PARENT_FORMAT_STATE))
    state["rule_maintainer"] = {"version": 1, "rules": [],
                                "band_sketches": {}, "drift": 0.4}
    engine.restore_checkpoint(state)
    assert engine.rules == rules
    assert engine.timestamps_processed == 60
    assert "rule_maintainer" not in engine.checkpoint()


#: ``controller`` states older checkpoints carry: the batch-size
#: controller's own, and the earlier shape with worker / routing fields.
_PARENT_CONTROLLER_STATES = {
    "batch-size-controller": {
        "mode": "active", "slo_p95_seconds": 0.25, "evaluations": 9,
        "decisions": {"retarget_down": 2}, "target_max_batch": 16,
        "last_p95_seconds": 0.3,
        "last_decision": "retarget_down max_batch 32->16 (p95=0.3000s)"},
    "worker-routing-controller": {
        "mode": "active", "slo_p95_seconds": 0.25, "evaluations": 9,
        "decisions": {"scale_up": 1, "broadcast": 1, "retarget_down": 2},
        "cooldown_remaining": 3, "target_workers": 2, "target_max_batch": 16,
        "delta_routing": 0, "broadcast_age": 5, "last_p95_seconds": 0.3,
        "last_decision": "scale_up workers 1->2 (p95=0.3000s)"},
}


@pytest.mark.parametrize("controller", list(_PARENT_CONTROLLER_STATES),
                         ids=list(_PARENT_CONTROLLER_STATES))
def test_parent_format_checkpoint_restores_and_resumes_identically(controller):
    """Older checkpoints carry ``transport_stats`` and a ``controller``
    state; both keys are ignored, the resumed run equals one restored
    without them, and a new checkpoint writes neither."""
    workload = _small_workload()
    records = list(workload.interleaved_records())
    half = len(records) // 2

    def engine():
        return TERiDSEngine(repository=workload.repository,
                            config=_small_config(workload),
                            executor=MicroBatchExecutor(batch_size=8))

    first = engine()
    first.process_batch(records[:half])
    state = first.checkpoint()
    assert not {"transport_stats", "controller"} & set(state)

    old_format = json.loads(json.dumps(state))
    old_format["transport_stats"] = {
        "batches": 7, "bytes_shipped": 123456, "synopses_shipped": 321,
        "orders_shipped": 56, "evictions_shipped": 12, "deltas_routed": 40,
        "backfills": 3, "shm_bytes_mapped": 65536}
    old_format["controller"] = dict(_PARENT_CONTROLLER_STATES[controller])

    def resume(checkpoint):
        resumed = engine()
        resumed.restore_checkpoint(checkpoint)
        matches = resumed.process_batch(records[half:])
        return resumed, _observables(resumed, matches)

    _, plain = resume(state)
    resumed, from_old = resume(old_format)
    assert from_old == plain
    rewritten = resumed.checkpoint()
    assert "transport_stats" not in rewritten
    assert "controller" not in rewritten


def test_restore_refuses_an_engine_over_a_different_repository(tmp_path):
    """A driver whose ``on_batch`` hook grew the repository from the
    complete stream tuples: its checkpoint must not restore into an engine
    over the original repository, which would impute the resumed stream
    from fewer samples."""
    workload = build_workload("citations", 0.4, 7)
    config = build_config(workload, 30)
    records = workload.interleaved_records()[:40]
    engine = TERiDSEngine(repository=build_workload("citations", 0.4,
                                                    7).repository,
                          config=config)
    original = len(engine.repository)

    def grow(driver, batch):
        driver.engine.add_repository_samples(
            record for record in batch if record.is_complete(config.schema))

    driver = IngestDriver(engine, [ReplaySource(records)],
                          policy=BatchPolicy(max_batch=8), on_batch=grow)
    driver.run()
    grown = len(engine.repository)
    assert grown > original
    path = tmp_path / "grown.ckpt.json"
    save_checkpoint(driver.checkpoint(), path)

    stale = TERiDSEngine(repository=workload.repository, config=config)
    assert len(stale.repository) == original
    with pytest.raises(CheckpointError,
                       match=rf"{grown} samples.*holds {original}"):
        IngestDriver(stale, [ReplaySource([])]).restore_checkpoint(
            load_checkpoint(path))
    assert stale.timestamps_processed == 0  # refused before any mutation


def test_parent_ingest_stats_restore_ignoring_removed_counters(
        health_repository, health_config):
    """The removed counters went with their features: an older checkpoint
    restores every other ingest counter and drops these three."""
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    engine.restore_checkpoint(json.loads(json.dumps(_PARENT_FORMAT_STATE)))
    restored = engine.checkpoint()["ingest_stats"]
    assert not _REMOVED_INGEST_COUNTERS & set(restored)
    assert not any(hasattr(engine.ctx.ingest, name)
                   for name in _REMOVED_INGEST_COUNTERS)
    assert restored == {
        name: value
        for name, value in _PARENT_FORMAT_STATE["ingest_stats"].items()
        if name not in _REMOVED_INGEST_COUNTERS}


def test_driver_checkpoint_with_event_window_is_refused():
    """Older drivers wrote ``ingest.event_window`` for event-time expiry.
    The tuples it retracted from the grid were still in the engine windows,
    so restoring would resurrect them: the restore refuses, naming the key,
    before it touches any state."""
    workload = build_workload("citations", 0.4, 7)
    config = build_config(workload, 30)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    driver = IngestDriver(engine, [ReplaySource(
        workload.interleaved_records()[:20])],
        policy=BatchPolicy(max_batch=8))
    driver.run()
    state = json.loads(json.dumps(driver.checkpoint()))
    state["ingest"]["event_window"] = {
        "duration": 5.0, "current_time": 19.0, "items": []}

    fresh = TERiDSEngine(repository=workload.repository, config=config)
    with pytest.raises(CheckpointError, match="event_window"):
        IngestDriver(fresh, [ReplaySource([])]).restore_checkpoint(state)
    assert fresh.timestamps_processed == 0  # refused before any mutation
