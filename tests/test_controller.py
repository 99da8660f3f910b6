"""Tests for the self-tuning runtime controller.

The heavyweight guarantee: **bit-identity under any batch-size schedule**.
However the stream is cut into batches — by hand, by reassigning
``executor.batch_size`` between batches, or by an active
:class:`RuntimeController` retargeting the ingest batcher — the match set,
the result set and every pruning / grid counter equal the serial reference
exactly (a hypothesis property drives random schedules through the same
assertion).  Around it: hysteresis unit tests of the decision rule,
checkpoint round-trips of the controller state (including parent-format
checkpoints carrying keys this version no longer writes), and regression
tests for the seams the adaptation path exposed (executor close→reuse,
metric re-binding).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_utils import (
    GOLDEN_WORKLOADS,
    build_config,
    build_workload,
    canonical_matches,
    golden_path,
)
from test_er_grid import _observables, _small_config, _small_workload
from repro.core.engine import TERiDSEngine
from repro.ingest.batcher import AdaptiveBatcher, BatchPolicy
from repro.ingest.driver import IngestDriver
from repro.ingest.sources import ReplaySource
from repro.obs.registry import MetricsRegistry
from repro.runtime import (
    MODE_ACTIVE,
    MODE_OBSERVE,
    MODE_OFF,
    ControllerPolicy,
    MicroBatchExecutor,
    RuntimeController,
    SerialExecutor,
)
from repro.runtime.controller import ACTION_RETARGET_DOWN, ACTION_RETARGET_UP

_WORKLOAD = _small_workload()


def _engine(executor):
    return TERiDSEngine(repository=_WORKLOAD.repository,
                        config=_small_config(_WORKLOAD), executor=executor)


def _run_with_schedule(executor, schedule):
    """Feed the workload one ``executor.batch_size`` batch at a time.

    ``schedule`` maps batch index → the batch size assigned *before* that
    batch is cut (a quiescent point: ``batch_size`` is a plain attribute).
    """
    engine = _engine(executor)
    records = list(_WORKLOAD.interleaved_records())
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


_SERIAL = _run_with_schedule(SerialExecutor(), {})


# ---------------------------------------------------------------------------
# Bit-identity under batch-size schedules
# ---------------------------------------------------------------------------
def test_batch_size_retarget_schedule_is_bit_identical():
    executor = MicroBatchExecutor(batch_size=16)
    schedule = {1: 4, 3: 64, 5: 1}
    assert _run_with_schedule(executor, schedule) == _SERIAL


@given(schedule=st.dictionaries(st.integers(min_value=0, max_value=8),
                                st.integers(min_value=1, max_value=64),
                                max_size=4))
@settings(max_examples=8, deadline=None)
def test_random_reconfiguration_schedules_are_bit_identical(schedule):
    executor = MicroBatchExecutor(batch_size=8)
    assert _run_with_schedule(executor, schedule) == _SERIAL


# ---------------------------------------------------------------------------
# Controller decision rule (hysteresis, modes)
# ---------------------------------------------------------------------------
def _controller(mode, policy, max_batch=64):
    """A controller over a fresh engine, bound to a live batcher."""
    engine = _engine(MicroBatchExecutor(batch_size=8))
    batcher = AdaptiveBatcher(BatchPolicy(max_batch=max_batch),
                              engine.ctx.ingest)
    return RuntimeController(engine, mode=mode, policy=policy,
                             batcher=batcher)


def _tick(controller, seconds, queue_depth):
    """Simulate one batch boundary: ``seconds`` of measured stage time and
    the given arrival-queue depth, then run the evaluation."""
    ctx = controller.ctx
    ctx.timer.totals["synthetic"] = (
        ctx.timer.totals.get("synthetic", 0.0) + seconds)
    ctx.ingest.queue_depths.append(queue_depth)
    ctx.batch_seq += 1
    return controller.after_batch()


class TestControllerDecisions:
    def test_no_decision_inside_hysteresis_corridor(self):
        policy = ControllerPolicy(slo_p95_seconds=1.0, window=2,
                                  low_band=0.4)
        ctrl = _controller(MODE_ACTIVE, policy)
        for _ in range(6):  # p95 ~0.7 * slo: inside the corridor
            assert _tick(ctrl, seconds=0.7, queue_depth=50) == []
        assert ctrl.batcher.policy.max_batch == 64
        assert ctrl.state["decisions"] == {}

    def test_observe_mode_logs_without_acting(self):
        policy = ControllerPolicy(slo_p95_seconds=0.1, window=2)
        ctrl = _controller(MODE_OBSERVE, policy)
        decisions = []
        for _ in range(4):
            decisions.extend(_tick(ctrl, seconds=1.0, queue_depth=50))
        assert decisions and not any(d["applied"] for d in decisions)
        assert ctrl.batcher.policy.max_batch == 64  # untouched
        assert ctrl.state["decisions"][ACTION_RETARGET_DOWN] >= 1

    def test_off_mode_never_evaluates(self):
        ctrl = _controller(MODE_OFF, ControllerPolicy())
        assert _tick(ctrl, seconds=1.0, queue_depth=50) == []
        assert ctrl.state["evaluations"] == 0

    def test_batch_policy_retargets_toward_slo(self):
        policy = ControllerPolicy(slo_p95_seconds=0.1, window=2,
                                  backlog_high=10, min_max_batch=8,
                                  max_max_batch=256)
        ctrl = _controller(MODE_ACTIVE, policy)
        batcher = ctrl.batcher
        decisions = []
        for _ in range(3):  # overloaded: shrink the batch
            decisions.extend(_tick(ctrl, seconds=1.0, queue_depth=0))
        assert any(d["action"] == ACTION_RETARGET_DOWN
                   and d["applied"] for d in decisions)
        assert batcher.policy.max_batch == 32
        assert ctrl.state["target_max_batch"] == 32
        # Now idle with a standing backlog: grow the batch back.
        decisions = []
        for _ in range(3):
            decisions.extend(_tick(ctrl, seconds=0.0001, queue_depth=50))
        assert any(d["action"] == ACTION_RETARGET_UP
                   and d["applied"] for d in decisions)
        assert batcher.policy.max_batch == 64

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            _controller("turbo", ControllerPolicy())

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="slo"):
            ControllerPolicy(slo_p95_seconds=0)
        with pytest.raises(ValueError, match="band"):
            ControllerPolicy(low_band=1.2, high_band=1.0)
        with pytest.raises(ValueError, match="window"):
            ControllerPolicy(window=0)
        with pytest.raises(ValueError, match="min_max_batch"):
            ControllerPolicy(min_max_batch=64, max_max_batch=8)

    def test_decision_log_is_bounded(self):
        policy = ControllerPolicy(slo_p95_seconds=0.1, window=2,
                                  decision_log=4)
        ctrl = _controller(MODE_OBSERVE, policy)
        for _ in range(20):
            _tick(ctrl, seconds=1.0, queue_depth=50)
        assert ctrl.state["decisions"][ACTION_RETARGET_DOWN] > 4
        assert len(ctrl.decision_log) == 4


# ---------------------------------------------------------------------------
# Active controller end-to-end: bit-identity + observability
# ---------------------------------------------------------------------------
def test_active_controller_run_is_bit_identical_and_observable():
    """A deliberately twitchy active controller retargets the batcher
    mid-stream yet the run equals the golden fixture; its decisions are
    visible in the rendered metrics and the decision log."""
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    golden = json.loads(golden_path(dataset).read_text())["reference"]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=MicroBatchExecutor(batch_size=16))
    engine.enable_telemetry()
    policy = ControllerPolicy(slo_p95_seconds=1e-5, window=2,
                              min_max_batch=4)
    ctrl = RuntimeController(engine, mode=MODE_ACTIVE, policy=policy)
    driver = IngestDriver(engine, [ReplaySource(workload.interleaved_records())],
                          policy=BatchPolicy(max_batch=16), controller=ctrl)
    driver.run()
    assert canonical_matches(engine.current_matches()) \
        == golden["result_set"]
    assert ctrl.state["decisions"].get(ACTION_RETARGET_DOWN, 0) >= 1
    assert ctrl.batcher.policy.max_batch == 4
    text = engine.render_metrics()
    assert "terids_controller_evaluations_total" in text
    assert 'terids_controller_decisions_total{action="retarget_down"}' in text
    assert "terids_controller_target_max_batch 4" in text
    assert any(entry["applied"] for entry in ctrl.decision_log)


# ---------------------------------------------------------------------------
# Checkpoint round-trip of controller state
# ---------------------------------------------------------------------------
def test_controller_state_survives_checkpoint_roundtrip():
    policy = ControllerPolicy(slo_p95_seconds=0.1, window=2)
    ctrl = _controller(MODE_ACTIVE, policy)
    engine = ctrl.engine
    records = list(_WORKLOAD.interleaved_records())
    engine.process_batch(records[:20])
    for _ in range(3):
        _tick(ctrl, seconds=1.0, queue_depth=50)
    assert ctrl.state["decisions"]  # retargeted at least once
    state = engine.checkpoint()
    assert state["controller"]["target_max_batch"] == 32

    resumed = _engine(MicroBatchExecutor(batch_size=8))
    resumed.restore_checkpoint(state)
    assert resumed.ctx.controller_state is not None
    adopted = RuntimeController(resumed, mode=MODE_ACTIVE, policy=policy)
    assert adopted.state["evaluations"] == ctrl.state["evaluations"]
    assert adopted.state["decisions"] == ctrl.state["decisions"]
    assert adopted.state["target_max_batch"] == 32


def test_restore_without_controller_state_clears_leftovers():
    engine = _engine(MicroBatchExecutor(batch_size=8))
    records = list(_WORKLOAD.interleaved_records())
    engine.process_batch(records[:10])
    state = engine.checkpoint()
    assert "controller" not in state
    engine.ctx.controller_state = {"mode": "stale"}
    engine.restore_checkpoint(state)
    assert engine.ctx.controller_state is None


def test_parent_format_checkpoint_restores_and_resumes_identically():
    """A checkpoint written before the execution matrix collapsed carries
    ``transport_stats`` and worker / routing controller keys; they are
    ignored, and the resumed run equals one restored without them."""
    records = list(_WORKLOAD.interleaved_records())
    half = len(records) // 2
    first = _engine(MicroBatchExecutor(batch_size=8))
    first.process_batch(records[:half])
    state = first.checkpoint()
    assert "transport_stats" not in state

    old_format = json.loads(json.dumps(state))
    old_format["transport_stats"] = {
        "batches": 7, "bytes_shipped": 123456, "synopses_shipped": 321,
        "orders_shipped": 56, "evictions_shipped": 12, "deltas_routed": 40,
        "backfills": 3, "shm_bytes_mapped": 65536}
    old_format["controller"] = {
        "mode": "active", "slo_p95_seconds": 0.25, "evaluations": 9,
        "decisions": {"scale_up": 1, "broadcast": 1, "retarget_down": 2},
        "cooldown_remaining": 3, "target_workers": 2, "target_max_batch": 16,
        "delta_routing": 0, "broadcast_age": 5, "last_p95_seconds": 0.3,
        "last_decision": "scale_up workers 1->2 (p95=0.3000s)"}

    def resume(checkpoint):
        engine = _engine(MicroBatchExecutor(batch_size=8))
        engine.restore_checkpoint(checkpoint)
        ctrl = RuntimeController(engine, mode=MODE_OBSERVE)
        matches = engine.process_batch(records[half:])
        return engine, ctrl, _observables(engine, matches)

    _, _, plain = resume(state)
    engine, ctrl, from_old = resume(old_format)
    assert from_old == plain
    assert ctrl.state["evaluations"] == 9
    assert ctrl.state["target_max_batch"] == 16
    assert not {"target_workers", "delta_routing", "broadcast_age",
                "cooldown_remaining"} & set(ctrl.state)
    rewritten = engine.checkpoint()
    assert "transport_stats" not in rewritten
    assert set(rewritten["controller"]) == set(ctrl.state)


# ---------------------------------------------------------------------------
# Regression: the seams the adaptation path exposed
# ---------------------------------------------------------------------------
def test_executor_is_reusable_after_close():
    """close() is not a tombstone: the executor keeps working after it."""
    executor = MicroBatchExecutor(batch_size=16)
    engine = _engine(executor)
    records = list(_WORKLOAD.interleaved_records())
    half = len(records) // 2
    matches = list(engine.process_batch(records[:half]))
    executor.close()
    executor.close()  # idempotent
    matches.extend(engine.process_batch(records[half:]))
    assert _observables(engine, matches) == _SERIAL


def test_reenabling_telemetry_does_not_duplicate_bound_metrics():
    """Re-binding the same registry (telemetry toggle) must replace the
    bound getters, not stack duplicates."""
    engine = _engine(SerialExecutor())
    registry = MetricsRegistry()
    engine.enable_telemetry(registry=registry)
    engine.enable_telemetry(registry=registry)
    text = engine.render_metrics()
    sample_lines = [line for line in text.splitlines()
                    if line.startswith("terids_batch_seq ")]
    assert len(sample_lines) == 1
    multi_lines = [line for line in text.splitlines()
                   if line.startswith("terids_ingest_batches_total")]
    assert len(multi_lines) == len(set(multi_lines))
