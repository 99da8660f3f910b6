"""Tests for the async streaming ingestion subsystem (``repro.ingest``).

The heavyweight guarantees:

* **Golden determinism** — driving the pinned golden workloads through
  ``IngestDriver`` + ``ReplaySource`` (lateness 0, any trigger policy)
  reproduces the offline ``SerialExecutor`` goldens bit-identically —
  match sets, result set, pruning and imputation counters;
* **Checkpoint/resume** — a checkpoint taken mid-ingest, restored into a
  fresh engine + driver fed the remaining records, converges to the same
  final state as the uninterrupted offline run;
* **Lateness semantics** — any arrival interleaving within the lateness
  bound is released watermark-monotone (non-decreasing event time) with
  nothing shed; behind-the-watermark arrivals follow the late policy.
"""

import asyncio
import inspect
import json
import math
from dataclasses import fields

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
from repro.core.engine import TERiDSEngine
from repro.core.stream import StreamSet, build_stream
from repro.core.tuples import Record
from repro.ingest import (
    AdaptiveBatcher,
    BatchPolicy,
    CallbackSource,
    IngestDriver,
    LATE_SHED,
    OBSERVED_LATE_ADMITTED,
    OBSERVED_LATE_SHED,
    OBSERVED_READY,
    OBSERVED_REORDERED,
    ReplaySource,
    StreamElement,
    SyntheticRateSource,
    TRIGGER_DEADLINE,
    TRIGGER_DRAIN,
    TRIGGER_SIZE,
    WatermarkClock,
)
from repro.ingest.driver import _CLOSE, _ITEM
from repro.persistence import load_checkpoint
from repro.runtime import IngestStats, MicroBatchExecutor, SerialExecutor


def _element(event_time, origin="s", rid=None):
    record = Record(rid=rid or f"r{event_time}", values={"a": "x"},
                    source="stream")
    return StreamElement(record=record, event_time=float(event_time),
                         origin=origin)


def _ingest_reference(workload, config, executor=None, policy=None,
                      **driver_kwargs):
    """Run one workload through the ingest driver; canonical observables.

    Mirrors ``golden_utils.run_reference`` so the result compares directly
    against the pinned offline goldens.
    """
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=executor or SerialExecutor())
    driver = IngestDriver(engine,
                          [ReplaySource(workload.interleaved_records())],
                          policy=policy, **driver_kwargs)
    driver.run()
    engine.close()
    stats = engine.pruning.stats
    return {
        "timestamps_processed": engine.timestamps_processed,
        "matches": canonical_matches(driver.matches),
        "result_set": canonical_matches(engine.current_matches()),
        "pruning_stats": {
            "pairs_considered": stats.pairs_considered,
            "pruned_by_topic": stats.pruned_by_topic,
            "pruned_by_similarity": stats.pruned_by_similarity,
            "pruned_by_probability": stats.pruned_by_probability,
            "pruned_by_instance": stats.pruned_by_instance,
            "refined_matches": stats.refined_matches,
            "refined_non_matches": stats.refined_non_matches,
        },
        "imputation_stats": engine.imputer.stats.as_dict(),
    }


# ---------------------------------------------------------------------------
# Golden determinism: ingestion == offline replay, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dataset,scale,seed,window", GOLDEN_WORKLOADS)
def test_replay_ingestion_matches_offline_goldens(dataset, scale, seed,
                                                  window):
    golden = json.loads(golden_path(dataset).read_text())["reference"]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    got = _ingest_reference(workload, config,
                            policy=BatchPolicy(max_batch=13))
    assert got == golden


def test_replay_ingestion_golden_any_trigger_policy():
    """The deadline trigger and size 1 re-chunk but never change answers."""
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    golden = json.loads(golden_path(dataset).read_text())["reference"]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    for policy in (BatchPolicy(max_batch=256, max_delay=0.002),
                   BatchPolicy(max_batch=1)):
        got = _ingest_reference(build_workload(dataset, scale, seed),
                                config, policy=policy)
        assert got == golden


def test_replay_ingestion_golden_micro_batch_executor():
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    golden = json.loads(golden_path(dataset).read_text())["reference"]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    got = _ingest_reference(workload, config,
                            executor=MicroBatchExecutor(batch_size=32),
                            policy=BatchPolicy(max_batch=32))
    assert got == golden


def test_replay_of_stream_set_equals_offline_stream_set_run():
    """A StreamSet replay emits the exact round-robin interleaving.

    StreamSet replay stamps per-stream arrival timestamps (unlike the raw
    golden record lists), so the reference here is an offline engine run
    over the same StreamSet interleaving.
    """
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)

    def make_streams():
        return StreamSet(streams=[
            build_stream("stream-a", workload.stream_a, workload.schema),
            build_stream("stream-b", workload.stream_b, workload.schema),
        ])

    offline = TERiDSEngine(repository=workload.repository, config=config)
    offline_report = offline.run(make_streams().interleaved())

    streams = make_streams()
    engine = TERiDSEngine(repository=workload.repository, config=config)
    driver = IngestDriver(engine, [ReplaySource(streams, name="set")],
                          policy=BatchPolicy(max_batch=17))
    report = driver.run()
    assert report.tuples_processed == streams.total_records()
    assert streams.exhausted
    assert (canonical_matches(driver.matches)
            == canonical_matches(offline_report.matches))
    assert (canonical_matches(engine.current_matches())
            == canonical_matches(offline.current_matches()))


# ---------------------------------------------------------------------------
# Checkpoint mid-ingest → resume → same final state
# ---------------------------------------------------------------------------
def test_mid_ingest_checkpoint_resumes_to_same_final_state(tmp_path):
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    golden = json.loads(golden_path(dataset).read_text())["reference"]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    records = workload.interleaved_records()
    path = tmp_path / "mid_ingest.ckpt.json"

    first = TERiDSEngine(repository=workload.repository, config=config)

    def stop_after_three(driver, _records):
        if driver.batches_processed == 3:
            driver.stop()

    driver1 = IngestDriver(first, [ReplaySource(records)],
                           policy=BatchPolicy(max_batch=10),
                           checkpoint_path=path, on_batch=stop_after_three)
    driver1.run()
    state = load_checkpoint(path)
    consumed = state["timestamps_processed"]
    assert 0 < consumed < len(records)
    assert state["ingest_stats"]["batches_formed"] == driver1.batches_processed
    assert state["ingest"]["clock"]["high"] == {"replay": consumed - 1}

    resumed_workload = build_workload(dataset, scale, seed)
    resumed = TERiDSEngine(repository=resumed_workload.repository,
                           config=config)
    driver2 = IngestDriver(
        resumed,
        [ReplaySource(records[consumed:], start_event_time=consumed)],
        policy=BatchPolicy(max_batch=17, max_delay=0.01))
    driver2.restore_checkpoint(state)
    driver2.run()

    assert resumed.timestamps_processed == golden["timestamps_processed"]
    assert canonical_matches(resumed.current_matches()) == golden["result_set"]
    assert (canonical_matches(driver1.matches + driver2.matches)
            == golden["matches"])
    assert resumed.imputer.stats.as_dict() == golden["imputation_stats"]


def test_close_markers_survive_a_full_arrival_queue():
    """Regression: a source's close marker must reach the mux even when the
    bounded queue is full at end-of-source, or the run never terminates."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    records = workload.interleaved_records()
    engine = TERiDSEngine(repository=workload.repository, config=config)
    half = len(records) // 2
    driver = IngestDriver(
        engine,
        [ReplaySource(records[:half], name="a"),
         ReplaySource(records[half:], name="b", start_event_time=half)],
        policy=BatchPolicy(max_batch=4),  # no deadline: a lost close hangs
        queue_capacity=1)

    async def bounded_run():
        return await asyncio.wait_for(driver.run_async(), timeout=60)

    report = asyncio.run(bounded_run())
    assert report.tuples_processed == len(records)


def test_checkpoint_serialises_in_flight_elements(tmp_path):
    """A snapshot taken while tuples sit in the batcher and the reorder
    buffer loses nothing: restore re-injects them in the original order."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    driver = IngestDriver(engine, [ReplaySource([], name="idle")],
                          policy=BatchPolicy(max_batch=10), lateness=2.0)
    # Admit four elements: 0 and 1 become releasable (batcher pending),
    # 5 and 4 stay behind the watermark (reorder buffer).
    for event_time in (0, 1, 5, 4):
        driver._observe(_element(event_time, rid=f"in-flight-{event_time}"))
    asyncio.run(driver._pump(now=0.0))
    assert driver._batcher.pending == 2
    assert driver._clock.buffered == 2

    state = driver.checkpoint()
    assert state["ingest"]["tuples_admitted"] == 4
    in_flight = state["ingest"]["in_flight"]
    assert [row[0] for row in in_flight["pending"]] == [0.0, 1.0]
    assert [row[0] for row in in_flight["buffered"]] == [4.0, 5.0]

    resumed_engine = TERiDSEngine(repository=workload.repository,
                                  config=config)
    seen = []
    resumed = IngestDriver(
        resumed_engine, [ReplaySource([], name="idle")],
        policy=BatchPolicy(max_batch=10), lateness=2.0,
        on_batch=lambda _driver, records: seen.extend(records))
    resumed.restore_checkpoint(state)
    resumed.run()  # the idle source closes; drain flushes the in-flight set
    assert [record.rid for record in seen] == [
        "in-flight-0", "in-flight-1", "in-flight-4", "in-flight-5"]
    assert resumed_engine.timestamps_processed == 4


def test_out_of_order_resume_with_lateness_matches_uninterrupted_run(
        tmp_path):
    """Checkpoint/resume under lateness > 0 and out-of-order arrivals."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    records = workload.interleaved_records()[:24]
    # Adjacent pairs swapped: out of order within lateness 1, and the cut
    # below falls on a segment boundary so no disorder spans it.
    times = [t for pair in range(12) for t in (2 * pair + 1, 2 * pair)]

    def run_span(engine, span, **driver_kwargs):
        source = CallbackSource(name="push")
        for index in span:
            source.push(records[index], event_time=float(times[index]))
        source.close()
        driver = IngestDriver(engine, [source],
                              policy=BatchPolicy(max_batch=5), lateness=1.0,
                              **driver_kwargs)
        driver.run()
        return driver

    reference = TERiDSEngine(repository=workload.repository, config=config)
    run_span(reference, range(24))

    path = tmp_path / "ooo.ckpt.json"
    first = TERiDSEngine(
        repository=build_workload(*GOLDEN_WORKLOADS[0][:3]).repository,
        config=config)
    run_span(first, range(16), checkpoint_path=path)
    state = load_checkpoint(path)
    assert state["ingest"]["tuples_admitted"] == 16

    resumed = TERiDSEngine(
        repository=build_workload(*GOLDEN_WORKLOADS[0][:3]).repository,
        config=config)
    source = CallbackSource(name="push")
    for index in range(16, 24):
        source.push(records[index], event_time=float(times[index]))
    source.close()
    driver = IngestDriver(resumed, [source],
                          policy=BatchPolicy(max_batch=7), lateness=1.0)
    driver.restore_checkpoint(state)
    driver.run()

    assert resumed.timestamps_processed == reference.timestamps_processed
    assert (canonical_matches(resumed.current_matches())
            == canonical_matches(reference.current_matches()))


def test_single_use_driver_and_validation():
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 40)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    driver = IngestDriver(engine, [ReplaySource(workload.stream_a[:4])],
                          policy=BatchPolicy(max_batch=4))
    driver.run()
    with pytest.raises(RuntimeError):
        driver.run()
    with pytest.raises(ValueError):
        IngestDriver(engine, [])
    with pytest.raises(ValueError):
        IngestDriver(engine, [ReplaySource([], name="x"),
                              ReplaySource([], name="x")])
    with pytest.raises(ValueError):
        IngestDriver(engine, [ReplaySource([])], queue_capacity=0)
    with pytest.raises(ValueError):
        # Periodic checkpoints without a path would silently write nothing.
        IngestDriver(engine, [ReplaySource([])], checkpoint_every_batches=5)


# ---------------------------------------------------------------------------
# Watermark clock: lateness semantics (property-based)
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(times=st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                      max_size=32),
       data=st.data())
def test_any_interleaving_within_lateness_bound_is_watermark_monotone(
        times, data):
    """Bounded-displacement arrival orders release in event-time order.

    For an arbitrary arrival permutation, the smallest sufficient lateness
    bound is ``max_i(max(arrival[:i]) - arrival[i])``; with that bound no
    element is late, and the released sequence (hence every formed batch)
    is non-decreasing in event time and loses nothing.
    """
    arrival = data.draw(st.permutations(times))
    lateness = 0
    high = float("-inf")
    for event_time in arrival:
        if high > event_time:
            lateness = max(lateness, high - event_time)
        high = max(high, event_time)

    clock = WatermarkClock(lateness=float(lateness))
    released = []
    for event_time in arrival:
        status = clock.observe(_element(event_time))
        assert status in (OBSERVED_READY, OBSERVED_REORDERED)
        released.extend(clock.release_ready())
    released.extend(clock.drain())

    event_times = [element.event_time for element in released]
    assert event_times == sorted(event_times)  # watermark-monotone
    assert sorted(event_times) == sorted(float(t) for t in times)  # lossless
    # Any chunking of a monotone sequence is monotone, so every batch the
    # batcher forms from this release order is watermark-monotone too.
    stats = IngestStats()
    batcher = AdaptiveBatcher(BatchPolicy(max_batch=5), stats)
    batches = []
    for element in released:
        batch = batcher.add(element, now=0.0)
        if batch:
            batches.append(batch)
    final = batcher.flush(now=0.0)
    if final:
        batches.append(final)
    flattened = [element.event_time for batch in batches for element in batch]
    assert flattened == event_times
    assert stats.tuples_ingested == len(times)


@settings(max_examples=40, deadline=None)
@given(times=st.lists(st.integers(min_value=0, max_value=30), min_size=2,
                      max_size=24),
       data=st.data())
def test_shed_policy_drops_exactly_the_behind_watermark_arrivals(times, data):
    arrival = data.draw(st.permutations(times))
    clock = WatermarkClock(lateness=0.0, late_policy=LATE_SHED)
    released, shed = [], 0
    for event_time in arrival:
        status = clock.observe(_element(event_time))
        if status == OBSERVED_LATE_SHED:
            shed += 1
        released.extend(clock.release_ready())
    released.extend(clock.drain())
    event_times = [element.event_time for element in released]
    assert event_times == sorted(event_times)  # survivors stay monotone
    assert len(event_times) + shed == len(times)


class TestWatermarkClock:
    def test_global_watermark_is_min_over_open_streams(self):
        clock = WatermarkClock(lateness=1.0)
        clock.register("a")
        clock.register("b")
        assert clock.watermark == float("-inf")
        clock.observe(_element(10, origin="a"))
        assert clock.watermark == float("-inf")  # b still silent
        clock.observe(_element(4, origin="b"))
        assert clock.watermark == 3.0  # min(10, 4) - lateness
        clock.close("b")
        assert clock.watermark == 9.0
        clock.close("a")
        assert clock.watermark == float("inf")

    def test_late_admitted_elements_ride_the_next_release(self):
        clock = WatermarkClock(lateness=0.0)
        clock.observe(_element(5))
        assert [e.event_time for e in clock.release_ready()] == [5.0]
        assert clock.observe(_element(2)) == OBSERVED_LATE_ADMITTED
        assert [e.event_time for e in clock.release_ready()] == [2.0]

    def test_restored_closed_sources_do_not_cap_the_watermark(self):
        """Regression: an exhausted source's stale high mark must not hold
        the global watermark after a checkpoint restore."""
        clock = WatermarkClock(lateness=0.0)
        clock.observe(_element(100, origin="a"))
        clock.release_ready()
        clock.close("a")
        fresh = WatermarkClock(lateness=0.0)
        fresh.restore_state(clock.state_to_dict())
        fresh.open("b")  # the resumed driver reads only b
        fresh.observe(_element(150, origin="b"))
        assert fresh.watermark == 150.0  # a stays closed (not min(100, 150))
        assert [e.event_time for e in fresh.release_ready()] == [150.0]
        # A source the new driver lists is re-opened even if the final
        # drain closed it in the snapshot.
        reopened = WatermarkClock(lateness=0.0)
        reopened.restore_state(clock.state_to_dict())
        reopened.open("a")
        assert reopened.watermark == 100.0

    def test_state_roundtrip_restores_high_marks(self):
        clock = WatermarkClock(lateness=0.0)
        clock.observe(_element(7, origin="a"))
        clock.release_ready()
        state = clock.state_to_dict()
        fresh = WatermarkClock(lateness=0.0)
        fresh.restore_state(state)
        # An arrival behind the restored high mark is late again.
        assert fresh.observe(_element(3, origin="a")) == OBSERVED_LATE_ADMITTED

    def test_state_roundtrip_preserves_idle_marks(self):
        """Regression: the idle set was dropped by ``state_to_dict``, so a
        restored clock silently re-counted a stalled source into the global
        watermark — stalling the resumed run until the next idle timeout,
        or forever when the new driver has none."""
        clock = WatermarkClock(lateness=0.0)
        clock.open("live")
        clock.open("stalled")
        clock.observe(_element(5, origin="live"))
        assert clock.mark_idle("stalled")
        state = clock.state_to_dict()
        assert state["idle"] == ["stalled"]
        fresh = WatermarkClock(lateness=0.0)
        fresh.restore_state(state)
        assert fresh.is_idle("stalled")
        assert fresh.watermark == 5.0  # still released, as before the snapshot
        # The restored mark stays revocable: the source's next arrival
        # wakes it, classified against its own stream watermark.
        assert fresh.observe(_element(3, origin="stalled")) == OBSERVED_READY
        assert not fresh.is_idle("stalled")
        assert fresh.watermark == 3.0

    def test_closed_source_wakes_on_new_emission(self):
        """Regression: ``observe`` woke idle sources but not closed ones,
        so a CallbackSource pushed after a drain kept its infinite stream
        watermark and every element of the revived stream counted late."""
        clock = WatermarkClock(lateness=0.0)
        clock.observe(_element(10, origin="a"))
        clock.observe(_element(20, origin="b"))
        clock.release_ready()
        clock.close("a")
        assert clock.watermark == 20.0
        assert clock.observe(_element(11, origin="a")) == OBSERVED_READY
        assert clock.watermark == 11.0  # 'a' counts into the minimum again
        # An element genuinely behind its own stream watermark is still late.
        assert clock.observe(_element(5, origin="a")) == OBSERVED_LATE_ADMITTED

    def test_closed_source_wake_respects_the_shed_policy(self):
        clock = WatermarkClock(lateness=0.0, late_policy=LATE_SHED)
        clock.observe(_element(10, origin="a"))
        clock.release_ready()
        clock.close("a")
        # In order for the revived stream: admitted, not shed.
        assert clock.observe(_element(12, origin="a")) == OBSERVED_READY
        # Behind the revived stream's watermark: shed by policy, as always.
        assert clock.observe(_element(8, origin="a")) == OBSERVED_LATE_SHED

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            WatermarkClock(lateness=-1)
        with pytest.raises(ValueError):
            WatermarkClock(late_policy="bounce")

    def test_rejects_nan_lateness(self):
        with pytest.raises(ValueError, match="lateness"):
            WatermarkClock(lateness=math.nan)

    def test_restore_rejects_a_different_lateness_bound(self):
        clock = WatermarkClock(lateness=5.0)
        clock.observe(_element(10))
        state = clock.state_to_dict()
        with pytest.raises(ValueError):
            WatermarkClock(lateness=0.0).restore_state(state)
        WatermarkClock(lateness=5.0).restore_state(state)  # same bound: fine


# ---------------------------------------------------------------------------
# Adaptive batcher triggers
# ---------------------------------------------------------------------------
class TestAdaptiveBatcher:
    def _batcher(self, **kwargs):
        stats = IngestStats()
        return AdaptiveBatcher(BatchPolicy(**kwargs), stats), stats

    def test_size_trigger(self):
        batcher, stats = self._batcher(max_batch=3)
        assert batcher.add(_element(0), now=0.0) is None
        assert batcher.add(_element(1), now=0.0) is None
        batch = batcher.add(_element(2), now=0.5)
        assert [e.event_time for e in batch] == [0.0, 1.0, 2.0]
        assert stats.triggers == {TRIGGER_SIZE: 1}
        assert list(stats.formation.samples) == [0.5]

    def test_deadline_trigger_and_time_until_due(self):
        batcher, stats = self._batcher(max_batch=100, max_delay=0.2)
        assert batcher.time_until_due(now=0.0) is None  # nothing pending
        batcher.add(_element(0), now=1.0)
        assert batcher.time_until_due(now=1.05) == pytest.approx(0.15)
        assert batcher.poll(now=1.1) is None  # not yet due
        batch = batcher.poll(now=1.25)
        assert len(batch) == 1
        assert stats.triggers == {TRIGGER_DEADLINE: 1}

    def test_drain_flush(self):
        batcher, stats = self._batcher(max_batch=100)
        assert batcher.flush(now=0.0) is None
        batcher.add(_element(0), now=0.0)
        assert len(batcher.flush(now=0.0)) == 1
        assert stats.triggers == {TRIGGER_DRAIN: 1}

    def test_rejects_bad_policy(self):
        for kwargs in ({"max_batch": 0}, {"max_delay": 0.0}):
            with pytest.raises(ValueError):
                BatchPolicy(**kwargs)

    # A NaN deadline never fires, yet ``time_until_due`` would read it as
    # due (0.0) and spin the driver's wait loop until the next arrival.
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_max_delay(self, value):
        with pytest.raises(ValueError, match="max_delay"):
            BatchPolicy(max_delay=value)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------
class TestSources:
    def test_callback_source_capacity_and_close(self):
        source = CallbackSource(name="push", capacity=2)
        r = Record(rid="r1", values={"a": "x"}, source="s")
        assert source.push(r)
        assert source.push(r)
        assert not source.push(r)  # full → dropped, surfaced to producer
        assert source.dropped == 1
        source.close()
        assert not source.push(r)  # closed

        async def collect():
            return [element async for element in source]

        elements = asyncio.run(collect())
        assert [e.event_time for e in elements] == [0.0, 1.0]

    def test_callback_source_explicit_event_times(self):
        source = CallbackSource(name="push")
        r = Record(rid="r1", values={"a": "x"}, source="s")
        source.push(r, event_time=10.0)
        source.push(r)  # auto time continues past the explicit one
        source.close()

        async def collect():
            return [element.event_time async for element in source]

        assert asyncio.run(collect()) == [10.0, 11.0]

    def test_synthetic_rate_source_burst_model(self):
        pool = [Record(rid=f"r{i}", values={"a": "x"}, source="s")
                for i in range(5)]
        source = SyntheticRateSource(lambda i: pool[i % len(pool)], count=12,
                                     burst_every=3, burst_size=2)

        async def collect():
            return [element async for element in source]

        elements = asyncio.run(collect())
        assert len(elements) == 12
        assert [e.event_time for e in elements] == [float(i) for i in range(12)]
        assert all(e.origin == "synthetic" for e in elements)

    def test_replay_source_pacing_validation(self):
        with pytest.raises(ValueError):
            ReplaySource([], pace=-0.1)
        with pytest.raises(ValueError):
            SyntheticRateSource(lambda i: None, count=-1)
        with pytest.raises(ValueError):
            SyntheticRateSource(lambda i: None, count=1, rate=0)

    # A NaN pace or rate sleeps a NaN interval: the source never emits.
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_pacing(self, value):
        with pytest.raises(ValueError, match="pace"):
            ReplaySource([], pace=value)
        with pytest.raises(ValueError, match="start_event_time"):
            ReplaySource([], start_event_time=value)
        with pytest.raises(ValueError, match="rate"):
            SyntheticRateSource(lambda i: None, count=1, rate=value)


def test_ingest_surface():
    """One processing path, one expiry, two batch triggers: the settable
    surface is exactly this."""
    assert list(inspect.signature(IngestDriver).parameters) == [
        "engine", "sources", "policy", "lateness", "late_policy",
        "queue_capacity", "reorder_capacity", "idle_timeout",
        "checkpoint_path", "checkpoint_every_batches", "on_batch",
        "collect_matches"]
    assert [f.name for f in fields(BatchPolicy)] == ["max_batch", "max_delay"]
    assert list(inspect.signature(ReplaySource).parameters) == [
        "records", "name", "pace", "start_event_time"]


# ---------------------------------------------------------------------------
# Driver behaviours: backpressure, gated absorption
# ---------------------------------------------------------------------------
def test_backpressure_wait_is_counted_when_the_arrival_queue_is_full():
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    driver = IngestDriver(engine, [ReplaySource(workload.stream_a[:3])],
                          queue_capacity=1)

    async def scenario():
        queue = asyncio.Queue(maxsize=1)
        driver._queue = queue
        queue.put_nowait((_ITEM, _element(0)))  # pre-filled → reader waits
        task = asyncio.create_task(
            driver._read(ReplaySource(workload.stream_a[:1], name="r"), queue))
        await asyncio.sleep(0.02)
        assert driver.stats.backpressure_waits >= 1
        queue.get_nowait()          # room: the reader's element goes in
        await asyncio.sleep(0.01)
        assert queue.get_nowait()[0] == _ITEM
        await task                  # the close marker now fits too
        assert queue.get_nowait()[0] == _CLOSE

    asyncio.run(scenario())


def test_graceful_stop_drains_admitted_arrivals(tmp_path):
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    records = workload.interleaved_records()
    engine = TERiDSEngine(repository=workload.repository, config=config)

    def stop_immediately(driver, _records):
        driver.stop()

    path = tmp_path / "drain.ckpt.json"
    driver = IngestDriver(engine, [ReplaySource(records)],
                          policy=BatchPolicy(max_batch=5),
                          checkpoint_path=path, on_batch=stop_immediately)
    report = driver.run()
    # Stop after the first batch: the driver still drains what was already
    # admitted, then checkpoints.
    assert report.tuples_processed >= 5
    assert report.tuples_processed < len(records)
    state = load_checkpoint(path)
    assert state["timestamps_processed"] == report.tuples_processed


def test_driver_counts_reordered_and_shed_arrivals():
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    source = CallbackSource(name="push")
    records = workload.interleaved_records()[:6]
    # Event times: 0, 1, 5 in order, 4 out of order (within lateness 2),
    # 2 behind the watermark (5 - 2 = 3 → shed), 6 in order.
    for record, event_time in zip(records, [0, 1, 5, 4, 2, 6]):
        source.push(record, event_time=float(event_time))
    source.close()
    driver = IngestDriver(engine, [source], policy=BatchPolicy(max_batch=4),
                          lateness=2.0, late_policy=LATE_SHED)
    report = driver.run()
    assert report.tuples_processed == 5  # one shed
    assert report.stats.shed_late == 1
    assert report.stats.reordered == 1
    assert report.stats.admitted_late == 0


def test_restore_preserves_late_admitted_processing_order():
    """Regression: a late-admitted element pending at snapshot time must
    resume in its *processing* position, not re-sorted by event time."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    driver = IngestDriver(engine, [ReplaySource([], name="idle")],
                          policy=BatchPolicy(max_batch=10))
    driver._clock.open("idle")
    driver._observe(_element(5, origin="idle", rid="first"))
    asyncio.run(driver._pump(now=0.0))
    # Behind the watermark: admitted out of event-time order.
    driver._observe(_element(2, origin="idle", rid="late"))
    asyncio.run(driver._pump(now=0.0))
    assert driver.stats.admitted_late == 1
    assert [e.record.rid
            for e in driver._batcher.pending_elements()] == ["first", "late"]

    state = driver.checkpoint()
    resumed_engine = TERiDSEngine(repository=workload.repository,
                                  config=config)
    seen = []
    resumed = IngestDriver(
        resumed_engine, [ReplaySource([], name="idle")],
        policy=BatchPolicy(max_batch=10),
        on_batch=lambda _driver, records: seen.extend(records))
    resumed.restore_checkpoint(state)
    resumed.run()
    assert [record.rid for record in seen] == ["first", "late"]


def test_stop_with_a_full_arrival_queue_does_not_deadlock():
    """Regression: stop() while a reader is blocked on the full queue must
    still drain and return (the close-marker fallback must not block after
    the reader's cancellation was delivered)."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    records = workload.interleaved_records()
    engine = TERiDSEngine(repository=workload.repository, config=config)
    driver = IngestDriver(engine, [ReplaySource(records)],
                          policy=BatchPolicy(max_batch=2), queue_capacity=1,
                          on_batch=lambda d, _records: d.stop())

    async def bounded_run():
        return await asyncio.wait_for(driver.run_async(), timeout=60)

    report = asyncio.run(bounded_run())
    assert report.batches_processed >= 1
    assert report.tuples_processed <= len(records)


def test_reorder_buffer_is_bounded_under_a_stalled_source():
    """A silent source must not let the reorder buffer grow without bound:
    beyond reorder_capacity the oldest elements are force-released."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    driver = IngestDriver(engine,
                          [ReplaySource([], name="a"),
                           CallbackSource(name="b")],  # silent: wm stays -inf
                          policy=BatchPolicy(max_batch=4),
                          reorder_capacity=8)
    driver._clock.open("a")
    driver._clock.open("b")
    for index in range(20):
        driver._observe(_element(index, origin="a",
                                 rid=f"stalled-{index}"))
        asyncio.run(driver._pump(now=0.0))
        assert driver._clock.buffered <= 8
    assert driver.stats.force_released == 12
    # Oldest first, still in event-time order within the overflow.
    assert engine.timestamps_processed == 12


def test_failing_source_raises_after_securing_admitted_data(tmp_path):
    """Regression: a source whose iterator raises must not masquerade as a
    clean exhaustion — the driver drains, checkpoints, then re-raises."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    pool = workload.interleaved_records()

    class SourceBlew(RuntimeError):
        pass

    def factory(index):
        if index == 5:
            raise SourceBlew("producer bug")
        return pool[index]

    engine = TERiDSEngine(repository=workload.repository, config=config)
    path = tmp_path / "failed.ckpt.json"
    driver = IngestDriver(engine,
                          [SyntheticRateSource(factory, count=17)],
                          policy=BatchPolicy(max_batch=2),
                          checkpoint_path=path)
    with pytest.raises(SourceBlew):
        driver.run()
    # Everything admitted before the failure was still processed and
    # checkpointed.
    assert engine.timestamps_processed == 5
    assert load_checkpoint(path)["timestamps_processed"] == 5


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_event_time_fails_its_source(tmp_path, bad):
    """A NaN strands the clock's reorder buffer and an inf sheds every
    later arrival; either fails the source through the same drain,
    checkpoint and re-raise path as a raising iterator."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    pool = workload.interleaved_records()

    class Poisoned:
        name = "poisoned"

        async def __aiter__(self):
            for index, event_time in enumerate([0.0, 1.0, 2.0, 3.0, bad, 5.0]):
                yield StreamElement(record=pool[index], event_time=event_time,
                                    origin=self.name)

    engine = TERiDSEngine(repository=workload.repository, config=config)
    path = tmp_path / "poisoned.ckpt.json"
    driver = IngestDriver(engine, [Poisoned()],
                          policy=BatchPolicy(max_batch=2),
                          lateness=2.0, late_policy=LATE_SHED,
                          checkpoint_path=path)
    with pytest.raises(ValueError, match=f"'poisoned'.*{bad}"):
        driver.run()
    assert engine.timestamps_processed == 4
    assert load_checkpoint(path)["timestamps_processed"] == 4


def test_ingest_stats_roundtrip_and_p95(health_repository, health_config):
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    stats = engine.ctx.ingest
    stats.record_batch(size=4, latency=0.1, queue_depth=3, trigger="size")
    stats.record_batch(size=2, latency=0.5, queue_depth=1, trigger="drain")
    stats.shed_late = 2
    assert stats.max_queue_depth == 3
    assert stats.p95_formation_latency() == 0.1  # index int(.95 * 1)
    state = json.loads(json.dumps(engine.checkpoint()))
    restored = TERiDSEngine(repository=health_repository,
                            config=health_config)
    restored.restore_checkpoint(state)
    fresh = restored.ctx.ingest
    assert fresh.tuples_ingested == 6
    assert fresh.batches_formed == 2
    assert fresh.shed_late == 2
    assert fresh.triggers == {"size": 1, "drain": 1}
    assert fresh.p95_formation_latency() == 0.0  # latency series not persisted


# ---------------------------------------------------------------------------
# Idle-source watermark timeout (punctuation)
# ---------------------------------------------------------------------------
def test_clock_mark_idle_releases_watermark_and_wakes_on_arrival():
    clock = WatermarkClock()
    clock.open("live")
    clock.open("stalled")
    clock.observe(_element(5, origin="live"))
    assert clock.watermark == float("-inf")  # stalled holds it back
    assert clock.mark_idle("stalled")
    assert not clock.mark_idle("stalled")  # already idle: one transition
    assert clock.is_idle("stalled")
    assert clock.watermark == 5.0
    assert [e.event_time for e in clock.release_ready()] == [5.0]
    # The source rejoins the watermark with its next arrival — which is
    # classified against its own stream watermark, not the idle infinity.
    assert clock.observe(_element(3, origin="stalled")) == OBSERVED_READY
    assert not clock.is_idle("stalled")
    assert clock.watermark == 3.0


def test_clock_mark_idle_ignores_closed_sources():
    clock = WatermarkClock()
    clock.open("done")
    clock.close("done")
    assert not clock.mark_idle("done")
    assert not clock.is_idle("done")


def test_idle_timeout_unblocks_a_stalled_callback_source():
    """A silent CallbackSource holds the global watermark at -inf; with
    idle_timeout the driver marks it idle and the live stream's tuples
    flow.  The source rejoins on close without disturbing the run."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    records = workload.interleaved_records()[:12]
    engine = TERiDSEngine(repository=workload.repository, config=config)
    stalled = CallbackSource(name="stalled")

    def close_when_done(driver, _batch):
        if driver.tuples_processed >= len(records):
            stalled.close()

    driver = IngestDriver(engine,
                          [ReplaySource(records), stalled],
                          policy=BatchPolicy(max_batch=4),
                          idle_timeout=0.05,
                          on_batch=close_when_done)

    async def bounded_run():
        return await asyncio.wait_for(driver.run_async(), timeout=60)

    report = asyncio.run(bounded_run())
    assert report.tuples_processed == len(records)
    assert report.stats.idle_timeouts >= 1
    assert engine.timestamps_processed == len(records)


def test_idle_timeout_golden_identity_with_live_sources():
    """A timeout that never fires (sources stay live) changes nothing."""
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    golden = json.loads(golden_path(dataset).read_text())["reference"]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    got = _ingest_reference(workload, config,
                            policy=BatchPolicy(max_batch=13),
                            idle_timeout=30.0)
    assert got == golden


def test_restored_idle_source_does_not_stall_the_resumed_run():
    """A source marked idle at snapshot time stays off the watermark when
    the resumed driver re-opens it: the resumed run below has NO idle
    timeout, so only the restored (and preserved) idle mark lets the live
    stream's tuples flow before the stalled source finally closes."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    records = workload.interleaved_records()[:12]

    setup_engine = TERiDSEngine(repository=workload.repository, config=config)
    setup = IngestDriver(setup_engine,
                         [ReplaySource([]), CallbackSource(name="stalled")])
    setup._clock.open("stalled")
    setup._clock.mark_idle("stalled")
    state = setup.checkpoint()
    assert state["ingest"]["clock"]["idle"] == ["stalled"]

    engine = TERiDSEngine(repository=workload.repository, config=config)
    stalled = CallbackSource(name="stalled")

    def close_when_done(driver, _batch):
        if driver.tuples_processed >= len(records):
            stalled.close()

    driver = IngestDriver(engine, [ReplaySource(records), stalled],
                          policy=BatchPolicy(max_batch=4),
                          on_batch=close_when_done)
    driver.restore_checkpoint(state)

    async def bounded_run():
        return await asyncio.wait_for(driver.run_async(), timeout=60)

    report = asyncio.run(bounded_run())
    assert report.tuples_processed == len(records)
    assert engine.timestamps_processed == len(records)


def test_idle_timeout_validation():
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    with pytest.raises(ValueError, match="idle_timeout"):
        IngestDriver(engine, [ReplaySource([])], idle_timeout=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_idle_timeout_must_be_finite(value):
    """``max(0.0, nan)`` would hand the wait loop a zero timeout."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    with pytest.raises(ValueError, match="idle_timeout"):
        IngestDriver(engine, [ReplaySource([])], idle_timeout=value)


def test_slow_inline_batches_do_not_mark_live_sources_idle():
    """Regression: a process_batch call that blocks the loop longer than
    idle_timeout must not count as source silence — during the block no
    source *could* have produced, and marking a live source idle would
    release reorder-buffered elements ahead of its queued ones."""
    workload = build_workload(*GOLDEN_WORKLOADS[0][:3])
    config = build_config(workload, 30)
    records = workload.interleaved_records()[:12]
    engine = TERiDSEngine(repository=workload.repository, config=config)

    real_process_batch = engine.process_batch
    import time as _time

    def slow_process_batch(batch):
        _time.sleep(0.12)
        return real_process_batch(batch)

    engine.process_batch = slow_process_batch
    driver = IngestDriver(engine,
                          [ReplaySource(records[:6], name="a"),
                           ReplaySource(records[6:], name="b", pace=0.001)],
                          policy=BatchPolicy(max_batch=3),
                          idle_timeout=0.05)
    report = asyncio.run(asyncio.wait_for(driver.run_async(), timeout=60))
    assert report.tuples_processed == len(records)
    assert report.stats.idle_timeouts == 0
