"""Unified telemetry plane tests.

The heavyweight guarantees:

* **Golden bit-identity** — enabling the full telemetry plane (metrics,
  tracing, profiling) perturbs *nothing* observable: match sets, the
  Figure-4 ``PruningStats`` counters and the index ``nodes_visited``
  totals are bit-identical on vs off under both executors;
* **Span trees** — one batch trace holds every pipeline stage of the
  batch in a single exported tree;
* **Exposition** — the Prometheus renderer emits parseable 0.0.4 text
  (monotone cumulative buckets ending at ``+Inf``, escaped labels,
  ``_total`` counter suffix);
* **Compatibility** — ``IngestStats.p95_formation_latency`` stays
  bit-compatible after its sample ring moved onto ``HistogramValue``,
  and ``batch_seq`` / trace-id metadata survives a checkpoint.
"""

import ast
import json
import logging
import random
from pathlib import Path
from time import perf_counter

import pytest

from golden_utils import (
    GOLDEN_WORKLOADS,
    build_config,
    build_workload,
    canonical_matches,
)
import repro.obs
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.datasets.synthetic import generate_dataset
from repro.obs import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    BatchTrace,
    HistogramValue,
    LogReporter,
    MetricsRegistry,
    NULL_SCOPE,
    NULL_TELEMETRY,
    SlowBatchProfiler,
    Telemetry,
    Tracer,
    exponential_buckets,
    render_prometheus,
)
from repro.runtime import MicroBatchExecutor, SerialExecutor
from repro.runtime.context import INGEST_SERIES_WINDOW, IngestStats


def test_obs_imports_nothing_from_the_rest_of_repro():
    """``repro.obs`` is stdlib-only: ``runtime/context.py`` imports it, so
    an import of any other ``repro`` module from it would be a cycle."""
    package = Path(repro.obs.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # ``from .x`` stays in the package; ``from ..x`` leaves it.
                prefix = {0: "", 1: "repro.obs."}.get(node.level, "repro.")
                names = [prefix + (node.module or "")]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "repro"
                          and not name.startswith("repro.obs")]
    assert not offenders


# ---------------------------------------------------------------------------
# Registry primitives
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("hits", "Hits").inc()
        registry.counter("hits").inc(2.0)
        registry.gauge("depth", "Depth").set(7.0)
        registry.gauge("depth").dec(3.0)
        assert registry.counter("hits").value == 3.0
        assert registry.gauge("depth").value == 4.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        family = registry.counter("pairs", labelnames=("outcome",))
        family.labels(outcome="topic").inc(5.0)
        family.labels(outcome="instance").inc(1.0)
        assert family.labels(outcome="topic").value == 5.0
        assert family.labels(outcome="instance").value == 1.0
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(wrong="topic")

    def test_exponential_buckets(self):
        assert exponential_buckets(0.001, 2.0, 4) == (
            0.001, 0.002, 0.004, 0.008)
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(0.1, 1.0, 4)

    def test_histogram_bucket_placement(self):
        hist = HistogramValue(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 5.0, 50.0):
            hist.observe(value)
        # bisect_left: a value equal to a bound lands in that bound's bucket.
        assert hist.bucket_counts == [2, 1, 1, 1]
        rows = hist.cumulative_buckets()
        assert rows[-1] == (float("inf"), 5)
        cumulative = [count for _, count in rows]
        assert cumulative == sorted(cumulative)
        assert hist.count == 5
        assert hist.sum == pytest.approx(55.65)

    def test_histogram_quantile_matches_legacy_formula(self):
        """The pinned nearest-rank formula the ingest path always used."""
        rng = random.Random(13)
        samples = [rng.random() for _ in range(257)]
        hist = HistogramValue(sample_window=1024)
        for value in samples:
            hist.observe(value)
        ordered = sorted(samples)
        for q in (0.5, 0.95, 0.99):
            assert hist.quantile(q) == ordered[int(q * (len(ordered) - 1))]
        assert HistogramValue().quantile(0.95) == 0.0

    def test_histogram_sample_window_bounds_ring(self):
        hist = HistogramValue(sample_window=4)
        for value in range(10):
            hist.observe(float(value))
        assert list(hist.samples) == [6.0, 7.0, 8.0, 9.0]
        assert hist.count == 10  # buckets keep the full count

    def test_histogram_reset(self):
        hist = HistogramValue(buckets=(1.0,))
        hist.observe(0.5)
        hist.reset()
        assert hist.count == 0 and hist.sum == 0.0
        assert not hist.samples and hist.bucket_counts == [0, 0]

    def test_bind_and_bind_multi_collect(self):
        registry = MetricsRegistry()
        registry.bind("bound_total", lambda: 42.0, labels={"kind": "a"})
        registry.bind("bound_total", lambda: 1.0, labels={"kind": "b"})
        registry.bind_multi("fanned_total", "trigger",
                            lambda: {"size": 3, "timer": 1})
        out = {family["name"]: family for family in registry.collect()}
        samples = {tuple(sorted(s["labels"].items())): s["value"]
                   for s in out["bound_total"]["samples"]}
        assert samples == {(("kind", "a"),): 42.0, (("kind", "b"),): 1.0}
        fanned = {s["labels"]["trigger"]: s["value"]
                  for s in out["fanned_total"]["samples"]}
        assert fanned == {"size": 3.0, "timer": 1.0}


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

class TestPrometheusRender:
    def test_render_parses_under_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("requests", "Requests served",
                         labelnames=("stage",)).labels(stage="er").inc(3)
        registry.gauge("queue_depth", "Depth").set(2.5)
        hist = registry.histogram("latency_seconds", "Latency",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = render_prometheus(registry)
        assert text.endswith("\n")
        # Counters grow a _total suffix; TYPE lines agree with samples.
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{stage="er"} 3' in text
        assert "queue_depth 2.5" in text
        assert '# TYPE latency_seconds histogram' in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1.0"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert "latency_seconds_sum 5.05" in text
        assert "latency_seconds_count 2" in text
        # Minimal format validation: every non-comment line is
        # "name{labels} value" with a float-parseable value.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part[0].isalpha()
            float(value.replace("+Inf", "inf"))

    def test_bucket_rows_are_cumulative_and_end_at_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 8.0):
            hist.observe(value)
        lines = [line for line in render_prometheus(registry).splitlines()
                 if line.startswith("h_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert lines[-1].startswith('h_bucket{le="+Inf"}')
        assert counts[-1] == 4

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", labelnames=("k",)).labels(
            k='a"b\\c\nd').inc()
        text = render_prometheus(registry)
        assert 'k="a\\"b\\\\c\\nd"' in text


# ---------------------------------------------------------------------------
# Tracing and profiling primitives
# ---------------------------------------------------------------------------

class TestTracing:
    def test_span_tree_nesting(self):
        trace = BatchTrace("batch-1", 1, 10)
        with trace.span("outer"):
            with trace.span("inner", stage="er"):
                pass
            with trace.span("sibling"):
                pass
        trace.finish()
        tree = trace.to_dict()
        assert tree["trace_id"] == "batch-1"
        root = tree["spans"]
        assert root["name"] == "batch"
        (outer,) = root["children"]
        assert [child["name"] for child in outer["children"]] == [
            "inner", "sibling"]
        assert outer["children"][0]["labels"] == {"stage": "er"}
        assert root["duration"] >= outer["duration"] >= 0.0

    def test_tracer_ring_is_bounded(self):
        tracer = Tracer(ring=2)
        for seq in range(4):
            tracer.begin(f"batch-{seq}", seq, 1)
            tracer.end()
        exported = tracer.export()
        assert [t["trace_id"] for t in exported] == ["batch-2", "batch-3"]
        assert tracer.current is None

    def test_on_span_callback_fires_per_closed_span(self):
        seen = []
        tracer = Tracer(on_span=lambda span: seen.append(span.name))
        trace = tracer.begin("batch-0", 0, 1)
        with trace.span("imputation"):
            pass
        tracer.end()
        assert seen == ["imputation", "batch"]


class TestProfiler:
    def test_keeps_only_slowest(self):
        profiler = SlowBatchProfiler(top_n=2)
        for seq, spin in ((1, 1000), (2, 200000), (3, 60000)):
            with profiler.profile(seq):
                sum(range(spin))
        kept = [entry["batch_seq"] for entry in profiler.as_dicts()]
        assert len(kept) == 2
        assert 2 in kept  # the heaviest batch is always retained
        for entry in profiler.as_dicts():
            assert "cumulative" in entry["stats"]


# ---------------------------------------------------------------------------
# Null plane
# ---------------------------------------------------------------------------

class TestNullTelemetry:
    def test_null_scope_is_shared_and_reentrant(self):
        assert NULL_TELEMETRY.begin_batch(1, 10) is NULL_SCOPE
        assert NULL_TELEMETRY.span("anything") is NULL_SCOPE
        with NULL_SCOPE:
            with NULL_SCOPE:
                pass
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.current_trace is None
        assert NULL_TELEMETRY.snapshot() is None
        NULL_TELEMETRY.observe_resolve(0.1)

    def test_disabled_context_still_advances_batch_seq(self):
        workload = generate_dataset("citations", missing_rate=0.3,
                                    scale=0.2, seed=7)
        config = TERiDSConfig(schema=workload.schema,
                              keywords=workload.keywords, alpha=0.5,
                              similarity_ratio=0.5, window_size=20)
        engine = TERiDSEngine(workload.repository, config)
        engine.run(workload.interleaved_records())
        assert engine.ctx.telemetry is NULL_TELEMETRY
        assert engine.ctx.batch_seq == engine.timestamps_processed
        assert engine.ctx.last_trace_id is None


# ---------------------------------------------------------------------------
# IngestStats histogram compatibility
# ---------------------------------------------------------------------------

class TestIngestStatsCompatibility:
    def test_p95_matches_legacy_formula(self):
        rng = random.Random(5)
        latencies = [rng.random() for _ in range(100)]
        stats = IngestStats()
        for latency in latencies:
            stats.record_batch(size=1, latency=latency, queue_depth=0,
                               trigger="size")
        ordered = sorted(latencies)
        assert stats.p95_formation_latency() == ordered[int(0.95 * 99)]
        # The generalisation adds configurable quantiles on the same ring.
        assert stats.formation.quantile(0.5) == ordered[int(0.5 * 99)]
        assert stats.formation.quantile(0.99) == ordered[int(0.99 * 99)]

    def test_ring_is_bounded_by_series_window(self):
        stats = IngestStats()
        for index in range(INGEST_SERIES_WINDOW + 10):
            stats.record_batch(size=1, latency=float(index), queue_depth=0,
                               trigger="size")
        assert len(stats.formation.samples) == INGEST_SERIES_WINDOW

    def test_restore_clears_ring(self, health_repository, health_config):
        engine = TERiDSEngine(health_repository, health_config)
        state = engine.checkpoint()
        state["ingest_stats"]["tuples_ingested"] = 5
        stats = engine.ctx.ingest
        stats.record_batch(size=1, latency=0.25, queue_depth=1,
                           trigger="size")
        engine.restore_checkpoint(state)
        assert stats.p95_formation_latency() == 0.0
        assert not stats.formation.samples
        assert not stats.queue_depths
        assert stats.tuples_ingested == 5


# ---------------------------------------------------------------------------
# Golden bit-identity: telemetry on vs off, under both executors
# ---------------------------------------------------------------------------

def _observables(engine, report):
    """Everything the goldens pin, plus the index-walk counters."""
    return {
        "matches": canonical_matches(report.matches),
        "result_set": canonical_matches(engine.current_matches()),
        "pruning": report.pruning_stats.as_dict(),
        "imputation": report.imputation_stats.as_dict(),
        "nodes_visited": {
            "dr_index": engine.ctx.dr_index.nodes_visited,
            "cdd_indexes": {name: index.nodes_visited for name, index
                            in sorted(engine.ctx.cdd_indexes.items())},
        },
        "grid": {"cells": engine.ctx.grid.cells_examined,
                 "tuples": engine.ctx.grid.tuples_examined},
    }


def _run_workload(executor_factory, telemetry):
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    engine = TERiDSEngine(workload.repository, config,
                          executor=executor_factory())
    if telemetry:
        engine.enable_telemetry(profile_slowest=2)
    report = engine.run(workload.interleaved_records())
    return _observables(engine, report)


IDENTITY_EXECUTORS = [
    pytest.param(SerialExecutor, id="serial"),
    pytest.param(lambda: MicroBatchExecutor(batch_size=8), id="vectorized"),
]


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("executor_factory", IDENTITY_EXECUTORS)
    def test_telemetry_on_off_identical(self, executor_factory):
        baseline = _run_workload(executor_factory, telemetry=False)
        traced = _run_workload(executor_factory, telemetry=True)
        assert traced == baseline

# ---------------------------------------------------------------------------
# One span tree per batch
# ---------------------------------------------------------------------------

def _span_rows(root, depth=0):
    yield depth, root["name"], root.get("labels", {})
    for child in root.get("children", []):
        yield from _span_rows(child, depth + 1)


def _run_traced(executor):
    workload = generate_dataset("citations", missing_rate=0.3, scale=0.2,
                                seed=7)
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          alpha=0.5, similarity_ratio=0.5, window_size=30)
    engine = TERiDSEngine(workload.repository, config, executor=executor)
    telemetry = engine.enable_telemetry(trace_ring=64)
    engine.run(workload.interleaved_records())
    return engine, telemetry.tracer.export()


class TestTraceStitching:
    def test_serial_pipeline_spans(self):
        engine, traces = _run_traced(SerialExecutor())
        rows = list(_span_rows(traces[-1]["spans"]))
        names = {name for _, name, _ in rows}
        assert {"batch", "rule_selection", "imputation",
                "entity_resolution"} <= names
        # Serial ER nests its sub-stages under entity_resolution.
        assert {"lookup", "refine"} <= names

    def test_micro_batch_pipeline_spans(self):
        engine, traces = _run_traced(MicroBatchExecutor(batch_size=16))
        (er,) = [child for child in traces[-1]["spans"]["children"]
                 if child["name"] == "entity_resolution"]
        assert [child["name"] for child in er["children"]] == [
            "maintenance_lookup", "refine", "result_replay"]
        stages = {sample["labels"]["stage"] for family
                  in engine.metrics_snapshot()["metrics"]
                  if family["name"] == "terids_stage_seconds"
                  for sample in family["samples"]}
        assert {"rule_selection", "imputation", "entity_resolution",
                "maintenance_lookup", "refine", "result_replay"} <= stages


# ---------------------------------------------------------------------------
# resolve() discipline and batch_seq checkpointing
# ---------------------------------------------------------------------------

class TestResolveTelemetry:
    @staticmethod
    def _engine_with_telemetry():
        workload = generate_dataset("citations", missing_rate=0.3, scale=0.3,
                                    seed=11)
        config = TERiDSConfig(schema=workload.schema,
                              keywords=workload.keywords, alpha=0.5,
                              similarity_ratio=0.5, window_size=20)
        engine = TERiDSEngine(workload.repository, config)
        telemetry = engine.enable_telemetry()
        engine.run(workload.interleaved_records())
        return engine, telemetry.registry.histogram("terids_resolve_seconds")

    def test_resolve_is_observed_and_leaves_pruning_counters(self):
        engine, family = self._engine_with_telemetry()
        (rid, source), _ = engine.grid.synopsis_items()[0]
        engine.resolve(rid, source)
        engine.resolve(rid, source)
        assert family.labels().count == 2
        # Pruning counters stay untouched by interactive lookups — the
        # goldens depend on it.
        before = engine.ctx.pruning.stats.as_dict()
        engine.resolve(rid, source)
        assert engine.ctx.pruning.stats.as_dict() == before

    def test_resolve_many_observes_its_latency_once_per_call(self):
        """Regression: the whole call's elapsed time was observed once per
        seed, so the histogram sum was N x the wall time of an N-seed call."""
        engine, family = self._engine_with_telemetry()
        keys = [key for key, _ in engine.grid.synopsis_items()[:5]]
        start = perf_counter()
        engine.resolve_many(keys)
        wall = perf_counter() - start
        series = family.labels()
        assert series.count == 1
        assert 0.0 < series.sum <= wall


class TestBatchSeqCheckpoint:
    def test_batch_seq_and_trace_id_roundtrip(self, tmp_path):
        workload = generate_dataset("citations", missing_rate=0.3, scale=0.3,
                                    seed=11)
        config = TERiDSConfig(schema=workload.schema,
                              keywords=workload.keywords, alpha=0.5,
                              similarity_ratio=0.5, window_size=20)
        records = list(workload.interleaved_records())
        first = TERiDSEngine(workload.repository, config)
        first.enable_telemetry()
        first.run(records[:len(records) // 2])
        seq = first.ctx.batch_seq
        assert seq > 0
        assert first.ctx.last_trace_id == f"batch-{seq:08d}"

        state = first.checkpoint()
        assert state["telemetry"] == {"batch_seq": seq,
                                      "trace_id": f"batch-{seq:08d}"}
        path = tmp_path / "ckpt.json"
        first.save_checkpoint(path)
        assert json.loads(path.read_text())["state"]["telemetry"][
            "batch_seq"] == seq

        resumed = TERiDSEngine(workload.repository, config)
        resumed.load_checkpoint(path)
        assert resumed.ctx.batch_seq == seq
        assert resumed.ctx.last_trace_id == f"batch-{seq:08d}"
        # The sequence keeps climbing monotonically after restore, even
        # with telemetry disabled on the resumed engine.
        resumed.run(records[len(records) // 2:])
        assert resumed.ctx.batch_seq > seq


# ---------------------------------------------------------------------------
# Snapshot API, Prometheus facade, log reporter
# ---------------------------------------------------------------------------

class TestEngineFacade:
    @pytest.fixture()
    def engine(self):
        workload = generate_dataset("citations", missing_rate=0.3, scale=0.2,
                                    seed=7)
        config = TERiDSConfig(schema=workload.schema,
                              keywords=workload.keywords, alpha=0.5,
                              similarity_ratio=0.5, window_size=20)
        engine = TERiDSEngine(workload.repository, config)
        engine.enable_telemetry(profile_slowest=1)
        engine.run(workload.interleaved_records())
        return engine

    def test_metrics_snapshot_is_json_serialisable(self, engine):
        snapshot = engine.metrics_snapshot()
        json.dumps(snapshot, allow_nan=False)  # valid JSON, no Infinity
        assert snapshot["telemetry_enabled"] is True
        assert snapshot["batch_seq"] == engine.ctx.batch_seq
        assert snapshot["pruning"]["pairs_considered"] == \
            engine.ctx.pruning.stats.pairs_considered
        by_name = {family["name"]: family for family in snapshot["metrics"]}
        assert by_name["terids_batches_total"]["samples"][0]["value"] == \
            engine.ctx.batch_seq
        pruning = {s["labels"]["outcome"]: s["value"] for s in
                   by_name["terids_pruning_pairs_total"]["samples"]}
        assert pruning["considered"] == \
            engine.ctx.pruning.stats.pairs_considered
        # A rule install either no-op-skips or rebuilds the indexes.
        assert set(snapshot["rule_installs"]) == {"skipped", "rebuilt"}
        installs = {s["labels"]["outcome"] for s in
                    by_name["terids_rule_installs_total"]["samples"]}
        assert installs == {"skipped", "rebuilt"}
        assert snapshot["traces"]
        assert snapshot["profiles"]

    def test_snapshot_reads_through_restore(self, engine):
        """Bound getters must read through ctx, not captured stat objects."""
        state = engine.checkpoint()
        engine.restore_checkpoint(state)  # overwrites every counter
        snapshot = engine.metrics_snapshot()
        by_name = {family["name"]: family for family in snapshot["metrics"]}
        imputed = {s["labels"]["kind"]: s["value"] for s in
                   by_name["terids_imputation_events_total"]["samples"]}
        assert imputed["records_imputed"] == \
            engine.ctx.imputer.stats.records_imputed

    def test_render_metrics_without_plane_raises(self):
        workload = generate_dataset("citations", missing_rate=0.3, scale=0.2,
                                    seed=7)
        config = TERiDSConfig(schema=workload.schema,
                              keywords=workload.keywords, alpha=0.5,
                              similarity_ratio=0.5, window_size=20)
        engine = TERiDSEngine(workload.repository, config)
        with pytest.raises(RuntimeError, match="enable_telemetry"):
            engine.render_metrics()
        snapshot = engine.metrics_snapshot()  # snapshot works regardless
        assert snapshot["telemetry_enabled"] is False
        assert "metrics" not in snapshot

    def test_render_metrics_exposes_bound_families(self, engine):
        text = engine.render_metrics()
        assert "# TYPE terids_pruning_pairs_total counter" in text
        assert 'terids_pruning_pairs_total{outcome="considered"}' in text
        assert "terids_batch_seconds_bucket" in text
        assert "terids_ingest_formation_seconds_count 0" in text
        assert f"terids_batch_seq {engine.ctx.batch_seq}" in text
        # The batch policy is static: no runtime-controller family renders.
        assert not [line for line in text.splitlines()
                    if "controller" in line]

    def test_vocabulary_gauge_reads_zero_until_a_read_enables_the_store(
            self, engine):
        """A serial engine packs nothing until its first ``resolve``."""
        assert engine.grid.packed_store is None
        assert "terids_packed_store_vocabulary_size 0" in \
            engine.render_metrics()
        (rid, source), _ = engine.grid.synopsis_items()[0]
        engine.resolve(rid, source)
        size = len(engine.grid.packed_store.vocabulary)
        assert size > 0
        text = engine.render_metrics()
        assert "# TYPE terids_packed_store_vocabulary_size gauge" in text
        assert f"terids_packed_store_vocabulary_size {size}" in text

    def test_log_reporter(self, engine, caplog):
        reporter = LogReporter(engine.ctx, every_batches=2)
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            reporter.on_batch(None, [])
            assert not caplog.records
            reporter.on_batch(None, [])
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert f"batch_seq={engine.ctx.batch_seq}" in message
        assert "pairs_considered=" in message
        assert "batch_p95=" in message

    def test_disable_telemetry_restores_null_plane(self, engine):
        engine.disable_telemetry()
        assert engine.ctx.telemetry is NULL_TELEMETRY


def test_reenabling_telemetry_does_not_duplicate_bound_metrics():
    """Re-binding the same registry (telemetry toggle) must replace the
    bound getters, not stack duplicates."""
    workload = generate_dataset("citations", missing_rate=0.3, scale=0.2,
                                seed=7)
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          alpha=0.5, similarity_ratio=0.5, window_size=20)
    engine = TERiDSEngine(workload.repository, config,
                          executor=SerialExecutor())
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
