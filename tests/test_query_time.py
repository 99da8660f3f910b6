"""Tests for query-time (on-demand) resolution over the live window.

The heavyweight guarantees:

* **Closure bit-identity** — ``resolve(entity)`` returns exactly the
  transitive closure of the eager result set restricted to the query's
  connected component (members, pair orientation, probabilities and
  timestamps all bit-identical), for *every* in-window entity, under both
  executors and at any point mid-stream;
* **Cache soundness** — a cached cluster is never served stale: entries
  are dropped when window maintenance (insert, count-based expiry,
  event-time retraction, checkpoint restore) touches their grid regions,
  and untouched entries survive;
* **Counter hygiene** — interactive lookups leave the eager path's
  golden-pinned pruning and grid counters untouched.
"""

import json
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_utils import (
    GOLDEN_WORKLOADS,
    build_config,
    build_workload,
)
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.datasets.synthetic import generate_dataset
from repro.runtime import MicroBatchExecutor, QueryResolver, SerialExecutor


def _small_workload():
    return generate_dataset("citations", missing_rate=0.3, scale=0.3, seed=11)


def _small_config(workload, window=20):
    return TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                        alpha=0.5, similarity_ratio=0.5, window_size=window)


def _serial_executor():
    return SerialExecutor()


def _vectorized_executor():
    return MicroBatchExecutor(batch_size=8)


EXECUTORS = [
    pytest.param(_serial_executor, id="serial"),
    pytest.param(_vectorized_executor, id="vectorized"),
]


def eager_closure(engine, rid, source):
    """The ground truth: BFS over the eager result set's match edges.

    Returns ``(members, pairs)`` in :class:`ResolvedCluster`'s canonical
    shape — sorted ``(source, rid)`` members (the query is always one) and
    the component's edges sorted by pair key.
    """
    adjacency = defaultdict(set)
    by_key = {}
    for pair in engine.current_matches():
        left = (pair.left_source, pair.left_rid)
        right = (pair.right_source, pair.right_rid)
        adjacency[left].add(right)
        adjacency[right].add(left)
        by_key[pair.key()] = pair
    start = (source, rid)
    component = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for neighbour in adjacency[node]:
            if neighbour not in component:
                component.add(neighbour)
                stack.append(neighbour)
    edges = [pair for pair in by_key.values()
             if (pair.left_source, pair.left_rid) in component]
    return (tuple(sorted(component)),
            tuple(sorted(edges, key=lambda pair: pair.key())))


def _pair_tuple(pair):
    return (pair.left_rid, pair.left_source, pair.right_rid,
            pair.right_source, pair.probability, pair.timestamp)


def assert_cluster_equals_closure(engine, rid, source, cluster=None):
    cluster = cluster if cluster is not None else engine.resolve(rid, source)
    members, pairs = eager_closure(engine, rid, source)
    assert cluster.members == members
    assert [_pair_tuple(p) for p in cluster.pairs] == \
        [_pair_tuple(p) for p in pairs]
    return cluster


# ---------------------------------------------------------------------------
# Closure bit-identity: every in-window entity, every configuration
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("make_executor", EXECUTORS)
def test_resolve_equals_eager_closure_for_every_entity(make_executor):
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload),
                          executor=make_executor())
    try:
        engine.run(workload.interleaved_records())
        multi = 0
        for (rid, source), _ in engine.grid.synopsis_items():
            cluster = assert_cluster_equals_closure(engine, rid, source)
            if len(cluster) > 1:
                multi += 1
        assert multi > 0  # the workload must actually exercise expansion
    finally:
        engine.close()


@pytest.mark.parametrize("dataset,scale,seed,window", GOLDEN_WORKLOADS)
def test_resolve_equals_eager_closure_on_goldens(dataset, scale, seed,
                                                window):
    workload = build_workload(dataset, scale, seed)
    engine = TERiDSEngine(repository=workload.repository,
                          config=build_config(workload, window))
    try:
        engine.run(workload.interleaved_records())
        for (rid, source), _ in engine.grid.synopsis_items():
            assert_cluster_equals_closure(engine, rid, source)
    finally:
        engine.close()


def test_resolve_mid_stream_tracks_the_moving_window():
    """Resolving between batches answers against the window *right now*."""
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        records = list(workload.interleaved_records())
        step = max(1, len(records) // 7)
        for start in range(0, len(records), step):
            engine.process_batch(records[start:start + step])
            for (rid, source), _ in engine.grid.synopsis_items()[:5]:
                assert_cluster_equals_closure(engine, rid, source)
    finally:
        engine.close()


_PROPERTY_WORKLOAD = _small_workload()
_PROPERTY_RECORDS = list(_PROPERTY_WORKLOAD.interleaved_records())

_PROPERTY_CONFIGS = [_serial_executor, _vectorized_executor]


@given(config_index=st.integers(min_value=0,
                                max_value=len(_PROPERTY_CONFIGS) - 1),
       probe=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=12, deadline=None)
def test_property_any_entity_any_config_matches_closure(config_index, probe):
    factory = _PROPERTY_CONFIGS[config_index]
    engine = TERiDSEngine(repository=_PROPERTY_WORKLOAD.repository,
                          config=_small_config(_PROPERTY_WORKLOAD),
                          executor=factory())
    try:
        engine.run(_PROPERTY_RECORDS)
        items = engine.grid.synopsis_items()
        (rid, source), _ = items[probe % len(items)]
        assert_cluster_equals_closure(engine, rid, source)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# API surface
# ---------------------------------------------------------------------------
def test_resolve_unknown_entity_raises_key_error():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        with pytest.raises(KeyError, match="not in the live window"):
            engine.resolve("no-such-rid", "stream-a")
    finally:
        engine.close()


def test_resolve_with_stricter_gamma_shrinks_to_singleton():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        rid = source = None
        for (candidate_rid, candidate_source), _ in engine.grid.synopsis_items():
            if len(engine.resolve(candidate_rid, candidate_source)) > 1:
                rid, source = candidate_rid, candidate_source
                break
        assert rid is not None
        # gamma = d makes the similarity bound unsatisfiable for any
        # distinct pair, so the same entity resolves to a singleton.
        strict = engine.resolve(rid, source,
                                gamma=float(len(workload.schema)))
        assert strict.members == ((source, rid),)
        assert strict.pairs == ()
        # The default lookup is cached separately and still the closure.
        assert_cluster_equals_closure(engine, rid, source)
    finally:
        engine.close()


def test_resolve_with_topic_override_caches_per_signature():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        (rid, source), _ = engine.grid.synopsis_items()[0]
        default = engine.resolve(rid, source)
        narrowed = engine.resolve(rid, source,
                                  topic=frozenset({"zzz-unseen-keyword"}))
        assert narrowed.topic == frozenset({"zzz-unseen-keyword"})
        # Distinct signatures, distinct cache slots: repeating each is a hit.
        assert engine.resolve(rid, source) is default
        assert engine.resolve(
            rid, source, topic=frozenset({"zzz-unseen-keyword"})) is narrowed
        assert engine.ctx.query.cache_hits == 2
        assert engine.ctx.query.cache_misses == 2
    finally:
        engine.close()


def test_resolver_rejects_bad_cache_size():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        with pytest.raises(ValueError, match="cache_size"):
            QueryResolver(engine.ctx, cache_size=0)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Cache semantics: hits, LRU bound, region-targeted invalidation
# ---------------------------------------------------------------------------
def test_repeat_query_is_a_cache_hit_returning_the_same_object():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        (rid, source), _ = engine.grid.synopsis_items()[0]
        first = engine.resolve(rid, source)
        again = engine.resolve(rid, source)
        assert again is first
        stats = engine.ctx.query.as_dict()
        assert stats["resolves"] == 2
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
    finally:
        engine.close()


def test_cache_respects_the_lru_bound():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        resolver = QueryResolver(engine.ctx, cache_size=4)
        items = engine.grid.synopsis_items()
        assert len(items) > 4
        for (rid, source), _ in items:
            resolver.resolve(rid, source)
        assert len(resolver) == 4
        # The most recent queries are the retained ones.
        (rid, source), _ = items[-1]
        hits_before = engine.ctx.query.cache_hits
        resolver.resolve(rid, source)
        assert engine.ctx.query.cache_hits == hits_before + 1
    finally:
        engine.close()


def test_window_maintenance_invalidates_only_intersecting_entries():
    """Every entity's cached cluster stays correct across the whole run:
    stale entries are dropped by region, and whatever survives a batch is
    re-checked against the ground-truth closure (a stale serve would fail
    the bit-identity assertion)."""
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload, window=10))
    try:
        records = list(workload.interleaved_records())
        engine.process_batch(records[:30])
        step = max(1, len(records[30:]) // 6)
        invalidations_seen = 0
        for start in range(30, len(records), step):
            # Warm the cache for everything in-window...
            for (rid, source), _ in engine.grid.synopsis_items():
                engine.resolve(rid, source)
            before = engine.ctx.query.cache_invalidations
            engine.process_batch(records[start:start + step])
            invalidations_seen += engine.ctx.query.cache_invalidations - before
            # ...then verify every post-maintenance answer (cached or
            # recomputed) against the eager closure.
            for (rid, source), _ in engine.grid.synopsis_items():
                assert_cluster_equals_closure(engine, rid, source)
        assert invalidations_seen > 0  # maintenance did hit cached regions
    finally:
        engine.close()


def test_member_expiry_drops_the_cached_cluster():
    workload = _small_workload()
    window = 10
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload, window=window))
    try:
        records = list(workload.interleaved_records())
        engine.process_batch(records[:2 * window])
        (rid, source), _ = engine.grid.synopsis_items()[0]  # oldest first
        engine.resolve(rid, source)
        # Push enough arrivals through the query's stream to expire it.
        engine.process_batch(records[2 * window:4 * window])
        assert not engine.grid.contains(rid, source)
        with pytest.raises(KeyError):
            engine.resolve(rid, source)
        assert engine.ctx.query.cache_invalidations > 0
    finally:
        engine.close()


def test_event_time_retraction_drops_the_cached_cluster():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        (rid, source), _ = engine.grid.synopsis_items()[0]
        cold = engine.resolve(rid, source)
        assert engine.resolve(rid, source) is cold

        class _Expired:
            def __init__(self, rid, source):
                self.rid = rid
                self.source = source

        before = engine.ctx.query.cache_invalidations
        engine.pipeline.maintenance.retract([_Expired(rid, source)])
        assert engine.ctx.query.cache_invalidations > before
        assert not engine.grid.contains(rid, source)
        with pytest.raises(KeyError):
            engine.resolve(rid, source)
        # Other entities still answer correctly after the retraction.
        for (other_rid, other_source), _ in engine.grid.synopsis_items()[:5]:
            assert_cluster_equals_closure(engine, other_rid, other_source)
    finally:
        engine.close()


def test_counters_and_pruning_stats_untouched_by_lookups():
    """Interactive lookups must not perturb the golden-pinned eager
    counters (grid examination counts, Figure-4 pruning stats)."""
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        grid_before = (engine.grid.cells_examined,
                       engine.grid.tuples_examined)
        stats = engine.pruning.stats
        pruning_before = (stats.pairs_considered, stats.refined_matches,
                          stats.refined_non_matches)
        for (rid, source), _ in engine.grid.synopsis_items():
            engine.resolve(rid, source)
        assert (engine.grid.cells_examined,
                engine.grid.tuples_examined) == grid_before
        assert (stats.pairs_considered, stats.refined_matches,
                stats.refined_non_matches) == pruning_before
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Checkpoints: counters persist, cached clusters do not
# ---------------------------------------------------------------------------
def test_checkpoint_restores_query_stats_but_drops_the_cache():
    workload = _small_workload()
    config = _small_config(workload)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    try:
        engine.run(workload.interleaved_records())
        for (rid, source), _ in engine.grid.synopsis_items()[:6]:
            engine.resolve(rid, source)
        expected = engine.ctx.query.as_dict()
        assert expected["resolves"] == 6
        state = json.loads(json.dumps(engine.checkpoint()))  # JSON-safe

        clone = TERiDSEngine(repository=workload.repository, config=config)
        try:
            clone.restore_checkpoint(state)
            assert clone.ctx.query.as_dict() == expected
            assert len(clone.resolver) == 0  # cache is scratch
            # Post-restore lookups are cold but still the exact closure.
            (rid, source), _ = clone.grid.synopsis_items()[0]
            assert_cluster_equals_closure(clone, rid, source)
        finally:
            clone.close()

        # Restoring into the *same* engine clears its warm cache too.
        assert len(engine.resolver) > 0
        engine.restore_checkpoint(state)
        assert len(engine.resolver) == 0
        assert engine.ctx.query.as_dict() == expected
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Batched resolution: resolve_many shares one expansion across queries
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("make_executor", EXECUTORS)
def test_resolve_many_is_bit_identical_to_per_seed_resolve(make_executor):
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload),
                          executor=make_executor())
    try:
        engine.run(workload.interleaved_records())
        keys = [(rid, source)
                for (rid, source), _ in engine.grid.synopsis_items()]
        clusters = engine.resolve_many(keys)
        assert len(clusters) == len(keys)
        for (rid, source), cluster in zip(keys, clusters):
            assert (cluster.rid, cluster.source) == (rid, source)
            assert_cluster_equals_closure(engine, rid, source,
                                          cluster=cluster)
    finally:
        engine.close()


def test_resolve_many_shares_expansion_and_caches_per_seed():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        keys = [(rid, source)
                for (rid, source), _ in engine.grid.synopsis_items()]
        clusters = engine.resolve_many(keys)
        stats = engine.ctx.query.as_dict()
        # One frontier expansion per unique entity: the shared ``evaluated``
        # set means no neighbourhood is expanded twice across the batch.
        assert stats["frontier_expansions"] == len(keys)
        assert stats["cache_misses"] == len(keys)
        # Every seed landed in the cache: a per-seed resolve is now a hit
        # returning the identical cluster object.
        for (rid, source), cluster in zip(keys, clusters):
            assert engine.resolve(rid, source) is cluster
        assert engine.ctx.query.as_dict()["cache_hits"] == len(keys)
    finally:
        engine.close()


def test_resolve_many_mixes_hits_misses_and_duplicates():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        keys = [(rid, source)
                for (rid, source), _ in engine.grid.synopsis_items()]
        warm = engine.resolve(*keys[0])
        batch = [keys[0], keys[1], keys[0], keys[2]]
        clusters = engine.resolve_many(batch)
        assert clusters[0] is warm          # served from the cache
        assert clusters[2] is clusters[0]   # duplicate input, one lookup
        stats = engine.ctx.query.as_dict()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 3   # keys[0] cold + keys[1] + keys[2]
        for (rid, source), cluster in zip(batch, clusters):
            assert_cluster_equals_closure(engine, rid, source,
                                          cluster=cluster)
    finally:
        engine.close()


def test_resolve_many_unknown_entity_raises_before_any_work():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        (rid, source), _ = engine.grid.synopsis_items()[0]
        before = engine.ctx.query.as_dict()
        with pytest.raises(KeyError):
            engine.resolve_many([(rid, source), ("ghost", "stream-a")])
        assert engine.ctx.query.as_dict() == before  # nothing was counted
    finally:
        engine.close()
