"""Tests for query-time (on-demand) resolution over the live window.

The heavyweight guarantees:

* **Closure bit-identity** — ``resolve(entity)`` returns exactly the
  transitive closure of the eager result set restricted to the query's
  connected component (members, pair orientation, probabilities and
  timestamps all bit-identical), for *every* in-window entity, under both
  executors and at any point mid-stream;
* **Freshness** — the resolver is stateless, so every answer reflects the
  window as window maintenance (insert, count-based expiry, event-time
  retraction, checkpoint restore) left it;
* **Counter hygiene** — interactive lookups leave the eager path's
  golden-pinned pruning and grid counters untouched.
"""

import inspect
import json
from collections import Counter, defaultdict

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
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.matching import ter_ids_probability
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


@pytest.mark.parametrize("dataset,scale,seed,window", GOLDEN_WORKLOADS)
def test_serial_run_continued_after_a_read_equals_the_golden(dataset, scale,
                                                            seed, window):
    """The first ``resolve`` on a serial engine enables the grid's packed
    store (the row cascade is the only one the resolver has); the store a
    read enabled must not change a later eager answer or counter."""
    workload = build_workload(dataset, scale, seed)
    engine = TERiDSEngine(repository=workload.repository,
                          config=build_config(workload, window),
                          executor=SerialExecutor())
    golden = json.loads(golden_path(dataset).read_text())["reference"]
    try:
        records = list(workload.interleaved_records())
        middle = len(records) // 2
        matches = engine.process_batch(records[:middle])
        assert engine.grid.packed_store is None
        for (rid, source), _ in engine.grid.synopsis_items():
            assert_cluster_equals_closure(engine, rid, source)
        assert engine.grid.packed_store is not None
        for record in records[middle:]:
            matches += engine.process_batch([record])
        assert canonical_matches(matches) == golden["matches"]
        assert canonical_matches(engine.current_matches()) == \
            golden["result_set"]
        assert engine.pruning.stats.as_dict() == golden["pruning_stats"]
        assert engine.imputer.stats.as_dict() == golden["imputation_stats"]
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


def _first_multi_member_entity(engine):
    for (rid, source), _ in engine.grid.synopsis_items():
        if len(engine.resolve(rid, source)) > 1:
            return rid, source
    raise AssertionError("workload has no multi-member cluster")


def test_resolve_with_topic_override_changes_the_cluster():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        rid, source = _first_multi_member_entity(engine)
        # No record mentions the keyword, so no pair is topic-related.
        narrowed = engine.resolve(rid, source,
                                  topic=frozenset({"zzz-unseen-keyword"}))
        assert narrowed.topic == frozenset({"zzz-unseen-keyword"})
        assert narrowed.members == ((source, rid),)
        # The override is per call: the default lookup is still the closure.
        assert_cluster_equals_closure(engine, rid, source)
    finally:
        engine.close()


@pytest.mark.parametrize("make_executor", EXECUTORS)
def test_resolve_under_any_topic_dismisses_no_exact_answer(make_executor):
    """No false dismissal under a topic override: for each of the window's
    most frequent tokens as the topic, every seed resolves to exactly its
    component of the exact Eq. (2) edge set.  (Theorem 4.1's keyword flags
    are packed under the *operator's* keywords, so it must stay out of a
    lookup under any other topic.)"""
    workload = _small_workload()
    config = _small_config(workload)
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=make_executor())
    try:
        engine.run(workload.interleaved_records())
        window = engine.grid.synopsis_items()
        frequency = Counter(
            token for _, synopsis in window
            for instance in synopsis.record.instances()
            for token in instance.record.all_tokens(workload.schema))
        topics = [token for token, _ in frequency.most_common()
                  if token not in config.keywords][:38]
        disagreeing_with_operator_flags = 0
        for token in topics:
            topic = frozenset({token})
            adjacency = defaultdict(set)
            edges = set()
            for index, (left_key, left) in enumerate(window):
                for right_key, right in window[index + 1:]:
                    if left_key[1] != right_key[1] and ter_ids_probability(
                            left.record, right.record, topic,
                            config.gamma) > config.alpha:
                        adjacency[left_key].add(right_key)
                        adjacency[right_key].add(left_key)
                        edges.add(frozenset((left_key, right_key)))
                        disagreeing_with_operator_flags += not (
                            left.may_have_keyword or right.may_have_keyword)
            clusters = engine.resolve_many([key for key, _ in window],
                                           topic=topic)
            for (seed, _), cluster in zip(window, clusters):
                component, stack = {seed}, [seed]
                while stack:
                    for neighbour in adjacency[stack.pop()] - component:
                        component.add(neighbour)
                        stack.append(neighbour)
                assert cluster.members == tuple(sorted(
                    (source, rid) for rid, source in component)), token
                assert {frozenset(((pair.left_rid, pair.left_source),
                                   (pair.right_rid, pair.right_source)))
                        for pair in cluster.pairs} == {
                    edge for edge in edges if edge <= component}, token
        # The workload has answers the operator-keyword flags would dismiss.
        assert disagreeing_with_operator_flags > 0
    finally:
        engine.close()


def test_resolver_takes_the_context_and_nothing_else():
    assert list(inspect.signature(QueryResolver).parameters) == ["ctx"]


def test_repeat_resolve_recomputes_an_equal_cluster():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        rid, source = _first_multi_member_entity(engine)
        start = engine.ctx.query.frontier_expansions
        first = engine.resolve(rid, source)
        after_first = engine.ctx.query.frontier_expansions
        again = engine.resolve(rid, source)
        assert again == first
        assert after_first > start
        assert engine.ctx.query.frontier_expansions > after_first
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Freshness: every answer reflects the window as maintenance left it
# ---------------------------------------------------------------------------
def test_resolve_is_unchanged_by_unrelated_inserts_and_tracks_related_ones():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload, window=10))
    try:
        records = list(workload.interleaved_records())
        engine.process_batch(records[:30])
        unchanged = changed = 0
        for record in records[30:]:
            before = {key: engine.resolve(*key)
                      for key, _ in engine.grid.synopsis_items()}
            engine.process_batch([record])
            for key, _ in engine.grid.synopsis_items():
                after = assert_cluster_equals_closure(engine, *key)
                if key not in before:
                    continue
                if after == before[key]:
                    unchanged += 1
                else:
                    changed += 1
        assert unchanged > 0 and changed > 0
    finally:
        engine.close()


def test_resolve_after_member_expiry_equals_closure():
    """A cluster-mate's count-based expiry shrinks the survivor's cluster."""
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload, window=10))
    try:
        shrunk = 0
        for record in workload.interleaved_records():
            before = {key: engine.resolve(*key)
                      for key, _ in engine.grid.synopsis_items()}
            engine.process_batch([record])
            for (rid, source), cluster in before.items():
                expired = {member for member in cluster.members
                           if not engine.grid.contains(member[1], member[0])}
                if not expired:
                    continue
                if (source, rid) in expired:
                    with pytest.raises(KeyError):
                        engine.resolve(rid, source)
                    continue
                after = assert_cluster_equals_closure(engine, rid, source)
                assert not expired & set(after.members)
                shrunk += 1
        assert shrunk > 0  # some survivor did lose a cluster-mate
    finally:
        engine.close()


def test_resolve_after_event_time_retraction_equals_closure():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        rid, source = _first_multi_member_entity(engine)
        mate_source, mate_rid = next(
            member for member in engine.resolve(rid, source).members
            if member != (source, rid))
        # ``retract`` only reads ``rid`` / ``source`` off its items.
        engine.pipeline.maintenance.retract(
            [engine.grid.get_synopsis(mate_rid, mate_source)])
        assert not engine.grid.contains(mate_rid, mate_source)
        with pytest.raises(KeyError):
            engine.resolve(mate_rid, mate_source)
        after = assert_cluster_equals_closure(engine, rid, source)
        assert not after.contains(mate_rid, mate_source)
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
# Checkpoints: the query counters persist
# ---------------------------------------------------------------------------
def test_checkpoint_restores_query_stats():
    workload = _small_workload()
    config = _small_config(workload)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    try:
        engine.run(workload.interleaved_records())
        for (rid, source), _ in engine.grid.synopsis_items()[:6]:
            engine.resolve(rid, source)
        expected = engine.metrics_snapshot()["query"]
        assert expected["resolves"] == 6
        assert expected["frontier_expansions"] >= 6
        state = json.loads(json.dumps(engine.checkpoint()))  # JSON-safe

        clone = TERiDSEngine(repository=workload.repository, config=config)
        try:
            clone.restore_checkpoint(state)
            assert clone.metrics_snapshot()["query"] == expected
            # Post-restore lookups are still the exact closure.
            (rid, source), _ = clone.grid.synopsis_items()[0]
            assert_cluster_equals_closure(clone, rid, source)

            # A checkpoint written before the result cache was removed
            # carries three more keys; they are ignored, not an error.
            state["query_stats"] = {
                "resolves": 9, "cache_hits": 4, "cache_misses": 5,
                "cache_invalidations": 3, "frontier_expansions": 17}
            clone.restore_checkpoint(state)
            assert clone.metrics_snapshot()["query"] == {
                "resolves": 9, "frontier_expansions": 17}
        finally:
            clone.close()
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


def test_resolve_many_shares_one_expansion_across_seeds():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        keys = [(rid, source)
                for (rid, source), _ in engine.grid.synopsis_items()]
        engine.resolve_many(keys)
        stats = engine.metrics_snapshot()["query"]
        # One frontier expansion per unique entity: the shared ``evaluated``
        # set means no neighbourhood is expanded twice across the batch.
        assert stats["frontier_expansions"] == len(keys)
        assert stats["resolves"] == len(keys)
    finally:
        engine.close()


def test_resolve_many_resolves_a_duplicate_input_once():
    workload = _small_workload()
    engine = TERiDSEngine(repository=workload.repository,
                          config=_small_config(workload))
    try:
        engine.run(workload.interleaved_records())
        keys = [(rid, source)
                for (rid, source), _ in engine.grid.synopsis_items()]
        batch = [keys[0], keys[1], keys[0], keys[2]]
        clusters = engine.resolve_many(batch)
        assert clusters[2] is clusters[0]   # duplicate input, one lookup
        assert engine.ctx.query.resolves == 3
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
        before = engine.metrics_snapshot()["query"]
        with pytest.raises(KeyError):
            engine.resolve_many([(rid, source), ("ghost", "stream-a")])
        # Nothing was counted.
        assert engine.metrics_snapshot()["query"] == before
    finally:
        engine.close()
