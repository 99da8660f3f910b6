"""Differential tests: the vectorized pruning kernel and the persistent pool.

The contract under test is *identity*, not just safety: the columnar
:func:`~repro.core.pruning.batch_prune` kernel must reproduce the scalar
cascade's survivor mask, per-strategy pruned counts, verdicts and
probabilities bit-for-bit, for arbitrary synopses (hypothesis) and on the
golden workloads (both executors, in-process and both pooled refinement
modes).
"""

import contextlib
import gc
import json

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from golden_utils import (
    GOLDEN_WORKLOADS,
    build_config,
    build_workload,
    canonical_matches,
    golden_path,
    run_reference,
)
from repro.core import pruning as pruning_module
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.pruning import (
    PAIR_BLOCK,
    PackedStore,
    PruningStats,
    RecordSynopsis,
    batch_prune,
    ensure_packed,
    paley_zygmund_bound_from_totals,
    probability_prune,
    similarity_prune,
    topic_keyword_prune,
)
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import PivotSelectionConfig, select_pivots
from repro.runtime import (
    POOL_PER_BATCH,
    POOL_PERSISTENT,
    MicroBatchExecutor,
    SerialExecutor,
    evaluate_candidates,
    evaluate_pair_cached,
)
from repro.runtime.shm_plane import HAS_SHM
from repro.runtime.workers import ResidentRefiner, ResidentShard

SCHEMA = Schema(attributes=("symptom", "diagnosis"))
KEYWORDS = frozenset({"diabetes"})


def _pivots():
    samples = [
        Record(rid="p0", values={"symptom": "fever cough chills",
                                 "diagnosis": "flu"}),
        Record(rid="p1", values={"symptom": "weight loss blurred vision",
                                 "diagnosis": "diabetes"}),
        Record(rid="p2", values={"symptom": "red eye itchy",
                                 "diagnosis": "conjunctivitis"}),
        Record(rid="p3", values={"symptom": "chest pain palpitation",
                                 "diagnosis": "cardio issue"}),
    ]
    repository = DataRepository(schema=SCHEMA, samples=samples)
    return select_pivots(repository, PivotSelectionConfig(buckets=5,
                                                          min_entropy=0.3,
                                                          max_pivots=2))


PIVOTS = _pivots()

#: Token pool for the hypothesis-generated records (overlaps the pivots so
#: every similarity/probability branch is reachable).
WORDS = ("fever", "cough", "chills", "weight", "loss", "blurred", "vision",
         "diabetes", "flu", "red", "eye", "pain", "itchy", "thirst", "")


def _make_synopsis(index, symptom, diagnosis, candidates):
    record = Record(rid=f"r{index}", values={"symptom": symptom or None,
                                             "diagnosis": diagnosis or None},
                    source=f"s{index % 2}")
    imputed = ImputedRecord(base=record, schema=SCHEMA,
                            candidates=candidates or {})
    return RecordSynopsis.build(imputed, PIVOTS, KEYWORDS)


def _scalar_cascade(query, candidates, keywords, gamma, alpha,
                    use_topic=True, use_similarity=True,
                    use_probability=True):
    """The three bound strategies applied per pair, with attribution."""
    mask = []
    counts = [0, 0, 0]
    for candidate in candidates:
        if use_topic and topic_keyword_prune(query, candidate, keywords):
            counts[0] += 1
            mask.append(False)
            continue
        if use_similarity and similarity_prune(query, candidate, gamma):
            counts[1] += 1
            mask.append(False)
            continue
        if use_probability and probability_prune(query, candidate, gamma,
                                                 alpha):
            counts[2] += 1
            mask.append(False)
            continue
        mask.append(True)
    return mask, tuple(counts)


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary synopses, arbitrary thresholds
# ---------------------------------------------------------------------------
value_strategy = st.lists(st.sampled_from(WORDS), min_size=0, max_size=4).map(
    " ".join)
candidates_strategy = st.dictionaries(
    st.sampled_from(WORDS[:8]).filter(bool),
    st.floats(min_value=0.05, max_value=0.33),
    min_size=1, max_size=3)
record_strategy = st.tuples(
    value_strategy,
    value_strategy,
    st.one_of(st.none(), candidates_strategy),
)


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(record_strategy, min_size=2, max_size=8),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    use_keywords=st.booleans(),
)
def test_vectorized_kernel_identical_to_scalar_cascade(records, gamma, alpha,
                                                       use_keywords):
    keywords = KEYWORDS if use_keywords else frozenset()
    synopses = []
    for index, (symptom, diagnosis, extra) in enumerate(records):
        candidates = {"diagnosis": extra} if (extra and not diagnosis) else None
        synopses.append(_make_synopsis(index, symptom, diagnosis, candidates))
    query, candidates = synopses[0], synopses[1:]

    alive, topic, similarity, probability = batch_prune(
        query, candidates, keywords=keywords, gamma=gamma, alpha=alpha)
    mask, counts = _scalar_cascade(query, candidates, keywords, gamma, alpha)
    assert list(alive) == mask
    assert (topic, similarity, probability) == counts

    # Full verdicts (bounds + instance-level refinement) and counters.
    vector_stats = PruningStats()
    scalar_stats = PruningStats()
    vectorized = evaluate_candidates(
        query, candidates, keywords=keywords, gamma=gamma, alpha=alpha,
        use_topic=True, use_similarity=True, use_probability=True,
        use_instance=True, stats=vector_stats, vectorized=True)
    scalar = evaluate_candidates(
        query, candidates, keywords=keywords, gamma=gamma, alpha=alpha,
        use_topic=True, use_similarity=True, use_probability=True,
        use_instance=True, stats=scalar_stats, vectorized=False)
    assert vectorized == scalar
    assert vector_stats == scalar_stats


@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(record_strategy, min_size=2, max_size=6),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    toggles=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_vectorized_kernel_respects_strategy_toggles(records, gamma, alpha,
                                                     toggles):
    use_topic, use_similarity, use_probability = toggles
    synopses = [
        _make_synopsis(index, symptom, diagnosis,
                       {"diagnosis": extra} if (extra and not diagnosis)
                       else None)
        for index, (symptom, diagnosis, extra) in enumerate(records)
    ]
    query, candidates = synopses[0], synopses[1:]
    alive, topic, similarity, probability = batch_prune(
        query, candidates, keywords=KEYWORDS, gamma=gamma, alpha=alpha,
        use_topic=use_topic, use_similarity=use_similarity,
        use_probability=use_probability)
    mask, counts = _scalar_cascade(query, candidates, KEYWORDS, gamma, alpha,
                                   use_topic=use_topic,
                                   use_similarity=use_similarity,
                                   use_probability=use_probability)
    assert list(alive) == mask
    assert (topic, similarity, probability) == counts


# ---------------------------------------------------------------------------
# Engine-populated window: kernel + store vs scalar, pair for pair
# ---------------------------------------------------------------------------
def _populated_engine():
    workload = build_workload("citations", 0.4, 7)
    config = build_config(workload, 40)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    engine.run(list(workload.interleaved_records())[:120])
    return engine, config


def test_kernel_with_resident_store_matches_scalar_on_window():
    engine, config = _populated_engine()
    synopses = engine.grid.synopses()
    assert len(synopses) > 30
    store = PackedStore()
    for synopsis in synopses:
        store.insert(synopsis)
    for query in synopses[:25]:
        candidates = [s for s in synopses if s is not query]
        alive, topic, similarity, probability = batch_prune(
            query, candidates, keywords=config.keywords, gamma=config.gamma,
            alpha=config.alpha, store=store)
        mask, counts = _scalar_cascade(query, candidates, config.keywords,
                                       config.gamma, config.alpha)
        assert list(alive) == mask
        assert (topic, similarity, probability) == counts


def test_evaluate_candidates_verdicts_and_stats_match_scalar():
    engine, config = _populated_engine()
    synopses = engine.grid.synopses()
    vector_stats = PruningStats()
    scalar_stats = PruningStats()
    for query in synopses[:20]:
        candidates = [s for s in synopses if s is not query]
        vectorized = evaluate_candidates(
            query, candidates, keywords=config.keywords, gamma=config.gamma,
            alpha=config.alpha, use_topic=True, use_similarity=True,
            use_probability=True, use_instance=True, stats=vector_stats,
            vectorized=True)
        scalar = [
            evaluate_pair_cached(
                query, candidate, keywords=config.keywords,
                gamma=config.gamma, alpha=config.alpha, use_topic=True,
                use_similarity=True, use_probability=True, use_instance=True,
                stats=scalar_stats)
            for candidate in candidates
        ]
        assert vectorized == scalar
    assert vector_stats == scalar_stats


# ---------------------------------------------------------------------------
# The pair form: many queries per kernel pass, blocked
# ---------------------------------------------------------------------------
def _pair_rows(store, synopses, count):
    """``count`` (query, candidate) pairs over ``synopses``: every synopsis
    in turn as the query against all others, as rows of ``store``."""
    pairs = [(query, candidate) for query in synopses
             for candidate in synopses if candidate is not query][:count]
    assert len(pairs) == count
    return (pairs, store.rows_for([query for query, _ in pairs]),
            store.rows_for([candidate for _, candidate in pairs]))


def _scalar_pairs(pairs, keywords, gamma, alpha, **toggles):
    mask, counts = [], [0, 0, 0]
    for query, candidate in pairs:
        pair_mask, pair_counts = _scalar_cascade(
            query, [candidate], keywords, gamma, alpha, **toggles)
        mask += pair_mask
        counts = [total + one for total, one in zip(counts, pair_counts)]
    return mask, tuple(counts)


@contextlib.contextmanager
def _pair_block(size):
    saved = pruning_module.PAIR_BLOCK
    pruning_module.PAIR_BLOCK = size
    try:
        yield
    finally:
        pruning_module.PAIR_BLOCK = saved


@pytest.mark.parametrize("count", [PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1])
def test_pair_kernel_matches_scalar_cascade_around_the_block_size(count):
    engine, config = _populated_engine()
    store = PackedStore()
    synopses = engine.grid.synopses()
    for synopsis in synopses:
        store.insert(synopsis)
    pairs, query_rows, candidate_rows = _pair_rows(store, synopses, count)
    # Several distinct queries share each block.
    assert len(set(query_rows[:PAIR_BLOCK].tolist())) > 5
    alive, topic, similarity, probability = batch_prune(
        query_rows, candidate_rows, keywords=config.keywords,
        gamma=config.gamma, alpha=config.alpha, store=store)
    mask, counts = _scalar_pairs(pairs, config.keywords, config.gamma,
                                 config.alpha)
    assert alive.tolist() == mask
    assert (topic, similarity, probability) == counts
    assert store.restacks == 0


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(record_strategy, min_size=3, max_size=7),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    toggles=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    block=st.integers(min_value=1, max_value=9),
)
def test_pair_kernel_identical_to_scalar_cascade(records, gamma, alpha,
                                                 toggles, block):
    use_topic, use_similarity, use_probability = toggles
    store = PackedStore()
    synopses = []
    for index, (symptom, diagnosis, extra) in enumerate(records):
        candidates = {"diagnosis": extra} if (extra and not diagnosis) else None
        synopses.append(_make_synopsis(index, symptom, diagnosis, candidates))
        store.insert(synopses[-1])
    count = len(synopses) * (len(synopses) - 1)
    pairs, query_rows, candidate_rows = _pair_rows(store, synopses, count)
    switches = dict(use_topic=use_topic, use_similarity=use_similarity,
                    use_probability=use_probability)
    with _pair_block(block):
        alive, topic, similarity, probability = batch_prune(
            query_rows, candidate_rows, keywords=KEYWORDS, gamma=gamma,
            alpha=alpha, store=store, **switches)
    mask, counts = _scalar_pairs(pairs, KEYWORDS, gamma, alpha, **switches)
    assert alive.tolist() == mask
    assert (topic, similarity, probability) == counts


# ---------------------------------------------------------------------------
# Theorem 4.3 lanes: the columnar pre-filter vs the scalar helper
# ---------------------------------------------------------------------------
#: Totals drawn from a coarse grid, so touching intervals (``lb == ub``
#: across the pair, zero gaps, zero spreads) are common, not measure-zero.
_grid_total = st.integers(min_value=0, max_value=8).map(lambda k: k / 4.0)
_totals = st.tuples(_grid_total, _grid_total, _grid_total).map(sorted).map(
    lambda t: (t[1], t[0], t[2]))  # (exp, lb, ub) with lb <= exp <= ub


@settings(max_examples=200, deadline=None)
@given(
    query=_totals,
    candidates=st.lists(_totals, min_size=1, max_size=12),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.0, max_value=1.0),
)
def test_probability_lanes_equal_scalar_bound(query, candidates, gamma,
                                              alpha):
    dimensionality = len(SCHEMA)
    count = len(candidates)

    def side(rows):
        """Kernel inputs that only Theorem 4.3 reads (the totals)."""
        lanes = len(rows)
        blank = np.zeros((lanes, dimensionality, 1))
        return (blank, blank, np.ones((lanes, dimensionality)),
                np.ones((lanes, dimensionality)),
                np.ones(lanes, dtype=bool), np.ones(lanes, dtype=np.int64),
                np.array(rows, dtype=float))

    alive, _, _, pruned = pruning_module.batch_prune_stacked(
        side([query]), side(candidates), count, frozenset(), gamma, alpha,
        use_topic=False, use_similarity=False)
    expected = [
        paley_zygmund_bound_from_totals(dimensionality - gamma, *query,
                                        *candidate) <= alpha
        for candidate in candidates
    ]
    assert (~alive).tolist() == expected
    assert pruned == sum(expected)


# ---------------------------------------------------------------------------
# Golden regression: vectorized kernel on, every refinement mode
# ---------------------------------------------------------------------------
def _golden(dataset):
    return json.loads(golden_path(dataset).read_text())["reference"]


@pytest.mark.parametrize("dataset,scale,seed,window", GOLDEN_WORKLOADS)
def test_vectorized_in_process_matches_seed_goldens(dataset, scale, seed,
                                                    window):
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    got = run_reference(
        lambda **kwargs: TERiDSEngine(
            executor=MicroBatchExecutor(batch_size=16, vectorized=True),
            **kwargs),
        workload, config)
    assert got == _golden(dataset)


@pytest.mark.parametrize("pool_mode", [POOL_PERSISTENT, POOL_PER_BATCH])
def test_vectorized_pooled_matches_seed_golden(pool_mode):
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    executor = MicroBatchExecutor(batch_size=16, max_workers=2,
                                  vectorized=True, pool_mode=pool_mode)
    try:
        got = run_reference(
            lambda **kwargs: TERiDSEngine(executor=executor, **kwargs),
            workload, config)
    finally:
        executor.close()
    assert got == _golden(dataset)


def test_scalar_pooled_matches_seed_golden():
    """The persistent pool is verdict-identical with the kernel off too."""
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    executor = MicroBatchExecutor(batch_size=16, max_workers=2,
                                  vectorized=False)
    try:
        got = run_reference(
            lambda **kwargs: TERiDSEngine(executor=executor, **kwargs),
            workload, config)
    finally:
        executor.close()
    assert got == _golden(dataset)


# ---------------------------------------------------------------------------
# Persistent pool: transport accounting + self-healing residency
# ---------------------------------------------------------------------------
def _transport_run(pool_mode, batch_size=16):
    workload = build_workload("citations", 0.5, 7)
    config = build_config(workload, 40)
    executor = MicroBatchExecutor(batch_size=batch_size, max_workers=2,
                                  pool_mode=pool_mode)
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=executor)
    report = engine.run(workload.interleaved_records())
    transport = engine.ctx.transport
    engine.close()
    return sorted(pair.key() for pair in report.matches), transport


def test_persistent_pool_ships_fewer_bytes_than_per_batch():
    per_batch_matches, per_batch = _transport_run(POOL_PER_BATCH)
    persistent_matches, persistent = _transport_run(POOL_PERSISTENT)
    assert persistent_matches == per_batch_matches
    assert per_batch.batches == persistent.batches > 0
    # Every batch re-ships the window in per-batch mode; the resident-store
    # protocol ships each synopsis roughly once.
    assert persistent.synopses_shipped < per_batch.synopses_shipped / 4
    assert (persistent.steady_state_bytes()
            < per_batch.steady_state_bytes() / 2)


def test_persistent_pool_repairs_residency_after_restore(tmp_path):
    """A restored engine re-ships re-built window synopses transparently."""
    dataset, scale, seed, window = "citations", 0.5, 7, 40
    split = 60

    reference_workload = build_workload(dataset, scale, seed)
    reference = TERiDSEngine(repository=reference_workload.repository,
                             config=build_config(reference_workload, window))
    reference_report = reference.run(reference_workload.interleaved_records())

    workload = build_workload(dataset, scale, seed)
    records = list(workload.interleaved_records())
    first = TERiDSEngine(repository=workload.repository,
                         config=build_config(workload, window))
    matches = []
    for record in records[:split]:
        matches.extend(first.process(record))
    path = tmp_path / "persistent.ckpt.json"
    first.save_checkpoint(path)

    executor = MicroBatchExecutor(batch_size=16, max_workers=2,
                                  pool_mode=POOL_PERSISTENT)
    resumed = TERiDSEngine(repository=workload.repository,
                           config=build_config(workload, window),
                           executor=executor)
    resumed.load_checkpoint(path)
    matches.extend(resumed.process_batch(records[split:]))
    resumed.close()
    assert (canonical_matches(matches)
            == canonical_matches(reference_report.matches))


def test_persistent_pool_matches_in_process_on_unvalidatable_record():
    """Worker-side rebuild must mirror pickle, not re-run validation.

    A record whose candidate map was emptied after construction is handled
    by ``RecordSynopsis.build`` everywhere in-process; the delta protocol
    rebuilds the imputed record in the worker and must tolerate (and agree
    on) the same state instead of dying in ``ImputedRecord.__init__``.
    """
    from repro.core.pruning import PruningStats as Stats
    from repro.runtime import PersistentRefinementPool, TupleTask

    record = Record(rid="q1", values={"symptom": "weight loss",
                                      "diagnosis": None}, source="s0")
    imputed = ImputedRecord(base=record, schema=SCHEMA,
                            candidates={"diagnosis": {"diabetes": 1.0}})
    imputed.candidates["diagnosis"] = {}
    query = RecordSynopsis.build(imputed, PIVOTS, KEYWORDS)
    candidates = [_make_synopsis(index, "weight loss blurred vision",
                                 "diabetes", None) for index in (1, 2, 3)]

    expected_stats = Stats()
    expected = evaluate_candidates(
        query, candidates, keywords=KEYWORDS, gamma=1.0, alpha=0.3,
        use_topic=True, use_similarity=True, use_probability=True,
        use_instance=True, stats=expected_stats, vectorized=True)

    task = TupleTask(record=record)
    task.synopsis = query
    task.candidates = candidates
    pool = PersistentRefinementPool(workers=1, params={
        "pivots": PIVOTS, "keywords": KEYWORDS, "gamma": 1.0, "alpha": 0.3,
        "use_topic": True, "use_similarity": True, "use_probability": True,
        "use_instance": True, "vectorized": True})
    try:
        verdicts, stats = pool.evaluate_batch([task], [(0, 0)], [])
    finally:
        pool.close()
    assert verdicts[0] == expected
    assert stats == expected_stats


def test_persistent_pool_rebinds_when_executor_is_reused():
    """Handing the executor to a second engine must not keep stale params.

    The pool freezes the pivot table and thresholds at creation; a second
    engine (different config/repository) must get a fresh pool, or its
    verdicts would silently use the first operator's parameters.
    """
    executor = MicroBatchExecutor(batch_size=16, max_workers=2)

    workload = build_workload("citations", 0.4, 7)
    first = TERiDSEngine(repository=workload.repository,
                         config=build_config(workload, 30), executor=executor)
    first.run(list(workload.interleaved_records())[:60])
    first_pool = executor._persistent_pool
    assert first_pool is not None

    dataset, scale, seed, window = GOLDEN_WORKLOADS[1]
    golden_workload = build_workload(dataset, scale, seed)
    config = build_config(golden_workload, window)
    got = run_reference(
        lambda **kwargs: TERiDSEngine(executor=executor, **kwargs),
        golden_workload, config)
    assert executor._persistent_pool is not first_pool
    executor.close()
    assert got == _golden(dataset)


def test_persistent_pool_tracks_residency_and_closes_idempotently():
    workload = build_workload("citations", 0.4, 7)
    config = build_config(workload, 30)
    executor = MicroBatchExecutor(batch_size=16, max_workers=2,
                                  pool_mode=POOL_PERSISTENT)
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=executor)
    engine.run(list(workload.interleaved_records())[:90])
    pool = executor._persistent_pool
    assert pool is not None
    # Residency is bounded by what is (or recently was) referenced from the
    # windows — it can never exceed the union of window capacities.
    assert 0 < pool.resident_count <= 2 * config.window_size
    engine.close()
    engine.close()
    assert executor._persistent_pool is None


# ---------------------------------------------------------------------------
# PackedStore mechanics
# ---------------------------------------------------------------------------
class TestPackedStore:
    def _synopses(self, count=5):
        return [_make_synopsis(index, "fever cough", "flu", None)
                for index in range(count)]

    def test_insert_gather_roundtrip(self):
        store = PackedStore()
        synopses = self._synopses()
        rows = [store.insert(s) for s in synopses]
        assert len(store) == len(synopses)
        for synopsis, row in zip(synopses, rows):
            assert store.row_for(synopsis) == row
            packed = ensure_packed(synopsis)
            assert np.array_equal(store.dist_lb[row], packed.dist_lb)
            assert np.array_equal(store.tok_max[row], packed.tok_max)

    def test_remove_recycles_rows(self):
        """A removed row is recycled at the next epoch, not before."""
        store = PackedStore()
        synopses = self._synopses()
        rows = [store.insert(s) for s in synopses]
        evicted = synopses[2]
        assert store.remove(evicted.rid, evicted.source)
        assert len(store) == len(synopses) - 1
        # Until the epoch turns, the batch in flight can still gather it.
        assert store.row_for(evicted) == rows[2]
        assert np.array_equal(store.dist_lb[rows[2]],
                              ensure_packed(evicted).dist_lb)
        newcomer = _make_synopsis(98, "sore throat", "cold", None)
        assert store.insert(newcomer) not in rows
        store.begin_epoch()
        assert store.row_for(evicted) is None
        replacement = _make_synopsis(99, "red eye", "conjunctivitis", None)
        assert store.insert(replacement) == rows[2]
        assert store.row_for(replacement) == rows[2]

    def test_row_for_requires_identity(self):
        """A re-built synopsis with the same key must not hit a stale row."""
        store = PackedStore()
        original = self._synopses(1)[0]
        store.insert(original)
        rebuilt = _make_synopsis(0, "fever cough", "flu", None)
        assert rebuilt.rid == original.rid
        assert store.row_for(original) is not None
        assert store.row_for(rebuilt) is None

    def test_growth_beyond_initial_capacity(self):
        store = PackedStore()
        synopses = [_make_synopsis(index, "fever", "flu", None)
                    for index in range(130)]
        for synopsis in synopses:
            store.insert(synopsis)
        assert len(store) == 130
        assert store.row_for(synopses[-1]) is not None


    def test_same_key_rearrival_keeps_the_superseded_row_until_the_epoch(self):
        store = PackedStore()
        original = self._synopses(1)[0]
        row = store.insert(original)
        rebuilt = _make_synopsis(0, "fever cough", "flu", None)
        assert store.insert(rebuilt) != row
        assert store.row_for(original) == row
        assert len(store) == 1
        assert not store.discard(original)  # superseded: nothing to remove
        assert len(store) == 1
        assert store.discard(rebuilt)
        assert len(store) == 0

    def test_reinserting_the_removed_object_moves_it_to_a_fresh_row(self):
        store = PackedStore()
        synopsis = self._synopses(1)[0]
        old_row = store.insert(synopsis)
        store.remove(synopsis.rid, synopsis.source)
        new_row = store.insert(synopsis)
        assert new_row != old_row and store.row_for(synopsis) == new_row
        store.begin_epoch()  # recycles old_row only
        assert store.row_for(synopsis) == new_row
        store.remove(synopsis.rid, synopsis.source)
        store.begin_epoch()
        assert store.row_for(synopsis) is None and len(store) == 0

    def test_evicted_id_cannot_alias_before_the_epoch(self):
        """The store keeps an evicted synopsis alive until ``begin_epoch``,
        so no new object can take its ``id()`` and hit its row."""
        store = PackedStore()
        evicted = self._synopses(1)[0]
        store.insert(evicted)
        store.remove(evicted.rid, evicted.source)
        stale_id = id(evicted)
        del evicted
        gc.collect()
        fresh = [_make_synopsis(100 + index, "fever", "flu", None)
                 for index in range(200)]
        assert stale_id not in {id(synopsis) for synopsis in fresh}
        assert all(store.row_for(synopsis) is None for synopsis in fresh)
        store.begin_epoch()
        assert stale_id not in store._rows_by_id


# ---------------------------------------------------------------------------
# Rows stay resident until the batch ends — and not longer
# ---------------------------------------------------------------------------
def _allocated_rows(store):
    """High-water mark of the rows a store ever handed out."""
    return len(store._objects)


def test_tiny_window_large_batch_evicts_inside_the_batch():
    """Window 5 under batches of 64: most candidates *and* queries are
    evicted before their batch's pairs are evaluated; every one must still
    be gathered from its row, and the output must equal the serial run."""
    dataset, scale, seed, _ = GOLDEN_WORKLOADS[0]
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, 5)
    serial = run_reference(
        lambda **kwargs: TERiDSEngine(executor=SerialExecutor(), **kwargs),
        workload, config)
    engines = []

    def factory(**kwargs):
        engines.append(TERiDSEngine(
            executor=MicroBatchExecutor(batch_size=64), **kwargs))
        return engines[-1]

    got = run_reference(factory, build_workload(dataset, scale, seed), config)
    assert got == serial
    assert got["pruning_stats"]["pairs_considered"] > 0
    assert engines[0].grid.packed_store.restacks == 0


def _stream_engine(executor, window=4):
    dataset, scale, seed, _ = GOLDEN_WORKLOADS[0]
    workload = build_workload(dataset, scale, seed)
    engine = TERiDSEngine(repository=workload.repository,
                          config=build_config(workload, window),
                          executor=executor)
    records = list(workload.interleaved_records())
    sources = {record.source for record in records}
    assert len(records) >= 10 * window * len(sources)
    return engine, records, window * len(sources)


def _shm_inline_executor(batch_size):
    executor = MicroBatchExecutor(batch_size=batch_size, max_workers=1,
                                  shard_lookup=True, shm_plane=True)
    executor._shm_inline = True
    return executor


@pytest.mark.parametrize("make_executor", [
    pytest.param(lambda batch: MicroBatchExecutor(batch_size=batch),
                 id="in-process"),
    pytest.param(_shm_inline_executor, id="shm", marks=pytest.mark.skipif(
        not HAS_SHM, reason="requires multiprocessing.shared_memory")),
])
def test_grid_store_stays_within_window_plus_one_batch(make_executor):
    batch = 16
    engine, records, window_total = _stream_engine(make_executor(batch))
    try:
        for start in range(0, len(records), batch):
            engine.process_batch(records[start:start + batch])
            store = engine.grid.packed_store
            assert len(store) <= window_total
            assert _allocated_rows(store) <= window_total + batch
        assert store.restacks == 0
    finally:
        engine.close()


def _sliding_stream(total, window, batch):
    """Synthetic count-based window over ``total`` arrivals, in batches of
    ``(synopsis, window contents it is evaluated against, synopsis its
    arrival evicts or None)``."""
    live = []
    synopses = [_make_synopsis(index, " ".join(WORDS[index % 7:index % 7 + 3]),
                               WORDS[index % 5], None)
                for index in range(total)]
    for start in range(0, total, batch):
        arrivals = []
        for synopsis in synopses[start:start + batch]:
            evicted = live.pop(0) if len(live) == window else None
            arrivals.append((synopsis, list(live), evicted))
            live.append(synopsis)
        yield arrivals


_WORKER_PARAMS = dict(pivots=PIVOTS, vectorized=True, keywords=KEYWORDS,
                      gamma=1.0, alpha=0.5, use_topic=True,
                      use_similarity=True, use_probability=True,
                      use_instance=True)


def _ship(arrivals, handles):
    """Fresh handles + the insertion deltas of one batch's arrivals."""
    insertions = []
    for synopsis, _, _ in arrivals:
        handles[id(synopsis)] = len(handles)
        insertions.append((handles[id(synopsis)], synopsis.record.base,
                           synopsis.record.candidates))
    return insertions


def test_persistent_pool_worker_store_stays_within_window_plus_one_batch():
    window, batch = 6, 16
    refiner = ResidentRefiner(_WORKER_PARAMS)
    handles = {}
    for arrivals in _sliding_stream(10 * window + 3, window, batch):
        insertions = _ship(arrivals, handles)
        orders = [(index, handles[id(query)],
                   [handles[id(candidate)] for candidate in candidates])
                  for index, (query, candidates, _) in enumerate(arrivals)]
        evictions = [handles[id(evicted)] for _, _, evicted in arrivals
                     if evicted is not None]
        _, stats, _ = refiner.handle(insertions, orders, evictions)
        assert stats.pairs_considered == sum(
            len(candidates) for _, candidates, _ in arrivals)
        assert len(refiner.packed) <= window
        assert _allocated_rows(refiner.packed) <= window + batch
    assert refiner.packed.restacks == 0


def test_sharded_replica_store_stays_within_window_plus_one_batch():
    window, batch = 6, 16
    shard = ResidentShard(dict(_WORKER_PARAMS, worker_count=1,
                               cells_per_dim=5), worker_id=0)
    handles = {}
    considered = 0
    for arrivals in _sliding_stream(10 * window + 3, window, batch):
        shard.apply_insertions(_ship(arrivals, handles))
        ops = [(index,
                [] if evicted is None else [(evicted.rid, evicted.source)],
                handles[id(synopsis)], 0)
               for index, (synopsis, _, evicted) in enumerate(arrivals)]
        _, stats, _ = shard.execute(ops)
        considered += stats.pairs_considered
        shard.retire([handles[id(evicted)] for _, _, evicted in arrivals
                      if evicted is not None])
        store = shard.grid.packed_store
        assert len(store) <= window
        assert _allocated_rows(store) <= window + batch
    assert considered > 0
    assert shard.grid.packed_store.restacks == 0


# ---------------------------------------------------------------------------
# Executor argument surface
# ---------------------------------------------------------------------------
def test_micro_batch_executor_validates_new_arguments():
    with pytest.raises(ValueError):
        MicroBatchExecutor(batch_size=4, pool_mode="bogus")
    executor = MicroBatchExecutor(batch_size=4)
    assert executor.vectorized is True  # numpy present in the test env
    assert MicroBatchExecutor(batch_size=4, vectorized=False).vectorized is False
