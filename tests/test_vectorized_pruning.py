"""Differential tests: the vectorized pruning kernel and its packed store.

The contract under test is *identity*, not just safety: the columnar
:func:`~repro.core.pruning.batch_prune` kernel must reproduce the scalar
cascade's survivor mask, per-strategy pruned counts, verdicts and
probabilities bit-for-bit, for arbitrary synopses (hypothesis) and on the
golden workloads.
"""

import contextlib
import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from golden_utils import (
    GOLDEN_WORKLOADS,
    build_config,
    build_workload,
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
    MicroBatchExecutor,
    SerialExecutor,
    evaluate_candidates,
    evaluate_pair_cached,
    evaluate_task_batch,
)

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


def test_evaluate_task_batch_verdicts_and_stats_match_scalar():
    """The whole-batch schedule (one blocked bound pass over the resident
    rows, then one refinement sweep) against the scalar cascade item by
    item."""
    engine, config = _populated_engine()
    synopses = engine.grid.synopses()
    store = engine.grid.enable_packed_store()
    items = [(query, [s for s in synopses if s is not query])
             for query in synopses[:20]]
    arguments = dict(keywords=config.keywords, gamma=config.gamma,
                     alpha=config.alpha, use_topic=True, use_similarity=True,
                     use_probability=True, use_instance=True)
    vector_stats = PruningStats()
    scalar_stats = PruningStats()
    vectorized = evaluate_task_batch(items, stats=vector_stats, store=store,
                                     **arguments)
    scalar = evaluate_task_batch(items, stats=scalar_stats, vectorized=False,
                                 **arguments)
    assert vectorized == scalar
    assert vector_stats == scalar_stats
    assert store.restacks == 0


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
# Golden regression: the vectorized micro-batch path
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
            executor=MicroBatchExecutor(batch_size=16),
            **kwargs),
        workload, config)
    assert got == _golden(dataset)


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


@pytest.mark.parametrize("make_executor", [
    pytest.param(lambda batch: MicroBatchExecutor(batch_size=batch),
                 id="in-process"),
    # Only opens epochs on a store an earlier micro-batch run enabled.
    pytest.param(lambda batch: SerialExecutor(), id="serial"),
])
def test_grid_store_stays_within_window_plus_one_batch(make_executor):
    """Both store owners open an epoch per batch, so evicted rows are
    recycled one batch later and the store never outgrows the window."""
    batch = 16
    engine, records, window_total = _stream_engine(make_executor(batch))
    store = engine.grid.enable_packed_store()
    for start in range(0, len(records), batch):
        engine.process_batch(records[start:start + batch])
        assert len(store) <= window_total
        assert _allocated_rows(store) <= window_total + batch
    assert store.restacks == 0
