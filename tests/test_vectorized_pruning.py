"""Differential tests: the row pruning kernel and its packed store.

The contract under test is *identity*, not just safety: the columnar
:func:`~repro.core.pruning.batch_prune` kernel and
:func:`~repro.runtime.evaluation.evaluate_task_batch` above it must
reproduce the scalar oracle :meth:`PruningPipeline.evaluate_pair` —
survivor mask, verdicts, ``repr(probability)`` and all seven counters — for
arbitrary synopses (hypothesis) and on the golden workloads.
"""

import contextlib
import gc
import inspect
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from golden_utils import (
    GOLDEN_WORKLOADS,
    build_config,
    build_workload,
    decoded_token_rows,
    golden_path,
    instance_token_rows,
    run_reference,
)
from repro.core import pruning as pruning_module
from repro.core.engine import TERiDSEngine
from repro.core.matching import ter_ids_probability_with_cutoff
from repro.core.pruning import (
    PAIR_BLOCK,
    ROUND,
    VOCABULARY_FLOOR,
    PackedStore,
    PruningPipeline,
    PruningStats,
    RecordSynopsis,
    batch_prune,
    pack_synopsis,
)
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import (
    PivotSelectionConfig,
    PivotTable,
    select_pivots,
)
from repro.runtime import (
    MicroBatchExecutor,
    SerialExecutor,
    evaluate_task_batch,
)
from repro.runtime import evaluation as evaluation_module

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


def _make_synopsis(index, symptom, diagnosis, candidates, pivots=PIVOTS,
                   keywords=KEYWORDS):
    record = Record(rid=f"r{index}", values={"symptom": symptom or None,
                                             "diagnosis": diagnosis or None},
                    source=f"s{index % 2}")
    imputed = ImputedRecord(base=record, schema=SCHEMA,
                            candidates=candidates or {})
    return RecordSynopsis.build(imputed, pivots, keywords)


def _store_of(synopses):
    store = PackedStore()
    for synopsis in synopses:
        store.insert(synopsis)
    return store


def _items(synopses, count=None):
    """Every synopsis in turn as the query against all others — cut to the
    first ``count`` pairs — as ``(query, candidates)`` items."""
    pairs = [(query, candidate) for query in synopses
             for candidate in synopses if candidate is not query][:count]
    assert count is None or len(pairs) == count
    items = []
    for query, candidate in pairs:
        if not items or items[-1][0] is not query:
            items.append((query, []))
        items[-1][1].append(candidate)
    return items


def _evaluate(items, pruning, store):
    """:func:`evaluate_task_batch` over ``(query, candidate synopses)``
    items: the candidates go in as their ``store`` rows."""
    return evaluate_task_batch(
        [(query, store.rows_for(candidates)) for query, candidates in items],
        pruning, store)


def _assert_rows_equal_oracle(items, oracle, store):
    """Both entry points of the row cascade against ``oracle.evaluate_pair``
    pair by pair: verdicts, ``repr(probability)``, all seven counters, and
    the kernel's survivor mask and per-strategy counts.  Returns the number
    of survivors (pairs that reach Theorem 4.4)."""
    rows = replace(oracle, stats=PruningStats())
    got = _evaluate(items, rows, store)

    pairs = [(query, candidate) for query, candidates in items
             for candidate in candidates]
    stats = oracle.stats
    verdicts, alive = [], []
    for query, candidate in pairs:
        bound_pruned = stats.total_pruned - stats.pruned_by_instance
        verdicts.append(oracle.evaluate_pair(query, candidate))
        alive.append(stats.total_pruned - stats.pruned_by_instance
                     == bound_pruned)

    assert [len(verdicts) for verdicts in got] == [
        len(candidates) for _, candidates in items]
    assert [(is_match, repr(probability))
            for item in got for is_match, probability in item] == [
        (is_match, repr(probability)) for is_match, probability in verdicts]
    assert rows.stats == stats

    mask, topic, similarity = batch_prune(
        store.rows_for([query for query, _ in pairs]),
        store.rows_for([candidate for _, candidate in pairs]), oracle, store)
    assert mask.tolist() == alive
    assert (topic, similarity) == (stats.pruned_by_topic,
                                   stats.pruned_by_similarity)
    return sum(alive)


@contextlib.contextmanager
def _pair_block(size):
    saved = pruning_module.PAIR_BLOCK
    pruning_module.PAIR_BLOCK = size
    try:
        yield
    finally:
        pruning_module.PAIR_BLOCK = saved


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
toggles_strategy = st.tuples(st.booleans(), st.booleans(), st.booleans())


def _synopses(records):
    return [
        _make_synopsis(index, symptom, diagnosis,
                       {"diagnosis": extra} if (extra and not diagnosis)
                       else None)
        for index, (symptom, diagnosis, extra) in enumerate(records)
    ]


def _pipeline(keywords, gamma, alpha, toggles=(True, True, True)):
    use_topic, use_similarity, use_instance = toggles
    return PruningPipeline(keywords=keywords, gamma=gamma, alpha=alpha,
                           use_topic=use_topic, use_similarity=use_similarity,
                           use_instance=use_instance)


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(record_strategy, min_size=2, max_size=8),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    use_keywords=st.booleans(),
)
def test_vectorized_kernel_identical_to_scalar_cascade(records, gamma, alpha,
                                                       use_keywords):
    """One query against its whole candidate list."""
    synopses = _synopses(records)
    _assert_rows_equal_oracle(
        [(synopses[0], synopses[1:])],
        _pipeline(KEYWORDS if use_keywords else frozenset(), gamma, alpha),
        _store_of(synopses))


@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(record_strategy, min_size=2, max_size=6),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    toggles=toggles_strategy,
)
def test_vectorized_kernel_respects_strategy_toggles(records, gamma, alpha,
                                                     toggles):
    synopses = _synopses(records)
    _assert_rows_equal_oracle(
        [(synopses[0], synopses[1:])],
        _pipeline(KEYWORDS, gamma, alpha, toggles), _store_of(synopses))


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(record_strategy, min_size=3, max_size=7),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    toggles=toggles_strategy,
    block=st.integers(min_value=1, max_value=9),
)
def test_pair_kernel_identical_to_scalar_cascade(records, gamma, alpha,
                                                 toggles, block):
    """Many queries per kernel pass, in blocks of any size."""
    synopses = _synopses(records)
    with _pair_block(block):
        _assert_rows_equal_oracle(
            _items(synopses), _pipeline(KEYWORDS, gamma, alpha, toggles),
            _store_of(synopses))


# ---------------------------------------------------------------------------
# Theorem 4.1 first: only the lanes it keeps are gathered
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _gathered_lanes():
    """Lane counts of every ``gather_rows`` call made inside the block —
    two per kernel block, query side then candidate side."""
    lanes = []
    gather = pruning_module.gather_rows

    def counted_gather(store, index):
        lanes.append(len(index))
        return gather(store, index)

    pruning_module.gather_rows = counted_gather
    try:
        yield lanes
    finally:
        pruning_module.gather_rows = gather


def _assert_prune_equals_oracle(synopses, oracle, block=PAIR_BLOCK):
    """:func:`batch_prune` over every ordered pair of ``synopses`` against
    ``oracle.evaluate_pair``: survivor mask and the two bound counters.
    Runs with numpy warnings as errors; returns ``(pairs, lanes
    gathered)``."""
    pairs = [(query, candidate) for query in synopses
             for candidate in synopses if candidate is not query]
    store = _store_of(synopses)
    query_rows = store.rows_for([query for query, _ in pairs])
    candidate_rows = store.rows_for([candidate for _, candidate in pairs])
    stats = oracle.stats
    alive = []
    for query, candidate in pairs:
        bound_pruned = stats.total_pruned - stats.pruned_by_instance
        oracle.evaluate_pair(query, candidate)
        alive.append(stats.total_pruned - stats.pruned_by_instance
                     == bound_pruned)
    kernel = replace(oracle, stats=PruningStats())
    with _pair_block(block), _gathered_lanes() as lanes, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        mask, topic, similarity = batch_prune(
            query_rows, candidate_rows, kernel, store)
    assert mask.tolist() == alive
    assert (topic, similarity) == (stats.pruned_by_topic,
                                   stats.pruned_by_similarity)
    assert lanes[::2] == lanes[1::2]
    assert all(0 < count <= block for count in lanes)
    gathered = sum(lanes[1::2])
    if oracle.use_topic and oracle.keywords:
        assert gathered == np.count_nonzero(
            store.may_kw[query_rows] | store.may_kw[candidate_rows])
    else:
        assert gathered == len(pairs)
    assert topic == len(pairs) - gathered
    return len(pairs), gathered


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(record_strategy, min_size=2, max_size=7),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    use_topic=st.booleans(),
    use_keywords=st.booleans(),
    block=st.integers(min_value=1, max_value=9),
)
def test_topic_first_cascade_equals_the_oracle(records, gamma, alpha,
                                               use_topic, use_keywords,
                                               block):
    """Verdicts, counters and gathered lanes, in blocks of any size."""
    _assert_prune_equals_oracle(
        _synopses(records),
        _pipeline(KEYWORDS if use_keywords else frozenset(), gamma, alpha,
                  (use_topic, True, True)), block)


@pytest.mark.parametrize("block", [3, PAIR_BLOCK])
def test_a_fully_topic_pruned_batch_gathers_nothing(block):
    synopses = [_make_synopsis(index, "fever cough", "flu", None)
                for index in range(6)]
    pairs, gathered = _assert_prune_equals_oracle(
        synopses, _pipeline(KEYWORDS, 1.0, 0.5), block)
    assert (pairs, gathered) == (30, 0)


@pytest.mark.parametrize("block", [3, PAIR_BLOCK])
def test_a_batch_theorem_4_1_keeps_whole_gathers_every_lane(block):
    # Every tuple carries the keyword, so no pair is topic-pruned.
    synopses = [_make_synopsis(index, "thirst" if index % 2 else "fever",
                               "diabetes", None) for index in range(6)]
    pairs, gathered = _assert_prune_equals_oracle(
        synopses, _pipeline(KEYWORDS, 1.0, 0.5), block)
    assert (pairs, gathered) == (30, 30)


# ---------------------------------------------------------------------------
# Engine-populated window: kernel + store vs the oracle, pair for pair
# ---------------------------------------------------------------------------
def _populated_engine():
    workload = build_workload("citations", 0.4, 7)
    config = build_config(workload, 40)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    engine.run(list(workload.interleaved_records())[:120])
    return engine, _pipeline(config.keywords, config.gamma, config.alpha)


def test_kernel_with_resident_store_matches_scalar_on_window():
    """A store built beside the grid, one kernel call per query."""
    engine, oracle = _populated_engine()
    synopses = engine.grid.synopses()
    assert len(synopses) > 30
    store = _store_of(synopses)
    for query in synopses[:25]:
        _assert_rows_equal_oracle(
            [(query, [s for s in synopses if s is not query])],
            replace(oracle, stats=PruningStats()), store)


def test_evaluate_task_batch_verdicts_and_stats_match_scalar():
    """The whole-batch schedule (one blocked bound pass over the grid's own
    resident rows, then one refinement sweep) against the scalar oracle."""
    engine, oracle = _populated_engine()
    synopses = engine.grid.synopses()
    items = [(query, [s for s in synopses if s is not query])
             for query in synopses[:20]]
    _assert_rows_equal_oracle(items, oracle,
                              engine.grid.enable_packed_store())


@pytest.mark.parametrize("count", [PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1])
def test_pair_kernel_matches_scalar_cascade_around_the_block_size(count):
    engine, oracle = _populated_engine()
    items = _items(engine.grid.synopses(), count)
    # Several distinct queries share each block.
    assert len(items) > 5
    _assert_rows_equal_oracle(items, oracle,
                              _store_of(engine.grid.synopses()))


def test_evaluate_task_batch_takes_items_pruning_and_store():
    """The ER phase has no switch: nothing to select but the inputs."""
    assert list(inspect.signature(evaluate_task_batch).parameters) == [
        "items", "pruning", "store"]
    assert evaluate_task_batch([], _pipeline(KEYWORDS, 1.0, 0.5),
                               PackedStore()) == []


# ---------------------------------------------------------------------------
# Theorem 4.4 over the instance table: every survivor vs the oracle
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _refinement_calls():
    """Pair counts of every ``batch_refine`` call made inside the block."""
    lanes = []
    kernel = evaluation_module.batch_refine

    def counted_kernel(query_rows, candidate_rows, pruning, store):
        lanes.append(len(candidate_rows))
        return kernel(query_rows, candidate_rows, pruning, store)

    evaluation_module.batch_refine = counted_kernel
    try:
        yield lanes
    finally:
        evaluation_module.batch_refine = kernel


@contextlib.contextmanager
def _max_instances(cap):
    """``ImputedRecord.MAX_INSTANCES`` set to ``cap`` (kept when ``None``)."""
    saved = ImputedRecord.MAX_INSTANCES
    ImputedRecord.MAX_INSTANCES = cap or saved
    try:
        yield
    finally:
        ImputedRecord.MAX_INSTANCES = saved


def _is_single(synopsis):
    return len(synopsis.record.instances()) == 1


#: Refinement only: every pair reaches Theorem 4.4.
NO_BOUNDS = (False, False, True)

#: Values that collide often: empty, identical, disjoint and nested sets.
single_value_strategy = st.sampled_from(
    ("", "fever cough", "fever cough", "cough fever chills", "red eye",
     "diabetes", "weight loss diabetes", "flu", "thirst"))
single_record_strategy = st.tuples(
    single_value_strategy,
    single_value_strategy,
    # A missing diagnosis is left missing or imputed with one candidate.
    st.one_of(st.none(), st.tuples(
        st.sampled_from(("diabetes", "flu", "fever cough")),
        st.sampled_from((1.0, 0.9, 0.6, 0.5, 0.25)))),
)

#: Keyword sets a query may be made with: the synopses' own, ones absent
#: from every vocabulary, a mix, none.
query_keywords_strategy = st.sampled_from(
    (KEYWORDS, frozenset({"unseen"}), frozenset({"flu", "unseen"}),
     frozenset()))


@settings(max_examples=120, deadline=None)
@given(
    records=st.lists(single_record_strategy, min_size=2, max_size=7),
    gamma=st.sampled_from((0.1, 0.3, 0.5, 0.99, 1.0, 1.5)),
    alpha=st.sampled_from((0.05, 0.2, 0.25, 0.45, 0.5, 0.54, 0.81, 0.9)),
    keywords=query_keywords_strategy,
    toggles=toggles_strategy,
    block=st.integers(min_value=1, max_value=9),
)
def test_single_instance_pairs_never_leave_the_kernel(records, gamma, alpha,
                                                      keywords, toggles,
                                                      block):
    synopses = [
        _make_synopsis(index, symptom, diagnosis,
                       {"diagnosis": {imputed[0]: imputed[1]}}
                       if (imputed and not diagnosis) else None,
                       keywords=keywords)
        for index, (symptom, diagnosis, imputed) in enumerate(records)]
    assert all(_is_single(synopsis) for synopsis in synopses)
    with _pair_block(block), _refinement_calls() as lanes:
        survivors = _assert_rows_equal_oracle(
            _items(synopses), _pipeline(keywords, gamma, alpha, toggles),
            _store_of(synopses))
    assert lanes == [survivors]


#: Candidate distributions of an imputed attribute: two to four values from
#: a pool of nested, overlapping and disjoint sets (and the empty value), on
#: a coarse probability grid so equally likely instances are common.
distribution_strategy = st.dictionaries(
    st.sampled_from(("fever cough", "cough", "fever cough chills",
                     "diabetes", "weight loss diabetes", "flu", "red eye",
                     "")),
    st.sampled_from((0.05, 0.1, 0.125, 0.2, 0.25)),
    min_size=2, max_size=4)
#: Each attribute observed or imputed: both imputed makes up to 16
#: instances, so pairs run to 256 positions.
multi_record_strategy = st.tuples(
    st.one_of(single_value_strategy, distribution_strategy),
    st.one_of(single_value_strategy, distribution_strategy))


def _multi_synopsis(index, symptom, diagnosis):
    candidates = {name: value for name, value
                  in (("symptom", symptom), ("diagnosis", diagnosis))
                  if isinstance(value, dict)}
    return _make_synopsis(
        index, "" if isinstance(symptom, dict) else symptom,
        "" if isinstance(diagnosis, dict) else diagnosis, candidates)


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(multi_record_strategy, min_size=2, max_size=5),
    gamma=st.sampled_from((0.1, 0.3, 0.5, 0.99, 1.0, 1.5)),
    alpha=st.sampled_from((0.0, 0.05, 0.2, 0.25, 0.45, 0.5, 0.54, 0.81,
                           0.9)),
    keywords=query_keywords_strategy,
    use_bounds=st.booleans(),
    use_instance=st.booleans(),
    cap=st.sampled_from((None, None, 3, 9, 10)),
    block=st.integers(min_value=1, max_value=9),
)
def test_multi_instance_pairs_equal_the_oracle(records, gamma, alpha,
                                               keywords, use_bounds,
                                               use_instance, cap, block):
    """m × n pairs — a small ``MAX_INSTANCES`` leaves retained mass below
    one — through the one kernel, verdict for verdict."""
    toggles = (use_bounds, use_bounds, use_instance)
    with _max_instances(cap), _pair_block(block), \
            _refinement_calls() as lanes:
        synopses = [_multi_synopsis(index, *record)
                    for index, record in enumerate(records)]
        survivors = _assert_rows_equal_oracle(
            _items(synopses), _pipeline(keywords, gamma, alpha, toggles),
            _store_of(synopses))
    assert lanes == [survivors]


def _round_edges(positions):
    """First and last visit position of every ``batch_refine`` round of a
    pair with ``positions`` instance pairs."""
    edges, start, width = set(), 0, 1
    while start < positions:
        edges |= {start, min(start + width, positions) - 1}
        start, width = start + width, ROUND if start == 0 else 2 * width
    return sorted(edges)


def _uniform_multi(index, prefix):
    """Imputed on both attributes, four equally likely values each: 16
    instances of probability 1/16, so each instance pair weighs 1/256."""
    return _make_synopsis(index, "", "", {
        "symptom": {f"fever {prefix}{k}": 0.25 for k in range(4)},
        "diagnosis": {f"flu {prefix}{k}": 0.25 for k in range(4)}})


@pytest.mark.parametrize("accept", [True, False])
@pytest.mark.parametrize("stop", _round_edges(256))
def test_cut_off_on_every_round_edge(stop, accept):
    """The sums are exact in binary, so ``α`` puts the cut-off on any
    position: here on the first and the last of every round, the pair's
    very last one included (a rejection there is no instance pruning)."""
    left, right = _uniform_multi(0, "a"), _uniform_multi(1, "b")
    if accept:  # every instance pair matches
        keywords, alpha = frozenset(), (stop + 0.5) / 256
    else:  # none does: the unexplored mass alone decides
        keywords, alpha = frozenset({"unseen"}), 1 - (stop + 1) / 256
    _, is_match, checked = ter_ids_probability_with_cutoff(
        left.record, right.record, keywords, 0.1, alpha)
    assert (checked, is_match) == (stop + 1, accept)
    with _refinement_calls() as lanes:
        survivors = _assert_rows_equal_oracle(
            [(left, [right]), (right, [left])],
            _pipeline(keywords, 0.1, alpha, NO_BOUNDS),
            _store_of([left, right]))
    assert lanes == [survivors] == [2]


@pytest.mark.parametrize("count", [PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1])
def test_refine_kernel_matches_the_oracle_around_the_block_size(count):
    engine, oracle = _populated_engine()
    synopses = engine.grid.synopses()
    assert not all(_is_single(synopsis) for synopsis in synopses)
    oracle = replace(oracle, use_topic=False, use_similarity=False)
    with _refinement_calls() as lanes:
        _assert_rows_equal_oracle(_items(synopses, count), oracle,
                                  _store_of(synopses))
    assert lanes == [count]


def test_mixed_batch_maps_every_verdict_back_to_its_position():
    """Multi-instance pairs interleave with single ones: one kernel call
    takes every pair, and each verdict lands where the oracle puts it."""
    multi = {"diagnosis": {"diabetes": 0.4, "flu": 0.3}}
    synopses = [
        _make_synopsis(0, "weight loss thirst", "diabetes", None),
        _make_synopsis(1, "weight loss thirst", "", multi),
        _make_synopsis(2, "weight loss", "diabetes", None),
        _make_synopsis(3, "fever cough", "", multi),
        _make_synopsis(4, "weight loss thirst", "", {"diagnosis":
                                                    {"diabetes": 0.7}}),
        _make_synopsis(5, "fever cough", "flu", None),
    ]
    assert [_is_single(s) for s in synopses] == [True, False, True, False,
                                                 True, True]
    items = _items(synopses)
    with _refinement_calls() as lanes:
        _assert_rows_equal_oracle(items, _pipeline(KEYWORDS, 0.9, 0.3,
                                                   NO_BOUNDS),
                                  _store_of(synopses))
    pairs = [(query, candidate) for query, candidates in items
             for candidate in candidates]
    assert lanes == [len(pairs)]
    # Both kinds of pair produced matches, so the positions carried real
    # verdicts.
    got = _evaluate(items, _pipeline(KEYWORDS, 0.9, 0.3, NO_BOUNDS),
                    _store_of(synopses))
    flat = [verdict for item in got for verdict in item]
    for wanted in (True, False):
        assert any(is_match for (is_match, _), pair in zip(flat, pairs)
                   if (_is_single(pair[0]) and _is_single(pair[1])) is wanted)


def _entry_of(store, synopsis, instance=0):
    return int(store.inst_start[_row_of(store, synopsis)]) + instance


class TestTokenColumns:
    PIPELINE = staticmethod(lambda: _pipeline(KEYWORDS, 0.4, 0.5, NO_BOUNDS))

    def test_columns_decode_to_the_instance_tokens(self):
        synopses = [
            _make_synopsis(0, "fever cough", "flu", None),
            _make_synopsis(1, "", "", None),
            _make_synopsis(2, "red eye", "", {"diagnosis": {"flu": 0.6}}),
            _make_synopsis(3, "red eye", "", {"diagnosis": {"flu": 0.6,
                                                            "cold": 0.2}}),
        ]
        # Two imputed attributes: the probabilities multiply in the order
        # ``instances()`` multiplies them (the candidates', not the schema's).
        synopses.append(_make_synopsis(
            4, "", "", {"diagnosis": {"flu": 0.7}, "symptom": {"red": 0.1}}))
        synopses.append(_make_synopsis(
            5, "", "", {"diagnosis": {"flu": 0.3, "cold": 0.3},
                        "symptom": {"red eye": 0.5, "fever": 0.25}}))
        store = _store_of(synopses)
        # Every row's run, multi-instance ones too, decodes to the tokens and
        # probabilities of its instances, in ``instances()`` order.
        assert decoded_token_rows(store) == instance_token_rows(synopses)
        rows = store.rows_for(synopses)
        assert store.inst_count[rows].tolist() == [1, 1, 1, 2, 1, 4]
        assert store.inst_prob[store.inst_start[rows[[0, 1, 2, 4]]]].tolist(
        ) == [1.0, 1.0, 0.6, synopses[4].record.instances()[0].probability]
        assert store.inst_tokens.dtype == np.int32
        assert store.instance_rows == 10

    def test_a_wider_row_regrows_its_column_and_keeps_older_answers(self):
        synopses = [_make_synopsis(0, "fever cough", "flu", None),
                    _make_synopsis(1, "fever chills", "flu", None),
                    _make_synopsis(2, "red eye", "diabetes", None)]
        store = _store_of(synopses)
        before = _evaluate(_items(synopses), self.PIPELINE(), store)
        offsets = list(store.token_offsets)
        assert offsets == [0, 2, 3]
        wide = _make_synopsis(3, "fever cough chills weight loss thirst",
                              "diabetes flu", None)
        store.insert(wide)
        assert store.token_offsets == [0, 6, 8]
        assert decoded_token_rows(store) == instance_token_rows(
            synopses + [wide])
        assert _evaluate(_items(synopses), self.PIPELINE(), store) == before
        _assert_rows_equal_oracle(_items(synopses + [wide]), self.PIPELINE(),
                                  store)

    def test_a_recycled_row_keeps_nothing_of_a_wider_predecessor(self):
        wide = _make_synopsis(0, "fever cough chills weight loss", "flu", None)
        other = _make_synopsis(1, "fever cough chills", "flu", None)
        store = _store_of([wide, other])
        assert _entry_of(store, wide) == 0
        for synopsis in (wide, other):
            store.remove(synopsis.rid, synopsis.source)
        # Only garbage left: the epoch compacts the table to nothing, and
        # the next run is written over the wide one's entry.
        store.begin_epoch()
        assert store.instance_rows == 0
        narrow = _make_synopsis(2, "red", "", None)
        store.insert(narrow)
        store.insert(other)
        assert _entry_of(store, narrow) == 0
        width = store.token_offsets[-1]
        assert np.count_nonzero(
            store.inst_tokens[:, _entry_of(store, narrow)] >= 0) == 1 < width
        assert decoded_token_rows(store) == instance_token_rows(
            [other, narrow])
        _assert_rows_equal_oracle(_items([other, narrow]), self.PIPELINE(),
                                  store)

    def test_a_same_key_rearrival_answers_from_its_new_tokens(self):
        original = _make_synopsis(0, "fever cough", "flu", None)
        other = _make_synopsis(1, "red eye", "diabetes", None)
        store = _store_of([original, other])
        rebuilt = _make_synopsis(0, "red eye", "diabetes", None)
        store.insert(rebuilt)
        pipeline = self.PIPELINE()
        # The superseded object still answers from its own row this batch.
        assert _evaluate(
            [(original, [other]), (rebuilt, [other])], pipeline, store) == [
            [(False, 0.0)], [(True, 1.0)]]
        _assert_rows_equal_oracle([(original, [other]), (rebuilt, [other])],
                                  self.PIPELINE(), store)
        assert decoded_token_rows(store) == instance_token_rows(
            [rebuilt, other])


def test_vocabulary_is_bounded_by_the_window_not_the_stream():
    """5,000 tuples of all-distinct tokens through a window of 20: the
    vocabulary is re-encoded from the resident rows each time it outgrows
    the floor, and the kernel's answers equal the oracle's on both sides of
    every rebuild."""
    window, batch, tokens_per_tuple = 20, 10, 4
    bound = VOCABULARY_FLOOR + batch * tokens_per_tuple
    store = PackedStore()
    resident, rebuilds, checked = [], 0, 0
    for start in range(0, 5000, batch):
        size_before = len(store.vocabulary)
        store.begin_epoch()
        rebuilt = len(store.vocabulary) < size_before
        rebuilds += rebuilt
        if rebuilt:
            assert len(store.vocabulary) <= window * tokens_per_tuple
        for index in range(start, start + batch):
            # One shared token, so consecutive tuples are similar enough.
            synopsis = _make_synopsis(
                index, f"fever a{index // 2} b{index}", f"d{index}", None)
            store.insert(synopsis)
            resident.append(synopsis)
            if len(resident) > window:
                evicted = resident.pop(0)
                store.remove(evicted.rid, evicted.source)
        assert len(store.vocabulary) <= bound
        if rebuilt or len(store.vocabulary) + batch * tokens_per_tuple > \
                VOCABULARY_FLOOR:
            _assert_rows_equal_oracle(
                _items(resident[-6:]),
                _pipeline(frozenset(), 0.3, 0.5, NO_BOUNDS), store)
            assert decoded_token_rows(store) == instance_token_rows(resident)
            checked += 1
    assert rebuilds >= 3 and checked >= 2 * rebuilds


def test_instance_table_is_bounded_by_the_window_not_the_stream():
    """25 windows of multi-instance tuples: runs of evicted rows are
    garbage until the table compacts, so it never holds more than twice the
    live runs plus one batch's, and the answers stay the oracle's."""
    window, batch = 20, 10
    store = PackedStore()
    resident, compactions = [], 0
    for start in range(0, 25 * window, batch):
        before = store.instance_rows
        store.begin_epoch()
        compactions += store.instance_rows < before
        inserted = 0
        for index in range(start, start + batch):
            synopsis = _make_synopsis(index, f"fever a{index}", "", {
                "diagnosis": {f"flu b{index}": 0.5, "cough": 0.25,
                              f"d{index % 3}": 0.125}})
            store.insert(synopsis)
            inserted += len(synopsis.record.instances())
            resident.append(synopsis)
            if len(resident) > window:
                evicted = resident.pop(0)
                store.remove(evicted.rid, evicted.source)
        live = sum(len(synopsis.record.instances()) for synopsis in resident)
        assert store.instance_rows <= 2 * (live + inserted)
        if start % (2 * window) == 0:
            _assert_rows_equal_oracle(
                _items(resident[-5:]),
                _pipeline(frozenset(), 0.3, 0.4, NO_BOUNDS), store)
            assert decoded_token_rows(store) == instance_token_rows(resident)
    assert compactions >= 10
    assert store.inst_prob.shape[0] <= 4 * (window + batch) * 3


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
#: ``PackedStore`` columns, in the order :func:`pack_synopsis` lays a row out.
COLUMNS = ("dist_lb", "dist_ub", "tok_min", "tok_max", "may_kw", "limits")


def _row_of(store, synopsis):
    return int(store.rows_for([synopsis])[0])


def _resident(store, synopsis):
    try:
        store.rows_for([synopsis])
    except KeyError:
        return False
    return True


class TestPackedStore:
    def _synopses(self, count=5):
        return [_make_synopsis(index, "fever cough", "flu", None)
                for index in range(count)]

    def test_insert_gather_roundtrip(self):
        store = PackedStore()
        synopses = self._synopses()
        rows = [store.insert(s) for s in synopses]
        assert len(store) == len(synopses)
        assert store.rows_for(synopses).tolist() == rows
        for synopsis, row in zip(synopses, rows):
            for column, packed in zip(COLUMNS, pack_synopsis(synopsis)):
                assert np.array_equal(getattr(store, column)[row], packed)

    def test_remove_recycles_rows(self):
        """A removed row is recycled at the next epoch, not before."""
        store = PackedStore()
        synopses = self._synopses()
        rows = [store.insert(s) for s in synopses]
        evicted = synopses[2]
        assert store.remove(evicted.rid, evicted.source)
        assert len(store) == len(synopses) - 1
        # Until the epoch turns, the batch in flight can still gather it.
        assert _row_of(store, evicted) == rows[2]
        assert np.array_equal(store.dist_lb[rows[2]],
                              pack_synopsis(evicted)[0])
        newcomer = _make_synopsis(98, "sore throat", "cold", None)
        assert store.insert(newcomer) not in rows
        store.begin_epoch()
        assert not _resident(store, evicted)
        replacement = _make_synopsis(99, "red eye", "conjunctivitis", None)
        assert store.insert(replacement) == rows[2]
        assert _row_of(store, replacement) == rows[2]

    def test_rows_for_requires_identity(self):
        """A re-built synopsis with the same key must not hit a stale row."""
        store = PackedStore()
        original = self._synopses(1)[0]
        store.insert(original)
        rebuilt = _make_synopsis(0, "fever cough", "flu", None)
        assert rebuilt.rid == original.rid
        assert _resident(store, original)
        assert not _resident(store, rebuilt)

    def test_rows_for_a_non_resident_synopsis_raises_naming_its_key(self):
        """Rows outlive the batch that reads them, so absence is a bug in
        the caller — never a slower path."""
        store = _store_of(self._synopses(3))
        stranger = _make_synopsis(41, "fever", "flu", None)
        with pytest.raises(KeyError) as raised:
            store.rows_for(self._synopses(0) + [stranger])
        assert repr((stranger.rid, stranger.source)) in str(raised.value)

    def test_insert_of_a_foreign_shape_synopsis_raises(self):
        """One engine has one pivot table; a synopsis of another does not
        fit the store's ``(d, P)`` rows."""
        store = _store_of(self._synopses(2))
        wider = PivotTable(schema=SCHEMA, pivots={
            "symptom": ["fever cough", "red eye"],
            "diagnosis": ["flu", "diabetes"]})
        foreign = _make_synopsis(7, "fever", "flu", None, pivots=wider)
        assert pack_synopsis(foreign)[0].shape != store.dist_lb.shape[1:]
        with pytest.raises(ValueError, match="r7"):
            store.insert(foreign)
        assert len(store) == 2 and not _resident(store, foreign)

    def test_growth_beyond_initial_capacity(self):
        store = PackedStore()
        synopses = [_make_synopsis(index, "fever", "flu", None)
                    for index in range(130)]
        for synopsis in synopses:
            store.insert(synopsis)
        assert len(store) == 130
        assert _resident(store, synopses[-1])

    def test_same_key_rearrival_keeps_the_superseded_row_until_the_epoch(self):
        store = PackedStore()
        original = self._synopses(1)[0]
        row = store.insert(original)
        rebuilt = _make_synopsis(0, "fever cough", "flu", None)
        assert store.insert(rebuilt) != row
        assert _row_of(store, original) == row
        assert len(store) == 1
        store.begin_epoch()
        assert not _resident(store, original)
        assert _resident(store, rebuilt) and len(store) == 1

    def test_refreshing_a_row_turns_its_old_run_into_garbage(self):
        store = PackedStore()
        synopsis = _make_synopsis(0, "fever", "", {
            "diagnosis": {"flu": 0.5, "cold": 0.25}})
        row = store.insert(synopsis)
        assert [store.insert(synopsis) for _ in range(2)] == [row, row]
        assert store.instance_rows == 6
        store.begin_epoch()
        assert store.instance_rows == 2
        assert decoded_token_rows(store) == instance_token_rows([synopsis])

    def test_reinserting_the_removed_object_moves_it_to_a_fresh_row(self):
        store = PackedStore()
        synopsis = self._synopses(1)[0]
        old_row = store.insert(synopsis)
        store.remove(synopsis.rid, synopsis.source)
        new_row = store.insert(synopsis)
        assert new_row != old_row and _row_of(store, synopsis) == new_row
        store.begin_epoch()  # recycles old_row only
        assert _row_of(store, synopsis) == new_row
        store.remove(synopsis.rid, synopsis.source)
        store.begin_epoch()
        assert not _resident(store, synopsis) and len(store) == 0

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
        assert not any(_resident(store, synopsis) for synopsis in fresh)
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
