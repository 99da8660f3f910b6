"""Stream-level possible-world oracle for the online operator.

At every batch boundary the maintained result set ``ES`` must hold exactly
the live cross-source pairs whose Equation (2) probability, computed by
enumerating every instance pair (:func:`~repro.core.matching.ter_ids_probability`),
exceeds ``α``.  The one statement covers the ER-grid lookup, the
Theorem 4.1 / 4.2 bound cascade, the Theorem 4.4 cut-off and the result-set
maintenance, under both executors, and it is measured against the paper's
semantics rather than against the engine's own earlier output.

Pairs whose exact probability lies within :data:`BAND` of ``α`` are left out
on both sides: summation order may move such a pair across the threshold.
"""

from __future__ import annotations

import itertools
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro import MicroBatchExecutor, SerialExecutor, TERiDSConfig, TERiDSEngine
from repro.core.matching import ter_ids_probability
from repro.datasets.synthetic import generate_dataset

#: Tolerance band around ``α`` for the floating-point summation order.
BAND = 1e-9

DATASETS = ("citations", "anime", "songs")
EXECUTORS = ("serial", 1, 7)


def _executor(kind):
    return SerialExecutor() if kind == "serial" else MicroBatchExecutor(kind)


def _pair_key(left, right):
    a, b = (left.source, left.rid), (right.source, right.rid)
    return (a, b) if a <= b else (b, a)


def _check_boundary(engine, config, exact, seen):
    """Compare ``ES`` with the exact answer over the grid's live tuples.

    ``exact`` memoises Eq. (2) per pair of imputed-record objects across the
    boundaries of one run; it keeps the objects alive, so their ids stay
    unique.
    """
    residents = engine.grid.synopses()
    expected, banded = set(), set()
    for left, right in itertools.combinations(residents, 2):
        if left.source == right.source:
            continue
        memo_key = (id(left.record), id(right.record))
        if memo_key not in exact:
            exact[memo_key] = (left.record, right.record, ter_ids_probability(
                left.record, right.record, config.keywords, config.gamma))
        probability = exact[memo_key][2]
        key = _pair_key(left, right)
        if abs(probability - config.alpha) <= BAND:
            banded.add(key)
        elif probability > config.alpha:
            expected.add(key)
    maintained = {pair.key() for pair in engine.current_matches()}
    assert maintained - banded == expected, (
        f"missing {sorted(expected - maintained)}, "
        f"spurious {sorted(maintained - banded - expected)}")
    multi = {(synopsis.source, synopsis.rid) for synopsis in residents
             if len(synopsis.record.instances()) > 1}
    seen["boundaries"] += 1
    seen["es_pairs"] += len(maintained)
    seen["multi_instance"] += len(multi)
    seen["es_pairs_multi_instance"] += sum(
        left in multi or right in multi for left, right in maintained)


def test_result_set_equals_exact_possible_world_answer():
    seen = Counter()

    @settings(max_examples=36, deadline=None, derandomize=True,
              database=None)
    @given(dataset=st.sampled_from(DATASETS),
           seed=st.integers(0, 40),
           missing_rate=st.sampled_from((0.3, 0.6)),
           missing_attributes=st.sampled_from((1, 2)),
           rho=st.sampled_from((0.5, 0.9)),
           alpha=st.sampled_from((0.1, 0.3, 0.5, 0.8)),
           window=st.integers(2, 12),
           length=st.integers(10, 70),
           kind=st.sampled_from(EXECUTORS))
    def check(dataset, seed, missing_rate, missing_attributes, rho, alpha,
              window, length, kind):
        workload = generate_dataset(dataset, missing_rate=missing_rate,
                                    missing_attributes=missing_attributes,
                                    scale=0.5, seed=seed)
        config = TERiDSConfig(schema=workload.schema,
                              keywords=workload.keywords, alpha=alpha,
                              similarity_ratio=rho, window_size=window)
        seen[kind] += 1
        executor = _executor(kind)
        engine = TERiDSEngine(repository=workload.repository, config=config,
                              executor=executor)
        records = workload.interleaved_records()[:length]
        step = executor.batch_size
        exact = {}
        for start in range(0, len(records), step):
            engine.process_batch(records[start:start + step])
            _check_boundary(engine, config, exact, seen)

    check()
    # Non-vacuous: answers were maintained, multi-instance tuples were
    # resident, and some answers had a multi-instance endpoint.
    assert seen["boundaries"] > 100, seen
    assert seen["es_pairs"] > 0, seen
    assert seen["multi_instance"] > 0, seen
    assert seen["es_pairs_multi_instance"] > 0, seen
    assert all(seen[kind] for kind in EXECUTORS), seen
