"""Equivalence of the columnar imputation path with its scalar reference.

The batched runtime answers "which repository samples satisfy this rule"
from the DR-index's packed table and ``cand(s[A_j])`` from a columnar
domain scan.  Both must be *identical* — not close — to the scalar
retrieve-then-verify path, including sample order (it fixes dict insertion
order and float summation order downstream) and the scanned/matched counts
pinned by the golden fixtures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_utils import (
    EVOLVING_HOLDOUT_FRACTION,
    EVOLVING_PHASES,
    EVOLVING_WORKLOAD,
    GOLDEN_WORKLOADS,
    build_config,
    build_workload,
)
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.similarity import (
    jaccard_distance_column,
    text_distance,
    token_postings,
    tokenize,
)
from repro.core.tuples import Record
from repro.datasets.synthetic import generate_dataset
from repro.experiments.harness import run_evolving_stream, split_repository
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
    CONSTRAINT_MISSING,
    AttributeConstraint,
    CDDRule,
    discover_cdd_rules,
)
from repro.imputation.imputer import (
    CDDImputer,
    candidate_set_for_sample,
    candidate_set_from_columns,
)
from repro.indexes.dr_index import DRIndex
from repro.indexes.pivots import select_pivots
from repro.runtime import MicroBatchExecutor, SerialExecutor

#: Small vocabulary so random values collide, nest and stay disjoint often;
#: the non-word entries tokenise to the empty set.
_WORDS = ("fever", "cough", "loss", "of", "weight", "thirst", "b12", "x")
_VALUES = st.one_of(
    st.sampled_from(["", "!!!", "- -", "fever", "Fever  FEVER"]),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join),
)


# ---------------------------------------------------------------------------
# (i) the kernel
# ---------------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(query=_VALUES, column=st.lists(_VALUES, max_size=25))
def test_distance_column_equals_text_distance(query, column):
    column = column + [query]  # always one identical value
    distances = jaccard_distance_column(tokenize(query),
                                        *token_postings(column))
    assert distances.tolist() == [text_distance(query, value)
                                  for value in column]


def test_distance_column_on_an_empty_column():
    assert jaccard_distance_column(tokenize("fever"),
                                   *token_postings([])).tolist() == []


# ---------------------------------------------------------------------------
# (iii) cand(s[A_j])
# ---------------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(sample_value=_VALUES,
       domain=st.lists(_VALUES, max_size=30, unique=True),
       low=st.sampled_from([0.0, 0.2, 0.5]),
       width=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       cap=st.integers(min_value=1, max_value=12))
def test_columnar_candidate_set_equals_scalar(sample_value, domain, low,
                                              width, cap):
    interval = (low, min(1.0, low + width))
    expected = candidate_set_for_sample(sample_value, domain, interval, cap)
    got = candidate_set_from_columns(sample_value, domain,
                                     *token_postings(domain), interval, cap)
    assert got == expected


def test_columnar_candidate_set_tie_order_and_cap():
    # Every value is at distance 0.5 from the sample: value order decides.
    domain = [f"flu {word}" for word in ("zeta", "alpha", "mid", "beta")]
    columns = token_postings(domain)
    for cap in (1, 3, 12):
        expected = candidate_set_for_sample("flu", domain, (0.0, 1.0), cap)
        assert expected == sorted(domain)[:cap]
        assert candidate_set_from_columns("flu", domain, *columns,
                                          (0.0, 1.0), cap) == expected


# ---------------------------------------------------------------------------
# (ii) the packed probe against candidate_samples + matches_sample
# ---------------------------------------------------------------------------
def _oracle(dr_index, record, rule):
    candidates = dr_index.candidate_samples(record, rule)
    return len(candidates), [sample for sample in candidates
                             if rule.matches_sample(record, sample)]


def _assert_probe_equals_oracle(dr_index, records, rules):
    matched_total = 0
    for record in records:
        for rule in rules:
            scanned, matched = dr_index.matching_samples(record, rule)
            expected_scanned, expected = _oracle(dr_index, record, rule)
            assert scanned == expected_scanned, rule.describe()
            assert len(matched) == len(expected), rule.describe()
            assert all(got is want for got, want in zip(matched, expected)), \
                rule.describe()
            matched_total += len(matched)
    return matched_total


def _handmade_rules(repository):
    """Constraint shapes the miner does not (or rarely) emits."""
    schema = list(repository.schema)
    first, second, dependent = schema[0], schema[1], schema[2]
    constant = repository.samples[0][first]
    return [
        # ``missing`` + interval
        CDDRule(determinants=(
            AttributeConstraint(first, CONSTRAINT_MISSING),
            AttributeConstraint(second, CONSTRAINT_INTERVAL,
                                interval=(0.0, 0.6))),
            dependent=dependent, dependent_interval=(0.0, 0.5)),
        # only ``missing``: every sample qualifies
        CDDRule(determinants=(AttributeConstraint(first, CONSTRAINT_MISSING),),
                dependent=dependent, dependent_interval=(0.0, 0.5)),
        # constant + interval with a non-zero lower bound
        CDDRule(determinants=(
            AttributeConstraint(first, CONSTRAINT_CONSTANT, constant=constant),
            AttributeConstraint(second, CONSTRAINT_INTERVAL,
                                interval=(0.2, 0.8))),
            dependent=dependent, dependent_interval=(0.0, 0.5)),
        # a constant no sample takes
        CDDRule(determinants=(
            AttributeConstraint(first, CONSTRAINT_CONSTANT,
                                constant="no such value"),),
            dependent=dependent, dependent_interval=(0.0, 0.5)),
    ]


def _health_records(repository):
    records = [
        Record("q1", {"gender": "male", "symptom": "loss of weight blurred vision",
                      "diagnosis": None, "treatment": None}),
        Record("q2", {"gender": "female", "symptom": "fever cough",
                      "diagnosis": None, "treatment": "rest"}),
        Record("q3", {"gender": "male", "symptom": None,  # missing determinant
                      "diagnosis": None, "treatment": "drug therapy"}),
        Record("q4", {"gender": "no such value", "symptom": "!!!",
                      "diagnosis": "flu", "treatment": None}),
        Record("q5", {}),
    ]
    # Records equal to repository samples: identical values, distance 0.
    return records + [Record(f"copy-{sample.rid}", sample.values)
                      for sample in repository.samples[:3]]


def test_probe_equals_oracle_on_health(health_repository, health_pivots):
    dr_index = DRIndex(health_repository, health_pivots)
    rules = discover_cdd_rules(health_repository) \
        + _handmade_rules(health_repository)
    kinds = {constraint.kind for rule in rules
             for constraint in rule.determinants}
    assert kinds == {CONSTRAINT_CONSTANT, CONSTRAINT_INTERVAL,
                     CONSTRAINT_MISSING}
    assert _assert_probe_equals_oracle(
        dr_index, _health_records(health_repository), rules) > 0
    assert dr_index.packed_probes > 0


@pytest.fixture(scope="module")
def citations_workload():
    """102 repository samples."""
    return generate_dataset("citations", missing_rate=0.3, scale=2.0, seed=11)


def _incomplete_records(workload, count):
    schema = workload.repository.schema
    return [record for record in workload.interleaved_records()
            if not record.is_complete(schema)][:count]


def test_probe_equals_oracle_on_citations(citations_workload):
    repository = citations_workload.repository
    dr_index = DRIndex(repository, select_pivots(repository))
    rules = discover_cdd_rules(repository) + _handmade_rules(repository)
    assert _assert_probe_equals_oracle(
        dr_index, _incomplete_records(citations_workload, 8), rules) > 0


def test_probe_on_an_empty_repository(health_schema, health_pivots,
                                      simple_cdd_rule,
                                      incomplete_health_record):
    from repro.imputation.repository import DataRepository

    dr_index = DRIndex(DataRepository(schema=health_schema), health_pivots)
    assert dr_index.matching_samples(incomplete_health_record,
                                     simple_cdd_rule) == (0, [])


# ---------------------------------------------------------------------------
# Invalidation on repository growth (Section 5.5)
# ---------------------------------------------------------------------------
def test_probe_follows_index_growth(citations_workload):
    """Insertions grow the repository; the table must follow."""
    repository = citations_workload.repository
    base, holdout = split_repository(repository, 0.5)
    dr_index = DRIndex(base, select_pivots(repository))
    rules = discover_cdd_rules(repository)[::7]
    incomplete = _incomplete_records(citations_workload, 4)
    _assert_probe_equals_oracle(dr_index, incomplete, rules)
    for sample in holdout:
        dr_index.insert_sample(sample)
        # Probing between insertions keeps a table alive to go stale.
        _assert_probe_equals_oracle(dr_index, incomplete[:1], rules[:5])
    assert len(dr_index) == len(repository)
    _assert_probe_equals_oracle(dr_index, incomplete, rules)


def test_domain_columns_follow_domain_growth(health_repository, health_pivots):
    rules = discover_cdd_rules(health_repository)
    dr_index = DRIndex(health_repository, health_pivots)
    packed = CDDImputer(repository=health_repository, rules=rules,
                        sample_retriever=dr_index.make_retriever())
    packed.packed_index = dr_index
    scalar = CDDImputer(repository=health_repository, rules=rules,
                        sample_retriever=dr_index.make_retriever())
    record = Record("q", {"gender": "male", "symptom": "thirst weight loss",
                          "diagnosis": None, "treatment": None})

    def compare():
        for attribute in ("diagnosis", "treatment"):
            got = packed.candidate_distribution(record, attribute)
            want = scalar.candidate_distribution(record, attribute)
            assert list(got.items()) == list(want.items())
        assert packed.stats.as_dict() == scalar.stats.as_dict()

    compare()
    dr_index.insert_sample(Record("new", {
        "gender": "male", "symptom": "thirst weight loss fatigue",
        "diagnosis": "diabetes type two", "treatment": "insulin pump"},
        source="repository"))
    compare()


# ---------------------------------------------------------------------------
# (iv) end to end: SerialExecutor (scalar) vs MicroBatchExecutor (packed)
# ---------------------------------------------------------------------------
def _record_imputations(engine):
    """Capture every ImputedRecord's candidates, keys in order, exact reprs."""
    seen = []
    stage = engine.pipeline.imputation
    impute = stage.impute

    def recording(record, selected_rules):
        imputed = impute(record, selected_rules)
        seen.append((record.source, record.rid,
                     [(attribute, [(value, repr(probability))
                                   for value, probability in values.items()])
                      for attribute, values in imputed.candidates.items()]))
        return imputed

    stage.impute = recording
    return seen


def _run_both(make_engine, drive):
    outcomes = []
    for executor in (SerialExecutor(), MicroBatchExecutor(batch_size=16)):
        engine = make_engine(executor)
        seen = _record_imputations(engine)
        drive(engine)
        outcomes.append((seen, engine.imputer.stats.as_dict(),
                         engine.dr_index.packed_probes))
        engine.close()
    (serial_seen, serial_stats, serial_packed), \
        (batch_seen, batch_stats, batch_packed) = outcomes
    assert batch_seen == serial_seen
    assert batch_stats == serial_stats
    assert serial_stats["samples_matched"] > 0
    # Which path ran is answerable from the packed-probe counter.
    assert serial_packed == 0
    assert batch_packed > 0


@pytest.mark.parametrize("dataset,scale,seed,window", GOLDEN_WORKLOADS)
def test_executors_impute_identically_on_goldens(dataset, scale, seed, window):
    def make_engine(executor):
        workload = build_workload(dataset, scale, seed)
        engine = TERiDSEngine(repository=workload.repository,
                              config=build_config(workload, window),
                              executor=executor)
        engine.stream = workload.interleaved_records()
        return engine

    _run_both(make_engine, lambda engine: engine.run(engine.stream))


def test_executors_impute_identically_on_evolving_golden():
    """Explicit ``add_repository_samples`` between stream phases."""
    dataset, scale, seed, window = EVOLVING_WORKLOAD
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    holdout = split_repository(workload.repository,
                               EVOLVING_HOLDOUT_FRACTION)[1]
    records = list(workload.interleaved_records())

    def make_engine(executor):
        # Each engine grows its own copy of the base repository.
        repository = split_repository(workload.repository,
                                      EVOLVING_HOLDOUT_FRACTION)[0]
        return TERiDSEngine(repository=repository, config=config,
                            executor=executor)

    _run_both(make_engine,
              lambda engine: run_evolving_stream(engine, records, holdout,
                                                 phases=EVOLVING_PHASES))


def test_executors_impute_identically_while_absorbing_stream_tuples():
    """The repository grows from the complete stream tuples after every
    batch, through ``add_repository_samples``."""
    def make_engine(executor):
        workload = build_workload("citations", 0.3, 11)
        config = TERiDSConfig(schema=workload.schema,
                              keywords=workload.keywords, alpha=0.5,
                              similarity_ratio=0.5, window_size=30)
        engine = TERiDSEngine(repository=workload.repository, config=config,
                              executor=executor)
        engine.stream = list(workload.interleaved_records())
        engine.repository_size_before = len(workload.repository)
        return engine

    def drive(engine):
        # What an IngestDriver ``on_batch`` hook would do after every batch;
        # same chunks under both executors, so both grow at the same points.
        for start in range(0, len(engine.stream), 16):
            chunk = engine.stream[start:start + 16]
            engine.process_batch(chunk)
            engine.add_repository_samples(
                record for record in chunk
                if record.is_complete(engine.schema))
        assert len(engine.repository) > engine.repository_size_before

    _run_both(make_engine, drive)


def test_swapped_in_imputer_stays_on_the_scalar_path(health_repository,
                                                     health_config):
    """The packed probe stands in for the DR-index retriever only: an
    imputer that retrieves some other way keeps its own sample order."""
    engine = TERiDSEngine(repository=health_repository, config=health_config,
                          executor=MicroBatchExecutor(batch_size=4))
    engine.imputer = CDDImputer(repository=health_repository,
                                rules=engine.rules)  # scans the repository
    engine.process_batch([Record("a1", {
        "gender": "male", "symptom": "thirst weight loss", "diagnosis": None,
        "treatment": "insulin"}, source="stream-a")])
    assert engine.imputer.packed_index is None
    assert engine.dr_index.packed_probes == 0
    assert engine.imputer.stats.samples_scanned > 0
