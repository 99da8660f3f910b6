"""Property-based tests (hypothesis) for the core invariants.

These cover the metric properties of the Jaccard distance, the soundness of
the similarity bounds against brute force and the imputed-record
probability-mass invariant — the invariants every pruning theorem of the
paper silently relies on.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pruning import RecordSynopsis, similarity_upper_bound
from repro.core.similarity import (
    jaccard_similarity,
    record_similarity,
    tokenize,
)
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
    CONSTRAINT_MISSING,
    AttributeConstraint,
    CDDRule,
)
from repro.imputation.imputer import combine_frequencies
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import PivotSelectionConfig, select_pivots, shannon_entropy

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
         "iota", "kappa", "fever", "cough", "diabetes", "flu", "thirst",
         "vision", "weight", "loss", "drug", "therapy"]

token_sets = st.frozensets(st.sampled_from(WORDS), max_size=8)
texts = st.lists(st.sampled_from(WORDS), min_size=0, max_size=8).map(" ".join)
nonempty_texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)

SCHEMA = Schema(attributes=("x", "y"))


def _candidate_distributions():
    values = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    return st.dictionaries(values, st.floats(0.05, 0.5), min_size=1, max_size=4).map(
        _normalise_distribution)


def _normalise_distribution(distribution):
    total = sum(distribution.values())
    if total > 1.0:
        return {value: probability / total
                for value, probability in distribution.items()}
    return distribution


# ---------------------------------------------------------------------------
# Jaccard similarity / distance
# ---------------------------------------------------------------------------
class TestJaccardProperties:
    @given(left=token_sets, right=token_sets)
    def test_similarity_in_unit_interval(self, left, right):
        assert 0.0 <= jaccard_similarity(left, right) <= 1.0

    @given(left=token_sets, right=token_sets)
    def test_symmetry(self, left, right):
        assert jaccard_similarity(left, right) == pytest.approx(
            jaccard_similarity(right, left))

    @given(tokens=token_sets)
    def test_identity(self, tokens):
        if tokens:
            assert jaccard_similarity(tokens, tokens) == 1.0
            assert 1.0 - jaccard_similarity(tokens, tokens) == 0.0

    @given(a=token_sets, b=token_sets, c=token_sets)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        """Jaccard distance is a metric; Lemma 4.2 depends on this."""
        assert 1.0 - jaccard_similarity(a, c) <= (
            (1.0 - jaccard_similarity(a, b))
            + (1.0 - jaccard_similarity(b, c)) + 1e-9)

    @given(text=texts)
    def test_tokenize_idempotent_on_rendered_tokens(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(sorted(tokens))) == tokens


# ---------------------------------------------------------------------------
# Record similarity
# ---------------------------------------------------------------------------
class TestRecordSimilarityProperties:
    @given(x1=texts, y1=texts, x2=texts, y2=texts)
    def test_bounded_by_dimensionality(self, x1, y1, x2, y2):
        left = Record(rid="l", values={"x": x1, "y": y1})
        right = Record(rid="r", values={"x": x2, "y": y2})
        score = record_similarity(left, right, SCHEMA)
        assert 0.0 <= score <= len(SCHEMA)

    @given(x=nonempty_texts, y=nonempty_texts)
    def test_self_similarity_is_dimensionality(self, x, y):
        record = Record(rid="r", values={"x": x, "y": y})
        assert record_similarity(record, record, SCHEMA) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Imputed records
# ---------------------------------------------------------------------------
class TestImputedRecordProperties:
    @given(distribution=_candidate_distributions())
    def test_instance_mass_never_exceeds_one(self, distribution):
        record = Record(rid="r", values={"x": "alpha", "y": None})
        imputed = ImputedRecord(base=record, schema=SCHEMA,
                                candidates={"y": distribution})
        total = sum(instance.probability for instance in imputed.instances())
        assert total <= 1.0 + 1e-6
        assert total > 0.0

    @given(distribution_x=_candidate_distributions(),
           distribution_y=_candidate_distributions())
    def test_cross_product_mass(self, distribution_x, distribution_y):
        record = Record(rid="r", values={"x": None, "y": None})
        imputed = ImputedRecord(base=record, schema=SCHEMA,
                                candidates={"x": distribution_x,
                                            "y": distribution_y})
        expected = (sum(distribution_x.values()) * sum(distribution_y.values()))
        total = sum(instance.probability for instance in imputed.instances())
        if len(distribution_x) * len(distribution_y) <= ImputedRecord.MAX_INSTANCES:
            assert total == pytest.approx(expected, rel=1e-6)
        else:
            assert total <= expected + 1e-9


# ---------------------------------------------------------------------------
# Pruning bound soundness
# ---------------------------------------------------------------------------
def _pivot_table():
    samples = [Record(rid=f"s{i}",
                      values={"x": WORDS[i % len(WORDS)],
                              "y": WORDS[(i * 3 + 1) % len(WORDS)]})
               for i in range(8)]
    repository = DataRepository(schema=SCHEMA, samples=samples)
    return select_pivots(repository, PivotSelectionConfig(buckets=4,
                                                          min_entropy=0.2,
                                                          max_pivots=2))


PIVOTS = _pivot_table()
KEYWORDS = frozenset({"diabetes"})


def _build_synopsis(rid, x, y_distribution, source):
    candidates = {}
    y_value = None
    if isinstance(y_distribution, str):
        y_value = y_distribution
    else:
        candidates = {"y": y_distribution}
    record = Record(rid=rid, values={"x": x, "y": y_value}, source=source)
    imputed = ImputedRecord(base=record, schema=SCHEMA, candidates=candidates)
    return RecordSynopsis.build(imputed, PIVOTS, KEYWORDS)


y_specs = st.one_of(nonempty_texts, _candidate_distributions())


class TestBoundSoundnessProperties:
    @given(x1=nonempty_texts, y1=y_specs, x2=nonempty_texts, y2=y_specs)
    @settings(max_examples=120, deadline=None)
    def test_similarity_upper_bound_dominates_all_instances(self, x1, y1, x2, y2):
        left = _build_synopsis("l", x1, y1, "s1")
        right = _build_synopsis("r", x2, y2, "s2")
        bound = similarity_upper_bound(left, right)
        for left_instance in left.record.instances():
            for right_instance in right.record.instances():
                actual = record_similarity(left_instance.record,
                                           right_instance.record, SCHEMA)
                assert actual <= bound + 1e-9


# ---------------------------------------------------------------------------
# CDD rule invariants (evolving repository, Section 5.5)
# ---------------------------------------------------------------------------
RULE_SCHEMA = Schema(attributes=("a", "b", "c"))


def _sub_intervals():
    """Valid ``[low, high]`` distance intervals with ``low < high``."""
    return st.tuples(st.floats(0.0, 0.8), st.floats(0.05, 0.2)).map(
        lambda pair: (round(pair[0], 3),
                      round(min(1.0, pair[0] + pair[1]), 3)))


def _dependent_intervals():
    """Valid dependent intervals (``low <= high`` is allowed)."""
    return st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda pair: (round(min(pair), 3), round(max(pair), 3)))


def _constraints(attribute):
    interval = _sub_intervals().map(
        lambda band: AttributeConstraint(attribute=attribute,
                                         kind=CONSTRAINT_INTERVAL,
                                         interval=band))
    constant = st.sampled_from(WORDS).map(
        lambda value: AttributeConstraint(attribute=attribute,
                                          kind=CONSTRAINT_CONSTANT,
                                          constant=value))
    missing = st.just(AttributeConstraint(attribute=attribute,
                                          kind=CONSTRAINT_MISSING))
    return st.one_of(interval, constant, missing)


def _cdd_rules():
    attributes = list(RULE_SCHEMA)

    def for_dependent(dependent_index):
        dependent = attributes[dependent_index]
        others = [name for name in attributes if name != dependent]
        return st.builds(
            lambda first, second, mask, interval, support: CDDRule(
                determinants=(tuple(constraint for constraint, keep
                                    in zip((first, second), mask) if keep)
                              or (first,)),
                dependent=dependent,
                dependent_interval=interval,
                support=support,
                rule_id="prop-rule"),
            first=_constraints(others[0]),
            second=_constraints(others[1]),
            mask=st.tuples(st.booleans(), st.booleans()),
            interval=_dependent_intervals(),
            support=st.integers(0, 20),
        )

    return st.integers(0, len(attributes) - 1).flatmap(for_dependent)


def _rule_records():
    values = st.one_of(st.none(), texts)
    return st.builds(
        lambda a, b, c, source: Record(rid=f"{source}-r",
                                       values={"a": a, "b": b, "c": c},
                                       source=source),
        a=values, b=values, c=values, source=st.sampled_from(["s1", "s2"]))


class TestCDDRuleProperties:
    @given(rule=_cdd_rules(), left=_rule_records(), right=_rule_records(),
           distance=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_widening_never_flips_satisfied_to_violated(self, rule, left,
                                                        right, distance):
        """``holds_for`` is monotone in the dependent interval.

        Widening the dependent interval to absorb one more distance (what
        a re-mine over a grown repository may do to a rule) never turns a
        pair that satisfied the rule into a violation.  (The converse flip
        — violated to satisfied — is allowed precisely *because* the
        repository changed.)
        """
        low, high = rule.dependent_interval
        widened = (min(low, distance), max(high, distance))
        maintained = CDDRule(determinants=rule.determinants,
                             dependent=rule.dependent,
                             dependent_interval=widened,
                             support=rule.support + 1,
                             rule_id=rule.rule_id)
        if rule.holds_for(left, right):
            assert maintained.holds_for(left, right)


class TestMiscellaneousProperties:
    @given(frequency_maps=st.lists(
        st.dictionaries(st.sampled_from(WORDS), st.integers(1, 5), max_size=4),
        max_size=4))
    def test_combined_frequencies_are_a_distribution(self, frequency_maps):
        combined = combine_frequencies(frequency_maps)
        if combined:
            assert sum(combined.values()) == pytest.approx(1.0)
            assert all(probability > 0 for probability in combined.values())
        else:
            assert all(not frequencies for frequencies in frequency_maps)

    @given(distances=st.lists(st.floats(0, 1), max_size=50),
           buckets=st.integers(2, 20))
    def test_entropy_bounds(self, distances, buckets):
        import math

        entropy = shannon_entropy(distances, buckets)
        assert 0.0 <= entropy <= math.log(buckets) + 1e-9
