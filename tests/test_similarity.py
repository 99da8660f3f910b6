"""Unit tests for tokenisation and the Jaccard similarity functions (Eq. (1))."""

import math

import pytest

from repro.core.similarity import (
    attribute_similarity,
    attribute_similarity_upper_bound,
    jaccard_similarity,
    record_similarity,
    size_bounded_similarity_upper,
    text_distance,
    text_similarity,
    tokenize,
)
from repro.core.tuples import Record, Schema


class TestTokenize:
    def test_simple_split(self):
        assert tokenize("loss of weight") == {"loss", "of", "weight"}

    def test_lower_cases(self):
        assert tokenize("Drug Therapy") == {"drug", "therapy"}

    def test_punctuation_is_separator(self):
        assert tokenize("fever, cough; chills") == {"fever", "cough", "chills"}

    def test_numbers_are_tokens(self):
        assert tokenize("sigmod 2021 paper") == {"sigmod", "2021", "paper"}

    def test_empty_string(self):
        assert tokenize("") == frozenset()

    def test_punctuation_only(self):
        assert tokenize("--- !!! ...") == frozenset()

    def test_duplicate_tokens_collapse(self):
        assert tokenize("more more more") == {"more"}

    def test_returns_frozenset(self):
        assert isinstance(tokenize("a b"), frozenset)


class TestJaccard:
    def test_identical_sets(self):
        tokens = tokenize("drug therapy")
        assert jaccard_similarity(tokens, tokens) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_similarity(tokenize("a b"), tokenize("c d")) == 0.0

    def test_half_overlap(self):
        left = frozenset({"a", "b"})
        right = frozenset({"b", "c"})
        assert jaccard_similarity(left, right) == pytest.approx(1 / 3)

    def test_empty_left_gives_zero(self):
        assert jaccard_similarity(frozenset(), tokenize("a")) == 0.0

    def test_both_empty_give_zero(self):
        assert jaccard_similarity(frozenset(), frozenset()) == 0.0

    def test_similarity_symmetry(self):
        left = tokenize("query index join")
        right = tokenize("index join storage")
        assert jaccard_similarity(left, right) == jaccard_similarity(right, left)

    def test_triangle_inequality_on_samples(self):
        a = "query optimizer join index"
        b = "join index storage"
        c = "storage warehouse engine"
        assert text_distance(a, c) <= (
            text_distance(a, b) + text_distance(b, c) + 1e-12)


class TestTextSimilarity:
    def test_text_similarity_matches_token_sets(self):
        assert text_similarity("drug therapy", "therapy drug") == 1.0

    def test_text_distance_complementary(self):
        assert text_distance("a b", "a c") == pytest.approx(
            1 - text_similarity("a b", "a c"))


class TestRecordSimilarity:
    schema = Schema(attributes=("x", "y"))

    def _record(self, rid, x, y):
        return Record(rid=rid, values={"x": x, "y": y})

    def test_identical_records(self):
        record = self._record("r1", "a b", "c d")
        assert record_similarity(record, record, self.schema) == pytest.approx(2.0)

    def test_completely_different_records(self):
        left = self._record("r1", "a b", "c d")
        right = self._record("r2", "e f", "g h")
        assert record_similarity(left, right, self.schema) == 0.0

    def test_missing_attribute_contributes_zero(self):
        left = self._record("r1", "a b", None)
        right = self._record("r2", "a b", "c d")
        assert record_similarity(left, right, self.schema) == pytest.approx(1.0)

    def test_score_bounded_by_dimensionality(self):
        left = self._record("r1", "a b", "c")
        right = self._record("r2", "a", "c d")
        score = record_similarity(left, right, self.schema)
        assert 0.0 <= score <= len(self.schema)

    def test_attribute_similarity(self):
        left = self._record("r1", "a b", "c")
        right = self._record("r2", "a b", "d")
        assert attribute_similarity(left, right, "x") == 1.0
        assert attribute_similarity(left, right, "y") == 0.0


class TestThresholdsAndBounds:
    def test_size_bounded_upper(self):
        assert size_bounded_similarity_upper(10, 8) == pytest.approx(0.8)

    def test_size_bounded_upper_caps_at_one(self):
        assert size_bounded_similarity_upper(5, 10) == 1.0

    def test_size_bounded_upper_zero_min(self):
        assert size_bounded_similarity_upper(0, 3) == 1.0

    def test_attribute_upper_bound_example5(self):
        # Example 5 of the paper: |T(r1[A])| = 10, |T(r2[A])| = 8 -> 0.8.
        assert attribute_similarity_upper_bound((10, 10), (8, 8)) == pytest.approx(0.8)

    def test_attribute_upper_bound_example5_attribute_c(self):
        # |T(r1[C])| in [5, 7], |T(r2[C])| in [10, 12] -> 7/10.
        assert attribute_similarity_upper_bound((5, 7), (10, 12)) == pytest.approx(0.7)

    def test_attribute_upper_bound_overlapping_sizes(self):
        assert attribute_similarity_upper_bound((3, 6), (5, 9)) == 1.0

    def test_attribute_upper_bound_is_valid_bound(self):
        # Real token sets of those sizes can never exceed the bound.
        left = tokenize("a b c d e f g h i j")     # 10 tokens
        right = tokenize("a b c d e f g h")        # 8 tokens
        bound = attribute_similarity_upper_bound((10, 10), (8, 8))
        assert jaccard_similarity(left, right) <= bound + 1e-12
