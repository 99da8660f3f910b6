"""Tokenisation and Jaccard similarity / distance (Definition 5, Eq. (1)).

All attribute values in the paper are textual.  The similarity between two
complete tuples is the *sum* over all ``d`` attributes of the Jaccard
similarity between the attributes' token sets, so the score lies in
``[0, d]``.  The Jaccard *distance* ``1 - sim`` on token sets is a metric and
obeys the triangle inequality, which the pivot-based pruning (Lemma 4.2)
relies on.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.tuples import Record, Schema

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


@lru_cache(maxsize=200_000)
def tokenize(text: str) -> frozenset:
    """Split a textual attribute value into its lower-case token set.

    Tokens are maximal alphanumeric runs; the empty string or a value made of
    punctuation only yields the empty set.  The result is cached because the
    streaming engine re-tokenises the same repository values many times.
    """
    if not text:
        return frozenset()
    return frozenset(_TOKEN_PATTERN.findall(text.lower()))


def jaccard_similarity(left: frozenset, right: frozenset) -> float:
    """Jaccard similarity ``|L ∩ R| / |L ∪ R|`` between two token sets.

    Two empty sets are defined to have similarity 0 (the paper's missing
    attributes contribute nothing to the score).
    """
    if not left or not right:
        return 0.0
    if left is right:
        return 1.0
    intersection = len(left & right)
    if intersection == 0:
        return 0.0
    union = len(left) + len(right) - intersection
    return intersection / union


def text_similarity(left: str, right: str) -> float:
    """Jaccard similarity between the token sets of two strings."""
    return jaccard_similarity(tokenize(left), tokenize(right))


def text_distance(left: str, right: str) -> float:
    """Jaccard distance between the token sets of two strings."""
    return 1.0 - text_similarity(left, right)


def attribute_similarity(left: "Record", right: "Record", attribute: str) -> float:
    """Per-attribute Jaccard similarity ``sim(r[A_j], r'[A_j])``."""
    return jaccard_similarity(left.tokens(attribute), right.tokens(attribute))


def record_similarity(left: "Record", right: "Record", schema: "Schema") -> float:
    """Tuple similarity Eq. (1): sum of per-attribute Jaccard similarities.

    The value lies in ``[0, d]`` where ``d`` is the schema dimensionality.
    Missing attributes contribute 0 (their token set is empty).
    """
    return sum(
        jaccard_similarity(left.tokens(name), right.tokens(name))
        for name in schema
    )


def size_bounded_similarity_upper(min_size_small: int, max_size_large: int) -> float:
    """Upper bound of Jaccard similarity given token-set size bounds.

    Lemma 4.1: when the smaller set has at most ``max_size_large`` tokens and
    the larger set has at least ``min_size_small`` tokens the similarity is at
    most ``max_size_large / min_size_small``.
    """
    if min_size_small <= 0:
        return 1.0
    return min(1.0, max_size_large / min_size_small)


def attribute_similarity_upper_bound(
    left_bounds: Tuple[int, int], right_bounds: Tuple[int, int]
) -> float:
    """Lemma 4.1 per-attribute similarity upper bound from token-size bounds.

    ``left_bounds`` / ``right_bounds`` are ``(|T^-|, |T^+|)`` pairs of the two
    imputed tuples on one attribute.
    """
    left_min, left_max = left_bounds
    right_min, right_max = right_bounds
    if left_min > right_max:
        return size_bounded_similarity_upper(left_min, right_max)
    if left_max < right_min:
        return size_bounded_similarity_upper(right_min, left_max)
    return 1.0


def attribute_similarity_upper_bound_batch(left_min, left_max,
                                           right_min, right_max):
    """Vectorized Lemma 4.1 bound: query lanes against candidate lanes.

    ``right_min`` / ``right_max`` stack the candidates' per-attribute
    token-size bounds (shape ``(n, d)``); ``left_min`` / ``left_max`` are
    the query side in any shape that broadcasts against them — ``(d,)`` or
    ``(1, d)`` for one query, ``(n, d)`` for one query per lane.
    Element-for-element this performs the exact float operations of
    :func:`attribute_similarity_upper_bound` (same comparisons, same
    division, same ``min``), so the result is bit-identical to the scalar
    bound — just computed for every (query, candidate, attribute) cell at
    once.
    """
    # Branch 1: the query's smallest set is larger than the candidate's
    # largest (size_bounded(left_min, right_max)); branch 2 is the mirror.
    branch1 = left_min > right_max
    branch2 = left_max < right_min
    # Denominators are clamped to 1 only to keep the un-taken lanes finite;
    # wherever a branch is actually taken its denominator is >= 1 already
    # (it exceeds a token count, which is >= 0), so values are unchanged.
    ratio1 = _np.minimum(1.0, right_max / _np.maximum(left_min, 1.0))
    ratio1 = _np.where(left_min <= 0, 1.0, ratio1)
    ratio2 = _np.minimum(1.0, left_max / _np.maximum(right_min, 1.0))
    ratio2 = _np.where(right_min <= 0, 1.0, ratio2)
    return _np.where(branch1, ratio1, _np.where(branch2, ratio2, 1.0))


def token_postings(values: Sequence[str]):
    """Columnar token index of a value column: ``(postings, sizes)``.

    ``postings`` maps every token to the (ascending) row numbers whose value
    contains it; ``sizes[i]`` is the token count of ``values[i]``.  Together
    they are all :func:`jaccard_distance_column` needs to score one query
    against the whole column.
    """
    rows_by_token: Dict[str, list] = {}
    sizes = _np.empty(len(values), dtype=_np.int64)
    for row, value in enumerate(values):
        tokens = tokenize(value)
        sizes[row] = len(tokens)
        for token in tokens:
            rows_by_token.setdefault(token, []).append(row)
    postings = {token: _np.array(rows, dtype=_np.intp)
                for token, rows in rows_by_token.items()}
    return postings, sizes


def jaccard_distance_column(query_tokens: frozenset, postings, sizes):
    """Jaccard distance of one token set against every row of a column.

    ``postings`` / ``sizes`` come from :func:`token_postings`.  Per row this
    performs the exact float operations of :func:`text_distance` — integer
    intersection and union counts, one division, ``1.0 - similarity``, with
    similarity ``0.0`` wherever the intersection is empty — so the result is
    bit-identical to the scalar distance, just computed for the whole column
    in a handful of array operations.
    """
    intersection = _np.zeros(len(sizes), dtype=_np.int64)
    for token in query_tokens:
        rows = postings.get(token)
        if rows is not None:
            intersection[rows] += 1
    union = len(query_tokens) + sizes - intersection
    similarity = _np.zeros(len(sizes), dtype=_np.float64)
    # ``where`` skips the empty-intersection lanes, which include the 0/0
    # lane of two empty token sets.
    _np.divide(intersection, union, out=similarity, where=intersection > 0)
    return 1.0 - similarity
