"""The four TER-iDS pruning strategies (Section 4, Theorems 4.1–4.4).

The strategies are applied in the paper's order:

1. **Topic keyword pruning** (Theorem 4.1): a pair is pruned when neither
   imputed tuple can possibly contain a query keyword.
2. **Similarity upper-bound pruning** (Theorem 4.2): a pair is pruned when an
   upper bound of the tuple similarity is at most ``γ``.  Two bounds are
   available — via token-set sizes (Lemma 4.1) and via a pivot tuple and the
   triangle inequality (Lemma 4.2) — and the tighter (smaller) one is used.
3. **Probability upper-bound pruning** (Theorem 4.3 / Lemma 4.3): a
   Paley–Zygmund-based upper bound of the TER-iDS probability is compared
   against ``α``.
4. **Instance-pair-level pruning** (Theorem 4.4): while computing the exact
   probability, the unexplored instance-pair mass is overestimated as
   matching; once even that optimistic total cannot exceed ``α`` the pair is
   abandoned.

All bounds are evaluated on a per-record :class:`RecordSynopsis` — the
pivot-distance intervals, expectations, token-size bounds and keyword flags
that the ER-grid stores as aggregates (Section 5.2).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Collection, Dict, FrozenSet, List, Optional, Tuple

import numpy as _np

from repro.core.matching import ter_ids_probability_with_cutoff
from repro.core.similarity import (
    attribute_similarity_upper_bound,
    attribute_similarity_upper_bound_batch,
    text_distance,
    tokenize,
)
from repro.core.tuples import ImputedRecord, Schema

if TYPE_CHECKING:  # pragma: no cover - only needed for type checkers
    from repro.indexes.pivots import PivotTable

#: Names of the pruning strategies, in application order (used for the
#: Figure 4 pruning-power report).
PRUNING_ORDER = (
    "topic_keyword",
    "similarity_upper_bound",
    "probability_upper_bound",
    "instance_pair_level",
)


@dataclass
class PruningStats:
    """Counters of how many candidate pairs each strategy eliminated.

    Their checkpoint keys, snapshot keys and registry labels are declared
    once, in the counter table of :mod:`repro.runtime.context`.
    """

    pairs_considered: int = 0
    pruned_by_topic: int = 0
    pruned_by_similarity: int = 0
    pruned_by_probability: int = 0
    pruned_by_instance: int = 0
    refined_matches: int = 0
    refined_non_matches: int = 0

    @property
    def total_pruned(self) -> int:
        return (self.pruned_by_topic + self.pruned_by_similarity
                + self.pruned_by_probability + self.pruned_by_instance)

    def pruning_power(self) -> Dict[str, float]:
        """Per-strategy pruned fraction of all considered pairs (Figure 4)."""
        total = max(1, self.pairs_considered)
        return {
            "topic_keyword": self.pruned_by_topic / total,
            "similarity_upper_bound": self.pruned_by_similarity / total,
            "probability_upper_bound": self.pruned_by_probability / total,
            "instance_pair_level": self.pruned_by_instance / total,
            "total": self.total_pruned / total,
        }

    def as_dict(self) -> Dict[str, int]:
        """Every counter by field name, in declaration order."""
        return asdict(self)


@dataclass
class RecordSynopsis:
    """Pre-computed aggregates of one imputed tuple (ER-grid per-tuple info).

    Attributes
    ----------
    record:
        The imputed tuple the synopsis describes.
    distance_bounds:
        ``distance_bounds[attribute][pivot_index] = (lb, ub)`` — bounds of the
        Jaccard distance from the tuple's possible values to each pivot.
    distance_expectations:
        ``distance_expectations[attribute][pivot_index]`` — expected distance
        under the candidate-value distribution (used by Lemma 4.3).
    token_size_bounds:
        ``token_size_bounds[attribute] = (|T^-|, |T^+|)``.
    may_have_keyword / must_have_keyword:
        Keyword flags for the topic predicate over *any* / *all* instances.
    """

    record: ImputedRecord
    distance_bounds: Dict[str, List[Tuple[float, float]]]
    distance_expectations: Dict[str, List[float]]
    token_size_bounds: Dict[str, Tuple[int, int]]
    may_have_keyword: bool
    must_have_keyword: bool

    # -- derived quantities -------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self.record.schema

    @property
    def rid(self) -> str:
        """Identity passthrough so windows/grids can key on the synopsis."""
        return self.record.rid

    @property
    def source(self) -> str:
        """Identity passthrough so windows/grids can key on the synopsis."""
        return self.record.source

    def main_point(self) -> List[float]:
        """Expected main-pivot coordinates (one per attribute)."""
        return [self.distance_expectations[name][0] for name in self.schema]

    def main_interval(self, attribute: str) -> Tuple[float, float]:
        """Main-pivot distance bounds of one attribute."""
        return self.distance_bounds[attribute][0]

    def coordinate_rectangle(self) -> List[Tuple[float, float]]:
        """Per-attribute main-pivot distance intervals (the grid footprint)."""
        return [self.distance_bounds[name][0] for name in self.schema]

    def total_distance_bounds(self, pivot_index: int = 0) -> Tuple[float, float]:
        """``(lb_X, ub_X)`` of the tuple-to-pivot distance summed over attributes."""
        low = 0.0
        high = 0.0
        for name in self.schema:
            bounds = self.distance_bounds[name]
            index = min(pivot_index, len(bounds) - 1)
            lb, ub = bounds[index]
            low += lb
            high += ub
        return low, high

    def expected_total_distance(self, pivot_index: int = 0) -> float:
        """``E(X)`` of Lemma 4.3: expected summed distance to the pivot."""
        total = 0.0
        for name in self.schema:
            expectations = self.distance_expectations[name]
            index = min(pivot_index, len(expectations) - 1)
            total += expectations[index]
        return total

    @classmethod
    def build(cls, record: ImputedRecord, pivots: "PivotTable",
              keywords: FrozenSet[str]) -> "RecordSynopsis":
        """Compute the synopsis of one imputed tuple against the pivot table."""
        distance_bounds: Dict[str, List[Tuple[float, float]]] = {}
        distance_expectations: Dict[str, List[float]] = {}
        token_size_bounds: Dict[str, Tuple[int, int]] = {}

        for attribute in record.schema:
            possible = record.possible_values(attribute)
            if not possible:
                # An empty candidate map (e.g. hand-built imputed records or
                # upstream imputers that retained nothing) is treated as a
                # missing value: the empty token set at distance 1.0 from
                # every pivot, exactly like ``possible_values`` reports for
                # an unimputable attribute.
                possible = {"": 1.0}
            pivot_values = pivots.all_pivots(attribute)
            bounds: List[Tuple[float, float]] = []
            expectations: List[float] = []
            for pivot_value in pivot_values:
                low = 1.0
                high = 0.0
                expected = 0.0
                mass = 0.0
                for value, probability in possible.items():
                    distance = text_distance(value, pivot_value) if value else 1.0
                    low = min(low, distance)
                    high = max(high, distance)
                    expected += probability * distance
                    mass += probability
                if mass > 0 and mass < 1.0:
                    # Unretained probability mass is treated pessimistically
                    # (distance 1.0), keeping the expectation an upper-style
                    # estimate without breaking the bounds.
                    expected += (1.0 - mass) * 1.0
                bounds.append((low, high))
                expectations.append(expected)
            distance_bounds[attribute] = bounds
            distance_expectations[attribute] = expectations
            sizes = [len(tokenize(value)) for value in possible]
            token_size_bounds[attribute] = (min(sizes), max(sizes))

        return cls(
            record=record,
            distance_bounds=distance_bounds,
            distance_expectations=distance_expectations,
            token_size_bounds=token_size_bounds,
            may_have_keyword=record.may_contain_keyword(keywords),
            must_have_keyword=record.must_contain_keyword(keywords) if keywords else False,
        )


# ---------------------------------------------------------------------------
# Theorem 4.1 — topic keyword pruning
# ---------------------------------------------------------------------------
def topic_keyword_prune(left: RecordSynopsis, right: RecordSynopsis,
                        keywords: FrozenSet[str]) -> bool:
    """True when the pair can be pruned because no instance contains a keyword."""
    if not keywords:
        return False
    return not (left.may_have_keyword or right.may_have_keyword)


# ---------------------------------------------------------------------------
# Lemma 4.1 — similarity upper bound via token-set sizes
# ---------------------------------------------------------------------------
def similarity_upper_bound_by_size(left: RecordSynopsis,
                                   right: RecordSynopsis) -> float:
    """Sum over attributes of the token-size similarity upper bounds."""
    total = 0.0
    for attribute in left.schema:
        total += attribute_similarity_upper_bound(
            left.token_size_bounds[attribute], right.token_size_bounds[attribute])
    return total


# ---------------------------------------------------------------------------
# Lemma 4.2 — similarity upper bound via a pivot tuple
# ---------------------------------------------------------------------------
def min_attribute_distance(left_bounds: Tuple[float, float],
                           right_bounds: Tuple[float, float]) -> float:
    """``min_dist`` of Lemma 4.2 from per-attribute pivot-distance bounds."""
    left_low, left_high = left_bounds
    right_low, right_high = right_bounds
    if left_low > right_high:
        return left_low - right_high
    if right_low > left_high:
        return right_low - left_high
    return 0.0


def similarity_upper_bound_by_pivot(left: RecordSynopsis, right: RecordSynopsis,
                                    pivot_index: int = 0) -> float:
    """``d - Σ_k min_dist(r_i[A_k], r_j[A_k])`` (Lemma 4.2)."""
    schema = left.schema
    total_min_distance = 0.0
    for attribute in schema:
        left_bounds = left.distance_bounds[attribute]
        right_bounds = right.distance_bounds[attribute]
        index = min(pivot_index, len(left_bounds) - 1, len(right_bounds) - 1)
        total_min_distance += min_attribute_distance(left_bounds[index],
                                                     right_bounds[index])
    return len(schema) - total_min_distance


def similarity_upper_bound(left: RecordSynopsis, right: RecordSynopsis) -> float:
    """The tighter of the token-size and pivot-based similarity upper bounds.

    All auxiliary pivots are consulted; each yields a valid bound, so the
    minimum over pivots (and over the size bound) is still a valid bound.
    """
    best = similarity_upper_bound_by_size(left, right)
    pivot_counts = min(
        min(len(bounds) for bounds in left.distance_bounds.values()),
        min(len(bounds) for bounds in right.distance_bounds.values()),
    )
    for pivot_index in range(pivot_counts):
        best = min(best, similarity_upper_bound_by_pivot(left, right, pivot_index))
    return best


def similarity_prune(left: RecordSynopsis, right: RecordSynopsis,
                     gamma: float) -> bool:
    """Theorem 4.2: prune when the similarity upper bound is at most ``γ``."""
    return similarity_upper_bound(left, right) <= gamma


# ---------------------------------------------------------------------------
# Lemma 4.3 / Theorem 4.3 — Paley–Zygmund probability upper bound
# ---------------------------------------------------------------------------
def paley_zygmund_bound_from_totals(margin: float,
                                    expectation_left: float,
                                    lb_left: float, ub_left: float,
                                    expectation_right: float,
                                    lb_right: float, ub_right: float) -> float:
    """Lemma 4.3 bound from pre-computed per-tuple distance totals.

    Shared by the scalar :func:`probability_upper_bound` and the vectorized
    kernel (which pre-computes the totals columnarly and calls this for the
    few candidate lanes whose intervals are disjoint), so both paths perform
    the identical float operations.
    """

    def bound(expect_far: float, expect_near: float,
              ub_far: float, lb_near: float) -> Optional[float]:
        gap = expect_far - expect_near
        spread = ub_far - lb_near
        if gap <= 0 or spread <= 0:
            return None
        theta = margin / gap
        if not 0.0 <= theta <= 1.0:
            return None
        return 1.0 - (1.0 - theta) ** 2 * (gap / spread)

    if lb_left >= ub_right:
        value = bound(expectation_left, expectation_right, ub_left, lb_right)
        if value is not None:
            return max(0.0, min(1.0, value))
    if lb_right >= ub_left:
        value = bound(expectation_right, expectation_left, ub_right, lb_left)
        if value is not None:
            return max(0.0, min(1.0, value))
    return 1.0


def probability_upper_bound(left: RecordSynopsis, right: RecordSynopsis,
                            gamma: float, pivot_index: int = 0) -> float:
    """Paley–Zygmund-based upper bound of the TER-iDS probability (Lemma 4.3)."""
    dimensionality = len(left.schema)
    margin = dimensionality - gamma

    expectation_left = left.expected_total_distance(pivot_index)
    expectation_right = right.expected_total_distance(pivot_index)
    lb_left, ub_left = left.total_distance_bounds(pivot_index)
    lb_right, ub_right = right.total_distance_bounds(pivot_index)
    return paley_zygmund_bound_from_totals(
        margin, expectation_left, lb_left, ub_left,
        expectation_right, lb_right, ub_right)


def probability_prune(left: RecordSynopsis, right: RecordSynopsis,
                      gamma: float, alpha: float) -> bool:
    """Theorem 4.3: prune when the probability upper bound is at most ``α``."""
    return probability_upper_bound(left, right, gamma) <= alpha


# ---------------------------------------------------------------------------
# Theorem 4.4 — instance-pair-level pruning (delegated to matching module)
# ---------------------------------------------------------------------------
def instance_level_verdict(left: RecordSynopsis, right: RecordSynopsis,
                           keywords: FrozenSet[str], gamma: float,
                           alpha: float) -> Tuple[float, bool, int]:
    """Exact probability with Theorem 4.4 early termination."""
    return ter_ids_probability_with_cutoff(left.record, right.record,
                                           keywords, gamma, alpha)


@dataclass
class PruningPipeline:
    """Applies the four strategies in order and records their pruning power."""

    keywords: FrozenSet[str]
    gamma: float
    alpha: float
    use_topic: bool = True
    use_similarity: bool = True
    use_probability: bool = True
    use_instance: bool = True
    stats: PruningStats = field(default_factory=PruningStats)

    def evaluate_pair(self, left: RecordSynopsis,
                      right: RecordSynopsis) -> Tuple[bool, float]:
        """Decide whether a candidate pair is a TER-iDS answer.

        Returns ``(is_match, probability_estimate)``.  The probability is
        exact for pairs that reach the refinement step and a bound otherwise.
        """
        self.stats.pairs_considered += 1

        if self.use_topic and topic_keyword_prune(left, right, self.keywords):
            self.stats.pruned_by_topic += 1
            return False, 0.0

        if self.use_similarity and similarity_prune(left, right, self.gamma):
            self.stats.pruned_by_similarity += 1
            return False, 0.0

        if self.use_probability and probability_prune(left, right, self.gamma,
                                                      self.alpha):
            self.stats.pruned_by_probability += 1
            return False, 0.0

        if self.use_instance:
            probability, is_match, pairs_checked = instance_level_verdict(
                left, right, self.keywords, self.gamma, self.alpha)
            total_pairs = (len(left.record.instances())
                           * len(right.record.instances()))
            if not is_match and pairs_checked < total_pairs:
                self.stats.pruned_by_instance += 1
                return False, probability
        else:
            from repro.core.matching import ter_ids_probability

            probability = ter_ids_probability(left.record, right.record,
                                              self.keywords, self.gamma)
            is_match = probability > self.alpha

        if is_match:
            self.stats.refined_matches += 1
        else:
            self.stats.refined_non_matches += 1
        return is_match, probability


# ---------------------------------------------------------------------------
# Packed columnar synopses + the row pruning kernel
# ---------------------------------------------------------------------------
def pack_synopsis(synopsis: RecordSynopsis):
    """One synopsis laid out in kernel order — a row of :class:`PackedStore`.

    The per-attribute dicts are flattened into dense ``float64`` arrays in
    schema order, returned as the tuple ``(dist_lb, dist_ub, tok_min,
    tok_max, may_have_keyword, pivot_limit, totals)``:

    * ``dist_lb`` / ``dist_ub`` — shape ``(d, P)`` where ``P`` is the
      maximum pivot count over the attributes; attributes with fewer pivots
      are edge-padded (replicating their last pivot, matching the
      ``min(pivot_index, len - 1)`` clamping of the scalar accessors);
    * ``tok_min`` / ``tok_max`` — shape ``(d,)`` token-size bounds;
    * ``may_have_keyword`` — the Theorem 4.1 flag;
    * ``pivot_limit`` — the number of *real* (un-padded) pivots shared by
      every attribute, i.e. the exact pivot range the scalar
      :func:`similarity_upper_bound` iterates;
    * ``totals`` — ``(exp0, lb0, ub0)``, the main-pivot distance totals of
      Lemma 4.3, pre-accumulated in the scalar methods' exact float order
      (they depend only on the record, not the pair).
    """
    schema = synopsis.schema
    dimensionality = len(schema)
    bounds = [synopsis.distance_bounds[name] for name in schema]
    counts = [len(per_attribute) for per_attribute in bounds]
    if min(counts) < 1:
        raise ValueError("cannot pack a synopsis with a pivot-less attribute")
    pivot_width = max(counts)
    dist_lb = _np.empty((dimensionality, pivot_width))
    dist_ub = _np.empty((dimensionality, pivot_width))
    for row, (per_attribute, count) in enumerate(zip(bounds, counts)):
        for column in range(pivot_width):
            index = column if column < count else count - 1
            dist_lb[row, column], dist_ub[row, column] = per_attribute[index]
    tok = [synopsis.token_size_bounds[name] for name in schema]
    # Main-pivot totals in the exact accumulation order of
    # ``expected_total_distance`` / ``total_distance_bounds``.
    total_exp0 = 0.0
    total_lb0 = 0.0
    total_ub0 = 0.0
    for name, per_attribute in zip(schema, bounds):
        low, high = per_attribute[0]
        total_exp0 += synopsis.distance_expectations[name][0]
        total_lb0 += low
        total_ub0 += high
    return (dist_lb, dist_ub,
            _np.array([pair[0] for pair in tok], dtype=_np.float64),
            _np.array([pair[1] for pair in tok], dtype=_np.float64),
            synopsis.may_have_keyword, min(counts),
            (total_exp0, total_lb0, total_ub0))


#: Smallest vocabulary :meth:`PackedStore.begin_epoch` re-encodes: below it
#: a rebuild would cost more than the dictionary it frees.
VOCABULARY_FLOOR = 4096


class PackedStore:
    """A resident, columnar store of packed synopses keyed by (rid, source).

    The ER-grid keeps one: in-window synopses occupy rows of shared
    ``(capacity, d, P)`` arrays, one column per field of
    :func:`pack_synopsis`, so that a whole batch of pairs gathers into the
    kernel's stacked matrices with one fancy-indexing operation per column.

    Beside the bound columns sit the token columns :func:`batch_refine`
    reads, written at :meth:`insert` for every row whose tuple has exactly
    one instance (``single[row]``): ``token_ids[row]`` holds, attribute
    after attribute in schema order, the ids of that instance's tokens
    under :attr:`vocabulary` — attribute ``j`` owns the columns
    ``token_offsets[j]:token_offsets[j + 1]``, as wide as the widest token
    set seen on it, padded with ``-1`` — ``token_counts[row]`` the
    per-attribute set sizes and ``instance_p[row]`` the instance's existence
    probability.  Rows of multi-instance tuples carry no tokens.  Like the
    rest of the store the columns are rebuilt from the window, never
    checkpointed.

    Row lifetime: a removed row keeps its data and still answers
    :meth:`rows_for` until the owner's next :meth:`begin_epoch` — a
    micro-batch evicts during maintenance but evaluates its pairs
    afterwards, so every candidate (and query) a batch recorded stays
    gatherable until that batch ends.  Every owner opens an epoch at batch
    start; only then are the rows removed during the previous batch
    recycled.
    """

    def __init__(self) -> None:
        self._rows: Dict[Tuple[str, str], int] = {}
        #: Fast row lookup by object identity (the hot gather path).  An
        #: entry lives exactly as long as ``_objects`` holds the synopsis, so
        #: a garbage-collected synopsis' ``id()`` can never alias a new one.
        self._rows_by_id: Dict[int, int] = {}
        self._objects: List[Optional[RecordSynopsis]] = []
        self._free: List[int] = []
        #: Rows removed since the last ``begin_epoch``: still readable by
        #: the batch in flight, so not rewritten until the next epoch opens.
        self._pending_free: List[int] = []
        self._shape: Optional[Tuple[int, int]] = None
        self.dist_lb = None
        self.dist_ub = None
        self.tok_min = None
        self.tok_max = None
        self.may_kw = None
        self.limits = None
        #: ``(capacity, 3)`` main-pivot totals: ``exp0, lb0, ub0`` columns.
        self.totals = None
        #: token -> id of every token a resident single-instance row holds
        #: (plus those of rows since evicted, until the next rebuild).
        self.vocabulary: Dict[str, int] = {}
        self._vocabulary_base = 0
        self.token_offsets: List[int] = []
        self.token_ids = None
        self.token_counts = None
        self.single = None
        self.instance_p = None

    def __len__(self) -> int:
        return len(self._rows)

    def begin_epoch(self) -> None:
        """Open a batch: recycle the rows removed during the previous one."""
        rows_by_id = self._rows_by_id
        for row in self._pending_free:
            # Unless the very same object was re-inserted meanwhile (it then
            # answers from its new row).
            if rows_by_id[id(self._objects[row])] == row:
                del rows_by_id[id(self._objects[row])]
            self._objects[row] = None
        self._free.extend(self._pending_free)
        del self._pending_free[:]
        # The vocabulary only ever grows with the stream's domain; the rows
        # it serves are bounded by the window.  Once it has doubled since
        # the last rebuild, re-encode the resident rows into a fresh one —
        # no batch is in flight, so no gathered id outlives the renumbering.
        if len(self.vocabulary) > max(VOCABULARY_FLOOR,
                                      2 * self._vocabulary_base):
            self.vocabulary = {}
            for row in self._rows.values():
                self._write_tokens(row, self._objects[row])
            self._vocabulary_base = len(self.vocabulary)

    def _grow(self, capacity: int) -> None:
        dimensionality, pivot_width = self._shape  # type: ignore[misc]

        def expand(array, shape, dtype=_np.float64):
            fresh = _np.zeros(shape, dtype=dtype)
            if array is not None:
                fresh[: array.shape[0]] = array
            return fresh
        self.dist_lb = expand(self.dist_lb, (capacity, dimensionality, pivot_width))
        self.dist_ub = expand(self.dist_ub, (capacity, dimensionality, pivot_width))
        self.tok_min = expand(self.tok_min, (capacity, dimensionality))
        self.tok_max = expand(self.tok_max, (capacity, dimensionality))
        self.totals = expand(self.totals, (capacity, 3))
        self.may_kw = expand(self.may_kw, (capacity,), bool)
        self.limits = expand(self.limits, (capacity,), _np.int64)
        if self.token_ids is None:
            self.token_offsets = [0] * (dimensionality + 1)
            self.token_ids = _np.empty((0, 0), dtype=_np.int32)
        self.token_ids = self._token_columns(capacity, self.token_offsets)
        self.token_counts = expand(self.token_counts,
                                   (capacity, dimensionality), _np.int32)
        self.single = expand(self.single, (capacity,), bool)
        self.instance_p = expand(self.instance_p, (capacity,))

    def _token_columns(self, capacity: int, offsets: List[int]):
        """The token ids re-laid into ``capacity`` rows under ``offsets``
        (each attribute at least as wide as it is now), ``-1`` elsewhere."""
        old, old_offsets = self.token_ids, self.token_offsets
        fresh = _np.full((capacity, offsets[-1]), -1, dtype=_np.int32)
        for start, low, high in zip(offsets, old_offsets, old_offsets[1:]):
            fresh[: old.shape[0], start:start + high - low] = old[:, low:high]
        return fresh

    def _write_tokens(self, row: int, synopsis: RecordSynopsis) -> None:
        """Fill the token columns of ``row`` when its tuple has one instance.

        Whether it has is read off the candidate distributions, and so is
        the instance — each attribute's one possible value, the product of
        the candidates' probabilities in ``instances()``'s order — without
        enumerating ``instances()``: most tuples are never refined, and
        those records would live as long as the window holds the tuple.
        """
        record = synopsis.record
        candidates = record.candidates
        single = all(len(distribution) == 1
                     for distribution in candidates.values())
        self.single[row] = single
        if not single:
            return
        probability = 1.0
        values = record.base.values
        if candidates:
            values = dict(values)
            for name, distribution in candidates.items():
                (values[name], weight), = distribution.items()
                probability *= weight
        token_sets = [tokenize(values.get(name) or "")
                      for name in record.schema]
        counts = [len(tokens) for tokens in token_sets]
        offsets = self.token_offsets
        widths = [max(count, high - low) for count, low, high
                  in zip(counts, offsets, offsets[1:])]
        if sum(widths) > offsets[-1]:
            # Some attribute outgrew its columns: widen by exact need.
            offsets = [0, *accumulate(widths)]
            self.token_ids = self._token_columns(self.token_ids.shape[0],
                                                 offsets)
            self.token_offsets = offsets
        vocabulary = self.vocabulary
        # The whole row, so a recycled one keeps nothing of its predecessor.
        ids = [-1] * offsets[-1]
        for tokens, low in zip(token_sets, offsets):
            for column, token in enumerate(tokens, low):
                ids[column] = vocabulary.setdefault(token, len(vocabulary))
        self.token_ids[row] = ids
        self.token_counts[row] = counts
        self.instance_p[row] = probability

    def insert(self, synopsis: RecordSynopsis) -> int:
        """Register (or refresh) one synopsis; returns its row.

        One engine has one pivot table, so every synopsis packs to the same
        ``(d, P)`` shape; one that does not raises :class:`ValueError`.
        """
        packed = pack_synopsis(synopsis)
        shape = packed[0].shape
        if self._shape is None:
            self._shape = shape
            self._grow(64)
        elif shape != self._shape:
            raise ValueError(
                f"synopsis {(synopsis.rid, synopsis.source)!r} packs to "
                f"shape {shape}, the store holds {self._shape}: synopses of "
                "different pivot tables cannot share a store")
        key = (synopsis.rid, synopsis.source)
        row = self._rows.get(key)
        if row is not None and self._objects[row] is not synopsis:
            # A same-key re-arrival: the superseded synopsis may still be a
            # candidate of the batch in flight, so it keeps its row until
            # the next epoch like any other removal.
            self.remove(*key)
            row = None
        if row is None:
            if self._free:
                row = self._free.pop()
            else:
                # Allocated rows are exactly 0 .. len(rows) + len(free) +
                # len(pending_free) - 1; with an empty free list the next
                # fresh row is past all of them.
                row = len(self._rows) + len(self._pending_free)
                if row >= self.may_kw.shape[0]:
                    self._grow(max(64, 2 * self.may_kw.shape[0]))
                self._objects.append(None)
            self._rows[key] = row
            self._objects[row] = synopsis
            self._rows_by_id[id(synopsis)] = row
        (self.dist_lb[row], self.dist_ub[row], self.tok_min[row],
         self.tok_max[row], self.may_kw[row], self.limits[row],
         self.totals[row]) = packed
        self._write_tokens(row, synopsis)
        return row

    def remove(self, rid: str, source: str) -> bool:
        """Unbind one key; its row stays readable until the next epoch."""
        row = self._rows.pop((rid, source), None)
        if row is None:
            return False
        self._pending_free.append(row)
        return True

    def rows_for(self, synopses: Collection[RecordSynopsis]):
        """``intp`` row array of exactly these synopsis objects.

        Identity (not just key equality) decides, so a re-built synopsis
        with the same key never hits another object's row.  Answers for
        removed synopses too, until the next :meth:`begin_epoch`; rows
        outlive the batch that reads them, so a synopsis without one is a
        bug in the caller and raises :class:`KeyError` naming its key.
        """
        rows_by_id = self._rows_by_id
        try:
            rows = [rows_by_id[id(synopsis)] for synopsis in synopses]
        except KeyError:
            absent = next(synopsis for synopsis in synopses
                          if id(synopsis) not in rows_by_id)
            raise KeyError(f"synopsis {(absent.rid, absent.source)!r} has "
                           "no row in the packed store") from None
        return _np.array(rows, dtype=_np.intp)


def gather_rows(store: PackedStore, index):
    """The 7-tuple of stacked kernel inputs for one row set: one
    fancy-indexing copy per packed column."""
    return (store.dist_lb[index], store.dist_ub[index],
            store.tok_min[index], store.tok_max[index],
            store.may_kw[index], store.limits[index],
            store.totals[index])


def _sequential_sum(stacked, axis_length: int):
    """Left-to-right float accumulation over the attribute axis.

    Replicates the scalar loops' ``total = 0.0; total += term`` operation
    order element-for-element (numpy's ``sum`` may use pairwise summation,
    which can differ in the last ulp), keeping the kernel bit-identical to
    the scalar bounds.
    """
    total = _np.zeros(stacked.shape[:1] + stacked.shape[2:])
    for attribute in range(axis_length):
        total = total + stacked[:, attribute]
    return total


def batch_cell_scan(query_lb, query_ub, cell_lb, cell_ub):
    """Lower-bound L1 distances of one query rectangle to many grid cells.

    ``query_lb`` / ``query_ub`` are the ``(d,)`` per-attribute main-pivot
    interval bounds of the query tuple; ``cell_lb`` / ``cell_ub`` are the
    ``(n, d)`` aggregate distance intervals of ``n`` cells.  Returns the
    ``(n,)`` array of ``Σ_k min_dist`` totals — the quantity
    ``ERGrid._cell_min_distance`` computes per cell — evaluated for every
    cell in a few array operations.  Bit-identical to the scalar walk: the
    ``min_attribute_distance`` branches collapse to a max-of-three (only one
    of the two differences can be positive for disjoint intervals, and both
    are non-positive for overlapping ones), and the per-attribute totals are
    accumulated left-to-right like the scalar loop.
    """
    per_attribute = _np.maximum(
        0.0, _np.maximum(query_lb[_np.newaxis, :] - cell_ub,
                         cell_lb - query_ub[_np.newaxis, :]))
    return _sequential_sum(per_attribute, per_attribute.shape[1])


#: Pairs per kernel pass of the batch-granular :func:`batch_prune` form.
#: The gathers and the ~8 live ``(block, d, P)`` temporaries of one pass
#: scale with it: unblocked (~11k pairs per batch) they raised the e2e
#: benchmark's peak RSS by 24 %; at this size the call overhead is already
#: amortised and the working set stays cache-sized.
PAIR_BLOCK = 1024


def batch_prune(query_rows, candidate_rows, pruning: PruningPipeline,
                store: PackedStore):
    """Theorems 4.1–4.3 for a whole micro-batch of (query, candidate) pairs.

    ``query_rows`` and ``candidate_rows`` are equal-length integer arrays of
    resident ``store`` rows, pair ``k`` being ``(query_rows[k],
    candidate_rows[k])``; any number of distinct queries may be mixed.  The
    pairs run through the kernel body (:func:`batch_prune_stacked`) in
    blocks of :data:`PAIR_BLOCK`, under the thresholds and strategy
    switches of ``pruning``.

    Returns ``(alive, pruned_topic, pruned_similarity, pruned_probability)``
    where ``alive`` is the boolean survivor mask over the pairs (in order)
    and the counters attribute each pruned pair to the first strategy that
    eliminated it, exactly like :meth:`PruningPipeline.evaluate_pair`.
    Survivor-for-survivor and count-for-count identical to evaluating
    :func:`topic_keyword_prune` / :func:`similarity_prune` /
    :func:`probability_prune` per pair: the bound arithmetic performs the
    same IEEE operations on the same operands, only batched.
    """
    count = len(candidate_rows)
    alive = _np.empty(count, dtype=bool)
    pruned = _np.zeros(3, dtype=_np.int64)  # topic, similarity, probability
    for start in range(0, count, PAIR_BLOCK):
        block = slice(start, start + PAIR_BLOCK)
        alive[block], *block_pruned = batch_prune_stacked(
            gather_rows(store, query_rows[block]),
            gather_rows(store, candidate_rows[block]), pruning)
        pruned += block_pruned
    return (alive, *pruned.tolist())


def batch_prune_stacked(query_stacked, stacked, pruning: PruningPipeline):
    """The :func:`batch_prune` cascade over pre-stacked kernel inputs.

    ``query_stacked`` and ``stacked`` are the two sides of the pairs in the
    7-tuple layout of :func:`gather_rows`: lane ``k`` is the pair
    ``(query_stacked[k], stacked[k])``.
    """
    keywords, gamma, alpha = pruning.keywords, pruning.gamma, pruning.alpha
    (query_lb, query_ub, query_tok_min, query_tok_max,
     query_may_kw, query_limits, query_totals) = query_stacked
    (cand_lb, cand_ub, cand_tok_min, cand_tok_max,
     cand_may_kw, cand_limits, cand_totals) = stacked

    alive = _np.ones(len(cand_may_kw), dtype=bool)
    pruned_topic = 0
    pruned_similarity = 0
    pruned_probability = 0

    # --- Theorem 4.1: topic keyword pruning --------------------------------
    if pruning.use_topic and keywords:
        topic_mask = ~(query_may_kw | cand_may_kw)
        pruned_topic = int(_np.count_nonzero(topic_mask))
        alive &= ~topic_mask

    dimensionality = cand_lb.shape[1]

    # --- Theorem 4.2: similarity upper bound (Lemmas 4.1 + 4.2) ------------
    if pruning.use_similarity and alive.any():
        per_attribute = attribute_similarity_upper_bound_batch(
            query_tok_min, query_tok_max, cand_tok_min, cand_tok_max)
        size_bound = _sequential_sum(per_attribute, dimensionality)

        # min_attribute_distance: only one of the two differences can be
        # positive (disjoint intervals), so the max-of-three formulation is
        # bit-identical to the scalar branches.
        min_distance = _np.maximum(0.0, _np.maximum(query_lb - cand_ub,
                                                    cand_lb - query_ub))
        pivot_bounds = float(dimensionality) - _sequential_sum(
            min_distance, dimensionality)
        # The scalar loop consults exactly min(left, right) pivots per pair;
        # mask the padded / extra columns out of the running minimum.  With
        # one shared pivot table every limit covers the full width and the
        # masking is skipped.
        limits = _np.minimum(cand_limits, query_limits)
        width = cand_lb.shape[2]
        if int(limits.min(initial=width)) < width:
            invalid = (_np.arange(width)[_np.newaxis, :]
                       >= limits[:, _np.newaxis])
            pivot_bounds = _np.where(invalid, _np.inf, pivot_bounds)
        best = _np.minimum(size_bound, pivot_bounds.min(axis=1))
        similarity_mask = alive & (best <= gamma)
        pruned_similarity = int(_np.count_nonzero(similarity_mask))
        alive &= ~similarity_mask

    # --- Theorem 4.3: Paley–Zygmund probability upper bound ----------------
    if pruning.use_probability and alive.any():
        margin = dimensionality - gamma
        query_exp0, query_lb0, query_ub0 = query_totals.T
        cand_exp0, cand_lb0, cand_ub0 = cand_totals.T
        # Lemma 4.3 yields 1.0 unless one of its two orientations produces a
        # value: the conditions under which the scalar ``bound()`` gives up
        # are one subtraction, one division and comparisons — bit-exact in
        # numpy — so they are decided for every lane at once, and only the
        # lanes that can yield a value below 1.0 go through the shared
        # scalar helper (keeping even the libm-pow squaring bit-for-bit).
        yields = (
            _paley_zygmund_yields(margin, query_lb0 >= cand_ub0,
                                  query_exp0 - cand_exp0,
                                  query_ub0 - cand_lb0)
            | _paley_zygmund_yields(margin, cand_lb0 >= query_ub0,
                                    cand_exp0 - query_exp0,
                                    cand_ub0 - query_lb0))
        probability_mask = alive & (1.0 <= alpha)
        for lane in _np.nonzero(alive & yields)[0]:
            value = paley_zygmund_bound_from_totals(
                margin, float(query_exp0[lane]), float(query_lb0[lane]),
                float(query_ub0[lane]), float(cand_exp0[lane]),
                float(cand_lb0[lane]), float(cand_ub0[lane]))
            probability_mask[lane] = value <= alpha
        pruned_probability = int(_np.count_nonzero(probability_mask))
        alive &= ~probability_mask

    return alive, pruned_topic, pruned_similarity, pruned_probability


def _paley_zygmund_yields(margin: float, disjoint, gap, spread):
    """Lanes where one orientation of Lemma 4.3's ``bound()`` returns a
    value: ``disjoint`` intervals, ``gap > 0``, ``spread > 0`` and
    ``theta = margin / gap`` inside ``[0, 1]``."""
    usable = disjoint & ~(gap <= 0) & ~(spread <= 0)
    theta = _np.divide(margin, gap, out=_np.full(gap.shape, -1.0),
                       where=usable)
    return usable & (0.0 <= theta) & (theta <= 1.0)


def batch_refine(query_rows, candidate_rows, pruning: PruningPipeline,
                 store: PackedStore):
    """Theorem 4.4 / Eq. (2) for pairs of single-instance ``store`` rows.

    ``query_rows`` / ``candidate_rows`` pair up like those of
    :func:`batch_prune`, and every row must have ``store.single`` set.
    Returns the ``(is_match, probability)`` arrays
    :meth:`PruningPipeline.evaluate_pair` reports for pairs that reach
    refinement, in blocks of :data:`PAIR_BLOCK`.  With one instance a side
    the cut-off sweep visits one instance pair and can never stop short of
    the last, so none of these pairs counts as ``pruned_by_instance``.

    Bit-identical to the scalar sweep: χ is the integer intersection and
    union counts of the two token-id sets, one division per attribute and a
    left-to-right sum in schema order against ``γ``; the topic test looks the
    ids of ``pruning.keywords`` up in the rows themselves, so it is exact
    under any keyword set, not just the one the synopses were built with.
    """
    gamma, alpha = pruning.gamma, pruning.alpha
    vocabulary = store.vocabulary
    keyword_ids = _np.array([vocabulary[keyword]
                             for keyword in pruning.keywords
                             if keyword in vocabulary], dtype=_np.int32)
    offsets = store.token_offsets
    count = len(candidate_rows)
    is_match = _np.empty(count, dtype=bool)
    probability = _np.empty(count)
    for start in range(0, count, PAIR_BLOCK):
        block = slice(start, start + PAIR_BLOCK)
        query, candidate = query_rows[block], candidate_rows[block]
        left, right = store.token_ids[query], store.token_ids[candidate]
        left_counts = store.token_counts[query]
        right_counts = store.token_counts[candidate]
        lanes = len(query)
        similarity = _np.zeros(lanes)
        for attribute, (low, high) in enumerate(zip(offsets, offsets[1:])):
            left_size = left_counts[:, attribute]
            right_size = right_counts[:, attribute]
            equal = left[:, low:high, None] == right[:, None, low:high]
            # Padding equals padding: take those cells back out.
            intersection = (
                _np.count_nonzero(equal.reshape(lanes, -1), axis=1)
                - (high - low - left_size) * (high - low - right_size))
            union = left_size + right_size - intersection
            jaccard = _np.zeros(lanes)
            # ``where`` skips the empty intersections, the 0 / 0 of two
            # empty sets among them.
            _np.divide(intersection, union, out=jaccard,
                       where=intersection > 0)
            similarity = similarity + jaccard
        matches = similarity > gamma
        if pruning.keywords:
            # Few lanes clear γ; only they need their topic flags.
            similar = matches.nonzero()[0]
            matches[similar] = (
                _has_token(left[similar], keyword_ids)
                | _has_token(right[similar], keyword_ids))
        # The one-iteration cut-off sweep: 0.0 + pair_mass is pair_mass.
        pair_mass = store.instance_p[query] * store.instance_p[candidate]
        matched = _np.where(matches, pair_mass, 0.0)
        accepted = matched > alpha
        if pruning.use_instance:
            upper = matched + _np.maximum(0.0, 1.0 - pair_mass)
            matched = _np.where(~accepted & (upper <= alpha), upper, matched)
        is_match[block] = accepted
        probability[block] = matched
    return is_match, probability


def _has_token(token_ids, wanted):
    """Rows of ``token_ids`` holding at least one of the ``wanted`` ids."""
    return (token_ids[:, :, _np.newaxis] == wanted).any(axis=(1, 2))
