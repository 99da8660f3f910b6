"""The TER-iDS pruning strategies (Section 4, Theorems 4.1, 4.2 and 4.4).

The strategies are applied in the paper's order:

1. **Topic keyword pruning** (Theorem 4.1): a pair is pruned when neither
   imputed tuple can possibly contain a query keyword.
2. **Similarity upper-bound pruning** (Theorem 4.2): a pair is pruned when an
   upper bound of the tuple similarity is at most ``γ``.  Two bounds are
   available — via token-set sizes (Lemma 4.1) and via a pivot tuple and the
   triangle inequality (Lemma 4.2) — and the tighter (smaller) one is used.
3. **Instance-pair-level pruning** (Theorem 4.4): while computing the exact
   probability, the unexplored instance-pair mass is overestimated as
   matching; once even that optimistic total cannot exceed ``α`` the pair is
   abandoned.

The paper's third strategy, the Paley–Zygmund probability upper bound
(Theorem 4.3 / Lemma 4.3), is not implemented: it can only prune when
``α ≥ 1 − ρ²``, and it never pruned a pair at any setting the engine was
run at (README, "Theorem 4.3 is not implemented").  Its counter,
:attr:`PruningStats.pruned_by_probability`, stays in the report and reads 0.

All bounds are evaluated on a per-record :class:`RecordSynopsis` — the
pivot-distance intervals, token-size bounds and keyword flag that the
ER-grid stores as aggregates (Section 5.2).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import accumulate, compress
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
        """Per-strategy pruned fraction of all considered pairs (Figure 4).

        The Theorem 4.3 entry is kept for the report's shape and reads 0:
        the strategy is not implemented (see the module docstring).
        """
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
    token_size_bounds:
        ``token_size_bounds[attribute] = (|T^-|, |T^+|)``.
    may_have_keyword:
        Whether *any* instance can satisfy the topic predicate (Theorem 4.1).
    """

    record: ImputedRecord
    distance_bounds: Dict[str, List[Tuple[float, float]]]
    token_size_bounds: Dict[str, Tuple[int, int]]
    may_have_keyword: bool

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

    def main_interval(self, attribute: str) -> Tuple[float, float]:
        """Main-pivot distance bounds of one attribute."""
        return self.distance_bounds[attribute][0]

    def coordinate_rectangle(self) -> List[Tuple[float, float]]:
        """Per-attribute main-pivot distance intervals (the grid footprint)."""
        return [self.distance_bounds[name][0] for name in self.schema]

    @classmethod
    def build(cls, record: ImputedRecord, pivots: "PivotTable",
              keywords: FrozenSet[str]) -> "RecordSynopsis":
        """Compute the synopsis of one imputed tuple against the pivot table."""
        distance_bounds: Dict[str, List[Tuple[float, float]]] = {}
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
            bounds: List[Tuple[float, float]] = []
            for pivot_value in pivots.all_pivots(attribute):
                low = 1.0
                high = 0.0
                for value in possible:
                    distance = text_distance(value, pivot_value) if value else 1.0
                    low = min(low, distance)
                    high = max(high, distance)
                bounds.append((low, high))
            distance_bounds[attribute] = bounds
            sizes = [len(tokenize(value)) for value in possible]
            token_size_bounds[attribute] = (min(sizes), max(sizes))

        return cls(
            record=record,
            distance_bounds=distance_bounds,
            token_size_bounds=token_size_bounds,
            may_have_keyword=record.may_contain_keyword(keywords),
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
    """Applies the strategies in order and records their pruning power."""

    keywords: FrozenSet[str]
    gamma: float
    alpha: float
    use_topic: bool = True
    use_similarity: bool = True
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
    tok_max, may_have_keyword, pivot_limit)``:

    * ``dist_lb`` / ``dist_ub`` — shape ``(d, P)`` where ``P`` is the
      maximum pivot count over the attributes; attributes with fewer pivots
      are edge-padded (replicating their last pivot, matching the
      ``min(pivot_index, len - 1)`` clamping of the scalar accessors);
    * ``tok_min`` / ``tok_max`` — shape ``(d,)`` token-size bounds;
    * ``may_have_keyword`` — the Theorem 4.1 flag;
    * ``pivot_limit`` — the number of *real* (un-padded) pivots shared by
      every attribute, i.e. the exact pivot range the scalar
      :func:`similarity_upper_bound` iterates.
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
    return (dist_lb, dist_ub,
            _np.array([pair[0] for pair in tok], dtype=_np.float64),
            _np.array([pair[1] for pair in tok], dtype=_np.float64),
            synopsis.may_have_keyword, min(counts))


#: Smallest vocabulary :meth:`PackedStore.begin_epoch` re-encodes: below it
#: a rebuild would cost more than the dictionary it frees.
VOCABULARY_FLOOR = 4096


def _expand(array, shape, dtype=_np.float64):
    """``array`` copied into the first rows of a zeroed ``shape`` array."""
    fresh = _np.zeros(shape, dtype=dtype)
    if array is not None:
        fresh[: array.shape[0]] = array
    return fresh


class PackedStore:
    """A resident, columnar store of packed synopses keyed by (rid, source).

    The ER-grid keeps one: in-window synopses occupy rows of shared
    ``(capacity, d, P)`` arrays, one column per field of
    :func:`pack_synopsis`, so that a whole batch of pairs gathers into the
    kernel's stacked matrices with one fancy-indexing operation per column.

    Beside the bound columns sits the **instance table** :func:`batch_refine`
    reads: one entry per possible world of every row's tuple, written at
    :meth:`insert`.  Row ``row`` owns the contiguous run
    ``inst_start[row]:inst_start[row] + inst_count[row]``, in
    ``ImputedRecord.instances()`` order — descending probability, the order
    Theorem 4.4's cut-off visits them in; a complete tuple is a run of one.
    Entry ``e`` is column ``e`` of ``inst_tokens``, ``inst_sizes`` and
    ``inst_prob``, so a gather of entries puts the kernel's lanes on the
    fast axis.  ``inst_tokens[:, e]`` holds, attribute after attribute in
    schema order, the ids of the instance's tokens under
    :attr:`vocabulary` — attribute ``j`` owns the rows
    ``token_offsets[j]:token_offsets[j + 1]``, as many as the widest token
    set seen on it, padded with ``-1`` — ``inst_sizes[:, e]`` the
    per-attribute set sizes and ``inst_prob[e]`` the instance's existence
    probability.  Runs are appended; a recycled row's run is garbage, and
    :meth:`begin_epoch` compacts the table once garbage outweighs the live
    runs.  Like the rest of the store the table is rebuilt from the window,
    never checkpointed.

    Row lifetime: a removed row keeps its data and still answers
    :meth:`rows_for` until the owner's next :meth:`begin_epoch` — a
    micro-batch evicts during maintenance but evaluates its pairs
    afterwards, so every candidate (and query) a batch recorded stays
    gatherable until that batch ends.  Every owner opens an epoch at batch
    start; only then are the rows removed during the previous batch
    recycled.
    """

    def __init__(self) -> None:
        #: source -> rid -> row, each in insertion order.
        self._rows: Dict[str, Dict[str, int]] = {}
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
        #: Per row: the first table entry of its run, and the run's length.
        self.inst_start = None
        self.inst_count = None
        #: token -> id of every token the instance table holds (garbage
        #: runs included, until the next rebuild); ids in insertion order.
        self.vocabulary: Dict[str, int] = {}
        self._vocabulary_base = 0
        self.token_offsets: List[int] = []
        self.inst_tokens = None
        self.inst_sizes = None
        self.inst_prob = None
        #: Table entries in use (live runs and garbage) / of them garbage.
        self.instance_rows = 0
        self._garbage = 0

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def begin_epoch(self) -> None:
        """Open a batch: recycle the rows removed during the previous one."""
        rows_by_id = self._rows_by_id
        for row in self._pending_free:
            # Unless the very same object was re-inserted meanwhile (it then
            # answers from its new row).
            if rows_by_id[id(self._objects[row])] == row:
                del rows_by_id[id(self._objects[row])]
            self._objects[row] = None
            self._garbage += int(self.inst_count[row])
        self._free.extend(self._pending_free)
        del self._pending_free[:]
        # No batch is in flight, so no gathered index or id outlives the
        # moves.  The vocabulary only ever grows with the stream's domain;
        # the runs it serves are bounded by the window.  Once it has doubled
        # since the last rebuild, renumber it down to the live runs' tokens.
        if len(self.vocabulary) > max(VOCABULARY_FLOOR,
                                      2 * self._vocabulary_base):
            self._compact()
            self._reencode()
        elif self._garbage > self.instance_rows - self._garbage:
            self._compact()

    def _compact(self) -> None:
        """Move the live rows' runs to the front of the table, in place."""
        live = _np.fromiter((row for rows in self._rows.values()
                             for row in rows.values()), dtype=_np.intp)
        counts = self.inst_count[live]
        starts = _np.cumsum(counts) - counts
        used = int(counts.sum())
        index = (_np.repeat(self.inst_start[live] - starts, counts)
                 + _np.arange(used))
        for table in (self.inst_tokens, self.inst_sizes, self.inst_prob):
            table[..., :used] = table[..., index]
        self.inst_start[live] = starts
        self.instance_rows, self._garbage = used, 0

    def _reencode(self) -> None:
        """Renumber the vocabulary to the tokens of a compact table, keeping
        the ids' order."""
        tokens = self.inst_tokens[:, : self.instance_rows]
        held = tokens >= 0
        present = _np.zeros(len(self.vocabulary), dtype=bool)
        present[tokens[held]] = True
        tokens[held] = (_np.cumsum(present, dtype=_np.int32) - 1)[tokens[held]]
        kept = list(compress(self.vocabulary, present.tolist()))
        self.vocabulary = dict(zip(kept, range(len(kept))))
        self._vocabulary_base = len(self.vocabulary)

    def _grow(self, capacity: int) -> None:
        dimensionality, pivot_width = self._shape  # type: ignore[misc]
        self.dist_lb = _expand(self.dist_lb,
                               (capacity, dimensionality, pivot_width))
        self.dist_ub = _expand(self.dist_ub,
                               (capacity, dimensionality, pivot_width))
        self.tok_min = _expand(self.tok_min, (capacity, dimensionality))
        self.tok_max = _expand(self.tok_max, (capacity, dimensionality))
        self.may_kw = _expand(self.may_kw, (capacity,), bool)
        self.limits = _expand(self.limits, (capacity,), _np.int64)
        self.inst_start = _expand(self.inst_start, (capacity,), _np.intp)
        self.inst_count = _expand(self.inst_count, (capacity,), _np.intp)

    def _grow_table(self, capacity: int) -> None:
        if self.inst_tokens is None:
            self.token_offsets = [0] * (self._shape[0] + 1)  # type: ignore
            self.inst_tokens = _np.empty((0, 0), dtype=_np.int32)
        self.inst_tokens = self._token_columns(capacity, self.token_offsets)
        sizes = _np.zeros((self._shape[0], capacity), dtype=_np.int32)
        if self.inst_sizes is not None:
            sizes[:, : self.inst_sizes.shape[1]] = self.inst_sizes
        self.inst_sizes = sizes
        self.inst_prob = _expand(self.inst_prob, (capacity,))

    def _token_columns(self, capacity: int, offsets: List[int]):
        """The token ids re-laid into ``capacity`` entries under ``offsets``
        (each attribute at least as wide as it is now), ``-1`` elsewhere."""
        old, old_offsets = self.inst_tokens, self.token_offsets
        fresh = _np.full((offsets[-1], capacity), -1, dtype=_np.int32)
        for start, low, high in zip(offsets, old_offsets, old_offsets[1:]):
            fresh[start:start + high - low, : old.shape[1]] = old[low:high]
        return fresh

    def _write_run(self, row: int, synopsis: RecordSynopsis) -> None:
        """Append the run of ``row``: one table entry per instance.

        A tuple whose candidate distributions all hold one value has one
        instance, read straight off them — each attribute's one possible
        value, the product of the candidates' probabilities in
        ``instances()``'s order — without enumerating ``instances()``.
        """
        record = synopsis.record
        candidates = record.candidates
        if all(len(distribution) == 1
               for distribution in candidates.values()):
            probability = 1.0
            values = record.base.values
            if candidates:
                values = dict(values)
                for name, distribution in candidates.items():
                    (values[name], weight), = distribution.items()
                    probability *= weight
            worlds = [(values, probability)]
        else:
            worlds = [(instance.record.values, instance.probability)
                      for instance in record.instances()]
        attributes = record.schema.attributes
        token_sets = [tokenize(worlds[0][0].get(name) or "")
                      for name in attributes]
        # Instances differ from the first one on the imputed attributes only.
        imputed = [] if len(worlds) == 1 else [
            (attributes.index(name), [tokenize(values[name])
                                      for values, _ in worlds])
            for name in candidates]
        offsets = self.token_offsets
        widths = [max(high - low, len(tokens))
                  for low, high, tokens in zip(offsets, offsets[1:],
                                               token_sets)]
        for index, column in imputed:
            widths[index] = max(widths[index], *map(len, column))
        if sum(widths) > offsets[-1]:
            # Some attribute outgrew its rows: widen by exact need.
            offsets = [0, *accumulate(widths)]
            self.inst_tokens = self._token_columns(self.inst_tokens.shape[1],
                                                   offsets)
            self.token_offsets = offsets
        vocabulary = self.vocabulary
        entry = [-1] * offsets[-1]
        for tokens, low in zip(token_sets, offsets):
            for column, token in enumerate(tokens, low):
                entry[column] = vocabulary.setdefault(token, len(vocabulary))
        start = self.instance_rows
        end = start + len(worlds)
        if end > self.inst_prob.shape[0]:
            self._grow_table(max(end, 2 * self.inst_prob.shape[0]))
        # Whole entries, so reused ones keep nothing of garbage.
        self.inst_tokens.T[start:end] = entry
        self.inst_sizes.T[start:end] = list(map(len, token_sets))
        for index, column in imputed:
            low, high = offsets[index], offsets[index + 1]
            encoded = {tokens: [*(vocabulary.setdefault(token, len(vocabulary))
                                  for token in tokens),
                                *[-1] * (high - low - len(tokens))]
                       for tokens in dict.fromkeys(column)}
            self.inst_tokens[low:high, start:end] = _np.array(
                [encoded[tokens] for tokens in column], dtype=_np.int32).T
            self.inst_sizes[index, start:end] = list(map(len, column))
        self.inst_prob[start:end] = [probability for _, probability in worlds]
        self.inst_start[row] = start
        self.inst_count[row] = len(worlds)
        self.instance_rows = end

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
            self._grow_table(64)
        elif shape != self._shape:
            raise ValueError(
                f"synopsis {(synopsis.rid, synopsis.source)!r} packs to "
                f"shape {shape}, the store holds {self._shape}: synopses of "
                "different pivot tables cannot share a store")
        rows = self._rows.setdefault(synopsis.source, {})
        row = rows.get(synopsis.rid)
        if row is not None and self._objects[row] is not synopsis:
            # A same-key re-arrival: the superseded synopsis may still be a
            # candidate of the batch in flight, so it keeps its row until
            # the next epoch like any other removal.
            self.remove(synopsis.rid, synopsis.source)
            row = None
        if row is None:
            if self._free:
                row = self._free.pop()
            else:
                # Allocated rows are exactly 0 .. len(rows) + len(free) +
                # len(pending_free) - 1; with an empty free list the next
                # fresh row is past all of them.
                row = len(self) + len(self._pending_free)
                if row >= self.may_kw.shape[0]:
                    self._grow(max(64, 2 * self.may_kw.shape[0]))
                self._objects.append(None)
            rows[synopsis.rid] = row
            self._objects[row] = synopsis
            self._rows_by_id[id(synopsis)] = row
        else:
            # A refresh: the row's previous run becomes garbage.
            self._garbage += int(self.inst_count[row])
        (self.dist_lb[row], self.dist_ub[row], self.tok_min[row],
         self.tok_max[row], self.may_kw[row], self.limits[row]) = packed
        self._write_run(row, synopsis)
        return row

    def remove(self, rid: str, source: str) -> bool:
        """Unbind one key; its row stays readable until the next epoch."""
        rows = self._rows.get(source)
        row = None if rows is None else rows.pop(rid, None)
        if row is None:
            return False
        self._pending_free.append(row)
        return True

    def source_rows(self, source: str) -> Dict[str, int]:
        """``rid -> row`` of one source's resident synopses, in insertion
        order (the live map: read it before the store changes)."""
        return self._rows.get(source, {})

    def synopsis_at(self, row: int) -> RecordSynopsis:
        """The synopsis object of one row — of a removed one too, until the
        next :meth:`begin_epoch`."""
        return self._objects[row]

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
    """The 5-tuple of stacked bound-kernel inputs for one row set: one
    fancy-indexing copy per packed column (the keyword column is read on
    its own, before any gather)."""
    return (store.dist_lb[index], store.dist_ub[index],
            store.tok_min[index], store.tok_max[index], store.limits[index])


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
    """Theorems 4.1 and 4.2 for a whole micro-batch of (query, candidate) pairs.

    ``query_rows`` and ``candidate_rows`` are equal-length integer arrays of
    resident ``store`` rows, pair ``k`` being ``(query_rows[k],
    candidate_rows[k])``; any number of distinct queries may be mixed.
    Theorem 4.1 is decided first, for every pair at once, from the store's
    keyword column alone; only the pairs it keeps are gathered
    (:func:`gather_rows`) and run through the Theorem 4.2 kernel body
    (:func:`batch_prune_stacked`) in blocks of :data:`PAIR_BLOCK`, under the
    thresholds and strategy switches of ``pruning``.

    Returns ``(alive, pruned_topic, pruned_similarity)`` where ``alive`` is
    the boolean survivor mask over the pairs (in order) and the counters
    attribute each pruned pair to the first strategy that eliminated it,
    exactly like :meth:`PruningPipeline.evaluate_pair`.  Survivor-for-survivor
    and count-for-count identical to evaluating :func:`topic_keyword_prune` /
    :func:`similarity_prune` per pair: the bound arithmetic performs the same
    IEEE operations on the same operands, only batched.
    """
    count = len(candidate_rows)
    alive = _np.zeros(count, dtype=bool)
    kept = slice(None)
    if pruning.use_topic and pruning.keywords:
        kept = (store.may_kw[query_rows]
                | store.may_kw[candidate_rows]).nonzero()[0]
        query_rows, candidate_rows = query_rows[kept], candidate_rows[kept]
    lanes = len(candidate_rows)
    survivors = _np.empty(lanes, dtype=bool)
    for start in range(0, lanes, PAIR_BLOCK):
        block = slice(start, start + PAIR_BLOCK)
        survivors[block] = batch_prune_stacked(
            gather_rows(store, query_rows[block]),
            gather_rows(store, candidate_rows[block]), pruning)
    alive[kept] = survivors
    return (alive, count - lanes,
            lanes - int(_np.count_nonzero(survivors)))


def batch_prune_stacked(query_stacked, stacked, pruning: PruningPipeline):
    """Theorem 4.2 over pre-stacked kernel inputs: the part of the
    :func:`batch_prune` cascade that runs on the pairs Theorem 4.1 kept.

    ``query_stacked`` and ``stacked`` are the two sides of the pairs in the
    5-tuple layout of :func:`gather_rows`: lane ``k`` is the pair
    ``(query_stacked[k], stacked[k])``.  Returns the boolean survivor mask
    over the lanes.
    """
    (query_lb, query_ub, query_tok_min, query_tok_max,
     query_limits) = query_stacked
    cand_lb, cand_ub, cand_tok_min, cand_tok_max, cand_limits = stacked

    if not pruning.use_similarity:
        return _np.ones(len(cand_limits), dtype=bool)

    # --- Theorem 4.2: similarity upper bound (Lemmas 4.1 + 4.2) ------------
    dimensionality = cand_lb.shape[1]
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
    return ~(best <= pruning.gamma)


#: Width of the second round of :func:`batch_refine`: the first round is
#: one position wide, every later one twice its predecessor.  Most
#: multi-instance pairs stop within their first ten positions; the few that
#: run to hundreds take a number of rounds logarithmic in their length and
#: evaluate fewer than twice the positions the scalar sweep visits.
ROUND = 8


def batch_refine(query_rows, candidate_rows, pruning: PruningPipeline,
                 store: PackedStore):
    """Theorem 4.4 / Eq. (2) for pairs of ``store`` rows, any instance counts.

    ``query_rows`` / ``candidate_rows`` pair up like those of
    :func:`batch_prune`.  Returns the ``(is_match, probability, cut)``
    arrays: :meth:`PruningPipeline.evaluate_pair`'s verdict and probability
    for pairs that reach refinement, and whether the cut-off stopped a pair
    short of its last instance pair (``pruned_by_instance``).

    A pair's visit sequence runs over its ``m × n`` instance pairs, left
    instance major, both runs in descending probability: position ``k`` is
    ``(left run + k // n, right run + k % n)``.  The sequence is evaluated
    in rounds over the pairs still open — the first one position wide,
    which decides every ``1 × 1`` pair, the second :data:`ROUND` wide, each
    later one twice the last.  Matched and explored mass are running sums
    along the round, carried in from the previous one (``add.accumulate``
    is sequential, so every float is the scalar ``+=``'s).  A pair stops at
    its first position where the matched mass exceeds ``α`` or matched +
    max(0, 1 − explored) is at most ``α`` — with ``use_instance`` off, at
    its last position only.

    Bit-identical to the scalar sweep: χ is the integer intersection and
    union counts of the two token-id sets, one division per attribute and a
    left-to-right sum in schema order against ``γ``; the topic test looks the
    ids of ``pruning.keywords`` up in the instances themselves, so it is
    exact under any keyword set, not just the one the synopses were built
    with.
    """
    alpha, stop_early = pruning.alpha, pruning.use_instance
    keyword_ids = None
    if pruning.keywords:
        vocabulary = store.vocabulary
        keyword_ids = _np.array([vocabulary[keyword]
                                 for keyword in pruning.keywords
                                 if keyword in vocabulary], dtype=_np.int32)
    left_run = store.inst_start[query_rows]
    right_run = store.inst_start[candidate_rows]
    right_count = store.inst_count[candidate_rows]
    count = len(candidate_rows)
    is_match = _np.zeros(count, dtype=bool)
    probability = _np.zeros(count)
    cut = _np.zeros(count, dtype=bool)
    # The open pairs, and per open pair the round's column of its last
    # position (``>= width``: it stays open) and its matched / explored sums.
    pairs = _np.arange(count)
    ends = store.inst_count[query_rows] * right_count - 1
    carried = _np.zeros((2, count))
    position, width = 0, 1
    while len(pairs):
        # One row per column of the round, one column per open pair.
        columns = _np.arange(width)[:, _np.newaxis]
        column, owner = (columns <= ends).nonzero()
        pair = pairs[owner]
        left, right = _np.divmod(column + position, right_count[pair])
        left += left_run[pair]
        right += right_run[pair]
        mass = store.inst_prob[left] * store.inst_prob[right]
        # Row 0 carries the sums in; lanes past a pair's end add 0.0.
        running = _np.zeros((2, width + 1, len(pairs)))
        running[:, 0] = carried
        running[0, column + 1, owner] = _np.where(
            _instance_pairs_match(left, right, store, keyword_ids,
                                  pruning.gamma), mass, 0.0)
        running[1, column + 1, owner] = mass
        running = running.cumsum(axis=1)
        matched, explored = running[:, 1:]

        stop = columns == ends
        if stop_early:
            # ``upper >= matched``: a rejection is never an acceptance.
            upper = matched + _np.maximum(0.0, 1.0 - explored)
            reject = upper <= alpha
            stop |= (matched > alpha) | reject
        closed = stop.any(axis=0)
        rows = closed.nonzero()[0]
        first = stop.argmax(axis=0)[rows]
        done = pairs[rows]
        final = matched[first, rows]
        is_match[done] = final > alpha
        if stop_early:
            rejected = reject[first, rows]
            probability[done] = _np.where(rejected, upper[first, rows], final)
            cut[done] = rejected & (first < ends[rows])
        else:
            probability[done] = final

        rows = (~closed).nonzero()[0]
        pairs, ends = pairs[rows], ends[rows] - width
        carried = running[:, -1, rows]
        position += width
        width = ROUND if position == 1 else 2 * width
    return is_match, probability, cut


def _instance_pairs_match(left, right, store: PackedStore, keyword_ids,
                          gamma: float):
    """χ of the instance pairs ``(left[k], right[k])`` of the instance table,
    in blocks of :data:`PAIR_BLOCK` lanes (no topic test when
    ``keyword_ids`` is ``None``)."""
    tokens, sizes = store.inst_tokens, store.inst_sizes
    offsets = store.token_offsets
    widths = _np.diff(offsets)[:, _np.newaxis]
    count = len(left)
    matches = _np.empty(count, dtype=bool)
    for start in range(0, count, PAIR_BLOCK):
        block = slice(start, start + PAIR_BLOCK)
        # Lanes are the last axis of every temporary: the compares run
        # along it.
        left_ids = tokens.take(left[block], axis=1)
        right_ids = tokens.take(right[block], axis=1)
        left_sizes = sizes.take(left[block], axis=1)
        right_sizes = sizes.take(right[block], axis=1)
        lanes = left_ids.shape[1]
        intersection = _np.empty(left_sizes.shape, dtype=_np.int32)
        for attribute, (low, high) in enumerate(zip(offsets, offsets[1:])):
            equal = left_ids[low:high, None] == right_ids[None, low:high]
            _np.add.reduce(equal.reshape(-1, lanes).view(_np.uint8), axis=0,
                           out=intersection[attribute])
        # Padding equals padding: take those cells back out.
        intersection -= (widths - left_sizes) * (widths - right_sizes)
        union = left_sizes + right_sizes - intersection
        jaccard = _np.zeros(union.shape)
        # ``where`` skips the empty intersections, the 0 / 0 of two empty
        # sets among them.
        _np.divide(intersection, union, out=jaccard, where=intersection > 0)
        # ``add.accumulate`` sums the attributes in schema order.
        similar = jaccard.cumsum(axis=0)[-1] > gamma
        if keyword_ids is not None:
            # Few lanes clear γ; only they need their topic flags.
            lanes = similar.nonzero()[0]
            similar[lanes] = (_has_token(left_ids[:, lanes], keyword_ids)
                              | _has_token(right_ids[:, lanes], keyword_ids))
        matches[block] = similar
    return matches


def _has_token(token_ids, wanted):
    """Columns of ``token_ids`` holding at least one of the ``wanted`` ids."""
    return (token_ids[:, :, _np.newaxis] == wanted).any(axis=(0, 2))
