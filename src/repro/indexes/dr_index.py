"""The DR-index ``I_R`` over the data repository (Section 5.1, Figure 3).

Every repository sample ``s`` is converted into a ``d``-dimensional point
whose ``x``-th coordinate is the Jaccard distance of ``s[A_x]`` to the main
pivot of attribute ``A_x``, and the points are indexed in an R-tree.  The
paper's nodes also carry a keyword vector and auxiliary-pivot and
token-size intervals for pruning inside its index join; every probe here
filters on the query rectangle alone, so the nodes keep only their
bounding rectangles.

At imputation time, given an incomplete tuple and a CDD rule, the index
returns the samples that can possibly satisfy the rule's determinant
constraints: by the triangle inequality a sample whose main-pivot coordinate
differs from the record's by more than the rule's ``ε_max`` can never be
within distance ``ε_max`` of the record, and a constant constraint pins the
coordinate exactly.

The tree walk plus the exact per-sample re-check
(:meth:`DRIndex.candidate_samples` + :meth:`CDDRule.matches_sample`) is the
scalar reference.  :meth:`DRIndex.matching_samples` answers the same
question — which samples satisfy the rule, and how many the query rectangle
let through — from a packed columnar mirror of the repository, as boolean
masks over all samples at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.similarity import (
    jaccard_distance_column,
    text_distance,
    token_postings,
    tokenize,
)
from repro.core.tuples import Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
    CDDRule,
)
from repro.imputation.repository import DataRepository
from repro.indexes.artree import ARTree, Rect
from repro.indexes.pivots import PivotTable


@dataclass
class _PackedRepository:
    """Columnar mirror of the indexed samples, rows in tree-traversal order.

    ``points`` is the ``N×d`` main-pivot coordinate matrix; per attribute
    (schema order) ``postings`` / ``sizes`` are its token index
    (:func:`token_postings`) and ``value_rows`` maps each distinct value to
    the rows holding it (constant constraints).
    """

    samples: List[Record]
    points: "np.ndarray"
    postings: List[Dict[str, "np.ndarray"]]
    sizes: List["np.ndarray"]
    value_rows: List[Dict[str, "np.ndarray"]]


@dataclass
class _RecordProbe:
    """What one record contributes to every rule probed for it: per
    attribute index, its main-pivot coordinate and its distance column."""

    record: Optional[Record] = None
    coordinates: Dict[int, float] = field(default_factory=dict)
    distances: Dict[int, "np.ndarray"] = field(default_factory=dict)


class DRIndex:
    """R-tree index over the converted repository samples."""

    def __init__(self, repository: DataRepository, pivots: PivotTable,
                 max_entries: int = 16) -> None:
        self.repository = repository
        self.pivots = pivots
        self.schema: Schema = repository.schema
        #: Tree nodes visited by :meth:`candidate_samples` (the scalar path).
        self.nodes_visited = 0
        #: Probes answered by :meth:`matching_samples` (the packed path).
        self.packed_probes = 0
        self._packed: Optional[_PackedRepository] = None
        self._probe = _RecordProbe()
        self._retriever = None
        self._tree = ARTree(dimensions=self.schema.dimensionality,
                            max_entries=max_entries)
        self._attribute_order = list(self.schema)
        self._attribute_index = {attribute: index for index, attribute
                                 in enumerate(self._attribute_order)}
        for sample in repository.samples:
            self._tree.insert_point(self._sample_point(sample), sample)

    # -- construction helpers ------------------------------------------------
    def _sample_point(self, sample: Record) -> List[float]:
        """Main-pivot coordinates of one repository sample."""
        return [
            text_distance(sample[attribute], self.pivots.main_pivot(attribute))
            for attribute in self._attribute_order
        ]

    # -- basic info -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tree)

    @property
    def height(self) -> int:
        return self._tree.height()

    # -- dynamic maintenance (Section 5.5) ----------------------------------------
    def index_sample(self, sample: Record) -> None:
        """Index one sample that is *already* part of the repository.

        Use when the caller owns the repository mutation (e.g. the engine's
        ``add_repository_samples``, which adds the sample to ``R`` explicitly
        and then indexes it); :meth:`insert_sample` does both in one call.
        """
        self._tree.insert_point(self._sample_point(sample), sample)
        # An insertion can split nodes and reorder the traversal, so the
        # packed mirror is rebuilt by the next probe rather than appended to.
        self._packed = None

    def insert_sample(self, sample: Record) -> None:
        """Add one new complete sample to both the repository and the index."""
        self.repository.add_sample(sample)
        self.index_sample(sample)

    # -- queries --------------------------------------------------------------------
    def query_rect_for_rule(self, record: Record,
                            rule: CDDRule) -> Optional[Rect]:
        """The converted-space query rectangle implied by a rule and a record.

        Returns ``None`` when the rule cannot be evaluated on the record
        (a determinant value is missing).
        """
        intervals: List[Tuple[float, float]] = []
        for attribute in self._attribute_order:
            constraint = rule.constraint_for(attribute)
            if constraint is None or constraint.kind not in (
                    CONSTRAINT_CONSTANT, CONSTRAINT_INTERVAL):
                intervals.append((0.0, 1.0))
                continue
            value = record[attribute]
            if value is None:
                return None
            coordinate = text_distance(value, self.pivots.main_pivot(attribute))
            if constraint.kind == CONSTRAINT_CONSTANT:
                # The sample must equal the constant, whose coordinate equals
                # the record's coordinate (the record matches the constant).
                intervals.append((max(0.0, coordinate - 1e-9),
                                  min(1.0, coordinate + 1e-9)))
            else:
                _, epsilon_max = constraint.interval
                intervals.append((max(0.0, coordinate - epsilon_max),
                                  min(1.0, coordinate + epsilon_max)))
        return Rect.from_intervals(intervals)

    def candidate_samples(self, record: Record, rule: CDDRule) -> List[Record]:
        """Repository samples that may satisfy the rule w.r.t. ``record``.

        The returned superset still has to be verified exactly with
        :meth:`CDDRule.matches_sample`; the index only guarantees no false
        dismissals (triangle inequality).
        """
        query = self.query_rect_for_rule(record, rule)
        if query is None:
            return []
        results, visited = self._tree.traverse(
            node_filter=lambda rect: rect.intersects(query),
            entry_filter=lambda entry: entry.rect.intersects(query),
        )
        self.nodes_visited += visited
        return [entry.payload for entry in results]

    # -- packed probe ---------------------------------------------------------------
    def _packed_repository(self) -> _PackedRepository:
        """The columnar mirror, (re)built on first use after a tree change."""
        if self._packed is not None:
            return self._packed
        # ``traverse`` is a stack DFS whose filters only skip subtrees, so
        # any probe's result is a subsequence of the unfiltered traversal.
        # Laying the rows out in that order makes a row mask reproduce
        # ``candidate_samples``' order, which downstream dict insertion and
        # float summation orders depend on.
        entries, _ = self._tree.traverse(lambda rect: True)
        samples = [entry.payload for entry in entries]
        dimensions = len(self._attribute_order)
        points = np.array([entry.rect.mins for entry in entries],
                          dtype=np.float64).reshape(len(entries), dimensions)
        postings, sizes, value_rows = [], [], []
        for attribute in self._attribute_order:
            values = [sample[attribute] for sample in samples]
            attribute_postings, attribute_sizes = token_postings(values)
            postings.append(attribute_postings)
            sizes.append(attribute_sizes)
            rows_by_value: Dict[str, List[int]] = {}
            for row, value in enumerate(values):
                rows_by_value.setdefault(value, []).append(row)
            value_rows.append({value: np.array(rows, dtype=np.intp)
                               for value, rows in rows_by_value.items()})
        self._packed = _PackedRepository(samples, points, postings, sizes,
                                         value_rows)
        self._probe = _RecordProbe()
        return self._packed

    def matching_samples(self, record: Record,
                         rule: CDDRule) -> Tuple[int, List[Record]]:
        """``(samples scanned, samples satisfying the rule)`` in one pass.

        Equivalent to filtering :meth:`candidate_samples` with
        :meth:`CDDRule.matches_sample` — same count of samples the query
        rectangle lets through, same matched sample objects in the same
        order — but evaluated as boolean masks over the packed mirror: the
        rectangle test and every determinant constraint use the scalar
        code's exact float operations, so the result is identical, not
        close.  Consecutive probes for the same record object (one per rule
        of one ``candidate_distribution`` call) share the record's
        coordinates and distance columns.
        """
        packed = self._packed_repository()
        self.packed_probes += 1
        probe = self._probe
        if probe.record is not record:
            probe = self._probe = _RecordProbe(record)
        total = len(packed.samples)
        in_rect = np.ones(total, dtype=bool)
        satisfied = np.ones(total, dtype=bool)
        for constraint in rule.determinants:
            if constraint.kind not in (CONSTRAINT_CONSTANT, CONSTRAINT_INTERVAL):
                continue
            value = record[constraint.attribute]
            if value is None:
                return 0, []
            index = self._attribute_index[constraint.attribute]
            coordinate = probe.coordinates.get(index)
            if coordinate is None:
                coordinate = probe.coordinates[index] = text_distance(
                    value, self.pivots.main_pivot(constraint.attribute))
            column = packed.points[:, index]
            if constraint.kind == CONSTRAINT_CONSTANT:
                reach = 1e-9
                holds = np.zeros(total, dtype=bool)
                rows = packed.value_rows[index].get(value)
                if value == constraint.constant and rows is not None:
                    holds[rows] = True
            else:
                low, high = constraint.interval
                reach = high
                distances = probe.distances.get(index)
                if distances is None:
                    distances = probe.distances[index] = jaccard_distance_column(
                        tokenize(value), packed.postings[index],
                        packed.sizes[index])
                holds = (low - 1e-9 <= distances) & (distances <= high + 1e-9)
            # Rect.intersects of a point entry with the query rectangle.
            in_rect &= ((column <= min(1.0, coordinate + reach) + 1e-12)
                        & (max(0.0, coordinate - reach) <= column + 1e-12))
            satisfied &= holds
        samples = packed.samples
        return (int(np.count_nonzero(in_rect)),
                [samples[row]
                 for row in np.flatnonzero(in_rect & satisfied).tolist()])

    def make_retriever(self):
        """A ``SampleRetriever`` hook for :class:`~repro.imputation.imputer.CDDImputer`.

        Every call returns the same function object, so "this imputer
        retrieves through this index" can be checked by identity.
        """
        if self._retriever is None:
            def retriever(record: Record, rule: CDDRule) -> Sequence[Record]:
                return self.candidate_samples(record, rule)
            self._retriever = retriever
        return self._retriever

    def range_query(self, intervals: Sequence[Tuple[float, float]]) -> List[Record]:
        """Raw converted-space range query: every sample whose point lies in
        the box ``intervals`` (one ``(low, high)`` per schema attribute)."""
        entries = self._tree.range_search(Rect.from_intervals(intervals))
        return [entry.payload for entry in entries]
