"""The DR-index ``I_R`` over the data repository (Section 5.1, Figure 3).

Every repository sample ``s`` is converted into a ``d``-dimensional point
whose ``x``-th coordinate is the Jaccard distance of ``s[A_x]`` to the main
pivot of attribute ``A_x``.  The paper indexes the points in an aR-tree for
its index join; here they are one flat table in ``repository.samples``
order, the order the unindexed scan reads, and every probe scans it (README
"The imputation indexes are flat tables").

At imputation time, given an incomplete tuple and a CDD rule, the index
returns the samples that can possibly satisfy the rule's determinant
constraints: by the triangle inequality a sample whose main-pivot coordinate
differs from the record's by more than the rule's ``ε_max`` can never be
within distance ``ε_max`` of the record, and a constant constraint pins the
coordinate exactly.

The per-sample loop plus the exact re-check
(:meth:`DRIndex.candidate_samples` + :meth:`CDDRule.matches_sample`) is the
scalar reference, which a :class:`~repro.imputation.imputer.CDDImputer`
built with ``dr_index=`` runs.  :meth:`DRIndex.matching_samples` answers the
same question — which samples satisfy the rule, and how many the query
rectangle let through — as boolean masks over the table's columns; the
imputer runs it once the batched runtime sets its ``packed_index`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
    AttributeConstraint,
    CDDRule,
)
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import PivotTable


@dataclass
class _PackedRepository:
    """The indexed samples as columns, rows in ``repository.samples`` order.

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


#: One side of a query rectangle: the constraint, its attribute's index and
#: the ``[low, high]`` range a sample's coordinate must meet.
_Side = Tuple[AttributeConstraint, int, float, float]


class DRIndex:
    """Flat table of the converted repository samples."""

    def __init__(self, repository: DataRepository, pivots: PivotTable) -> None:
        self.repository = repository
        self.pivots = pivots
        self.schema: Schema = repository.schema
        #: Probes answered by :meth:`matching_samples` (the packed path).
        self.packed_probes = 0
        self._packed: Optional[_PackedRepository] = None
        self._probe = _RecordProbe()
        self._attribute_order = list(self.schema)
        self._attribute_index = {attribute: index for index, attribute
                                 in enumerate(self._attribute_order)}
        self._packed_repository()

    def __len__(self) -> int:
        return len(self._packed_repository().samples)

    # -- dynamic maintenance (Section 5.5) ----------------------------------------
    def index_sample(self, sample: Record) -> None:
        """Index one sample that is *already* part of the repository.

        The caller owns the repository mutation (e.g. the engine's
        ``add_repository_samples``, which adds the sample to ``R`` explicitly
        and then indexes it).
        """
        # The table mirrors ``repository.samples``, which holds ``sample``:
        # the next probe rebuilds it from there.
        self._packed = None

    # -- the table ------------------------------------------------------------------
    def _packed_repository(self) -> _PackedRepository:
        """The table, (re)built on first use after a repository change."""
        if self._packed is not None:
            return self._packed
        samples = list(self.repository.samples)
        points = np.array([
            [text_distance(sample[attribute], self.pivots.main_pivot(attribute))
             for attribute in self._attribute_order]
            for sample in samples], dtype=np.float64).reshape(
                len(samples), len(self._attribute_order))
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

    # -- queries --------------------------------------------------------------------
    def _query_sides(self, record: Record,
                     rule: CDDRule) -> Optional[List[_Side]]:
        """The converted-space query rectangle implied by a rule and a record,
        one side per constant or interval determinant.

        Returns ``None`` when the rule cannot be evaluated on the record
        (a determinant value is missing).  Consecutive calls for the same
        record object share its coordinates.
        """
        probe = self._probe
        if probe.record is not record:
            probe = self._probe = _RecordProbe(record)
        sides: List[_Side] = []
        for constraint in rule.determinants:
            if constraint.kind not in (CONSTRAINT_CONSTANT, CONSTRAINT_INTERVAL):
                continue
            value = record[constraint.attribute]
            if value is None:
                return None
            index = self._attribute_index[constraint.attribute]
            coordinate = probe.coordinates.get(index)
            if coordinate is None:
                coordinate = probe.coordinates[index] = text_distance(
                    value, self.pivots.main_pivot(constraint.attribute))
            # A constant pins the sample to the record's coordinate (the
            # record matches the constant).
            reach = (1e-9 if constraint.kind == CONSTRAINT_CONSTANT
                     else constraint.interval[1])
            sides.append((constraint, index, max(0.0, coordinate - reach),
                          min(1.0, coordinate + reach)))
        return sides

    def candidate_samples(self, record: Record, rule: CDDRule) -> List[Record]:
        """Repository samples that may satisfy the rule w.r.t. ``record``.

        The returned superset still has to be verified exactly with
        :meth:`CDDRule.matches_sample`; the index only guarantees no false
        dismissals (triangle inequality).
        """
        packed = self._packed_repository()
        sides = self._query_sides(record, rule)
        if sides is None:
            return []
        columns = [(packed.points[:, index].tolist(), low, high)
                   for _, index, low, high in sides]
        return [sample for row, sample in enumerate(packed.samples)
                if all(column[row] <= high + 1e-12 and low <= column[row] + 1e-12
                       for column, low, high in columns)]

    def matching_samples(self, record: Record,
                         rule: CDDRule) -> Tuple[int, List[Record]]:
        """``(samples scanned, samples satisfying the rule)`` in one pass.

        Equivalent to filtering :meth:`candidate_samples` with
        :meth:`CDDRule.matches_sample` — same count of samples the query
        rectangle lets through, same matched sample objects in the same
        order — but evaluated as boolean masks over the table: the
        rectangle test and every determinant constraint use the scalar
        code's exact float operations, so the result is identical, not
        close.  Consecutive probes for the same record object (one per rule
        of one ``candidate_distribution`` call) share the record's
        coordinates and distance columns.
        """
        packed = self._packed_repository()
        self.packed_probes += 1
        sides = self._query_sides(record, rule)
        if sides is None:
            return 0, []
        distances = self._probe.distances
        total = len(packed.samples)
        in_rect = np.ones(total, dtype=bool)
        satisfied = np.ones(total, dtype=bool)
        for constraint, index, low, high in sides:
            column = packed.points[:, index]
            in_rect &= (column <= high + 1e-12) & (low <= column + 1e-12)
            value = record[constraint.attribute]
            if constraint.kind == CONSTRAINT_CONSTANT:
                holds = np.zeros(total, dtype=bool)
                rows = packed.value_rows[index].get(value)
                if value == constraint.constant and rows is not None:
                    holds[rows] = True
            else:
                low_distance, high_distance = constraint.interval
                column_distances = distances.get(index)
                if column_distances is None:
                    column_distances = distances[index] = jaccard_distance_column(
                        tokenize(value), packed.postings[index],
                        packed.sizes[index])
                holds = ((low_distance - 1e-9 <= column_distances)
                         & (column_distances <= high_distance + 1e-9))
            satisfied &= holds
        samples = packed.samples
        return (int(np.count_nonzero(in_rect)),
                [samples[row]
                 for row in np.flatnonzero(in_rect & satisfied).tolist()])
