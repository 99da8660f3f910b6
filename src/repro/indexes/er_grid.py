"""The ER-grid data synopsis ``G_ER`` over the sliding windows (Section 5.2).

The grid partitions the pivot-converted space ``[0, 1]^d`` into equal-size
cells.  Every in-window imputed tuple is registered in all cells its
coordinate rectangle (the per-attribute main-pivot distance intervals of its
possible values) intersects.  Cells maintain aggregates — a keyword flag,
per-attribute distance intervals and token-size intervals — which allow the
engine to discard whole cells with the topic and similarity bounds before
looking at individual tuples.

The grid is maintained incrementally: expired tuples are evicted and their
cells' aggregates recomputed; new tuples are inserted together with their
pre-computed :class:`~repro.core.pruning.RecordSynopsis`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.core.pruning import (
    PackedStore,
    RecordSynopsis,
    batch_cell_scan,
    min_attribute_distance,
)
from repro.core.tuples import ImputedRecord, Schema


@dataclass
class GridCell:
    """One cell of the ER-grid with its aggregates."""

    coordinates: Tuple[int, ...]
    entries: Dict[Tuple[str, str], RecordSynopsis] = field(default_factory=dict)
    may_have_keyword: bool = False
    distance_intervals: Optional[List[Tuple[float, float]]] = None
    token_size_intervals: Optional[List[Tuple[int, int]]] = None

    def __len__(self) -> int:
        return len(self.entries)

    def recompute(self, schema: Schema) -> None:
        """Refresh the cell aggregates from its current entries."""
        if not self.entries:
            self.may_have_keyword = False
            self.distance_intervals = None
            self.token_size_intervals = None
            return
        self.may_have_keyword = any(entry.may_have_keyword
                                    for entry in self.entries.values())
        distance: List[Tuple[float, float]] = []
        sizes: List[Tuple[int, int]] = []
        for attribute in schema:
            lows = []
            highs = []
            size_lows = []
            size_highs = []
            for entry in self.entries.values():
                low, high = entry.main_interval(attribute)
                lows.append(low)
                highs.append(high)
                size_low, size_high = entry.token_size_bounds[attribute]
                size_lows.append(size_low)
                size_highs.append(size_high)
            distance.append((min(lows), max(highs)))
            sizes.append((min(size_lows), max(size_highs)))
        self.distance_intervals = distance
        self.token_size_intervals = sizes

    def add(self, synopsis: RecordSynopsis, schema: Schema) -> None:
        """Register one tuple synopsis and update the aggregates incrementally."""
        key = (synopsis.record.rid, synopsis.record.source)
        self.entries[key] = synopsis
        self.may_have_keyword = self.may_have_keyword or synopsis.may_have_keyword
        new_distance: List[Tuple[float, float]] = []
        new_sizes: List[Tuple[int, int]] = []
        for index, attribute in enumerate(schema):
            low, high = synopsis.main_interval(attribute)
            size_low, size_high = synopsis.token_size_bounds[attribute]
            if self.distance_intervals is None:
                new_distance.append((low, high))
                new_sizes.append((size_low, size_high))
            else:
                old_low, old_high = self.distance_intervals[index]
                new_distance.append((min(old_low, low), max(old_high, high)))
                old_size_low, old_size_high = self.token_size_intervals[index]  # type: ignore[index]
                new_sizes.append((min(old_size_low, size_low),
                                  max(old_size_high, size_high)))
        self.distance_intervals = new_distance
        self.token_size_intervals = new_sizes

    def refresh_from_rows(self, store: PackedStore) -> None:
        """Columnar :meth:`recompute` over the (non-empty) entries' ``store``
        rows.

        min / max / any are exact, so the aggregates equal the scalar walk's
        value for value (and type for type).
        """
        rows = store.rows_for(self.entries.values())
        self.may_have_keyword = bool(store.may_kw[rows].any())
        self.distance_intervals = list(zip(
            store.dist_lb[rows, :, 0].min(axis=0).tolist(),
            store.dist_ub[rows, :, 0].max(axis=0).tolist()))
        self.token_size_intervals = list(zip(
            store.tok_min[rows].min(axis=0).astype(int).tolist(),
            store.tok_max[rows].max(axis=0).astype(int).tolist()))

    def remove(self, rid: str, source: str, schema: Schema,
               store: Optional[PackedStore] = None) -> bool:
        """Evict one tuple and re-derive the aggregates from the remaining
        entries — from their rows of ``store`` when the grid keeps one, by
        the scalar walk otherwise."""
        removed = self.entries.pop((rid, source), None)
        if removed is None:
            return False
        if store is None or not self.entries:
            self.recompute(schema)
        else:
            self.refresh_from_rows(store)
        return True


class CellStore:
    """A resident, columnar mirror of the per-cell aggregates.

    The cell-level pruning of ``candidate_synopses`` reads exactly two
    aggregates per cell — the keyword flag and the per-attribute distance
    intervals — so they are packed into dense arrays (``lb`` / ``ub`` of
    shape ``(capacity, d)``, a boolean ``may_kw``) keyed by cell coordinates.
    The grid maintains the store incrementally beside its
    :class:`~repro.core.pruning.PackedStore`: every ``GridCell`` aggregate
    refresh rewrites one row, evicted cells recycle their rows through a
    free list, and the whole-grid scan becomes one
    :func:`~repro.core.pruning.batch_cell_scan` kernel call instead of a
    per-cell Python walk.
    """

    def __init__(self, dimensionality: int) -> None:
        self.dimensionality = dimensionality
        self._rows: Dict[Tuple[int, ...], int] = {}
        self._free: List[int] = []
        self.lb = None
        self.ub = None
        self.may_kw = None

    def __len__(self) -> int:
        return len(self._rows)

    def _grow(self, capacity: int) -> None:
        def expand(array, shape, dtype=float):
            fresh = _np.zeros(shape, dtype=dtype)
            if array is not None:
                fresh[: array.shape[0]] = array
            return fresh

        self.lb = expand(self.lb, (capacity, self.dimensionality))
        self.ub = expand(self.ub, (capacity, self.dimensionality))
        self.may_kw = expand(self.may_kw, (capacity,), dtype=bool)

    def update(self, cell: GridCell) -> None:
        """Write (or refresh) one cell's aggregate row."""
        row = self._rows.get(cell.coordinates)
        if row is None:
            if self._free:
                row = self._free.pop()
            else:
                row = len(self._rows)
                if self.may_kw is None or row >= self.may_kw.shape[0]:
                    self._grow(max(64, 2 * row))
            self._rows[cell.coordinates] = row
        for index, (low, high) in enumerate(cell.distance_intervals):
            self.lb[row, index] = low
            self.ub[row, index] = high
        self.may_kw[row] = cell.may_have_keyword

    def remove(self, coordinates: Tuple[int, ...]) -> bool:
        row = self._rows.pop(coordinates, None)
        if row is None:
            return False
        self._free.append(row)
        return True

    def row_of(self, coordinates: Tuple[int, ...]) -> Optional[int]:
        return self._rows.get(coordinates)

    def scan(self, rectangle: Sequence[Tuple[float, float]], margin: float,
             require_keyword: bool):
        """Survivor mask (by row) of the two cell-level aggregate tests.

        A row survives when its min converted-space L1 distance to the query
        rectangle is below ``margin`` and — with ``require_keyword`` — its
        cell may contain a keyword-bearing tuple.  Free rows carry stale
        aggregates; callers only consult rows of live cells.
        """
        if self.lb is None:
            # Enabled-but-empty store: no row was ever written (arrays are
            # only allocated by the first insert), so nothing can survive.
            # A lookup may legitimately precede the first insert — e.g. a
            # query-time resolve against a freshly enabled grid — and must
            # see an all-dead mask, not a crash on the ``None`` arrays.
            return _np.zeros(0, dtype=bool)
        query_lb = _np.fromiter((low for low, _ in rectangle), dtype=float,
                                count=len(rectangle))
        query_ub = _np.fromiter((high for _, high in rectangle), dtype=float,
                                count=len(rectangle))
        totals = batch_cell_scan(query_lb, query_ub, self.lb, self.ub)
        alive = totals < margin
        if require_keyword:
            alive &= self.may_kw
        return alive


class ERGrid:
    """The ER-grid synopsis over the in-window imputed tuples of all streams."""

    def __init__(self, schema: Schema, cells_per_dim: int = 5) -> None:
        if cells_per_dim < 1:
            raise ValueError("cells_per_dim must be >= 1")
        self.schema = schema
        self.cells_per_dim = cells_per_dim
        self._cells: Dict[Tuple[int, ...], GridCell] = {}
        self._record_cells: Dict[Tuple[str, str], List[Tuple[int, ...]]] = {}
        self._synopses: Dict[Tuple[str, str], RecordSynopsis] = {}
        self._packed_store: Optional[PackedStore] = None
        self._cell_store: Optional[CellStore] = None
        self.cells_examined = 0
        self.tuples_examined = 0

    # -- resident packed store ---------------------------------------------------
    @property
    def packed_store(self) -> Optional[PackedStore]:
        """The resident columnar synopsis store (``None`` until enabled)."""
        return self._packed_store

    def enable_packed_store(self) -> PackedStore:
        """Keep a columnar :class:`PackedStore` in sync with the grid.

        Enabled on demand by the two callers of the row cascade — every
        ``MicroBatchExecutor`` batch and every query-time ``resolve`` — so a
        serial run that is never read pays nothing.  Idempotent: the first
        call back-fills the current window contents, afterwards
        :meth:`insert` / :meth:`remove` maintain the store incrementally.
        """
        if self._packed_store is None:
            store = PackedStore()
            for synopsis in self._synopses.values():
                store.insert(synopsis)
            self._packed_store = store
        return self._packed_store

    def begin_epoch(self) -> None:
        """Open a batch: the packed store (if any) recycles the rows evicted
        during the previous one.  Every executor calls this at batch start —
        evicted rows stay readable for exactly the batch that evicted them.
        """
        if self._packed_store is not None:
            self._packed_store.begin_epoch()

    @property
    def cell_store(self) -> Optional["CellStore"]:
        """The resident columnar cell-aggregate store (``None`` until enabled)."""
        return self._cell_store

    def enable_cell_store(self) -> "CellStore":
        """Keep a columnar :class:`CellStore` in sync with the cell aggregates.

        Enabled on demand by the vectorized lookup path (the serial executor
        pays nothing); on first call the current cells are back-filled,
        afterwards :meth:`insert` / :meth:`remove` maintain the store
        incrementally and :meth:`candidate_synopses` scans the whole grid
        with one :func:`~repro.core.pruning.batch_cell_scan` call.
        """
        if self._cell_store is None:
            store = CellStore(len(self.schema))
            for cell in self._cells.values():
                store.update(cell)
            self._cell_store = store
        return self._cell_store

    # -- coordinate helpers ------------------------------------------------------
    def _bucket(self, value: float) -> int:
        """Cell index of one coordinate value."""
        clamped = min(max(value, 0.0), 1.0)
        return min(self.cells_per_dim - 1, int(clamped * self.cells_per_dim))

    def _bucket_range(self, low: float, high: float) -> range:
        return range(self._bucket(low), self._bucket(high) + 1)

    def _cells_for_rectangle(
        self, rectangle: Sequence[Tuple[float, float]]
    ) -> Iterable[Tuple[int, ...]]:
        ranges = [self._bucket_range(low, high) for low, high in rectangle]
        return itertools.product(*ranges)

    def cell_bounds(self, coordinates: Tuple[int, ...]) -> List[Tuple[float, float]]:
        """Coordinate-space bounds of one cell."""
        width = 1.0 / self.cells_per_dim
        return [(index * width, (index + 1) * width) for index in coordinates]

    # -- maintenance ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._synopses)

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    def contains(self, rid: str, source: str) -> bool:
        return (rid, source) in self._synopses

    def get_synopsis(self, rid: str, source: str) -> Optional[RecordSynopsis]:
        return self._synopses.get((rid, source))

    def insert(self, synopsis: RecordSynopsis) -> None:
        """Insert one imputed tuple (Algorithm 2, lines 11–13)."""
        key = (synopsis.record.rid, synopsis.record.source)
        if key in self._synopses:
            self.remove(*key)
        rectangle = synopsis.coordinate_rectangle()
        cell_keys: List[Tuple[int, ...]] = []
        for coordinates in self._cells_for_rectangle(rectangle):
            cell = self._cells.get(coordinates)
            if cell is None:
                cell = GridCell(coordinates=coordinates)
                self._cells[coordinates] = cell
            cell.add(synopsis, self.schema)
            if self._cell_store is not None:
                self._cell_store.update(cell)
            cell_keys.append(coordinates)
        self._record_cells[key] = cell_keys
        self._synopses[key] = synopsis
        if self._packed_store is not None:
            self._packed_store.insert(synopsis)

    def remove(self, rid: str, source: str) -> bool:
        """Evict one (expired) tuple (Algorithm 2, lines 2–7)."""
        key = (rid, source)
        cell_keys = self._record_cells.pop(key, None)
        if cell_keys is None:
            return False
        for coordinates in cell_keys:
            cell = self._cells.get(coordinates)
            if cell is None:
                continue
            cell.remove(rid, source, self.schema, self._packed_store)
            if not cell.entries:
                del self._cells[coordinates]
                if self._cell_store is not None:
                    self._cell_store.remove(coordinates)
            elif self._cell_store is not None:
                self._cell_store.update(cell)
        del self._synopses[key]
        if self._packed_store is not None:
            self._packed_store.remove(rid, source)
        return True

    def synopses(self) -> List[RecordSynopsis]:
        """All in-window synopses (used by exhaustive baselines and tests)."""
        return list(self._synopses.values())

    def synopsis_items(self) -> List[Tuple[Tuple[str, str], RecordSynopsis]]:
        """``((rid, source), synopsis)`` pairs in grid insertion order."""
        return list(self._synopses.items())

    # -- candidate retrieval -------------------------------------------------------
    def _cell_min_distance(self, cell: GridCell,
                           rectangle: Sequence[Tuple[float, float]]) -> float:
        """Lower bound of Σ_k |X_k − Y_k| between the query tuple and the cell."""
        if cell.distance_intervals is None:
            return float("inf")
        total = 0.0
        for (query_low, query_high), (cell_low, cell_high) in zip(
                rectangle, cell.distance_intervals):
            total += min_attribute_distance((query_low, query_high),
                                            (cell_low, cell_high))
        return total

    def candidate_synopses(
        self,
        query: RecordSynopsis,
        gamma: float,
        keywords: FrozenSet[str] = frozenset(),
        exclude_source: Optional[str] = None,
    ) -> List[RecordSynopsis]:
        """Candidate matching tuples of ``query`` from the grid.

        Cells are pruned with two aggregate tests before their tuples are
        touched:

        * **topic** — when a keyword set is given and the query tuple cannot
          contain any keyword, cells with no keyword-bearing tuple are
          skipped (cell-level Theorem 4.1);
        * **similarity** — cells whose minimum converted-space L1 distance to
          the query rectangle is at least ``d − γ`` cannot contain a tuple
          with similarity above ``γ`` (cell-level Lemma 4.2).

        ``exclude_source`` removes same-stream tuples (the problem statement
        pairs tuples from two *different* streams).
        """
        rectangle = query.coordinate_rectangle()
        margin = len(self.schema) - gamma
        seen: Set[Tuple[str, str]] = set()
        results: List[RecordSynopsis] = []
        if self._cell_store is not None and self._cells:
            # Vectorized cell scan: both aggregate tests for every cell in
            # one batch_cell_scan kernel call; surviving cells are then
            # collected in the same iteration order as the scalar walk, so
            # the candidate list (and both examination counters) are
            # bit-identical.
            store = self._cell_store
            self.cells_examined += len(self._cells)
            alive = store.scan(
                rectangle, margin,
                require_keyword=bool(keywords) and not query.may_have_keyword)
            for coordinates, cell in self._cells.items():
                if not alive[store.row_of(coordinates)]:
                    continue
                self._collect_cell(cell, query, seen, results, exclude_source)
            return results
        for cell in self._cells.values():
            self.cells_examined += 1
            if keywords and not query.may_have_keyword and not cell.may_have_keyword:
                continue
            if self._cell_min_distance(cell, rectangle) >= margin:
                continue
            self._collect_cell(cell, query, seen, results, exclude_source)
        return results

    def _collect_cell(self, cell: GridCell, query: RecordSynopsis,
                      seen: Set[Tuple[str, str]],
                      results: List[RecordSynopsis],
                      exclude_source: Optional[str]) -> None:
        """Gather one surviving cell's tuples (shared by both scan paths)."""
        for key, synopsis in cell.entries.items():
            if key in seen:
                continue
            seen.add(key)
            self.tuples_examined += 1
            if exclude_source is not None and synopsis.record.source == exclude_source:
                continue
            if (synopsis.record.rid == query.record.rid
                    and synopsis.record.source == query.record.source):
                continue
            results.append(synopsis)
