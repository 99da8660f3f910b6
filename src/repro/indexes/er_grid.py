"""The ER-grid data synopsis ``G_ER`` over the sliding windows (Section 5.2).

The grid partitions the pivot-converted space ``[0, 1]^d`` into equal-size
cells.  Every in-window imputed tuple is registered in all cells its
coordinate rectangle (the per-attribute main-pivot distance intervals of its
possible values) intersects.  Cells maintain two aggregates — a keyword flag
and per-attribute distance intervals — which allow the engine to discard
whole cells with the topic and similarity bounds before looking at
individual tuples.

The grid is maintained one tuple at a time (Algorithm 2): an insert widens
the aggregates of the tuple's cells, an eviction swap-deletes the tuple from
each cell's member columns and re-derives the cell's aggregates from the
remaining members with one ``min`` / ``max`` / ``any`` each.  New tuples
arrive with their pre-computed :class:`~repro.core.pruning.RecordSynopsis`.
"""

from __future__ import annotations

import heapq
import itertools
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.core.pruning import PackedStore, RecordSynopsis, batch_cell_scan
from repro.core.tuples import Schema

#: Member slots a new cell allocates; a full cell doubles its columns.
_CELL_CAPACITY = 4


class GridCell:
    """One cell of the ER-grid: its members and their aggregates.

    Every member owns a slot of three dense columns — its main-pivot
    rectangle (``lb`` / ``ub``, one row of ``d`` floats each) and its
    keyword flag (``kw``).  :attr:`slots` maps a member's ``(rid, source)``
    key to its slot and :attr:`keys` maps the slots ``0 .. len - 1`` back.
    The aggregates are ``low`` / ``high`` (the ``(d,)`` per-attribute
    extremes of the members' rectangles) and :attr:`may_have_keyword`.

    An insert appends a slot and widens the aggregates; an eviction moves
    the last slot into the freed one and re-derives the aggregates from the
    live slots — one ``min`` / ``max`` / ``any`` each, exact, so they equal
    a scalar walk over the members value for value.  The grid drops a cell
    its last member leaves.
    """

    __slots__ = ("coordinates", "slots", "keys", "lb", "ub", "kw", "low",
                 "high", "may_have_keyword", "row")

    def __init__(self, coordinates: Tuple[int, ...],
                 dimensionality: int) -> None:
        self.coordinates = coordinates
        self.slots: Dict[Tuple[str, str], int] = {}
        self.keys: List[Tuple[str, str]] = []
        self.lb = _np.empty((_CELL_CAPACITY, dimensionality))
        self.ub = _np.empty((_CELL_CAPACITY, dimensionality))
        self.kw = _np.empty(_CELL_CAPACITY, dtype=bool)
        self.low = None
        self.high = None
        self.may_have_keyword = False
        #: The cell's row of the grid's :class:`CellStore` (``None`` while
        #: the cell is not live).
        self.row: Optional[int] = None

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, key: Tuple[str, str], low, high,
            may_have_keyword: bool) -> None:
        """Register one tuple — its main-pivot rectangle ``low`` / ``high``
        and keyword flag — and widen the aggregates."""
        slot = len(self.keys)
        if slot == self.kw.shape[0]:
            self.lb = _np.concatenate([self.lb, _np.empty_like(self.lb)])
            self.ub = _np.concatenate([self.ub, _np.empty_like(self.ub)])
            self.kw = _np.concatenate([self.kw, _np.empty_like(self.kw)])
        self.slots[key] = slot
        self.keys.append(key)
        self.lb[slot] = low
        self.ub[slot] = high
        self.kw[slot] = may_have_keyword
        if slot:
            self.low = _np.minimum(self.low, low)
            self.high = _np.maximum(self.high, high)
            self.may_have_keyword = self.may_have_keyword or may_have_keyword
        else:
            self.low = self.lb[0].copy()
            self.high = self.ub[0].copy()
            self.may_have_keyword = may_have_keyword

    def remove(self, key: Tuple[str, str]) -> None:
        """Evict one member: its slot takes the last one, and the aggregates
        are re-derived from the remaining slots."""
        slot = self.slots.pop(key)
        last = len(self.keys) - 1
        moved = self.keys.pop()
        if slot != last:
            self.keys[slot] = moved
            self.slots[moved] = slot
            self.lb[slot] = self.lb[last]
            self.ub[slot] = self.ub[last]
            self.kw[slot] = self.kw[last]
        if last:
            self.low = self.lb[:last].min(axis=0)
            self.high = self.ub[:last].max(axis=0)
            self.may_have_keyword = bool(self.kw[:last].any())


class CellStore:
    """A resident, columnar mirror of the per-cell aggregates.

    The cell-level pruning of the grid lookup reads exactly two aggregates
    per cell — the keyword flag and the per-attribute distance intervals —
    so they are packed into dense arrays (``lb`` / ``ub`` of shape
    ``(capacity, d)``, a boolean ``may_kw``), one row per live cell
    (:attr:`GridCell.row`; ``live`` marks the rows in use and :attr:`cells`
    maps each back to its cell).  The grid refreshes a cell's row on every
    aggregate change, evicted cells recycle their rows through a free list,
    and both cell tests over the whole grid are one
    :func:`~repro.core.pruning.batch_cell_scan` kernel call.
    """

    def __init__(self, dimensionality: int) -> None:
        self.dimensionality = dimensionality
        #: row -> the live cell it mirrors (``None`` on a free row).
        self.cells: List[Optional[GridCell]] = []
        self._free: List[int] = []
        self.lb = None
        self.ub = None
        self.may_kw = None
        self.live = None

    def __len__(self) -> int:
        return len(self.cells) - len(self._free)

    def _grow(self, capacity: int) -> None:
        def expand(array, shape, dtype=float):
            fresh = _np.zeros(shape, dtype=dtype)
            if array is not None:
                fresh[: array.shape[0]] = array
            return fresh

        self.lb = expand(self.lb, (capacity, self.dimensionality))
        self.ub = expand(self.ub, (capacity, self.dimensionality))
        self.may_kw = expand(self.may_kw, (capacity,), dtype=bool)
        self.live = expand(self.live, (capacity,), dtype=bool)

    def update(self, cell: GridCell) -> None:
        """Write (or refresh) one cell's aggregate row."""
        row = cell.row
        if row is None:
            if self._free:
                row = self._free.pop()
                self.cells[row] = cell
            else:
                row = len(self.cells)
                self.cells.append(cell)
                if self.live is None or row >= self.live.shape[0]:
                    self._grow(max(64, 2 * row))
            cell.row = row
            self.live[row] = True
        self.lb[row] = cell.low
        self.ub[row] = cell.high
        self.may_kw[row] = cell.may_have_keyword

    def remove(self, cell: GridCell) -> None:
        """Free the row of one evicted cell."""
        row = cell.row
        self.cells[row] = None
        self.live[row] = False
        self._free.append(row)
        cell.row = None

    def scan(self, rectangle: Sequence[Tuple[float, float]], margin: float,
             require_keyword: bool):
        """Survivor mask (by row) of the two cell-level aggregate tests.

        A row survives when its min converted-space L1 distance to the query
        rectangle is below ``margin`` and — with ``require_keyword`` — its
        cell may contain a keyword-bearing tuple.  Free rows carry stale
        aggregates; callers only consult rows of live cells.
        """
        if self.lb is None:
            # No row was ever written (arrays are only allocated by the
            # first insert), so nothing can survive.  A lookup may precede
            # the first insert — e.g. a query-time resolve against an empty
            # window — and must see an all-dead mask, not a crash on the
            # ``None`` arrays.
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

    def failed_cells(self, rectangle: Sequence[Tuple[float, float]],
                     margin: float, require_keyword: bool) -> List[GridCell]:
        """The live cells that fail a cell-level test of :meth:`scan`."""
        if self.live is None:
            return []
        failed = self.live & ~self.scan(rectangle, margin, require_keyword)
        cells = self.cells
        return [cells[row] for row in _np.flatnonzero(failed).tolist()]


class _Resident:
    """One in-window tuple: its synopsis, the coordinates of the cells it
    is registered in, and its grid arrival stamp."""

    __slots__ = ("synopsis", "cells", "arrival")

    def __init__(self, synopsis: RecordSynopsis,
                 cells: List[Tuple[int, ...]], arrival: int) -> None:
        self.synopsis = synopsis
        self.cells = cells
        self.arrival = arrival


_ARRIVAL = attrgetter("arrival")


class ERGrid:
    """The ER-grid synopsis over the in-window imputed tuples of all streams."""

    def __init__(self, schema: Schema, cells_per_dim: int = 5) -> None:
        if cells_per_dim < 1:
            raise ValueError("cells_per_dim must be >= 1")
        self.schema = schema
        self.cells_per_dim = cells_per_dim
        self._cells: Dict[Tuple[int, ...], GridCell] = {}
        self._cell_store = CellStore(len(schema))
        #: source -> rid -> resident tuple, each in grid insertion order
        #: (arrival stamps increase along every one of them).
        self._sources: Dict[str, Dict[str, _Resident]] = {}
        self._arrivals = itertools.count()
        self._packed_store: Optional[PackedStore] = None
        self.cells_examined = 0
        self.tuples_examined = 0

    # -- resident packed store ---------------------------------------------------
    @property
    def packed_store(self) -> Optional[PackedStore]:
        """The resident columnar synopsis store (``None`` until enabled)."""
        return self._packed_store

    @property
    def vocabulary_size(self) -> int:
        """Tokens in the packed store's vocabulary (0 while none is on)."""
        store = self._packed_store
        return 0 if store is None else len(store.vocabulary)

    @property
    def instance_rows(self) -> int:
        """Entries in use in the packed store's instance table, garbage runs
        included (0 while none is on)."""
        store = self._packed_store
        return 0 if store is None else store.instance_rows

    def enable_packed_store(self) -> PackedStore:
        """Keep a columnar :class:`PackedStore` in sync with the grid.

        Enabled on demand by the two callers of the row cascade — every
        ``MicroBatchExecutor`` batch and every query-time ``resolve`` with a
        ``topic=`` / ``gamma=`` override (an operator-default read walks the
        result set and runs no cascade) — so a serial run that is never
        read with an override pays nothing.  Idempotent: the first
        call back-fills the current window contents, afterwards
        :meth:`insert` / :meth:`remove` maintain the store incrementally.
        """
        if self._packed_store is None:
            store = PackedStore()
            for synopsis in self.synopses():
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

    # -- maintenance ----------------------------------------------------------------
    def __len__(self) -> int:
        return sum(map(len, self._sources.values()))

    def _resident(self, rid: str, source: str) -> Optional[_Resident]:
        residents = self._sources.get(source)
        return None if residents is None else residents.get(rid)

    def contains(self, rid: str, source: str) -> bool:
        return self._resident(rid, source) is not None

    def get_synopsis(self, rid: str, source: str) -> Optional[RecordSynopsis]:
        resident = self._resident(rid, source)
        return None if resident is None else resident.synopsis

    def arrival(self, rid: str, source: str) -> int:
        """Arrival stamp of one in-window tuple: monotone in grid insertion
        order, renewed when a key re-arrives."""
        return self._sources[source][rid].arrival

    def insert(self, synopsis: RecordSynopsis) -> None:
        """Insert one imputed tuple (Algorithm 2, lines 11–13)."""
        rid, source = synopsis.record.rid, synopsis.record.source
        self.remove(rid, source)
        key = (rid, source)
        rectangle = synopsis.coordinate_rectangle()
        low, high = _np.array(rectangle).T
        cell_keys: List[Tuple[int, ...]] = []
        for coordinates in self._cells_for_rectangle(rectangle):
            cell = self._cells.get(coordinates)
            if cell is None:
                cell = GridCell(coordinates, len(self.schema))
                self._cells[coordinates] = cell
            cell.add(key, low, high, synopsis.may_have_keyword)
            self._cell_store.update(cell)
            cell_keys.append(coordinates)
        self._sources.setdefault(source, {})[rid] = _Resident(
            synopsis, cell_keys, next(self._arrivals))
        if self._packed_store is not None:
            self._packed_store.insert(synopsis)

    def remove(self, rid: str, source: str) -> bool:
        """Evict one (expired) tuple (Algorithm 2, lines 2–7)."""
        residents = self._sources.get(source)
        resident = None if residents is None else residents.pop(rid, None)
        if resident is None:
            return False
        if not residents:
            del self._sources[source]
        key = (rid, source)
        for coordinates in resident.cells:
            cell = self._cells[coordinates]
            cell.remove(key)
            if cell.keys:
                self._cell_store.update(cell)
            else:
                del self._cells[coordinates]
                self._cell_store.remove(cell)
        if self._packed_store is not None:
            self._packed_store.remove(rid, source)
        return True

    def _in_arrival_order(self, sources: Sequence[str]) -> Iterable[_Resident]:
        """The residents of ``sources``, merged into grid insertion order."""
        streams = [self._sources[source].values() for source in sources]
        if len(streams) == 1:
            return streams[0]
        return heapq.merge(*streams, key=_ARRIVAL)

    def synopses(self) -> List[RecordSynopsis]:
        """All in-window synopses in grid insertion order (used by
        exhaustive baselines and tests)."""
        return [resident.synopsis
                for resident in self._in_arrival_order(list(self._sources))]

    # -- candidate retrieval -------------------------------------------------------
    def _lookup(
        self, query: RecordSynopsis, gamma: float, keywords: FrozenSet[str],
        exclude_source: Optional[str],
    ) -> Tuple[List[str], Set[_Resident]]:
        """The candidate sources of ``query`` and the residents to drop from
        them.

        Cells are tested with two aggregate tests:

        * **topic** — when a keyword set is given and the query tuple cannot
          contain any keyword, cells with no keyword-bearing tuple fail
          (cell-level Theorem 4.1);
        * **similarity** — cells whose minimum converted-space L1 distance to
          the query rectangle is at least ``d − γ`` cannot contain a tuple
          with similarity above ``γ`` and fail (cell-level Lemma 4.2).

        A tuple is a candidate unless *every* cell it is registered in
        fails, so only the failed cells' entries are visited; the lookup
        costs nothing extra when no cell fails.  ``tuples_examined`` counts
        the tuples that have a surviving cell — the distinct tuples a walk
        over the surviving cells would touch.
        """
        failed = self._cell_store.failed_cells(
            query.coordinate_rectangle(), len(self.schema) - gamma,
            require_keyword=bool(keywords) and not query.may_have_keyword)
        self.cells_examined += len(self._cells)
        pruned: Set[_Resident] = set()
        if failed:
            failed_coordinates = {cell.coordinates for cell in failed}
            for cell in failed:
                for rid, source in cell.keys:
                    resident = self._sources[source][rid]
                    if failed_coordinates.issuperset(resident.cells):
                        pruned.add(resident)
        self.tuples_examined += len(self) - len(pruned)
        dropped = {resident for resident in pruned
                   if resident.synopsis.source != exclude_source}
        if query.source != exclude_source:
            own = self._resident(query.rid, query.source)
            if own is not None:
                dropped.add(own)
        return ([source for source in self._sources
                 if source != exclude_source], dropped)

    def candidate_synopses(
        self,
        query: RecordSynopsis,
        gamma: float,
        keywords: FrozenSet[str] = frozenset(),
        exclude_source: Optional[str] = None,
    ) -> List[RecordSynopsis]:
        """Candidate matching tuples of ``query`` from the grid, in grid
        insertion order: every in-window tuple but those whose cells all
        fail the cell-level tests (see :meth:`_lookup`), the query itself
        and — with ``exclude_source`` — same-stream tuples (the problem
        statement pairs tuples from two *different* streams).
        """
        sources, dropped = self._lookup(query, gamma, keywords,
                                        exclude_source)
        return [resident.synopsis
                for resident in self._in_arrival_order(sources)
                if resident not in dropped]

    def candidate_rows(
        self,
        query: RecordSynopsis,
        gamma: float,
        keywords: FrozenSet[str] = frozenset(),
        exclude_source: Optional[str] = None,
    ):
        """The candidates of :meth:`candidate_synopses`, in the same order,
        as an ``intp`` array of their :attr:`packed_store` rows — read off
        the store's per-source key→row maps, never per synopsis object.
        The packed store must be enabled.
        """
        store = self._packed_store
        sources, dropped = self._lookup(query, gamma, keywords,
                                        exclude_source)
        if len(sources) == 1 and not dropped:
            rows = store.source_rows(sources[0])
            return _np.fromiter(rows.values(), dtype=_np.intp,
                                count=len(rows))
        rows_of = {source: store.source_rows(source) for source in sources}
        return _np.array(
            [rows_of[resident.synopsis.source][resident.synopsis.rid]
             for resident in self._in_arrival_order(sources)
             if resident not in dropped], dtype=_np.intp)
