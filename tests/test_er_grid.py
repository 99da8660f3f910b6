"""Unit tests for the ER-grid synopsis over sliding windows (Section 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from golden_utils import canonical_matches
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.matching import ter_ids_probability
from repro.core.pruning import (PackedStore, RecordSynopsis,
                                min_attribute_distance)
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.datasets.synthetic import generate_dataset
from repro.imputation.repository import DataRepository
from repro.indexes.er_grid import ERGrid
from repro.indexes.pivots import PivotSelectionConfig, select_pivots
from repro.runtime import MicroBatchExecutor

SCHEMA = Schema(attributes=("symptom", "diagnosis"))
KEYWORDS = frozenset({"diabetes"})


def _pivots():
    samples = [
        Record(rid="p0", values={"symptom": "fever cough chills", "diagnosis": "flu"}),
        Record(rid="p1", values={"symptom": "weight loss blurred vision",
                                 "diagnosis": "diabetes"}),
        Record(rid="p2", values={"symptom": "red eye itchy",
                                 "diagnosis": "conjunctivitis"}),
    ]
    repository = DataRepository(schema=SCHEMA, samples=samples)
    return select_pivots(repository, PivotSelectionConfig(buckets=5,
                                                          min_entropy=0.3,
                                                          max_pivots=2))


PIVOTS = _pivots()


def _synopsis(rid, symptom, diagnosis, candidates=None, source="s1"):
    record = Record(rid=rid, values={"symptom": symptom, "diagnosis": diagnosis},
                    source=source)
    imputed = ImputedRecord(base=record, schema=SCHEMA,
                            candidates=candidates or {})
    return RecordSynopsis.build(imputed, PIVOTS, KEYWORDS)


class TestGridMaintenance:
    def test_insert_and_len(self):
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        grid.insert(_synopsis("r1", "fever", "flu"))
        grid.insert(_synopsis("r2", "thirst", "diabetes"))
        assert len(grid) == 2
        assert grid.cell_count >= 1

    def test_contains_and_get(self):
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        synopsis = _synopsis("r1", "fever", "flu")
        grid.insert(synopsis)
        assert grid.contains("r1", "s1")
        assert grid.get_synopsis("r1", "s1") is synopsis
        assert not grid.contains("r1", "other")

    def test_remove(self):
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        grid.insert(_synopsis("r1", "fever", "flu"))
        assert grid.remove("r1", "s1")
        assert len(grid) == 0
        assert grid.cell_count == 0
        assert not grid.remove("r1", "s1")

    def test_reinsert_replaces(self):
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        grid.insert(_synopsis("r1", "fever", "flu"))
        grid.insert(_synopsis("r1", "thirst", "diabetes"))
        assert len(grid) == 1

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            ERGrid(SCHEMA, cells_per_dim=0)

    def test_imputed_record_spans_multiple_cells(self):
        grid = ERGrid(SCHEMA, cells_per_dim=8)
        wide = _synopsis("r1", "fever", None,
                         candidates={"diagnosis": {"flu": 0.5, "diabetes": 0.5}})
        grid.insert(wide)
        # The record's diagnosis interval is wide, so it should register in
        # at least one cell (possibly several).
        assert grid.cell_count >= 1
        assert grid.remove("r1", "s1")


def _intervals(cell):
    """A cell's aggregate ``(low, high)`` distance interval per attribute."""
    return list(zip(cell.low.tolist(), cell.high.tolist()))


class TestCellAggregates:
    def test_cell_keyword_flag(self):
        grid = ERGrid(SCHEMA, cells_per_dim=1)  # everything in one cell
        grid.insert(_synopsis("r1", "fever", "flu"))
        cell = next(iter(grid._cells.values()))
        assert not cell.may_have_keyword
        grid.insert(_synopsis("r2", "thirst", "diabetes"))
        cell = next(iter(grid._cells.values()))
        assert cell.may_have_keyword

    def test_cell_aggregates_bound_entries(self):
        grid = ERGrid(SCHEMA, cells_per_dim=1)
        synopses = [_synopsis("r1", "fever cough", "flu"),
                    _synopsis("r2", "weight loss", "diabetes")]
        for synopsis in synopses:
            grid.insert(synopsis)
        cell = next(iter(grid._cells.values()))
        for index, attribute in enumerate(SCHEMA):
            low, high = _intervals(cell)[index]
            for synopsis in synopses:
                entry_low, entry_high = synopsis.main_interval(attribute)
                assert low - 1e-9 <= entry_low and entry_high <= high + 1e-9

    def test_cell_recompute_after_removal(self):
        grid = ERGrid(SCHEMA, cells_per_dim=1)
        grid.insert(_synopsis("r1", "thirst", "diabetes"))
        grid.insert(_synopsis("r2", "fever", "flu"))
        grid.remove("r1", "s1")
        cell = next(iter(grid._cells.values()))
        assert not cell.may_have_keyword

    def test_cell_bounds(self):
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        bounds = grid.cell_bounds((0, 3))
        assert bounds[0] == (0.0, 0.25)
        assert bounds[1] == (0.75, 1.0)


#: Token pool for the random maintenance sequences (overlaps the pivots and
#: the keyword, so aggregates and the keyword flag actually move).
_WORDS = ("fever", "cough", "chills", "weight", "loss", "diabetes", "flu",
          "red", "eye", "thirst")
_text = st.lists(st.sampled_from(_WORDS), min_size=0, max_size=4).map(" ".join)
_imputed = st.dictionaries(st.sampled_from(_WORDS),
                           st.floats(min_value=0.05, max_value=0.3),
                           min_size=1, max_size=3)
#: One maintenance step: insert a tuple (complete, or with an imputed
#: diagnosis) or — ``None`` — evict the oldest one.
_step = st.one_of(st.none(), st.tuples(_text, _text, st.none() | _imputed))


def _scalar_aggregates(synopses):
    """The oracle: a cell's ``(may_have_keyword, intervals)`` by a
    scalar walk over its members' synopses."""
    if not synopses:
        return False, None
    return (any(synopsis.may_have_keyword for synopsis in synopses),
            [(min(synopsis.main_interval(attribute)[0]
                  for synopsis in synopses),
              max(synopsis.main_interval(attribute)[1]
                  for synopsis in synopses))
             for attribute in SCHEMA])


def _assert_cells_equal_the_oracle(grid):
    """Every live cell against the scalar walk over its members: the member
    set, each slot's columns, the aggregates and the cell's ``CellStore``
    row."""
    members = {}
    for residents in grid._sources.values():
        for resident in residents.values():
            key = (resident.synopsis.rid, resident.synopsis.source)
            for coordinates in resident.cells:
                members.setdefault(coordinates, set()).add(key)
    assert set(grid._cells) == set(members)
    store = grid.cell_store
    assert len(store) == grid.cell_count
    for coordinates, cell in grid._cells.items():
        assert set(cell.keys) == members[coordinates]
        assert cell.slots == {key: slot for slot, key in enumerate(cell.keys)}
        synopses = [grid.get_synopsis(*key) for key in cell.keys]
        for slot, synopsis in enumerate(synopses):
            rectangle = synopsis.coordinate_rectangle()
            assert cell.lb[slot].tolist() == [low for low, _ in rectangle]
            assert cell.ub[slot].tolist() == [high for _, high in rectangle]
            assert cell.kw[slot] == synopsis.may_have_keyword
        may_have_keyword, intervals = _scalar_aggregates(synopses)
        assert cell.may_have_keyword is may_have_keyword
        assert _intervals(cell) == intervals
        for low, high in _intervals(cell):
            assert type(low) is float and type(high) is float
        assert store.cells[cell.row] is cell and store.live[cell.row]
        assert store.lb[cell.row].tolist() == [low for low, _ in intervals]
        assert store.ub[cell.row].tolist() == [high for _, high in intervals]
        assert store.may_kw[cell.row] == may_have_keyword


def _grid(packed, cells_per_dim=1):
    grid = ERGrid(SCHEMA, cells_per_dim=cells_per_dim)
    if packed:
        grid.enable_packed_store()
    return grid


class TestColumnarCellRefresh:
    """An eviction swap-deletes the tuple from each of its cells' columns
    and re-derives the aggregates from the remaining slots; the scalar walk
    over the members' synopses is the oracle.  One eviction path, with and
    without a packed store."""

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_step, min_size=4, max_size=40),
           cells_per_dim=st.sampled_from([1, 2, 4]),
           epoch_every=st.integers(min_value=1, max_value=8))
    def test_refresh_equals_scalar_recompute(self, steps, cells_per_dim,
                                             epoch_every):
        grids = [_grid(packed, cells_per_dim) for packed in (False, True)]
        live = []
        for index, step in enumerate(steps):
            if index % epoch_every == 0:
                for grid in grids:
                    grid.begin_epoch()
            if step is None:
                if not live:
                    continue
                key = live.pop(0)
                for grid in grids:
                    grid.remove(*key)
            else:
                symptom, diagnosis, imputed = step
                candidates = ({"diagnosis": imputed}
                              if imputed and not diagnosis else None)
                synopsis = _synopsis(f"r{index}", symptom or None,
                                     diagnosis or None, candidates)
                for grid in grids:
                    grid.insert(synopsis)
                live.append((synopsis.rid, synopsis.source))
            for grid in grids:
                _assert_cells_equal_the_oracle(grid)

    @pytest.mark.parametrize("packed", [False, True])
    def test_evicting_a_shared_extremum_keeps_it(self, packed):
        grid = _grid(packed)
        grid.insert(_synopsis("r0", "red eye itchy", "conjunctivitis"))
        grid.insert(_synopsis("r1", "red eye itchy", "conjunctivitis"))
        grid.insert(_synopsis("r2", "fever cough", "flu"))
        cell = next(iter(grid._cells.values()))
        before = _intervals(cell)
        grid.remove("r0", "s1")
        assert _intervals(cell) == before
        _assert_cells_equal_the_oracle(grid)

    @pytest.mark.parametrize("packed", [False, True])
    def test_evicting_a_unique_extremum_shrinks_the_aggregate(self, packed):
        grid = _grid(packed)
        synopses = [_synopsis("r0", "fever cough chills", "flu"),
                    _synopsis("r1", "weight loss", "diabetes"),
                    _synopsis("r2", "red eye itchy", "conjunctivitis")]
        for synopsis in synopses:
            grid.insert(synopsis)
        cell = next(iter(grid._cells.values()))
        before = _intervals(cell)
        # r0 holds the main pivot's own values: the unique minimum.
        lows = [synopsis.main_interval("symptom")[0] for synopsis in synopses]
        assert lows[0] < min(lows[1:]) and before[0][0] == lows[0]
        grid.remove("r0", "s1")
        assert _intervals(cell)[0][0] == min(lows[1:])
        _assert_cells_equal_the_oracle(grid)

    @pytest.mark.parametrize("packed", [False, True])
    def test_evicting_the_last_entry_frees_the_cell_row(self, packed):
        grid = _grid(packed)
        grid.insert(_synopsis("r0", "fever", "flu"))
        cell = next(iter(grid._cells.values()))
        row = cell.row
        store = grid.cell_store
        assert len(store) == 1 and store.cells[row] is cell
        grid.remove("r0", "s1")
        assert grid.cell_count == 0 and len(store) == 0
        assert cell.row is None
        assert store.cells[row] is None and not store.live[row]
        grid.insert(_synopsis("r1", "thirst", "diabetes"))
        assert next(iter(grid._cells.values())).row == row
        _assert_cells_equal_the_oracle(grid)

    @pytest.mark.parametrize("packed", [False, True])
    def test_a_same_key_rearrival_replaces_its_slot(self, packed):
        grid = _grid(packed)
        grid.insert(_synopsis("r0", "thirst", "diabetes"))
        grid.insert(_synopsis("r1", "fever", "flu"))
        grid.insert(_synopsis("r0", "red eye", "flu"))
        cell = next(iter(grid._cells.values()))
        assert cell.keys == [("r1", "s1"), ("r0", "s1")]
        assert not cell.may_have_keyword
        _assert_cells_equal_the_oracle(grid)

    def test_eviction_never_looks_up_packed_rows(self, monkeypatch):
        """The cells keep their own columns: an eviction reads nothing of
        the packed store."""
        grid = _grid(packed=True)
        for index, (symptom, diagnosis) in enumerate(
                [("thirst", "diabetes"), ("fever", "flu"), ("red eye", "flu")]):
            grid.insert(_synopsis(f"r{index}", symptom, diagnosis))
        monkeypatch.setattr(PackedStore, "rows_for", lambda *args: pytest.fail(
            "an eviction looked up packed-store rows"))
        grid.remove("r0", "s1")
        cell = next(iter(grid._cells.values()))
        assert not cell.may_have_keyword
        assert len(cell) == 2
        _assert_cells_equal_the_oracle(grid)


class TestCandidateRetrieval:
    def _populate(self, grid):
        synopses = [
            _synopsis("a1", "weight loss blurred vision", "diabetes", source="sa"),
            _synopsis("a2", "fever cough", "flu", source="sa"),
            _synopsis("b1", "weight loss blurred vision", "diabetes", source="sb"),
            _synopsis("b2", "red eye itchy", "conjunctivitis", source="sb"),
        ]
        for synopsis in synopses:
            grid.insert(synopsis)
        return synopses

    def test_no_false_dismissals_vs_exact(self):
        """Grid retrieval must return every tuple whose exact probability passes."""
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        self._populate(grid)
        query = _synopsis("q", "weight loss blurred vision", "diabetes",
                          source="sq")
        gamma = 1.0
        candidates = grid.candidate_synopses(query, gamma=gamma,
                                             keywords=KEYWORDS)
        candidate_keys = {(c.rid, c.source) for c in candidates}
        for synopsis in grid.synopses():
            probability = ter_ids_probability(query.record, synopsis.record,
                                              KEYWORDS, gamma)
            if probability > 0:
                assert (synopsis.rid, synopsis.source) in candidate_keys

    def test_exclude_source(self):
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        self._populate(grid)
        query = _synopsis("q", "weight loss blurred vision", "diabetes",
                          source="sa")
        candidates = grid.candidate_synopses(query, gamma=1.0,
                                             exclude_source="sa")
        assert all(candidate.source != "sa" for candidate in candidates)

    def test_query_excludes_itself(self):
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        synopsis = _synopsis("a1", "fever", "flu", source="sa")
        grid.insert(synopsis)
        candidates = grid.candidate_synopses(synopsis, gamma=0.5)
        assert all(candidate.rid != "a1" or candidate.source != "sa"
                   for candidate in candidates)

    def test_counters_increase(self):
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        self._populate(grid)
        query = _synopsis("q", "weight loss", "diabetes", source="sq")
        grid.candidate_synopses(query, gamma=1.0)
        assert grid.cells_examined > 0

    def test_distant_tuples_can_be_skipped(self):
        grid = ERGrid(SCHEMA, cells_per_dim=8)
        # Far-apart populations: many dissimilar tuples plus one similar.
        for index in range(20):
            grid.insert(_synopsis(f"far{index}", "red eye itchy watery",
                                  "conjunctivitis", source="sb"))
        grid.insert(_synopsis("near", "weight loss blurred vision", "diabetes",
                              source="sb"))
        query = _synopsis("q", "weight loss blurred vision", "diabetes",
                          source="sa")
        candidates = grid.candidate_synopses(query, gamma=1.8)
        # With a tight gamma every cell of the distant population fails
        # cell-level Lemma 4.2: only "near" has a surviving cell.
        assert {candidate.rid for candidate in candidates} == {"near"}
        assert grid.tuples_examined == 1
        assert grid.cells_examined == 2


class TestCellStoreEdgeCases:
    def test_enabled_empty_store_scan_returns_all_dead(self):
        """Regression: ``CellStore.scan`` dereferenced its ``None`` arrays
        when a lookup preceded the first insert (the arrays are only
        allocated by the first write) — e.g. a query-time resolve against
        an empty window."""
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        store = grid.cell_store
        query = _synopsis("q", "weight loss", "diabetes", source="sq")
        mask = store.scan(query.coordinate_rectangle(), margin=2.0,
                          require_keyword=False)
        assert len(mask) == 0
        assert grid.candidate_synopses(query, gamma=0.5) == []


# ---------------------------------------------------------------------------
# The lookup against the cell walk it replaced
# ---------------------------------------------------------------------------
def _cell_min_distance(cell, rectangle):
    """Lower bound of Σ_k |X_k − Y_k| between the query tuple and the cell."""
    total = 0.0
    for query_bounds, cell_bounds in zip(rectangle, _intervals(cell)):
        total += min_attribute_distance(query_bounds, cell_bounds)
    return total


def _collect_cell(grid, cell, query, seen, results, exclude_source):
    """Gather one surviving cell's tuples; returns the tuples examined."""
    examined = 0
    for key in cell.keys:
        if key in seen:
            continue
        seen.add(key)
        synopsis = grid.get_synopsis(*key)
        examined += 1
        if exclude_source is not None and synopsis.source == exclude_source:
            continue
        if synopsis.rid == query.rid and synopsis.source == query.source:
            continue
        results.append(synopsis)
    return examined


def _cell_walk(grid, query, gamma, keywords=frozenset(), exclude_source=None):
    """The oracle: the per-cell scalar walk over every cell, skipping the
    cells that fail cell-level Theorem 4.1 or Lemma 4.2, with a ``seen``
    set.  Returns ``(candidates, cells examined, tuples examined)``."""
    rectangle = query.coordinate_rectangle()
    margin = len(grid.schema) - gamma
    seen, results = set(), []
    cells = tuples = 0
    for cell in grid._cells.values():
        cells += 1
        if keywords and not query.may_have_keyword and not cell.may_have_keyword:
            continue
        if _cell_min_distance(cell, rectangle) >= margin:
            continue
        tuples += _collect_cell(grid, cell, query, seen, results,
                                exclude_source)
    return results, cells, tuples


def _keys(synopses):
    return [(synopsis.rid, synopsis.source) for synopsis in synopses]


def _assert_lookup_equals_cell_walk(grid, query, gamma, keywords,
                                    exclude_source):
    """Both forms of the lookup against the oracle: the candidate key set
    and both counter deltas; the order is grid insertion order and the rows
    are the candidates' own."""
    oracle, cells, tuples = _cell_walk(grid, query, gamma, keywords,
                                       exclude_source)
    before = (grid.cells_examined, grid.tuples_examined)
    candidates = grid.candidate_synopses(query, gamma, keywords,
                                         exclude_source)
    assert (grid.cells_examined - before[0],
            grid.tuples_examined - before[1]) == (cells, tuples)
    wanted = set(_keys(oracle))
    assert set(_keys(candidates)) == wanted
    assert _keys(candidates) == [key for key in _keys(grid.synopses())
                                 if key in wanted]
    store = grid.packed_store
    if store is not None:
        rows = grid.candidate_rows(query, gamma, keywords, exclude_source)
        assert rows.dtype == np.intp
        assert [store.synopsis_at(row) for row in rows.tolist()] == candidates
        assert (grid.cells_examined - before[0],
                grid.tuples_examined - before[1]) == (2 * cells, 2 * tuples)
    return candidates


class TestLookupEqualsCellWalk:
    @settings(max_examples=80, deadline=None)
    @given(tuples=st.lists(st.tuples(_text, _text, st.none() | _imputed,
                                     st.sampled_from(["sa", "sb", "sc"])),
                           min_size=1, max_size=24),
           # The main pivots' own values put a query at the far corner.
           query=st.tuples(_text | st.just("fever cough chills"),
                           _text | st.just("conjunctivitis"),
                           st.none() | _imputed),
           resident_query=st.booleans(),
           cells_per_dim=st.sampled_from([1, 2, 4, 8]),
           # Cells fail only for γ near d = 2: weight that end.
           gamma=(st.floats(min_value=0.0, max_value=2.0)
                  | st.floats(min_value=1.3, max_value=2.0)),
           keywords=st.sampled_from([frozenset(), KEYWORDS]),
           exclude_source=st.sampled_from([None, "sa", "sb", "sq"]),
           packed=st.booleans())
    def test_candidates_and_counters_equal_the_oracle(
            self, tuples, query, resident_query, cells_per_dim, gamma,
            keywords, exclude_source, packed):
        grid = ERGrid(SCHEMA, cells_per_dim=cells_per_dim)
        if packed:
            grid.enable_packed_store()
        arrivals = {}
        for index, (symptom, diagnosis, imputed, source) in enumerate(tuples):
            candidates = ({"diagnosis": imputed}
                          if imputed and not diagnosis else None)
            # Rids repeat every seven tuples, so some keys re-arrive.
            synopsis = _synopsis(f"r{index % 7}", symptom or None,
                                 diagnosis or None, candidates, source=source)
            grid.insert(synopsis)
            arrivals.pop((synopsis.rid, source), None)
            arrivals[(synopsis.rid, source)] = None
        # A re-arrived key moves to the end of grid insertion order.
        assert _keys(grid.synopses()) == list(arrivals)
        if resident_query:
            probe = grid.synopses()[len(tuples) // 2 % len(grid)]
        else:
            symptom, diagnosis, imputed = query
            probe = _synopsis("q", symptom or None, diagnosis or None,
                              ({"diagnosis": imputed}
                               if imputed and not diagnosis else None),
                              source="sq")
        _assert_lookup_equals_cell_walk(grid, probe, gamma, keywords,
                                        exclude_source)

    def _mixed_grid(self):
        """A grid where tuple ``w`` spans four cells and only one of them —
        shared with the wide tuple ``n`` — survives Lemma 4.2 for a query at
        the main pivots, while ``far`` lives in one failing cell."""
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        grid.enable_packed_store()
        grid.insert(_synopsis("w", "red eye itchy", None,
                              {"diagnosis": {"flu": 0.5,
                                             "conjunctivitis": 0.5}},
                              source="sb"))
        grid.insert(_synopsis("n", None, "conjunctivitis",
                              {"symptom": {"flu": 0.5, "fever cough": 0.5}},
                              source="sb"))
        grid.insert(_synopsis("far", "red eye itchy", "flu", source="sb"))
        query = _synopsis("q", "fever cough chills", "conjunctivitis",
                          source="sa")
        return grid, query

    def test_a_tuple_with_one_surviving_cell_stays_a_candidate(self):
        grid, query = self._mixed_grid()
        cells = grid._sources["sb"]["w"].cells
        failed = {cell.coordinates for cell in grid.cell_store.failed_cells(
            query.coordinate_rectangle(), len(SCHEMA) - 1.5, False)}
        assert len(cells) == 4
        assert 0 < len(failed.intersection(cells)) < len(cells)
        candidates = _assert_lookup_equals_cell_walk(grid, query, 1.5,
                                                     frozenset(), "sa")
        assert "w" in {candidate.rid for candidate in candidates}

    def test_a_tuple_whose_cells_all_fail_is_excluded(self):
        grid, query = self._mixed_grid()
        assert _cell_walk(grid, query, 1.5)[2] == 2
        candidates = _assert_lookup_equals_cell_walk(grid, query, 1.5,
                                                     frozenset(), "sa")
        assert [candidate.rid for candidate in candidates] == ["w", "n"]

    def test_a_resident_query_never_returns_itself(self):
        grid, _ = self._mixed_grid()
        for rid in ("w", "n", "far"):
            query = grid.get_synopsis(rid, "sb")
            for gamma in (0.0, 1.5):
                candidates = _assert_lookup_equals_cell_walk(
                    grid, query, gamma, frozenset(), None)
                assert rid not in {candidate.rid for candidate in candidates}


def _small_workload():
    return generate_dataset("citations", missing_rate=0.3, scale=0.3, seed=11)


def _small_config(workload, window=20, ratio=0.5):
    return TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                        alpha=0.5, similarity_ratio=ratio, window_size=window)


def _observables(engine, matches):
    stats = engine.pruning.stats
    return {
        "timestamps": engine.timestamps_processed,
        "matches": canonical_matches(matches),
        "result_set": canonical_matches(engine.current_matches()),
        "pruning": {
            "pairs_considered": stats.pairs_considered,
            "pruned_by_topic": stats.pruned_by_topic,
            "pruned_by_similarity": stats.pruned_by_similarity,
            "pruned_by_probability": stats.pruned_by_probability,
            "pruned_by_instance": stats.pruned_by_instance,
            "refined_matches": stats.refined_matches,
            "refined_non_matches": stats.refined_non_matches,
        },
        "grid": (engine.grid.cells_examined, engine.grid.tuples_examined),
    }


@pytest.mark.parametrize("ratio", [0.5, 0.9])
def test_serial_and_micro_batch_lookups_agree(ratio):
    """The serial oracle (candidate synopses) and the micro-batch executor
    (candidate rows) see the same candidates and count the same: at
    ρ = 0.9 cells do fail."""
    workload = _small_workload()
    config = _small_config(workload, ratio=ratio)
    records = list(workload.interleaved_records())
    serial = TERiDSEngine(repository=workload.repository, config=config)
    batched = TERiDSEngine(repository=workload.repository, config=config,
                           executor=MicroBatchExecutor(batch_size=16))
    assert (_observables(serial, serial.run(records).matches)
            == _observables(batched, batched.run(records).matches))
    assert len(batched.grid.cell_store) == batched.grid.cell_count


def test_cell_store_recycles_rows_on_cell_eviction(health_pivots,
                                                   health_schema):
    grid = ERGrid(health_schema, cells_per_dim=3)
    store = grid.cell_store
    assert len(store) == 0

    from repro.core.pruning import RecordSynopsis
    from repro.core.tuples import ImputedRecord, Record

    def synopsis(rid, symptom):
        record = Record(rid=rid,
                        values={"gender": "male", "symptom": symptom,
                                "diagnosis": "diabetes",
                                "treatment": "drug therapy"},
                        source="stream-a")
        imputed = ImputedRecord.from_complete(record, health_schema)
        return RecordSynopsis.build(imputed, health_pivots, frozenset())

    first = synopsis("r1", "weight loss blurred vision")
    grid.insert(first)
    rows_with_one = len(store)
    assert rows_with_one == grid.cell_count
    grid.remove("r1", "stream-a")
    assert len(store) == 0 == grid.cell_count
    # Rows are recycled, not leaked: re-inserting reuses the free list.
    grid.insert(first)
    assert len(store) == rows_with_one
