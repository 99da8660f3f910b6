"""Unit tests for the ER-grid synopsis over sliding windows (Section 5.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from golden_utils import canonical_matches
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.matching import ter_ids_probability
from repro.core.pruning import RecordSynopsis
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.datasets.synthetic import generate_dataset
from repro.imputation.repository import DataRepository
from repro.indexes.er_grid import ERGrid, GridCell
from repro.indexes.pivots import PivotSelectionConfig, select_pivots

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
            low, high = cell.distance_intervals[index]
            size_low, size_high = cell.token_size_intervals[index]
            for synopsis in synopses:
                entry_low, entry_high = synopsis.main_interval(attribute)
                assert low - 1e-9 <= entry_low and entry_high <= high + 1e-9
                entry_size_low, entry_size_high = synopsis.token_size_bounds[attribute]
                assert size_low <= entry_size_low and entry_size_high <= size_high

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


class TestColumnarCellRefresh:
    """With a packed store the grid refreshes an evicted tuple's cells from
    the entries' rows; the scalar ``GridCell.recompute`` is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_step, min_size=4, max_size=40),
           cells_per_dim=st.sampled_from([1, 2, 4]),
           epoch_every=st.integers(min_value=1, max_value=8))
    def test_refresh_equals_scalar_recompute(self, steps, cells_per_dim,
                                             epoch_every):
        grid = ERGrid(SCHEMA, cells_per_dim=cells_per_dim)
        grid.enable_packed_store()
        live = []
        for index, step in enumerate(steps):
            if index % epoch_every == 0:
                grid.begin_epoch()
            if step is None:
                if not live:
                    continue
                grid.remove(*live.pop(0))
            else:
                symptom, diagnosis, imputed = step
                candidates = ({"diagnosis": imputed}
                              if imputed and not diagnosis else None)
                synopsis = _synopsis(f"r{index}", symptom or None,
                                     diagnosis or None, candidates)
                grid.insert(synopsis)
                live.append((synopsis.rid, synopsis.source))
            for cell in grid._cells.values():
                oracle = GridCell(coordinates=cell.coordinates,
                                  entries=dict(cell.entries))
                oracle.recompute(SCHEMA)
                assert cell.may_have_keyword is oracle.may_have_keyword
                assert cell.distance_intervals == oracle.distance_intervals
                assert cell.token_size_intervals == oracle.token_size_intervals
                for low, high in cell.distance_intervals:
                    assert type(low) is float and type(high) is float
                for low, high in cell.token_size_intervals:
                    assert type(low) is int and type(high) is int

    def test_refresh_reads_rows_not_entries(self, monkeypatch):
        """The store path must not fall back to the scalar walk."""
        grid = ERGrid(SCHEMA, cells_per_dim=1)
        grid.enable_packed_store()
        for index, (symptom, diagnosis) in enumerate(
                [("thirst", "diabetes"), ("fever", "flu"), ("red eye", "flu")]):
            grid.insert(_synopsis(f"r{index}", symptom, diagnosis))
        monkeypatch.setattr(GridCell, "recompute", lambda *args: pytest.fail(
            "scalar recompute ran although every entry is resident"))
        grid.remove("r0", "s1")
        cell = next(iter(grid._cells.values()))
        assert not cell.may_have_keyword
        assert len(cell.entries) == 2


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
        candidate_rids = {candidate.rid for candidate in candidates}
        assert "near" in candidate_rids
        # With a tight gamma the distant population should be (at least
        # partially) pruned at the cell level.
        assert grid.tuples_examined <= 21


class TestCellStoreEdgeCases:
    def test_enabled_empty_store_scan_returns_all_dead(self):
        """Regression: ``CellStore.scan`` dereferenced its ``None`` arrays
        when a lookup preceded the first insert on a freshly enabled store
        (the arrays are only allocated by the first write) — e.g. a
        query-time resolve against a just-enabled grid."""
        grid = ERGrid(SCHEMA, cells_per_dim=4)
        store = grid.enable_cell_store()
        query = _synopsis("q", "weight loss", "diabetes", source="sq")
        mask = store.scan(query.coordinate_rectangle(), margin=2.0,
                          require_keyword=False)
        assert len(mask) == 0
        assert grid.candidate_synopses(query, gamma=0.5) == []


# ---------------------------------------------------------------------------
# Vectorized cell scan == scalar walk, bit for bit
# ---------------------------------------------------------------------------
def _small_workload():
    return generate_dataset("citations", missing_rate=0.3, scale=0.3, seed=11)


def _small_config(workload, window=20):
    return TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                        alpha=0.5, similarity_ratio=0.5, window_size=window)


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


def test_cell_store_scan_identical_to_scalar_walk():
    workload = _small_workload()
    config = _small_config(workload)
    records = list(workload.interleaved_records())

    scalar = TERiDSEngine(repository=workload.repository, config=config)
    vectorized = TERiDSEngine(repository=workload.repository, config=config)
    assert vectorized.grid.enable_cell_store() is not None
    scalar_report = scalar.run(records)
    vectorized_report = vectorized.run(records)

    assert (_observables(scalar, scalar_report.matches)
            == _observables(vectorized, vectorized_report.matches))
    # The store tracked every live cell and no more.
    assert len(vectorized.grid.cell_store) == vectorized.grid.cell_count


def test_cell_store_enabled_mid_stream_backfills():
    """Enabling the store on a populated grid back-fills every cell."""
    workload = _small_workload()
    config = _small_config(workload)
    records = list(workload.interleaved_records())
    engine = TERiDSEngine(repository=workload.repository, config=config)
    engine.run(records[: len(records) // 2])
    store = engine.grid.enable_cell_store()
    assert len(store) == engine.grid.cell_count
    # Same object on re-enable, still in sync after more maintenance.
    assert engine.grid.enable_cell_store() is store
    engine.run(records[len(records) // 2:])
    assert len(store) == engine.grid.cell_count


def test_cell_store_recycles_rows_on_cell_eviction(health_pivots,
                                                   health_schema):
    grid = ERGrid(health_schema, cells_per_dim=3)
    store = grid.enable_cell_store()
    assert store is not None and len(store) == 0

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
