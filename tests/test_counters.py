"""Tests driven by the runtime's counter table (``repro.runtime.context``).

Every counter is declared once, in ``COUNTERS``; the checkpoint, the
metrics snapshot and the metrics registry each read it through one loop
over that table.  These tests hold the three readers to the table: every
declared counter round-trips through a checkpoint and shows up in the
snapshot and in the Prometheus exposition, a counter on a table holder
without a row fails, and the exposition's families stay the ones pinned
below.
"""

import json
import re
from dataclasses import fields, is_dataclass
from operator import attrgetter

from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.datasets.synthetic import generate_dataset
from repro.ingest import BatchPolicy, IngestDriver, ReplaySource
from repro.obs import HISTOGRAM
from repro.runtime import MicroBatchExecutor
from repro.runtime.context import COUNTERS, FAMILIES, MAP, get_key

#: Integer attributes of a table holder that are configuration, not counters.
_NOT_COUNTERS = {"grid.cells_per_dim"}

_MISSING = object()


def _holder_counters(ctx):
    """Every integer attribute of every holder the table reads from."""
    found = set()
    for prefix in {row.path.rpartition(".")[0] for row in COUNTERS}:
        holder = attrgetter(prefix)(ctx) if prefix else ctx
        names = ([f.name for f in fields(holder)] if is_dataclass(holder)
                 else list(vars(holder)))
        for name in names:
            value = getattr(holder, name)
            path = f"{prefix}.{name}" if prefix else name
            if (isinstance(value, int) and not isinstance(value, bool)
                    and not name.startswith("_")
                    and path not in _NOT_COUNTERS):
                found.add(path)
    return found


def _settable(row):
    return row.kind != HISTOGRAM and (row.checkpoint or row.snapshot)


def _series(row, value):
    """The exposition lines one row renders as (``name{labels} value``)."""
    label = FAMILIES[row.family][0]
    if row.kind == MAP:
        return [f'{row.family}{{{label}="{key}"}} {count}'
                for key, count in value.items()]
    labels = f'{{{label}="{row.label}"}}' if label is not None else ""
    return [f"{row.family}{labels} {value}"]


def test_every_counter_round_trips_and_is_exposed(health_repository,
                                                  health_config):
    """Distinct values in, checkpoint, restore into a fresh engine: each
    comes back equal, in the snapshot and under its family and label.  An
    integer attribute of a table holder without a row fails here."""
    engine = TERiDSEngine(health_repository, health_config)
    paths = [row.path for row in COUNTERS]
    assert _holder_counters(engine.ctx) <= set(paths)
    assert len(set(paths)) == len(paths)
    assert {row.family for row in COUNTERS} == set(FAMILIES)
    expected = {}
    for index, row in enumerate(COUNTERS):
        if _settable(row):
            value = ({f"key{index}": 1000 + index} if row.kind == MAP
                     else 1000 + index)
            row.write(engine.ctx, value)
            expected[row] = value
    state = json.loads(json.dumps(engine.checkpoint()))

    restored = TERiDSEngine(health_repository, health_config)
    restored.restore_checkpoint(state)
    snapshot = restored.metrics_snapshot()
    restored.enable_telemetry()
    text = restored.render_metrics()
    lines = set(text.splitlines())
    for row in COUNTERS:
        assert f"# TYPE {row.family} " in text, row
        if row not in expected:
            continue
        value = expected[row]
        assert row.read(restored.ctx) == value, row
        if row.snapshot is not None:
            assert get_key(snapshot, row.snapshot, _MISSING) == value, row
        for line in _series(row, value):
            assert line in lines, (row, line)


#: ``(family, type, label names)`` of every family ``render_metrics()``
#: emits after :func:`_fixed_run`, as the commit before the counter table
#: rendered them.
_SURFACE = {
    ('terids_batch_seconds', 'histogram', ()),
    ('terids_batch_seq', 'gauge', ()),
    ('terids_batch_tuples', 'histogram', ()),
    ('terids_batches_total', 'counter', ()),
    ('terids_dr_index_nodes_visited_total', 'counter', ()),
    ('terids_dr_index_packed_probes_total', 'counter', ()),
    ('terids_grid_cells_examined_total', 'counter', ()),
    ('terids_grid_tuples_examined_total', 'counter', ()),
    ('terids_imputation_events_total', 'counter', ('kind',)),
    ('terids_ingest_batches_total', 'counter', ('trigger',)),
    ('terids_ingest_events_total', 'counter', ('kind',)),
    ('terids_ingest_formation_seconds', 'histogram', ()),
    ('terids_ingest_max_queue_depth', 'gauge', ()),
    ('terids_ingest_queue_depth', 'gauge', ()),
    ('terids_packed_store_vocabulary_size', 'gauge', ()),
    ('terids_pruning_pairs_total', 'counter', ('outcome',)),
    ('terids_query_events_total', 'counter', ('kind',)),
    ('terids_resolve_seconds', 'histogram', ()),
    ('terids_rule_installs_total', 'counter', ('outcome',)),
    ('terids_stage_invocations_total', 'counter', ('stage',)),
    ('terids_stage_seconds', 'histogram', ('stage',)),
    ('terids_stage_wall_seconds_total', 'counter', ('stage',)),
    ('terids_timestamps_processed', 'gauge', ()),
}


def _fixed_run():
    workload = generate_dataset("citations", missing_rate=0.3, scale=0.2,
                                seed=7)
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          alpha=0.5, similarity_ratio=0.5, window_size=20)
    engine = TERiDSEngine(workload.repository, config,
                          executor=MicroBatchExecutor(batch_size=16))
    engine.enable_telemetry()
    IngestDriver(engine, [ReplaySource(workload.interleaved_records())],
                 policy=BatchPolicy(max_batch=16)).run()
    (rid, source), _ = engine.grid.synopsis_items()[0]
    engine.resolve(rid, source)
    return engine


def test_metrics_surface():
    text = _fixed_run().render_metrics()
    types, labels = {}, {}
    for line in text.splitlines():
        declared = re.match(r"# TYPE (\S+) (\S+)", line)
        if declared:
            types[declared.group(1)] = declared.group(2)
            labels[declared.group(1)] = set()
        elif not line.startswith("#"):
            name = re.match(r"[^{ ]+", line).group(0)
            if name not in types:
                name = re.sub(r"_(bucket|sum|count)$", "", name)
            labels[name] |= set(re.findall(r'(\w+)="', line)) - {"le"}
    assert {(name, kind, tuple(sorted(labels[name])))
            for name, kind in types.items()} == _SURFACE
