"""The end-to-end benchmark's wrap points still land on the default path.

``benchmarks/e2e/layers.py::WRAP_POINTS`` names, by ``(owner, attribute)``,
the callables the benchmark's tracer wraps for its per-layer rows.  A change
that moves a call site off one of them does not fail the benchmark — the row
silently reads zero (``indexes.dr_index`` has read zero since determinant
matching moved to the packed repository mirror).  These tests read the table (they never edit the benchmark) and fail tier-1
instead: the run-phase rows over one driven pass, the ``setup.*`` rows over
one engine construction.
"""

import sys
from pathlib import Path

import pytest

from golden_utils import GOLDEN_WORKLOADS, build_config, build_workload
from repro.core.engine import TERiDSEngine
from repro.ingest import BatchPolicy, IngestDriver, ReplaySource
from repro.runtime import MicroBatchExecutor

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402  (the benchmark's own module, read-only)
from tracer import Tracer  # noqa: E402

#: Run-phase wrap points the default path is known not to call.  Each entry
#: is a layer row that reads zero until a ``benchmark`` issue re-points it.
NOT_ON_DEFAULT_PATH = {
    # PR 13: determinant matching probes the packed repository mirror
    # (``DRIndex.matching_samples``) instead.
    ("DRIndex", "candidate_samples"),
}


def test_every_run_phase_wrap_point_is_called(monkeypatch):
    run_phase = [(owner, attr) for owner, attr, layer, _leaf, _hook
                 in layers.WRAP_POINTS if not layer.startswith("setup.")]
    assert run_phase, "WRAP_POINTS lost its run-phase rows"
    calls = {}

    def counting(key, original):
        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return counted

    for owner, attr in run_phase:
        key = (owner.__name__.rsplit(".", 1)[-1], attr)
        calls[key] = 0
        monkeypatch.setattr(owner, attr, counting(key, getattr(owner, attr)))

    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    workload = build_workload(dataset, scale, seed)
    engine = TERiDSEngine(repository=workload.repository,
                          config=build_config(workload, window),
                          executor=MicroBatchExecutor())
    try:
        driver = IngestDriver(
            engine, [ReplaySource(workload.interleaved_records())],
            policy=BatchPolicy(max_batch=32),
            on_batch=lambda _driver, records: engine.resolve(
                records[-1].rid, records[-1].source))
        driver.run()
    finally:
        engine.close()

    never_called = {key for key, count in calls.items() if count == 0}
    assert never_called == NOT_ON_DEFAULT_PATH, (
        "benchmark wrap points off the default path (their layer rows would "
        f"read zero): {sorted(never_called - NOT_ON_DEFAULT_PATH)}; "
        "allow-listed but called again: "
        f"{sorted(NOT_ON_DEFAULT_PATH - never_called)}")


def test_every_setup_wrap_point_is_timed_once():
    setup_phase = [(owner, attr, layer) for owner, attr, layer, _leaf, _hook
                   in layers.WRAP_POINTS if layer.startswith("setup.")]
    assert {layer for _, _, layer in setup_phase} == set(layers.SETUP_LAYERS)
    dataset, scale, seed, window = GOLDEN_WORKLOADS[0]
    workload = build_workload(dataset, scale, seed)
    tracer = Tracer()
    for owner, attr, layer in setup_phase:
        tracer.wrap(owner, attr, layer)
    try:
        engine = TERiDSEngine(repository=workload.repository,
                              config=build_config(workload, window),
                              executor=MicroBatchExecutor())
        engine.close()
    finally:
        tracer.restore()
    totals = tracer.totals()
    for layer in layers.SETUP_LAYERS:
        assert layer in totals, f"{layer} never called by the constructor"
        assert totals[layer].calls == 1, (layer, totals[layer].calls)
        assert totals[layer].busy_s > 0.0, f"{layer} recorded no time"
