"""Self-test of the end-to-end benchmark (collected by the root ``pytest``).

Runs the whole command at self-test sizes and checks the pieces a wrong
number would hide behind: metric names and units, the tracer's self-time
arithmetic, wrapper restoration, the percentile rule and the output check.
"""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import layers  # noqa: E402
import tracer as tracer_module  # noqa: E402
from percentiles import percentile, supported_tail  # noqa: E402
from workloads import BY_NAME, WORKLOADS, build_inputs  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Full-size runs attribute 99 % of the traced wall.  A self-test pass lasts
#: ~70 ms, of which starting and closing the event loop is already 3-6 %, and
#: one scheduling stall is more; the threshold only has to catch a wrapper
#: that no longer lands on the program (coverage then drops to ~0).
MIN_SMOKE_COVERAGE = 0.8


def test_manifest_lists_what_the_code_measures():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (spec.name, spec.why) for spec in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == list(
                harness.END_TO_END_METRICS)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(layers.PER_LAYER_METRICS)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def test_smoke_run_prints_every_metric_by_name_and_unit():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    sections = done.stdout.split("\n== ")[1:]
    assert [section.split()[0] for section in sections] == [
        spec.name for spec in WORKLOADS]
    expected = ([(name, unit) for name, unit, _, _
                 in harness.END_TO_END_METRICS]
                + [(name, unit) for name, unit, _ in layers.PER_LAYER_METRICS])
    for spec, section in zip(WORKLOADS, sections):
        printed = {}
        for line in section.splitlines():
            parts = line.split()
            if len(parts) == 3 and NAME.match(parts[0]):
                try:
                    printed[parts[0]] = (float(parts[1]), parts[2])
                except ValueError:
                    pass
        for name, unit in expected:
            assert name in printed, f"{spec.name}: {name} not printed"
            assert printed[name][1] == unit and UNIT.match(unit)
        assert "ops_failed 0" in section
        if not spec.open_loop:
            assert printed["trace.coverage"][0] >= MIN_SMOKE_COVERAGE
        for layer in layers.RUN_LAYERS[:3] + (layers.DRIVER,):
            assert re.search(rf"^\s+{re.escape(layer)}\s+\d+", section, re.M)


def test_self_time_is_duration_minus_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer_module, "perf_counter", lambda: next(ticks))

    class Program:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            pass

    tracer = tracer_module.Tracer()
    tracer.wrap(Program, "outer", "outer")
    tracer.wrap(Program, "inner", "inner")
    Program().outer()
    tracer.restore()
    # The fake clock ticks once per reading: outer 0..5, inner 1..2 and 3..4.
    assert tracer.spans == [["outer", 0, 5, -1], ["inner", 1, 2, 0],
                            ["inner", 3, 4, 0]]
    totals = tracer.totals()
    assert (totals["outer"].calls, totals["outer"].busy_s,
            totals["outer"].self_s) == (1, 5, 3)
    assert (totals["inner"].calls, totals["inner"].busy_s,
            totals["inner"].self_s) == (2, 2, 2)
    assert not hasattr(Program.outer, "__wrapped__")


def test_leaf_layer_hides_wrapped_calls_below_it():
    class Program:
        def read(self):
            return self.kernel()

        def kernel(self):
            return 1

    tracer = tracer_module.Tracer()
    tracer.wrap(Program, "read", "read", leaf=True)
    tracer.wrap(Program, "kernel", "kernel")
    assert Program().read() == 1 and Program().kernel() == 1
    tracer.restore()
    assert [span[0] for span in tracer.spans] == ["read", "kernel"]


def test_traced_pass_restores_every_wrapped_attribute_and_verifies():
    before = [vars(owner).get(attr) for owner, attr, *_ in layers.WRAP_POINTS]
    inputs = build_inputs(BY_NAME["read-mix"], seed=5, seconds=0.5, smoke=True)
    result = harness.run_pass(inputs, traced=True)
    after = [vars(owner).get(attr) for owner, attr, *_ in layers.WRAP_POINTS]
    assert all(was is now for was, now in zip(before, after))
    assert set(result.layer) | {"trace.overhead_pct"} == {
        name for name, _, _ in layers.PER_LAYER_METRICS}
    assert result.layer["trace.coverage"] >= MIN_SMOKE_COVERAGE

    reference = harness.reference_outputs(inputs, result.batches)
    assert harness.verify([result], reference) == []
    # Negative: one dropped match must trip the check.
    import repro

    engine = repro.TERiDSEngine(repository=inputs.repository,
                                config=inputs.config)
    matches = engine.run(inputs.records).matches
    assert matches and harness.pairs_sha(matches) == reference.matches_sha
    tampered = dataclasses.replace(
        reference, matches_sha=harness.pairs_sha(matches[:-1]))
    problems = harness.verify([result], tampered)
    assert len(problems) == 1 and "matches_sha" in problems[0]
    attempted, failed = harness.operations(inputs, [result], problems)
    assert failed == attempted > 0


def test_highest_percentile_with_ten_samples_beyond_it():
    assert supported_tail(10_000) == 99.9
    assert supported_tail(9_999) == 99.0
    assert supported_tail(1_000) == 99.0
    assert supported_tail(999) == 95.0
    assert supported_tail(150) == 90.0
    assert supported_tail(99) == 0.0
    assert percentile(range(1, 101), 99) == 99
    assert percentile(range(1, 101), 50) == 50
    assert percentile([3.0], 99) == 3.0
    assert percentile([], 50) == 0.0
