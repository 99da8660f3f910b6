"""Runs one workload: repeated passes, measurement and verification.

The engine is driven exactly as a user would drive it —
``IngestDriver -> TERiDSEngine(executor=MicroBatchExecutor())`` with no
execution-matrix knob — in repeated *passes* over the identical input, each
on a freshly constructed engine.  This machine's speed drifts by +-12 % over
seconds, so no single timing is trusted: every operation (an engine
construction, a whole ``driver.run()``, a tuple's emission, a read) is timed
once per pass and reported through the median of its timings across the
passes.

Outputs are checked outside the timed region against a ``SerialExecutor``
engine fed the same processed order and the same reads: pinned in
``expected.json`` for seeds 7 and 11, computed in the run for any other.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import tempfile
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro import (
    BatchPolicy,
    IngestDriver,
    MicroBatchExecutor,
    ReplaySource,
    SerialExecutor,
    TERiDSEngine,
    evaluate_matches,
)

import layers
from percentiles import percentile, supported_tail
from tracer import Tracer
from workloads import (
    CLOSED_LOOP_BATCH,
    LATENCY_LIMIT_MS,
    MIN_PASSES,
    OVERLOAD_BACKLOG,
    PACED_BURST,
    PACED_LATENESS,
    RECENT_TUPLES,
    Inputs,
    PacedSource,
    StampedRecords,
)

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
CHECKPOINT_SAVES = 5

#: (name, unit, better, bound) of every end-to-end metric.  The bound is the
#: share of the parent's median by which the metric may worsen.
END_TO_END_METRICS = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_tps", "1/s", "higher", 0.25),
    ("tuple_latency_p50_ms", "ms", "lower", 0.25),
    ("tuple_latency_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)


@dataclass
class Outputs:
    """What the program produced in one pass, reduced to what is pinned."""

    tuples: int
    order_sha: str
    matches_sha: str
    final_sha: str
    reads_sha: str
    pruning: List[int]
    f1: float


@dataclass
class PassResult:
    traced: bool
    setup_s: float
    wall_s: float
    #: Duration of every batch, on_batch callback (and its reads) included;
    #: compared batch by batch for the tracing overhead.
    batch_s: List[float]
    #: Due -> emitted per arrival, ``inf`` for a tuple that never came out.
    latency_s: List[float]
    read_s: List[float]
    reads_issued: int
    read_failures: int
    batches: List[list]
    outputs: Outputs
    rss_mb: float
    #: Open loop: how late the generator sent each tuple; unprocessed tuples
    #: when the last burst was due.
    lag_s: List[float] = field(default_factory=list)
    backlog_end: int = 0
    #: Traced passes only.
    layer: Optional[Dict[str, float]] = None
    table: Optional[List[list]] = None
    agreement: Optional[Dict[str, float]] = None


def sha_of(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def pairs_sha(pairs) -> str:
    """sha256 of the sorted match keys with ``repr(probability)``."""
    return sha_of(sorted(f"{pair.key()}|{pair.probability!r}"
                         for pair in pairs))


class Client:
    """The benchmark's side of one pass: notes every emission, mirrors the
    live windows and issues the reads.

    ``on_batch`` takes anything with ``resolve(rid, source)`` — the ingest
    driver in a measured pass, the bare serial engine in the reference.
    Reads are issued only on a workload that has them (``read-mix``).
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.index_of = {(record.source, record.rid): index
                         for index, record in enumerate(inputs.records)}
        self.emitted_at: Dict[int, float] = {}
        self.batches: List[list] = []
        self.batch_end: List[float] = []
        self.windows: Dict[str, deque] = {}
        self.recent: deque = deque(maxlen=RECENT_TUPLES)
        self.rng = random.Random(f"reads-{inputs.seed}")
        self.reads_issued = 0
        self.read_s: List[float] = []
        self.clusters: List[tuple] = []
        self.read_failures = 0

    def on_batch(self, resolver, records) -> None:
        now = perf_counter()
        index_of, emitted_at = self.index_of, self.emitted_at
        for record in records:
            key = (record.source, record.rid)
            emitted_at[index_of[key]] = now
            window = self.windows.get(record.source)
            if window is None:
                window = self.windows[record.source] = deque(
                    maxlen=self.inputs.config.window_size)
            window.append(key)
            self.recent.append(key)
        self.batches.append(list(records))
        reads = self.inputs.spec.reads_per_batch
        if reads:
            # Half aimed at the newest tuples, half uniform over the window.
            live = self.live()
            choice = self.rng.choice
            in_window = set(live)
            recent = [key for key in self.recent if key in in_window]
            self.read(resolver, [choice(recent) for _ in range(reads // 2)]
                      + [choice(live) for _ in range(reads - reads // 2)])
        self.batch_end.append(perf_counter())

    def live(self) -> List[tuple]:
        return [key for window in self.windows.values() for key in window]

    def read(self, resolver, targets: Sequence[tuple]) -> None:
        self.reads_issued += len(targets)
        for source, rid in targets:
            start = perf_counter()
            try:
                cluster = resolver.resolve(rid, source)
            except KeyError:
                self.read_failures += 1
                continue
            self.read_s.append(perf_counter() - start)
            self.clusters.append((source, rid, cluster))

    def outputs(self, engine, matches) -> Outputs:
        """Digest the pass (call outside any timed region)."""
        for source, rid, cluster in self.clusters:
            if not cluster.contains(rid, source):
                self.read_failures += 1
        stats = engine.pruning.stats
        return Outputs(
            tuples=sum(len(batch) for batch in self.batches),
            order_sha=sha_of(f"{record.source}/{record.rid}"
                             for batch in self.batches for record in batch),
            matches_sha=pairs_sha(matches),
            final_sha=pairs_sha(engine.current_matches()),
            reads_sha=sha_of(
                f"{source}/{rid}|{sorted(cluster.members)}|"
                f"{sorted((pair.key(), repr(pair.probability)) for pair in cluster.pairs)}"
                for source, rid, cluster in self.clusters),
            pruning=[stats.pairs_considered, stats.pruned_by_topic,
                     stats.pruned_by_similarity, stats.pruned_by_probability,
                     stats.pruned_by_instance, stats.refined_matches,
                     stats.refined_non_matches],
            f1=evaluate_matches(matches, self.inputs.ground_truth).f_score)


def run_pass(inputs: Inputs, traced: bool,
             executor_kwargs: Optional[dict] = None) -> PassResult:
    """Construct an engine, drive the whole input through it, digest it."""
    spec = inputs.spec
    if spec.open_loop:
        source = paced = PacedSource(inputs.records, inputs.event_times,
                                     inputs.due_offsets)
        due_at = paced.due_at
    else:
        stamped = StampedRecords(inputs.records)
        source, due_at = ReplaySource(stamped), stamped.due_at
    client = Client(inputs)
    tracer = probes = None
    if traced:
        tracer = Tracer()
        index_of = client.index_of
        probes = layers.Probes(
            lambda record: due_at[index_of[(record.source, record.rid)]])
        layers.install(tracer, probes)
    gc.collect()
    engine = None
    try:
        start = perf_counter()
        engine = TERiDSEngine(
            repository=inputs.repository, config=inputs.config,
            executor=MicroBatchExecutor(**(executor_kwargs or {})))
        setup_s = perf_counter() - start
        driver = IngestDriver(
            engine, [source],
            # Open loop: the driver's own default policy (64 / 50 ms).
            policy=(None if spec.open_loop
                    else BatchPolicy(max_batch=CLOSED_LOOP_BATCH)),
            lateness=PACED_LATENESS if spec.open_loop else 0.0,
            on_batch=client.on_batch)
        run_lo = len(tracer.spans) if traced else 0
        start = perf_counter()
        report = driver.run()
        end = perf_counter()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall_s = end - start
        marks = [start] + client.batch_end
        batch_s = [after - before for before, after in zip(marks, marks[1:])]
        if batch_s:
            batch_s[-1] += end - marks[-1]  # the final drain
        outputs = client.outputs(engine, report.matches)
        result = PassResult(
            traced=traced, setup_s=setup_s, wall_s=wall_s, batch_s=batch_s,
            latency_s=[client.emitted_at.get(index, float("inf")) - due
                       for index, due in enumerate(due_at)],
            read_s=client.read_s, reads_issued=client.reads_issued,
            read_failures=client.read_failures,
            batches=client.batches, outputs=outputs, rss_mb=rss_mb)
        if spec.open_loop:
            result.lag_s = [sent - due for sent, due
                            in zip(paced.sent_at, paced.due_at)]
            last_due = paced.due_at[-1]
            earlier = len(inputs.records) - PACED_BURST
            result.backlog_end = sum(
                1 for index in range(max(0, earlier))
                if client.emitted_at.get(index, float("inf")) > last_due)
        if traced:
            run = tracer.totals(run_lo)
            result.layer = layers.layer_metrics(
                tracer.totals(0, run_lo), run, wall_s, probes,
                tracer.durations(layers.EXECUTORS, run_lo),
                engine.ctx)
            read_ms = [1e3 * value for value in client.read_s]
            result.layer.update(
                checkpoint_metrics(engine),
                **{"loadgen.lag_p99_ms": 1e3 * percentile(result.lag_s, 99),
                   "ingest.driver.backlog_end": result.backlog_end,
                   "quality.f1": outputs.f1,
                   "runtime.query.resolve_p50_ms": percentile(read_ms, 50),
                   "runtime.query.resolve_p90_ms": percentile(read_ms, 90)})
            result.table = layer_table(run, wall_s)
            result.agreement = layers.breakup_agreement(run, engine)
        return result
    finally:
        if tracer is not None:
            tracer.restore()
        if engine is not None:
            engine.close()


def checkpoint_metrics(engine) -> Dict[str, float]:
    """Median time of ``engine.save_checkpoint`` and the size it writes."""
    times = []
    with tempfile.TemporaryDirectory(prefix=".ckpt-", dir=BENCH_DIR) as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        for _ in range(CHECKPOINT_SAVES):
            start = perf_counter()
            engine.save_checkpoint(path)
            times.append(perf_counter() - start)
        size = os.path.getsize(path)
    return {"runtime.checkpoint.save_ms": 1e3 * statistics.median(times),
            "runtime.checkpoint.bytes": size}


def layer_table(run, wall_s: float) -> List[list]:
    """Rows ``[layer, calls, busy_s, self_s, share of traced wall]``; the
    driver row is whatever no wrapped layer accounts for."""
    rows = []
    attributed = 0.0
    for layer in layers.RUN_LAYERS:
        totals = run.get(layer)
        if totals is None:
            continue
        attributed += totals.self_s
        rows.append([layer, totals.calls, totals.busy_s, totals.self_s,
                     totals.self_s / wall_s])
    rows.append([layers.DRIVER, 1, wall_s, wall_s - attributed,
                 (wall_s - attributed) / wall_s])
    return rows


def measure(inputs: Inputs, seconds: float, trace: bool,
            executor_kwargs: Optional[dict] = None) -> List[PassResult]:
    """Identical passes until ``seconds`` have gone by (at least
    ``MIN_PASSES``).  A traced run alternates traced and untraced passes, so
    the tracing overhead is taken within the same minute."""
    passes: List[PassResult] = []
    begin = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - begin < seconds:
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(inputs, traced, executor_kwargs))
    return passes


def reference_outputs(inputs: Inputs, batches: Sequence[list]) -> Outputs:
    """The same processed order and reads through a fresh serial engine."""
    engine = TERiDSEngine(repository=inputs.repository, config=inputs.config,
                          executor=SerialExecutor())
    client = Client(inputs)
    matches = []
    for batch in batches:
        matches.extend(engine.process_batch(batch))
        client.on_batch(engine, batch)
    return client.outputs(engine, matches)


def pinned_outputs(inputs: Inputs) -> Optional[dict]:
    """The ``expected.json`` entry for these inputs, if one was pinned for
    this workload, seed and stream length."""
    if not EXPECTED_PATH.exists():
        return None
    entry = (json.loads(EXPECTED_PATH.read_text())
             .get(inputs.spec.name, {}).get(str(inputs.seed)))
    if entry is None or entry["offered"] != len(inputs.records):
        return None
    return entry


def verify(passes: Sequence[PassResult], reference: Outputs) -> List[str]:
    """Every pass against the reference; returns the mismatches found."""
    problems = []
    expected = asdict(reference)
    for number, result in enumerate(passes):
        for name, value in asdict(result.outputs).items():
            if value != expected[name]:
                problems.append(f"pass {number}: {name} is {value!r}, "
                                f"the serial reference has {expected[name]!r}")
    return problems


def per_operation_median(series: Sequence[Sequence[float]]) -> List[float]:
    """Median of each operation's timings across the passes."""
    return [statistics.median(column) for column in zip(*series)]


def end_to_end(inputs: Inputs, passes: Sequence[PassResult]) -> Dict:
    """The end-to-end metrics of a run, plus the sample counts behind them."""
    latency_ms = [1e3 * value for value in per_operation_median(
        [p.latency_s for p in passes])]
    timings = sum(len(p.latency_s) for p in passes)
    return {
        "metrics": {
            "setup_s": statistics.median(p.setup_s for p in passes),
            "throughput_tps": len(inputs.records) / statistics.median(
                p.wall_s for p in passes),
            "tuple_latency_p50_ms": percentile(latency_ms, 50),
            "tuple_latency_p99_ms": percentile(latency_ms, 99),
            "peak_rss_mb": passes[0].rss_mb,
        },
        "passes": len(passes),
        "tuples_per_pass": len(inputs.records),
        "latency_timings": timings,
        "latency_tail_supported": supported_tail(timings),
        "overloaded": any(p.backlog_end > OVERLOAD_BACKLOG for p in passes),
    }


def per_layer(inputs: Inputs, passes: Sequence[PassResult]) -> Dict[str, float]:
    """Median of every per-layer metric across the traced passes, plus the
    tracing overhead: the median over the batches of fastest traced timing
    over fastest untraced timing (the schedule sets an open-loop wall, so
    none is reported there)."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = {name: statistics.median(p.layer[name] for p in traced)
               for name in traced[0].layer}
    overhead = 0.0
    if plain and not inputs.spec.open_loop:
        overhead = 100.0 * (statistics.median(
            min(with_trace) / min(without) for with_trace, without
            in zip(zip(*(p.batch_s for p in traced)),
                   zip(*(p.batch_s for p in plain)))) - 1.0)
    metrics["trace.overhead_pct"] = overhead
    return metrics


def operations(inputs: Inputs, passes: Sequence[PassResult],
               problems: Sequence[str]) -> tuple:
    """``(attempted, failed)``: tuples offered and reads issued, against
    tuples emitted within the latency limit in a verified pass and reads
    answered.  A digest mismatch fails every operation of the run."""
    attempted = failed = 0
    for result in passes:
        attempted += len(result.latency_s) + result.reads_issued
        late = sum(1 for value in result.latency_s
                   if value == float("inf")
                   or (inputs.spec.open_loop
                       and 1e3 * value > LATENCY_LIMIT_MS))
        failed += late + result.read_failures
    return attempted, attempted if problems else failed
