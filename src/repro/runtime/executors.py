"""Executors: scheduling strategies over the staged TER-iDS pipeline.

Two implementations of the :class:`Executor` contract:

* :class:`MicroBatchExecutor` — the engine's default.  It ingests tuples in
  configurable batches and reorganises the work for throughput while
  provably preserving the serial match sets:

  1. the *order-free* stages (rule selection, imputation, synopsis) run for
     the whole batch up front — imputation with a cross-record
     ``cand(s[A_j])`` cache and the DR-index's packed probe;
  2. the *order-bound* maintenance + grid lookup run per tuple in arrival
     order (cheap), recording each tuple's candidates as rows of the grid's
     resident packed store (each synopsis is packed into its row when
     maintenance inserts it) and the eviction events;
  3. pair refinement — the dominant cost — is evaluated as a pure function
     of the recorded (query, candidate) pairs by
     :func:`~repro.runtime.evaluation.evaluate_task_batch`, the row cascade
     over those rows;
  4. the result-set mutations (evictions, new pairs) are replayed in
     arrival order, reproducing the serial entity-result-set exactly.

* :class:`SerialExecutor` — one tuple at a time through
  :meth:`Pipeline.process_one`; bit-identical to the seed engine, and kept
  only as the scalar oracle the micro-batch path is compared against.

Why this is safe: candidate lookup for tuple ``t`` observes exactly the
evictions/insertions of tuples before ``t`` (step 2 preserves arrival
order), and each pair verdict depends only on the two synopses and the
operator thresholds — never on when it is computed.  Step 4 then serialises
the state mutations back into arrival order.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Tuple

from repro.core.matching import MatchPair
from repro.core.tuples import Record
from repro.metrics.timing import (
    STAGE_CDD_SELECTION,
    STAGE_ER,
    STAGE_IMPUTATION,
)
from repro.runtime.evaluation import evaluate_task_batch
from repro.runtime.pipeline import Pipeline
from repro.runtime.stages import TupleTask


class Executor(abc.ABC):
    """Scheduling strategy for pushing arriving tuples through a pipeline."""

    #: Preferred ingestion granularity; ``TERiDSEngine.run`` chunks the
    #: input sequence into batches of this size.
    batch_size: int = 1

    @abc.abstractmethod
    def process_batch(self, pipeline: Pipeline,
                      records: Sequence[Record]) -> List[List[MatchPair]]:
        """Process ``records`` (in arrival order); per-record match lists."""

    def close(self) -> None:
        """Release executor-owned resources (neither built-in executor
        holds any; ``TERiDSEngine.close`` calls this for those that do)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """The scalar oracle: the seed semantics, one tuple at a time."""

    batch_size = 1

    def process_batch(self, pipeline: Pipeline,
                      records: Sequence[Record]) -> List[List[MatchPair]]:
        with pipeline.ctx.begin_batch(len(records)):
            # Only matters on a grid whose packed store was enabled earlier,
            # by a micro-batch run or by a ``resolve``: it keeps being
            # maintained.
            pipeline.ctx.grid.begin_epoch()
            return [pipeline.process_one(record) for record in records]


#: Result-set replay events recorded by the micro-batch executor.
_EVICT = 0
_EMIT = 1


class MicroBatchExecutor(Executor):
    """Micro-batch scheduling with amortised stage execution (the default).

    ``batch_size`` is the ingestion granularity ``TERiDSEngine.run`` chunks
    its input by — a plain attribute, safe to reassign between batches.
    Larger batches amortise more (imputation candidate sets, packed-store
    epochs, kernel passes) at the cost of latency; 32–128 is a good range
    for the bundled workloads.
    """

    def __init__(self, batch_size: int = 32) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = batch_size

    def process_batch(self, pipeline: Pipeline,
                      records: Sequence[Record]) -> List[List[MatchPair]]:
        with pipeline.ctx.begin_batch(len(records)):
            return self._process_batch(pipeline, records)

    def _process_batch(self, pipeline: Pipeline,
                       records: Sequence[Record]) -> List[List[MatchPair]]:
        ctx = pipeline.ctx
        tel = ctx.telemetry
        if ctx.imputer.candidate_cache is None:
            # Cross-record memoisation of cand(s[A_j]) — see CDDImputer.
            ctx.imputer.candidate_cache = {}
        # The DR-index's packed probe is the exact columnar equivalent of
        # retrieving through that index — and of nothing else.
        ctx.imputer.packed_index = (
            ctx.dr_index
            if ctx.imputer.sample_retriever is ctx.dr_index.make_retriever()
            else None)
        # Candidates are rows of the resident packed store.
        ctx.grid.enable_packed_store()
        # Rows evicted during the previous batch stayed gatherable until its
        # pairs were evaluated; recycle them.
        ctx.grid.begin_epoch()
        tasks = [TupleTask(record=record) for record in records]

        # Phase 1: order-free stages over the whole batch.
        with ctx.timer.measure(STAGE_CDD_SELECTION), tel.span("rule_selection"):
            pipeline.rule_selection.run(tasks)
        with ctx.timer.measure(STAGE_IMPUTATION), tel.span("imputation"):
            pipeline.imputation.run(tasks)
            pipeline.synopsis.run(tasks)

        with ctx.timer.measure(STAGE_ER), tel.span("entity_resolution"):
            # Phase 2: order-bound maintenance + candidate lookup, with the
            # result-set mutations deferred into an event log.
            events: List[Tuple[int, object]] = []
            with tel.span("maintenance_lookup"):
                for task in tasks:
                    ctx.timestamps_processed += 1
                    evicted = pipeline.maintenance.expire(
                        task.record, defer_result_set=True)
                    if evicted is not None:
                        events.append((_EVICT, (evicted.record.rid,
                                                evicted.record.source)))
                    task.candidates = pipeline.candidates.lookup(task.synopsis)
                    events.append((_EMIT, task))
                    pipeline.maintenance.insert(task.synopsis)

            # Phase 3: pure pair refinement.
            with tel.span("refine"):
                self._refine(pipeline, tasks)

            # Phase 4: replay result-set mutations in arrival order.
            with tel.span("result_replay"):
                result_set = ctx.result_set
                for kind, payload in events:
                    if kind == _EVICT:
                        result_set.remove_record(*payload)
                    else:
                        for pair in payload.matches:
                            result_set.add(pair)

        return [task.matches for task in tasks]

    @staticmethod
    def _refine(pipeline: Pipeline, tasks: Sequence[TupleTask]) -> None:
        """Whole-batch evaluation: one blocked bound pass over the batch's
        pairs, one instance-level refinement sweep over the survivors."""
        ctx = pipeline.ctx
        store = ctx.grid.packed_store
        verdict_lists = evaluate_task_batch(
            [(task.synopsis, task.candidates) for task in tasks],
            ctx.pruning, store)
        for task, verdicts in zip(tasks, verdict_lists):
            for position, (is_match, probability) in enumerate(verdicts):
                if is_match:
                    task.matches.append(pipeline.matching.make_pair(
                        task, store.synopsis_at(task.candidates[position]),
                        probability))
