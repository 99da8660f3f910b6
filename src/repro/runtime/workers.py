"""Persistent refinement workers with resident synopsis caches.

The per-batch process pool (``MicroBatchExecutor`` with
``pool_mode="per-batch"``) re-pickles every partition's query *and
candidate* synopses on every micro-batch: a tuple stays in its window for
``w`` arrivals and is a candidate for many queries, so in steady state the
same synopsis crosses the process boundary dozens of times per window
residency.  This module removes that cost:

* each worker process holds a **resident synopsis store**: the
  :class:`RecordSynopsis` objects (rebuilt once from the shipped imputed
  records against the pivot table received at start-up) plus a columnar
  :class:`~repro.core.pruning.PackedStore` mirror and the lazily built
  per-instance refinement profiles, all of which survive across batches;
* the main process ships only **deltas** — the imputed records of synopses
  not yet resident (new arrivals and, after a checkpoint restore,
  re-materialised window tuples), each under a small integer *handle* —
  plus **work orders** (``(query_handle, [candidate_handles])`` per task,
  sharded by ER-grid region) and **evictions** (handle lists, applied after
  the batch's orders so a tuple evicted mid-batch is still resident for the
  earlier tasks that saw it as a candidate — the same consistency the event
  replay gives the result set).

Synopses are deterministic functions of (imputed record, pivot table,
keywords) — exactly how ``SynopsisStage`` builds them — so the rebuilt
worker copies are bit-identical to the parent's and every verdict,
probability and pruning counter matches the in-process paths.

The protocol is self-healing: the pool tracks which object each shipped
handle points at (identity, not just key equality), so anything the workers
have never seen — or that was re-built in the parent, e.g. by
``restore_checkpoint`` — is simply re-shipped with the next batch that
references it, and the superseded handle is retired.

One message per worker per batch, one response each; payloads are pickled
once in the parent so the executor can account exactly how many bytes the
pooled refinement ships (see
:class:`~repro.runtime.context.TransportStats`).

:class:`ShardedERPool` extends the idea to the *whole* ER phase: its
workers own full resident ER-grid replicas (insert / remove / expire +
candidate lookup + pruning + refinement) and evaluate the queries of their
``ERGrid.region_of`` shard, so the grid scan scales with the worker count
and only matches + counters cross the process boundary.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pruning import (
    HAS_NUMPY,
    PackedStore,
    PruningStats,
    RecordSynopsis,
    batch_cell_scan,
    batch_prune_stacked,
    gather_rows,
)
from repro.core.tuples import ImputedRecord, Record

if HAS_NUMPY:
    import numpy as _np
else:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

#: A window/grid identity: ``(rid, source)``.
SynopsisKey = Tuple[str, str]

#: One shipped delta: ``(handle, base record, candidate distributions)``.
Insertion = Tuple[int, Record, Dict[str, Dict[str, float]]]

#: One work order: ``(task_index, query_handle, candidate_handles)``.
WorkOrder = Tuple[int, int, List[int]]


def _rebuild_imputed(record: Record, schema,
                     candidates: Dict[str, Dict[str, float]]) -> ImputedRecord:
    """Reassemble an imputed record exactly as unpickling the parent's would.

    ``ImputedRecord.__init__`` re-validates the candidate distributions, but
    the parent object may legitimately hold states construction would reject
    (e.g. a distribution emptied after the fact — the state
    ``RecordSynopsis.build`` guards against); pickling such an object skips
    ``__init__``, so the delta protocol must too, or the worker diverges
    from every in-process path.
    """
    imputed = ImputedRecord.__new__(ImputedRecord)
    imputed.base = record
    imputed.schema = schema
    imputed.candidates = candidates
    imputed._instances = None
    return imputed


def place_workers(processes) -> Optional[List[int]]:
    """Best-effort CPU placement of pool worker processes.

    Pins each worker to one core, round-robin over the parent's effective
    CPU set (``os.sched_getaffinity``), so resident shards stop migrating
    between cores — keeping their mapped shm pages and refinement-profile
    caches warm in one core's cache hierarchy.  Strictly best-effort: on
    platforms without the ``sched_*affinity`` calls (macOS, Windows) or
    when pinning is denied the pool runs exactly as before.  Returns the
    per-worker core ids (``-1`` for a worker that could not be pinned), or
    ``None`` when placement is unavailable entirely.
    """
    if not hasattr(os, "sched_getaffinity") \
            or not hasattr(os, "sched_setaffinity"):  # pragma: no cover
        return None
    try:
        cores = sorted(os.sched_getaffinity(0))
    except OSError:  # pragma: no cover - restricted environments
        return None
    if not cores:  # pragma: no cover - defensive
        return None
    placement: List[int] = []
    for index, process in enumerate(processes):
        core = cores[index % len(cores)]
        try:
            os.sched_setaffinity(process.pid, {core})
            placement.append(core)
        except OSError:  # pragma: no cover - permission-restricted pin
            placement.append(-1)
    return placement


class ResidentRefiner:
    """One persistent-pool worker's resident state: the handle-keyed
    synopsis store and its :class:`~repro.core.pruning.PackedStore` mirror.

    Lives in the worker process (:func:`_worker_main`); constructible
    in-process so tests can drive the batch protocol without spawning.
    """

    def __init__(self, params: Dict) -> None:
        params = dict(params)
        self.vectorized = params.pop("vectorized")
        self.pivots = params.pop("pivots")
        #: keywords / gamma / alpha / use_* — the evaluate_candidates kwargs.
        self.eval_params = params
        self.store: Dict[int, RecordSynopsis] = {}
        self.packed: Optional[PackedStore] = (
            PackedStore() if (self.vectorized and HAS_NUMPY) else None)

    def handle(self, insertions: Sequence[Insertion], orders, evictions,
               want_spans: bool = False):
        """One batch message: apply deltas, evaluate orders, apply evictions.

        Returns ``(results, stats, spans)``.  Evictions run last, so an
        order may reference a synopsis this same batch evicts.
        """
        from repro.runtime.evaluation import evaluate_candidates

        base = perf_counter()
        store, packed = self.store, self.packed
        if packed is not None:
            packed.begin_epoch()
        schema = self.pivots.schema
        keywords = self.eval_params["keywords"]
        for handle, record, candidates in insertions:
            imputed = _rebuild_imputed(record, schema, candidates)
            synopsis = RecordSynopsis.build(imputed, self.pivots, keywords)
            store[handle] = synopsis
            if packed is not None:
                packed.insert(synopsis)
        applied = perf_counter()
        stats = PruningStats()
        results: List[Tuple[int, List[Tuple[bool, float]]]] = []
        for task_index, query_handle, candidate_handles in orders:
            query = store[query_handle]
            candidates = [store[handle] for handle in candidate_handles]
            results.append((task_index, evaluate_candidates(
                query, candidates, stats=stats, vectorized=self.vectorized,
                store=packed, **self.eval_params)))
        refined = perf_counter()
        for handle in evictions:
            synopsis = store.pop(handle, None)
            if synopsis is not None and packed is not None:
                packed.discard(synopsis)
        # Span rows ship as (name, rel_start, duration) with starts relative
        # to this worker's message receipt: worker clocks are not
        # synchronised with the parent, only the relative layout is
        # meaningful (the parent re-anchors them under the live trace).
        spans = ([("apply_deltas", 0.0, applied - base),
                  ("refine", applied - base, refined - applied)]
                 if want_spans else None)
        return results, stats, spans


def _worker_main(worker_id: int, requests, responses, params_blob: bytes) -> None:
    """Worker loop: one :meth:`ResidentRefiner.handle` per batch message."""
    refiner = ResidentRefiner(pickle.loads(params_blob))
    while True:
        message = requests.get()
        if message is None:
            break
        try:
            results, stats, spans = refiner.handle(*pickle.loads(message))
            responses.put((worker_id, results, stats, spans, None))
        except Exception:  # pragma: no cover - surfaced in the parent
            responses.put((worker_id, None, None, None,
                           traceback.format_exc()))


class _ResidentWorkerPool:
    """Process/queue lifecycle shared by the resident-state worker pools.

    Spawns ``workers`` daemon processes running ``target(worker_id,
    request_queue, response_queue, params_blob)``, with one request queue
    per worker and a shared response queue; subclasses implement the batch
    protocol on top.
    """

    _TARGET = None  # subclass worker entry point

    def __init__(self, workers: int, params: Dict) -> None:
        import multiprocessing

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        context = multiprocessing.get_context()
        self._workers = workers
        self._requests = [context.Queue() for _ in range(workers)]
        self._responses = context.Queue()
        blob = pickle.dumps(params, protocol=pickle.HIGHEST_PROTOCOL)
        self._processes = [
            context.Process(target=type(self)._TARGET,
                            args=(index, self._requests[index],
                                  self._responses, blob),
                            daemon=True)
            for index in range(workers)
        ]
        for process in self._processes:
            process.start()
        #: Per-worker core pins (``None`` when the platform offers no
        #: affinity control) — see :func:`place_workers`.
        self.placement: Optional[List[int]] = place_workers(self._processes)
        #: The current handle + parent object per key.  Identity decides
        #: residency, so a re-built parent object (checkpoint restore)
        #: triggers a re-ship under a fresh handle.
        self._resident: Dict[SynopsisKey, Tuple[int, RecordSynopsis]] = {}
        self._next_handle = 0
        self._closed = False

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def resident_count(self) -> int:
        """Number of synopses currently resident in the worker stores."""
        return len(self._resident)

    def _next_response(self):
        while True:
            try:
                return self._responses.get(timeout=1.0)
            except queue_module.Empty:
                for process in self._processes:
                    if not process.is_alive():
                        raise RuntimeError(
                            f"{type(self).__name__} worker "
                            f"pid={process.pid} died "
                            f"(exit code {process.exitcode})")

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for request_queue in self._requests:
            try:
                request_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
        for process in self._processes:
            process.join(timeout=5)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5)
        for request_queue in self._requests:
            request_queue.close()
            request_queue.cancel_join_thread()
        self._responses.close()
        self._responses.cancel_join_thread()
        self._resident.clear()

    def __enter__(self) -> "_ResidentWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PersistentRefinementPool(_ResidentWorkerPool):
    """A fixed set of worker processes with resident synopsis stores.

    Parameters
    ----------
    workers:
        Number of worker processes; work orders are routed by
        ``ERGrid.region_of(query) % workers`` so neighbouring queries share
        a worker (and its warm refinement-profile caches).
    params:
        The per-operator configuration shipped once at start-up: the
        ``pivots`` table the workers rebuild synopses against, ``keywords``,
        ``gamma``, ``alpha``, the four ``use_*`` strategy toggles and
        ``vectorized``.
    """

    _TARGET = staticmethod(_worker_main)

    def __init__(self, workers: int, params: Dict) -> None:
        super().__init__(workers, params)
        #: Which workers hold each live handle.  Deltas are shipped per
        #: worker on first reference (region sharding keeps a tuple's
        #: queries on one worker, so most synopses are resident exactly
        #: once), not broadcast.
        self._holders: Dict[int, set] = {}

    # -- batch protocol ------------------------------------------------------
    def _handle_for(self, synopsis: RecordSynopsis, worker: int,
                    insertions_by_worker: Dict[int, List[Insertion]],
                    evictions_by_worker: Dict[int, List[int]]) -> int:
        """Resident handle of one synopsis on one worker, shipping on miss.

        A key whose resident object differs from ``synopsis`` gets a fresh
        handle and the superseded handle is retired from every holder with
        this batch's evictions (applied after the orders run, so same-batch
        references to the old object stay valid).
        """
        key = (synopsis.rid, synopsis.source)
        entry = self._resident.get(key)
        if entry is not None and entry[1] is synopsis:
            handle = entry[0]
        else:
            if entry is not None:
                for holder in self._holders.pop(entry[0], ()):
                    evictions_by_worker.setdefault(holder, []).append(entry[0])
            handle = self._next_handle
            self._next_handle += 1
            self._resident[key] = (handle, synopsis)
        holders = self._holders.setdefault(handle, set())
        if worker not in holders:
            holders.add(worker)
            record = synopsis.record
            insertions_by_worker.setdefault(worker, []).append(
                (handle, record.base, record.candidates))
        return handle

    def evaluate_batch(self, tasks: Sequence,
                       task_regions: Sequence[Tuple[int, int]],
                       evicted_keys: Sequence[SynopsisKey],
                       transport=None, trace=None,
                       ) -> Tuple[Dict[int, List[Tuple[bool, float]]],
                                  PruningStats]:
        """Ship one micro-batch's deltas + orders; gather the verdicts.

        ``task_regions`` lists ``(task_index, region)`` for every task with
        candidates; ``tasks`` is the whole batch's task list (queries and
        candidates are read off it).  Returns the verdict lists keyed by
        task index plus the merged pruning counters.  With ``trace`` (a
        live :class:`~repro.obs.tracing.BatchTrace`), the workers time
        their stages and the shipped spans are stitched under it.
        """
        if self._closed:
            raise RuntimeError("the persistent refinement pool is closed")
        insertions_by_worker: Dict[int, List[Insertion]] = {}
        evictions_by_worker: Dict[int, List[int]] = {}

        # Translate window evictions to handles *before* any same-key
        # re-arrival of this batch re-binds the key to a fresh handle.  The
        # handles stay resident through the orders loop (earlier tasks may
        # still reference them as candidates — possibly from a worker that
        # has never held them, which then receives a normal insert); their
        # per-worker evictions are scheduled afterwards, from the final
        # holder sets.
        eviction_keys_seen: List[Tuple[SynopsisKey, int]] = []
        for key in evicted_keys:
            entry = self._resident.get(key)
            if entry is not None:
                eviction_keys_seen.append((key, entry[0]))

        orders_by_worker: Dict[int, List[WorkOrder]] = {}
        order_count = 0
        for task_index, region in task_regions:
            task = tasks[task_index]
            worker = region % self._workers
            query_handle = self._handle_for(
                task.synopsis, worker, insertions_by_worker,
                evictions_by_worker)
            candidate_handles = [
                self._handle_for(candidate, worker, insertions_by_worker,
                                 evictions_by_worker)
                for candidate in task.candidates
            ]
            orders_by_worker.setdefault(worker, []).append(
                (task_index, query_handle, candidate_handles))
            order_count += 1

        # Schedule the window evictions everywhere their handle ended up,
        # and forget bindings not superseded by a same-batch re-arrival.
        for key, handle in eviction_keys_seen:
            for holder in self._holders.pop(handle, ()):
                evictions_by_worker.setdefault(holder, []).append(handle)
            entry = self._resident.get(key)
            if entry is not None and entry[0] == handle:
                del self._resident[key]

        workers_involved = (set(insertions_by_worker) | set(evictions_by_worker)
                            | set(orders_by_worker))
        if not workers_involved:
            return {}, PruningStats()

        messaged: List[int] = []
        total_bytes = 0
        total_insertions = 0
        total_evictions = 0
        want_spans = trace is not None
        for worker in sorted(workers_involved):
            insertions = insertions_by_worker.get(worker, [])
            evictions = evictions_by_worker.get(worker, [])
            worker_orders = orders_by_worker.get(worker, [])
            payload = pickle.dumps(
                (insertions, worker_orders, evictions, want_spans),
                protocol=pickle.HIGHEST_PROTOCOL)
            total_bytes += len(payload)
            total_insertions += len(insertions)
            total_evictions += len(evictions)
            self._requests[worker].put(payload)
            messaged.append(worker)

        merged = PruningStats()
        verdicts: Dict[int, List[Tuple[bool, float]]] = {}
        errors: List[str] = []
        for _ in messaged:
            worker_id, results, stats, spans, error = self._next_response()
            if error is not None:
                errors.append(error)
                continue
            merged.merge(stats)
            if want_spans:
                trace.add_worker_spans("refinement", worker_id, spans)
            for task_index, task_verdicts in results:
                verdicts[task_index] = task_verdicts
        if errors:
            # Every response of this batch was drained above, but the
            # resident bookkeeping no longer matches what the workers
            # applied — tear the pool down rather than let a caller that
            # catches the error keep using a desynchronised pool.
            self.close()
            raise RuntimeError(
                f"persistent refinement worker failed:\n{errors[0]}")
        if transport is not None:
            transport.record_batch(
                total_bytes,
                synopses=total_insertions,
                orders=order_count,
                evictions=total_evictions)
        return verdicts, merged


# ---------------------------------------------------------------------------
# Sharded ER pool: resident grid replicas, whole ER phase worker-side
# ---------------------------------------------------------------------------
#: One sharded maintenance+lookup op, in arrival order:
#: ``(task_index, evict_keys, insert_handle, region)``.  Every worker
#: replays every op (evictions, then — for its own regions — lookup +
#: pruning + refinement of the arriving tuple, then insertion), which keeps
#: the grid replicas in lock-step with the main grid's arrival-order
#: mutations; ``region % workers`` decides the single worker that evaluates
#: the op's query.
ShardOp = Tuple[int, List[SynopsisKey], int, int]

#: One returned match: ``(candidate_rid, candidate_source, probability)``.
ShardMatch = Tuple[str, str, float]


class ResidentShard:
    """One worker's resident ER-grid replica plus its evaluation state.

    The replica is a *full* grid (every in-window tuple of every region):
    cell aggregates are what the cell-level pruning reads, and a cell's
    aggregate over a subset of its tuples is tighter than the global one —
    a partitioned grid would prune candidates the serial walk admits and
    diverge from the pinned counters.  Replication keeps every lookup
    bit-identical while the *query* workload (the expensive part: cell scan,
    pruning cascade, Theorem 4.4 refinement) is sharded by
    ``ERGrid.region_of``.

    Also used in-process by the per-batch sharded path (stateless workers
    rebuild a shard per batch) and by the shard-determinism property tests.
    """

    def __init__(self, params: Dict, worker_id: int) -> None:
        from repro.indexes.er_grid import ERGrid

        params = dict(params)
        self.pivots = params.pop("pivots")
        self.vectorized = params.pop("vectorized")
        self.worker_count = params.pop("worker_count")
        cells_per_dim = params.pop("cells_per_dim")
        self.worker_id = worker_id
        self.keywords = params["keywords"]
        self.gamma = params["gamma"]
        #: keywords / gamma / alpha / use_* — the evaluate_candidates kwargs.
        self.eval_params = params
        self.schema = self.pivots.schema
        self.grid = ERGrid(self.schema, cells_per_dim=cells_per_dim)
        if self.vectorized:
            self.grid.enable_packed_store()
            self.grid.enable_cell_store()
        self.store: Dict[int, RecordSynopsis] = {}

    def apply_insertions(self, insertions: Sequence[Insertion]) -> None:
        """Rebuild shipped synopsis deltas into the handle store."""
        for handle, record, candidates in insertions:
            imputed = _rebuild_imputed(record, self.schema, candidates)
            self.store[handle] = RecordSynopsis.build(imputed, self.pivots,
                                                      self.keywords)

    def remove_keys(self, keys: Sequence[SynopsisKey]) -> None:
        """Drop stale tuples from the grid (reconciliation fix-up)."""
        for rid, source in keys:
            self.grid.remove(rid, source)

    def insert_handles(self, handles: Sequence[int]) -> None:
        """Insert already-resident synopses into the grid (backfill)."""
        for handle in handles:
            self.grid.insert(self.store[handle])

    def retire(self, handles: Sequence[int]) -> None:
        for handle in handles:
            self.store.pop(handle, None)

    def execute(self, ops: Sequence[ShardOp], spans: Optional[List] = None
                ) -> Tuple[List[Tuple[int, List[ShardMatch]]], PruningStats,
                           Tuple[int, int]]:
        """Replay one micro-batch's ops; evaluate the queries of this shard.

        Every op's evictions and insertion are applied (replica
        maintenance); lookup runs only for ops whose ``region %
        worker_count == worker_id``, recording the candidate lists.  The
        pair evaluation — pure in the captured synopses — is then batched
        over the whole op sequence (:func:`evaluate_task_batch`): one
        vectorized bound pass per query, one Theorem 4.4 refinement sweep
        over every surviving pair of the micro-batch.  Returns the matches
        of the evaluated tasks, the pruning counters, and the
        grid-examination counter deltas ``(cells_examined,
        tuples_examined)``.  With a ``spans`` list, appends
        ``(name, rel_start, duration)`` timing rows (relative to this
        call's entry) for the replay/lookup loop and the refinement sweep.
        """
        from repro.runtime.evaluation import evaluate_task_batch

        base = perf_counter() if spans is not None else 0.0
        grid = self.grid
        grid.begin_epoch()
        cells_before = grid.cells_examined
        tuples_before = grid.tuples_examined
        stats = PruningStats()
        pending: List[Tuple[int, RecordSynopsis, List[RecordSynopsis]]] = []
        for task_index, evict_keys, insert_handle, region in ops:
            for rid, source in evict_keys:
                grid.remove(rid, source)
            synopsis = self.store[insert_handle]
            if region % self.worker_count == self.worker_id:
                # Keywords are not pushed down to the grid (mirroring
                # CandidateLookupStage.lookup): the topic predicate is
                # applied — and counted — by the pruning cascade.
                candidates = grid.candidate_synopses(
                    synopsis, gamma=self.gamma, keywords=frozenset(),
                    exclude_source=synopsis.record.source)
                if candidates:
                    pending.append((task_index, synopsis, candidates))
            grid.insert(synopsis)
        if spans is not None:
            looked_up = perf_counter()
            spans.append(("replay_lookup", 0.0, looked_up - base))
        verdict_lists = evaluate_task_batch(
            [(query, candidates) for _, query, candidates in pending],
            stats=stats, vectorized=self.vectorized,
            store=grid.packed_store, **self.eval_params)
        if spans is not None:
            spans.append(("refine", looked_up - base,
                          perf_counter() - looked_up))
        results: List[Tuple[int, List[ShardMatch]]] = []
        for (task_index, _, candidates), verdicts in zip(pending,
                                                         verdict_lists):
            matches = [
                (candidate.record.rid, candidate.record.source, probability)
                for candidate, (is_match, probability)
                in zip(candidates, verdicts) if is_match
            ]
            if matches:
                results.append((task_index, matches))
        counters = (grid.cells_examined - cells_before,
                    grid.tuples_examined - tuples_before)
        return results, stats, counters


def _shard_worker_main(worker_id: int, requests, responses,
                       params_blob: bytes) -> None:
    """Sharded worker loop: reconcile the replica, replay ops, respond."""
    shard = ResidentShard(pickle.loads(params_blob), worker_id)
    while True:
        message = requests.get()
        if message is None:
            break
        try:
            insertions, stale_keys, backfill, ops, retired, want_spans = \
                pickle.loads(message)
            base = perf_counter()
            shard.apply_insertions(insertions)
            shard.remove_keys(stale_keys)
            shard.insert_handles(backfill)
            reconciled = perf_counter()
            exec_spans: Optional[List] = [] if want_spans else None
            results, stats, counters = shard.execute(ops, spans=exec_spans)
            shard.retire(retired)
            if want_spans:
                # Offset execute()'s relative rows behind the reconcile
                # stage so the shipped layout reads in worker wall order.
                offset = reconciled - base
                spans = [("reconcile", 0.0, offset)] + [
                    (name, start + offset, duration)
                    for name, start, duration in exec_spans]
            else:
                spans = None
            responses.put((worker_id, results, stats, counters, spans, None))
        except Exception:  # pragma: no cover - surfaced in the parent
            responses.put((worker_id, None, None, None, None,
                           traceback.format_exc()))


class ShardedERPool(_ResidentWorkerPool):
    """Worker processes owning resident ER-grid replicas: the whole ER
    phase — candidate lookup, pruning cascade, refinement — runs
    worker-side and only matches + counters return.

    The main process keeps a thin routing grid (windows + key bookkeeping,
    no packed/cell stores) and ships, per micro-batch, one broadcast
    message: synopsis deltas for the batch's arrivals, reconciliation
    fix-ups (see :meth:`begin_batch`), and the arrival-ordered
    :data:`ShardOp` list.  Every worker replays all maintenance ops so the
    replicas stay in lock-step; each query is evaluated by exactly one
    worker (``region % workers``).

    Residency is identity-tracked against the main grid every batch, which
    makes the protocol self-healing: synopses rebuilt out-of-band (a
    checkpoint restore, a watermark retraction) are re-shipped or retired
    with the next batch, with no explicit reset signal.
    """

    _TARGET = staticmethod(_shard_worker_main)

    #: ``grid.mutation_count`` recorded after the last batch; ``None``
    #: before the first one.
    _synced_mutations: Optional[int] = None

    def begin_batch(self, grid) -> Tuple[List[Insertion], List[SynopsisKey],
                                         List[int], List[int]]:
        """Reconcile the replicas with the main grid's pre-batch state.

        Returns ``(insertions, stale_keys, backfill, retired)``: deltas to
        rebuild + grid-insert for keys the replicas are missing (identity
        mismatch included), grid removals for keys they hold that the main
        grid no longer does, and the superseded handles to retire.  In
        steady state — every mutation flowing through :meth:`evaluate_batch`
        ops — the grid's mutation count still matches the one recorded
        after the last batch and the O(window) identity sweep is skipped
        entirely; any out-of-band mutation (checkpoint restore, event-time
        retraction) bumps the count and forces the full diff.
        """
        insertions: List[Insertion] = []
        stale_keys: List[SynopsisKey] = []
        backfill: List[int] = []
        retired: List[int] = []
        if grid.mutation_count == self._synced_mutations:
            return insertions, stale_keys, backfill, retired
        current = dict(grid.synopsis_items())
        for key in list(self._resident):
            handle, synopsis = self._resident[key]
            if current.get(key) is not synopsis:
                stale_keys.append(key)
                retired.append(handle)
                del self._resident[key]
        for key, synopsis in current.items():
            if key not in self._resident:
                handle = self._next_handle
                self._next_handle += 1
                record = synopsis.record
                insertions.append((handle, record.base, record.candidates))
                backfill.append(handle)
                self._resident[key] = (handle, synopsis)
        return insertions, stale_keys, backfill, retired

    def evaluate_batch(self, tasks: Sequence,
                       task_regions: Sequence[int],
                       task_evictions: Sequence[List[SynopsisKey]],
                       reconciliation: Tuple[List[Insertion],
                                             List[SynopsisKey],
                                             List[int], List[int]],
                       grid=None,
                       transport=None, trace=None,
                       ) -> Tuple[Dict[int, List[ShardMatch]], PruningStats,
                                  Tuple[int, int]]:
        """Broadcast one micro-batch; gather matches + counters.

        ``task_regions[i]`` / ``task_evictions[i]`` give task ``i``'s grid
        region and the keys its arrival evicted (applied before its
        lookup); ``reconciliation`` is :meth:`begin_batch`'s output for
        this batch; ``grid`` is the main grid *after* the batch's
        maintenance loop, whose mutation count marks the replicas as
        synced.  Returns per-task match lists keyed by task index, the
        merged pruning counters and the summed grid-examination deltas.
        """
        if self._closed:
            raise RuntimeError("the sharded ER pool is closed")
        try:
            if grid is not None:
                # The ops below mirror exactly the batch's grid mutations
                # into the replicas, so after this batch the replicas match
                # the grid as it stands right now.
                self._synced_mutations = grid.mutation_count
            insertions, stale_keys, backfill, retired = reconciliation
            insertions = list(insertions)
            retired = list(retired)
            ops: List[ShardOp] = []
            for index, task in enumerate(tasks):
                for key in task_evictions[index]:
                    entry = self._resident.pop(key, None)
                    if entry is not None:
                        retired.append(entry[0])
                synopsis = task.synopsis
                key = (synopsis.rid, synopsis.source)
                previous = self._resident.get(key)
                if previous is not None:
                    # Same-key re-arrival without an eviction: the
                    # replica's grid.insert overwrites the entry exactly
                    # like the main grid's; the superseded handle only
                    # needs retiring.
                    retired.append(previous[0])
                handle = self._next_handle
                self._next_handle += 1
                record = synopsis.record
                insertions.append((handle, record.base, record.candidates))
                self._resident[key] = (handle, synopsis)
                ops.append((index, task_evictions[index], handle,
                            task_regions[index]))

            want_spans = trace is not None
            payload = pickle.dumps(
                (insertions, stale_keys, backfill, ops, retired, want_spans),
                protocol=pickle.HIGHEST_PROTOCOL)
            for request_queue in self._requests:
                request_queue.put(payload)
        except Exception:
            # The resident bookkeeping (and the synced mutation mark) may
            # already claim deltas the workers never received — e.g. an
            # unpicklable record aborting the dump.  A desynchronised pool
            # would fail one batch *later* with a misleading handle error,
            # so tear it down at the point of failure instead.
            self.close()
            raise

        merged = PruningStats()
        matches: Dict[int, List[ShardMatch]] = {}
        cells_delta = 0
        tuples_delta = 0
        errors: List[str] = []
        for _ in range(self._workers):
            worker_id, results, stats, counters, spans, error = \
                self._next_response()
            if error is not None:
                errors.append(error)
                continue
            merged.merge(stats)
            if want_spans:
                trace.add_worker_spans("sharded_er", worker_id, spans)
            cells_delta += counters[0]
            tuples_delta += counters[1]
            for task_index, task_matches in results:
                matches[task_index] = task_matches
        if errors:
            # All of this batch's responses were drained above; the failed
            # worker's replica is in an unknown state, so the pool cannot
            # be reused — close it and surface the failure.
            self.close()
            raise RuntimeError(f"sharded ER worker failed:\n{errors[0]}")
        if transport is not None:
            # The message is replicated to every worker; account the bytes
            # that actually cross the process boundary.
            transport.record_batch(
                self._workers * len(payload),
                synopses=self._workers * len(insertions),
                orders=len(ops),
                evictions=self._workers * (len(retired) + len(stale_keys)))
        return matches, merged, (cells_delta, tuples_delta)


def evaluate_shard_partition(blob: bytes, worker_id: int,
                             params_blob: bytes, want_spans: bool = False
                             ) -> Tuple[List[Tuple[int, List[ShardMatch]]],
                                        PruningStats, Tuple[int, int],
                                        Optional[List]]:
    """One stateless shard evaluation (the per-batch sharded-lookup mode).

    ``blob`` is the pre-pickled ``(window_rows, deltas, ops)`` snapshot: the
    pre-batch window contents (grid insertion order), the batch's arrival
    deltas, and the arrival-ordered ops.  Rebuilds a transient
    :class:`ResidentShard`, backfills the window, replays the ops and
    returns this worker's matches + counters — the shipping-cost baseline
    against the resident :class:`ShardedERPool`.  With ``want_spans``, the
    final element carries ``(name, rel_start, duration)`` timing rows
    (relative to this call's entry, prefixed by the window ``rebuild``
    stage) for the parent to stitch under the live batch trace; ``None``
    otherwise.
    """
    base = perf_counter() if want_spans else 0.0
    shard = ResidentShard(pickle.loads(params_blob), worker_id)
    window_rows, deltas, ops = pickle.loads(blob)
    shard.apply_insertions(window_rows)
    shard.apply_insertions(deltas)
    shard.insert_handles([handle for handle, _, _ in window_rows])
    exec_spans: Optional[List] = [] if want_spans else None
    rebuilt = perf_counter() if want_spans else 0.0
    results, stats, counters = shard.execute(ops, spans=exec_spans)
    if want_spans:
        offset = rebuilt - base
        spans: Optional[List] = [("rebuild", 0.0, offset)] + [
            (name, start + offset, duration)
            for name, start, duration in exec_spans]
    else:
        spans = None
    return results, stats, counters, spans


# ---------------------------------------------------------------------------
# Shared-memory sharded ER pool: workers map the columnar plane
# ---------------------------------------------------------------------------
#: One shm-plane op, in arrival order: ``(task_index, region, key, handle,
#: packed_row, pre_evicted, pre_entries, post_entries, replaced_handles)``.
#: ``pre_evicted`` lists ``(key, handle)`` window evictions applied before
#: the arrival; ``pre_entries`` / ``post_entries`` are the grid journal's
#: cell-membership mutations of the eviction / the insertion; ``replaced``
#: lists handles superseded by a same-key re-arrival.
ShmShardOp = Tuple


class _RecordShell:
    """Worker-side residency of one record: the rebuilt imputed record plus
    the slots the refinement-profile caches land in.

    The shm plane carries every *columnar* aggregate of a synopsis, so the
    workers never rebuild :class:`RecordSynopsis` objects — the Theorem 4.4
    refinement tail only needs ``.record`` and somewhere to cache the
    instance profiles (see :mod:`repro.runtime.evaluation`).
    """

    __slots__ = ("record", "_runtime_instance_profiles",
                 "_runtime_sorted_profiles")

    def __init__(self, record: ImputedRecord) -> None:
        self.record = record


def _interval_arrays(intervals):
    """``(lb, ub)`` float64 rows of one journal entry's at-write aggregates."""
    lb = _np.fromiter((pair[0] for pair in intervals), dtype=float,
                      count=len(intervals))
    ub = _np.fromiter((pair[1] for pair in intervals), dtype=float,
                      count=len(intervals))
    return lb, ub


class _ShmShardReplica:
    """One worker's partial replica over the mapped columnar plane.

    Unlike :class:`ResidentShard` this holds **no grid**: the columnar
    state (packed synopsis rows, cell aggregate rows) is read straight out
    of the main process' shared-memory arenas, and the only replicated
    Python state is

    * the cell *membership* mirror (insertion-ordered, replayed from the
      grid journal) that drives candidate collection order,
    * the ``key -> handle -> packed row`` bindings, and
    * the :class:`_RecordShell` residency — records routed to this shard
      (or lazily backfilled) for the instance-level refinement tail.

    Intra-batch cell aggregates are reconstructed exactly: the mapped
    arrays hold end-of-batch values, so an *overlay* (row pre-images +
    at-write journal values) serves the value each cell held at the op
    being replayed.
    """

    def __init__(self, params: Dict, worker_id: int) -> None:
        from repro.runtime.shm_plane import PackedPlaneView, ShmArenaView

        params = dict(params)
        self.schema = params.pop("schema")
        self.worker_count = params.pop("worker_count")
        self.worker_id = worker_id
        self.keywords = params["keywords"]
        self.gamma = params["gamma"]
        self.alpha = params["alpha"]
        self.use_topic = params["use_topic"]
        self.use_similarity = params["use_similarity"]
        self.use_probability = params["use_probability"]
        self.use_instance = params["use_instance"]
        self.packed_view = ShmArenaView()
        self.cells_view = ShmArenaView()
        self.packed_plane = PackedPlaneView(self.packed_view)
        #: ``coords -> [cell_store_row, {key: None}]`` — insertion-ordered
        #: mirror of the main grid's live cells and their member keys.
        self.cells: Dict[Tuple[int, ...], list] = {}
        self.handles: Dict[SynopsisKey, int] = {}
        self.rows: Dict[int, int] = {}
        self.resident: Dict[int, _RecordShell] = {}
        self.epoch = 0
        self._pending = None
        #: Per-batch timing rows ``(name, rel_start, duration)``; ``None``
        #: unless the batch message asked for spans.
        self._spans: Optional[List] = None
        self._span_base = 0.0

    # -- batch protocol ------------------------------------------------------
    def apply_batch(self, message) -> List[int]:
        """Replay one batch's ops; returns handles needing lazy backfill."""
        (_, epoch, packed_desc, cells_desc, reset, pre_rows, routed,
         ops, want_spans) = message
        self._span_base = perf_counter()
        self._spans = [] if want_spans else None
        if reset is not None:
            self._apply_reset(reset)
        elif epoch != self.epoch + 1:
            raise RuntimeError(
                f"shm shard worker {self.worker_id} desynchronised: "
                f"expected epoch {self.epoch + 1}, received {epoch}")
        self.epoch = epoch
        self.packed_view.attach(packed_desc)
        self.cells_view.attach(cells_desc)
        if packed_desc is not None:
            self.packed_view.check_epoch(epoch)
        if cells_desc is not None:
            self.cells_view.check_epoch(epoch)
        for handle, record, candidates in routed:
            self.resident[handle] = _RecordShell(
                _rebuild_imputed(record, self.schema, candidates))

        overlay = {
            row: (_np.array(lb_vals, dtype=float),
                  _np.array(ub_vals, dtype=float))
            for row, (lb_vals, ub_vals) in pre_rows.items()
        }
        stats = PruningStats()
        pending: List[Tuple[int, SynopsisKey, int, List[Tuple]]] = []
        retired: List[int] = []
        cells_examined = 0
        tuples_examined = 0
        for op in ops:
            (index, region, key, handle, row, pre_evicted, pre_entries,
             post_entries, replaced) = op
            for evicted_key, evicted_handle in pre_evicted:
                if self.handles.get(evicted_key) == evicted_handle:
                    del self.handles[evicted_key]
                retired.append(evicted_handle)
            self._apply_entries(pre_entries, overlay)
            if region % self.worker_count == self.worker_id and self.cells:
                cells_examined += len(self.cells)
                counted, survivors = self._lookup(key, row, overlay, stats)
                tuples_examined += counted
                if survivors is not None:
                    pending.append((index, key, handle, survivors))
            self._apply_entries(post_entries, overlay)
            self.handles[key] = handle
            self.rows[handle] = row
            retired.extend(replaced)
        self._pending = (pending, retired, stats,
                         (cells_examined, tuples_examined))
        if self._spans is not None:
            self._spans.append(("replay_lookup", 0.0,
                                perf_counter() - self._span_base))
        needed = {query_handle for _, _, query_handle, _ in pending}
        for _, _, _, survivors in pending:
            needed.update(chandle for _, _, chandle in survivors)
        return sorted(handle for handle in needed
                      if handle not in self.resident)

    def apply_backfill(self, records: Sequence[Insertion]) -> None:
        start = perf_counter() if self._spans is not None else 0.0
        for handle, record, candidates in records:
            self.resident[handle] = _RecordShell(
                _rebuild_imputed(record, self.schema, candidates))
        if self._spans is not None:
            self._spans.append(("backfill", start - self._span_base,
                                perf_counter() - start))

    def take_spans(self) -> Optional[List]:
        """This batch's timing rows (``None`` when not requested),
        cleared for the next batch."""
        spans = self._spans
        self._spans = None
        return spans

    def finish_batch(self) -> Tuple[List[Tuple[int, List[ShardMatch]]],
                                    PruningStats, Tuple[int, int]]:
        """Refine this shard's surviving pairs; retire superseded handles."""
        from repro.runtime.evaluation import refine_pair_cached

        refine_start = perf_counter() if self._spans is not None else 0.0
        pending, retired, stats, counters = self._pending
        self._pending = None
        results: List[Tuple[int, List[ShardMatch]]] = []
        for index, _key, query_handle, survivors in pending:
            query_shell = self.resident[query_handle]
            matches: List[ShardMatch] = []
            for _position, candidate_key, candidate_handle in survivors:
                is_match, probability = refine_pair_cached(
                    query_shell, self.resident[candidate_handle],
                    self.keywords, self.gamma, self.alpha,
                    self.use_instance, stats)
                if is_match:
                    matches.append((candidate_key[0], candidate_key[1],
                                    probability))
            if matches:
                results.append((index, matches))
        # Handles retired mid-batch stay resident until here: an op may
        # reference as candidate a record evicted by a *later* op.
        for handle in retired:
            self.resident.pop(handle, None)
            self.rows.pop(handle, None)
        if self._spans is not None:
            self._spans.append(("refine", refine_start - self._span_base,
                                perf_counter() - refine_start))
        return results, stats, counters

    def close(self) -> None:
        self.packed_view.close()
        self.cells_view.close()

    # -- replay internals ----------------------------------------------------
    def _apply_reset(self, reset) -> None:
        """Rebuild the membership mirror + bindings from a full snapshot.

        Sent when the main grid mutated out-of-band (first batch,
        checkpoint restore, watermark retraction).  Handles are freshly
        assigned by the sender, so the shell residency is dropped — shells
        re-arrive through routing or lazy backfill.
        """
        cell_table, bindings = reset
        self.cells = {coords: [row, dict.fromkeys(keys)]
                      for coords, row, keys in cell_table}
        self.handles = {key: handle
                        for key, (handle, _) in bindings.items()}
        self.rows = {handle: row for handle, row in bindings.values()}
        self.resident = {}

    def _apply_entries(self, entries, overlay) -> None:
        """Replay journal entries into the membership mirror + overlay."""
        for entry in entries:
            kind = entry[0]
            if kind == "a":
                _, coords, row, key, intervals = entry
                cell = self.cells.get(coords)
                if cell is None:
                    self.cells[coords] = cell = [row, {}]
                else:
                    cell[0] = row
                cell[1][key] = None
                overlay[row] = _interval_arrays(intervals)
            elif kind == "r":
                _, coords, row, key, intervals = entry
                cell = self.cells.get(coords)
                if cell is not None:
                    cell[0] = row
                    cell[1].pop(key, None)
                overlay[row] = _interval_arrays(intervals)
            else:  # "d": last member removed, cell deleted
                self.cells.pop(entry[1], None)

    def _lookup(self, key: SynopsisKey, row: int, overlay, stats):
        """Cell scan + pruning cascade of one query against the plane.

        Mirrors ``ERGrid.candidate_synopses`` (store path) + the bound
        pass of ``evaluate_candidates`` exactly: same kernel calls over the
        same float64 values, same iteration order, same counters.  Returns the
        ``tuples_examined`` delta and the surviving ``(position, key,
        handle)`` list (``None`` when the candidate list is empty, matching
        the main-side ``if candidates:`` gate).
        """
        packed = self.packed_view.arrays
        query_lb = packed["dist_lb"][row, :, 0]
        query_ub = packed["dist_ub"][row, :, 0]
        margin = len(self.schema) - self.gamma
        cell_arrays = self.cells_view.arrays
        totals = batch_cell_scan(query_lb, query_ub,
                                 cell_arrays["lb"], cell_arrays["ub"])
        # Workers evaluate with an empty keyword set (mirroring
        # CandidateLookupStage.lookup), so the scan's require_keyword arm
        # never fires and only the distance test decides.
        candidate_keys: List[SynopsisKey] = []
        seen = set()
        counted = 0
        query_source = key[1]
        for _coords, (cell_row, members) in self.cells.items():
            if cell_row in overlay:
                lb_row, ub_row = overlay[cell_row]
                total = batch_cell_scan(query_lb, query_ub,
                                        lb_row[_np.newaxis, :],
                                        ub_row[_np.newaxis, :])[0]
            else:
                total = totals[cell_row]
            if not total < margin:
                continue
            for candidate_key in members:
                if candidate_key in seen:
                    continue
                seen.add(candidate_key)
                counted += 1
                # Same-source candidates (the query's own key included) are
                # excluded after counting, like ``_collect_cell``.
                if candidate_key[1] == query_source:
                    continue
                candidate_keys.append(candidate_key)
        if not candidate_keys:
            return counted, None
        candidate_handles = [self.handles[candidate_key]
                             for candidate_key in candidate_keys]
        index = _np.fromiter((self.rows[handle]
                              for handle in candidate_handles),
                             dtype=_np.intp, count=len(candidate_handles))
        alive, pruned_topic, pruned_similarity, pruned_probability = \
            batch_prune_stacked(
                gather_rows(self.packed_plane,
                            _np.array([row], dtype=_np.intp)),
                gather_rows(self.packed_plane, index), len(candidate_keys),
                self.keywords, self.gamma, self.alpha,
                use_topic=self.use_topic,
                use_similarity=self.use_similarity,
                use_probability=self.use_probability)
        stats.pairs_considered += len(candidate_keys)
        stats.pruned_by_topic += pruned_topic
        stats.pruned_by_similarity += pruned_similarity
        stats.pruned_by_probability += pruned_probability
        survivors = [
            (position, candidate_keys[position], candidate_handles[position])
            for position in (int(lane) for lane in alive.nonzero()[0])
        ]
        return counted, survivors


def _shm_worker_main(worker_id: int, requests, responses,
                     params_blob: bytes) -> None:
    """Shm worker loop: attach the plane, replay ops, refine, respond."""
    replica = _ShmShardReplica(pickle.loads(params_blob), worker_id)
    try:
        while True:
            message = requests.get()
            if message is None:
                break
            try:
                missing = replica.apply_batch(pickle.loads(message))
                if missing:
                    responses.put((worker_id, "need", missing))
                    reply = requests.get()
                    if reply is None:  # pragma: no cover - teardown race
                        break
                    replica.apply_backfill(pickle.loads(reply)[1])
                results, stats, counters = replica.finish_batch()
                responses.put((worker_id, "done", results, stats, counters,
                               replica.take_spans()))
            except Exception:  # pragma: no cover - surfaced in the parent
                responses.put((worker_id, "error", traceback.format_exc()))
    finally:
        replica.close()


class ShmShardedERPool(_ResidentWorkerPool):
    """Sharded ER pool whose workers map the shared-memory columnar plane.

    The zero-copy successor of :class:`ShardedERPool`: instead of full grid
    replicas fed by per-batch broadcast, workers attach the main process'
    :class:`~repro.runtime.shm_plane.ShmPlane` read-only and replay only
    the per-batch op journal.  Per-record Python state (the imputed records
    the refinement tail enumerates) is *routed* — shipped only to the
    shards whose regions the record's cells touch — with lazy backfill for
    cross-region queries, so replicas are partial-but-aggregate-exact.

    Single-writer epoch protocol: the caller finishes every grid mutation
    of the batch (the arenas are written in place), bumps the plane's
    epoch, and only then ships the orders; workers validate generation and
    epoch headers before reading.  Strict request/response alternation
    means workers never read while the writer writes.

    ``inline=True`` runs the replicas in-process (keeping every pickle
    round-trip) so single-CPU environments and property tests can exercise
    the full protocol without process-spawn latency.
    """

    _TARGET = staticmethod(_shm_worker_main)

    def __init__(self, workers: int, params: Dict, plane,
                 inline: bool = False) -> None:
        self._plane = plane
        self._inline = inline
        if inline:
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {workers}")
            self._workers = workers
            self._replicas = [
                _ShmShardReplica(pickle.loads(pickle.dumps(
                    params, protocol=pickle.HIGHEST_PROTOCOL)), index)
                for index in range(workers)
            ]
            self._resident: Dict[SynopsisKey, Tuple[int, RecordSynopsis]] = {}
            self._next_handle = 0
            self._closed = False
            #: Inline replicas run in-process: nothing to pin.
            self.placement: Optional[List[int]] = None
        else:
            super().__init__(workers, params)
        #: Parent object of every live handle — kept (even past key
        #: retirement) until batch end so lazy backfill can serve any
        #: handle an in-flight order references.
        self._by_handle: Dict[int, RecordSynopsis] = {}
        self._retired: List[int] = []
        #: ``(worker_id, handle)`` per served backfill; the exactly-once
        #: guarantee (shells persist until retirement) makes duplicates a
        #: protocol bug, which the tests assert against this log.
        self.backfill_log: List[Tuple[int, int]] = []
        self._epoch = 0
        self._synced_mutations: Optional[int] = None

    # -- batch protocol ------------------------------------------------------
    def begin_batch(self, grid):
        """Snapshot the grid on out-of-band mutation.

        The executor has already opened the packed store's epoch for this
        batch, so the rows evicted during the previous one — which its
        in-flight orders could still reference — are free for rewriting.
        Returns the reset payload (cell table + key bindings) when the
        grid mutated outside the op stream since the last batch — the
        first batch, a checkpoint restore, a watermark retraction — and
        ``None`` in steady state, where the op journal alone keeps the
        worker mirrors in lock-step.
        """
        store = grid.packed_store
        if grid.mutation_count == self._synced_mutations:
            return None
        self._by_handle.clear()
        del self._retired[:]
        self._resident.clear()
        bindings = {}
        for key, synopsis in grid.synopsis_items():
            handle = self._next_handle
            self._next_handle += 1
            self._resident[key] = (handle, synopsis)
            self._by_handle[handle] = synopsis
            bindings[key] = (handle, store.row_for(synopsis))
        return grid.cell_table(), bindings

    def retire_key(self, key: SynopsisKey):
        """Unbind one evicted key; returns ``(key, handle)`` for the op."""
        entry = self._resident.pop(key, None)
        if entry is None:
            return None
        self._retired.append(entry[0])
        return key, entry[0]

    def register(self, key: SynopsisKey,
                 synopsis: RecordSynopsis) -> Tuple[int, Optional[int]]:
        """Bind one arrival under a fresh handle; returns the superseded
        same-key handle (``None`` normally) for the op's retire list."""
        replaced = None
        previous = self._resident.get(key)
        if previous is not None:
            replaced = previous[0]
            self._retired.append(replaced)
        handle = self._next_handle
        self._next_handle += 1
        self._resident[key] = (handle, synopsis)
        self._by_handle[handle] = synopsis
        return handle, replaced

    def _serve_backfill(self, worker_id: int,
                        handles: Sequence[int]) -> Tuple[bytes, int]:
        records: List[Insertion] = []
        for handle in handles:
            synopsis = self._by_handle[handle]
            self.backfill_log.append((worker_id, handle))
            record = synopsis.record
            records.append((handle, record.base, record.candidates))
        payload = pickle.dumps(("backfill", records),
                               protocol=pickle.HIGHEST_PROTOCOL)
        return payload, len(records)

    def evaluate_batch(self, grid, reset, ops: Sequence[ShmShardOp],
                       routed: Dict[int, List[Insertion]], pre_rows,
                       transport=None, trace=None):
        """Publish the epoch, ship the op journal, gather matches.

        ``reset`` is :meth:`begin_batch`'s output; ``ops`` the
        arrival-ordered op list; ``routed`` the per-worker record deltas;
        ``pre_rows`` the cell-row pre-images of the batch.  ``grid`` is the
        main grid *after* its maintenance loop — every one of its
        mutations is mirrored by the ops, which marks the replicas synced.
        """
        if self._closed:
            raise RuntimeError("the shm sharded ER pool is closed")
        self._synced_mutations = grid.mutation_count
        self._epoch += 1
        # The single-writer contract: every arena write of this batch
        # happened in the caller's maintenance loop; publishing the epoch
        # is the last write before any order ships.
        self._plane.set_epoch(self._epoch)
        packed_desc = self._plane.packed.descriptor()
        cells_desc = self._plane.cells.descriptor()
        payloads = []
        total_bytes = 0
        routed_count = 0
        want_spans = trace is not None
        for worker in range(self._workers):
            deltas = routed.get(worker, [])
            routed_count += len(deltas)
            payload = pickle.dumps(
                ("batch", self._epoch, packed_desc, cells_desc, reset,
                 pre_rows, deltas, ops, want_spans),
                protocol=pickle.HIGHEST_PROTOCOL)
            total_bytes += len(payload)
            payloads.append(payload)

        merged = PruningStats()
        matches: Dict[int, List[ShardMatch]] = {}
        cells_delta = 0
        tuples_delta = 0
        backfill_bytes = 0
        backfill_count = 0
        if self._inline:
            try:
                for worker, payload in enumerate(payloads):
                    replica = self._replicas[worker]
                    missing = replica.apply_batch(pickle.loads(payload))
                    if missing:
                        reply, count = self._serve_backfill(worker, missing)
                        backfill_bytes += len(reply)
                        backfill_count += count
                        replica.apply_backfill(pickle.loads(reply)[1])
                    results, stats, counters = replica.finish_batch()
                    if want_spans:
                        trace.add_worker_spans("shm_sharded_er", worker,
                                               replica.take_spans())
                    merged.merge(stats)
                    cells_delta += counters[0]
                    tuples_delta += counters[1]
                    for task_index, task_matches in results:
                        matches[task_index] = task_matches
            except Exception:
                self.close()
                raise
        else:
            try:
                for worker, payload in enumerate(payloads):
                    self._requests[worker].put(payload)
            except Exception:
                # The epoch was published and the bookkeeping advanced for
                # a batch the workers never (fully) received; the pool
                # cannot recover the lock-step, so fail it at the point of
                # error.
                self.close()
                raise
            errors: List[str] = []
            done = 0
            while done < self._workers:
                response = self._next_response()
                worker_id, tag = response[0], response[1]
                if tag == "need":
                    reply, count = self._serve_backfill(worker_id,
                                                        response[2])
                    backfill_bytes += len(reply)
                    backfill_count += count
                    self._requests[worker_id].put(reply)
                    continue
                done += 1
                if tag == "error":
                    errors.append(response[2])
                    continue
                _, _, results, stats, counters, spans = response
                if want_spans:
                    trace.add_worker_spans("shm_sharded_er", worker_id, spans)
                merged.merge(stats)
                cells_delta += counters[0]
                tuples_delta += counters[1]
                for task_index, task_matches in results:
                    matches[task_index] = task_matches
            if errors:
                self.close()
                raise RuntimeError(
                    f"shm sharded ER worker failed:\n{errors[0]}")

        if transport is not None:
            transport.record_batch(
                total_bytes + backfill_bytes,
                synopses=routed_count + backfill_count,
                orders=len(ops),
                evictions=len(self._retired),
                routed=routed_count,
                backfills=backfill_count,
                shm_mapped=self._plane.nbytes,
                placement=self.placement)
        for handle in self._retired:
            self._by_handle.pop(handle, None)
        del self._retired[:]
        return matches, merged, (cells_delta, tuples_delta)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        if self._inline:
            self._closed = True
            for replica in self._replicas:
                replica.close()
            self._resident.clear()
        else:
            # The workers detach their views in their ``finally`` blocks as
            # the sentinel arrives; the plane itself (and its segments) is
            # owned and unlinked by the executor.
            super().close()
        self._by_handle.clear()
