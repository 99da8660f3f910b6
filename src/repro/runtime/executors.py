"""Executors: scheduling strategies over the staged TER-iDS pipeline.

Two implementations of the :class:`Executor` contract:

* :class:`SerialExecutor` — one tuple at a time through
  :meth:`Pipeline.process_one`; bit-identical to the seed engine.
* :class:`MicroBatchExecutor` — ingests tuples in configurable batches and
  reorganises the work for throughput while provably preserving the serial
  match sets:

  1. the *order-free* stages (rule selection, imputation, synopsis) run for
     the whole batch up front — rule selection grouped by missing-attribute
     signature, imputation with a cross-record ``cand(s[A_j])`` cache, and
     (when vectorized) synopsis packing into columnar blocks;
  2. the *order-bound* maintenance + grid lookup run per tuple in arrival
     order (cheap), recording candidate lists and eviction events;
  3. pair refinement — the dominant cost — is evaluated as a pure function
     of the recorded (query, candidate) synopses: in-process through the
     vectorized :func:`~repro.core.pruning.batch_prune` kernel over the
     grid's resident packed store, or fanned out by ER-grid region to
     either a :class:`~repro.runtime.workers.PersistentRefinementPool`
     (workers hold resident synopsis stores; only deltas and work orders
     cross the process boundary) or a per-batch ``concurrent.futures``
     pool (the legacy mode, which re-ships every partition's synopses);
  4. the result-set mutations (evictions, new pairs) are replayed in
     arrival order, reproducing the serial entity-result-set exactly.

Why this is safe: candidate lookup for tuple ``t`` observes exactly the
evictions/insertions of tuples before ``t`` (step 2 preserves arrival
order), and each pair verdict depends only on the two synopses and the
operator thresholds — never on when it is computed.  Step 4 then serialises
the state mutations back into arrival order.
"""

from __future__ import annotations

import abc
import pickle
from typing import List, Optional, Sequence, Tuple

from repro.core.matching import MatchPair
from repro.core.pruning import HAS_NUMPY
from repro.core.tuples import Record
from repro.metrics.timing import (
    STAGE_CDD_SELECTION,
    STAGE_ER,
    STAGE_IMPUTATION,
)
from repro.core.pruning import PruningStats
from repro.runtime.evaluation import evaluate_partition_blob, evaluate_task_batch
from repro.runtime.pipeline import Pipeline
from repro.runtime.shm_plane import HAS_SHM, GridJournal, ShmPlane
from repro.runtime.stages import TupleTask
from repro.runtime.workers import (
    PersistentRefinementPool,
    ShardedERPool,
    ShmShardedERPool,
    SynopsisKey,
    evaluate_shard_partition,
)


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
        """Release executor-owned resources (process pools)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """The seed semantics: one tuple at a time, bit-identical results."""

    batch_size = 1

    def process_batch(self, pipeline: Pipeline,
                      records: Sequence[Record]) -> List[List[MatchPair]]:
        with pipeline.ctx.begin_batch(len(records)):
            # Only matters on a grid whose packed store an earlier
            # micro-batch run enabled: it keeps being maintained.
            pipeline.ctx.grid.begin_epoch()
            return [pipeline.process_one(record) for record in records]


#: Result-set replay events recorded by the micro-batch executor.
_EVICT = 0
_EMIT = 1

#: Pooled refinement modes.
POOL_PERSISTENT = "persistent"
POOL_PER_BATCH = "per-batch"
POOL_AUTO = "auto"

#: Decision boundaries of ``pool_mode="auto"`` (pinned by unit tests).
#: At and above this configured batch size the resident-store pool always
#: wins: per-batch mode re-ships the whole window's synopses every batch,
#: and the measured crossover (BENCH_runtime_batching.json, PR 3) sits well
#: below 16 tuples/batch.
AUTO_PERSISTENT_MIN_BATCH = 16
#: Below that size, switch to the persistent pool once the *measured*
#: per-batch shipping cost exceeds this many bytes per work order — at that
#: point re-pickling dominates even small batches.
AUTO_PERSISTENT_BYTES_PER_ORDER = 8192
#: Minimum number of measured batches before trusting the byte estimate.
AUTO_WARMUP_BATCHES = 2


def resolve_auto_pool_mode(batch_size: int, transport) -> str:
    """The ``pool_mode="auto"`` decision rule.

    ``batch_size`` is the *observed* size of the batch at hand (an
    ingestion front-end may form batches much smaller than the executor's
    configured ``batch_size`` knob).  Static part: a batch of
    ``AUTO_PERSISTENT_MIN_BATCH`` or more tuples always picks the
    persistent pool.  Dynamic part: smaller batches start in per-batch
    mode (no resident stores to maintain) and upgrade once ``transport``
    has measured at least ``AUTO_WARMUP_BATCHES`` batches whose mean
    shipping cost exceeds ``AUTO_PERSISTENT_BYTES_PER_ORDER`` bytes per
    work order.
    """
    if batch_size >= AUTO_PERSISTENT_MIN_BATCH:
        return POOL_PERSISTENT
    if (transport.batches >= AUTO_WARMUP_BATCHES
            and transport.orders_shipped > 0
            and transport.bytes_shipped / transport.orders_shipped
            > AUTO_PERSISTENT_BYTES_PER_ORDER):
        return POOL_PERSISTENT
    return POOL_PER_BATCH


class MicroBatchExecutor(Executor):
    """Micro-batch scheduling with grouped/amortised stage execution.

    Parameters
    ----------
    batch_size:
        Ingestion granularity.  Larger batches amortise more (rule-group
        resolution, imputation candidate sets, instance profiles) at the
        cost of latency; 32–128 is a good range for the bundled workloads.
    max_workers:
        When ``> 1``, pair refinement is fanned out to worker processes
        with the batch partitioned by ER-grid region
        (``ERGrid.region_of``).  Worth it only when refinement is heavy
        (large instance counts / wide windows); small workloads are faster
        in-process.  ``None`` (default) keeps everything in the calling
        process.
    vectorized:
        Evaluate the three bound strategies (Theorems 4.1–4.3) through the
        columnar :func:`~repro.core.pruning.batch_prune` kernel instead of
        per-pair scalar calls.  Defaults to ``None`` = auto (on when numpy
        is importable); forced ``True`` raises without numpy, ``False``
        keeps the scalar cascade.  Verdicts and counters are identical
        either way.
    pool_mode:
        How ``max_workers > 1`` fans refinement out:

        * ``"persistent"`` (default) — a
          :class:`~repro.runtime.workers.PersistentRefinementPool` whose
          workers keep resident synopsis stores; the executor ships only
          synopsis deltas, ``(query, candidates)`` key orders and eviction
          notices, so steady-state batches stop re-pickling the window;
        * ``"per-batch"`` — the legacy ``concurrent.futures`` pool that
          serialises every partition's synopses each batch (kept as the
          shipping-cost baseline; see ``TransportStats``);
        * ``"auto"`` — pick between the two from the observed batch sizes
          and the measured ``TransportStats``
          (:func:`resolve_auto_pool_mode`).  The choice is sticky once it
          lands on ``"persistent"``: downgrading would throw away the
          workers' warm resident stores.
    shard_lookup:
        Run the *whole* ER phase — candidate lookup, pruning cascade and
        refinement, not just refinement — on the worker pool: each worker
        owns a resident ER-grid replica and evaluates the queries of its
        ``ERGrid.region_of`` shard, so grid scan time scales with
        ``max_workers`` and only matches + counters cross the process
        boundary (main keeps a thin routing grid).  Requires
        ``max_workers`` (the shard count; ``1`` is allowed).  Composes
        with ``pool_mode``: ``"persistent"`` keeps the replicas resident
        across batches (:class:`~repro.runtime.workers.ShardedERPool`),
        ``"per-batch"`` re-ships the window snapshot every batch (the
        stateless shipping-cost baseline).  Match sets and every counter
        are identical to the in-process paths at any shard count.
    shm_plane:
        Back the sharded ER phase with a shared-memory columnar plane
        (:class:`~repro.runtime.shm_plane.ShmPlane`): the main grid's
        packed-synopsis and cell-aggregate stores live in
        ``multiprocessing.shared_memory`` segments that the shard workers
        *map* read-only instead of receiving per-batch broadcast deltas.
        The main process is the single writer (per-batch epoch: write all
        deltas, bump the epoch, then ship the op journal); per-record
        Python state is *routed* only to the shards whose regions the
        record's cells touch, with lazy backfill for cross-region
        queries.  Requires ``shard_lookup``, ``vectorized``,
        ``pool_mode="persistent"`` and a platform with
        ``multiprocessing.shared_memory``.  Match sets and counters stay
        bit-identical to every other path.
    delta_routing:
        Only meaningful with ``shm_plane``: route each arrival's record
        delta to the touched regions only (default).  ``False`` broadcasts
        the delta to every worker — the shipping-cost baseline the
        benchmarks compare against.
    """

    def __init__(self, batch_size: int = 32,
                 max_workers: Optional[int] = None,
                 vectorized: Optional[bool] = None,
                 pool_mode: str = POOL_PERSISTENT,
                 shard_lookup: bool = False,
                 shm_plane: bool = False,
                 delta_routing: bool = True) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if pool_mode not in (POOL_PERSISTENT, POOL_PER_BATCH, POOL_AUTO):
            raise ValueError(
                f"pool_mode must be {POOL_PERSISTENT!r}, {POOL_PER_BATCH!r} "
                f"or {POOL_AUTO!r}, got {pool_mode!r}")
        if vectorized and not HAS_NUMPY:
            raise ValueError("vectorized=True requires numpy")
        if shard_lookup and max_workers is None:
            raise ValueError("shard_lookup requires max_workers (the number "
                             "of grid shards)")
        self.batch_size = batch_size
        self.max_workers = max_workers
        self.vectorized = HAS_NUMPY if vectorized is None else vectorized
        self.pool_mode = pool_mode
        self.shard_lookup = shard_lookup
        self.shm_plane = shm_plane
        self.delta_routing = delta_routing
        if shm_plane:
            if not HAS_SHM:
                raise ValueError("shm_plane requires numpy and "
                                 "multiprocessing.shared_memory")
            if not shard_lookup:
                raise ValueError("shm_plane requires shard_lookup (it backs "
                                 "the sharded ER phase)")
            if not self.vectorized:
                raise ValueError("shm_plane requires vectorized execution "
                                 "(the plane holds the columnar stores)")
            if pool_mode != POOL_PERSISTENT:
                raise ValueError("shm_plane requires pool_mode="
                                 f"{POOL_PERSISTENT!r} (the workers keep "
                                 "mapped state across batches)")
        self._pool = None
        self._persistent_pool: Optional[PersistentRefinementPool] = None
        self._sharded_pool: Optional[ShardedERPool] = None
        self._shm_pool: Optional[ShmShardedERPool] = None
        self._plane: Optional[ShmPlane] = None
        #: Test hook: run the shm replicas in-process (full protocol, every
        #: pickle round-trip, no process spawns).
        self._shm_inline = False
        self._persistent_ctx = None
        self._shard_params_cache: Optional[
            Tuple[object, Optional[int], bytes]] = None
        self._auto_choice: Optional[str] = None

    # -- resources -----------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _refinement_params(self, ctx) -> dict:
        pruning = ctx.pruning
        return {
            "pivots": ctx.pivots,
            "keywords": pruning.keywords,
            "gamma": pruning.gamma,
            "alpha": pruning.alpha,
            "use_topic": pruning.use_topic,
            "use_similarity": pruning.use_similarity,
            "use_probability": pruning.use_probability,
            "use_instance": pruning.use_instance,
            "vectorized": self.vectorized,
        }

    def _shard_params(self, ctx) -> dict:
        params = self._refinement_params(ctx)
        params["cells_per_dim"] = ctx.grid.cells_per_dim
        params["worker_count"] = self.max_workers
        return params

    def _shard_params_blob(self, ctx) -> bytes:
        """The pickled shard params, cached per (context, worker count).

        The params (pivot table included) are invariant for one operator at
        one worker count; the per-batch sharded path ships them with every
        batch, so only the serialisation is worth hoisting off the hot
        path.  ``worker_count`` is baked into the params, so the cache key
        includes ``max_workers`` — a reconfigured executor must not ship a
        stale shard count.
        """
        cached = self._shard_params_cache
        if (cached is None or cached[0] is not ctx
                or cached[1] != self.max_workers):
            self._shard_params_cache = (ctx, self.max_workers, pickle.dumps(
                self._shard_params(ctx), protocol=pickle.HIGHEST_PROTOCOL))
        return self._shard_params_cache[2]

    def _ensure_persistent_pool(self, ctx) -> PersistentRefinementPool:
        if self._persistent_pool is not None and self._persistent_ctx is not ctx:
            # The executor was handed to a different engine: the workers'
            # pivot table and pruning thresholds are that of the old
            # operator, so tear the pool down and start fresh.
            self._persistent_pool.close()
            self._persistent_pool = None
        if self._persistent_pool is None:
            self._persistent_pool = PersistentRefinementPool(
                workers=self.max_workers,
                params=self._refinement_params(ctx))
            self._persistent_ctx = ctx
        return self._persistent_pool

    def _ensure_sharded_pool(self, ctx) -> ShardedERPool:
        if self._sharded_pool is not None and self._persistent_ctx is not ctx:
            self._sharded_pool.close()
            self._sharded_pool = None
        if self._sharded_pool is None:
            self._sharded_pool = ShardedERPool(
                workers=self.max_workers, params=self._shard_params(ctx))
            self._persistent_ctx = ctx
        return self._sharded_pool

    def _ensure_shm_pool(self, ctx) -> ShmShardedERPool:
        if self._shm_pool is not None and self._persistent_ctx is not ctx:
            # Different operator: its grid maps the old plane's segments.
            self._teardown_shm()
        if self._plane is None:
            self._plane = ShmPlane()
        # No-ops in steady state; rebuild + backfill when the grid changed
        # hands or a prior in-process run left non-arena stores behind.
        ctx.grid.enable_packed_store(arena=self._plane.packed)
        ctx.grid.enable_cell_store(arena=self._plane.cells)
        if self._shm_pool is None:
            pruning = ctx.pruning
            self._shm_pool = ShmShardedERPool(
                workers=self.max_workers,
                params={
                    "schema": ctx.schema,
                    "keywords": pruning.keywords,
                    "gamma": pruning.gamma,
                    "alpha": pruning.alpha,
                    "use_topic": pruning.use_topic,
                    "use_similarity": pruning.use_similarity,
                    "use_probability": pruning.use_probability,
                    "use_instance": pruning.use_instance,
                    "worker_count": self.max_workers,
                },
                plane=self._plane, inline=self._shm_inline)
            self._persistent_ctx = ctx
        return self._shm_pool

    def _teardown_shm(self) -> None:
        """Close the shm pool and unlink the plane, in dependency order:
        localise the grid's stores out of the arenas first (so the operator
        keeps working serially), then stop the workers, then unlink."""
        ctx = self._persistent_ctx
        if ctx is not None and self._plane is not None:
            for store in (ctx.grid.packed_store, ctx.grid.cell_store):
                if store is not None and store.arena is not None:
                    store.localize()
        if self._shm_pool is not None:
            self._shm_pool.close()
            self._shm_pool = None
        if self._plane is not None:
            self._plane.close(unlink=True)
            self._plane = None

    def _resolve_pool_mode(self, ctx, batch_len: int) -> str:
        """The pool mode for the batch at hand (resolves ``auto``).

        ``batch_len`` is the actual number of tuples in this batch — the
        configured ``batch_size`` knob is ignored by callers that chunk
        their own input (e.g. the ingestion driver's adaptive batcher).
        """
        if self.pool_mode != POOL_AUTO:
            return self.pool_mode
        if self._auto_choice != POOL_PERSISTENT:
            # Re-evaluate until the choice upgrades to persistent; after
            # that it sticks (the workers' resident stores are warm).
            self._auto_choice = resolve_auto_pool_mode(batch_len,
                                                       ctx.transport)
            if self._auto_choice == POOL_PERSISTENT and self._pool is not None:
                # Release the warm-up phase's per-batch pool: its worker
                # processes would otherwise sit idle alongside the
                # persistent pool's for the executor's remaining lifetime.
                self._pool.shutdown()
                self._pool = None
        return self._auto_choice

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._persistent_pool is not None:
            self._persistent_pool.close()
            self._persistent_pool = None
        if self._sharded_pool is not None:
            self._sharded_pool.close()
            self._sharded_pool = None
        self._teardown_shm()
        self._persistent_ctx = None
        # A closed executor may be reused (the controller rebuilds pools
        # through the ordinary ``_ensure_*`` lazy paths); drop every piece
        # of derived state that bakes in the old configuration.
        self._shard_params_cache = None
        self._auto_choice = None

    # -- runtime reconfiguration ---------------------------------------------
    def reconfigure(self, *, max_workers: Optional[int] = None,
                    pool_mode: Optional[str] = None,
                    delta_routing: Optional[bool] = None,
                    batch_size: Optional[int] = None) -> dict:
        """Apply a safe reconfiguration at a quiescent batch boundary.

        Callers (the :class:`~repro.runtime.controller.RuntimeController`,
        tests, operators) invoke this *between* batches — there are no
        in-flight orders then, so resident pools can be torn down and
        lazily re-seeded on the next batch.  Residency self-healing (the
        pools reconcile against ``grid.mutation_count`` in
        ``begin_batch``) guarantees the rebuilt replicas converge on the
        exact live window, so match sets and counters stay bit-identical
        to an executor constructed with the new knobs from the start.

        Only the *elastic* knobs are reconfigurable: ``max_workers``,
        ``pool_mode``, ``delta_routing`` and ``batch_size``.  Structural
        knobs (``shard_lookup``, ``vectorized``, ``shm_plane``) change the
        algorithm shape and stay fixed at construction.  ``None`` leaves a
        knob unchanged.  Returns a ``{knob: (old, new)}`` dict of the
        knobs that actually changed (empty when the call was a no-op).
        """
        if batch_size is not None and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if pool_mode is not None:
            if pool_mode not in (POOL_PERSISTENT, POOL_PER_BATCH, POOL_AUTO):
                raise ValueError(
                    f"pool_mode must be {POOL_PERSISTENT!r}, "
                    f"{POOL_PER_BATCH!r} or {POOL_AUTO!r}, got {pool_mode!r}")
            if self.shm_plane and pool_mode != POOL_PERSISTENT:
                raise ValueError("shm_plane requires pool_mode="
                                 f"{POOL_PERSISTENT!r}; tear the executor "
                                 "down instead of downgrading it")
        if delta_routing is not None and not self.shm_plane \
                and delta_routing is False:
            # Harmless (the flag is only read on the shm path) but almost
            # certainly a controller bug — surface it.
            raise ValueError("delta_routing is only meaningful with "
                             "shm_plane")

        changed: dict = {}
        if batch_size is not None and batch_size != self.batch_size:
            changed["batch_size"] = (self.batch_size, batch_size)
            self.batch_size = batch_size
        if delta_routing is not None and delta_routing != self.delta_routing:
            # Read per batch on the shm path; flipping it is free — no
            # pool teardown, the next batch simply routes (or broadcasts).
            changed["delta_routing"] = (self.delta_routing, delta_routing)
            self.delta_routing = delta_routing
        pool_shape_changed = (
            (max_workers is not None and max_workers != self.max_workers)
            or (pool_mode is not None and pool_mode != self.pool_mode))
        if pool_shape_changed:
            if max_workers is not None and max_workers != self.max_workers:
                changed["max_workers"] = (self.max_workers, max_workers)
                self.max_workers = max_workers
            if pool_mode is not None and pool_mode != self.pool_mode:
                changed["pool_mode"] = (self.pool_mode, pool_mode)
                self.pool_mode = pool_mode
            # The worker count is baked into pool processes, shard params
            # and the shm plane's routing; drain everything and let the
            # next batch re-seed lazily under the new shape.  ``close``
            # also resets the auto-mode choice and the params-blob cache.
            self.close()
        return changed

    # -- scheduling ----------------------------------------------------------
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
        pooled = self.max_workers is not None and (self.max_workers > 1
                                                   or self.shard_lookup)
        sharded = pooled and self.shard_lookup
        if self.vectorized and not sharded:
            # Lookup runs main-side: scan the cells through the columnar
            # aggregate store, and (in-process) gather refinement candidates
            # from the resident packed store.  The sharded path keeps the
            # main grid thin — the worker replicas hold their own stores.
            ctx.grid.enable_cell_store()
            if not pooled:
                ctx.grid.enable_packed_store()
        # Rows evicted during the previous batch stayed gatherable until its
        # pairs (shm plane: its workers' orders) were evaluated; recycle them.
        ctx.grid.begin_epoch()
        tasks = [TupleTask(record=record) for record in records]

        # Phase 1: order-free stages over the whole batch.
        with ctx.timer.measure(STAGE_CDD_SELECTION), tel.span("rule_selection"):
            pipeline.rule_selection.run(tasks)
        with ctx.timer.measure(STAGE_IMPUTATION), tel.span("imputation"):
            pipeline.imputation.run(tasks)
            pipeline.synopsis.run(tasks, packed=self.vectorized and not pooled)

        if sharded:
            with ctx.timer.measure(STAGE_ER), tel.span("entity_resolution"):
                if self.shm_plane:
                    self._process_batch_shm(pipeline, tasks)
                else:
                    self._process_batch_sharded(pipeline, tasks)
            return [task.matches for task in tasks]

        with ctx.timer.measure(STAGE_ER), tel.span("entity_resolution"):
            # Phase 2: order-bound maintenance + candidate lookup, with the
            # result-set mutations deferred into an event log.
            events: List[Tuple[int, object]] = []
            evicted_keys: List[SynopsisKey] = []
            with tel.span("maintenance_lookup"):
                for task in tasks:
                    ctx.timestamps_processed += 1
                    evicted = pipeline.maintenance.expire(
                        task.record.source, defer_result_set=True)
                    if evicted is not None:
                        key = (evicted.record.rid, evicted.record.source)
                        events.append((_EVICT, key))
                        evicted_keys.append(key)
                    task.candidates = pipeline.candidates.lookup(task.synopsis)
                    events.append((_EMIT, task))
                    pipeline.maintenance.insert(task.synopsis)

            # Phase 3: pure pair refinement (in-process or pooled).
            with tel.span("refine"):
                if pooled:
                    if self._resolve_pool_mode(
                            ctx, len(records)) == POOL_PERSISTENT:
                        self._evaluate_persistent(pipeline, tasks,
                                                  evicted_keys)
                    else:
                        self._evaluate_pooled(pipeline, tasks)
                else:
                    self._evaluate_in_process(pipeline, tasks)

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

    # -- in-process refinement (batched Theorem 4.4 tail) ----------------------
    def _evaluate_in_process(self, pipeline: Pipeline,
                             tasks: Sequence[TupleTask]) -> None:
        """Whole-batch evaluation: one bound pass per query, one
        instance-level refinement sweep over the batch's surviving pairs."""
        ctx = pipeline.ctx
        pruning = ctx.pruning
        verdict_lists = evaluate_task_batch(
            [(task.synopsis, task.candidates) for task in tasks],
            keywords=pruning.keywords, gamma=pruning.gamma,
            alpha=pruning.alpha, use_topic=pruning.use_topic,
            use_similarity=pruning.use_similarity,
            use_probability=pruning.use_probability,
            use_instance=pruning.use_instance, stats=pruning.stats,
            vectorized=self.vectorized, store=ctx.grid.packed_store)
        for task, verdicts in zip(tasks, verdict_lists):
            for candidate, (is_match, probability) in zip(task.candidates,
                                                          verdicts):
                if is_match:
                    task.matches.append(
                        pipeline.matching.make_pair(task, candidate,
                                                    probability))

    # -- sharded ER phase (lookup + pruning + refinement worker-side) ----------
    def _process_batch_sharded(self, pipeline: Pipeline,
                               tasks: Sequence[TupleTask]) -> None:
        """Phases 2–4 with the whole ER phase dispatched per grid shard.

        The main process only replays window maintenance (cheap key
        bookkeeping) and builds the arrival-ordered op list; the workers
        replay the same ops against their resident grid replicas and run
        lookup + pruning + refinement for their regions.  Maintenance
        deltas piggyback on the lookup orders — one broadcast message per
        worker per batch, matches + counters back.
        """
        ctx = pipeline.ctx
        tel = ctx.telemetry
        mode = self._resolve_pool_mode(ctx, len(tasks))
        if mode == POOL_PERSISTENT:
            pool = self._ensure_sharded_pool(ctx)
            reconciliation = pool.begin_batch(ctx.grid)
            window_items = None
        else:
            pool = None
            reconciliation = None
            window_items = ctx.grid.synopsis_items()

        events: List[Tuple[int, object]] = []
        task_regions: List[int] = []
        task_evictions: List[List[SynopsisKey]] = []
        with tel.span("maintenance_lookup"):
            for task in tasks:
                ctx.timestamps_processed += 1
                evicted = pipeline.maintenance.expire(task.record.source,
                                                      defer_result_set=True)
                keys: List[SynopsisKey] = []
                if evicted is not None:
                    key = (evicted.record.rid, evicted.record.source)
                    events.append((_EVICT, key))
                    keys.append(key)
                task_evictions.append(keys)
                task_regions.append(ctx.grid.region_of(task.synopsis,
                                                       self.max_workers))
                events.append((_EMIT, task))
                pipeline.maintenance.insert(task.synopsis)

        if pool is not None:
            matches_by_task, stats, counters = pool.evaluate_batch(
                tasks, task_regions, task_evictions, reconciliation,
                grid=ctx.grid, transport=ctx.transport,
                trace=tel.current_trace)
        else:
            matches_by_task, stats, counters = self._evaluate_sharded_per_batch(
                ctx, tasks, task_regions, task_evictions, window_items)
        with tel.span("result_replay"):
            self._merge_shard_results(ctx, tasks, events, matches_by_task,
                                      stats, counters)

    @staticmethod
    def _merge_shard_results(ctx, tasks: Sequence[TupleTask], events,
                             matches_by_task, stats, counters) -> None:
        """Fold worker results back into the context: stats + grid
        counters, match triples rebuilt into :class:`MatchPair` objects,
        then the result-set mutations replayed in arrival order."""
        ctx.pruning.stats.merge(stats)
        ctx.grid.cells_examined += counters[0]
        ctx.grid.tuples_examined += counters[1]
        for index, triples in matches_by_task.items():
            task = tasks[index]
            record = task.record
            for rid, source, probability in triples:
                task.matches.append(MatchPair(
                    left_rid=record.rid, left_source=record.source,
                    right_rid=rid, right_source=source,
                    probability=probability, timestamp=record.timestamp))

        result_set = ctx.result_set
        for kind, payload in events:
            if kind == _EVICT:
                result_set.remove_record(*payload)
            else:
                for pair in payload.matches:
                    result_set.add(pair)

    # -- shm-plane sharded ER phase (workers map the columnar plane) -----------
    def _process_batch_shm(self, pipeline: Pipeline,
                           tasks: Sequence[TupleTask]) -> None:
        """Phases 2–4 against the shared-memory columnar plane.

        The main process is the plane's single writer: the maintenance
        loop below performs every arena write of the batch (evictions and
        insertions mutate the arena-backed packed/cell stores in place)
        while journalling the cell-membership mutations and each row's
        pre-image.  Only after the loop — all writes done — does
        ``evaluate_batch`` bump the epoch and ship the op journal; the
        workers then replay it against the mapped arrays, reconstructing
        every intermediate aggregate from the journal's at-write values.
        """
        ctx = pipeline.ctx
        tel = ctx.telemetry
        grid = ctx.grid
        pool = self._ensure_shm_pool(ctx)
        reset = pool.begin_batch(grid)
        workers = self.max_workers
        journal = GridJournal()
        grid.journal = journal
        events: List[Tuple[int, object]] = []
        ops = []
        routed: dict = {}
        maintenance_scope = tel.span("maintenance_journal")
        maintenance_scope.__enter__()
        try:
            for index, task in enumerate(tasks):
                ctx.timestamps_processed += 1
                evicted = pipeline.maintenance.expire(task.record.source,
                                                      defer_result_set=True)
                pre_evicted = []
                if evicted is not None:
                    key = (evicted.record.rid, evicted.record.source)
                    events.append((_EVICT, key))
                    retired = pool.retire_key(key)
                    if retired is not None:
                        pre_evicted.append(retired)
                pre_entries = journal.take()
                region = grid.region_of(task.synopsis, workers)
                pipeline.maintenance.insert(task.synopsis)
                post_entries = journal.take()
                key = (task.record.rid, task.record.source)
                handle, replaced = pool.register(key, task.synopsis)
                row = grid.packed_store.row_for(task.synopsis)
                ops.append((index, region, key, handle, row, pre_evicted,
                            pre_entries, post_entries,
                            [replaced] if replaced is not None else []))
                if self.delta_routing:
                    # Ship the record only to the shards whose regions its
                    # cells touch; the home cell is always among them, so
                    # the query's own shard is always a target.
                    targets = {region}
                    for coords in grid.record_cells(*key):
                        targets.add(grid.region_of_cell(coords, workers))
                else:
                    targets = range(workers)
                record = task.synopsis.record
                delta = (handle, record.base, record.candidates)
                for worker in targets:
                    routed.setdefault(worker, []).append(delta)
                events.append((_EMIT, task))
            pre_rows = journal.drain_pre()
        finally:
            grid.journal = None
            maintenance_scope.__exit__(None, None, None)
        matches_by_task, stats, counters = pool.evaluate_batch(
            grid, reset, ops, routed, pre_rows, transport=ctx.transport,
            trace=tel.current_trace)
        with tel.span("result_replay"):
            self._merge_shard_results(ctx, tasks, events, matches_by_task,
                                      stats, counters)

    def _evaluate_sharded_per_batch(self, ctx, tasks: Sequence[TupleTask],
                                    task_regions: Sequence[int],
                                    task_evictions: Sequence[List[SynopsisKey]],
                                    window_items):
        """Stateless sharded evaluation: re-ship the window every batch.

        The shipping-cost baseline against the resident ``ShardedERPool``:
        every worker receives the pre-batch window snapshot plus the op
        list, rebuilds a transient grid replica, and evaluates its regions.
        """
        from concurrent.futures import as_completed

        window_rows = [
            (handle, synopsis.record.base, synopsis.record.candidates)
            for handle, (_, synopsis) in enumerate(window_items)
        ]
        base = len(window_rows)
        deltas = []
        ops = []
        for index, task in enumerate(tasks):
            record = task.synopsis.record
            deltas.append((base + index, record.base, record.candidates))
            ops.append((index, task_evictions[index], base + index,
                        task_regions[index]))
        params_blob = self._shard_params_blob(ctx)
        blob = pickle.dumps((window_rows, deltas, ops),
                            protocol=pickle.HIGHEST_PROTOCOL)
        pool = self._ensure_pool()
        trace = ctx.telemetry.current_trace
        want_spans = trace is not None
        futures = {
            pool.submit(evaluate_shard_partition, blob, worker, params_blob,
                        want_spans): worker
            for worker in range(self.max_workers)
        }
        ctx.transport.record_batch(
            self.max_workers * (len(blob) + len(params_blob)),
            synopses=self.max_workers * (len(window_rows) + len(deltas)),
            orders=len(ops))
        merged = PruningStats()
        matches_by_task = {}
        cells_delta = 0
        tuples_delta = 0
        for future in as_completed(futures):
            results, stats, counters, spans = future.result()
            merged.merge(stats)
            if want_spans:
                trace.add_worker_spans("per_batch_shard", futures[future],
                                       spans)
            cells_delta += counters[0]
            tuples_delta += counters[1]
            for task_index, task_matches in results:
                matches_by_task[task_index] = task_matches
        return matches_by_task, merged, (cells_delta, tuples_delta)

    # -- persistent-pool refinement ------------------------------------------
    def _evaluate_persistent(self, pipeline: Pipeline,
                             tasks: Sequence[TupleTask],
                             evicted_keys: Sequence[SynopsisKey]) -> None:
        """Ship synopsis deltas + work orders to the resident-store pool."""
        ctx = pipeline.ctx
        pruning = ctx.pruning
        pool = self._ensure_persistent_pool(ctx)

        task_regions = [
            (index, ctx.grid.region_of(task.synopsis, self.max_workers))
            for index, task in enumerate(tasks) if task.candidates
        ]
        verdicts_by_task, stats = pool.evaluate_batch(
            tasks, task_regions, evicted_keys, transport=ctx.transport,
            trace=ctx.telemetry.current_trace)
        pruning.stats.merge(stats)
        for index, verdicts in verdicts_by_task.items():
            task = tasks[index]
            for candidate, (is_match, probability) in zip(task.candidates,
                                                          verdicts):
                if is_match:
                    task.matches.append(
                        pipeline.matching.make_pair(task, candidate,
                                                    probability))

    # -- per-batch pooled refinement (legacy shipping mode) --------------------
    def _evaluate_pooled(self, pipeline: Pipeline,
                         tasks: Sequence[TupleTask]) -> None:
        """Fan pair refinement out to the process pool, sharded by region."""
        from concurrent.futures import as_completed

        ctx = pipeline.ctx
        pruning = ctx.pruning
        pending = [task for task in tasks if task.candidates]
        if not pending:
            return
        partitions: dict = {}
        for task in pending:
            region = ctx.grid.region_of(task.synopsis, self.max_workers)
            partitions.setdefault(region, []).append(task)

        pool = self._ensure_pool()
        trace = ctx.telemetry.current_trace
        want_spans = trace is not None
        futures = {}
        total_bytes = 0
        total_synopses = 0
        total_orders = 0
        for region, grouped in sorted(partitions.items()):
            items = [(task.synopsis, task.candidates) for task in grouped]
            # Pickled once here (not inside ``submit``) so the shipped bytes
            # are accounted exactly; the worker unpickles in
            # ``evaluate_partition_blob``.
            blob = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
            total_bytes += len(blob)
            total_synopses += sum(1 + len(task.candidates)
                                  for task in grouped)
            total_orders += len(grouped)
            future = pool.submit(
                evaluate_partition_blob, blob,
                keywords=pruning.keywords, gamma=pruning.gamma,
                alpha=pruning.alpha, use_topic=pruning.use_topic,
                use_similarity=pruning.use_similarity,
                use_probability=pruning.use_probability,
                use_instance=pruning.use_instance,
                vectorized=self.vectorized, want_spans=want_spans)
            futures[future] = (region, grouped)
        ctx.transport.record_batch(total_bytes, synopses=total_synopses,
                                   orders=total_orders)

        # Merge each partition as soon as it finishes: a slow region no
        # longer blocks the already-completed ones (pair verdicts are
        # order-free; phase 4 replays the result set in arrival order).
        for future in as_completed(futures):
            region, grouped = futures[future]
            verdicts_per_task, partition_stats, spans = future.result()
            pruning.stats.merge(partition_stats)
            if want_spans:
                trace.add_worker_spans("per_batch_refinement", region, spans)
            for task, verdicts in zip(grouped, verdicts_per_task):
                for candidate, (is_match, probability) in zip(task.candidates,
                                                              verdicts):
                    if is_match:
                        task.matches.append(
                            pipeline.matching.make_pair(task, candidate,
                                                        probability))
