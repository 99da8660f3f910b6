"""Query-time (on-demand) entity resolution over the live window.

Eager TER-iDS resolves every *arriving* tuple against the window; the
:class:`QueryResolver` answers the inverse question — "what is entity X's
resolved cluster right now?" — which is the read path an interactive
service tier needs.

**Operator-default reads walk ``ES``.**  A pair of in-window records from
two different streams is in the maintained result set ``ES`` iff the pure
pairwise cascade calls it a match: the pair was evaluated when the later of
the two arrived (the earlier one was already in-window, and both still
are), and pairs only leave ``ES`` when an endpoint leaves the window
(Algorithm 2, lines 4–5 and 11–13).  So under the operator's topic and
``γ`` the resolved cluster *is* the query record's connected component of
``ES``, and a read walks it through the result set's per-record incidence
index: no grid lookup, no cascade, no packed store.

**Override reads expand.**  A ``topic=`` or ``gamma=`` other than the
operator's asks a question ``ES`` does not answer.  Following the
query-time ER formulation of Bhattacharya & Getoor, the resolver then
resolves *lazily around the named query*: it seeds a frontier from the
query record's grid synopsis, retrieves each frontier ring's candidates
through :meth:`~repro.indexes.er_grid.ERGrid.candidate_rows` (cell-level
Theorems 4.1 / Lemma 4.2), evaluates the ring with the row cascade +
Theorem 4.4 refinement of :mod:`repro.runtime.evaluation`, and expands
collectively — matched neighbours join the frontier — until a fixpoint.
Each pair is oriented as the eager path would have seen it, ``(later
arrival, earlier arrival)``, so probabilities accumulate in the same order.
Run under the operator defaults, that expansion returns exactly the ``ES``
walk's members and edges (``tests/test_query_time.py`` keeps it pinned as
the oracle of the walk, under both executors).

The resolver keeps no state between calls: every read walks the live
result set or expands against the live grid, so there is nothing for
window maintenance to invalidate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as _np

from repro.core.matching import MatchPair, normalise_keywords
from repro.core.pruning import PruningStats, RecordSynopsis
from repro.runtime.context import RuntimeContext
from repro.runtime.evaluation import evaluate_task_batch

#: ``(rid, source)`` identity of one in-window record.
RecordKey = Tuple[str, str]


@dataclass(frozen=True)
class ResolvedCluster:
    """The resolved entity cluster of one query record, at query time.

    ``members`` are the ``(source, rid)`` endpoints of the transitive
    closure (always including the query record itself — a record with no
    match is a singleton cluster); ``pairs`` are the closure's match edges,
    each bit-identical (probability, timestamp, orientation) to the pair
    the eager path maintains in the entity result set.
    """

    rid: str
    source: str
    topic: FrozenSet[str]
    gamma: float
    members: Tuple[Tuple[str, str], ...]
    pairs: Tuple[MatchPair, ...]

    def __len__(self) -> int:
        return len(self.members)

    def contains(self, rid: str, source: str) -> bool:
        return (source, rid) in self.members


class QueryResolver:
    """Stateless on-demand collective resolution over the live window.

    An operator-default read walks the maintained result set.  An override
    read expands against the live grid whichever executor drives the eager
    path; every ring is evaluated by the row cascade, so the first override
    read on a ``SerialExecutor`` engine enables the grid's packed store
    (back-filled from the window, maintained from then on); the eager path
    keeps running the scalar oracle and its answers do not change.

    Parameters
    ----------
    ctx:
        The runtime context of the engine whose window is queried.
    """

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx

    # -- public API ----------------------------------------------------------
    def resolve(self, rid: str, source: str,
                topic: Optional[FrozenSet[str]] = None,
                gamma: Optional[float] = None) -> ResolvedCluster:
        """Resolved cluster of one in-window record.

        ``topic`` / ``gamma`` default to the operator configuration — with
        the defaults the cluster is the record's connected component of the
        eager result set, read off it directly; a caller may narrow a
        lookup to a different topic keyword set or a stricter similarity
        threshold, which re-runs the cascade under those parameters (minus
        Theorem 4.1 under another topic: the synopses' keyword flags only
        speak for the operator's keywords).

        Raises :class:`KeyError` when the record is not in the live window.
        """
        return self.resolve_many([(rid, source)], topic=topic, gamma=gamma)[0]

    def resolve_many(self, entities,
                     topic: Optional[FrozenSet[str]] = None,
                     gamma: Optional[float] = None) -> List[ResolvedCluster]:
        """Resolve several in-window records in one shared walk or expansion.

        ``entities`` is a sequence of ``(rid, source)`` pairs; the result
        list is positionally aligned with it.  All of them join ONE shared
        walk of the result set (operator defaults) or ONE shared frontier
        (an override: overlapping neighbourhoods are expanded once, each
        candidate ring is evaluated in one batched cascade across all
        queries, and a pair of records is never evaluated twice however many
        queries reach it).  Per-seed clusters are then read off the
        connected components of the shared match edges — so every returned
        cluster is bit-identical to what :meth:`resolve` would have
        returned for that entity alone.

        Raises :class:`KeyError` when any named record is not in the live
        window (before any expansion work is done).
        """
        ctx = self.ctx
        pruning = ctx.pruning
        keywords = (pruning.keywords if topic is None
                    else normalise_keywords(topic))
        gamma_value = pruning.gamma if gamma is None else float(gamma)
        keys: List[RecordKey] = []
        for rid, source in entities:
            if not ctx.grid.contains(rid, source):
                raise KeyError(
                    f"({rid!r}, {source!r}) is not in the live window")
            keys.append((rid, source))
        tel = ctx.telemetry
        start = perf_counter()
        # A duplicate input entity is one seed: one expansion suffices.
        seeds = list(dict.fromkeys(keys))
        ctx.query.resolves += len(seeds)
        with tel.span("resolve"):
            if keywords == pruning.keywords and gamma_value == pruning.gamma:
                members, edges = self._walk(seeds)
            else:
                members, edges = self._collect(seeds, keywords, gamma_value)
        components = self._components(members, edges)
        resolved = {
            seed: ResolvedCluster(rid=seed[0], source=seed[1], topic=keywords,
                                  gamma=gamma_value,
                                  members=components[seed][0],
                                  pairs=components[seed][1])
            for seed in seeds}
        tel.observe_resolve(perf_counter() - start)
        return [resolved[key] for key in keys]

    # -- operator defaults: walk the result set -----------------------------
    def _walk(self, seeds: List[RecordKey]) -> Tuple[Set[RecordKey],
                                                     Dict[Tuple, MatchPair]]:
        """Shared walk of the result set ``ES`` from all ``seeds``.

        Returns the members (the union of every seed's connected component
        of ``ES``) and their match edges, each the pair ``ES`` holds.
        """
        result_set = self.ctx.result_set
        members: Set[RecordKey] = set(seeds)
        edges: Dict[Tuple, MatchPair] = {}
        stack = list(seeds)
        while stack:
            for pair in result_set.pairs_involving(*stack.pop()):
                edges[pair.key()] = pair
                for endpoint in ((pair.left_rid, pair.left_source),
                                 (pair.right_rid, pair.right_source)):
                    if endpoint not in members:
                        members.add(endpoint)
                        stack.append(endpoint)
        self.ctx.query.frontier_expansions += len(members)
        return members, edges

    # -- overrides: collective expansion -------------------------------------
    def _collect(self, seeds: List[RecordKey], keywords: FrozenSet[str],
                 gamma: float) -> Tuple[Set[RecordKey],
                                        Dict[Tuple, MatchPair]]:
        """Shared frontier fixpoint around all ``seeds``.

        Returns the members (the union of every seed's transitive closure)
        and the match edges found; each candidate pair is evaluated exactly
        once across all seeds, in the orientation the eager path saw it.
        """
        ctx = self.ctx
        grid = ctx.grid
        store = grid.enable_packed_store()
        members: Dict[RecordKey, RecordSynopsis] = {
            seed: grid.get_synopsis(*seed) for seed in seeds}
        edges: Dict[Tuple, MatchPair] = {}
        evaluated: Set[Tuple[RecordKey, RecordKey]] = set()
        ring: List[RecordKey] = list(members)
        # Interactive lookups must not perturb the Figure-4 style counters
        # the goldens and checkpoints pin for the eager path: the cascade
        # counts into a scratch copy of the operator's pipeline, the grid's
        # examination counters are put back.
        # Theorem 4.1 reads keyword flags the synopses were built with under
        # the operator's keywords: under any other topic they would dismiss
        # true answers, so only refinement's exact χ tests the topic then.
        pruning = replace(
            ctx.pruning, keywords=keywords, gamma=gamma, stats=PruningStats(),
            use_topic=(ctx.pruning.use_topic
                       and keywords == ctx.pruning.keywords))
        saved = (grid.cells_examined, grid.tuples_examined)
        try:
            while ring:
                # Per query synopsis, the store rows of its candidates.
                items: List[Tuple[RecordSynopsis, List[int]]] = []
                later_groups: "OrderedDict[RecordKey, Tuple[RecordSynopsis, List[int]]]" = OrderedDict()
                for key in ring:
                    ctx.query.frontier_expansions += 1
                    query = members[key]
                    # Grid arrival order is window-arrival order, which
                    # recovers the orientation the eager path evaluated each
                    # pair under: the later arrival was the query side.
                    arrival = grid.arrival(*key)
                    query_row = store.source_rows(key[1])[key[0]]
                    earlier: List[int] = []
                    for row in grid.candidate_rows(
                            query, gamma=gamma, keywords=frozenset(),
                            exclude_source=query.record.source).tolist():
                        candidate = store.synopsis_at(row)
                        ckey = (candidate.record.rid, candidate.record.source)
                        pair_key = ((key, ckey) if key <= ckey
                                    else (ckey, key))
                        if pair_key in evaluated:
                            continue
                        evaluated.add(pair_key)
                        if grid.arrival(*ckey) < arrival:
                            earlier.append(row)
                        else:
                            # The candidate arrived after this frontier
                            # record, so the eager path evaluated the pair
                            # with the *candidate* as query.
                            group = later_groups.get(ckey)
                            if group is None:
                                group = (candidate, [])
                                later_groups[ckey] = group
                            group[1].append(query_row)
                    if earlier:
                        items.append((query, earlier))
                items.extend(later_groups.values())
                if not items:
                    break
                verdicts = evaluate_task_batch(
                    [(query, _np.array(rows, dtype=_np.intp))
                     for query, rows in items], pruning, store)
                ring = []
                for (query, rows), item_verdicts in zip(items, verdicts):
                    for row, (is_match, probability) in zip(rows,
                                                            item_verdicts):
                        if not is_match:
                            continue
                        candidate = store.synopsis_at(row)
                        pair = MatchPair(
                            left_rid=query.record.rid,
                            left_source=query.record.source,
                            right_rid=candidate.record.rid,
                            right_source=candidate.record.source,
                            probability=probability,
                            timestamp=query.record.timestamp)
                        edges[pair.key()] = pair
                        for synopsis in (query, candidate):
                            endpoint = (synopsis.record.rid,
                                        synopsis.record.source)
                            if endpoint not in members:
                                members[endpoint] = synopsis
                                ring.append(endpoint)
        finally:
            grid.cells_examined, grid.tuples_examined = saved
        return set(members), edges

    @staticmethod
    def _components(members: Set[RecordKey], edges: Dict[Tuple, MatchPair]
                    ) -> Dict[RecordKey, Tuple[Tuple[Tuple[str, str], ...],
                                               Tuple[MatchPair, ...]]]:
        """Each member's connected component under the match edges, as the
        cluster's sorted ``(source, rid)`` members and sorted edges.

        Members and edges are grouped by component root in one pass each,
        so a call costs O(members + edges) however many seeds share it.
        """
        parent: Dict[RecordKey, RecordKey] = {key: key for key in members}

        def find(key: RecordKey) -> RecordKey:
            root = key
            while parent[root] != root:
                root = parent[root]
            while parent[key] != root:  # path compression
                parent[key], key = root, parent[key]
            return root

        for pair in edges.values():
            left = (pair.left_rid, pair.left_source)
            right = (pair.right_rid, pair.right_source)
            parent[find(left)] = find(right)
        groups: Dict[RecordKey, Tuple[List, List[MatchPair]]] = {}
        for rid, source in members:
            groups.setdefault(find((rid, source)), ([], []))[0].append(
                (source, rid))
        for pair in edges.values():
            groups[find((pair.left_rid, pair.left_source))][1].append(pair)
        clusters = {
            root: (tuple(sorted(component)),
                   tuple(sorted(pairs, key=lambda pair: pair.key())))
            for root, (component, pairs) in groups.items()}
        return {key: clusters[find(key)] for key in members}
