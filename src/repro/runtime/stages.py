"""The pipeline stages of the online TER-iDS operator (Algorithm 2).

The paper's online step is a staged dataflow; each phase is one class here:

* :class:`RuleSelectionStage` — online CDD selection via the CDD-indexes;
* :class:`ImputationStage` — Eq. (4) imputation with the selected rules;
* :class:`SynopsisStage` — per-tuple ER-grid synopsis construction;
* :class:`CandidateLookupStage` — ER-grid candidate retrieval;
* :class:`MatchingStage` — the four pruning strategies plus refinement;
* :class:`MaintenanceStage` — window expiry and window/grid insertion.

A :class:`TupleTask` carries one arriving tuple through the stages and
accumulates the per-stage artefacts.  Stages are stateless apart from the
shared :class:`~repro.runtime.context.RuntimeContext`; executors own the
scheduling (per-tuple for the serial executor, per-batch with grouping for
the micro-batch executor) and the stage timers.

The first three stages are *order-free*: they read only the offline
substrates, never the online window/grid state, so a batch executor may run
them for many tuples at once (grouped and cached).  The last three are
*order-bound*: candidate lookup for tuple ``t`` must observe exactly the
evictions and insertions of all tuples that arrived before ``t``, which is
why executors interleave them per tuple in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.matching import MatchPair
from repro.core.pruning import RecordSynopsis
from repro.core.tuples import ImputedRecord, Record
from repro.imputation.cdd import CDDRule, discover_cdd_rules
from repro.runtime.context import RuntimeContext


@dataclass
class TupleTask:
    """One arriving tuple and the artefacts the stages attach to it."""

    record: Record
    selected_rules: Optional[Dict[str, List[CDDRule]]] = None
    imputed: Optional[ImputedRecord] = None
    synopsis: Optional[RecordSynopsis] = None
    candidates: Optional[List[RecordSynopsis]] = None
    matches: List[MatchPair] = field(default_factory=list)


class RuleSelectionStage:
    """Online CDD selection via the CDD-indexes (Figure 6 stage 1)."""

    name = "rule_selection"

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx

    def select(self, record: Record) -> Dict[str, List[CDDRule]]:
        """Candidate rules per missing attribute of one record."""
        indexes = self.ctx.cdd_indexes
        selected: Dict[str, List[CDDRule]] = {}
        for attribute in record.missing_attributes(self.ctx.schema):
            index = indexes.get(attribute)
            if index is None:
                selected[attribute] = []
            else:
                selected[attribute] = index.candidate_rules(record)
        return selected

    def run(self, tasks: Sequence[TupleTask]) -> None:
        """Batched selection, grouped by missing-attribute signature.

        Complete tuples are skipped wholesale; incomplete tuples sharing a
        signature resolve their per-attribute index objects once per group
        instead of once per tuple.
        """
        schema = self.ctx.schema
        indexes = self.ctx.cdd_indexes
        groups: Dict[tuple, List[TupleTask]] = {}
        for task in tasks:
            signature = tuple(task.record.missing_attributes(schema))
            groups.setdefault(signature, []).append(task)
        for signature, grouped in groups.items():
            if not signature:
                for task in grouped:
                    task.selected_rules = {}
                continue
            group_indexes = [(attribute, indexes.get(attribute))
                             for attribute in signature]
            for task in grouped:
                selected: Dict[str, List[CDDRule]] = {}
                for attribute, index in group_indexes:
                    if index is None:
                        selected[attribute] = []
                    else:
                        selected[attribute] = index.candidate_rules(task.record)
                task.selected_rules = selected


class ImputationStage:
    """Equation (4) imputation with the index-selected rules (stage 2)."""

    name = "imputation"

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx

    def impute(self, record: Record,
               selected_rules: Dict[str, List[CDDRule]]) -> ImputedRecord:
        """Impute one record's missing attributes with the selected rules."""
        ctx = self.ctx
        schema = ctx.schema
        imputer = ctx.imputer
        missing = record.missing_attributes(schema)
        if not missing:
            return ImputedRecord.from_complete(record, schema)
        candidates: Dict[str, Dict[str, float]] = {}
        for attribute in missing:
            rules = selected_rules.get(attribute, [])
            if not rules:
                imputer.stats.attributes_unimputable += 1
                continue
            distribution = imputer.candidate_distribution(record, attribute,
                                                          rules=rules)
            if distribution:
                candidates[attribute] = distribution
                imputer.stats.attributes_imputed += 1
            else:
                imputer.stats.attributes_unimputable += 1
        imputer.stats.records_imputed += 1
        return ImputedRecord(base=record, schema=schema, candidates=candidates)

    def run(self, tasks: Sequence[TupleTask]) -> None:
        for task in tasks:
            task.imputed = self.impute(task.record, task.selected_rules or {})


class SynopsisStage:
    """Per-tuple ER-grid synopsis construction (Section 5.2)."""

    name = "synopsis"

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx

    def build(self, imputed: ImputedRecord) -> RecordSynopsis:
        return RecordSynopsis.build(imputed, self.ctx.pivots,
                                    self.ctx.config.keywords)

    def run(self, tasks: Sequence[TupleTask]) -> None:
        for task in tasks:
            task.synopsis = self.build(task.imputed)


class CandidateLookupStage:
    """ER-grid candidate retrieval (Algorithm 2, lines 8–10).

    Order-bound: the grid must reflect every earlier tuple's eviction and
    insertion, so executors call :meth:`lookup` per tuple in arrival order,
    interleaved with :class:`MaintenanceStage`.
    """

    name = "candidate_lookup"

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx

    def lookup(self, synopsis: RecordSynopsis) -> List[RecordSynopsis]:
        # Keywords are deliberately NOT pushed down to the grid here: the
        # topic-keyword pruning is applied (and counted) by the pruning
        # pipeline so that the Figure 4 pruning-power report attributes
        # eliminated pairs to the right strategy.  The grid still prunes
        # cells with the converted-space distance bound.
        return self.ctx.grid.candidate_synopses(
            synopsis,
            gamma=self.ctx.config.gamma,
            keywords=frozenset(),
            exclude_source=synopsis.record.source,
        )


class MatchingStage:
    """Pruning + refinement over the candidate pairs (stage 3, Section 4)."""

    name = "matching"

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx

    def make_pair(self, task: TupleTask, candidate: RecordSynopsis,
                  probability: float) -> MatchPair:
        record = task.record
        return MatchPair(
            left_rid=record.rid,
            left_source=record.source,
            right_rid=candidate.record.rid,
            right_source=candidate.record.source,
            probability=probability,
            timestamp=record.timestamp,
        )

    def evaluate_serial(self, task: TupleTask) -> None:
        """Seed-exact evaluation: result-set updates interleaved per pair."""
        ctx = self.ctx
        for candidate in task.candidates:
            is_match, probability = ctx.pruning.evaluate_pair(task.synopsis,
                                                              candidate)
            if is_match:
                pair = self.make_pair(task, candidate, probability)
                task.matches.append(pair)
                ctx.result_set.add(pair)


class MaintenanceStage:
    """Sliding-window expiry and window/grid insertion (lines 2–7, 11–13)."""

    name = "maintenance"

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx

    def expire(self, source: str,
               defer_result_set: bool = False) -> Optional[RecordSynopsis]:
        """Evict the oldest tuple of a full window before a new insertion.

        ``SlidingWindow.insert`` would evict automatically; the oldest tuple
        is peeked explicitly so the grid and the result set stay consistent.
        With ``defer_result_set`` the entity-result-set removal is left to
        the caller (the micro-batch executor replays it in arrival order
        after the deferred pair evaluations).
        """
        ctx = self.ctx
        window = ctx.window_for(source)
        if not window.is_full:
            return None
        oldest = window.items()[0]
        ctx.grid.remove(oldest.record.rid, oldest.record.source)
        if not defer_result_set:
            ctx.result_set.remove_record(oldest.record.rid, oldest.record.source)
        return oldest

    def insert(self, synopsis: RecordSynopsis) -> None:
        """Register a new tuple in its window and in the ER-grid."""
        ctx = self.ctx
        window = ctx.window_for(synopsis.record.source)
        window.insert(synopsis)
        ctx.grid.insert(synopsis)

    # -- time-based expiry (time-based windows) ------------------------------
    def retract(self, items: Sequence) -> int:
        """Remove time-expired tuples from the ER-grid and the result set.

        The count-based windows bound memory on their own; a time-based view
        (:mod:`repro.core.time_window`) additionally expires tuples by age,
        and every pair involving an expired tuple must leave the reported
        result set.
        ``items`` only need ``rid`` / ``source`` attributes.  Returns the
        number of retracted items.
        """
        ctx = self.ctx
        for item in items:
            ctx.grid.remove(item.rid, item.source)
            ctx.result_set.remove_record(item.rid, item.source)
        return len(items)

    # -- evolving repository (Section 5.5) -----------------------------------
    def absorb_repository_samples(self, samples: Sequence[Record],
                                  remine_rules: bool = False) -> None:
        """Extend the repository and the DR-index with complete samples.

        The CDD rules stay a pure function of repository and discovery
        configuration: they are left alone unless ``remine_rules`` asks for
        an exact re-mine (:func:`~repro.imputation.cdd.discover_cdd_rules`
        over the extended repository), which
        :meth:`~repro.runtime.context.RuntimeContext.install_rules` then
        swaps in.
        """
        ctx = self.ctx
        for sample in samples:
            ctx.repository.add_sample(sample)
            ctx.dr_index.index_sample(sample)
        if samples and ctx.imputer.candidate_cache is not None:
            # Cache keys embed the domain size, so entries for attributes
            # whose domain grew can never be hit again — drop everything
            # rather than strand them.
            ctx.imputer.candidate_cache.clear()
        if remine_rules:
            ctx.install_rules(discover_cdd_rules(ctx.repository,
                                                 ctx.discovery_config))

    def absorb_complete_stream_tuples(self, records: Sequence[Record]) -> int:
        """Gated online repository growth from the streams themselves.

        When ``config.absorb_complete_tuples`` is set, every *complete*
        tuple of an arriving batch is absorbed into the repository through
        :meth:`absorb_repository_samples`, so the DR-index grows with the
        observed traffic; the rules are not re-mined.  Incomplete tuples
        are never absorbed (repository samples must be complete).  Returns
        the number of absorbed tuples (0 when the flag is off).
        """
        ctx = self.ctx
        if not ctx.config.absorb_complete_tuples:
            return 0
        schema = ctx.schema
        complete = [record for record in records if record.is_complete(schema)]
        if complete:
            self.absorb_repository_samples(complete)
        return len(complete)
