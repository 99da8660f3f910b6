"""Incremental CDD-rule maintenance for the evolving repository (Section 5.5).

The paper keeps the CDD rules in step with a data repository that absorbs
new complete samples while the stream is running.  Re-mining the rules from
scratch on every extension is exact but costs ``O(|R|^2)`` pair work per
update — the slowest path of the online loop.  This module maintains the
miner's *sufficient statistics* instead, so one update costs ``O(batch)``:

* **band sketches** — for every ``(determinant, dependent, band)`` triple
  the count / min / max of the dependent-attribute distances over the pairs
  whose determinant distance falls inside the band.  This is exactly the
  statistic :func:`~repro.imputation.cdd._mine_interval_rules` reduces each
  band mask to, so regenerating interval rules from the sketches reproduces
  the full miner bit for bit (as long as the pair budget covered every new
  pair).  :meth:`~IncrementalRuleMaintainer.initialize` builds them the way
  the miner does — one :func:`~repro.imputation.cdd.pair_distance_columns`
  pass, one :func:`~repro.imputation.cdd.band_range` per triple — and
  :meth:`~IncrementalRuleMaintainer.absorb` folds each new pair in one at a
  time (``_observe_band_pair``);
* **constant-group sketches** — for every determinant value the member list
  plus, per dependent attribute, the count / min / max of the pairwise
  dependent distances inside the group: the statistic of
  :func:`~repro.imputation.cdd._mine_constant_rules`;
* **per-rule counters** — support / violation counts observed on the update
  pairs; rules whose confidence drops below
  ``CDDDiscoveryConfig.min_confidence`` are retired until the next full
  re-mine;
* **pending pool** — candidate rules whose sketches newly qualify are
  promoted at most ``pending_pool_size`` per update; the surplus stays
  pending and is counted as drift.

Because the update pairs are budgeted (``max_update_pairs``,
``max_group_pairs_per_sample``) the sketches can lag the true statistics.
The maintainer therefore tracks a **drift** estimate — skipped-pair
coverage gap + violation mass + deferred-promotion pressure — and, in
``hybrid`` maintenance mode, schedules a full re-mine (a call to
:meth:`IncrementalRuleMaintainer.initialize`, which resets the sketches
exactly) once the estimate exceeds ``drift_threshold``.

Interval maintenance is *monotone*: an update only ever widens a rule's
observed dependent interval (:func:`widen_interval`), never narrows it, so
a pair that satisfied a rule keeps satisfying every maintained version of
it.  Narrowing happens only through a full re-mine.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.similarity import text_distance
from repro.core.tuples import Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_MISSING,
    CDDDiscoveryConfig,
    CDDRule,
    MAINTENANCE_HYBRID,
    _combine_rules,
    _sample_pairs,
    band_range,
    constant_rule_from_group,
    interval_rule_from_band,
    pair_distance_columns,
)
from repro.imputation.repository import DataRepository

BandKey = Tuple[str, str, Tuple[float, float]]

_EPS = 1e-9


def widen_interval(interval: Tuple[float, float], distance: float,
                   max_width: float) -> Optional[Tuple[float, float]]:
    """Widen a dependent interval to absorb one observed distance.

    Returns the (monotonically grown) interval covering both the original
    interval and ``distance``, clipped to ``[0, 1]`` — or ``None`` when the
    widened interval would exceed ``max_width`` (the observation is then a
    *violation*, not a supporting sample).  Widening is monotone (the result
    always contains the input interval) and idempotent (absorbing a distance
    already inside the interval changes nothing).
    """
    low, high = interval
    new_low = min(low, distance)
    new_high = max(high, distance)
    if new_high - new_low > max_width + _EPS:
        return None
    return (max(0.0, new_low), min(1.0, new_high))


@dataclass
class RangeStat:
    """Count / min / max summary of a stream of distances."""

    count: int = 0
    low: float = 1.0
    high: float = 0.0

    def observe(self, distance: float) -> None:
        if self.count == 0:
            self.low = distance
            self.high = distance
        else:
            if distance < self.low:
                self.low = distance
            if distance > self.high:
                self.high = distance
        self.count += 1

    def as_list(self) -> List[float]:
        return [self.count, self.low, self.high]

    @classmethod
    def from_list(cls, data: Sequence[float]) -> "RangeStat":
        return cls(count=int(data[0]), low=float(data[1]), high=float(data[2]))


@dataclass
class RuleCounters:
    """Support / violation counts observed for one rule on update pairs."""

    support: int = 0
    violations: int = 0

    @property
    def total(self) -> int:
        return self.support + self.violations

    @property
    def confidence(self) -> float:
        """Fraction of determinant-matching pairs consistent with the rule."""
        if self.total == 0:
            return 1.0
        return self.support / self.total


@dataclass
class GroupState:
    """One constant-condition group: members + per-dependent pair ranges."""

    member_indices: List[int] = field(default_factory=list)
    dep_ranges: Dict[str, RangeStat] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.member_indices)


@dataclass
class MaintenanceReport:
    """Outcome of one :meth:`IncrementalRuleMaintainer.absorb` call."""

    rules: List[CDDRule]
    rules_changed: bool
    remined: bool
    drift: float
    promoted: List[str] = field(default_factory=list)
    retired: List[str] = field(default_factory=list)
    deferred: List[str] = field(default_factory=list)
    widened: int = 0
    #: Rule ids whose dependent interval widened this update (the rules
    #: behind the ``widened`` count); consumed by the index patch path.
    widened_ids: List[str] = field(default_factory=list)
    pairs_observed: int = 0
    pairs_skipped: int = 0


def _rule_signature(rules: Sequence[CDDRule]) -> List[Tuple]:
    return [(rule.rule_id, rule.dependent_interval, rule.support)
            for rule in rules]


class IncrementalRuleMaintainer:
    """Maintains a CDD rule set under repository extensions in O(batch).

    The maintainer owns the sufficient statistics described in the module
    docstring.  :meth:`initialize` performs the exact sketch pass over the
    current repository (the cost of one full mine) and returns the rule set
    the full miner would have produced; :meth:`absorb` folds a batch of new
    samples into the sketches and regenerates the rules without touching the
    pre-existing repository pairs.
    """

    def __init__(self, config: Optional[CDDDiscoveryConfig],
                 schema: Schema) -> None:
        self.config = config or CDDDiscoveryConfig()
        self.schema = schema
        self.samples_seen = 0
        self.band_sketches: Dict[BandKey, RangeStat] = {}
        self.groups: Dict[str, Dict[str, GroupState]] = {
            attribute: {} for attribute in schema}
        self.counters: Dict[str, RuleCounters] = {}
        self.active_ids: Set[str] = set()
        self.retired_ids: Set[str] = set()
        self.deferred_ids: Set[str] = set()
        self.pairs_required = 0
        self.pairs_observed = 0
        self.support_total = 0
        self.violation_total = 0
        self.full_resyncs = 0
        self.rules: List[CDDRule] = []

    # ------------------------------------------------------------------
    # drift estimate
    # ------------------------------------------------------------------
    @property
    def drift(self) -> float:
        """Estimated divergence from a full re-mine, 0 when provably exact.

        Sum of three interpretable terms: the fraction of update pairs
        (band-sketch *and* constant-group pairs) skipped because of the pair
        budgets (coverage gap, in ``[0, 1]``), the fraction of observed
        determinant-matching pairs that violated their rule (violation mass,
        in ``[0, 1]``), and the pending-pool backlog relative to the active
        rule count (can exceed 1 under a promotion storm).
        """
        coverage_gap = (self.pairs_required - self.pairs_observed) / max(
            1, self.pairs_required)
        violation_mass = self.violation_total / max(
            1, self.support_total + self.violation_total)
        pending_pressure = len(self.deferred_ids) / max(1, len(self.active_ids))
        return coverage_gap + violation_mass + pending_pressure

    # ------------------------------------------------------------------
    # exact (re)initialisation — the cost of one full mine
    # ------------------------------------------------------------------
    def initialize(self, repository: DataRepository) -> List[CDDRule]:
        """Build exact sketches from the repository and regenerate the rules.

        Equivalent to (and interchangeable with) a full
        :func:`~repro.imputation.cdd.discover_cdd_rules` run: the returned
        rule set is identical.  Also used by ``hybrid`` mode as the drift
        escape hatch — it resets every approximation the incremental path
        may have accumulated.
        """
        config = self.config
        schema = self.schema
        samples = repository.samples
        self.samples_seen = len(samples)
        self.band_sketches = {}
        self.groups = {attribute: {} for attribute in schema}
        self.counters = {}
        self.retired_ids = set()
        self.deferred_ids = set()
        self.pairs_required = 0
        self.pairs_observed = 0
        self.support_total = 0
        self.violation_total = 0

        # The band sketches are the full miner's band statistics: one pass
        # of distance columns over the sampled pairs, one mask per band.
        columns = pair_distance_columns(
            repository, _sample_pairs(len(samples), config.max_pairs,
                                      config.seed))
        for determinant in schema:
            for dependent in schema:
                if dependent == determinant:
                    continue
                for band in config.distance_bands:
                    count, low, high = band_range(columns[determinant],
                                                  columns[dependent], band)
                    if count:
                        self.band_sketches[(determinant, dependent, band)] = (
                            RangeStat(count=count, low=low, high=high))

        for index, sample in enumerate(samples):
            for determinant in schema:
                value = sample[determinant]
                group = self.groups[determinant].setdefault(value, GroupState())
                group.member_indices.append(index)
        for determinant in schema:
            for group in self.groups[determinant].values():
                if group.size < 2:
                    continue
                for i, j in itertools.combinations(group.member_indices, 2):
                    left, right = samples[i], samples[j]
                    for dependent in schema:
                        if dependent == determinant:
                            continue
                        stat = group.dep_ranges.setdefault(dependent,
                                                           RangeStat())
                        stat.observe(text_distance(left[dependent],
                                                   right[dependent]))

        self.active_ids = set()
        self.rules = self._regenerate(promote_all=True)
        return self.rules

    # ------------------------------------------------------------------
    # incremental update
    # ------------------------------------------------------------------
    def absorb(self, repository: DataRepository,
               new_samples: Sequence[Record],
               force_full: bool = False) -> MaintenanceReport:
        """Fold newly added repository samples into the maintained rules.

        ``new_samples`` must already be present at the tail of
        ``repository.samples`` (the caller extends the repository first, so
        maintenance always sees the extended ``R``).  Returns the resulting
        rule set plus what happened to it.
        """
        added = list(new_samples)
        old_rules = list(self.rules)
        if force_full or len(repository) != self.samples_seen + len(added):
            # Forced re-mine, or the repository changed behind our back —
            # the sketches can no longer be trusted, resynchronise exactly.
            return self._full_resync(repository, old_rules)

        config = self.config
        schema = self.schema
        samples = repository.samples
        rng = random.Random(config.seed * 1_000_003 + self.samples_seen)

        budget = config.max_update_pairs
        observed = 0  # band/counter pairs, gated by max_update_pairs
        skipped = 0
        required = 0
        group_required_total = 0
        group_observed_total = 0
        rule_index, fallback = self._compile_rule_index()
        for offset, sample in enumerate(added):
            index = self.samples_seen + offset
            required += index
            remaining = budget - observed
            if remaining >= index:
                partner_indices: Sequence[int] = range(index)
            elif remaining > 0:
                partner_indices = sorted(rng.sample(range(index), remaining))
                skipped += index - remaining
            else:
                partner_indices = ()
                skipped += index
            for partner_index in partner_indices:
                partner = samples[partner_index]
                distances = {attribute: text_distance(sample[attribute],
                                                      partner[attribute])
                             for attribute in schema}
                self._observe_band_pair(distances)
                self._observe_rule_pair(sample, partner, distances,
                                        rule_index, fallback)
                observed += 1
            group_required, group_observed = self._observe_group_member(
                sample, index, samples, rng)
            group_required_total += group_required
            group_observed_total += group_observed

        skipped += group_required_total - group_observed_total
        self.samples_seen = len(samples)
        self.pairs_required += required + group_required_total
        self.pairs_observed += observed + group_observed_total

        newly_retired = self._retire_low_confidence()
        previous_active = set(self.active_ids)
        self.rules = self._regenerate()

        old_by_id = {rule.rule_id: rule for rule in old_rules}
        widened_ids: List[str] = []
        for rule in self.rules:
            previous = old_by_id.get(rule.rule_id)
            if previous is None:
                continue
            low, high = rule.dependent_interval
            prev_low, prev_high = previous.dependent_interval
            if low < prev_low - _EPS or high > prev_high + _EPS:
                widened_ids.append(rule.rule_id)
        promoted = sorted(self.active_ids - previous_active)

        drift = self.drift
        if (config.maintenance_mode == MAINTENANCE_HYBRID
                and drift > config.drift_threshold):
            report = self._full_resync(repository, old_rules)
            report.drift = drift
            return report

        return MaintenanceReport(
            rules=self.rules,
            rules_changed=_rule_signature(self.rules) != _rule_signature(old_rules),
            remined=False,
            drift=drift,
            promoted=promoted,
            retired=newly_retired,
            deferred=sorted(self.deferred_ids),
            widened=len(widened_ids),
            widened_ids=widened_ids,
            pairs_observed=observed + group_observed_total,
            pairs_skipped=skipped,
        )

    def _full_resync(self, repository: DataRepository,
                     old_rules: List[CDDRule]) -> MaintenanceReport:
        self.full_resyncs += 1
        rules = self.initialize(repository)
        return MaintenanceReport(
            rules=rules,
            rules_changed=_rule_signature(rules) != _rule_signature(old_rules),
            remined=True,
            drift=0.0,
        )

    # ------------------------------------------------------------------
    # per-pair observation
    # ------------------------------------------------------------------
    def _observe_band_pair(self, distances: Dict[str, float]) -> None:
        """Fold one sample pair's attribute distances into the band sketches."""
        bands = self.config.distance_bands
        for determinant in self.schema:
            det_distance = distances[determinant]
            matching_bands = [band for band in bands
                              if band[0] - _EPS <= det_distance <= band[1] + _EPS]
            if not matching_bands:
                continue
            for dependent in self.schema:
                if dependent == determinant:
                    continue
                dep_distance = distances[dependent]
                for band in matching_bands:
                    stat = self.band_sketches.setdefault(
                        (determinant, dependent, band), RangeStat())
                    stat.observe(dep_distance)

    def _compile_rule_index(self) -> Tuple[Dict[Tuple, List[CDDRule]],
                                           List[CDDRule]]:
        """Index the current rules by their determinant constraint keys.

        Scanning every rule for every update pair is the hot loop of an
        absorb; instead each rule is keyed by the sorted tuple of its
        non-vacuous determinant constraints (``("i", attr, band)`` /
        ``("c", attr, constant)``) so one pair only touches the rules whose
        determinants it actually satisfies.  Rules this scheme cannot key
        (more than two keyed constraints — the miner never emits them) fall
        back to the scan list.
        """
        index: Dict[Tuple, List[CDDRule]] = {}
        fallback: List[CDDRule] = []
        for rule in self.rules:
            keys = []
            for constraint in rule.determinants:
                if constraint.kind == CONSTRAINT_MISSING:
                    continue  # vacuously satisfied — not part of the key
                if constraint.kind == CONSTRAINT_CONSTANT:
                    keys.append(("c", constraint.attribute,
                                 constraint.constant))
                else:
                    keys.append(("i", constraint.attribute,
                                 constraint.interval))
            if len(keys) > 2:
                fallback.append(rule)
            else:
                index.setdefault(tuple(sorted(keys)), []).append(rule)
        return index, fallback

    def _observe_rule_pair(self, left: Record, right: Record,
                           distances: Dict[str, float],
                           rule_index: Dict[Tuple, List[CDDRule]],
                           fallback: Sequence[CDDRule]) -> None:
        """Update support/violation counters of the rules the pair fires."""
        bands = self.config.distance_bands
        satisfied: List[Tuple] = []
        for attribute in self.schema:
            distance = distances[attribute]
            for band in bands:
                if band[0] - _EPS <= distance <= band[1] + _EPS:
                    satisfied.append(("i", attribute, band))
            left_value = left[attribute]
            if left_value == right[attribute]:
                satisfied.append(("c", attribute, left_value))

        fired: List[CDDRule] = list(rule_index.get((), ()))
        for position, key in enumerate(satisfied):
            fired.extend(rule_index.get((key,), ()))
            for other in satisfied[position + 1:]:
                if other[1] == key[1]:
                    continue  # same attribute: cannot co-occur in one rule
                fired.extend(rule_index.get(tuple(sorted((key, other))), ()))
        for rule in fallback:
            if all(constraint.kind == CONSTRAINT_MISSING
                   or constraint.satisfied_by(left[constraint.attribute],
                                              right[constraint.attribute])
                   for constraint in rule.determinants):
                fired.append(rule)

        max_width = self.config.max_dependent_width
        for rule in fired:
            counters = self.counters.setdefault(rule.rule_id, RuleCounters())
            dep_distance = distances[rule.dependent]
            low, high = rule.dependent_interval
            if low - _EPS <= dep_distance <= high + _EPS:
                counters.support += 1
                self.support_total += 1
            elif widen_interval(rule.dependent_interval, dep_distance,
                                max_width) is not None:
                # The sketch absorbs the observation at the next regenerate;
                # a widenable excursion supports the dependency.
                counters.support += 1
                self.support_total += 1
            else:
                counters.violations += 1
                self.violation_total += 1

    def _observe_group_member(self, sample: Record, index: int,
                              samples: Sequence[Record],
                              rng: random.Random) -> Tuple[int, int]:
        """Join one new sample into its constant groups (bounded pairing).

        Returns ``(required, observed)`` group-pair counts so the caller can
        fold the cap-induced coverage gap into the drift estimate — a group
        larger than ``max_group_pairs_per_sample`` is maintained from a
        member subsample, which is exactly the kind of staleness ``hybrid``
        mode must be able to escape from.
        """
        cap = self.config.max_group_pairs_per_sample
        required = 0
        observed = 0
        for determinant in self.schema:
            value = sample[determinant]
            group = self.groups[determinant].setdefault(value, GroupState())
            partners = group.member_indices
            required += len(partners)
            if len(partners) > cap:
                partners = sorted(rng.sample(partners, cap))
            observed += len(partners)
            for partner_index in partners:
                partner = samples[partner_index]
                for dependent in self.schema:
                    if dependent == determinant:
                        continue
                    stat = group.dep_ranges.setdefault(dependent, RangeStat())
                    stat.observe(text_distance(sample[dependent],
                                               partner[dependent]))
            group.member_indices.append(index)
        return required, observed

    def _retire_low_confidence(self) -> List[str]:
        """Retire rules whose observed confidence fell below the floor."""
        config = self.config
        retired: List[str] = []
        for rule_id, counters in self.counters.items():
            if rule_id in self.retired_ids:
                continue
            if (counters.violations >= config.min_support
                    and counters.confidence < config.min_confidence):
                self.retired_ids.add(rule_id)
                retired.append(rule_id)
        return sorted(retired)

    # ------------------------------------------------------------------
    # rule regeneration from the sketches
    # ------------------------------------------------------------------
    def _regenerate(self, promote_all: bool = False,
                    promote: bool = True) -> List[CDDRule]:
        """Rebuild the rule list from the sketches, mirroring the full miner.

        The iteration order (dependents in schema order; per dependent the
        determinants in schema order, interval bands before constant groups,
        combined rules last) and every emission decision replicate
        :func:`~repro.imputation.cdd.discover_cdd_rules` exactly, so exact
        sketches imply an identical rule list.
        """
        config = self.config
        schema = self.schema
        if self.samples_seen < 2:
            self.deferred_ids = set()
            return []

        candidates: List[CDDRule] = []
        dependents_of: Dict[str, List[CDDRule]] = {
            dependent: [] for dependent in schema}
        for dependent in schema:
            for determinant in schema:
                if determinant == dependent:
                    continue
                for band in config.distance_bands:
                    stat = self.band_sketches.get((determinant, dependent, band))
                    if stat is None or stat.count == 0:
                        continue
                    rule = interval_rule_from_band(
                        determinant, dependent, band,
                        support=stat.count, dep_low=stat.low,
                        dep_high=stat.high, config=config)
                    if rule is not None:
                        dependents_of[dependent].append(rule)
                ranked = sorted(self.groups[determinant].items(),
                                key=lambda item: -item[1].size)
                for value, group in ranked[: config.max_constant_conditions]:
                    if group.size < config.min_support:
                        continue
                    stat = group.dep_ranges.get(dependent)
                    if stat is None or stat.count == 0:
                        continue
                    rule = constant_rule_from_group(
                        determinant, value, group.size, dependent,
                        dep_low=stat.low, dep_high=stat.high, config=config)
                    if rule is not None:
                        dependents_of[dependent].append(rule)
            candidates.extend(dependents_of[dependent])

        # Pending-pool promotion: qualifying ids not yet active enter the
        # pool; at most ``pending_pool_size`` (highest support first) are
        # promoted per update, the rest stay pending and count as drift.
        if promote_all:
            self.active_ids = {rule.rule_id for rule in candidates}
            self.deferred_ids = set()
        elif promote:
            pending = [rule for rule in candidates
                       if rule.rule_id not in self.active_ids
                       and rule.rule_id not in self.retired_ids]
            pending.sort(key=lambda rule: -rule.support)
            for rule in pending[: config.pending_pool_size]:
                self.active_ids.add(rule.rule_id)
            self.deferred_ids = {rule.rule_id
                                 for rule in pending[config.pending_pool_size:]}

        rules: List[CDDRule] = []
        for dependent in schema:
            emitted = [rule for rule in dependents_of[dependent]
                       if rule.rule_id in self.active_ids
                       and rule.rule_id not in self.retired_ids]
            rules.extend(emitted)
            if config.combine_determinants:
                singles = [rule for rule in emitted
                           if len(rule.determinants) == 1]
                combined = _combine_rules(singles, dependent, config)
                rules.extend(rule for rule in combined
                             if rule.rule_id not in self.retired_ids)
        return rules

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------
    def state_to_dict(self) -> Dict:
        """JSON-serialisable snapshot of the maintained state.

        The current rules are *not* stored: they are regenerated
        deterministically from the sketches on restore.
        """
        return {
            "samples_seen": self.samples_seen,
            "band_sketches": [
                [determinant, dependent, list(band), stat.as_list()]
                for (determinant, dependent, band), stat
                in sorted(self.band_sketches.items())
            ],
            "groups": {
                determinant: [
                    [value, list(group.member_indices),
                     {dependent: stat.as_list()
                      for dependent, stat in sorted(group.dep_ranges.items())}]
                    for value, group in groups.items()
                ]
                for determinant, groups in self.groups.items()
            },
            "counters": {rule_id: [counters.support, counters.violations]
                         for rule_id, counters in sorted(self.counters.items())},
            "active_ids": sorted(self.active_ids),
            "retired_ids": sorted(self.retired_ids),
            "deferred_ids": sorted(self.deferred_ids),
            "pairs_required": self.pairs_required,
            "pairs_observed": self.pairs_observed,
            "support_total": self.support_total,
            "violation_total": self.violation_total,
            "full_resyncs": self.full_resyncs,
        }

    def restore_state(self, state: Dict) -> List[CDDRule]:
        """Rebuild the maintainer from a :meth:`state_to_dict` snapshot.

        The surrounding engine must hold the same (extended) repository the
        snapshot was taken over — member indices refer into its sample list.
        Returns the regenerated rule set.
        """
        self.samples_seen = int(state.get("samples_seen", 0))
        self.band_sketches = {}
        for determinant, dependent, band, stat in state.get("band_sketches", []):
            key = (determinant, dependent, (float(band[0]), float(band[1])))
            self.band_sketches[key] = RangeStat.from_list(stat)
        self.groups = {attribute: {} for attribute in self.schema}
        for determinant, groups in state.get("groups", {}).items():
            bucket = self.groups.setdefault(determinant, {})
            for value, member_indices, dep_ranges in groups:
                bucket[value] = GroupState(
                    member_indices=[int(index) for index in member_indices],
                    dep_ranges={dependent: RangeStat.from_list(stat)
                                for dependent, stat in dep_ranges.items()},
                )
        self.counters = {
            rule_id: RuleCounters(support=int(pair[0]), violations=int(pair[1]))
            for rule_id, pair in state.get("counters", {}).items()
        }
        self.active_ids = set(state.get("active_ids", []))
        self.retired_ids = set(state.get("retired_ids", []))
        self.deferred_ids = set(state.get("deferred_ids", []))
        self.pairs_required = int(state.get("pairs_required", 0))
        self.pairs_observed = int(state.get("pairs_observed", 0))
        self.support_total = int(state.get("support_total", 0))
        self.violation_total = int(state.get("violation_total", 0))
        self.full_resyncs = int(state.get("full_resyncs", 0))
        # No promotion on restore: the active/deferred sets must stay exactly
        # as snapshotted so the regenerated rules match the checkpoint.
        self.rules = self._regenerate(promote=False)
        return self.rules
