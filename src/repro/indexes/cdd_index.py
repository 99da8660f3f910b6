"""The CDD-index ``I_j`` over CDD rules (Section 5.1, Figure 2).

For every dependent attribute ``A_j`` the index organises the rules
``X_f → A_j`` into

* a **lattice** whose Level-1 nodes group the rules by determinant attribute
  set and whose higher levels hold combined rules (unions of determinant
  sets) with merged dependent intervals — these coarse combined rules seed
  the index join with wide query ranges that are tightened while descending;
* per-group **aR-trees** indexing each rule's determinant constraints in the
  pivot-converted space: constant constraints become the Jaccard distance of
  the constant to the attribute's main pivot, interval constraints keep their
  interval, and missing attributes are encoded as ``[-1, -1]`` (excluded from
  pruning).  Leaf aggregates carry the rule's dependent interval and the
  distances of constants to the auxiliary pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.similarity import text_distance
from repro.core.tuples import Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
    CDDRule,
    group_rules_by_dependent,
)
from repro.indexes.artree import Aggregator, ARTree, Rect
from repro.indexes.pivots import PivotTable

#: Coordinate used for the "missing attribute" constraint in the converted
#: space; it is outside [0, 1] so it never interferes with real constraints.
MISSING_COORDINATE = -1.0


@dataclass(frozen=True)
class CDDLeafAggregate:
    """Leaf aggregate of the CDD-index aR-tree.

    * ``dependent_interval`` — the rule's ``A_j.I``;
    * ``auxiliary_distances`` — per determinant attribute, the distance of a
      constant constraint to the auxiliary pivots (empty for interval
      constraints).
    """

    dependent_interval: Tuple[float, float]
    auxiliary_distances: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()


@dataclass(frozen=True)
class CDDNodeAggregate:
    """Non-leaf aggregate: the minimal interval bounding all dependent intervals."""

    dependent_interval: Tuple[float, float]


def _merge_aggregates(left, right):
    """Merge two (leaf or node) aggregates into a bounding node aggregate."""
    low = min(left.dependent_interval[0], right.dependent_interval[0])
    high = max(left.dependent_interval[1], right.dependent_interval[1])
    return CDDNodeAggregate(dependent_interval=(low, high))


@dataclass
class LatticeNode:
    """One node of the CDD-index lattice: a determinant attribute set."""

    attributes: Tuple[str, ...]
    level: int
    rules: List[CDDRule] = field(default_factory=list)
    combined_interval: Tuple[float, float] = (0.0, 1.0)

    def recompute_interval(self) -> None:
        """Minimal interval bounding the dependent intervals of the node's rules."""
        if not self.rules:
            self.combined_interval = (0.0, 1.0)
            return
        low = min(rule.dependent_interval[0] for rule in self.rules)
        high = max(rule.dependent_interval[1] for rule in self.rules)
        self.combined_interval = (low, high)


class CDDIndex:
    """Index over the CDD rules of one dependent attribute ``A_j``."""

    def __init__(self, dependent: str, rules: Sequence[CDDRule], schema: Schema,
                 pivots: PivotTable, max_entries: int = 8) -> None:
        self.dependent = dependent
        self.schema = schema
        self.pivots = pivots
        self.rules = [rule for rule in rules if rule.dependent == dependent]
        self.lattice: Dict[Tuple[str, ...], LatticeNode] = {}
        self._trees: Dict[Tuple[str, ...], ARTree] = {}
        self._max_entries = max_entries
        self._aggregator = Aggregator(
            from_payload=lambda rect, payload: self._leaf_aggregate(payload),
            merge=_merge_aggregates,
        )
        self.nodes_visited = 0
        self._build()

    # -- construction ----------------------------------------------------------
    def _rule_rect(self, rule: CDDRule, attributes: Tuple[str, ...]) -> Rect:
        """Encode one rule's determinant constraints as a rectangle."""
        intervals: List[Tuple[float, float]] = []
        for attribute in attributes:
            constraint = rule.constraint_for(attribute)
            if constraint is None:
                intervals.append((MISSING_COORDINATE, MISSING_COORDINATE))
            elif constraint.kind == CONSTRAINT_CONSTANT:
                assert constraint.constant is not None
                coordinate = self.pivots.pivot_distances(
                    attribute, constraint.constant)[0]
                intervals.append((coordinate, coordinate))
            elif constraint.kind == CONSTRAINT_INTERVAL:
                intervals.append(constraint.interval)
            else:
                intervals.append((MISSING_COORDINATE, MISSING_COORDINATE))
        return Rect.from_intervals(intervals)

    def _leaf_aggregate(self, rule: CDDRule) -> CDDLeafAggregate:
        auxiliary: List[Tuple[str, Tuple[float, ...]]] = []
        for constraint in rule.determinants:
            if constraint.kind == CONSTRAINT_CONSTANT and constraint.constant:
                distances = self.pivots.pivot_distances(
                    constraint.attribute, constraint.constant)[1:]
                auxiliary.append((constraint.attribute, distances))
        return CDDLeafAggregate(dependent_interval=rule.dependent_interval,
                                auxiliary_distances=tuple(auxiliary))

    @staticmethod
    def _group_in_order(rules: Sequence[CDDRule]
                        ) -> Dict[Tuple[str, ...], List[CDDRule]]:
        """Rules per determinant attribute set, keys in first-appearance order."""
        groups: Dict[Tuple[str, ...], List[CDDRule]] = {}
        for rule in rules:
            key = tuple(sorted(rule.determinant_attributes))
            groups.setdefault(key, []).append(rule)
        return groups

    def _build(self) -> None:
        """Lattice plus one bulk-loaded aR-tree per determinant set.

        Level-1 nodes appear in group first-appearance order; when the
        groups span more than one determinant set, a synthetic top-level
        union node over all rules is appended — unless some group already
        covers exactly the union attribute set.
        """
        groups = self._group_in_order(self.rules)
        for key, own_rules in groups.items():
            node = LatticeNode(attributes=key, level=len(key),
                               rules=list(own_rules))
            node.recompute_interval()
            self.lattice[key] = node
            tree = ARTree(dimensions=len(key), max_entries=self._max_entries,
                          aggregator=self._aggregator)
            tree.bulk_load((self._rule_rect(rule, key), rule)
                           for rule in own_rules)
            if len(tree):
                self._trees[key] = tree
        if len(groups) > 1:
            union_attributes = tuple(sorted({
                attribute for key in groups for attribute in key}))
            if union_attributes not in self.lattice:
                top = LatticeNode(attributes=union_attributes,
                                  level=len(union_attributes),
                                  rules=list(self.rules))
                top.recompute_interval()
                self.lattice[union_attributes] = top

    # -- statistics --------------------------------------------------------------
    @property
    def rule_count(self) -> int:
        return len(self.rules)

    @property
    def group_count(self) -> int:
        return len(self._trees)

    def lattice_levels(self) -> Dict[int, List[LatticeNode]]:
        """Lattice nodes grouped by level (Figure 2 layout)."""
        levels: Dict[int, List[LatticeNode]] = {}
        for node in self.lattice.values():
            levels.setdefault(node.level, []).append(node)
        return levels

    def combined_dependent_interval(self) -> Tuple[float, float]:
        """Coarsest dependent interval over all rules (root of the lattice)."""
        if not self.rules:
            return (0.0, 1.0)
        low = min(rule.dependent_interval[0] for rule in self.rules)
        high = max(rule.dependent_interval[1] for rule in self.rules)
        return low, high

    # -- queries ------------------------------------------------------------------
    def _record_coordinates(self, record: Record,
                            attributes: Tuple[str, ...]) -> List[Optional[float]]:
        """Main-pivot coordinates of the record on the group's attributes."""
        coordinates: List[Optional[float]] = []
        for attribute in attributes:
            value = record[attribute]
            if value is None:
                coordinates.append(None)
            else:
                coordinates.append(
                    text_distance(value, self.pivots.main_pivot(attribute)))
        return coordinates

    def candidate_rules(self, record: Record,
                        tolerance: float = 1e-6) -> List[CDDRule]:
        """Rules whose indexed constraints may apply to ``record``.

        The aR-trees are traversed top-down; a node is pruned when, on some
        dimension, its MBR holds only constant constraints (degenerate
        coordinates) that cannot equal the record's converted coordinate.
        Interval constraints always pass the index test and are verified
        exactly afterwards.  The returned rules are then filtered with the
        exact :meth:`CDDRule.applicable_to` check, so no false positives
        escape; the index only avoids scanning obviously irrelevant rules.
        """
        self.nodes_visited = 0
        candidates: List[CDDRule] = []
        for key, tree in self._trees.items():
            coordinates = self._record_coordinates(record, key)
            if any(coordinate is None for coordinate in coordinates):
                # A determinant attribute is missing in the record: the
                # group's rules cannot be evaluated, skip the whole tree.
                continue

            def node_filter(rect: Rect, aggregate, coords=coordinates) -> bool:
                for dim, coordinate in enumerate(coords):
                    low = rect.mins[dim]
                    high = rect.maxs[dim]
                    if low == high and low >= 0.0:
                        # All entries below use (or bound) a degenerate
                        # constant coordinate on this dimension.
                        if abs(coordinate - low) > tolerance and low != MISSING_COORDINATE:
                            # Cannot prune purely on equality unless the MBR
                            # is degenerate AND the record coordinate differs.
                            return False
                return True

            entries, visited = tree.traverse(node_filter)
            self.nodes_visited += visited
            for entry in entries:
                rule: CDDRule = entry.payload
                if rule.applicable_to(record, self.dependent):
                    candidates.append(rule)
        # Tightest rules first, mirroring the imputer's preference.
        candidates.sort(key=lambda rule: (rule.dependent_width, -rule.support))
        return candidates


def build_cdd_indexes(rules: Iterable[CDDRule], schema: Schema,
                      pivots: PivotTable, max_entries: int = 8) -> Dict[str, CDDIndex]:
    """Build one CDD-index per dependent attribute (``I_j`` for each ``A_j``)."""
    grouped = group_rules_by_dependent(rules)
    return {
        dependent: CDDIndex(dependent=dependent, rules=dependent_rules,
                            schema=schema, pivots=pivots, max_entries=max_entries)
        for dependent, dependent_rules in grouped.items()
    }
