"""The CDD-index ``I_j`` over CDD rules (Section 5.1, Figure 2).

For every dependent attribute ``A_j`` the index groups the rules
``X_f → A_j`` by determinant attribute set, in first-appearance order, and
keeps one R-tree per group indexing each rule's determinant constraints in
the pivot-converted space: constant constraints become the Jaccard distance
of the constant to the attribute's main pivot, interval constraints keep
their interval, and missing attributes are encoded as ``[-1, -1]``
(excluded from pruning).

The paper's Figure 2 adds a lattice of combined rules over the groups and
node aggregates (dependent intervals, constants' auxiliary-pivot
distances) for pruning inside its index join.  Rule selection here filters
on the trees' rectangles alone and then checks every returned rule
exactly, so neither is kept.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.similarity import text_distance
from repro.core.tuples import Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
    CDDRule,
    group_rules_by_dependent,
)
from repro.indexes.artree import ARTree, Rect
from repro.indexes.pivots import PivotTable

#: Coordinate used for the "missing attribute" constraint in the converted
#: space; it is outside [0, 1] so it never interferes with real constraints.
MISSING_COORDINATE = -1.0


class CDDIndex:
    """Index over the CDD rules of one dependent attribute ``A_j``."""

    def __init__(self, dependent: str, rules: Sequence[CDDRule], schema: Schema,
                 pivots: PivotTable, max_entries: int = 8) -> None:
        self.dependent = dependent
        self.schema = schema
        self.pivots = pivots
        self.rules = [rule for rule in rules if rule.dependent == dependent]
        self._trees: Dict[Tuple[str, ...], ARTree] = {}
        self._max_entries = max_entries
        #: Tree nodes visited by :meth:`candidate_rules`, over all calls.
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
        """One bulk-loaded R-tree per determinant set, in group
        first-appearance order (the order :meth:`candidate_rules` walks)."""
        for key, own_rules in self._group_in_order(self.rules).items():
            tree = ARTree(dimensions=len(key), max_entries=self._max_entries)
            tree.bulk_load((self._rule_rect(rule, key), rule)
                           for rule in own_rules)
            self._trees[key] = tree

    # -- statistics --------------------------------------------------------------
    @property
    def rule_count(self) -> int:
        return len(self.rules)

    @property
    def group_count(self) -> int:
        return len(self._trees)

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

        The R-trees are traversed top-down; a node is pruned when, on some
        dimension, its MBR holds only constant constraints (degenerate
        coordinates) that cannot equal the record's converted coordinate.
        Interval constraints always pass the index test and are verified
        exactly afterwards.  The returned rules are then filtered with the
        exact :meth:`CDDRule.applicable_to` check, so no false positives
        escape; the index only avoids scanning obviously irrelevant rules.
        """
        candidates: List[CDDRule] = []
        for key, tree in self._trees.items():
            coordinates = self._record_coordinates(record, key)
            if any(coordinate is None for coordinate in coordinates):
                # A determinant attribute is missing in the record: the
                # group's rules cannot be evaluated, skip the whole tree.
                continue

            def node_filter(rect: Rect, coords=coordinates) -> bool:
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
