"""The CDD-index ``I_j`` over CDD rules (Section 5.1, Figure 2).

The paper keeps the rules ``X_f → A_j`` of each dependent attribute in
aR-trees over their pivot-converted determinant constraints, one per
determinant set and joined by a lattice, for pruning inside its index join.
Rule selection here checks every rule exactly with
:meth:`CDDRule.applicable_to`, so the index is the dependent's rule list in
mining order and a probe is that check over the list — the scan the
imputer runs without an index (README "The imputation indexes are flat
tables").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.core.tuples import Record
from repro.imputation.cdd import CDDRule, group_rules_by_dependent


class CDDIndex:
    """The CDD rules of one dependent attribute ``A_j``, in mining order."""

    def __init__(self, dependent: str, rules: Sequence[CDDRule]) -> None:
        self.dependent = dependent
        self.rules = [rule for rule in rules if rule.dependent == dependent]

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    def candidate_rules(self, record: Record) -> List[CDDRule]:
        """The rules applicable to ``record``, tightest first.

        :meth:`CDDRule.applicable_to` over the rules in mining order, then a
        stable sort on ``(dependent_width, -support)``: the list
        :meth:`~repro.imputation.imputer.CDDImputer.rules_for` caps.
        """
        candidates = [rule for rule in self.rules
                      if rule.applicable_to(record, self.dependent)]
        candidates.sort(key=lambda rule: (rule.dependent_width, -rule.support))
        return candidates


def build_cdd_indexes(rules: Iterable[CDDRule]) -> Dict[str, CDDIndex]:
    """Build one CDD-index per dependent attribute (``I_j`` for each ``A_j``)."""
    return {
        dependent: CDDIndex(dependent=dependent, rules=dependent_rules)
        for dependent, dependent_rules in group_rules_by_dependent(rules).items()
    }
