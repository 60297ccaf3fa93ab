"""Cardinality estimation over logical plans (the cost model).

Given a :class:`~repro.stats.summary.PathSummary`, the estimator assigns
every scan a base cardinality (exact for path-filtered scans — the
summary holds per-path element counts), then walks the top-level WHERE
conjunction applying one selectivity per join/filter class.  The model
is System-R-flavoured and deliberately small; every formula is listed in
DESIGN.md's "costed decision" table.

Estimates themselves steer *performance* decisions only (join order,
union-branch order, hedge gating) — a wrong estimate can never change
what a query returns.  The summary behind them is another matter: the
``costed-access-strategy`` pass turns its path list into the SQL filter,
so the stores hand out a summary only while it is exact (a stale
summary is no summary; see ``ShreddedStore.path_summary``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.core.pathregex import compile_pattern
from repro.plan.graph import condition_reads
from repro.plan.nodes import (
    AggregateCountCond,
    BoundCond,
    DocEqCond,
    ExistsCond,
    GroupedBound,
    LogicalSelect,
    ParentJoinCond,
    PathFilterCond,
    PathsLinkCond,
    PlanUnion,
    QueryPlan,
    RawCond,
    Scan,
    StructuralCond,
)
from repro.stats.summary import PathSummary

#: Selectivity of a single-alias equality predicate (System R's 1/10).
EQ_SELECTIVITY = 0.1
#: Selectivity of a single-alias range/other predicate (System R's 1/3).
RANGE_SELECTIVITY = 0.3
#: Selectivity of an ``IS NOT NULL`` presence test.
NOTNULL_SELECTIVITY = 0.5
#: Selectivity applied once per EXISTS / aggregate-count predicate.
EXISTS_SELECTIVITY = 0.5

#: Axes where each target row has at most one matching context chain
#: (output ~ card(target), so selectivity is 1/card(context)).
_DOWNWARD_AXES = {"child", "descendant", "descendant-or-self", "self"}
#: Axes where each context row has few matching targets
#: (output ~ card(context), so selectivity is 1/card(target)).
_UPWARD_AXES = {"parent", "ancestor", "ancestor-or-self"}


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated result cardinality of a whole plan."""

    total_rows: float
    #: One estimate per top-level branch, in branch order.
    branch_rows: tuple[float, ...]


class CardinalityEstimator:
    """Estimates row counts for plan nodes from a path summary."""

    def __init__(self, summary: PathSummary):
        self.summary = summary

    # -- path filters -------------------------------------------------------

    @staticmethod
    def _regex(cond: PathFilterCond) -> str:
        return compile_pattern(list(cond.pattern), cond.anchored)

    def filter_rows(self, cond: PathFilterCond) -> float:
        """Element rows satisfying one path filter (exact per-path
        counts for equality/IN, summed matches for a regex)."""
        literals = cond.literal_paths()
        if literals is not None:
            return float(sum(self.summary.count_for(p) for p in literals))
        return float(self.summary.count_matching(self._regex(cond)))

    def filter_paths(self, cond: PathFilterCond) -> float:
        """`Paths` rows satisfying one path filter."""
        literals = cond.literal_paths()
        if literals is None:
            literals = self.summary.matching_paths(self._regex(cond))
        return float(len(literals))

    # -- scans --------------------------------------------------------------

    def scan_rows(self, select: LogicalSelect, scan: Scan) -> float:
        """Base cardinality of one scan after its local predicates."""
        parts = select.where.parts
        if isinstance(scan, GroupedBound):
            # One row per group: per document, or per parent (at most
            # one per context row).
            rows = self.select_rows(scan.body)
            if scan.axis.endswith("sibling"):
                return rows
            return min(rows, float(max(self.summary.document_count, 1)))
        if scan.is_paths:
            for part in parts:
                if (
                    isinstance(part, PathFilterCond)
                    and part.paths_alias == scan.alias
                ):
                    return max(self.filter_paths(part), 0.0)
            return float(max(self.summary.path_count, 1))
        base: Optional[float] = None
        for part in parts:
            if isinstance(part, PathFilterCond) and part.alias == scan.alias:
                base = self.filter_rows(part)
                break
        if base is None:
            known = self.summary.relation_count_for(scan.table)
            base = float(
                known
                if known is not None
                else max(self.summary.total_elements, 1)
            )
        selectivity = 1.0
        for part in parts:
            if not isinstance(part, RawCond):
                continue
            if condition_reads(part) != {scan.alias}:
                continue
            if "IS NOT NULL" in part.sql:
                selectivity *= NOTNULL_SELECTIVITY
            elif re.search(r"(?<![<>])=", part.sql):
                selectivity *= EQ_SELECTIVITY
            else:
                selectivity *= RANGE_SELECTIVITY
        return max(base * selectivity, 0.0)

    # -- selects ------------------------------------------------------------

    def select_rows(self, select: LogicalSelect) -> float:
        """Estimated output rows of one branch / sub-select body."""
        rows = {
            scan.alias: self.scan_rows(select, scan)
            for scan in select.scans
        }
        estimate = 1.0
        for value in rows.values():
            estimate *= value
        joined: set[frozenset[str]] = set()

        def card(alias: str) -> float:
            return max(rows.get(alias, 1.0), 1.0)

        for part in select.where.parts:
            if isinstance(part, PathsLinkCond):
                if part.paths_alias in rows:
                    estimate /= card(part.paths_alias)
                joined.add(
                    frozenset((part.owner_alias, part.paths_alias))
                )
            elif isinstance(part, StructuralCond):
                context = part.context_alias
                target = part.target_alias
                if part.axis in _DOWNWARD_AXES:
                    estimate /= card(context)
                elif part.axis in _UPWARD_AXES:
                    estimate /= card(target)
                else:  # order axes: same-document pairs, halved
                    estimate *= 0.5 / max(
                        self.summary.document_count, 1
                    )
                joined.add(frozenset((context, target)))
            elif isinstance(part, ParentJoinCond):
                parent = part.parent_alias
                if parent in rows:
                    estimate /= card(parent)
                joined.add(frozenset((part.child_alias, parent)))
            elif isinstance(part, BoundCond):
                # Each target meets at most its group's bound row, and
                # lies on the axis side of it about half the time; a
                # sibling bound reaches the targets of its parents only.
                bound = card(part.bound_alias)
                target = card(part.target_alias)
                if part.axis.endswith("sibling"):
                    estimate *= 0.5 * min(bound, target) / (bound * target)
                else:
                    estimate *= 0.5 / bound
                joined.add(frozenset((part.bound_alias, part.target_alias)))
            elif isinstance(part, DocEqCond):
                pair = frozenset((part.left_alias, part.right_alias))
                if pair not in joined and len(pair) == 2:
                    estimate /= max(self.summary.document_count, 1)
                joined.add(pair)
            elif isinstance(part, (ExistsCond, AggregateCountCond)):
                estimate *= EXISTS_SELECTIVITY
        return max(estimate, 0.0)

    # -- plans --------------------------------------------------------------

    def estimate_plan(self, plan: QueryPlan) -> PlanEstimate:
        """Per-branch and total row estimates for a whole plan."""
        if plan.root is None:
            return PlanEstimate(total_rows=0.0, branch_rows=())
        branches = (
            list(plan.root.branches)
            if isinstance(plan.root, PlanUnion)
            else [plan.root]
        )
        branch_rows = tuple(self.select_rows(b) for b in branches)
        return PlanEstimate(
            total_rows=sum(branch_rows), branch_rows=branch_rows
        )
