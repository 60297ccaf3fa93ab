"""Logical query plans: the IR between XPath and SQL.

Pipeline: :class:`~repro.plan.planner.Planner` produces a
:class:`~repro.plan.nodes.QueryPlan`, a
:class:`~repro.plan.passes.PassPipeline` optimizes it, and
:func:`~repro.plan.lowering.lower_plan` renders the survivor through a
SQL dialect.  :class:`repro.core.translator.PPFTranslator` is the facade
that wires the three together.
"""

from repro.plan.nodes import (
    AggregateCountCond,
    AndCond,
    DocEqCond,
    ExistsCond,
    FalseCond,
    LevelCond,
    LogicalSelect,
    NameFilterCond,
    NotCond,
    OrCond,
    ParentJoinCond,
    PathFilterCond,
    PathsLinkCond,
    PlanCond,
    PlanUnion,
    QueryPlan,
    RawCond,
    Scan,
    StructuralCond,
    TrueCond,
    contains_false,
    describe_plan,
    iter_conditions,
    iter_selects,
    plan_stats,
)
from repro.plan.passes import (
    DEFAULT_PASS_NAMES,
    PASSES,
    PassContext,
    PassPipeline,
    PassReport,
    fold_plan,
    resolve_pass_names,
)
from repro.plan.lowering import lower_condition, lower_plan, lower_select
from repro.plan.planner import Planner

__all__ = [
    "AggregateCountCond",
    "AndCond",
    "DEFAULT_PASS_NAMES",
    "DocEqCond",
    "ExistsCond",
    "FalseCond",
    "LevelCond",
    "LogicalSelect",
    "NameFilterCond",
    "NotCond",
    "OrCond",
    "PASSES",
    "ParentJoinCond",
    "PassContext",
    "PassPipeline",
    "PassReport",
    "PathFilterCond",
    "PathsLinkCond",
    "PlanCond",
    "PlanUnion",
    "Planner",
    "QueryPlan",
    "RawCond",
    "Scan",
    "StructuralCond",
    "TrueCond",
    "contains_false",
    "describe_plan",
    "fold_plan",
    "iter_conditions",
    "iter_selects",
    "lower_condition",
    "lower_plan",
    "lower_select",
    "plan_stats",
    "resolve_pass_names",
]
