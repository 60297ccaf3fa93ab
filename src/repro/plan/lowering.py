"""Lowering: logical plan → SQL statement AST, through a dialect.

This is the only place where plan nodes turn into SQL text fragments.
Everything backend-specific — regex call shape, literal quoting, Dewey
comparisons — is delegated to the
:class:`~repro.sqlgen.dialect.AnsiDialect` passed in, so a plan lowers
unchanged against any dialect.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.pathregex import compile_pattern
from repro.plan.nodes import (
    AggregateCountCond,
    AndCond,
    BoundCond,
    DocEqCond,
    ExistsCond,
    FalseCond,
    GroupedBound,
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
    StructuralCond,
    TrueCond,
)
from repro.sqlgen.ast import (
    And,
    Condition,
    DerivedTable,
    Exists,
    Not,
    Or,
    Raw,
    SelectStatement,
    UnionStatement,
)
from repro.sqlgen.dialect import DEFAULT_DIALECT, AnsiDialect
from repro.sqlgen.render import render_statement


def lower_condition(
    condition: PlanCond, dialect: AnsiDialect
) -> Condition:
    """Render one logical condition to a SQL AST condition."""
    if isinstance(condition, TrueCond):
        return Raw("1=1")
    if isinstance(condition, FalseCond):
        return Raw("1=0")
    if isinstance(condition, RawCond):
        return Raw(condition.sql)
    if isinstance(condition, AndCond):
        conjunction = And()
        for part in condition.parts:
            conjunction.add(lower_condition(part, dialect))
        return conjunction
    if isinstance(condition, OrCond):
        disjunction = Or()
        for part in condition.parts:
            disjunction.add(lower_condition(part, dialect))
        return disjunction
    if isinstance(condition, NotCond):
        return Not(lower_condition(condition.operand, dialect))
    if isinstance(condition, ExistsCond):
        return Exists(lower_select(condition.subplan, dialect))
    if isinstance(condition, PathFilterCond):
        # A resolved filter tests the owner's path_id; only the regex
        # has to read the `Paths` row the plan joins for it.
        if condition.mode == "equality":
            assert condition.literal is not None
            return Raw(
                dialect.path_equality(condition.alias, condition.literal)
            )
        if condition.mode == "in":
            assert condition.literals
            return Raw(
                dialect.path_membership(condition.alias, condition.literals)
            )
        pattern = compile_pattern(
            list(condition.pattern), condition.anchored
        )
        return Raw(
            dialect.regexp_match(f"{condition.paths_alias}.path", pattern)
        )
    if isinstance(condition, PathsLinkCond):
        return Raw(
            f"{condition.owner_alias}.path_id = {condition.paths_alias}.id"
        )
    if isinstance(condition, ParentJoinCond):
        child, parent = condition.child_alias, condition.parent_alias
        if condition.upward:
            return Raw(f"{parent}.id = {child}.par_id")
        return Raw(f"{child}.par_id = {parent}.id")
    if isinstance(condition, NameFilterCond):
        column = f"{condition.alias}.{condition.column}"
        if len(condition.names) == 1:
            return Raw(
                f"{column} = {dialect.string_literal(condition.names[0])}"
            )
        rendered = ", ".join(
            dialect.string_literal(n) for n in condition.names
        )
        return Raw(f"{column} IN ({rendered})")
    if isinstance(condition, StructuralCond):
        return Raw(
            dialect.dewey_axis_condition(
                condition.axis,
                condition.context_alias,
                condition.target_alias,
            )
        )
    if isinstance(condition, BoundCond):
        return Raw(
            dialect.bound_condition(
                condition.axis, condition.bound_alias, condition.target_alias
            )
        )
    if isinstance(condition, DocEqCond):
        return Raw(
            dialect.doc_equality(condition.left_alias, condition.right_alias)
        )
    if isinstance(condition, LevelCond):
        level = dialect.dewey_level(condition.alias)
        if condition.base_alias is None:
            return Raw(f"{level} {condition.sign} {condition.offset}")
        base = dialect.dewey_level(condition.base_alias)
        op = "-" if condition.negative else "+"
        return Raw(f"{level} {condition.sign} {base} {op} {condition.offset}")
    if isinstance(condition, AggregateCountCond):
        counts = [
            "(" + render_statement(lower_select(sub, dialect)) + ")"
            for sub in condition.subplans
        ]
        total = " + ".join(counts) if counts else "0"
        if condition.offset:
            total = f"{total} + {condition.offset}"
        value = dialect.number_literal(condition.value)
        return Raw(f"({total}) {condition.op} {value}")
    raise TypeError(f"unknown plan condition {condition!r}")


def lower_select(
    select: LogicalSelect, dialect: AnsiDialect
) -> SelectStatement:
    """Render one logical select (branch or sub-select body)."""
    statement = SelectStatement(
        columns=list(select.columns),
        distinct=select.distinct,
        order_by=list(select.order_by),
    )
    for scan in select.scans:
        if isinstance(scan, GroupedBound):
            statement.tables.append(
                DerivedTable(lower_bound(scan, dialect), scan.alias)
            )
        else:
            statement.add_table(scan.table, scan.alias)
    for part in select.where.parts:
        statement.where.add(lower_condition(part, dialect))
    return statement


def lower_bound(bound: GroupedBound, dialect: AnsiDialect) -> SelectStatement:
    """The body of a grouped bound: its select, projecting the group key
    and the aggregate (``bound``), grouped by the key."""
    statement = lower_select(bound.body, dialect)
    key, aggregate = dialect.grouped_bound(bound.axis, bound.context_alias)
    column = f"{bound.context_alias}.{key}"
    statement.columns = [f"{column} AS {key}", f"{aggregate} AS bound"]
    statement.group_by = [column]
    return statement


def lower_plan(
    plan: QueryPlan, dialect: Optional[AnsiDialect] = None
) -> Union[SelectStatement, UnionStatement, None]:
    """Render a whole plan; ``None`` for statically empty plans."""
    if dialect is None:
        dialect = DEFAULT_DIALECT
    if plan.root is None:
        return None
    if isinstance(plan.root, PlanUnion):
        branches = []
        for branch in plan.root.branches:
            statement = lower_select(branch, dialect)
            # SQLite rejects ORDER BY on individual UNION arms; the
            # union-level ordering is the only one that matters.
            statement.order_by = []
            branches.append(statement)
        return UnionStatement(
            branches=branches,
            order_by=list(plan.root.order_by),
            all=plan.root.all,
        )
    return lower_select(plan.root, dialect)
