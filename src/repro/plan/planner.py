"""XPath → logical plan (paper Algorithm 1 + Sections 4.3–4.4).

The planner walks the backbone's PPFs in order, gradually building a
:class:`~repro.plan.nodes.LogicalSelect` per *branch*.  A prominent step
that maps to several relations forks the branch — the paper's *SQL
splitting* (Section 4.4) — producing a :class:`~repro.plan.nodes.
PlanUnion`; inside predicates the same fork becomes a disjunction of
``EXISTS`` sub-plans (Table 6).

The planner follows Algorithm 1 *literally*: every forward PPF joins its
prominent relation to `Paths` with a :class:`~repro.plan.nodes.
PathFilterCond` over the maximal forward path, backward PPFs put the
(reversed) pattern on the previous fragment's path, and order-axis PPFs
filter the path's last label.  Deciding that a filter is redundant (the
Section 4.5 marking) is *not* the planner's job — that is the
``paths-join-elimination`` optimizer pass.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.core.fragments import (
    PPF,
    PPFKind,
    SplitBackbone,
    split_backbone,
)
from repro.core.pathregex import (
    PatternStep,
    backward_to_forward,
    pattern_of_steps,
)
from repro.errors import UnsupportedXPathError
from repro.plan.nodes import (
    DOCUMENT_ORDER,
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
    StructuralCond,
    TrueCond,
    contains_false,
)
from repro.sqlgen.render import (
    number_literal,
    parameter_sql,
    string_literal,
)
from repro.xpath.ast import (
    AndExpr,
    ArithmeticExpr,
    Comparison,
    FunctionCall,
    LocationPath,
    NameTest,
    NotExpr,
    NumberLiteral,
    OrExpr,
    Parameter,
    PathExpr,
    Step,
    StringLiteral,
    TextTest,
    UnionExpr,
    XPathExpr,
)
from repro.xpath.axes import Axis

if TYPE_CHECKING:
    from repro.core.adapters import Candidate, StoreAdapter

_SQL_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


class NotLiftable(Exception):
    """Planning a template needed the *value* of a parameter: the plan
    would differ from one constant to the next (a positional ``[2]``,
    arithmetic the planner folds, ``count(p) > 2``, a literal compared
    with a literal, a bare string's truth), so the expression has to be
    planned with its literals in place."""


@dataclass
class _Branch:
    """One in-progress branch during backbone processing."""

    stmt: LogicalSelect
    ctx_alias: Optional[str] = None
    ctx_candidate: Optional["Candidate"] = None
    #: Root-anchored pattern ending at the context (None when unknown).
    ctx_pattern: Optional[list[PatternStep]] = None
    #: alias -> its `Paths` alias, for filter reuse.
    paths_aliases: dict[str, str] = field(default_factory=dict)

    def clone(self) -> "_Branch":
        """Deep-copy the statement; share nothing mutable."""
        return _Branch(
            stmt=copy.deepcopy(self.stmt),
            ctx_alias=self.ctx_alias,
            ctx_candidate=self.ctx_candidate,
            ctx_pattern=list(self.ctx_pattern)
            if self.ctx_pattern is not None
            else None,
            paths_aliases=dict(self.paths_aliases),
        )


class Planner:
    """Compiles XPath ASTs to :class:`QueryPlan`s over one adapter."""

    def __init__(
        self,
        adapter: "StoreAdapter",
        prefer_fk_joins: bool = True,
        split_every_step: bool = False,
        use_path_index: bool = True,
    ) -> None:
        self.adapter = adapter
        #: Section 4.2: foreign-key equijoins for single-step
        #: child/parent PPFs; False forces Dewey theta-joins everywhere.
        self.prefer_fk_joins = prefer_fk_joins
        #: Conventional per-step translation (the Section 4.4 strawman).
        self.split_every_step = split_every_step
        #: When False, the `Paths` relation is never touched.
        self.use_path_index = use_path_index
        self._used_aliases: set[str] = set()
        self._like_slots: dict[int, str] = {}
        self._planning = threading.Lock()

    # -- public API ----------------------------------------------------------

    def plan(self, ast: XPathExpr, text: str) -> QueryPlan:
        """Plan ``ast``; raises on unsupported features.

        :raises UnsupportedXPathError: for features outside the SQL
            subset (positional predicates on steps other than child and
            the ordering axes, standalone arithmetic results).
        :raises TranslationError: when no relation can host a step.
        :raises NotLiftable: when ``ast`` holds a
            :class:`~repro.xpath.ast.Parameter` where the plan depends
            on the value.
        """
        # The aliases handed out and the LIKE slots seen are per-plan
        # state kept on the instance: one plan at a time.
        with self._planning:
            self._used_aliases = set()
            self._like_slots = {}
            plan = self._plan(ast, text)
            plan.like_slots = self._like_slots
            return plan

    def _plan(self, ast: XPathExpr, text: str) -> QueryPlan:
        if isinstance(ast, UnionExpr):
            selects: list[LogicalSelect] = []
            projections: set[str] = set()
            for branch_expr in ast.branches:
                if not isinstance(branch_expr, PathExpr):
                    raise UnsupportedXPathError(
                        "only unions of location paths are supported"
                    )
                branch_selects, projection = self._plan_location_path(
                    branch_expr.path
                )
                selects.extend(branch_selects)
                projections.add(projection)
            if len(projections) > 1:
                raise UnsupportedXPathError(
                    "union branches must project the same kind of result"
                )
            projection = projections.pop() if projections else "nodes"
            return QueryPlan(self._combine(selects), projection, text)
        if isinstance(ast, PathExpr):
            selects, projection = self._plan_location_path(ast.path)
            return QueryPlan(self._combine(selects), projection, text)
        raise UnsupportedXPathError(
            "top-level expression must be a location path or a union"
        )

    def _combine(
        self, selects: list[LogicalSelect]
    ) -> Union[LogicalSelect, PlanUnion, None]:
        if not selects:
            return None
        if len(selects) == 1:
            return selects[0]
        return PlanUnion(branches=selects, order_by=list(DOCUMENT_ORDER))

    # -- backbone ------------------------------------------------------------

    def _plan_location_path(
        self, path: LocationPath
    ) -> tuple[list[LogicalSelect], str]:
        if not path.absolute:
            # A top-level relative path is evaluated from the document
            # node, i.e. exactly like its absolute form.
            path = LocationPath(absolute=True, steps=path.steps)
        split = split_backbone(path)
        if self.split_every_step:
            _explode_split(split)
        branches = [_Branch(LogicalSelect(distinct=True))]
        for ppf in split.ppfs:
            branches = [
                forked
                for branch in branches
                for forked in self._apply_ppf(branch, ppf)
            ]
            if not branches:
                return [], self._projection_kind(split)
        projection = self._projection_kind(split)
        selects: list[LogicalSelect] = []
        for branch in branches:
            if self._finish_projection(branch, split):
                selects.append(branch.stmt)
        return selects, projection

    @staticmethod
    def _projection_kind(split: SplitBackbone) -> str:
        if split.text_projection:
            return "text"
        if split.attribute_projection is not None:
            return "attribute"
        return "nodes"

    def _finish_projection(
        self, branch: _Branch, split: SplitBackbone
    ) -> bool:
        alias = branch.ctx_alias
        candidate = branch.ctx_candidate
        assert alias is not None and candidate is not None
        columns = [
            f"{alias}.id AS id",
            f"{alias}.doc_id AS doc_id",
            f"{alias}.dewey_pos AS dewey_pos",
        ]
        if split.text_projection:
            value = self.adapter.text_expr(candidate, alias, numeric=False)
            if value is None:
                return False
            branch.stmt.where.add(RawCond(f"{value} IS NOT NULL"))
            columns.append(f"{value} AS value")
        elif split.attribute_projection is not None:
            value = self.adapter.attr_expr(
                candidate, alias, split.attribute_projection, numeric=False
            )
            if value is None:
                return False
            for predicate in split.attribute_predicates:
                branch.stmt.where.add(
                    self._predicate_condition(branch, predicate)
                )
            branch.stmt.where.add(RawCond(f"{value} IS NOT NULL"))
            columns.append(f"{value} AS value")
        branch.stmt.columns = columns
        branch.stmt.order_by = list(DOCUMENT_ORDER)
        return not contains_false(branch.stmt.where)

    # -- one PPF -------------------------------------------------------------

    def _apply_ppf(self, branch: _Branch, ppf: PPF) -> list[_Branch]:
        ctx_names = (
            branch.ctx_candidate.names
            if branch.ctx_candidate is not None
            else None
        )
        first = branch.ctx_alias is None

        pattern: Optional[list[PatternStep]]
        if ppf.kind is PPFKind.FORWARD:
            pattern = pattern_of_steps(ppf.steps)
            from_root = first  # top-level paths always start at the root
            names = self.adapter.forward_names(
                pattern,
                ctx_names if not from_root else None,
                anchored=from_root,
            )
        elif ppf.kind is PPFKind.BACKWARD:
            if first:
                raise UnsupportedXPathError(
                    "a path cannot start with a backward axis at the root"
                )
            pattern = None
            names = self.adapter.backward_names(ppf.steps, ctx_names)
        else:  # ORDER
            if first:
                raise UnsupportedXPathError(
                    "a path cannot start with an order axis at the root"
                )
            pattern = None
            names = self.adapter.order_names(ppf.prominent_step, ctx_names)

        if names is not None and not names:
            return []

        prominent_name = _concrete_name(ppf.prominent_step)
        candidates = self.adapter.candidates(names, prominent_name)
        if not candidates:
            return []

        forked: list[_Branch] = []
        for index, candidate in enumerate(candidates):
            target = branch if index == len(candidates) - 1 else branch.clone()
            if self._emit_ppf(target, ppf, candidate, pattern):
                forked.append(target)
        return forked

    def _emit_ppf(
        self,
        branch: _Branch,
        ppf: PPF,
        candidate: "Candidate",
        pattern: Optional[list[PatternStep]],
    ) -> bool:
        """Apply one PPF/candidate pair to ``branch``; False kills it."""
        alias = self._fresh_alias(candidate.table)
        branch.stmt.add_scan(candidate.table, alias)
        self._add_name_filter(branch.stmt, candidate, alias)

        new_pattern: Optional[list[PatternStep]] = None
        if not self.use_path_index:
            # Naive per-step mode: no `Paths` joins at all.  Single-step
            # fragments stay exact because each join pins one level and
            # the relation pins the name; the only missing constraint is
            # the root level of the first fragment.
            if ppf.kind is PPFKind.FORWARD and branch.ctx_alias is None:
                minimum, exact = ppf.level_offset()
                sign = "=" if exact else ">="
                branch.stmt.where.add(
                    LevelCond(alias, sign, 3 * minimum)
                )
        elif ppf.kind is PPFKind.FORWARD:
            assert pattern is not None
            if ppf.anchored:
                full = (branch.ctx_pattern or []) + pattern
                anchored = True
            else:
                full = pattern
                anchored = False
            self._add_path_filter(branch, alias, candidate, full, anchored)
            new_pattern = full if anchored else None
        elif ppf.kind is PPFKind.BACKWARD:
            assert branch.ctx_alias is not None
            assert branch.ctx_candidate is not None
            tail = _single_name(branch.ctx_candidate)
            back_pattern = backward_to_forward(ppf.steps, tail)
            self._add_path_filter(
                branch,
                branch.ctx_alias,
                branch.ctx_candidate,
                back_pattern,
                anchored=False,
            )
        else:  # ORDER: filter the path's last label (Algorithm 1, l.6-7)
            order_pattern = [
                PatternStep("child", _concrete_name(ppf.prominent_step))
            ]
            self._add_path_filter(
                branch, alias, candidate, order_pattern, anchored=False
            )

        if branch.ctx_alias is not None:
            self._add_structural_join(branch, ppf, alias)

        predicate_branch = _Branch(
            branch.stmt,
            alias,
            candidate,
            new_pattern,
            branch.paths_aliases,
        )
        for index, predicate in enumerate(ppf.predicates):
            positional = _positional_form(predicate)
            if positional is not None:
                condition = self._positional_condition(
                    predicate_branch, ppf, positional, index, branch
                )
            else:
                condition = self._predicate_condition(
                    predicate_branch, predicate
                )
            branch.stmt.where.add(condition)

        branch.ctx_alias = alias
        branch.ctx_candidate = candidate
        branch.ctx_pattern = new_pattern
        return not contains_false(branch.stmt.where)

    # -- filters -------------------------------------------------------------

    def _add_name_filter(
        self, stmt: LogicalSelect, candidate: "Candidate", alias: str
    ) -> None:
        if not candidate.name_filter or candidate.name_column is None:
            return
        stmt.where.add(
            NameFilterCond(
                alias, candidate.name_column, tuple(candidate.name_filter)
            )
        )

    def _add_path_filter(
        self,
        branch: _Branch,
        alias: str,
        candidate: "Candidate",
        pattern: Sequence[PatternStep],
        anchored: bool,
    ) -> PathFilterCond:
        """Join ``alias`` to `Paths` and return the emitted filter.

        Algorithm 1 followed literally: the filter is *always* emitted;
        proving it redundant (Section 4.5) is the elimination pass's job.
        """
        paths_alias = self._paths_alias(branch, alias)
        condition = PathFilterCond(
            alias,
            paths_alias,
            tuple(pattern),
            anchored,
            names=candidate.names,
        )
        branch.stmt.where.add(condition)
        return condition

    def _paths_alias(self, branch: _Branch, alias: str) -> str:
        existing = branch.paths_aliases.get(alias)
        if existing is not None:
            return existing
        paths_alias = f"{alias}_paths"
        branch.stmt.add_scan("paths", paths_alias)
        branch.stmt.where.add(PathsLinkCond(alias, paths_alias))
        branch.paths_aliases[alias] = paths_alias
        return paths_alias

    # -- structural joins ----------------------------------------------------

    def _add_structural_join(
        self, branch: _Branch, ppf: PPF, alias: str
    ) -> None:
        ctx = branch.ctx_alias
        assert ctx is not None
        stmt = branch.stmt
        step = ppf.prominent_step

        if ppf.kind is PPFKind.ORDER:
            stmt.where.add(StructuralCond(step.axis.value, ctx, alias))
            if step.axis in (Axis.FOLLOWING, Axis.PRECEDING):
                stmt.where.add(DocEqCond(alias, ctx))
            if step.axis is Axis.PRECEDING:
                # The preceding window bounds the *context* side, so the
                # new relation must be bound first (see move_scan_before).
                stmt.move_scan_before(alias, ctx)
            return

        if self.prefer_fk_joins and ppf.is_single_step():
            if step.axis is Axis.CHILD:
                stmt.where.add(ParentJoinCond(alias, ctx))
                return
            if step.axis is Axis.PARENT:
                stmt.where.add(ParentJoinCond(ctx, alias, upward=True))
                return

        if all(s.axis is Axis.SELF for s in ppf.steps):
            stmt.where.add(StructuralCond("self", ctx, alias))
            stmt.where.add(DocEqCond(alias, ctx))
            return
        minimum, exact = ppf.level_offset()
        if ppf.kind is PPFKind.BACKWARD:
            # Upward Dewey joins range-probe the *context*'s index, so the
            # new (ancestor-side) relation must be bound first.
            stmt.move_scan_before(alias, ctx)
        if exact and minimum == 1:
            # Single-level fragment without the FK shortcut: the Dewey
            # child/parent conditions carry their own length arithmetic.
            axis_name = "child" if ppf.kind is PPFKind.FORWARD else "parent"
            stmt.where.add(StructuralCond(axis_name, ctx, alias))
            stmt.where.add(DocEqCond(alias, ctx))
            return
        if ppf.kind is PPFKind.FORWARD:
            axis_name = "descendant" if minimum > 0 else "descendant-or-self"
        else:
            axis_name = "ancestor" if minimum > 0 else "ancestor-or-self"
        stmt.where.add(StructuralCond(axis_name, ctx, alias))
        stmt.where.add(DocEqCond(alias, ctx))
        if ppf.kind is PPFKind.FORWARD and ppf.anchored:
            # Root-anchored patterns already pin the fragment's interior.
            return
        if minimum > 1 or (exact and minimum != 1):
            sign = (
                "="
                if exact
                else (">=" if ppf.kind is PPFKind.FORWARD else "<=")
            )
            stmt.where.add(
                LevelCond(
                    alias,
                    sign,
                    3 * minimum,
                    base_alias=ctx,
                    negative=ppf.kind is PPFKind.BACKWARD,
                )
            )

    # -- positional predicates -----------------------------------------------

    def _positional_condition(
        self,
        branch: _Branch,
        ppf: PPF,
        form: "_Positional",
        predicate_index: int,
        context: _Branch,
    ) -> PlanCond:
        """Translate ``[k]`` / ``[position() op k]`` / ``[last()]``.

        Supported for ``child``-axis prominent steps: the proximity
        position equals one plus the number of earlier siblings under the
        same parent that satisfy the same node test, which a scalar
        COUNT sub-plan (one per sibling candidate relation) computes.
        An ordering-axis step counts the nodes on its axis from
        ``context`` instead (:meth:`_order_position`).
        """
        step = ppf.prominent_step
        if predicate_index != 0:
            raise UnsupportedXPathError(
                "a positional predicate must be the step's first "
                "predicate in the SQL engines"
            )
        if ppf.kind is PPFKind.ORDER:
            return self._order_position(branch, step, form, context)
        if step.axis is not Axis.CHILD or ppf.kind is not PPFKind.FORWARD:
            raise UnsupportedXPathError(
                "positional predicates are only translated for child-axis "
                "and ordering-axis steps (use the native engine otherwise)"
            )
        alias = branch.ctx_alias
        candidate = branch.ctx_candidate
        assert alias is not None and candidate is not None
        sibling_step = Step(Axis.FOLLOWING_SIBLING, step.node_test)
        names = self.adapter.order_names(
            sibling_step,
            candidate.names if candidate.names is not None else None,
        )
        if names is not None:
            # A node is always in its own sibling set (root elements have
            # no schema parents, so the sibling walk alone misses them).
            own = candidate.names or frozenset()
            names = frozenset(names) | frozenset(
                n for n in own if _matches_test(step, n)
            )
        candidates = self.adapter.candidates(names, _concrete_name(step))
        return _position(
            form,
            [
                partial(self._sibling_subplan, sibling, alias)
                for sibling in candidates
            ],
            before="<",
        )

    def _order_position(
        self,
        branch: _Branch,
        step: Step,
        form: "_Positional",
        context: _Branch,
    ) -> PlanCond:
        """A positional predicate on a ``following`` / ``preceding`` /
        ``*-sibling`` step: the nodes counted are those on the same axis
        from the same context that pass the node test — before the
        target in document order on a forward axis, after it on a
        reverse one.  The count reads the context *and* the target row,
        so the context can never be reduced to a bound."""
        target = branch.ctx_alias
        assert target is not None and context.ctx_alias is not None
        context_names = (
            context.ctx_candidate.names
            if context.ctx_candidate is not None
            else None
        )
        names = self.adapter.order_names(step, context_names)
        candidates = self.adapter.candidates(names, _concrete_name(step))
        reverse = step.axis in (Axis.PRECEDING, Axis.PRECEDING_SIBLING)
        return _position(
            form,
            [
                partial(
                    self._axis_subplan, candidate, step, context.ctx_alias,
                    target,
                )
                for candidate in candidates
            ],
            before=">" if reverse else "<",
        )

    def _axis_subplan(
        self,
        candidate: "Candidate",
        step: Step,
        context: str,
        target: str,
        dewey_cmp: str,
    ) -> LogicalSelect:
        """The ``candidate`` rows on ``step``'s axis from ``context`` whose
        position compares by ``dewey_cmp`` with ``target``'s."""
        inner = self._fresh_alias(candidate.table)
        sub = LogicalSelect(columns=["1"])
        sub.add_scan(candidate.table, inner)
        sub.where.add(StructuralCond(step.axis.value, context, inner))
        if step.axis in (Axis.FOLLOWING, Axis.PRECEDING):
            sub.where.add(DocEqCond(inner, context))
        sub.where.add(
            RawCond(f"{inner}.dewey_pos {dewey_cmp} {target}.dewey_pos")
        )
        self._add_name_filter(sub, candidate, inner)
        return sub

    def _sibling_subplan(
        self, candidate: "Candidate", alias: str, dewey_cmp: str
    ) -> LogicalSelect:
        inner = self._fresh_alias(candidate.table)
        sub = LogicalSelect(columns=["1"])
        sub.add_scan(candidate.table, inner)
        # `IS` makes the root level (par_id NULL) compare equal too.
        sub.where.add(RawCond(f"{inner}.par_id IS {alias}.par_id"))
        sub.where.add(RawCond(f"{inner}.doc_id = {alias}.doc_id"))
        sub.where.add(
            RawCond(
                f"{inner}.dewey_pos {dewey_cmp} {alias}.dewey_pos"
            )
        )
        if candidate.name_filter and candidate.name_column:
            sub.where.add(
                NameFilterCond(
                    inner,
                    candidate.name_column,
                    tuple(candidate.name_filter),
                )
            )
        return sub

    # -- predicates ----------------------------------------------------------

    def _predicate_condition(
        self, branch: _Branch, expr: XPathExpr
    ) -> PlanCond:
        if isinstance(expr, OrExpr):
            return OrCond(
                [
                    self._predicate_condition(branch, expr.left),
                    self._predicate_condition(branch, expr.right),
                ]
            )
        if isinstance(expr, AndExpr):
            conjunction = AndCond()
            conjunction.add(self._predicate_condition(branch, expr.left))
            conjunction.add(self._predicate_condition(branch, expr.right))
            return conjunction
        if isinstance(expr, NotExpr):
            return NotCond(self._predicate_condition(branch, expr.operand))
        if isinstance(expr, UnionExpr):
            return OrCond(
                [
                    self._predicate_condition(branch, sub)
                    for sub in expr.branches
                ]
            )
        if isinstance(expr, Comparison):
            return self._comparison_condition(branch, expr)
        if isinstance(expr, PathExpr):
            return self._existence_condition(branch, expr.path)
        if isinstance(expr, FunctionCall):
            return self._function_condition(branch, expr)
        if isinstance(expr, NumberLiteral):
            raise UnsupportedXPathError(
                "positional predicates have no SQL translation in this "
                "engine (use the native engine)"
            )
        if isinstance(expr, StringLiteral):
            return TrueCond() if expr.value else FalseCond()
        if isinstance(expr, Parameter):
            raise NotLiftable(expr)
        raise UnsupportedXPathError(f"unsupported predicate {expr}")

    def _function_condition(
        self, branch: _Branch, call: FunctionCall
    ) -> PlanCond:
        if call.name in ("contains", "starts-with"):
            target, literal = call.args
            if isinstance(literal, Parameter) and literal.kind == "string":
                self._like_slots[literal.index] = call.name
                pattern_sql = parameter_sql(literal.index)
            elif isinstance(literal, StringLiteral):
                pattern_sql = string_literal(
                    like_pattern(call.name, literal.value)
                )
            else:
                raise UnsupportedXPathError(
                    f"{call.name}() needs a string literal second argument"
                )
            return self._value_path_condition(
                branch,
                target,
                "LIKE",
                pattern_sql + " ESCAPE '\\'",
                numeric=False,
            )
        raise UnsupportedXPathError(
            f"{call.name}() has no SQL translation in this engine"
        )

    def _comparison_condition(
        self, branch: _Branch, expr: Comparison
    ) -> PlanCond:
        left, op, right = expr.left, expr.op, expr.right
        count_condition = self._count_comparison(branch, left, op, right)
        if count_condition is not None:
            return count_condition
        left_is_path = isinstance(left, (PathExpr, UnionExpr))
        right_is_path = isinstance(right, (PathExpr, UnionExpr))
        if not left_is_path and right_is_path:
            left, right = right, left
            op = _FLIP[op]
            left_is_path, right_is_path = True, False

        if left_is_path and right_is_path:
            return self._path_to_path_condition(branch, left, op, right)
        if left_is_path:
            literal_sql, numeric = _literal_sql(right)
            return self._value_path_condition(
                branch, left, _SQL_OPS[op], literal_sql, numeric
            )
        # literal vs literal: fold statically.
        return (
            TrueCond() if _static_compare(op, left, right) else FalseCond()
        )

    def _count_comparison(
        self,
        branch: _Branch,
        left: XPathExpr,
        op: str,
        right: XPathExpr,
    ) -> Optional[PlanCond]:
        """``count(path) op number`` via scalar COUNT sub-plans (summed
        across SQL-splitting branches)."""
        left_count = _count_argument(left)
        right_count = _count_argument(right)
        if left_count is None and right_count is None:
            return None
        if left_count is not None and right_count is not None:
            raise UnsupportedXPathError(
                "count() on both comparison sides is not supported"
            )
        if left_count is None:
            left, right = right, left
            op = _FLIP[op]
            left_count = right_count
        try:
            value = float(_static_value(right))
        except (UnsupportedXPathError, ValueError):
            raise UnsupportedXPathError(
                "count() can only be compared against a number"
            ) from None
        assert left_count is not None
        subplans = []
        for sub in self._build_predicate_path(branch, left_count):
            assert sub.ctx_alias is not None
            sub.stmt.columns = [f"COUNT(DISTINCT {sub.ctx_alias}.id)"]
            sub.stmt.order_by = []
            subplans.append(sub.stmt)
        return AggregateCountCond(subplans, _SQL_OPS[op], value, offset=0)

    def _value_path_condition(
        self,
        branch: _Branch,
        expr: XPathExpr,
        sql_op: str,
        literal_sql: str,
        numeric: bool,
    ) -> PlanCond:
        """``path op literal`` (or LIKE) — Table 5(1) shape."""
        if isinstance(expr, UnionExpr):
            return OrCond(
                [
                    self._value_path_condition(
                        branch, sub, sql_op, literal_sql, numeric
                    )
                    for sub in expr.branches
                ]
            )
        if not isinstance(expr, PathExpr):
            raise UnsupportedXPathError(
                f"cannot compare {expr} against a value in SQL"
            )
        path = expr.path
        shortcut = self._local_value_condition(
            branch, path, sql_op, literal_sql, numeric
        )
        if shortcut is not None:
            return shortcut
        sub_branches = self._build_predicate_path(branch, path)
        alternatives: list[PlanCond] = []
        for sub in sub_branches:
            value = self._branch_value_expr(sub, path, numeric)
            if value is None:
                continue
            sub.stmt.where.add(RawCond(f"{value} {sql_op} {literal_sql}"))
            if not contains_false(sub.stmt.where):
                alternatives.append(ExistsCond(sub.stmt))
        if not alternatives:
            return FalseCond()
        return OrCond(alternatives)

    def _local_value_condition(
        self,
        branch: _Branch,
        path: LocationPath,
        sql_op: str,
        literal_sql: str,
        numeric: bool,
    ) -> Optional[PlanCond]:
        """Comparisons that touch only the context row: ``@attr op v``,
        ``text() op v`` and ``. op v``."""
        if path.absolute or len(path.steps) != 1:
            return None
        step = path.steps[0]
        if step.predicates:
            return None
        assert branch.ctx_alias is not None
        assert branch.ctx_candidate is not None
        if step.axis is Axis.ATTRIBUTE:
            name = _concrete_name(step)
            if name is None:
                raise UnsupportedXPathError(
                    "attribute comparisons need a concrete attribute name"
                )
            return self.adapter.attr_condition(
                branch.ctx_candidate,
                branch.ctx_alias,
                name,
                sql_op,
                literal_sql,
                numeric,
                self._fresh_alias,
            )
        if isinstance(step.node_test, TextTest) or (
            step.axis is Axis.SELF and _concrete_name(step) is None
        ):
            value = self.adapter.text_expr(
                branch.ctx_candidate, branch.ctx_alias, numeric
            )
            if value is None:
                return FalseCond()
            return RawCond(f"{value} {sql_op} {literal_sql}")
        return None

    def _path_to_path_condition(
        self,
        branch: _Branch,
        left: XPathExpr,
        op: str,
        right: XPathExpr,
    ) -> PlanCond:
        """Join predicate clause: comparison between two paths
        (Section 4.3, footnote 1 — e.g. the Q-A query)."""
        if isinstance(left, UnionExpr) or isinstance(right, UnionExpr):
            raise UnsupportedXPathError(
                "unions inside join predicate clauses are not supported"
            )
        assert isinstance(left, PathExpr) and isinstance(right, PathExpr)
        alternatives: list[PlanCond] = []
        for left_branch in self._build_predicate_path(branch, left.path):
            left_value = self._branch_value_expr(left_branch, left.path)
            if left_value is None:
                continue
            continued = self._build_predicate_path(
                branch, right.path, base=left_branch
            )
            for both in continued:
                right_value = self._branch_value_expr(both, right.path)
                if right_value is None:
                    continue
                both.stmt.where.add(
                    RawCond(f"{left_value} {_SQL_OPS[op]} {right_value}")
                )
                if not contains_false(both.stmt.where):
                    alternatives.append(ExistsCond(both.stmt))
        if not alternatives:
            return FalseCond()
        return OrCond(alternatives)

    def _existence_condition(
        self, branch: _Branch, path: LocationPath
    ) -> PlanCond:
        assert branch.ctx_alias is not None
        assert branch.ctx_candidate is not None
        # @attr existence.
        if (
            not path.absolute
            and len(path.steps) == 1
            and path.steps[0].axis is Axis.ATTRIBUTE
            and not path.steps[0].predicates
        ):
            name = _concrete_name(path.steps[0])
            if name is None:
                raise UnsupportedXPathError(
                    "wildcard attribute tests are not supported in SQL"
                )
            return self.adapter.attr_condition(
                branch.ctx_candidate,
                branch.ctx_alias,
                name,
                None,
                None,
                False,
                self._fresh_alias,
            )
        # Backward-simple-path-only clause: pure path filtering on the
        # context (Table 5, example 2).
        if (
            self.use_path_index
            and not path.absolute
            and all(s.axis.is_path_backward for s in path.steps)
            and all(not s.predicates for s in path.steps)
        ):
            tail = _single_name(branch.ctx_candidate)
            pattern = backward_to_forward(path.steps, tail)
            paths_alias = self._paths_alias(branch, branch.ctx_alias)
            return PathFilterCond(
                branch.ctx_alias,
                paths_alias,
                tuple(pattern),
                False,
                names=branch.ctx_candidate.names,
            )
        alternatives: list[PlanCond] = [
            ExistsCond(sub.stmt)
            for sub in self._build_predicate_path(branch, path)
            if not contains_false(sub.stmt.where)
        ]
        if not alternatives:
            return FalseCond()
        return OrCond(alternatives)

    # -- predicate sub-paths -------------------------------------------------

    def _build_predicate_path(
        self,
        outer: _Branch,
        path: LocationPath,
        base: Optional[_Branch] = None,
    ) -> list[_Branch]:
        """Build EXISTS-subplan branches for a predicate path.

        The returned branches' statements are ``SELECT NULL`` sub-plans
        correlated with the outer context (for relative paths) or scoped
        to the outer row's document (for absolute paths).  ``base``
        continues an existing sub-plan (join predicate clauses put both
        paths into one sub-select).  Each surviving sub-plan carries the
        context's naive document ordering; the ``prune-distinct-order``
        pass strips it where an EXISTS makes it pointless.
        """
        assert outer.ctx_alias is not None
        split = split_backbone(
            path,
            context_anchored=not path.absolute
            and outer.ctx_pattern is not None,
        )
        if self.split_every_step:
            _explode_split(split)
        if base is not None:
            # Continue an existing sub-plan (join predicate clauses put
            # both paths into one statement), but anchor the new path at
            # the *outer* context, not at the previous path's tail.
            start = _Branch(
                base.stmt,
                None if path.absolute else outer.ctx_alias,
                None if path.absolute else outer.ctx_candidate,
                None if path.absolute else outer.ctx_pattern,
                base.paths_aliases,
            )
        else:
            stmt = LogicalSelect(columns=["NULL"])
            if path.absolute:
                start = _Branch(stmt)
            else:
                start = _Branch(
                    stmt,
                    outer.ctx_alias,
                    outer.ctx_candidate,
                    outer.ctx_pattern,
                )
        branches = [start]
        for index, ppf in enumerate(split.ppfs):
            next_branches: list[_Branch] = []
            for sub in branches:
                for forked in self._apply_ppf(sub, ppf):
                    if index == 0 and path.absolute:
                        # Scope the absolute path to the outer document.
                        assert forked.ctx_alias is not None
                        forked.stmt.where.add(
                            DocEqCond(forked.ctx_alias, outer.ctx_alias)
                        )
                    next_branches.append(forked)
            branches = next_branches
            if not branches:
                return []
        # Projection tails inside predicates assert the projected value
        # exists: [a/@id] is true only for a's that *have* the attribute,
        # and [a/text() ...] needs a non-empty text value.
        surviving: list[_Branch] = []
        for sub in branches:
            assert sub.ctx_alias is not None and sub.ctx_candidate is not None
            if split.attribute_projection is not None:
                expr = self.adapter.attr_expr(
                    sub.ctx_candidate,
                    sub.ctx_alias,
                    split.attribute_projection,
                    numeric=False,
                )
                if expr is None:
                    continue
                sub.stmt.where.add(RawCond(f"{expr} IS NOT NULL"))
            elif split.text_projection:
                expr = self.adapter.text_expr(
                    sub.ctx_candidate, sub.ctx_alias, numeric=False
                )
                if expr is None:
                    continue
                sub.stmt.where.add(RawCond(f"{expr} IS NOT NULL"))
            sub.stmt.order_by = [
                f"{sub.ctx_alias}.doc_id",
                f"{sub.ctx_alias}.dewey_pos",
            ]
            surviving.append(sub)
        return surviving

    def _branch_value_expr(
        self, branch: _Branch, path: LocationPath, numeric: bool = False
    ) -> Optional[str]:
        """SQL expression for the value a predicate path compares
        (``numeric``: against a number, which a mapping without typed
        columns has to cast for)."""
        assert branch.ctx_alias is not None
        assert branch.ctx_candidate is not None
        split = split_backbone(path)
        if split.attribute_projection is not None:
            return self.adapter.attr_expr(
                branch.ctx_candidate,
                branch.ctx_alias,
                split.attribute_projection,
                numeric=numeric,
            )
        return self.adapter.text_expr(
            branch.ctx_candidate, branch.ctx_alias, numeric=numeric
        )

    # -- helpers -------------------------------------------------------------

    def _fresh_alias(self, table: str) -> str:
        if table not in self._used_aliases:
            self._used_aliases.add(table)
            return table
        counter = 2
        while f"{table}_{counter}" in self._used_aliases:
            counter += 1
        alias = f"{table}_{counter}"
        self._used_aliases.add(alias)
        return alias


# ---------------------------------------------------------------------------
# module helpers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Positional:
    """A recognized positional predicate shape."""

    kind: str  #: ``cmp`` or ``last``
    op: str = "="
    value: float = 0.0


def _position(
    form: _Positional,
    candidates: list[Callable[[str], LogicalSelect]],
    before: str,
) -> PlanCond:
    """``[k]`` / ``[position() op k]`` / ``[last()]`` from the rows that
    share a target's axis: each candidate relation's ``select(cmp)`` is
    its rows whose ``dewey_pos`` compares by ``cmp`` with the target's,
    and ``before`` is the comparison of the rows ahead of the target on
    the axis.  The proximity position is one plus their count; the last
    node has none behind it."""
    if form.kind == "last":
        behind = "<" if before == ">" else ">"
        beyond: list[PlanCond] = [
            ExistsCond(select(behind)) for select in candidates
        ]
        return NotCond(OrCond(beyond)) if beyond else TrueCond()
    if form.op == "=" and form.value != int(form.value):
        return FalseCond()
    counts = []
    for select in candidates:
        count = select(before)
        count.columns = ["COUNT(*)"]
        counts.append(count)
    return AggregateCountCond(counts, _SQL_OPS[form.op], form.value, offset=1)


def _concrete_name(step: Step) -> Optional[str]:
    test = step.node_test
    if isinstance(test, NameTest) and not test.is_wildcard:
        return test.name
    return None


def _single_name(candidate: Optional["Candidate"]) -> Optional[str]:
    if candidate is None or candidate.names is None:
        return None
    if len(candidate.names) == 1:
        return next(iter(candidate.names))
    return None


def like_pattern(function: str, text: str) -> str:
    """The LIKE pattern (under ``ESCAPE '\\'``) for ``contains`` /
    ``starts-with`` of the literal ``text``."""
    escaped = (
        text.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
    )
    return f"%{escaped}%" if function == "contains" else f"{escaped}%"


def _literal_sql(expr: XPathExpr) -> tuple[str, bool]:
    """SQL text of a comparand, and whether it is numeric.  A template
    parameter becomes a named SQL parameter: from here on it is opaque
    text to adapters, passes and lowering, like any literal."""
    if isinstance(expr, Parameter):
        return parameter_sql(expr.index), expr.kind == "number"
    value = _static_value(expr)
    if isinstance(value, float):
        return number_literal(value), True
    return string_literal(value), False


def _static_value(expr: XPathExpr) -> Union[float, str]:
    if isinstance(expr, NumberLiteral):
        return expr.value
    if isinstance(expr, StringLiteral):
        return expr.value
    if isinstance(expr, Parameter):
        raise NotLiftable(expr)
    if isinstance(expr, ArithmeticExpr):
        left = _static_value(expr.left)
        right = _static_value(expr.right)
        if isinstance(left, str) or isinstance(right, str):
            raise UnsupportedXPathError("arithmetic over strings")
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "div": lambda a, b: a / b if b else math.inf,
            "mod": lambda a, b: math.fmod(a, b) if b else math.nan,
        }
        return ops[expr.op](left, right)
    raise UnsupportedXPathError(
        f"expression {expr} is not a literal the SQL engine can evaluate"
    )


def _static_compare(op: str, left: XPathExpr, right: XPathExpr) -> bool:
    a, b = _static_value(left), _static_value(right)
    if op in ("=", "!="):
        if isinstance(a, float) or isinstance(b, float):
            outcome = float(a) == float(b)
        else:
            outcome = a == b
        return outcome if op == "=" else not outcome
    a_num, b_num = float(a), float(b)
    return {
        "<": a_num < b_num,
        "<=": a_num <= b_num,
        ">": a_num > b_num,
        ">=": a_num >= b_num,
    }[op]


def _count_argument(expr: XPathExpr) -> Optional[LocationPath]:
    """The path inside a ``count(path)`` call, if ``expr`` is one."""
    if (
        isinstance(expr, FunctionCall)
        and expr.name == "count"
        and len(expr.args) == 1
        and isinstance(expr.args[0], PathExpr)
    ):
        return expr.args[0].path
    return None


def _matches_test(step: Step, name: str) -> bool:
    """Whether an element name satisfies the step's node test."""
    test = step.node_test
    if isinstance(test, NameTest):
        return test.is_wildcard or test.name == name
    return True


def _is_position_call(expr: XPathExpr) -> bool:
    return isinstance(expr, FunctionCall) and expr.name == "position"


def _is_last_call(expr: XPathExpr) -> bool:
    return isinstance(expr, FunctionCall) and expr.name == "last"


def _positional_form(expr: XPathExpr) -> Optional[_Positional]:
    """Recognize the positional predicate shapes the SQL engines handle.

    Returns a ``cmp`` form for ``[k]`` / ``[position() op k]``, a
    ``last`` form for ``[last()]`` / ``[position() = last()]``, or
    ``None`` when the predicate is not positional at the top level.
    """
    if isinstance(expr, NumberLiteral):
        return _Positional("cmp", "=", expr.value)
    if _is_last_call(expr):
        return _Positional("last")
    if isinstance(expr, Comparison):
        left, op, right = expr.left, expr.op, expr.right
        if (_is_position_call(left) and isinstance(right, Parameter)) or (
            _is_position_call(right) and isinstance(left, Parameter)
        ):
            raise NotLiftable(expr)
        if _is_position_call(left) and isinstance(right, NumberLiteral):
            return _Positional("cmp", op, right.value)
        if _is_position_call(right) and isinstance(left, NumberLiteral):
            return _Positional("cmp", _FLIP[op], left.value)
        if (
            _is_position_call(left)
            and _is_last_call(right)
            and op == "="
        ) or (
            _is_last_call(left) and _is_position_call(right) and op == "="
        ):
            return _Positional("last")
        if any(
            _is_position_call(side) or _is_last_call(side)
            for side in (left, right)
        ):
            raise UnsupportedXPathError(
                f"positional predicate shape {expr} has no SQL translation"
            )
    return None


def _explode_split(split: SplitBackbone) -> None:
    """Rewrite a backbone split into one single-step fragment per step
    (the conventional per-step translation of Section 4.4's strawman)."""
    exploded: list[PPF] = []
    for ppf in split.ppfs:
        for step in ppf.steps:
            if step.axis.is_path_forward:
                kind = PPFKind.FORWARD
            elif step.axis.is_path_backward:
                kind = PPFKind.BACKWARD
            else:
                kind = PPFKind.ORDER
            exploded.append(PPF(kind, [step], anchored=False))
    split.ppfs = exploded
