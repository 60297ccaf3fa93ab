"""XPath-to-SQL translation facade (paper Algorithm 1 + Sections 4.3–4.5).

Since the logical-plan refactor this module no longer builds SQL itself;
it wires the three pipeline layers together:

1. :class:`repro.plan.planner.Planner` compiles the XPath AST to a
   :class:`~repro.plan.nodes.QueryPlan` — Algorithm 1 followed
   literally, every PPF joining `Paths`;
2. a :class:`repro.plan.passes.PassPipeline` of individually toggleable
   optimizer passes rewrites the plan (Section 4.5 Paths-join
   elimination, Table 3 regex→equality, DISTINCT/ORDER pruning,
   union-branch dedup);
3. :func:`repro.plan.lowering.lower_plan` renders the survivor through a
   :class:`~repro.sqlgen.dialect.SQLiteDialect`.

**Translation is per shape.**  Algorithm 1 is a function of steps, axes,
name tests and predicate structure; the constants of value predicates
only ever end up as the right-hand side of a selection.  So a string is
translated as its :class:`~repro.xpath.lexer.Shape`: literals become
:class:`~repro.xpath.ast.Parameter` leaves, the planner writes a named
SQL parameter where it would have written the literal, and the outcome
is a :class:`PlanTemplate` that every string of that shape *binds* —
sharing plan, statement, reports, estimates and SQL text, adding only
its values.  A shape whose plan needs a value (:class:`~repro.plan.
planner.NotLiftable`) is translated with its literals in place instead.

:class:`TranslationResult` carries the optimized plan, per-pass reports
and before/after plan statistics for ``explain`` and the per-layer
benchmark (``perfbench/``).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, Union

from repro.core.adapters import StoreAdapter
from repro.errors import ReproError, TranslationError

# The plan modules are bound as module objects (not from-imports): the
# plan and core packages import each other's submodules, and depending on
# which package is entered first, a plan module may still be mid-
# initialization when this module loads.  Deferring attribute access to
# runtime keeps every import order valid.
import repro.plan.cost as _cost
import repro.plan.graph as _graph
import repro.plan.lowering as _lowering
import repro.plan.nodes as _nodes
import repro.plan.passes as _passes
import repro.plan.planner as _planner

from repro.sqlgen import (
    DerivedTable,
    SelectStatement,
    TableRef,
    UnionStatement,
    render_statement,
)
from repro.sqlgen.dialect import DEFAULT_DIALECT
from repro.sqlgen.render import BoundValue, number_value, parameter_name
from repro.xpath.ast import XPathExpr
from repro.xpath.lexer import NUMBER_SLOT, STRING_SLOT, Shape, shape_of
from repro.xpath.parser import parse_template, parse_xpath


@dataclass
class TranslationResult:
    """A translated XPath expression."""

    statement: Union[SelectStatement, UnionStatement, None]
    #: ``nodes`` (element rows), ``text`` or ``attribute`` (value rows).
    projection: str
    expression: str
    #: The optimized logical plan the statement was lowered from.
    plan: Optional[_nodes.QueryPlan] = None
    #: One report per optimizer pass that ran, in pipeline order.
    pass_reports: list[_passes.PassReport] = field(default_factory=list)
    #: Plan statistics before/after the pass pipeline ran.
    plan_stats_before: Optional[dict[str, int]] = None
    plan_stats_after: Optional[dict[str, int]] = None
    #: Estimated result rows from the cost model (``None`` when the
    #: store has no collected statistics).
    estimated_rows: Optional[float] = None
    #: Per-branch estimates, in the statement's branch order.
    branch_estimates: Optional[tuple[float, ...]] = None
    #: ``(epoch, generation)`` of the path summary the plan was made
    #: under (``None`` when the store handed out none): whose join
    #: order and estimates these are, however long the plan is served.
    stats_version: Optional[tuple[int, int]] = None
    #: What the plan took from that summary and built in (one
    #: :class:`~repro.plan.passes.SummaryRead` per filter resolved or
    #: dropped).  The plan is exact under every summary these hold
    #: under; with none, under every state of the store.
    summary_reads: tuple[_passes.SummaryRead, ...] = ()
    #: The latest summary version the engine found :attr:`summary_reads`
    #: to hold under (:attr:`stats_version` on a fresh translation).
    held_version: Optional[tuple[int, int]] = None
    #: Values of the statement's named parameters, by name (``None``
    #: when it has none: the literals are in the statement).  Everything
    #: above except ``expression`` is the template's, shared by every
    #: string of the shape; this is what one string adds.
    parameters: Optional[dict[str, BoundValue]] = None

    @cached_property
    def parametrised_sql(self) -> str:
        """The statement as it executes: named parameters (``:v0`` …)
        where the expression has literals, to be run with
        :attr:`parameters` bound.  Empty when statically empty; rendered
        once per template (the statement is not mutated after
        ``translate()``)."""
        if self.statement is None:
            return ""
        return render_statement(self.statement)

    @cached_property
    def sql(self) -> str:
        """The SQL text with its literals inline (empty string when
        statically empty): self-contained, what ``explain`` shows, error
        messages quote and the shard fleet ships.  Rendered from the
        statement on first access."""
        if self.statement is None or not self.parameters:
            return self.parametrised_sql
        return render_statement(self.statement, parameters=self.parameters)

    def bound(
        self, expression: str, parameters: dict[str, BoundValue]
    ) -> "TranslationResult":
        """This (template) translation as the translation of
        ``expression``: the same plan, statement, reports, estimates and
        cached :attr:`parametrised_sql` — shared, not copied — with
        ``parameters`` as values."""
        result = object.__new__(TranslationResult)
        result.__dict__.update(self.__dict__)
        result.__dict__.pop("sql", None)
        result.expression = expression
        result.parameters = parameters
        return result

    @cached_property
    def ordered(self) -> bool:
        """The statement ends in exactly ``ORDER BY doc_id, dewey_pos``
        (Section 4.3; at union level for a split): whoever runs
        :attr:`sql` as one statement receives rows in document order.
        Read once off the statement, like :attr:`sql`."""
        return (
            self.statement is not None
            and tuple(self.statement.order_by) == _nodes.DOCUMENT_ORDER
        )

    @cached_property
    def distinct(self) -> bool:
        """The statement yields no row twice: its root is ``DISTINCT``,
        a ``UNION`` (Section 4.4), or a select or ``UNION ALL`` whose
        plan proves it (:func:`repro.plan.graph.unique_rows`, and for
        ``UNION ALL`` pairwise :func:`~repro.plan.graph.disjoint`
        outputs)."""
        statement = self.statement
        root = self.plan.root if self.plan is not None else None
        if isinstance(statement, UnionStatement):
            return not statement.all or (
                isinstance(root, _nodes.PlanUnion)
                and _graph.union_all_sound(root.branches)
            )
        return isinstance(statement, SelectStatement) and (
            statement.distinct
            or (
                isinstance(root, _nodes.LogicalSelect)
                and _graph.unique_rows(root)
            )
        )

    @cached_property
    def one_row_per_id(self) -> bool:
        """:attr:`distinct` rows are also distinct element *ids*: true
        of a single select, whose columns are all functions of the one
        projected element row, and of a proven ``UNION ALL``, whose
        branches output disjoint elements; a ``UNION`` removes only
        identical rows."""
        statement = self.statement
        return self.distinct and (
            not isinstance(statement, UnionStatement) or statement.all
        )

    @property
    def is_empty(self) -> bool:
        """True when schema analysis proved the result empty."""
        return self.statement is None

    def fired_passes(self) -> list[str]:
        """Names of the optimizer passes that changed the plan."""
        return [r.name for r in self.pass_reports if r.fired]

    # -- introspection used by tests and the ablation benches ---------------

    def branch_count(self) -> int:
        """Number of UNION branches (Section 4.4 SQL splitting)."""
        if self.statement is None:
            return 0
        if isinstance(self.statement, UnionStatement):
            return len(self.statement.branches)
        return 1

    def table_count(self) -> int:
        """Total FROM entries across branches (incl. `Paths` aliases and
        the entries of derived tables)."""
        return sum(len(s.tables) for s in self._selects())

    def path_filter_count(self) -> int:
        """Number of `Paths` joins actually emitted."""
        return sum(
            1
            for s in self._selects()
            for ref in s.tables
            if isinstance(ref, TableRef) and ref.table == "paths"
        )

    def _selects(self) -> list[SelectStatement]:
        """Every select of the statement, derived-table bodies included
        (each after the select whose FROM clause holds it)."""
        if self.statement is None:
            return []
        if isinstance(self.statement, UnionStatement):
            pending = list(self.statement.branches)
        else:
            pending = [self.statement]
        selects: list[SelectStatement] = []
        while pending:
            select = pending.pop(0)
            selects.append(select)
            pending[:0] = [
                ref.statement
                for ref in select.tables
                if isinstance(ref, DerivedTable)
            ]
        return selects


def _number_value(text: str) -> BoundValue:
    return number_value(float(text))


class PlanTemplate(NamedTuple):
    """The translation of one shape (see the module docstring)."""

    #: The shape's translation; its statement names a parameter ``vN``
    #: wherever slot *N*'s literal would stand.
    translation: TranslationResult
    #: Per slot: the parameter's name, and the function from the lifted
    #: text to the value to bind (a number's text → the number; a
    #: ``contains`` / ``starts-with`` argument → its LIKE pattern).
    slots: tuple[tuple[str, Callable[[str], BoundValue]], ...]

    def bind(self, expression: str, values: Sequence[str]) -> TranslationResult:
        """The translation of ``expression``, a string of this shape
        whose literals are ``values``."""
        return self.translation.bound(
            expression,
            {
                name: binder(value)
                for (name, binder), value in zip(self.slots, values)
            },
        )


class PPFTranslator:
    """Translates XPath expressions to SQL over one mapping adapter."""

    def __init__(
        self,
        adapter: StoreAdapter,
        prefer_fk_joins: bool = True,
        split_every_step: bool = False,
        use_path_index: bool = True,
        passes: Optional[Sequence[str]] = None,
    ):
        self.adapter = adapter
        #: Section 4.2: use foreign-key equijoins for single-step
        #: child/parent PPFs (the paper's choice); False forces Dewey
        #: theta-joins everywhere (ablation switch).
        self.prefer_fk_joins = prefer_fk_joins
        #: Conventional per-step translation: every step becomes its own
        #: single-step fragment (the Section 4.4 strawman / naive
        #: baseline).  Usually combined with ``use_path_index=False``.
        self.split_every_step = split_every_step
        #: When False, the `Paths` relation is never touched; single-step
        #: fragments stay exact because each join pins one level/name.
        self.use_path_index = use_path_index
        if split_every_step and use_path_index:
            raise TranslationError(
                "per-step splitting implies disabling the path index"
            )
        if not split_every_step and not use_path_index:
            raise TranslationError(
                "multi-step fragments require the path index for "
                "correctness"
            )
        #: The SQL dialect statements are lowered through.
        self.dialect = DEFAULT_DIALECT
        #: Active optimizer pass names, in run order.  An explicit
        #: ``passes`` wins; otherwise the default pipeline, minus the
        #: Section 4.5 elimination pass when the adapter's
        #: ``path_filter_optimization`` ablation switch is off.
        self.pass_names: tuple[str, ...] = _passes.resolve_pass_names(
            passes, getattr(adapter, "path_filter_optimization", True)
        )
        self._pipeline = _passes.PassPipeline(self.pass_names)
        self._planner = _planner.Planner(
            adapter,
            prefer_fk_joins=prefer_fk_joins,
            split_every_step=split_every_step,
            use_path_index=use_path_index,
        )

    @property
    def fingerprint(self) -> tuple[object, ...]:
        """Cache key component: everything but the data that shapes
        the emitted SQL.

        Of the path summary it says only *whether* the store hands one
        out — the costed passes run with one and keep quiet without, so
        collecting statistics re-plans and a stale summary brings the
        regex form back.  *Which* summary is not part of the key: a
        translation records what it read from it
        (:attr:`TranslationResult.summary_reads`) and the engine serves
        it for as long as that still holds."""
        return (
            self.pass_names,
            self.prefer_fk_joins,
            self.split_every_step,
            self.use_path_index,
            getattr(self.adapter, "path_summary", None) is not None,
        )

    def translate(
        self, expression: Union[str, XPathExpr]
    ) -> TranslationResult:
        """Translate ``expression``; raises on unsupported features.

        A string is translated as its shape and bound (module
        docstring); an AST, or a string whose shape is not liftable,
        with its literals in the statement.

        :raises UnsupportedXPathError: for features outside the SQL subset
            (positional predicates, standalone arithmetic results).
        :raises TranslationError: when no relation can host a step.
        """
        if isinstance(expression, str):
            shape = shape_of(expression)
            if shape is not None:
                template = self.template(expression, shape)
                if template is not None:
                    return template.bind(expression, shape.values)
        return self.translate_inline(expression)

    def template(
        self, expression: str, shape: Shape
    ) -> Optional[PlanTemplate]:
        """Translate the ``shape`` of ``expression`` — one full
        translation, valid for every string of that shape — or ``None``
        when the shape is not liftable.

        The template is planned from an AST that does not hold the
        literals, so it cannot depend on them.  Whatever goes wrong on
        the way — the planner needs a value, or the expression is
        unsupported — the answer is ``None`` and
        :meth:`translate_inline` decides, with the real literals in
        hand, exactly as it always has."""
        try:
            translation = self._translate(
                parse_template(expression), _shape_text(shape)
            )
        except (_planner.NotLiftable, ReproError):
            return None
        assert translation.plan is not None
        # Read what is derived from the statement once, here, so that
        # bound translations inherit the answers instead of each
        # deriving its own.
        for derived in ("parametrised_sql", "ordered", "one_row_per_id"):
            getattr(translation, derived)
        like_slots = translation.plan.like_slots
        binders: list[Callable[[str], BoundValue]] = [
            functools.partial(_planner.like_pattern, like_slots[index])
            if index in like_slots
            else (_number_value if marker == NUMBER_SLOT else str)
            for index, marker in enumerate(_SLOT.findall(shape.key))
        ]
        return PlanTemplate(
            translation,
            tuple(
                (parameter_name(index), binder)
                for index, binder in enumerate(binders)
            ),
        )

    def translate_inline(
        self, expression: Union[str, XPathExpr]
    ) -> TranslationResult:
        """Translate ``expression`` with its literals written into the
        statement (no parameters): the path for ASTs and for shapes
        that are not liftable."""
        if isinstance(expression, str):
            return self._translate(parse_xpath(expression), expression)
        return self._translate(expression, str(expression))

    def _translate(self, ast: XPathExpr, text: str) -> TranslationResult:
        plan = self._planner.plan(ast, text)
        stats_before = _nodes.plan_stats(plan)
        summary = getattr(self.adapter, "path_summary", None)
        context = _passes.PassContext(
            marking=getattr(self.adapter, "marking", None),
            summary=summary,
            sql_length_limit=getattr(
                self.adapter, "sql_length_limit", None
            ),
        )
        plan, reports = self._pipeline.run(plan, context)
        stats_after = _nodes.plan_stats(plan)
        estimated_rows: Optional[float] = None
        branch_estimates: Optional[tuple[float, ...]] = None
        if summary is not None:
            estimate = _cost.CardinalityEstimator(summary).estimate_plan(
                plan
            )
            estimated_rows = estimate.total_rows
            branch_estimates = estimate.branch_rows
        statement = _lowering.lower_plan(plan, self.dialect)
        version = summary.version if summary is not None else None
        return TranslationResult(
            statement,
            plan.projection,
            text,
            plan=plan,
            pass_reports=reports,
            plan_stats_before=stats_before,
            plan_stats_after=stats_after,
            estimated_rows=estimated_rows,
            branch_estimates=branch_estimates,
            stats_version=version,
            summary_reads=tuple(
                read for report in reports for read in report.reads
            ),
            held_version=version,
        )


#: A slot marker in a shape key.
_SLOT = re.compile(f"[{STRING_SLOT}{NUMBER_SLOT}]")


def _shape_text(shape: Shape) -> str:
    """The shape as XPath text, a variable reference per slot
    (``//a[b = $v0]``): what a template's plan names as its
    expression."""
    numbers = itertools.count()
    return _SLOT.sub(lambda _: f"$v{next(numbers)}", shape.key)
