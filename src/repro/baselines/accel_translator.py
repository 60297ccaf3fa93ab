"""XPath Accelerator translation (Grust et al.), the Section 5.2 baseline.

Each location step becomes one self-join of the ``accel`` relation with
the pre/post *window* condition of its axis — the number of joins is
proportional to the number of steps, which is precisely the property the
paper's PPF processing removes.  The translation follows the staked-out
query-window formulation: child/parent use the parent pointer, the other
axes two-sided pre/post windows.

Predicates translate to ``EXISTS`` sub-selects over further ``accel``
self-joins; attributes live in the ``accel_attr`` side relation.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from repro.core.results import QueryResult, ResultRow, in_document_order
from repro.errors import TranslationError, UnsupportedXPathError
from repro.sqlgen import (
    And,
    Exists,
    Not,
    Or,
    Raw,
    SelectStatement,
    UnionStatement,
    number_literal,
    render_statement,
    string_literal,
)
from repro.sqlgen.ast import Condition
from repro.storage.accel import AccelStore
from repro.xpath.ast import (
    AndExpr,
    ArithmeticExpr,
    Comparison,
    FunctionCall,
    LocationPath,
    NameTest,
    NodeKindTest,
    NotExpr,
    NumberLiteral,
    OrExpr,
    PathExpr,
    Step,
    StringLiteral,
    TextTest,
    UnionExpr,
    XPathExpr,
)
from repro.xpath.axes import Axis
from repro.xpath.parser import parse_xpath

#: Pre/post window per axis; ``{c}`` context alias, ``{t}`` target alias.
_WINDOWS = {
    Axis.CHILD: "{t}.par = {c}.pre",
    Axis.PARENT: "{t}.pre = {c}.par",
    Axis.DESCENDANT: "{t}.pre > {c}.pre AND {t}.post < {c}.post",
    Axis.DESCENDANT_OR_SELF: "{t}.pre >= {c}.pre AND {t}.post <= {c}.post",
    Axis.ANCESTOR: "{t}.pre < {c}.pre AND {t}.post > {c}.post",
    Axis.ANCESTOR_OR_SELF: "{t}.pre <= {c}.pre AND {t}.post >= {c}.post",
    Axis.FOLLOWING: "{t}.pre > {c}.pre AND {t}.post > {c}.post",
    Axis.PRECEDING: "{t}.pre < {c}.pre AND {t}.post < {c}.post",
    Axis.FOLLOWING_SIBLING: "{t}.par = {c}.par AND {t}.pre > {c}.pre",
    Axis.PRECEDING_SIBLING: "{t}.par = {c}.par AND {t}.pre < {c}.pre",
    Axis.SELF: "{t}.pre = {c}.pre",
}

_SQL_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


class AccelTranslator:
    """Translates the supported XPath subset to accel-table SQL."""

    def __init__(self) -> None:
        self._alias_seq = 0

    # -- public -----------------------------------------------------------

    def translate(
        self, expression: Union[str, XPathExpr]
    ) -> tuple[Union[SelectStatement, UnionStatement], str]:
        """Return ``(statement, projection)``."""
        ast = (
            parse_xpath(expression)
            if isinstance(expression, str)
            else expression
        )
        self._alias_seq = 0
        if isinstance(ast, UnionExpr):
            selects = []
            projections = set()
            for branch in ast.branches:
                if not isinstance(branch, PathExpr):
                    raise UnsupportedXPathError(
                        "only unions of location paths are supported"
                    )
                stmt, projection = self._translate_path(branch.path)
                selects.append(stmt)
                projections.add(projection)
            if len(projections) != 1:
                raise UnsupportedXPathError(
                    "union branches must project the same kind of result"
                )
            union = UnionStatement(branches=selects)
            union.order_by = ["doc_id", "pre"]
            for stmt in selects:
                stmt.order_by = []
            return union, projections.pop()
        if isinstance(ast, PathExpr):
            return self._translate_path(ast.path)
        raise UnsupportedXPathError(
            "top-level expression must be a location path or a union"
        )

    # -- backbone -----------------------------------------------------------

    def _translate_path(
        self, path: LocationPath
    ) -> tuple[SelectStatement, str]:
        stmt = SelectStatement(distinct=True)
        alias, projection, value = self._chain(stmt, path, context=None,
                                               outer_doc_alias=None)
        columns = [
            f"{alias}.pre AS id",
            f"{alias}.doc_id AS doc_id",
            f"{alias}.pre AS pre",
        ]
        if projection != "nodes":
            assert value is not None
            stmt.where.add(Raw(f"{value} IS NOT NULL"))
            columns.append(f"{value} AS value")
        stmt.columns = columns
        stmt.order_by = ["doc_id", "pre"]
        return stmt, projection

    def _chain(
        self,
        stmt: SelectStatement,
        path: LocationPath,
        context: Optional[str],
        outer_doc_alias: Optional[str],
    ) -> tuple[str, str, Optional[str]]:
        """Join one accel alias per step; returns (final alias,
        projection kind, value expression or None)."""
        steps = list(path.steps)
        if not steps:
            raise TranslationError("empty path has no accel translation")
        projection = "nodes"
        value_expr: Optional[str] = None
        tail_attr: Optional[Step] = None
        if isinstance(steps[-1].node_test, TextTest):
            projection = "text"
            steps = steps[:-1]
        elif steps[-1].axis is Axis.ATTRIBUTE:
            projection = "attribute"
            tail_attr = steps[-1]
            steps = steps[:-1]
        if not steps:
            raise TranslationError("projection-only paths are not supported")

        current = context
        first_from_root = path.absolute and context is None
        for index, step in enumerate(steps):
            if step.axis is Axis.ATTRIBUTE or isinstance(
                step.node_test, TextTest
            ):
                raise UnsupportedXPathError(
                    "attribute/text() steps only at the end of a path"
                )
            alias = self._fresh_alias()
            stmt.add_table("accel", alias)
            if current is None:
                if index == 0 and first_from_root:
                    if step.axis is Axis.CHILD:
                        stmt.where.add(Raw(f"{alias}.par IS NULL"))
                    elif step.axis not in (
                        Axis.DESCENDANT,
                        Axis.DESCENDANT_OR_SELF,
                    ):
                        raise UnsupportedXPathError(
                            f"axis {step.axis} cannot start an absolute path"
                        )
                    if outer_doc_alias is not None:
                        stmt.where.add(
                            Raw(f"{alias}.doc_id = {outer_doc_alias}.doc_id")
                        )
                else:
                    raise UnsupportedXPathError(
                        "relative path without a context"
                    )
            else:
                window = _WINDOWS.get(step.axis)
                if window is None:
                    raise UnsupportedXPathError(
                        f"axis {step.axis} has no accel window"
                    )
                stmt.where.add(Raw(window.format(c=current, t=alias)))
                if step.axis in (Axis.FOLLOWING, Axis.PRECEDING):
                    stmt.where.add(Raw(f"{alias}.doc_id = {current}.doc_id"))
            test = step.node_test
            if isinstance(test, NameTest) and not test.is_wildcard:
                stmt.where.add(
                    Raw(f"{alias}.name = {string_literal(test.name)}")
                )
            elif not isinstance(test, (NameTest, NodeKindTest)):
                raise UnsupportedXPathError(f"unsupported node test {test}")
            for predicate in step.predicates:
                stmt.where.add(self._predicate(stmt, predicate, alias))
            current = alias

        assert current is not None
        if projection == "text":
            value_expr = f"{current}.text"
        elif projection == "attribute":
            assert tail_attr is not None
            name = _attr_name(tail_attr)
            value_expr = self._attr_value_expr(current, name, numeric=False)
            for predicate in tail_attr.predicates:
                stmt.where.add(self._predicate(stmt, predicate, current))
        return current, projection, value_expr

    # -- predicates -----------------------------------------------------------

    def _predicate(
        self, stmt: SelectStatement, expr: XPathExpr, ctx: str
    ) -> Condition:
        if isinstance(expr, OrExpr):
            return Or(
                [
                    self._predicate(stmt, expr.left, ctx),
                    self._predicate(stmt, expr.right, ctx),
                ]
            )
        if isinstance(expr, AndExpr):
            conjunction = And()
            conjunction.add(self._predicate(stmt, expr.left, ctx))
            conjunction.add(self._predicate(stmt, expr.right, ctx))
            return conjunction
        if isinstance(expr, NotExpr):
            return Not(self._predicate(stmt, expr.operand, ctx))
        if isinstance(expr, UnionExpr):
            return Or(
                [self._predicate(stmt, sub, ctx) for sub in expr.branches]
            )
        if isinstance(expr, Comparison):
            return self._comparison(expr, ctx)
        if isinstance(expr, PathExpr):
            return self._existence(expr.path, ctx)
        if isinstance(expr, FunctionCall):
            raise UnsupportedXPathError(
                f"{expr.name}() has no accel translation"
            )
        if isinstance(expr, NumberLiteral):
            raise UnsupportedXPathError(
                "positional predicates have no accel translation"
            )
        raise UnsupportedXPathError(f"unsupported predicate {expr}")

    def _comparison(self, expr: Comparison, ctx: str) -> Condition:
        left, op, right = expr.left, expr.op, expr.right
        if not isinstance(left, PathExpr) and isinstance(right, PathExpr):
            left, right = right, left
            op = _FLIP[op]
        if isinstance(left, PathExpr) and isinstance(right, PathExpr):
            sub = SelectStatement(columns=["NULL"])
            value_left = self._value_of(sub, left.path, ctx)
            value_right = self._value_of(sub, right.path, ctx)
            sub.where.add(Raw(f"{value_left} {_SQL_OPS[op]} {value_right}"))
            return Exists(sub)
        if isinstance(left, PathExpr):
            literal, numeric = _literal_sql(right)
            shortcut = self._local_comparison(
                left.path, _SQL_OPS[op], literal, numeric, ctx
            )
            if shortcut is not None:
                return shortcut
            sub = SelectStatement(columns=["NULL"])
            value = self._value_of(sub, left.path, ctx, numeric=numeric)
            sub.where.add(Raw(f"{value} {_SQL_OPS[op]} {literal}"))
            return Exists(sub)
        return (
            Raw("1=1")
            if _static_compare(op, left, right)
            else Raw("1=0")
        )

    def _local_comparison(
        self,
        path: LocationPath,
        sql_op: str,
        literal: str,
        numeric: bool,
        ctx: str,
    ) -> Optional[Condition]:
        if path.absolute or len(path.steps) != 1:
            return None
        step = path.steps[0]
        if step.predicates:
            return None
        if step.axis is Axis.ATTRIBUTE:
            return self._attr_condition(
                ctx, _attr_name(step), sql_op, literal, numeric
            )
        if isinstance(step.node_test, TextTest):
            text = f"CAST({ctx}.text AS NUMERIC)" if numeric else f"{ctx}.text"
            return Raw(f"{text} {sql_op} {literal}")
        return None

    def _existence(self, path: LocationPath, ctx: str) -> Condition:
        if (
            not path.absolute
            and len(path.steps) == 1
            and path.steps[0].axis is Axis.ATTRIBUTE
            and not path.steps[0].predicates
        ):
            return self._attr_condition(
                ctx, _attr_name(path.steps[0]), None, None, False
            )
        sub = SelectStatement(columns=["NULL"])
        self._chain(
            sub,
            path,
            context=None if path.absolute else ctx,
            outer_doc_alias=ctx if path.absolute else None,
        )
        return Exists(sub)

    def _value_of(
        self,
        sub: SelectStatement,
        path: LocationPath,
        ctx: str,
        numeric: bool = False,
    ) -> str:
        alias, projection, value = self._chain(
            sub,
            path,
            context=None if path.absolute else ctx,
            outer_doc_alias=ctx if path.absolute else None,
        )
        if projection == "attribute":
            assert value is not None
            return (
                f"CAST({value} AS NUMERIC)" if numeric else value
            )
        text = f"{alias}.text"
        return f"CAST({text} AS NUMERIC)" if numeric else text

    # -- attributes -----------------------------------------------------------

    def _attr_value_expr(self, ctx: str, name: str, numeric: bool) -> str:
        value = (
            f"(SELECT value FROM accel_attr WHERE elem_pre = {ctx}.pre "
            f"AND name = {string_literal(name)})"
        )
        return f"CAST({value} AS NUMERIC)" if numeric else value

    def _attr_condition(
        self,
        ctx: str,
        name: str,
        sql_op: Optional[str],
        literal: Optional[str],
        numeric: bool,
    ) -> Condition:
        alias = self._fresh_alias("a")
        sub = SelectStatement(columns=["1"])
        sub.add_table("accel_attr", alias)
        sub.where.add(Raw(f"{alias}.elem_pre = {ctx}.pre"))
        sub.where.add(Raw(f"{alias}.name = {string_literal(name)}"))
        if sql_op is not None:
            value = (
                f"CAST({alias}.value AS NUMERIC)"
                if numeric
                else f"{alias}.value"
            )
            sub.where.add(Raw(f"{value} {sql_op} {literal}"))
        return Exists(sub)

    def _fresh_alias(self, prefix: str = "v") -> str:
        self._alias_seq += 1
        return f"{prefix}{self._alias_seq}"


class AccelEngine:
    """Query engine over an :class:`AccelStore`."""

    def __init__(self, store: AccelStore):
        self.store = store
        self.translator = AccelTranslator()

    def explain(self, expression: Union[str, XPathExpr]) -> str:
        """The accel-table SQL for ``expression``."""
        statement, _ = self.translator.translate(expression)
        return render_statement(statement)

    def execute(self, expression: Union[str, XPathExpr]) -> QueryResult:
        """Translate and run ``expression`` against the accel store."""
        statement, projection = self.translator.translate(expression)
        raw = self.store.db.query(render_statement(statement))
        rows = []
        for record in raw:
            pre, doc_id = record[0], record[1]
            value = record[3] if projection != "nodes" and len(record) > 3 else None
            rows.append(
                ResultRow(
                    pre,
                    doc_id,
                    # pre-order rank doubles as the document-order key.
                    int(pre).to_bytes(8, "big"),
                    value=None if value is None else str(value),
                )
            )
        return QueryResult(
            in_document_order(rows, ordered=False, distinct=False),
            projection,
        )


def _attr_name(step: Step) -> str:
    test = step.node_test
    if isinstance(test, NameTest) and not test.is_wildcard:
        return test.name
    raise UnsupportedXPathError("attribute access needs a concrete name")


def _literal_sql(expr: XPathExpr) -> tuple[str, bool]:
    value = _static_value(expr)
    if isinstance(value, float):
        return number_literal(value), True
    return string_literal(value), False


def _static_value(expr: XPathExpr) -> Union[float, str]:
    if isinstance(expr, NumberLiteral):
        return expr.value
    if isinstance(expr, StringLiteral):
        return expr.value
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
    raise UnsupportedXPathError(f"{expr} is not a literal")


def _static_compare(op: str, left: XPathExpr, right: XPathExpr) -> bool:
    a, b = _static_value(left), _static_value(right)
    if op in ("=", "!="):
        outcome = (
            float(a) == float(b)
            if isinstance(a, float) or isinstance(b, float)
            else a == b
        )
        return outcome if op == "=" else not outcome
    a_num, b_num = float(a), float(b)
    return {
        "<": a_num < b_num,
        "<=": a_num <= b_num,
        ">": a_num > b_num,
        ">=": a_num >= b_num,
    }[op]
