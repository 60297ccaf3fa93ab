"""Rendering of the SQL AST to SQLite text, plus literal helpers.

Literals are inlined (the paper's statements inline them too); strings are
quote-doubled, blobs use ``X'..'`` hex literals.  Regular-expression path
filters render as calls to the ``regexp_like(value, pattern)`` user
function that :class:`repro.storage.database.Database` registers, matching
the paper's Oracle ``REGEXP_LIKE`` call shape.

A statement lowered from a plan template carries named parameters
(:func:`parameter_sql`) where an XPath literal would stand.  It renders
two ways: as it is, for execution with the values bound, or — given
those values — with each parameter replaced by the literal it stands
for, which is the self-contained text a user can paste into ``sqlite3``.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional, Union

from repro.sqlgen.ast import (
    And,
    Comparison,
    Condition,
    DerivedTable,
    Exists,
    Not,
    Or,
    Raw,
    SelectStatement,
    UnionStatement,
)


def string_literal(value: str) -> str:
    """A safely quoted SQL string literal."""
    return "'" + value.replace("'", "''") + "'"


def number_literal(value: float) -> str:
    """A SQL numeric literal (integers render without a decimal point)."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def blob_literal(value: bytes) -> str:
    """A SQLite hex blob literal, e.g. ``X'000001'``."""
    return "X'" + value.hex().upper() + "'"


#: What a named parameter is bound to.
BoundValue = Union[int, float, str]
#: Parameter name (without the colon) → bound value.
Parameters = Mapping[str, BoundValue]


def parameter_name(index: int) -> str:
    """Name of the parameter standing for slot ``index``."""
    return f"v{index}"


def parameter_sql(index: int) -> str:
    """The named SQLite parameter standing for slot ``index``."""
    return ":" + parameter_name(index)


def number_value(value: float) -> Union[int, float]:
    """What to bind where :func:`number_literal` would have written
    ``value``: an ``int`` when the literal is printed without a decimal
    point and SQLite reads it as an INTEGER, a ``float`` otherwise, so
    the bound value has the literal's storage class (compared with a
    text-affinity column, ``19`` and ``19.0`` are different strings)."""
    if value == int(value) and -(2**63) <= value < 2**63:
        return int(value)
    return value


def value_literal(value: BoundValue) -> str:
    """The SQL literal a bound value stands for."""
    if isinstance(value, str):
        return string_literal(value)
    return number_literal(value)


# A quoted string or identifier (left alone), or a named parameter.
_PARAMETER = re.compile(r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"|:(v\d+)")


def _inline(sql: str, parameters: Parameters) -> str:
    """``sql`` with every named parameter outside quotes replaced by
    the literal of its value."""

    def literal(match: "re.Match[str]") -> str:
        name = match.group(1)
        return match.group() if name is None else value_literal(
            parameters[name]
        )

    return _PARAMETER.sub(literal, sql)


def render_condition(
    condition: Condition,
    indent: int = 0,
    parameters: Optional[Parameters] = None,
) -> str:
    """Render one condition node; composite nodes parenthesize children.
    With ``parameters``, named parameters render as their values'
    literals."""
    if isinstance(condition, Raw):
        if parameters:
            return _inline(condition.sql, parameters)
        return condition.sql
    if isinstance(condition, Comparison):
        return f"{condition.left} {condition.op} {condition.right}"
    if isinstance(condition, And):
        if not condition.parts:
            return "1=1"
        rendered = [
            render_condition(p, indent, parameters) for p in condition.parts
        ]
        if len(rendered) == 1:
            return rendered[0]
        return "(" + " AND ".join(rendered) + ")"
    if isinstance(condition, Or):
        if not condition.parts:
            return "1=0"
        rendered = [
            render_condition(p, indent, parameters) for p in condition.parts
        ]
        if len(rendered) == 1:
            return rendered[0]
        return "(" + " OR ".join(rendered) + ")"
    if isinstance(condition, Not):
        return "NOT " + _parenthesized(condition.operand, indent, parameters)
    if isinstance(condition, Exists):
        inner = render_select(condition.subquery, indent + 1, parameters)
        return f"EXISTS ({inner})"
    raise TypeError(f"unknown condition node {condition!r}")


def _parenthesized(
    condition: Condition, indent: int, parameters: Optional[Parameters]
) -> str:
    rendered = render_condition(condition, indent, parameters)
    if rendered.startswith("(") or rendered.startswith("EXISTS"):
        return rendered
    return f"({rendered})"


def render_select(
    statement: SelectStatement,
    indent: int = 0,
    parameters: Optional[Parameters] = None,
) -> str:
    """Render one SELECT without a trailing semicolon."""
    head = "SELECT DISTINCT" if statement.distinct else "SELECT"
    columns = ", ".join(statement.columns) if statement.columns else "*"
    # CROSS JOIN pins the binding order (semantically identical to a
    # comma join in SQLite); the translator ordered the FROM clause so
    # each Dewey range probe sees its driving relation first.
    tables = " CROSS JOIN ".join(
        f"({render_select(ref.statement, indent + 1, parameters)}) {ref.alias}"
        if isinstance(ref, DerivedTable)
        else ref.sql()
        for ref in statement.tables
    )
    parts = [f"{head} {columns}", f"FROM {tables}"]
    if statement.where.parts:
        where = render_condition(statement.where, indent, parameters)
        # Drop the outermost parentheses of a top-level conjunction for
        # readability.
        if (
            len(statement.where.parts) > 1
            and where.startswith("(")
            and where.endswith(")")
        ):
            where = where[1:-1]
        parts.append(f"WHERE {where}")
    if statement.group_by:
        parts.append("GROUP BY " + ", ".join(statement.group_by))
    if statement.order_by:
        parts.append("ORDER BY " + ", ".join(statement.order_by))
    pad = "\n" + "  " * indent
    return pad.join(parts)


def render_statement(
    statement: SelectStatement | UnionStatement,
    indent: int = 0,
    parameters: Optional[Parameters] = None,
) -> str:
    """Render a statement, including UNION splits.  With ``parameters``
    the text is self-contained: each named parameter is written as the
    literal of its value."""
    if isinstance(statement, SelectStatement):
        return render_select(statement, indent, parameters)
    keyword = "\nUNION ALL\n" if statement.all else "\nUNION\n"
    rendered = keyword.join(
        render_select(branch, indent, parameters)
        for branch in statement.branches
    )
    if statement.order_by:
        rendered += "\nORDER BY " + ", ".join(statement.order_by)
    return rendered
