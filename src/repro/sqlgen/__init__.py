"""A small relational-algebra-free SQL statement model.

The PPF translator (and the baseline translators) build
:class:`SelectStatement` objects — flat ``SELECT DISTINCT ... FROM r1,
r2, ... WHERE c1 AND c2 ... ORDER BY ...`` statements with a condition
*tree* (AND/OR/NOT/EXISTS) exactly mirroring the paper's Tables 3–6 — and
render them to SQLite SQL text.
"""

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
    TableRef,
    UnionStatement,
)
from repro.sqlgen.dialect import (
    DEFAULT_DIALECT,
    AnsiDialect,
    SQLiteDialect,
)
from repro.sqlgen.render import (
    blob_literal,
    number_literal,
    render_condition,
    render_statement,
    string_literal,
)

__all__ = [
    "And",
    "AnsiDialect",
    "Comparison",
    "Condition",
    "DEFAULT_DIALECT",
    "DerivedTable",
    "Exists",
    "SQLiteDialect",
    "Not",
    "Or",
    "Raw",
    "SelectStatement",
    "TableRef",
    "UnionStatement",
    "blob_literal",
    "number_literal",
    "render_condition",
    "render_statement",
    "string_literal",
]
