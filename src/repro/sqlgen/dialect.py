"""SQL dialects: the backend-specific half of statement lowering.

The logical plan (:mod:`repro.plan`) is backend-neutral; everything that
depends on the concrete relational system is funnelled through a
:class:`Dialect` when the plan is lowered to a :class:`~repro.sqlgen.
SelectStatement`:

* literal and identifier quoting,
* the regular-expression predicate call (the paper uses Oracle's
  ``REGEXP_LIKE``; our SQLite registers a ``regexp_like`` user function
  of the same shape),
* Dewey-comparison rendering (Table 2's lexicographic conditions, the
  ``length(dewey_pos)`` level arithmetic, and the descendant
  upper-bound concatenation), and
* planner hints such as SQLite's unary-``+`` index-avoidance trick on
  cross-document equality columns.

:class:`AnsiDialect` is the generic base — portable SQL with no hints —
and :class:`SQLiteDialect` the dialect every shipped engine uses today.
A future backend (the ROADMAP's multi-backend direction) subclasses
:class:`AnsiDialect` and overrides only what differs.
"""

from __future__ import annotations

import re

from repro.dewey.relations import sql_condition
from repro.sqlgen.render import blob_literal, number_literal, string_literal

_SAFE_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class AnsiDialect:
    """Generic ANSI-flavoured SQL rendering (no backend hints)."""

    #: Dialect name, used in cache fingerprints and ``explain`` output.
    name: str = "ansi"

    # -- quoting -----------------------------------------------------------

    def quote_identifier(self, identifier: str) -> str:
        """Quote ``identifier`` when it is not a plain SQL name."""
        if _SAFE_IDENTIFIER.match(identifier):
            return identifier
        return '"' + identifier.replace('"', '""') + '"'

    def string_literal(self, value: str) -> str:
        """A safely quoted string literal (ANSI quote doubling)."""
        return string_literal(value)

    def number_literal(self, value: float) -> str:
        """A numeric literal; integers render without a decimal point."""
        return number_literal(value)

    def blob_literal(self, value: bytes) -> str:
        """A binary-string literal (``X'..'`` hex form)."""
        return blob_literal(value)

    # -- path filters ------------------------------------------------------

    def regexp_match(self, expression: str, pattern: str) -> str:
        """Boolean SQL testing ``expression`` against a regex pattern."""
        return f"REGEXP_LIKE({expression}, {self.string_literal(pattern)})"

    def path_equality(self, expression: str, path: str) -> str:
        """Boolean SQL testing ``expression`` against a literal path."""
        return f"{expression} = {self.string_literal(path)}"

    def path_membership(
        self, paths_alias: str, paths: "tuple[str, ...]"
    ) -> str:
        """Boolean SQL restricting the `Paths` row bound to
        ``paths_alias`` to a literal path set.  A semi-join on the row
        id: the list probes the unique index on ``paths.path`` once per
        statement, where ``path IN (...)`` would compare strings once
        per joined element row.  The literals stay strings, so one
        statement runs unchanged on every shard."""
        rendered = ", ".join(self.string_literal(p) for p in paths)
        return (
            f"{paths_alias}.id IN "
            f"(SELECT id FROM paths WHERE path IN ({rendered}))"
        )

    # -- Dewey comparisons -------------------------------------------------

    def dewey_axis_condition(
        self, axis: str, context_alias: str, target_alias: str
    ) -> str:
        """Table 2 structural condition joining target to context rows."""
        return sql_condition(axis, context_alias, target_alias)

    def dewey_level(self, alias: str) -> str:
        """SQL expression for the encoded length of a Dewey position."""
        return f"length({alias}.dewey_pos)"

    # -- planner hints -----------------------------------------------------

    def indexed_column(self, column: str) -> str:
        """Render a column the planner wants *kept out* of index
        selection (no-op in ANSI SQL)."""
        return column

    def doc_equality(self, left_alias: str, right_alias: str) -> str:
        """Same-document guard between two relation aliases."""
        left = self.indexed_column(f"{left_alias}.doc_id")
        right = self.indexed_column(f"{right_alias}.doc_id")
        return f"{left} = {right}"


class SQLiteDialect(AnsiDialect):
    """The dialect of :mod:`repro.storage.database` connections.

    Differences from the ANSI base:

    * regex filtering calls the registered ``regexp_like`` user function
      (lower-case, matching the paper's Oracle call shape),
    * same-document equality prefixes both sides with unary ``+`` so
      SQLite's planner never picks the low-selectivity ``doc_id`` index
      over the Dewey/path indexes.
    """

    name = "sqlite"

    def regexp_match(self, expression: str, pattern: str) -> str:
        return f"regexp_like({expression}, {self.string_literal(pattern)})"

    def indexed_column(self, column: str) -> str:
        return f"+{column}"


#: The default dialect of every shipped engine.
DEFAULT_DIALECT = SQLiteDialect()
