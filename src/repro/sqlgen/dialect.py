"""SQL dialects: the backend-specific half of statement lowering.

The logical plan (:mod:`repro.plan`) is backend-neutral; everything that
depends on the concrete relational system is funnelled through a
:class:`Dialect` when the plan is lowered to a :class:`~repro.sqlgen.
SelectStatement`:

* literal and identifier quoting,
* the regular-expression predicate call (the paper uses Oracle's
  ``REGEXP_LIKE``; our SQLite registers a ``regexp_like`` user function
  of the same shape),
* the semi-join a resolved path filter lowers to, and
* Dewey-comparison rendering (Table 2's lexicographic conditions, the
  ``length(dewey_pos)`` level arithmetic, and the descendant
  upper-bound concatenation).

:class:`AnsiDialect` is the generic base and :class:`SQLiteDialect` the
dialect every shipped engine uses today.
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

    def path_equality(self, owner_alias: str, path: str) -> str:
        """Boolean SQL restricting the element rows of ``owner_alias``
        to one literal path: Table 3's equality, as a test of the
        row's ``path_id`` against an uncorrelated scalar subquery, so
        the statement needs no `Paths` row per element."""
        return (
            f"{owner_alias}.path_id = "
            f"(SELECT id FROM paths WHERE path = {self.string_literal(path)})"
        )

    def path_membership(
        self, owner_alias: str, paths: "tuple[str, ...]"
    ) -> str:
        """Boolean SQL restricting the element rows of ``owner_alias``
        to a literal path set.  A semi-join on the path id: the list
        probes the unique index on ``paths.path`` once per statement,
        and each element row is tested against the ids it found.  The
        literals stay strings, not ids, so one statement runs unchanged
        on every shard."""
        rendered = ", ".join(self.string_literal(p) for p in paths)
        return (
            f"{owner_alias}.path_id IN "
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

    def doc_equality(self, left_alias: str, right_alias: str) -> str:
        """Same-document guard between two relation aliases: the
        leading column of the ``(doc_id, dewey_pos, path_id)`` index a
        structural join probes."""
        return f"{left_alias}.doc_id = {right_alias}.doc_id"


class SQLiteDialect(AnsiDialect):
    """The dialect of :mod:`repro.storage.database` connections.

    The one difference from the ANSI base: regex filtering calls the
    registered ``regexp_like`` user function (lower-case, matching the
    paper's Oracle call shape).
    """

    name = "sqlite"

    def regexp_match(self, expression: str, pattern: str) -> str:
        return f"regexp_like({expression}, {self.string_literal(pattern)})"


#: The default dialect of every shipped engine.
DEFAULT_DIALECT = SQLiteDialect()
