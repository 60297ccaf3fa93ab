"""SQL statement AST used by every translator in the library."""

from __future__ import annotations

from dataclasses import dataclass, field


class Condition:
    """Base class of WHERE-clause condition nodes."""


@dataclass
class Raw(Condition):
    """An opaque SQL boolean expression, e.g. ``B.par_id = A.id``."""

    sql: str


@dataclass
class Comparison(Condition):
    """``left op right`` over two rendered SQL expressions."""

    left: str
    op: str
    right: str


@dataclass
class And(Condition):
    """Conjunction; an empty conjunction is TRUE."""

    parts: list[Condition] = field(default_factory=list)

    def add(self, condition: Condition | None) -> None:
        """Append a condition, flattening nested ANDs recursively (so
        ``a AND (b AND c)`` renders without redundant parentheses);
        ``None`` is a no-op."""
        if condition is None:
            return
        if isinstance(condition, And):
            for part in condition.parts:
                self.add(part)
        else:
            self.parts.append(condition)


@dataclass
class Or(Condition):
    """Disjunction; an empty disjunction is FALSE."""

    parts: list[Condition] = field(default_factory=list)

    def add(self, condition: Condition | None) -> None:
        """Append a condition, flattening nested ORs recursively (so
        ``a OR (b OR c)`` renders without redundant parentheses);
        ``None`` is a no-op."""
        if condition is None:
            return
        if isinstance(condition, Or):
            for part in condition.parts:
                self.add(part)
        else:
            self.parts.append(condition)


@dataclass
class Not(Condition):
    """Negation of a condition."""

    operand: Condition


@dataclass
class Exists(Condition):
    """``EXISTS (subselect)`` — the paper's predicate-clause encoding."""

    subquery: "SelectStatement"


@dataclass
class TableRef:
    """One FROM-clause entry: ``table [AS] alias``."""

    table: str
    alias: str

    def sql(self) -> str:
        """The FROM-clause fragment for this entry."""
        if self.table == self.alias:
            return self.table
        return f"{self.table} {self.alias}"


@dataclass
class DerivedTable:
    """A FROM-clause entry that is a sub-select: ``(SELECT ...) alias``."""

    statement: "SelectStatement"
    alias: str


@dataclass
class SelectStatement:
    """A flat select with comma-joined tables, per the paper's examples."""

    columns: list[str] = field(default_factory=list)
    tables: list[TableRef | DerivedTable] = field(default_factory=list)
    where: And = field(default_factory=And)
    distinct: bool = False
    order_by: list[str] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)

    def add_table(self, table: str, alias: str | None = None) -> TableRef:
        """Add a FROM entry (idempotent per alias) and return its ref."""
        alias = alias or table
        for existing in self.tables:
            if existing.alias == alias:
                return existing
        ref = TableRef(table, alias)
        self.tables.append(ref)
        return ref

    def has_alias(self, alias: str) -> bool:
        """Whether the FROM clause already binds ``alias``."""
        return any(ref.alias == alias for ref in self.tables)

    def move_before(self, alias: str, reference: str) -> None:
        """Reorder the FROM clause so ``alias`` precedes ``reference``.

        FROM entries render with ``CROSS JOIN``, which SQLite treats as a
        binding-order directive: a Dewey *ancestor* join is only
        index-friendly when the ancestor side is scanned first and the
        descendant side range-probed, so the translator moves the target
        relation of upward joins in front of its context.  When
        ``reference`` is not in this statement (a correlated outer
        alias), ``alias`` moves to the front.
        """
        index = next(
            (i for i, ref in enumerate(self.tables) if ref.alias == alias),
            None,
        )
        if index is None:
            return
        ref = self.tables.pop(index)
        target = next(
            (
                i
                for i, existing in enumerate(self.tables)
                if existing.alias == reference
            ),
            0,
        )
        self.tables.insert(target, ref)


@dataclass
class UnionStatement:
    """``stmt UNION stmt ...`` — the paper's *SQL splitting* (Section 4.4);
    ``UNION ALL`` with ``all``."""

    branches: list[SelectStatement]
    order_by: list[str] = field(default_factory=list)
    all: bool = False
