"""Mapping-specific halves of the PPF translation.

The planner (Algorithm 1) is mapping-agnostic; everything that differs
between the schema-aware mapping of Section 3 and the Edge-like mapping
of Section 5.1 sits behind :class:`StoreAdapter`:

* candidate relations for a fragment's prominent step,
* access to text and attribute values (columns of the element's
  relation vs. the central ``attrs`` relation).

The Section 4.5 decision whether a `Paths` join is needed at all lives
in the ``paths-join-elimination`` optimizer pass
(:mod:`repro.plan.passes`); the schema-aware adapter only exposes the
marking the pass consults (``marking`` attribute), plus the
``path_filter_optimization`` ablation switch selecting the default pass
set.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.pathregex import (
    PatternStep,
    resolve_backward,
    resolve_forward,
    resolve_order_step,
)
from repro.plan.nodes import (
    ExistsCond,
    FalseCond,
    LogicalSelect,
    PlanCond,
    RawCond,
)
from repro.sqlgen import string_literal
from repro.stats.summary import PathSummary
from repro.storage.edge import EdgeStore
from repro.storage.schema_aware import RelationInfo, ShreddedStore
from repro.xpath.ast import Step


@dataclass(frozen=True)
class Candidate:
    """One candidate relation for a prominent step."""

    table: str
    #: Element names this candidate may hold for the step (``None`` in the
    #: schema-oblivious mapping, where names are open).
    names: Optional[frozenset[str]]
    #: Explicit element-name restriction to emit (shared relations /
    #: Edge name column), or ``None``.
    name_filter: Optional[tuple[str, ...]] = None
    #: Name of the column carrying the element name, when a restriction
    #: is needed (``elname`` for shared relations, ``name`` for Edge).
    name_column: Optional[str] = None


def _value_expr(column: str, numeric: bool) -> str:
    """A stored value as a comparand: values are stored as the text the
    document had, so a comparison against a number casts."""
    return f"CAST({column} AS NUMERIC)" if numeric else column


class StoreAdapter(abc.ABC):
    """Mapping-specific operations used by the planner."""

    #: True when schema information (and hence Section 4.5) is available.
    schema_aware: bool

    @abc.abstractmethod
    def forward_names(
        self,
        pattern: Sequence[PatternStep],
        start_names: Optional[frozenset[str]],
        anchored: bool,
    ) -> Optional[frozenset[str]]:
        """Possible element names of a forward fragment's prominent step;
        ``None`` when unconstrained (schema-oblivious)."""

    @abc.abstractmethod
    def backward_names(
        self, steps: Sequence[Step], context_names: Optional[frozenset[str]]
    ) -> Optional[frozenset[str]]:
        """Possible names of a backward fragment's prominent step."""

    @abc.abstractmethod
    def order_names(
        self, step: Step, context_names: Optional[frozenset[str]]
    ) -> Optional[frozenset[str]]:
        """Possible names selected by an order-axis single-step PPF."""

    @abc.abstractmethod
    def candidates(
        self,
        names: Optional[frozenset[str]],
        test_name: Optional[str],
    ) -> list[Candidate]:
        """Candidate relations covering ``names`` (splitting point —
        Section 4.4).  ``test_name`` is the prominent step's concrete name
        test, used for index-friendly name restrictions."""

    @abc.abstractmethod
    def text_expr(
        self, candidate: Candidate, alias: str, numeric: bool
    ) -> Optional[str]:
        """SQL expression for the element text value, or ``None`` when the
        relation provably stores no text."""

    @abc.abstractmethod
    def attr_expr(
        self, candidate: Candidate, alias: str, attr: str, numeric: bool
    ) -> Optional[str]:
        """SQL expression for an attribute value usable in the outer
        statement, or ``None`` when no candidate element declares it."""

    @abc.abstractmethod
    def attr_condition(
        self,
        candidate: Candidate,
        alias: str,
        attr: str,
        op: Optional[str],
        literal_sql: Optional[str],
        numeric: bool,
        fresh_alias: Callable[[str], str],
    ) -> PlanCond:
        """Plan condition for ``@attr`` existence (``op is None``) or
        comparison against a rendered literal."""


# ---------------------------------------------------------------------------
# Schema-aware adapter
# ---------------------------------------------------------------------------


class SchemaAwareAdapter(StoreAdapter):
    """Adapter over a :class:`ShreddedStore` (paper Sections 3–4.5)."""

    schema_aware = True

    def __init__(
        self, store: ShreddedStore, path_filter_optimization: bool = True
    ):
        self.store = store
        self.schema = store.schema
        self.mapping = store.mapping
        #: The Section 4.5 marking the ``paths-join-elimination`` pass
        #: consults (U-P / F-P / I-P label classification).
        self.marking = store.marking
        #: When False, Algorithm 1 is followed literally (every PPF joins
        #: `Paths`) — the Section 4.5 ablation switch, implemented by
        #: removing the elimination pass from the default pipeline.
        self.path_filter_optimization = path_filter_optimization
        db = getattr(store, "db", None)
        #: Longest statement the store's connection accepts, read once
        #: here (translation may run on threads the connection refuses).
        #: ``None`` over a :class:`~repro.serving.shards.ShardedStore`,
        #: whose statements run on the workers' connections.
        self.sql_length_limit: Optional[int] = (
            db.sql_length_limit if db is not None else None
        )

    @property
    def path_summary(self) -> "Optional[PathSummary]":
        """The store's path summary, consulted by the costed optimizer
        passes (``None`` until the store has collected statistics, and
        again whenever they go stale).  Duck-typed because this adapter
        also fronts :class:`~repro.serving.shards.ShardedStore` (which
        merges its per-shard summaries)."""
        accessor = getattr(self.store, "path_summary", None)
        return accessor() if callable(accessor) else None

    # -- name resolution -----------------------------------------------------

    def forward_names(self, pattern, start_names, anchored):
        start = None if anchored else (
            set(start_names) if start_names is not None
            else self.schema.reachable_from_roots()
        )
        return frozenset(resolve_forward(self.schema, pattern, start))

    def backward_names(self, steps, context_names):
        context = (
            set(context_names)
            if context_names is not None
            else self.schema.reachable_from_roots()
        )
        return frozenset(resolve_backward(self.schema, steps, context))

    def order_names(self, step, context_names):
        context = (
            set(context_names)
            if context_names is not None
            else self.schema.reachable_from_roots()
        )
        return frozenset(resolve_order_step(self.schema, step, context))

    # -- candidates --------------------------------------------------------------

    def candidates(self, names, test_name):
        assert names is not None
        result = []
        for info in self.mapping.relations_for(names):
            covered = frozenset(
                n for n in info.element_names if n in names
            )
            if info.shared and covered != frozenset(info.element_names):
                result.append(
                    Candidate(
                        info.table,
                        covered,
                        name_filter=tuple(sorted(covered)),
                        name_column="elname",
                    )
                )
            else:
                result.append(Candidate(info.table, covered))
        return result

    def relation(self, candidate: Candidate) -> RelationInfo:
        """The mapping relation behind a candidate."""
        return self.mapping.relations[candidate.table]

    # -- values -------------------------------------------------------------------

    def text_expr(self, candidate, alias, numeric):
        info = self.relation(candidate)
        if info.text_kind is None:
            return None
        return _value_expr(f"{alias}.text", numeric)

    def attr_expr(self, candidate, alias, attr, numeric):
        info = self.relation(candidate)
        if attr not in info.attr_columns:
            return None
        column, _ = info.attr_columns[attr]
        return _value_expr(f"{alias}.{column}", numeric)

    def attr_condition(
        self, candidate, alias, attr, op, literal_sql, numeric, fresh_alias
    ):
        expr = self.attr_expr(candidate, alias, attr, numeric)
        if expr is None:
            return FalseCond()
        if op is None:
            return RawCond(f"{expr} IS NOT NULL")
        return RawCond(f"{expr} {op} {literal_sql}")


# ---------------------------------------------------------------------------
# Edge (schema-oblivious) adapter
# ---------------------------------------------------------------------------


class EdgeAdapter(StoreAdapter):
    """Adapter over an :class:`EdgeStore` (paper Section 5.1).

    No schema is available: every fragment resolves to the central
    ``edge`` relation, the `Paths` join is always required, and attribute
    access goes through the separate ``attrs`` relation (footnote 3)."""

    schema_aware = False

    def __init__(self, store: EdgeStore):
        self.store = store

    def forward_names(self, pattern, start_names, anchored):
        return None

    def backward_names(self, steps, context_names):
        return None

    def order_names(self, step, context_names):
        return None

    def candidates(self, names, test_name):
        if test_name is not None:
            return [
                Candidate(
                    "edge",
                    None,
                    name_filter=(test_name,),
                    name_column="name",
                )
            ]
        return [Candidate("edge", None)]

    def text_expr(self, candidate, alias, numeric):
        return _value_expr(f"{alias}.text", numeric)

    def attr_expr(self, candidate, alias, attr, numeric):
        value = f"(SELECT value FROM attrs WHERE elem_id = {alias}.id AND name = {string_literal(attr)})"
        return _value_expr(value, numeric)

    def attr_condition(
        self, candidate, alias, attr, op, literal_sql, numeric, fresh_alias
    ):
        inner_alias = fresh_alias("attrs")
        sub = LogicalSelect(columns=["1"])
        sub.add_scan("attrs", inner_alias)
        sub.where.add(RawCond(f"{inner_alias}.elem_id = {alias}.id"))
        sub.where.add(
            RawCond(f"{inner_alias}.name = {string_literal(attr)}")
        )
        if op is not None:
            value = _value_expr(f"{inner_alias}.value", numeric)
            sub.where.add(RawCond(f"{value} {op} {literal_sql}"))
        return ExistsCond(sub)
