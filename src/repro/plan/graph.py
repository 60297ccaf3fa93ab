"""One select as a join graph, and the two row proofs read off it.

:meth:`JoinGraph.of` views a :class:`~repro.plan.nodes.LogicalSelect`
as what its FROM clause and top-level conjunction join: the element
scans, their typed edges — a Table 2 structural join, a same-document
guard, a Section 4.2 ``par_id`` foreign key — and, per element scan,
the literal path set its resolved path filters allow (``None`` while no
filter on it is resolved).  Only the top-level conjunction joins; a
condition under OR, NOT or EXISTS only filters rows.

Two proofs are written once, on that view:

* :meth:`JoinGraph.unique_rows` — the select yields no row twice, so it
  needs no ``DISTINCT``;
* :meth:`JoinGraph.disjoint` — two selects never yield the same
  element.

:func:`existential_context` finds the other shape the view is read
for: an ordering-axis join whose context side reaches the output only
through that join, so the context rows are tested for existence only
and one grouped bound per document (or parent) can stand in for them.

``prune-distinct-order`` drops ``DISTINCT`` with the first and turns a
Section 4.4 ``UNION`` into ``UNION ALL`` with both
(:func:`union_all_sound`); the folder's union collapse,
``dedup-union-branches`` and the result path's claims
(``TranslationResult.distinct``) read the same proofs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.dewey.relations import bound_axes
from repro.plan.nodes import (
    AggregateCountCond,
    BoundCond,
    DocEqCond,
    ExistsCond,
    GroupedBound,
    LevelCond,
    LogicalSelect,
    NameFilterCond,
    ParentJoinCond,
    PathFilterCond,
    PathsLinkCond,
    PlanCond,
    RawCond,
    Scan,
    StructuralCond,
    child_conditions,
)

@dataclass(frozen=True)
class JoinEdge:
    """One join between two aliases of the top-level conjunction.

    ``kind`` is ``structural`` (``left`` the context, ``right`` the
    target), ``doc`` (same document), ``fk`` (``left`` the child,
    ``right`` its parent) or ``bound`` (``left`` a target, ``right``
    the grouped bound it meets)."""

    kind: str
    left: str
    right: str


@dataclass(frozen=True)
class JoinGraph:
    """The join-graph view of one select (see the module docstring)."""

    #: Element scans, in FROM order.
    scans: tuple[Scan, ...]
    edges: tuple[JoinEdge, ...]
    #: Element alias → the paths its rows can carry (the intersection
    #: of its top-level ``equality`` / ``in`` filters; ``None`` when it
    #: has none).
    paths: Mapping[str, Optional[frozenset[str]]]
    #: `Paths` scan aliases, and the ones a top-level link ties to an
    #: element row (one `Paths` row per element: a 1:1 link).
    paths_scans: tuple[str, ...]
    linked: frozenset[str]
    #: The element scan every projected column reads (``None`` when the
    #: columns read none, or several).
    output: Optional[str]

    @classmethod
    def of(cls, select: LogicalSelect) -> "JoinGraph":
        """The join graph of ``select``."""
        scans = tuple(scan for scan in select.scans if not scan.is_paths)
        edges: list[JoinEdge] = []
        paths: dict[str, Optional[frozenset[str]]] = {
            scan.alias: None for scan in scans
        }
        linked: set[str] = set()
        for part in select.where.parts:
            if isinstance(part, StructuralCond):
                edges.append(
                    JoinEdge("structural", part.context_alias, part.target_alias)
                )
            elif isinstance(part, DocEqCond):
                edges.append(JoinEdge("doc", part.left_alias, part.right_alias))
            elif isinstance(part, ParentJoinCond):
                edges.append(
                    JoinEdge("fk", part.child_alias, part.parent_alias)
                )
            elif isinstance(part, BoundCond):
                edges.append(
                    JoinEdge("bound", part.target_alias, part.bound_alias)
                )
            elif isinstance(part, PathsLinkCond):
                linked.add(part.paths_alias)
            elif isinstance(part, PathFilterCond) and part.alias in paths:
                literals = part.literal_paths()
                if literals is not None:
                    known = paths[part.alias]
                    allowed = frozenset(literals)
                    paths[part.alias] = (
                        allowed if known is None else known & allowed
                    )
        # The planner projects ``alias.id AS id`` first; every other
        # column must read no other scan.
        output: Optional[str] = None
        if select.columns:
            alias, _, rest = select.columns[0].partition(".")
            others = [s.alias + "." for s in select.scans if s.alias != alias]
            if rest == "id AS id" and alias in paths and not any(
                other in column
                for column in select.columns
                for other in others
            ):
                output = alias
        return cls(
            scans,
            tuple(edges),
            paths,
            tuple(scan.alias for scan in select.scans if scan.is_paths),
            frozenset(linked),
            output,
        )

    def table(self, alias: str) -> str:
        """The relation an element alias scans."""
        return next(scan.table for scan in self.scans if scan.alias == alias)

    def unique_rows(self) -> bool:
        """Whether the select yields no row twice without ``DISTINCT``.

        Every projected column reads the output row.  Every other
        element scan is reached *from the output* along child → parent
        foreign keys — each row names one parent id, so each hop adds at
        most one row — or target → grouped bound edges — a bound has one
        row per group key — and every `Paths` scan is a 1:1 link.  So
        each output row is in at most one joined row.  A chain the other
        way (parent → child) can repeat the output row once per child.
        """
        if self.output is None:
            return False
        if any(alias not in self.linked for alias in self.paths_scans):
            return False
        parents: dict[str, list[str]] = {}
        for edge in self.edges:
            if edge.kind in ("fk", "bound"):
                parents.setdefault(edge.left, []).append(edge.right)
        reached = {self.output}
        frontier = [self.output]
        while frontier:
            for parent in parents.get(frontier.pop(), ()):
                if parent not in reached:
                    reached.add(parent)
                    frontier.append(parent)
        return reached >= {scan.alias for scan in self.scans}

    def disjoint(self, other: "JoinGraph") -> bool:
        """Whether the two selects never output the same element.

        An element is stored in exactly one element relation and
        carries exactly one path, so outputs in different relations —
        never the case on Edge's single ``edge`` relation — or with
        disjoint literal path sets cannot meet."""
        if self.output is None or other.output is None:
            return False
        if self.table(self.output) != other.table(other.output):
            return True
        mine = self.paths[self.output]
        theirs = other.paths[other.output]
        return mine is not None and theirs is not None and not mine & theirs


_ALIAS_REF = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\.")


def condition_reads(condition: PlanCond) -> set[str]:
    """Every alias ``condition`` reads, correlated references inside its
    sub-selects included (a superset: a raw fragment counts every
    ``name.`` it spells)."""
    if isinstance(condition, RawCond):
        return set(_ALIAS_REF.findall(condition.sql))
    if isinstance(condition, ExistsCond):
        return select_reads(condition.subplan)
    if isinstance(condition, AggregateCountCond):
        return set().union(*map(select_reads, condition.subplans))
    if isinstance(condition, PathFilterCond):
        if condition.mode == "regex":
            return {condition.alias, condition.paths_alias}
        return {condition.alias}
    if isinstance(condition, PathsLinkCond):
        return {condition.owner_alias, condition.paths_alias}
    if isinstance(condition, NameFilterCond):
        return {condition.alias}
    if isinstance(condition, StructuralCond):
        return {condition.context_alias, condition.target_alias}
    if isinstance(condition, BoundCond):
        return {condition.bound_alias, condition.target_alias}
    if isinstance(condition, DocEqCond):
        return {condition.left_alias, condition.right_alias}
    if isinstance(condition, ParentJoinCond):
        return {condition.child_alias, condition.parent_alias}
    if isinstance(condition, LevelCond):
        return {condition.alias, condition.base_alias or condition.alias}
    return set().union(*map(condition_reads, child_conditions(condition)))


def select_reads(select: LogicalSelect) -> set[str]:
    """Every alias ``select`` reads: its own and the outer ones its
    columns and conditions correlate with."""
    reads = {scan.alias for scan in select.scans}
    for text in select.columns + select.order_by:
        reads.update(_ALIAS_REF.findall(text))
    for scan in select.scans:
        if isinstance(scan, GroupedBound):
            reads |= select_reads(scan.body)
    return reads | condition_reads(select.where)


def _components(
    aliases: Sequence[str], parts: Sequence[PlanCond]
) -> dict[str, str]:
    """Alias → a representative of its component, where each condition
    joins the aliases it reads."""
    root = {alias: alias for alias in aliases}

    def find(alias: str) -> str:
        while root[alias] != alias:
            alias = root[alias]
        return alias

    for part in parts:
        reads = sorted(condition_reads(part) & root.keys())
        for alias in reads[1:]:
            root[find(alias)] = find(reads[0])
    return {alias: find(alias) for alias in aliases}


def existential_context(
    select: LogicalSelect, output: str
) -> Optional[tuple[StructuralCond, frozenset[str]]]:
    """An ordering-axis join whose context side only has to exist.

    Drop one top-level ``preceding`` / ``following`` /
    ``preceding-sibling`` / ``following-sibling`` join (and, for the
    first two, the same-document guard it needs) from the select's join
    graph, where every other top-level condition joins the aliases it
    reads.  When that leaves exactly two components — the target's,
    holding ``output``, and the context's — no other condition reads
    both sides and no context row is projected: the context rows only
    decide *whether* a target row qualifies, never how often or with
    what.  Returns the join and the context component's aliases, or
    ``None``.  A positional predicate on the axis step would count the
    context's nodes per target and read both sides, and so would any
    other correlation.
    """
    scans = [scan.alias for scan in select.scans]
    parts = select.where.parts
    for join in parts:
        if not (
            isinstance(join, StructuralCond) and join.axis in bound_axes()
        ):
            continue
        pair = {join.context_alias, join.target_alias}
        guards = [
            part
            for part in parts
            if isinstance(part, DocEqCond)
            and {part.left_alias, part.right_alias} == pair
        ]
        if not guards and not join.axis.endswith("sibling"):
            continue  # compares across documents: no per-document bound
        component = _components(
            scans,
            [
                part
                for part in parts
                if part is not join
                and not any(part is guard for guard in guards)
            ],
        )
        target = component[join.target_alias]
        context = component[join.context_alias]
        if (
            len(set(component.values())) == 2
            and context != target
            and component[output] == target
        ):
            return join, frozenset(
                alias for alias in scans if component[alias] == context
            )
    return None


def unique_rows(select: LogicalSelect) -> bool:
    """:meth:`JoinGraph.unique_rows` of ``select``."""
    return JoinGraph.of(select).unique_rows()


def disjoint(a: LogicalSelect, b: LogicalSelect) -> bool:
    """:meth:`JoinGraph.disjoint` of two selects."""
    return JoinGraph.of(a).disjoint(JoinGraph.of(b))


def union_all_sound(branches: Sequence[LogicalSelect]) -> bool:
    """Whether a union of ``branches`` yields no row twice without
    removing duplicates: every branch has :func:`unique_rows`, and the
    outputs are pairwise :func:`disjoint` — each element is then in one
    row of one branch at most."""
    graphs = [JoinGraph.of(branch) for branch in branches]
    return all(graph.unique_rows() for graph in graphs) and all(
        graphs[i].disjoint(graphs[j])
        for i in range(len(graphs))
        for j in range(i + 1, len(graphs))
    )
