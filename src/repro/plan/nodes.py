"""The logical plan IR sitting between XPath and SQL.

The planner (:mod:`repro.plan.planner`) compiles a parsed XPath
expression into a :class:`QueryPlan` — a union of :class:`LogicalSelect`
branches whose WHERE clauses are *structured* condition trees.  Nothing
here is SQL text yet: path filters carry their pattern steps, structural
joins carry their axis, and Dewey level arithmetic carries its offsets,
so optimizer passes (:mod:`repro.plan.passes`) can inspect and rewrite
them before :mod:`repro.plan.lowering` renders the survivors through a
:class:`~repro.sqlgen.dialect.AnsiDialect`.

Node ↔ paper mapping (see DESIGN.md for the longer version):

* :class:`Scan` / :class:`PathsScan` rows in :attr:`LogicalSelect.scans`
  — the relations Algorithm 1 accumulates per PPF (Section 4.1);
* :class:`PathFilterCond` + :class:`PathsLinkCond` — the Table 1 path
  regex over the `Paths` relation (Sections 4.3–4.4), and the raw
  material of the Section 4.5 elimination pass;
* :class:`StructuralCond` / :class:`LevelCond` / :class:`DocEqCond` —
  the Table 2 Dewey conditions with their level pinning;
* :class:`ParentJoinCond` — the Section 4.2 ``par_id`` foreign-key join;
* :class:`GroupedBound` + :class:`BoundCond` — an ordering-axis join
  whose context side is only tested for existence, as one bound per
  document (or parent);
* :class:`ExistsCond` — predicate clauses as correlated sub-selects
  (Table 5);
* :class:`PlanUnion` — SQL splitting (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

if TYPE_CHECKING:  # imported lazily to keep the plan layer import-light
    from repro.core.pathregex import PatternStep


class PlanCond:
    """Base class of logical WHERE-clause condition nodes."""

    def brief(self) -> str:
        """One-line description used by ``explain --plan``."""
        return type(self).__name__


@dataclass
class TrueCond(PlanCond):
    """Statically true (folded away before lowering)."""

    def brief(self) -> str:
        return "true"


@dataclass
class FalseCond(PlanCond):
    """Statically false; a top-level occurrence kills its branch."""

    def brief(self) -> str:
        return "false"


@dataclass
class RawCond(PlanCond):
    """A dialect-neutral SQL boolean (value comparisons, FK equijoins)."""

    sql: str

    def brief(self) -> str:
        return self.sql


@dataclass
class AndCond(PlanCond):
    """Conjunction; empty means TRUE."""

    parts: list[PlanCond] = field(default_factory=list)

    def add(self, condition: Optional[PlanCond]) -> None:
        """Append, flattening nested conjunctions; ``None`` is a no-op."""
        if condition is None:
            return
        if isinstance(condition, AndCond):
            for part in condition.parts:
                self.add(part)
        else:
            self.parts.append(condition)

    def brief(self) -> str:
        return "and"


@dataclass
class OrCond(PlanCond):
    """Disjunction; empty means FALSE."""

    parts: list[PlanCond] = field(default_factory=list)

    def brief(self) -> str:
        return "or"


@dataclass
class NotCond(PlanCond):
    """Negation."""

    operand: PlanCond

    def brief(self) -> str:
        return "not"


@dataclass
class ExistsCond(PlanCond):
    """``EXISTS`` over a correlated sub-select (Table 5 predicates)."""

    subplan: "LogicalSelect"

    def brief(self) -> str:
        scans = ", ".join(s.alias for s in self.subplan.scans)
        return f"exists({scans})"


@dataclass
class PathFilterCond(PlanCond):
    """A Table 1 path filter on the element rows of ``alias``.

    The planner always emits these in ``regex`` mode with the raw
    pattern steps attached (Algorithm 1 followed literally): the regex
    reads ``paths_alias.path``, the `Paths` row a :class:`PathsLinkCond`
    joins to ``alias``.  The Section 4.5 elimination pass may drop the
    node entirely, and two passes may replace the regex by the literal
    paths it denotes — ``equality`` mode with a ``literal`` payload for
    one path, ``in`` mode with ``literals`` for several.  The
    regex→equality pass does so from the pattern or the schema marking
    alone; the costed access-strategy pass from the store's exact path
    summary (every stored path the regex matches, for finite and I-P
    labels alike — sound only because a stale summary is never handed
    out).  A filter in a literal mode tests ``alias.path_id`` against a
    subquery over the path strings and needs no `Paths` row, so the
    pass that resolved it takes the scan and its link out of the plan
    (``paths_alias`` then names nothing).  The pattern stays attached
    in every mode: it is what the literals stand for — except on a
    filter ``dedup-union-branches`` widened with the literals of the
    branches it merged, which keeps the first branch's.  ``names`` is the
    candidate's covered element names (``None`` in the
    schema-oblivious mapping).
    """

    alias: str
    paths_alias: str
    pattern: tuple["PatternStep", ...]
    anchored: bool
    names: Optional[frozenset[str]] = None
    mode: str = "regex"  #: ``regex``, ``equality`` or ``in``
    literal: Optional[str] = None
    literals: Optional[tuple[str, ...]] = None

    def literal_paths(self) -> Optional[tuple[str, ...]]:
        """The literal path set of an ``equality``/``in`` filter
        (``None`` in ``regex`` mode)."""
        if self.mode == "equality":
            return (self.literal,) if self.literal is not None else ()
        if self.mode == "in":
            return self.literals or ()
        return None

    def set_literal_paths(self, paths: tuple[str, ...]) -> None:
        """Switch to ``equality`` (one path) or ``in`` (several)."""
        if len(paths) == 1:
            self.mode, self.literal, self.literals = "equality", paths[0], None
        else:
            self.mode, self.literal, self.literals = "in", None, paths

    def brief(self) -> str:
        if self.mode == "equality":
            return f"path-filter {self.alias} {self.literal or '?'}"
        if self.mode == "in":
            return f"path-filter {self.alias} in[{len(self.literals or ())}]"
        return f"path-filter {self.paths_alias} ~regex"


@dataclass
class PathsLinkCond(PlanCond):
    """The FK link ``owner.path_id = paths_alias.id`` behind a regex
    filter."""

    owner_alias: str
    paths_alias: str

    def brief(self) -> str:
        return f"paths-link {self.owner_alias}→{self.paths_alias}"


@dataclass
class NameFilterCond(PlanCond):
    """Element-name restriction on a shared relation / Edge name column."""

    alias: str
    column: str
    names: tuple[str, ...]

    def brief(self) -> str:
        return f"name {self.alias}.{self.column} in {list(self.names)}"


@dataclass
class StructuralCond(PlanCond):
    """A Table 2 Dewey structural join between two relation aliases."""

    axis: str
    context_alias: str
    target_alias: str

    def brief(self) -> str:
        return (
            f"structural {self.axis}"
            f"({self.context_alias}, {self.target_alias})"
        )


@dataclass
class ParentJoinCond(PlanCond):
    """The Section 4.2 foreign-key equijoin of a single child/parent
    step: ``child_alias.par_id = parent_alias.id``.  Every ``child`` row
    names one parent id, so the join adds at most one ``parent`` row to
    it.  ``upward`` writes it from the parent's side, ``parent.id =
    child.par_id``, as a ``parent::`` step does."""

    child_alias: str
    parent_alias: str
    upward: bool = False

    def brief(self) -> str:
        return f"parent-fk {self.child_alias}→{self.parent_alias}"


@dataclass
class BoundCond(PlanCond):
    """An ordering-axis join of ``target_alias`` to the bound row of its
    group in the :class:`GroupedBound` ``bound_alias``: the group key
    matches, and the target stands in ``axis`` to the group's extreme
    context row (hence to some context row)."""

    axis: str
    bound_alias: str
    target_alias: str

    def brief(self) -> str:
        return f"bound {self.axis}({self.bound_alias}, {self.target_alias})"


@dataclass
class DocEqCond(PlanCond):
    """Same-document guard: the equality a structural join's index
    probe leads with."""

    left_alias: str
    right_alias: str

    def brief(self) -> str:
        return f"doc {self.left_alias} = {self.right_alias}"


@dataclass
class LevelCond(PlanCond):
    """Dewey level (encoded-length) arithmetic pinning a fragment.

    Without ``base_alias``: ``level(alias) sign offset`` (root pinning in
    the naive per-step mode).  With it: ``level(alias) sign
    level(base_alias) ± offset`` — ``negative`` selects ``-``.
    """

    alias: str
    sign: str
    offset: int
    base_alias: Optional[str] = None
    negative: bool = False

    def brief(self) -> str:
        if self.base_alias is None:
            return f"level({self.alias}) {self.sign} {self.offset}"
        op = "-" if self.negative else "+"
        return (
            f"level({self.alias}) {self.sign} "
            f"level({self.base_alias}) {op} {self.offset}"
        )


@dataclass
class AggregateCountCond(PlanCond):
    """``(sum of scalar COUNT sub-selects [+ offset]) op value``.

    Backs positional predicates (``offset=1``: proximity position is one
    plus the count of earlier matching siblings) and ``count(path) op k``
    comparisons (``offset=0``), with one sub-select per SQL-splitting
    branch of the counted path.
    """

    subplans: list["LogicalSelect"]
    op: str
    value: float
    offset: int = 0

    def brief(self) -> str:
        return f"count[{len(self.subplans)}] {self.op} {self.value:g}"


# ---------------------------------------------------------------------------
# scans and selects
# ---------------------------------------------------------------------------


#: The ORDER BY every top-level statement ends in (Section 4.3): the
#: clause that makes SQL row order XPath document order.
DOCUMENT_ORDER: tuple[str, str] = ("doc_id", "dewey_pos")


@dataclass
class Scan:
    """One FROM-clause relation.  Order matters: lowering renders scans
    with ``CROSS JOIN``, which SQLite treats as a binding-order
    directive (see :meth:`LogicalSelect.move_scan_before`)."""

    table: str
    alias: str

    @property
    def is_paths(self) -> bool:
        """Whether this scans the `Paths` relation."""
        return self.table == "paths"


@dataclass
class GroupedBound(Scan):
    """A FROM entry that is a grouped aggregate over a select: the
    extreme Dewey position of the ``body``'s ``context_alias`` rows per
    document (per parent for the sibling axes).  ``prune-distinct-order``
    puts it in place of the context side of an ordering-axis join that
    reaches the output only through that join; each target row meets at
    most one bound row, the one of its group (:class:`BoundCond`).
    ``table`` names the context's relation."""

    axis: str
    context_alias: str
    body: LogicalSelect


@dataclass
class LogicalSelect:
    """One SQL-splitting branch (or correlated sub-select) of the plan."""

    columns: list[str] = field(default_factory=list)
    scans: list[Scan] = field(default_factory=list)
    where: AndCond = field(default_factory=AndCond)
    distinct: bool = False
    order_by: list[str] = field(default_factory=list)

    def add_scan(self, table: str, alias: Optional[str] = None) -> Scan:
        """Add a FROM entry (idempotent per alias) and return it."""
        alias = alias or table
        for existing in self.scans:
            if existing.alias == alias:
                return existing
        scan = Scan(table, alias)
        self.scans.append(scan)
        return scan

    def has_alias(self, alias: str) -> bool:
        """Whether the FROM clause already binds ``alias``."""
        return any(scan.alias == alias for scan in self.scans)

    def move_scan_before(self, alias: str, reference: str) -> None:
        """Reorder scans so ``alias`` precedes ``reference`` (to the
        front when ``reference`` is a correlated outer alias)."""
        index = next(
            (i for i, s in enumerate(self.scans) if s.alias == alias),
            None,
        )
        if index is None:
            return
        scan = self.scans.pop(index)
        target = next(
            (
                i
                for i, existing in enumerate(self.scans)
                if existing.alias == reference
            ),
            0,
        )
        self.scans.insert(target, scan)


@dataclass
class PlanUnion:
    """SQL splitting (Section 4.4): a union of branches sharing one
    global ORDER BY.  ``all`` lowers it to ``UNION ALL``: set only where
    :func:`repro.plan.graph.union_all_sound` proves that no row can
    occur twice."""

    branches: list[LogicalSelect]
    order_by: list[str] = field(default_factory=list)
    all: bool = False


@dataclass
class QueryPlan:
    """A fully planned XPath expression."""

    root: Union[LogicalSelect, PlanUnion, None]
    #: ``nodes`` (element rows), ``text`` or ``attribute`` (value rows).
    projection: str
    expression: str
    #: Plan templates only: slot index → ``contains`` / ``starts-with``
    #: for each parameter that stands in a LIKE pattern, so its value
    #: is bound escaped and wrapped in ``%`` the way the function asks.
    like_slots: dict[int, str] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        """True when planning (or optimization) proved the result empty."""
        return self.root is None

    def branches(self) -> list[LogicalSelect]:
        """Top-level branches (without descending into sub-selects)."""
        if self.root is None:
            return []
        if isinstance(self.root, PlanUnion):
            return list(self.root.branches)
        return [self.root]


# ---------------------------------------------------------------------------
# walkers
# ---------------------------------------------------------------------------


def child_conditions(condition: PlanCond) -> list[PlanCond]:
    """Direct sub-conditions of ``condition`` (not sub-*plans*)."""
    if isinstance(condition, AndCond):
        return list(condition.parts)
    if isinstance(condition, OrCond):
        return list(condition.parts)
    if isinstance(condition, NotCond):
        return [condition.operand]
    return []


def child_subplans(condition: PlanCond) -> list[LogicalSelect]:
    """Sub-selects directly owned by ``condition``."""
    if isinstance(condition, ExistsCond):
        return [condition.subplan]
    if isinstance(condition, AggregateCountCond):
        return list(condition.subplans)
    return []


def iter_conditions(condition: PlanCond) -> Iterator[PlanCond]:
    """All condition nodes under ``condition`` (without crossing into
    sub-selects), including ``condition`` itself."""
    yield condition
    for child in child_conditions(condition):
        yield from iter_conditions(child)


def iter_selects(
    root: Union[LogicalSelect, PlanUnion, QueryPlan, None],
) -> Iterator[LogicalSelect]:
    """Every select in the plan, outer branches first, then (recursively)
    the bodies of their grouped bounds and the sub-selects hanging off
    their conditions."""
    if root is None:
        return
    if isinstance(root, QueryPlan):
        yield from iter_selects(root.root)
        return
    branches = (
        list(root.branches) if isinstance(root, PlanUnion) else [root]
    )
    for branch in branches:
        yield branch
        for scan in branch.scans:
            if isinstance(scan, GroupedBound):
                yield from iter_selects(scan.body)
        for condition in iter_conditions(branch.where):
            for subplan in child_subplans(condition):
                yield from iter_selects(subplan)


def rewrite_condition(
    condition: PlanCond, fn: Callable[[PlanCond], PlanCond]
) -> PlanCond:
    """Post-order rewrite of a condition tree (without crossing into
    sub-selects); ``fn`` maps each node to its replacement."""
    if isinstance(condition, AndCond):
        condition.parts = [
            rewrite_condition(part, fn) for part in condition.parts
        ]
    elif isinstance(condition, OrCond):
        condition.parts = [
            rewrite_condition(part, fn) for part in condition.parts
        ]
    elif isinstance(condition, NotCond):
        condition.operand = rewrite_condition(condition.operand, fn)
    return fn(condition)


def rewrite_plan(
    root: Union[LogicalSelect, PlanUnion, QueryPlan, None],
    fn: Callable[[PlanCond], PlanCond],
) -> None:
    """Apply :func:`rewrite_condition` to every select's WHERE tree,
    including sub-selects."""
    for select in iter_selects(root):
        rewritten = rewrite_condition(select.where, fn)
        if isinstance(rewritten, AndCond):
            select.where = rewritten
        else:
            select.where = AndCond([rewritten])


def contains_false(condition: PlanCond) -> bool:
    """True when a top-level conjunction contains FALSE."""
    if isinstance(condition, FalseCond):
        return True
    if isinstance(condition, AndCond):
        return any(contains_false(part) for part in condition.parts)
    return False


# ---------------------------------------------------------------------------
# statistics and pretty-printing
# ---------------------------------------------------------------------------


def plan_stats(plan: QueryPlan) -> dict[str, int]:
    """Structural counters used by ``explain`` and the benchmarks."""
    branches = len(plan.branches())
    scans = 0
    paths_joins = 0
    path_filters = 0
    structural_joins = 0
    exists_subplans = 0
    conditions = 0
    for select in iter_selects(plan):
        for scan in select.scans:
            scans += 1
            if scan.is_paths:
                paths_joins += 1
        for condition in iter_conditions(select.where):
            conditions += 1
            if isinstance(condition, PathFilterCond):
                path_filters += 1
            elif isinstance(condition, StructuralCond):
                structural_joins += 1
            elif isinstance(condition, ExistsCond):
                exists_subplans += 1
    return {
        "branches": branches,
        "scans": scans,
        "paths_joins": paths_joins,
        "path_filters": path_filters,
        "structural_joins": structural_joins,
        "exists_subplans": exists_subplans,
        "conditions": conditions,
    }


def _describe_select(select: LogicalSelect, indent: str) -> list[str]:
    flags = []
    if select.distinct:
        flags.append("distinct")
    if select.order_by:
        flags.append("order=" + ",".join(select.order_by))
    suffix = f"  [{' '.join(flags)}]" if flags else ""
    lines = [f"{indent}select{suffix}"]
    for scan in select.scans:
        if isinstance(scan, GroupedBound):
            lines.append(
                f"{indent}  bound {scan.alias} = {scan.axis} bound of "
                f"{scan.context_alias}"
            )
            lines.extend(_describe_select(scan.body, indent + "    "))
            continue
        kind = " (paths)" if scan.is_paths else ""
        name = (
            scan.table
            if scan.table == scan.alias
            else f"{scan.table} AS {scan.alias}"
        )
        lines.append(f"{indent}  scan {name}{kind}")
    for condition in select.where.parts:
        lines.extend(_describe_condition(condition, indent + "  "))
    return lines


def _describe_condition(condition: PlanCond, indent: str) -> list[str]:
    lines = [f"{indent}{condition.brief()}"]
    for child in child_conditions(condition):
        lines.extend(_describe_condition(child, indent + "  "))
    for subplan in child_subplans(condition):
        lines.extend(_describe_select(subplan, indent + "  "))
    return lines


def describe_plan(plan: QueryPlan) -> str:
    """An indented, human-readable rendering of the plan tree."""
    header = f"plan {plan.expression!r} -> {plan.projection}"
    if plan.root is None:
        return header + "\n  (statically empty)"
    lines = [header]
    branches = plan.branches()
    if isinstance(plan.root, PlanUnion):
        kind = "union all" if plan.root.all else "union"
        lines.append(
            f"  {kind} of {len(branches)} branches"
            + (
                f"  [order={','.join(plan.root.order_by)}]"
                if plan.root.order_by
                else ""
            )
        )
    for index, branch in enumerate(branches, start=1):
        if len(branches) > 1:
            lines.append(f"  branch {index}:")
            lines.extend(_describe_select(branch, "    "))
        else:
            lines.extend(_describe_select(branch, "  "))
    return "\n".join(lines)
