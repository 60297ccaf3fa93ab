"""Optimizer passes over the logical plan.

Each pass is an independent, individually toggleable rewrite of a
:class:`~repro.plan.nodes.QueryPlan`.  The pipeline interleaves the
passes with an always-on constant folder (``fold_plan``, run once up
front and again after every pass that fired) that propagates
``TRUE``/``FALSE`` conditions, prunes statically dead branches and
collapses single-branch unions, so passes are free to rewrite locally
and let the folder clean up.

The shipped passes (in default order):

``paths-join-elimination``
    The paper's Section 4.5: using the schema marking (U-P / F-P / I-P
    label classes), a path filter whose candidate names all *provably*
    satisfy the pattern is dropped — and its `Paths` join with it — while
    a filter no candidate can satisfy kills its branch.  Disabled by the
    engines' ``path_filter_optimization=False`` ablation switch.

``regex-to-equality``
    Table 3: a pattern denoting exactly one literal path becomes an
    equality against that path (syntactic rule), and a *needed* filter
    over finitely-pathed (U-P/F-P) labels whose root paths match the
    regex in exactly one place becomes an equality against that one
    path (marking rule).  An equality tests the element's ``path_id``,
    so the filter's `Paths` join leaves the plan with the regex.

``prune-distinct-order``
    Drops ORDER BY from sub-selects (EXISTS / scalar COUNT bodies, where
    ordering is wasted work) and from union branches (the union carries
    the global ordering).  Puts a :class:`~repro.plan.nodes.GroupedBound`
    in place of the context side of an ordering-axis join that only has
    to exist (:func:`~repro.plan.graph.existential_context`): the extreme
    context position per document (per parent for the sibling axes),
    joined to the target on the group key, so the join reads each target
    row once instead of every (context, target) pair.  Then drops
    DISTINCT where the join graph proves result rows unique
    (:func:`~repro.plan.graph.unique_rows`: every other element scan
    hangs off the output through child → parent foreign keys or target
    → bound edges, every `Paths` scan is a 1:1 link) or where the
    surrounding UNION deduplicates anyway.  A UNION whose branches are
    all unique and whose outputs are pairwise disjoint (different
    element relations, or disjoint literal path sets) becomes
    ``UNION ALL``: nothing is left for the merge to remove, so it needs
    no temp B-tree.

``dedup-union-branches``
    SQL splitting (Section 4.4) can emit branches that differ only in
    the path literals of their output scan — ``/a/b/item | /a/c/item``,
    or ``//C | /A/B/C`` after filter elimination.  They are detected by
    alias-canonical fingerprinting and merged into one select over the
    union of the literal sets (identical branches simply go).  A merged
    list the backend's statement-length limit has no room for leaves
    the branches apart.

``costed-access-strategy``
    The path summary as access path.  Whenever the store hands out an
    *exact* summary (:attr:`PassContext.summary`; the stores withhold a
    stale one), every surviving regex filter — over finite and I-P
    labels alike — is resolved here, at plan time, to the stored paths
    its regex matches: an equality for one path, an ``in`` list for
    several, untouched when nothing matches.  A regex that matches
    *every* stored path of its candidate names restricts nothing and is
    dropped.  Same-alias
    filters of one conjunction intersect into a single list.  The list
    lowers to a semi-join on the element's ``path_id`` that probes
    `Paths`' unique index once per statement, so neither the `Paths`
    join nor the Python ``REGEXP`` UDF is left to execute.  Each list
    built in and each filter dropped is recorded as a
    :class:`SummaryRead`; the translation cache keeps the plan for as
    long as those reads hold under the store's current summary, so a
    repeated query pays nothing for the list and a mutation retires
    only the plans it invalidated.  A list the backend's
    statement-length limit has no room for stays a regex, `Paths` join
    included.

``costed-join-order``
    Structural-join reordering, smallest estimated input first: scans
    are grouped with their `Paths` companions and greedily reordered by
    estimated cardinality, preserving every structural join's binding
    orientation (CROSS JOIN order is SQLite's nested-loop order, so a
    Dewey range probe must keep its probe side inner) and join-graph
    connectivity.

``costed-union-order``
    Orders UNION branches largest-estimate first (UNION output is
    order-insensitive: the union-level ``ORDER BY`` re-sorts it).  Its
    customer was the per-branch thread fan-out deleted in PR 18, so it
    now reorders without a consumer — kept because ``PASSES`` is pinned
    by the benchmark, and listed in ROADMAP's cull for the next
    ``benchmark`` PR.

The three costed passes consult :attr:`PassContext.summary` and keep
quiet without one, so every pass combination stays sound — and emits
the paper-shape regex SQL — on stores with no or stale statistics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.pathregex import compile_pattern, exact_path
from repro.errors import TranslationError
from repro.plan.graph import (
    JoinGraph,
    condition_reads,
    existential_context,
    union_all_sound,
    unique_rows,
)
from repro.plan.nodes import (
    AggregateCountCond,
    AndCond,
    BoundCond,
    DocEqCond,
    ExistsCond,
    FalseCond,
    GroupedBound,
    LevelCond,
    LogicalSelect,
    NameFilterCond,
    NotCond,
    OrCond,
    ParentJoinCond,
    PathFilterCond,
    PathsLinkCond,
    PlanCond,
    PlanUnion,
    QueryPlan,
    RawCond,
    Scan,
    StructuralCond,
    TrueCond,
    child_subplans,
    contains_false,
    iter_conditions,
    iter_selects,
    rewrite_condition,
)
from repro.plan.cost import CardinalityEstimator
from repro.plan.lowering import lower_plan
from repro.schema.marking import PathClass, SchemaMarking
from repro.sqlgen.dialect import DEFAULT_DIALECT
from repro.sqlgen.render import render_statement
from repro.stats.summary import PathSummary

_COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass
class PassContext:
    """Shared state the passes may consult.

    ``marking`` is the Section 4.5 schema marking (``None`` for the
    schema-oblivious Edge mapping, where no static path knowledge
    exists and the marking-based passes keep quiet).  ``summary`` is
    the store's :class:`~repro.stats.summary.PathSummary`, exact for
    the stored rows (``None`` when statistics were never collected, are
    stale, or the adapter has none — the costed passes then keep
    quiet).  ``sql_length_limit`` is the longest statement, in bytes,
    the backend accepts (``None``: unknown, not checked).
    """

    marking: Optional[SchemaMarking] = None
    summary: Optional[PathSummary] = None
    sql_length_limit: Optional[int] = None


@dataclass(frozen=True)
class SummaryRead:
    """One answer ``costed-access-strategy`` took from the path summary
    and built into the plan — what a later summary must still say for
    the plan to return what the regex would.

    A *resolved* filter tests membership in ``listed``, the paths
    ``regex`` matched at plan time; every listed path matches (that is
    a fact about the string), so the list stands while it still names
    every stored path the regex matches.  A path that left the store,
    or one that comes back and is already listed, changes nothing.  A
    *dropped* filter (``listed`` is ``None``) tests nothing; that stands
    while the regex still matches every stored path a row of ``names``
    can carry.
    """

    regex: str
    listed: Optional[frozenset[str]]
    names: Optional[frozenset[str]] = None

    def holds(self, summary: PathSummary) -> bool:
        """Whether the plan that made this read is still exact under
        ``summary`` (itself exact for the stored rows)."""
        matched = summary.matching_paths(self.regex)
        if self.listed is not None:
            return self.listed.issuperset(matched)
        assert self.names is not None
        return summary.paths_named(self.names).issubset(matched)


@dataclass
class PassReport:
    """What one pass did to one plan."""

    name: str
    fired: bool  #: whether the pass changed the plan at all
    changes: int  #: number of individual rewrites applied
    detail: str  #: human-readable one-liner for ``explain``
    #: One :class:`SummaryRead` per filter resolved or dropped from the
    #: path summary (only ``costed-access-strategy`` records these).
    reads: tuple[SummaryRead, ...] = ()

    def summary(self) -> str:
        """``name: detail`` line for CLI output."""
        state = "fired" if self.fired else "no-op"
        return f"{self.name} [{state}]: {self.detail}"


# ---------------------------------------------------------------------------
# constant folding (always on)
# ---------------------------------------------------------------------------


def _rewrap(condition: PlanCond) -> AndCond:
    """Normalize a rewritten WHERE tree back to a top-level AndCond."""
    if isinstance(condition, AndCond):
        return condition
    if isinstance(condition, TrueCond):
        return AndCond()
    wrapper = AndCond()
    wrapper.add(condition)
    return wrapper


def _fold_condition(condition: PlanCond) -> PlanCond:
    """One folding step; applied post-order by :func:`rewrite_condition`."""
    if isinstance(condition, AndCond):
        parts = [
            p for p in condition.parts if not isinstance(p, TrueCond)
        ]
        if any(isinstance(p, FalseCond) for p in parts):
            return FalseCond()
        if not parts:
            return TrueCond()
        if len(parts) == 1:
            return parts[0]
        return AndCond(parts)
    if isinstance(condition, OrCond):
        parts = [
            p for p in condition.parts if not isinstance(p, FalseCond)
        ]
        if any(isinstance(p, TrueCond) for p in parts):
            return TrueCond()
        if not parts:
            return FalseCond()
        if len(parts) == 1:
            return parts[0]
        return OrCond(parts)
    if isinstance(condition, NotCond):
        if isinstance(condition.operand, TrueCond):
            return FalseCond()
        if isinstance(condition.operand, FalseCond):
            return TrueCond()
        return condition
    if isinstance(condition, ExistsCond):
        if contains_false(condition.subplan.where):
            return FalseCond()
        return condition
    if isinstance(condition, AggregateCountCond):
        condition.subplans = [
            sub
            for sub in condition.subplans
            if not contains_false(sub.where)
        ]
        if not condition.subplans:
            outcome = _COMPARATORS[condition.op](
                float(condition.offset), condition.value
            )
            return TrueCond() if outcome else FalseCond()
        return condition
    return condition


def fold_plan(plan: QueryPlan) -> QueryPlan:
    """Propagate constants and prune dead branches, in place.

    Sub-selects fold before the selects that own them, so an EXISTS over
    a statically false body collapses bottom-up in one sweep.  A union
    left with a single live branch collapses to that branch (inheriting
    the union's ORDER BY, and conservatively re-acquiring DISTINCT when
    the UNION keyword was what guaranteed uniqueness).
    """
    for select in reversed(list(iter_selects(plan))):
        select.where = _rewrap(
            rewrite_condition(select.where, _fold_condition)
        )
    root = plan.root
    if isinstance(root, PlanUnion):
        root.branches = [
            b for b in root.branches if not contains_false(b.where)
        ]
        if not root.branches:
            plan.root = None
        elif len(root.branches) == 1:
            only = root.branches[0]
            if not only.order_by:
                only.order_by = list(root.order_by)
            if not only.distinct and not unique_rows(only):
                only.distinct = True
            plan.root = only
    elif isinstance(root, LogicalSelect) and contains_false(root.where):
        plan.root = None
    return plan


# ---------------------------------------------------------------------------
# pass: paths-join-elimination (Section 4.5)
# ---------------------------------------------------------------------------


def _filter_analysis(
    cond: PathFilterCond, marking: SchemaMarking
) -> tuple[bool, bool, set[str]]:
    """Evaluate a regex filter against the marking.

    Returns ``(any_match, needed, matched_paths)``: whether any candidate
    name can satisfy the filter at all, whether some enumerated root path
    fails it (so the filter restricts something), and the set of
    enumerated root paths that do match (meaningless when an I-P label is
    involved — those contribute no enumerable paths).
    """
    assert cond.names is not None
    compiled = re.compile(compile_pattern(list(cond.pattern), cond.anchored))
    needed = False
    any_match = False
    matched_paths: set[str] = set()
    for name in cond.names:
        if marking.classify(name) is PathClass.INFINITE:
            needed = True
            any_match = True  # cannot rule the name out statically
            continue
        paths = marking.root_paths(name) or []
        matched = [p for p in paths if compiled.search(p)]
        if matched:
            any_match = True
            matched_paths.update(matched)
        if len(matched) != len(paths):
            needed = True
    return any_match, needed, matched_paths


def _pass_paths_join_elimination(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "paths-join-elimination"
    marking = context.marking
    if marking is None:
        return PassReport(name, False, 0, "no schema marking available")
    removed = 0
    emptied = 0

    def decide(cond: PlanCond) -> PlanCond:
        nonlocal removed, emptied
        if not isinstance(cond, PathFilterCond) or cond.mode != "regex":
            return cond
        if cond.names is None:
            return cond
        any_match, needed, _ = _filter_analysis(cond, marking)
        if not any_match:
            emptied += 1
            return FalseCond()
        if not needed:
            removed += 1
            return TrueCond()
        return cond

    for select in iter_selects(plan):
        select.where = _rewrap(rewrite_condition(select.where, decide))
    dropped_scans = _remove_orphan_paths(plan)
    changes = removed + emptied
    detail = (
        f"dropped {removed} redundant filter(s), proved {emptied} "
        f"unsatisfiable, removed {dropped_scans} Paths join(s)"
        if changes or dropped_scans
        else "every Paths filter is load-bearing"
    )
    # An orphan `Paths` join may predate this pass (folding dropped its
    # filter): removing it alone is a change, and leaves a TRUE to fold.
    return PassReport(name, changes > 0 or dropped_scans > 0, changes, detail)


def _remove_orphan_paths(plan: QueryPlan) -> int:
    """Drop `Paths` links and scans no surviving regex filter reads (a
    filter resolved to literal paths tests ``path_id`` instead)."""
    removed = 0
    for select in iter_selects(plan):
        referenced = {
            cond.paths_alias
            for cond in iter_conditions(select.where)
            if isinstance(cond, PathFilterCond) and cond.mode == "regex"
        }

        def unlink(
            cond: PlanCond, referenced: set[str] = referenced
        ) -> PlanCond:
            # Default-arg binding: the closure must capture THIS
            # iteration's reference set, not the loop variable (B023).
            if (
                isinstance(cond, PathsLinkCond)
                and cond.paths_alias not in referenced
            ):
                return TrueCond()
            return cond

        select.where = _rewrap(rewrite_condition(select.where, unlink))
        before = len(select.scans)
        select.scans = [
            scan
            for scan in select.scans
            if not (scan.is_paths and scan.alias not in referenced)
        ]
        removed += before - len(select.scans)
    return removed


# ---------------------------------------------------------------------------
# pass: regex-to-equality (Table 3 + U-P marking)
# ---------------------------------------------------------------------------


def _pass_regex_to_equality(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "regex-to-equality"
    marking = context.marking
    converted = 0

    def convert(cond: PlanCond) -> PlanCond:
        nonlocal converted
        if not isinstance(cond, PathFilterCond) or cond.mode != "regex":
            return cond
        literal = exact_path(list(cond.pattern), cond.anchored)
        if literal is not None:
            cond.set_literal_paths((literal,))
            converted += 1
            return cond
        if marking is None or cond.names is None:
            return cond
        if any(
            marking.classify(n) is PathClass.INFINITE for n in cond.names
        ):
            return cond
        any_match, needed, matched = _filter_analysis(cond, marking)
        # `needed` distinguishes this from a filter the elimination pass
        # (when enabled) would have removed outright: only a genuinely
        # restricting filter whose candidates' root paths satisfy the
        # regex in exactly one place collapses to an equality.
        if any_match and needed and len(matched) == 1:
            cond.set_literal_paths(tuple(matched))
            converted += 1
        return cond

    for select in iter_selects(plan):
        select.where = _rewrap(rewrite_condition(select.where, convert))
    if converted:
        _remove_orphan_paths(plan)
    detail = (
        f"converted {converted} regex filter(s) to path equality"
        if converted
        else "no filter denotes a single literal path"
    )
    return PassReport(name, converted > 0, converted, detail)


# ---------------------------------------------------------------------------
# pass: prune-distinct-order
# ---------------------------------------------------------------------------


def _bound_ordering_axes(
    select: LogicalSelect, output: str, taken: set[str]
) -> int:
    """Replace, while one is left, the context side of an ordering-axis
    join that only has to exist by its grouped bound (bodies included:
    a chain of ordering steps nests); how many were replaced."""
    bounds = 0
    found = existential_context(select, output)
    while found is not None:
        join, side = found
        alias = f"{join.context_alias}_bound"
        while alias in taken:
            alias += "_"
        taken.add(alias)
        guard = {join.context_alias, join.target_alias}
        aliases = {scan.alias for scan in select.scans}
        inner: list[PlanCond] = []
        outer: list[PlanCond] = []
        for part in select.where.parts:
            if part is join:
                outer.append(BoundCond(join.axis, alias, join.target_alias))
            elif not (
                isinstance(part, DocEqCond)
                and {part.left_alias, part.right_alias} == guard
            ):
                reads = condition_reads(part) & aliases
                (inner if reads and reads <= side else outer).append(part)
        body = LogicalSelect(
            scans=[scan for scan in select.scans if scan.alias in side],
            where=AndCond(inner),
        )
        table = next(
            scan.table
            for scan in body.scans
            if scan.alias == join.context_alias
        )
        bound = GroupedBound(
            table,
            alias,
            axis=join.axis,
            context_alias=join.context_alias,
            body=body,
        )
        kept = [scan for scan in select.scans if scan.alias not in side]
        # The sibling bound drives (its rows are few and the target's
        # par_id index finds each group's siblings); the document bound
        # is looked up per target row, which is read in index order.
        select.scans = (
            [bound] + kept if join.axis.endswith("sibling") else kept + [bound]
        )
        select.where = AndCond(outer)
        bounds += 1 + _bound_ordering_axes(body, join.context_alias, taken)
        found = existential_context(select, output)
    return bounds


def _pass_prune_distinct_order(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "prune-distinct-order"
    branches = plan.branches()
    branch_ids = {id(b) for b in branches}
    root = plan.root
    is_union = isinstance(root, PlanUnion)
    orders = 0
    distincts = 0
    union_all = 0
    bounds = 0
    taken = {scan.alias for select in iter_selects(plan) for scan in select.scans}
    for branch in branches:
        output = JoinGraph.of(branch).output
        if output is not None:
            bounds += _bound_ordering_axes(branch, output, taken)
    for select in iter_selects(plan):
        if id(select) not in branch_ids and select.order_by:
            # Sub-select bodies (EXISTS / scalar COUNT): ordering is
            # invisible to the outer query, so it is pure overhead.
            select.order_by = []
            orders += 1
    for branch in branches:
        if is_union and branch.order_by:
            # The union's global ORDER BY supersedes per-branch ones
            # (which SQLite would reject around UNION anyway).
            branch.order_by = []
            orders += 1
        if branch.distinct and (is_union or unique_rows(branch)):
            branch.distinct = False
            distincts += 1
    if (
        isinstance(root, PlanUnion)
        and not root.all
        and union_all_sound(root.branches)
    ):
        root.all = True
        union_all = 1
    changes = orders + distincts + union_all + bounds
    detail = (
        f"dropped {orders} ORDER BY clause(s), {distincts} DISTINCT(s)"
        + (", UNION -> UNION ALL" if union_all else "")
        + (f", bounded {bounds} ordering-axis context(s)" if bounds else "")
        if changes
        else "all DISTINCT/ORDER BY clauses are load-bearing"
    )
    return PassReport(name, changes > 0, changes, detail)


# ---------------------------------------------------------------------------
# pass: dedup-union-branches
# ---------------------------------------------------------------------------


def _collect_aliases(select: LogicalSelect, out: list[str]) -> None:
    for scan in select.scans:
        if scan.alias not in out:
            out.append(scan.alias)
        if isinstance(scan, GroupedBound):
            _collect_aliases(scan.body, out)
    for cond in iter_conditions(select.where):
        for sub in child_subplans(cond):
            _collect_aliases(sub, out)


def _rename_text(text: str, mapping: dict[str, str]) -> str:
    """Replace ``alias.`` column references (aliases never contain dots,
    so requiring the trailing dot keeps string literals intact)."""
    for alias in sorted(mapping, key=len, reverse=True):
        text = text.replace(f"{alias}.", f"{mapping[alias]}.")
    return text


def _fingerprint_cond(
    cond: PlanCond,
    names: dict[str, str],
    loose: Optional[PathFilterCond],
) -> str:
    """``cond`` as text, every alias read through ``names``; ``loose``
    stands in without its paths (the filter a merge may widen)."""

    def a(alias: str) -> str:
        return names.get(alias, alias)

    if isinstance(cond, (AndCond, OrCond)):
        tag = "and" if isinstance(cond, AndCond) else "or"
        inner = ",".join(_fingerprint_cond(p, names, loose) for p in cond.parts)
        return f"{tag}({inner})"
    if isinstance(cond, NotCond):
        return f"not({_fingerprint_cond(cond.operand, names, loose)})"
    if isinstance(cond, ExistsCond):
        return f"exists({_fingerprint_select(cond.subplan, names, loose)})"
    if isinstance(cond, AggregateCountCond):
        subs = ",".join(
            _fingerprint_select(s, names, loose) for s in cond.subplans
        )
        return f"count({subs};{cond.op};{cond.value!r};{cond.offset})"
    if isinstance(cond, PathFilterCond):
        candidates = sorted(cond.names) if cond.names is not None else None
        if cond is loose:
            return f"pathfilter({a(cond.alias)};*;{candidates})"
        # A resolved filter's `Paths` alias names nothing in the plan.
        paths_alias = a(cond.paths_alias) if cond.mode == "regex" else ""
        return (
            f"pathfilter({a(cond.alias)};{paths_alias};{cond.mode};"
            f"{cond.literal!r};{cond.literals!r};{cond.anchored};"
            f"{cond.pattern!r};{candidates})"
        )
    if isinstance(cond, PathsLinkCond):
        return f"paths-link({a(cond.owner_alias)};{a(cond.paths_alias)})"
    if isinstance(cond, NameFilterCond):
        return f"name({a(cond.alias)};{cond.column};{cond.names!r})"
    if isinstance(cond, StructuralCond):
        return (
            f"structural({cond.axis};{a(cond.context_alias)};"
            f"{a(cond.target_alias)})"
        )
    if isinstance(cond, DocEqCond):
        return f"doc({a(cond.left_alias)};{a(cond.right_alias)})"
    if isinstance(cond, BoundCond):
        return (
            f"bound({cond.axis};{a(cond.bound_alias)};"
            f"{a(cond.target_alias)})"
        )
    if isinstance(cond, ParentJoinCond):
        return (
            f"fk({a(cond.child_alias)};{a(cond.parent_alias)};{cond.upward})"
        )
    if isinstance(cond, LevelCond):
        base = a(cond.base_alias) if cond.base_alias is not None else None
        return (
            f"level({a(cond.alias)};{cond.sign};{cond.offset};{base};"
            f"{cond.negative})"
        )
    if isinstance(cond, RawCond):
        return f"raw({_rename_text(cond.sql, names)})"
    # TRUE / FALSE describe themselves in their brief() line.
    return cond.brief()


def _fingerprint_select(
    select: LogicalSelect,
    names: dict[str, str],
    loose: Optional[PathFilterCond] = None,
) -> str:
    scans = ",".join(
        f"bound({s.axis};{names.get(s.context_alias, s.context_alias)};"
        f"{_fingerprint_select(s.body, names, loose)}) "
        f"{names.get(s.alias, s.alias)}"
        if isinstance(s, GroupedBound)
        else f"{s.table} {names.get(s.alias, s.alias)}"
        for s in select.scans
    )
    columns = [_rename_text(c, names) for c in select.columns]
    order = [_rename_text(o, names) for o in select.order_by]
    where = _fingerprint_cond(select.where, names, loose)
    return (
        f"select(distinct={select.distinct};cols={columns!r};"
        f"from={scans};where={where};order={order!r})"
    )


def _canonical_key(
    select: LogicalSelect, loose: Optional[PathFilterCond]
) -> str:
    """Alias-independent fingerprint of a branch: aliases are numbered
    in order of appearance, and ``loose`` counts without its paths."""
    aliases: list[str] = []
    _collect_aliases(select, aliases)
    names = {alias: f"§{i}§" for i, alias in enumerate(aliases)}
    return _fingerprint_select(select, names, loose)


def _output_filter(branch: LogicalSelect) -> Optional[PathFilterCond]:
    """The one top-level literal path filter on the branch's output scan
    (``None`` when it has none, or several)."""
    output = JoinGraph.of(branch).output
    filters = [
        part
        for part in branch.where.parts
        if isinstance(part, PathFilterCond)
        and part.alias == output
        and part.literal_paths()
    ]
    return filters[0] if len(filters) == 1 else None


def _pass_dedup_union_branches(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "dedup-union-branches"
    root = plan.root
    if not isinstance(root, PlanUnion):
        return PassReport(name, False, 0, "plan is not a union")
    limit = context.sql_length_limit
    # Bytes the statement may still grow by; measured on first need.
    room: Optional[int] = None
    # Fingerprint -> the filter the first branch with it merges into.
    firsts: dict[str, Optional[PathFilterCond]] = {}
    kept: list[LogicalSelect] = []
    merged = dropped = apart = 0
    for branch in root.branches:
        loose = _output_filter(branch)
        key = _canonical_key(branch, loose)
        if key not in firsts:
            firsts[key] = loose
            kept.append(branch)
            continue
        into = firsts[key]
        if into is None or loose is None:  # identical branches
            dropped += 1
            continue
        have = into.literal_paths() or ()
        paths = tuple(sorted(set(have).union(loose.literal_paths() or ())))
        if len(paths) == len(have):  # nothing the first does not list
            dropped += 1
            continue
        if limit is not None:
            if room is None:
                statement = lower_plan(plan)
                assert statement is not None
                room = limit - len(render_statement(statement).encode())
            # The branch it replaces is not credited back.
            cost = len(
                DEFAULT_DIALECT.path_membership(into.alias, paths).encode()
            )
            if cost > room:
                apart += 1
                kept.append(branch)
                continue
            room -= cost
        into.set_literal_paths(paths)
        merged += 1
    root.branches = kept
    changes = merged + dropped
    detail = (
        f"merged {merged} branch(es) into one path list, dropped "
        f"{dropped} identical branch(es)"
        if changes
        else "all union branches are distinct"
    )
    if apart:
        detail += f"; {apart} merge(s) past the statement-length limit"
    return PassReport(name, changes > 0, changes, detail)


# ---------------------------------------------------------------------------
# pass: costed-access-strategy (the path summary as access path)
# ---------------------------------------------------------------------------


def _intersect_same_alias(conjunction: AndCond) -> int:
    """Fold literal filters of one conjunction that test the same
    element alias into the first of them; returns how many were folded
    away.
    A group with nothing in common is left alone (the elimination
    pass's business, as with a regex nothing matches)."""
    groups: dict[str, list[PathFilterCond]] = {}
    for part in conjunction.parts:
        if isinstance(part, PathFilterCond) and part.literal_paths():
            groups.setdefault(part.alias, []).append(part)
    folded: set[int] = set()
    for first, *rest in groups.values():
        common = set(first.literal_paths() or ()).intersection(
            *(other.literal_paths() or () for other in rest)
        )
        if rest and common:
            first.set_literal_paths(tuple(sorted(common)))
            folded.update(id(other) for other in rest)
    if folded:
        conjunction.parts = [
            part for part in conjunction.parts if id(part) not in folded
        ]
    return len(folded)


def _pass_costed_access_strategy(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "costed-access-strategy"
    summary = context.summary
    if summary is None:
        return PassReport(name, False, 0, "no exact path summary")
    limit = context.sql_length_limit
    # Bytes the statement may still grow by; measured on first need.
    room: Optional[int] = None
    resolved = folded = kept = dropped = 0
    reads: list[SummaryRead] = []

    def fits(cond: PathFilterCond, literals: tuple[str, ...]) -> bool:
        """Whether the backend's statement limit has room for the list
        (the regex text it replaces is not credited back)."""
        nonlocal room
        if limit is None:
            return True
        if room is None:
            statement = lower_plan(plan)
            room = limit - (
                len(render_statement(statement).encode())
                if statement is not None
                else 0
            )
        cost = len(
            DEFAULT_DIALECT.path_membership(cond.alias, literals).encode()
        )
        if cost > room:
            return False
        room -= cost
        return True

    def resolve(cond: PlanCond) -> PlanCond:
        nonlocal resolved, folded, kept, dropped
        if isinstance(cond, AndCond):
            folded += _intersect_same_alias(cond)
            return cond
        if not isinstance(cond, PathFilterCond) or cond.mode != "regex":
            return cond
        # The summary lists every path some stored element carries, so
        # the regex accepts exactly these `Paths` rows among the ones
        # an element row can join to.
        regex = compile_pattern(list(cond.pattern), cond.anchored)
        matched = summary.matching_paths(regex)
        if not matched:
            return cond  # the elimination pass's business, not ours
        if cond.names is not None and summary.paths_named(
            cond.names
        ).issubset(matched):
            # Every row the scan can produce carries a matched path.
            dropped += 1
            reads.append(SummaryRead(regex, None, cond.names))
            return TrueCond()
        if not fits(cond, matched):
            kept += 1
            return cond
        cond.set_literal_paths(matched)
        reads.append(SummaryRead(regex, frozenset(matched)))
        resolved += 1
        return cond

    for select in iter_selects(plan):
        select.where = _rewrap(rewrite_condition(select.where, resolve))
    if resolved or dropped:
        _remove_orphan_paths(plan)
    if resolved or folded or dropped:
        detail = (
            f"resolved {resolved} regex filter(s) against the "
            f"{summary.path_count}-path summary, dropped {dropped} that "
            f"match every stored path of their names, folded {folded} "
            "same-alias filter(s)"
        )
    else:
        detail = "no regex filter matches a stored path"
    if kept:
        detail += f"; {kept} list(s) past the statement-length limit"
    changes = resolved + folded + dropped
    return PassReport(name, changes > 0, changes, detail, reads=tuple(reads))


# ---------------------------------------------------------------------------
# pass: costed-join-order (smallest estimated input first)
# ---------------------------------------------------------------------------

#: Minimum factor by which the new leading scan's estimate must beat the
#: current one before a reorder is worth the plan churn.
_REORDER_FACTOR = 2.0


def _scan_groups(
    select: LogicalSelect,
) -> Optional[list[tuple[Scan, list[Scan]]]]:
    """Group each element scan with its linked `Paths` scans, in the
    select's current scan order.  ``None`` when the shape is unexpected
    (a `Paths` scan with no top-level link to a local element scan)."""
    element_order = [s for s in select.scans if not s.is_paths]
    groups: dict[str, list[Scan]] = {
        s.alias: [] for s in element_order
    }
    owners: dict[str, str] = {}
    for part in select.where.parts:
        if isinstance(part, PathsLinkCond):
            owners.setdefault(part.paths_alias, part.owner_alias)
    for scan in select.scans:
        if not scan.is_paths:
            continue
        owner = owners.get(scan.alias)
        if owner is None or owner not in groups:
            return None
        groups[owner].append(scan)
    return [(scan, groups[scan.alias]) for scan in element_order]


def _condition_alias_pairs(
    select: LogicalSelect,
) -> tuple[list[tuple[str, str]], set[frozenset[str]]]:
    """Binding-orientation constraints and the join graph of a select.

    Returns ``(ordered, adjacency)``: ``ordered`` lists alias pairs
    whose current relative scan order must be preserved — every
    structural (Dewey) join, because CROSS JOIN order is the nested-loop
    order and the probe side must stay inner — and ``adjacency`` holds
    every two-alias join edge (structural, FK, doc-equality, relative
    level), used to prefer connected orders.
    """
    local = {s.alias for s in select.scans}
    ordered: list[tuple[str, str]] = []
    adjacency: set[frozenset[str]] = set()

    def edge(a: str, b: str) -> None:
        if a in local and b in local and a != b:
            adjacency.add(frozenset((a, b)))

    for part in select.where.parts:
        if isinstance(part, (StructuralCond, BoundCond)):
            if isinstance(part, BoundCond):
                a, b = part.bound_alias, part.target_alias
            else:
                a, b = part.context_alias, part.target_alias
            edge(a, b)
            if a in local and b in local and a != b:
                ordered.append((a, b))
        elif isinstance(part, DocEqCond):
            edge(part.left_alias, part.right_alias)
        elif isinstance(part, ParentJoinCond):
            edge(part.child_alias, part.parent_alias)
        elif isinstance(part, LevelCond):
            if part.base_alias is not None:
                edge(part.alias, part.base_alias)
        elif isinstance(part, RawCond):
            refs = condition_reads(part) & local
            if len(refs) == 2:
                first, second = sorted(refs)
                edge(first, second)
    return ordered, adjacency


def _reorder_select(
    select: LogicalSelect, estimator: CardinalityEstimator
) -> bool:
    """Reorder one select's scans smallest-estimate-first; whether it
    did.

    Greedy: among the element-scan groups whose ordering predecessors
    (from structural-join orientations) are already placed, prefer ones
    joined to an already-placed scan, and pick the smallest estimate.
    The result is applied only when it changes the order AND the new
    leading scan beats the old one by :data:`_REORDER_FACTOR`.
    """
    groups = _scan_groups(select)
    if groups is None or len(groups) < 2:
        return False
    ordered, adjacency = _condition_alias_pairs(select)
    aliases = [scan.alias for scan, _ in groups]
    estimates = {
        scan.alias: estimator.scan_rows(select, scan)
        for scan, _ in groups
    }
    predecessors: dict[str, set[str]] = {a: set() for a in aliases}
    position = {a: i for i, a in enumerate(aliases)}
    for a, b in ordered:
        first, second = (a, b) if position[a] < position[b] else (b, a)
        predecessors[second].add(first)
    placed: set[str] = set()
    new_order: list[str] = []
    remaining = list(aliases)
    while remaining:
        eligible = [
            a for a in remaining if predecessors[a] <= placed
        ]
        if not eligible:  # pragma: no cover - orientation cycles can't occur
            eligible = list(remaining)
        connected = [
            a
            for a in eligible
            if not placed
            or any(frozenset((a, p)) in adjacency for p in placed)
        ]
        pool = connected or eligible
        pick = min(pool, key=lambda a: (estimates[a], position[a]))
        new_order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    if new_order == aliases:
        return False
    if estimates[aliases[0]] < _REORDER_FACTOR * estimates[new_order[0]]:
        return False
    by_alias = {scan.alias: (scan, paths) for scan, paths in groups}
    scans: list[Scan] = []
    for alias in new_order:
        scan, paths = by_alias[alias]
        scans.append(scan)
        scans.extend(paths)
    select.scans = scans
    return True


def _pass_costed_join_order(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "costed-join-order"
    summary = context.summary
    if summary is None:
        return PassReport(name, False, 0, "no statistics collected")
    estimator = CardinalityEstimator(summary)
    reordered = sum(
        _reorder_select(select, estimator) for select in iter_selects(plan)
    )
    detail = (
        f"reordered scans in {reordered} select(s), "
        "smallest estimated input first"
        if reordered
        else "every select already leads with its smallest input"
    )
    return PassReport(name, reordered > 0, reordered, detail)


# ---------------------------------------------------------------------------
# pass: costed-union-order (long poles first)
# ---------------------------------------------------------------------------


def _pass_costed_union_order(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "costed-union-order"
    summary = context.summary
    if summary is None:
        return PassReport(name, False, 0, "no statistics collected")
    root = plan.root
    if not isinstance(root, PlanUnion) or len(root.branches) < 2:
        return PassReport(name, False, 0, "plan is not a multi-branch union")
    estimator = CardinalityEstimator(summary)
    estimates = [estimator.select_rows(b) for b in root.branches]
    order = sorted(
        range(len(root.branches)), key=lambda i: (-estimates[i], i)
    )
    if order == list(range(len(root.branches))):
        return PassReport(
            name, False, 0, "branches already run largest-estimate first"
        )
    root.branches = [root.branches[i] for i in order]
    return PassReport(
        name,
        True,
        1,
        "reordered union branches largest-estimate first "
        "(UNION dedup + global ORDER BY make branch order irrelevant "
        "to results)",
    )


# ---------------------------------------------------------------------------
# registry and pipeline
# ---------------------------------------------------------------------------


PASSES: dict[str, Callable[[QueryPlan, PassContext], PassReport]] = {
    "paths-join-elimination": _pass_paths_join_elimination,
    "regex-to-equality": _pass_regex_to_equality,
    "prune-distinct-order": _pass_prune_distinct_order,
    "dedup-union-branches": _pass_dedup_union_branches,
    "costed-access-strategy": _pass_costed_access_strategy,
    "costed-join-order": _pass_costed_join_order,
    "costed-union-order": _pass_costed_union_order,
}

#: All passes, in the order the default pipeline runs them.
DEFAULT_PASS_NAMES: tuple[str, ...] = tuple(PASSES)


@dataclass
class PassPipeline:
    """An ordered, validated selection of optimizer passes."""

    names: tuple[str, ...] = field(default=DEFAULT_PASS_NAMES)

    def __post_init__(self) -> None:
        self.names = tuple(self.names)
        unknown = [n for n in self.names if n not in PASSES]
        if unknown:
            raise TranslationError(
                "unknown optimizer pass(es): "
                + ", ".join(sorted(unknown))
                + f" (available: {', '.join(PASSES)})"
            )

    def run(
        self, plan: QueryPlan, context: Optional[PassContext] = None
    ) -> tuple[QueryPlan, list[PassReport]]:
        """Fold, then run each pass, folding again after every pass
        that fired: folding is idempotent, so a pass that changed
        nothing leaves a folded plan folded."""
        if context is None:
            context = PassContext()
        fold_plan(plan)
        reports: list[PassReport] = []
        for pass_name in self.names:
            report = PASSES[pass_name](plan, context)
            reports.append(report)
            if report.fired:
                fold_plan(plan)
        return plan, reports


def resolve_pass_names(
    passes: Optional[Sequence[str]], path_filter_optimization: bool
) -> tuple[str, ...]:
    """The pass list an engine runs.

    ``passes`` (when given) wins; otherwise the default list, minus the
    Section 4.5 elimination pass when its ablation switch is off.
    """
    if passes is not None:
        return tuple(passes)
    if path_filter_optimization:
        return DEFAULT_PASS_NAMES
    return tuple(
        n for n in DEFAULT_PASS_NAMES if n != "paths-join-elimination"
    )
