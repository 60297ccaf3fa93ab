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
    the global ordering), and drops DISTINCT where the plan shape proves
    result rows unique — a single element scan whose only companions are
    1:1 `Paths` links — or where the surrounding UNION deduplicates
    anyway.

``dedup-union-branches``
    SQL splitting (Section 4.4) can emit structurally identical branches
    — e.g. ``//C | /A/B/C`` after filter elimination — which are
    detected by alias-canonical fingerprinting and merged.

``costed-access-strategy``
    The path summary as access path.  Whenever the store hands out an
    *exact* summary (:attr:`PassContext.summary`; the stores withhold a
    stale one), every surviving regex filter — over finite and I-P
    labels alike — is resolved here, at plan time, to the stored paths
    its regex matches: an equality for one path, an ``in`` list for
    several, untouched when nothing matches.  A regex that matches
    *every* stored path of its candidate names restricts nothing and is
    dropped (a :class:`TautologyWitness` records why).  Same-alias
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
    connectivity.  Each applied reorder records a
    :class:`ReorderWitness` for the PV008 verifier invariant.

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

import copy
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.pathregex import compile_pattern, exact_path
from repro.errors import TranslationError
from repro.plan.nodes import (
    AggregateCountCond,
    AndCond,
    DocEqCond,
    ExistsCond,
    FalseCond,
    LevelCond,
    LogicalSelect,
    NameFilterCond,
    NotCond,
    OrCond,
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
from repro.sqlgen.dialect import DEFAULT_DIALECT, AnsiDialect
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
    the backend accepts when rendered through ``dialect`` (``None``:
    unknown, not checked).
    """

    marking: Optional[SchemaMarking] = None
    summary: Optional[PathSummary] = None
    sql_length_limit: Optional[int] = None
    dialect: AnsiDialect = DEFAULT_DIALECT


@dataclass(frozen=True)
class EliminationWitness:
    """The marking evidence justifying one Section 4.5 rewrite.

    Every ``paths-join-elimination`` decision records one witness so the
    static verifier (:mod:`repro.analysis`) can re-derive the claim:
    ``kind`` is ``"redundant"`` (all candidate root paths provably
    satisfy the filter, so it was dropped) or ``"unsatisfiable"`` (no
    candidate can satisfy it, so the branch was killed); ``classes``
    maps each candidate name to its U-P / F-P / I-P tag and
    ``matched_paths`` lists the enumerated root paths that matched.
    """

    kind: str  #: ``redundant`` or ``unsatisfiable``
    alias: str
    paths_alias: str
    pattern: "tuple[object, ...]"  #: the filter's PatternStep sequence
    anchored: bool
    classes: tuple[tuple[str, str], ...]  #: (name, path-class value)
    matched_paths: tuple[str, ...]


@dataclass(frozen=True)
class TautologyWitness:
    """The summary evidence for one filter ``costed-access-strategy``
    dropped: the regex matches every stored path whose last label is
    one of the candidate's ``names``, so no row the scan can produce
    fails it.  ``matched_paths`` is everything the regex matches in the
    summary whose ``(epoch, generation)`` is ``summary_version``; the
    verifier's PV004 re-derives both from a summary of that version.
    """

    alias: str
    pattern: "tuple[object, ...]"  #: the filter's PatternStep sequence
    anchored: bool
    names: tuple[str, ...]
    matched_paths: tuple[str, ...]
    summary_version: tuple[int, int]


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


@dataclass(frozen=True)
class ReorderWitness:
    """The evidence justifying one cost-based reorder.

    Every ``costed-join-order`` / ``costed-union-order`` decision
    records one witness so the static verifier's PV008 invariant can
    re-derive the claim: ``before``/``after`` list the reordered items
    as ``(table, alias)`` pairs (scan order) or ``(index, signature)``
    pairs (union-branch order), ``ordered_pairs`` lists the alias pairs
    whose relative order the reorder was required to preserve (the
    structural joins' binding orientations), and ``estimates`` carries
    the per-item cardinality estimates in ``after`` order.
    """

    kind: str  #: ``join-order`` or ``union-order``
    before: tuple[tuple[str, str], ...]
    after: tuple[tuple[str, str], ...]
    ordered_pairs: tuple[tuple[str, str], ...] = ()
    estimates: tuple[float, ...] = ()


@dataclass
class PassReport:
    """What one pass did to one plan."""

    name: str
    fired: bool  #: whether the pass changed the plan at all
    changes: int  #: number of individual rewrites applied
    detail: str  #: human-readable one-liner for ``explain``
    #: One :class:`EliminationWitness` per Section 4.5 rewrite (only the
    #: ``paths-join-elimination`` pass records these).
    witnesses: tuple[EliminationWitness, ...] = ()
    #: One :class:`TautologyWitness` per filter the summary proved
    #: redundant (only ``costed-access-strategy`` records these).
    tautologies: tuple[TautologyWitness, ...] = ()
    #: One :class:`SummaryRead` per filter resolved or dropped from the
    #: path summary (only ``costed-access-strategy`` records these).
    reads: tuple[SummaryRead, ...] = ()
    #: One :class:`ReorderWitness` per cost-based reorder (only the
    #: ``costed-join-order``/``costed-union-order`` passes record these).
    reorders: tuple[ReorderWitness, ...] = ()

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
            if not only.distinct and not _distinct_redundant(only):
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
    witnesses: list[EliminationWitness] = []

    def witness(
        kind: str, cond: PathFilterCond, matched: set[str]
    ) -> EliminationWitness:
        assert cond.names is not None and marking is not None
        return EliminationWitness(
            kind=kind,
            alias=cond.alias,
            paths_alias=cond.paths_alias,
            pattern=tuple(cond.pattern),
            anchored=cond.anchored,
            classes=tuple(
                (n, marking.classify(n).value) for n in sorted(cond.names)
            ),
            matched_paths=tuple(sorted(matched)),
        )

    def decide(cond: PlanCond) -> PlanCond:
        nonlocal removed, emptied
        if not isinstance(cond, PathFilterCond) or cond.mode != "regex":
            return cond
        if cond.names is None:
            return cond
        any_match, needed, matched = _filter_analysis(cond, marking)
        if not any_match:
            emptied += 1
            witnesses.append(witness("unsatisfiable", cond, matched))
            return FalseCond()
        if not needed:
            removed += 1
            witnesses.append(witness("redundant", cond, matched))
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
    return PassReport(
        name,
        changes > 0 or dropped_scans > 0,
        changes,
        detail,
        witnesses=tuple(witnesses),
    )


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


def _distinct_redundant(select: LogicalSelect) -> bool:
    """True when the select provably yields unique rows without DISTINCT:
    one element scan, every `Paths` scan tied to it by a top-level 1:1
    ``path_id`` link (elements reference exactly one `Paths` row)."""
    element_scans = [s for s in select.scans if not s.is_paths]
    if len(element_scans) != 1:
        return False
    linked = {
        part.paths_alias
        for part in select.where.parts
        if isinstance(part, PathsLinkCond)
    }
    return all(
        scan.alias in linked for scan in select.scans if scan.is_paths
    )


def _pass_prune_distinct_order(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "prune-distinct-order"
    branches = plan.branches()
    branch_ids = {id(b) for b in branches}
    is_union = isinstance(plan.root, PlanUnion)
    orders = 0
    distincts = 0
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
        if branch.distinct and (is_union or _distinct_redundant(branch)):
            branch.distinct = False
            distincts += 1
    changes = orders + distincts
    detail = (
        f"dropped {orders} ORDER BY clause(s), {distincts} DISTINCT(s)"
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
    for cond in iter_conditions(select.where):
        for sub in child_subplans(cond):
            _collect_aliases(sub, out)


def _rename_text(text: str, mapping: dict[str, str]) -> str:
    """Replace ``alias.`` column references (aliases never contain dots,
    so requiring the trailing dot keeps string literals intact)."""
    for alias in sorted(mapping, key=len, reverse=True):
        text = text.replace(f"{alias}.", f"{mapping[alias]}.")
    return text


def _rename_select(select: LogicalSelect, mapping: dict[str, str]) -> None:
    select.columns = [_rename_text(c, mapping) for c in select.columns]
    select.order_by = [_rename_text(o, mapping) for o in select.order_by]
    for scan in select.scans:
        scan.alias = mapping.get(scan.alias, scan.alias)
    for cond in iter_conditions(select.where):
        if isinstance(cond, RawCond):
            cond.sql = _rename_text(cond.sql, mapping)
        elif isinstance(cond, PathFilterCond):
            cond.alias = mapping.get(cond.alias, cond.alias)
            cond.paths_alias = mapping.get(cond.paths_alias, cond.paths_alias)
        elif isinstance(cond, PathsLinkCond):
            cond.owner_alias = mapping.get(cond.owner_alias, cond.owner_alias)
            cond.paths_alias = mapping.get(cond.paths_alias, cond.paths_alias)
        elif isinstance(cond, NameFilterCond):
            cond.alias = mapping.get(cond.alias, cond.alias)
        elif isinstance(cond, StructuralCond):
            cond.context_alias = mapping.get(
                cond.context_alias, cond.context_alias
            )
            cond.target_alias = mapping.get(
                cond.target_alias, cond.target_alias
            )
        elif isinstance(cond, DocEqCond):
            cond.left_alias = mapping.get(cond.left_alias, cond.left_alias)
            cond.right_alias = mapping.get(cond.right_alias, cond.right_alias)
        elif isinstance(cond, LevelCond):
            cond.alias = mapping.get(cond.alias, cond.alias)
            if cond.base_alias is not None:
                cond.base_alias = mapping.get(
                    cond.base_alias, cond.base_alias
                )
        for sub in child_subplans(cond):
            _rename_select(sub, mapping)


def _fingerprint_cond(cond: PlanCond) -> str:
    if isinstance(cond, (AndCond, OrCond)):
        tag = "and" if isinstance(cond, AndCond) else "or"
        inner = ",".join(_fingerprint_cond(p) for p in cond.parts)
        return f"{tag}({inner})"
    if isinstance(cond, NotCond):
        return f"not({_fingerprint_cond(cond.operand)})"
    if isinstance(cond, ExistsCond):
        return f"exists({_fingerprint_select(cond.subplan)})"
    if isinstance(cond, AggregateCountCond):
        subs = ",".join(_fingerprint_select(s) for s in cond.subplans)
        return f"count({subs};{cond.op};{cond.value!r};{cond.offset})"
    if isinstance(cond, PathFilterCond):
        names = sorted(cond.names) if cond.names is not None else None
        # A resolved filter's `Paths` alias names nothing in the plan.
        paths_alias = cond.paths_alias if cond.mode == "regex" else ""
        return (
            f"pathfilter({cond.alias};{paths_alias};{cond.mode};"
            f"{cond.literal!r};{cond.literals!r};{cond.anchored};"
            f"{cond.pattern!r};{names})"
        )
    # Remaining leaves fully describe themselves in their brief() line.
    return cond.brief()


def _fingerprint_select(select: LogicalSelect) -> str:
    scans = ",".join(f"{s.table} {s.alias}" for s in select.scans)
    return (
        f"select(distinct={select.distinct};cols={select.columns!r};"
        f"from={scans};where={_fingerprint_cond(select.where)};"
        f"order={select.order_by!r})"
    )


def _canonical_key(select: LogicalSelect) -> str:
    """Alias-independent fingerprint of a branch."""
    clone = copy.deepcopy(select)
    aliases: list[str] = []
    _collect_aliases(clone, aliases)
    mapping = {alias: f"§{i}§" for i, alias in enumerate(aliases)}
    _rename_select(clone, mapping)
    return _fingerprint_select(clone)


def _pass_dedup_union_branches(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "dedup-union-branches"
    if not isinstance(plan.root, PlanUnion):
        return PassReport(name, False, 0, "plan is not a union")
    seen: set[str] = set()
    kept: list[LogicalSelect] = []
    merged = 0
    for branch in plan.root.branches:
        key = _canonical_key(branch)
        if key in seen:
            merged += 1
            continue
        seen.add(key)
        kept.append(branch)
    plan.root.branches = kept
    detail = (
        f"merged {merged} duplicate branch(es)"
        if merged
        else "all union branches are distinct"
    )
    return PassReport(name, merged > 0, merged, detail)


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
    dialect = context.dialect
    limit = context.sql_length_limit
    # Bytes the statement may still grow by; measured on first need.
    room: Optional[int] = None
    resolved = folded = kept = 0
    tautologies: list[TautologyWitness] = []
    reads: list[SummaryRead] = []

    def fits(cond: PathFilterCond, literals: tuple[str, ...]) -> bool:
        """Whether the backend's statement limit has room for the list
        (the regex text it replaces is not credited back)."""
        nonlocal room
        if limit is None:
            return True
        if room is None:
            statement = lower_plan(plan, dialect)
            room = limit - (
                len(render_statement(statement).encode())
                if statement is not None
                else 0
            )
        cost = len(dialect.path_membership(cond.alias, literals).encode())
        if cost > room:
            return False
        room -= cost
        return True

    def resolve(cond: PlanCond) -> PlanCond:
        nonlocal resolved, folded, kept
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
            tautologies.append(
                TautologyWitness(
                    alias=cond.alias,
                    pattern=tuple(cond.pattern),
                    anchored=cond.anchored,
                    names=tuple(sorted(cond.names)),
                    matched_paths=matched,
                    summary_version=summary.version,
                )
            )
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
    dropped = len(tautologies)
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
    return PassReport(
        name,
        changes > 0,
        changes,
        detail,
        tautologies=tuple(tautologies),
        reads=tuple(reads),
    )


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
        if isinstance(part, StructuralCond):
            a, b = part.context_alias, part.target_alias
            edge(a, b)
            if a in local and b in local and a != b:
                ordered.append((a, b))
        elif isinstance(part, DocEqCond):
            edge(part.left_alias, part.right_alias)
        elif isinstance(part, LevelCond):
            if part.base_alias is not None:
                edge(part.alias, part.base_alias)
        elif isinstance(part, RawCond):
            refs = set(_RAW_ALIAS_REF.findall(part.sql))
            refs &= local
            if len(refs) == 2:
                first, second = sorted(refs)
                edge(first, second)
    return ordered, adjacency


_RAW_ALIAS_REF = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\.")


def _reorder_select(
    select: LogicalSelect, estimator: CardinalityEstimator
) -> Optional[ReorderWitness]:
    """Reorder one select's scans smallest-estimate-first, or ``None``.

    Greedy: among the element-scan groups whose ordering predecessors
    (from structural-join orientations) are already placed, prefer ones
    joined to an already-placed scan, and pick the smallest estimate.
    The result is applied only when it changes the order AND the new
    leading scan beats the old one by :data:`_REORDER_FACTOR`.
    """
    groups = _scan_groups(select)
    if groups is None or len(groups) < 2:
        return None
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
        return None
    if estimates[aliases[0]] < _REORDER_FACTOR * estimates[new_order[0]]:
        return None
    before = tuple((s.table, s.alias) for s in select.scans)
    by_alias = {scan.alias: (scan, paths) for scan, paths in groups}
    scans: list[Scan] = []
    for alias in new_order:
        scan, paths = by_alias[alias]
        scans.append(scan)
        scans.extend(paths)
    select.scans = scans
    return ReorderWitness(
        kind="join-order",
        before=before,
        after=tuple((s.table, s.alias) for s in select.scans),
        ordered_pairs=tuple(ordered),
        estimates=tuple(estimates[a] for a in new_order),
    )


def _pass_costed_join_order(
    plan: QueryPlan, context: PassContext
) -> PassReport:
    name = "costed-join-order"
    summary = context.summary
    if summary is None:
        return PassReport(name, False, 0, "no statistics collected")
    estimator = CardinalityEstimator(summary)
    witnesses: list[ReorderWitness] = []
    for select in iter_selects(plan):
        witness = _reorder_select(select, estimator)
        if witness is not None:
            witnesses.append(witness)
    detail = (
        f"reordered scans in {len(witnesses)} select(s), "
        "smallest estimated input first"
        if witnesses
        else "every select already leads with its smallest input"
    )
    return PassReport(
        name,
        bool(witnesses),
        len(witnesses),
        detail,
        reorders=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# pass: costed-union-order (long poles first)
# ---------------------------------------------------------------------------


def _branch_signature(branch: LogicalSelect) -> str:
    if branch.scans:
        scan = branch.scans[0]
        return f"{scan.table} {scan.alias}"
    return "<no scans>"


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
    witness = ReorderWitness(
        kind="union-order",
        before=tuple(
            (str(i), _branch_signature(b))
            for i, b in enumerate(root.branches)
        ),
        after=tuple(
            (str(i), _branch_signature(root.branches[i])) for i in order
        ),
        estimates=tuple(estimates[i] for i in order),
    )
    root.branches = [root.branches[i] for i in order]
    return PassReport(
        name,
        True,
        1,
        "reordered union branches largest-estimate first "
        "(UNION dedup + global ORDER BY make branch order irrelevant "
        "to results)",
        reorders=(witness,),
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
