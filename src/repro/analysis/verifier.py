"""Static verification of logical query plans (the ``PlanVerifier``).

PR 4's typed plan IR makes the paper's correctness arguments *checkable*:
every invariant below is a lemma or construction rule of the paper
re-stated as a predicate over :class:`~repro.plan.nodes.QueryPlan`.  The
verifier walks a plan (including correlated sub-selects, carrying the
enclosing alias scope) and reports violations as findings:

``PV001`` **unbound alias** — every ``alias.column`` reference in raw
    SQL, projections and ORDER BY binds to a FROM-clause alias of the
    select or an enclosing select (correlation).
``PV002`` **disconnected join graph** — the scans of each select form a
    connected graph under its join conditions (correlated references
    count as edges to a virtual outer vertex); a disconnected component
    is an accidental cross product.
``PV003`` **Dewey typing** — structural predicates use a Table 2
    operator for a known axis, and their operands are element relations
    carrying ``dewey_pos``/``doc_id`` columns; the two-column `Paths`
    relation can never appear in a Dewey comparison.  A path filter
    tests an element relation: by its ``path_id`` once resolved to
    literal paths, through a `Paths` scan linked to it while a regex.
``PV004`` **justified filter elimination** — every rewrite the
    ``paths-join-elimination`` pass performed carries a U-P/F-P/I-P
    marking witness that re-derives under the marking, and every
    filter ``costed-access-strategy`` dropped as a tautology carries a
    witness that re-derives from the path summary it cites.
``PV005`` **anchored path regexes** — every Table 1 regex is ``^…$``
    delimited (anchored patterns pin the root, unanchored ones an
    explicit ``^.*`` prefix) and every Table 3 equality / membership
    list carries absolute literal paths that the filter's own regex
    accepts.
``PV006`` **observable order/uniqueness** — the top-level plan still
    orders by exactly ``doc_id, dewey_pos`` and enforces result
    uniqueness after pruning (the result path skips its own sort /
    dedupe on the strength of those clauses).
``PV007`` **projection shape** — top-level branches project the
    ``id, doc_id, dewey_pos[, value]`` tuple, identically across UNION
    branches.
``PV008`` **justified cost-based reorders** — every scan/branch
    permutation the ``costed-join-order`` / ``costed-union-order``
    passes performed carries a :class:`~repro.plan.passes.
    ReorderWitness` proving it is a pure permutation (no scan gained,
    lost, or rebound to a different table) that preserves every
    recorded structural-join binding orientation, and the surviving
    plan actually exhibits the witnessed order.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence, Union

from repro.analysis.report import Report, Severity
from repro.core.pathregex import PatternStep, compile_pattern
from repro.dewey.relations import axis_names
from repro.errors import SchemaError, TranslationError
from repro.plan.nodes import (
    DOCUMENT_ORDER,
    AggregateCountCond,
    DocEqCond,
    ExistsCond,
    LevelCond,
    LogicalSelect,
    NameFilterCond,
    PathFilterCond,
    PathsLinkCond,
    PlanCond,
    PlanUnion,
    QueryPlan,
    RawCond,
    Scan,
    StructuralCond,
    child_subplans,
    iter_conditions,
)
from repro.plan.passes import (
    EliminationWitness,
    PassReport,
    ReorderWitness,
    TautologyWitness,
    _distinct_redundant,
)
from repro.schema.marking import PathClass, SchemaMarking
from repro.stats.summary import PathSummary

_ANALYZER = "plan-verifier"

#: Columns of the two-column `Paths` relation (Section 3); anything else
#: dereferenced off a `Paths` alias is a typing error.
_PATHS_COLUMNS = frozenset({"id", "path"})

_STRING_LITERAL = re.compile(r"'(?:[^']|'')*'")
_COLUMN_REF = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)")
#: ``FROM table [AS] alias`` bindings inside embedded sub-SELECT text
#: (the Edge adapter's scalar attribute sub-queries).
_FROM_BINDING = re.compile(
    r"\b(?:FROM|JOIN)\s+([A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s+(?:AS\s+)?([A-Za-z_][A-Za-z0-9_]*))?",
    re.IGNORECASE,
)
_SQL_KEYWORDS = frozenset(
    {
        "where", "on", "and", "or", "not", "group", "order", "limit",
        "join", "cross", "inner", "left", "right", "union", "as",
        "select", "from", "set", "having",
    }
)

#: Virtual join-graph vertex standing for "the enclosing select's row".
_OUTER = "<outer>"


def _column_refs(text: str) -> list[tuple[str, str]]:
    """``(alias, column)`` dereferences in a SQL text fragment, with
    string literals stripped so quoted values never look like refs."""
    return _COLUMN_REF.findall(_STRING_LITERAL.sub("''", text))


def _local_bindings(text: str) -> set[str]:
    """Aliases (and bare table names) bound by FROM/JOIN clauses *inside*
    the text itself — embedded scalar sub-queries bring their own scope."""
    bound: set[str] = set()
    for table, alias in _FROM_BINDING.findall(_STRING_LITERAL.sub("''", text)):
        bound.add(table)
        if alias and alias.lower() not in _SQL_KEYWORDS:
            bound.add(alias)
    return bound


class _UnionFind:
    """Minimal union-find over string vertices (join-graph components)."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def add(self, vertex: str) -> None:
        self._parent.setdefault(vertex, vertex)

    def find(self, vertex: str) -> str:
        self.add(vertex)
        root = vertex
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[vertex] != root:
            self._parent[vertex], vertex = root, self._parent[vertex]
        return root

    def union(self, a: str, b: str) -> None:
        self._parent[self.find(a)] = self.find(b)

    def components(self, vertices: Sequence[str]) -> list[set[str]]:
        groups: dict[str, set[str]] = {}
        for vertex in vertices:
            groups.setdefault(self.find(vertex), set()).add(vertex)
        return list(groups.values())


class PlanVerifier:
    """Checks the paper's structural invariants over one or more plans.

    :param marking: the Section 4.5 schema marking used to re-derive
        ``paths-join-elimination`` witnesses (``None`` for the
        schema-oblivious Edge mapping, where the pass must not fire).
    :param summary: the store's path summary, used to re-derive
        ``costed-access-strategy`` tautology witnesses; one recorded
        against another version of the summary cannot be re-derived and
        is reported.
    """

    def __init__(
        self,
        marking: Optional[SchemaMarking] = None,
        summary: Optional[PathSummary] = None,
    ):
        self.marking = marking
        self.summary = summary

    # -- entry points ------------------------------------------------------------

    def verify(
        self,
        plan: QueryPlan,
        pass_reports: Sequence[PassReport] = (),
        subject: Optional[str] = None,
    ) -> Report:
        """Verify one optimized plan (plus its optimizer-pass reports)."""
        report = Report()
        label = subject if subject is not None else plan.expression
        if plan.root is not None:
            branches = plan.branches()
            for branch in branches:
                self._check_select(branch, [], report, label)
            self._check_observability(plan, report, label)
            self._check_projection_shape(plan, report, label)
        self._check_witnesses(pass_reports, report, label)
        self._check_tautologies(pass_reports, report, label)
        self._check_reorders(plan, pass_reports, report, label)
        return report

    # -- per-select invariants (recursive) ---------------------------------------

    def _check_select(
        self,
        select: LogicalSelect,
        outer_scopes: list[dict[str, Scan]],
        report: Report,
        subject: str,
    ) -> None:
        local = {scan.alias: scan for scan in select.scans}
        if len(local) != len(select.scans):
            seen: set[str] = set()
            for scan in select.scans:
                if scan.alias in seen:
                    report.add(
                        _ANALYZER,
                        "PV001",
                        Severity.ERROR,
                        f"alias {scan.alias!r} is bound twice in one "
                        "FROM clause",
                        subject,
                        "Section 4.3",
                    )
                seen.add(scan.alias)
        self._check_bindings(select, local, outer_scopes, report, subject)
        self._check_connectivity(select, local, outer_scopes, report, subject)
        self._check_conditions(select, local, outer_scopes, report, subject)
        # Recurse into correlated sub-selects with this select in scope.
        scopes = outer_scopes + [local]
        for condition in iter_conditions(select.where):
            for subplan in child_subplans(condition):
                self._check_select(subplan, scopes, report, subject)

    # -- PV001: alias binding ----------------------------------------------------

    def _resolve(
        self,
        alias: str,
        local: dict[str, Scan],
        outer_scopes: list[dict[str, Scan]],
    ) -> Optional[Scan]:
        if alias in local:
            return local[alias]
        for scope in reversed(outer_scopes):
            if alias in scope:
                return scope[alias]
        return None

    def _check_text_refs(
        self,
        text: str,
        where: str,
        local: dict[str, Scan],
        outer_scopes: list[dict[str, Scan]],
        report: Report,
        subject: str,
    ) -> None:
        embedded = _local_bindings(text)
        for alias, column in _column_refs(text):
            if alias in embedded:
                continue
            scan = self._resolve(alias, local, outer_scopes)
            if scan is None:
                report.add(
                    _ANALYZER,
                    "PV001",
                    Severity.ERROR,
                    f"{where} references {alias}.{column}, but no "
                    f"enclosing FROM clause binds {alias!r}",
                    subject,
                    "Section 4.3",
                )
            elif scan.is_paths and column not in _PATHS_COLUMNS:
                report.add(
                    _ANALYZER,
                    "PV003",
                    Severity.ERROR,
                    f"{where} reads {alias}.{column}, but `Paths` has "
                    "only (id, path) — Dewey/document columns live on "
                    "element relations",
                    subject,
                    "Section 3, Table 2",
                )

    def _check_bindings(
        self,
        select: LogicalSelect,
        local: dict[str, Scan],
        outer_scopes: list[dict[str, Scan]],
        report: Report,
        subject: str,
    ) -> None:
        for column in select.columns:
            self._check_text_refs(
                column, "projection", local, outer_scopes, report, subject
            )
        for order in select.order_by:
            self._check_text_refs(
                order, "ORDER BY", local, outer_scopes, report, subject
            )
        for condition in iter_conditions(select.where):
            if isinstance(condition, RawCond):
                self._check_text_refs(
                    condition.sql,
                    "condition",
                    local,
                    outer_scopes,
                    report,
                    subject,
                )
            else:
                for alias in _typed_aliases(condition):
                    if self._resolve(alias, local, outer_scopes) is None:
                        report.add(
                            _ANALYZER,
                            "PV001",
                            Severity.ERROR,
                            f"{type(condition).__name__} references "
                            f"alias {alias!r}, but no enclosing FROM "
                            "clause binds it",
                            subject,
                            "Section 4.3",
                        )

    # -- PV002: join-graph connectivity ------------------------------------------

    def _check_connectivity(
        self,
        select: LogicalSelect,
        local: dict[str, Scan],
        outer_scopes: list[dict[str, Scan]],
        report: Report,
        subject: str,
    ) -> None:
        if len(local) < 2:
            return
        graph = _UnionFind()
        for alias in local:
            graph.add(alias)
        has_outer = bool(outer_scopes)
        if has_outer:
            graph.add(_OUTER)
        for condition in iter_conditions(select.where):
            vertices = self._condition_vertices(
                condition, local, outer_scopes
            )
            anchor: Optional[str] = None
            for vertex in vertices:
                if anchor is None:
                    anchor = vertex
                else:
                    graph.union(anchor, vertex)
        components = graph.components(
            sorted(local) + ([_OUTER] if has_outer else [])
        )
        if len(components) > 1:
            described = " | ".join(
                "{" + ", ".join(sorted(c)) + "}" for c in components
            )
            report.add(
                _ANALYZER,
                "PV002",
                Severity.ERROR,
                "join graph is disconnected (accidental cross product): "
                f"components {described}",
                subject,
                "Section 4.2 (join-graph well-formedness)",
            )

    def _condition_vertices(
        self,
        condition: PlanCond,
        local: dict[str, Scan],
        outer_scopes: list[dict[str, Scan]],
    ) -> set[str]:
        """Join-graph vertices one condition connects (locals by name,
        any enclosing-scope reference collapsed to the virtual outer)."""

        def classify(aliases: set[str]) -> set[str]:
            vertices: set[str] = set()
            for alias in aliases:
                if alias in local:
                    vertices.add(alias)
                elif any(alias in scope for scope in outer_scopes):
                    vertices.add(_OUTER)
            return vertices

        if isinstance(condition, RawCond):
            embedded = _local_bindings(condition.sql)
            return classify(
                {
                    alias
                    for alias, _ in _column_refs(condition.sql)
                    if alias not in embedded
                }
            )
        if isinstance(condition, (ExistsCond, AggregateCountCond)):
            mentioned: set[str] = set()
            for subplan in child_subplans(condition):
                mentioned |= _subplan_mentions(subplan)
            return classify(mentioned)
        return classify(set(_typed_aliases(condition)))

    # -- PV003 / PV005: typed condition checks -----------------------------------

    def _check_conditions(
        self,
        select: LogicalSelect,
        local: dict[str, Scan],
        outer_scopes: list[dict[str, Scan]],
        report: Report,
        subject: str,
    ) -> None:
        for condition in iter_conditions(select.where):
            if isinstance(condition, StructuralCond):
                if condition.axis not in axis_names():
                    report.add(
                        _ANALYZER,
                        "PV003",
                        Severity.ERROR,
                        f"structural join claims axis "
                        f"{condition.axis!r}, which has no Table 2 "
                        "Dewey formulation",
                        subject,
                        "Table 2, Lemmas 1-2",
                    )
                self._require_element_operand(
                    condition.context_alias,
                    "structural join context",
                    local,
                    outer_scopes,
                    report,
                    subject,
                )
                self._require_element_operand(
                    condition.target_alias,
                    "structural join target",
                    local,
                    outer_scopes,
                    report,
                    subject,
                )
            elif isinstance(condition, DocEqCond):
                for alias in (condition.left_alias, condition.right_alias):
                    self._require_element_operand(
                        alias,
                        "document guard",
                        local,
                        outer_scopes,
                        report,
                        subject,
                    )
            elif isinstance(condition, LevelCond):
                aliases = [condition.alias]
                if condition.base_alias is not None:
                    aliases.append(condition.base_alias)
                for alias in aliases:
                    self._require_element_operand(
                        alias,
                        "level arithmetic",
                        local,
                        outer_scopes,
                        report,
                        subject,
                    )
            elif isinstance(condition, PathsLinkCond):
                scan = self._resolve(
                    condition.paths_alias, local, outer_scopes
                )
                if scan is not None and not scan.is_paths:
                    report.add(
                        _ANALYZER,
                        "PV003",
                        Severity.ERROR,
                        f"paths link binds {condition.paths_alias!r} to "
                        f"table {scan.table!r}, not `Paths`",
                        subject,
                        "Section 3",
                    )
                owner = self._resolve(
                    condition.owner_alias, local, outer_scopes
                )
                if owner is not None and owner.is_paths:
                    report.add(
                        _ANALYZER,
                        "PV003",
                        Severity.ERROR,
                        "paths link owner "
                        f"{condition.owner_alias!r} is itself a `Paths` "
                        "scan",
                        subject,
                        "Section 3",
                    )
            elif isinstance(condition, PathFilterCond):
                self._check_path_filter(
                    condition, select, local, outer_scopes, report, subject
                )

    def _require_element_operand(
        self,
        alias: str,
        role: str,
        local: dict[str, Scan],
        outer_scopes: list[dict[str, Scan]],
        report: Report,
        subject: str,
    ) -> None:
        scan = self._resolve(alias, local, outer_scopes)
        if scan is not None and scan.is_paths:
            report.add(
                _ANALYZER,
                "PV003",
                Severity.ERROR,
                f"{role} operand {alias!r} is a `Paths` scan; Dewey "
                "comparisons are typed over element relations only",
                subject,
                "Table 2, Lemmas 1-2",
            )

    def _check_path_filter(
        self,
        condition: PathFilterCond,
        select: LogicalSelect,
        local: dict[str, Scan],
        outer_scopes: list[dict[str, Scan]],
        report: Report,
        subject: str,
    ) -> None:
        owner = self._resolve(condition.alias, local, outer_scopes)
        if owner is not None and owner.is_paths:
            report.add(
                _ANALYZER,
                "PV003",
                Severity.ERROR,
                f"path filter tests {condition.alias!r}, a `Paths` scan; "
                "a path filter restricts the rows of an element relation",
                subject,
                "Section 3, Table 1",
            )
        if condition.mode == "regex":
            self._check_regex_filter_join(
                condition, select, local, report, subject
            )
        literals = condition.literal_paths()
        if literals is not None and (
            not literals
            or any(not p or not p.startswith("/") for p in literals)
        ):
            report.add(
                _ANALYZER,
                "PV005",
                Severity.ERROR,
                f"path {condition.mode} filter must carry a non-empty "
                f"set of absolute literal paths (got {literals!r})",
                subject,
                "Table 3",
            )
            return
        # The pattern stays attached in every mode: it is what an
        # equality/``in`` filter's literals stand for.
        if not condition.pattern:
            report.add(
                _ANALYZER,
                "PV005",
                Severity.ERROR,
                "path filter has an empty pattern",
                subject,
                "Table 1",
            )
            return
        try:
            regex = compile_pattern(
                list(condition.pattern), condition.anchored
            )
        except TranslationError as exc:
            report.add(
                _ANALYZER,
                "PV005",
                Severity.ERROR,
                f"path pattern does not compile: {exc}",
                subject,
                "Table 1",
            )
            return
        if not regex.startswith("^") or not regex.endswith("$"):
            report.add(
                _ANALYZER,
                "PV005",
                Severity.ERROR,
                f"compiled path regex {regex!r} is not ^…$ anchored",
                subject,
                "Table 1, Section 4.3",
            )
            return
        accepts = re.compile(regex).search
        strays = [p for p in literals or () if not accepts(p)]
        if strays:
            report.add(
                _ANALYZER,
                "PV005",
                Severity.ERROR,
                f"path {condition.mode} filter lists {strays!r}, which "
                "its own path regex does not accept",
                subject,
                "Table 1, Table 3",
            )

    def _check_regex_filter_join(
        self,
        condition: PathFilterCond,
        select: LogicalSelect,
        local: dict[str, Scan],
        report: Report,
        subject: str,
    ) -> None:
        """A regex reads ``paths_alias.path``: its select must scan
        `Paths` under that alias and link the row to the filter's
        owner."""
        scan = local.get(condition.paths_alias)
        if scan is None or not scan.is_paths:
            bound = "unbound" if scan is None else f"table {scan.table!r}"
            report.add(
                _ANALYZER,
                "PV003",
                Severity.ERROR,
                f"regex path filter reads {condition.paths_alias!r} "
                f"({bound}), not a `Paths` scan of its select",
                subject,
                "Section 3, Table 1",
            )
        elif not any(
            isinstance(part, PathsLinkCond)
            and part.owner_alias == condition.alias
            and part.paths_alias == condition.paths_alias
            for part in iter_conditions(select.where)
        ):
            report.add(
                _ANALYZER,
                "PV003",
                Severity.ERROR,
                f"regex path filter on {condition.alias!r} reads "
                f"{condition.paths_alias!r}, but no paths link joins "
                "the two",
                subject,
                "Section 3, Table 1",
            )

    # -- PV004: elimination witnesses --------------------------------------------

    def _check_witnesses(
        self,
        pass_reports: Sequence[PassReport],
        report: Report,
        subject: str,
    ) -> None:
        for pass_report in pass_reports:
            if pass_report.name != "paths-join-elimination":
                continue
            if not pass_report.fired:
                continue
            if self.marking is None:
                report.add(
                    _ANALYZER,
                    "PV004",
                    Severity.ERROR,
                    "paths-join-elimination fired without a schema "
                    "marking to justify it",
                    subject,
                    "Section 4.5",
                )
                continue
            if len(pass_report.witnesses) != pass_report.changes:
                report.add(
                    _ANALYZER,
                    "PV004",
                    Severity.ERROR,
                    f"pass performed {pass_report.changes} rewrite(s) "
                    f"but recorded {len(pass_report.witnesses)} "
                    "marking witness(es)",
                    subject,
                    "Section 4.5",
                )
            for witness in pass_report.witnesses:
                self._check_one_witness(witness, report, subject)

    def _check_one_witness(
        self, witness: EliminationWitness, report: Report, subject: str
    ) -> None:
        marking = self.marking
        assert marking is not None

        def fail(message: str) -> None:
            report.add(
                _ANALYZER,
                "PV004",
                Severity.ERROR,
                f"witness for {witness.alias!r} does not re-derive: "
                + message,
                subject,
                "Section 4.5",
            )

        if witness.kind not in ("redundant", "unsatisfiable"):
            fail(f"unknown witness kind {witness.kind!r}")
            return
        if not witness.classes:
            fail("no candidate classes recorded")
            return
        regex = _witness_regex(witness.pattern, witness.anchored)
        if isinstance(regex, str):
            fail(regex)
            return

        any_match = False
        needed = False
        matched_paths: set[str] = set()
        for name, claimed in witness.classes:
            try:
                actual = marking.classify(name)
            except SchemaError:
                fail(f"records {name!r}, which the schema does not know")
                return
            if actual.value != claimed:
                fail(
                    f"records {name!r} as {claimed}, but the marking "
                    f"says {actual.value}"
                )
                return
            if actual is PathClass.INFINITE:
                needed = True
                any_match = True
                continue
            paths = marking.root_paths(name) or []
            matched = [p for p in paths if regex.search(p)]
            if matched:
                any_match = True
                matched_paths.update(matched)
            if len(matched) != len(paths):
                needed = True

        if tuple(sorted(matched_paths)) != witness.matched_paths:
            fail(
                f"recorded matched paths {list(witness.matched_paths)} "
                f"differ from re-derived {sorted(matched_paths)}"
            )
            return
        if witness.kind == "redundant" and (needed or not any_match):
            fail(
                "claims the filter is redundant, but some enumerated "
                "root path fails the pattern (the filter restricts "
                "something)"
            )
        elif witness.kind == "unsatisfiable" and any_match:
            fail(
                "claims the filter is unsatisfiable, but a candidate "
                "root path satisfies the pattern"
            )

    def _check_tautologies(
        self,
        pass_reports: Sequence[PassReport],
        report: Report,
        subject: str,
    ) -> None:
        for pass_report in pass_reports:
            for witness in pass_report.tautologies:
                message = self._tautology_failure(witness)
                if message is not None:
                    report.add(
                        _ANALYZER,
                        "PV004",
                        Severity.ERROR,
                        f"tautology witness for {witness.alias!r} does "
                        "not re-derive: " + message,
                        subject,
                        "Section 4.5 (summary-proved extension)",
                    )

    def _tautology_failure(self, witness: TautologyWitness) -> Optional[str]:
        """Why the summary does not prove the dropped filter redundant
        (``None`` when it does)."""
        summary = self.summary
        if summary is None or summary.version != witness.summary_version:
            held = None if summary is None else summary.version
            return (
                f"it cites summary version {witness.summary_version}, "
                f"the verifier holds {held}"
            )
        if not witness.names:
            return "no candidate names recorded"
        regex = _witness_regex(witness.pattern, witness.anchored)
        if isinstance(regex, str):
            return regex
        matched = sorted(p for p in summary.stats if regex.search(p))
        if list(witness.matched_paths) != matched:
            return (
                f"recorded matched paths {list(witness.matched_paths)} "
                f"differ from re-derived {matched}"
            )
        unmatched = sorted(
            p
            for p in summary.stats
            if p.rsplit("/", 1)[-1] in witness.names and p not in matched
        )
        if unmatched:
            return (
                f"stored path(s) {unmatched} of {list(witness.names)} "
                "fail the pattern (the filter restricts something)"
            )
        return None

    # -- PV008: cost-based reorder witnesses --------------------------------------

    def _check_reorders(
        self,
        plan: QueryPlan,
        pass_reports: Sequence[PassReport],
        report: Report,
        subject: str,
    ) -> None:
        for pass_report in pass_reports:
            if pass_report.name not in (
                "costed-join-order",
                "costed-union-order",
            ):
                continue
            if not pass_report.fired:
                continue
            if len(pass_report.reorders) != pass_report.changes:
                report.add(
                    _ANALYZER,
                    "PV008",
                    Severity.ERROR,
                    f"{pass_report.name} performed "
                    f"{pass_report.changes} reorder(s) but recorded "
                    f"{len(pass_report.reorders)} witness(es)",
                    subject,
                    "Section 4.5 (cost-based extension)",
                )
            for witness in pass_report.reorders:
                self._check_one_reorder(witness, plan, report, subject)

    def _check_one_reorder(
        self,
        witness: ReorderWitness,
        plan: QueryPlan,
        report: Report,
        subject: str,
    ) -> None:
        def fail(message: str) -> None:
            report.add(
                _ANALYZER,
                "PV008",
                Severity.ERROR,
                f"{witness.kind} reorder witness does not re-derive: "
                + message,
                subject,
                "Section 4.5 (cost-based extension)",
            )

        if witness.kind not in ("join-order", "union-order"):
            fail(f"unknown reorder kind {witness.kind!r}")
            return
        if sorted(witness.before) != sorted(witness.after):
            fail(
                "the reorder is not a pure permutation: before "
                f"{list(witness.before)} vs after {list(witness.after)}"
            )
            return
        if witness.kind == "union-order":
            estimates = witness.estimates
            if any(
                estimates[i] < estimates[i + 1]
                for i in range(len(estimates) - 1)
            ):
                fail(
                    "branch estimates are not non-increasing: "
                    f"{list(estimates)}"
                )
            return
        bindings = dict(
            (alias, table) for table, alias in witness.before
        )
        for table, alias in witness.after:
            if bindings.get(alias) != table:
                fail(
                    f"alias {alias!r} is bound to {table!r} after the "
                    f"reorder but {bindings.get(alias)!r} before"
                )
                return
        position = {alias: i for i, (_, alias) in enumerate(witness.after)}
        origin = {alias: i for i, (_, alias) in enumerate(witness.before)}
        for first, second in witness.ordered_pairs:
            if first not in position or second not in position:
                continue  # pair touches an alias outside this select
            before_order = origin[first] < origin[second]
            after_order = position[first] < position[second]
            if before_order != after_order:
                fail(
                    "structural-join binding orientation of "
                    f"({first}, {second}) was flipped (Dewey probes are "
                    "nested-loop direction-sensitive)"
                )
                return
        # The surviving plan must actually exhibit the witnessed order —
        # unless the whole branch was pruned by a later pass, in which
        # case there is nothing left to check.
        if plan.root is None:
            return
        witnessed_aliases = {alias for _, alias in witness.after}
        candidates = [
            tuple((s.table, s.alias) for s in select.scans)
            for select in self._all_selects(plan)
            if {s.alias for s in select.scans} == witnessed_aliases
        ]
        if candidates and witness.after not in candidates:
            fail(
                "no surviving select exhibits the witnessed scan order "
                f"{list(witness.after)}"
            )

    @staticmethod
    def _all_selects(plan: QueryPlan) -> list[LogicalSelect]:
        """Every select in the plan, sub-select bodies included."""
        result: list[LogicalSelect] = []

        def walk(select: LogicalSelect) -> None:
            result.append(select)
            for condition in iter_conditions(select.where):
                for subplan in child_subplans(condition):
                    walk(subplan)

        for branch in plan.branches():
            walk(branch)
        return result

    # -- PV006: observable order / duplicates ------------------------------------

    def _check_observability(
        self, plan: QueryPlan, report: Report, subject: str
    ) -> None:
        root = plan.root
        assert root is not None
        if tuple(root.order_by) != DOCUMENT_ORDER:
            report.add(
                _ANALYZER,
                "PV006",
                Severity.ERROR,
                "top-level plan does not ORDER BY exactly doc_id, "
                f"dewey_pos (found {list(root.order_by)!r}); document "
                "order is observable in every XPath result",
                subject,
                "Section 2 (document order), Section 4.3, Section 4.4",
            )
        # The UNION keyword deduplicates across branches, so pruned
        # per-branch DISTINCTs stay sound.
        if not (
            isinstance(root, PlanUnion)
            or root.distinct
            or _distinct_redundant(root)
        ):
            report.add(
                _ANALYZER,
                "PV006",
                Severity.ERROR,
                "DISTINCT was pruned from a select whose shape does not "
                "prove row uniqueness (duplicates are observable)",
                subject,
                "Section 4.4",
            )

    # -- PV007: projection shape --------------------------------------------------

    def _check_projection_shape(
        self, plan: QueryPlan, report: Report, subject: str
    ) -> None:
        expected = ["id", "doc_id", "dewey_pos"]
        if plan.projection in ("text", "attribute"):
            expected.append("value")
        for branch in plan.branches():
            if len(branch.columns) != len(expected):
                report.add(
                    _ANALYZER,
                    "PV007",
                    Severity.ERROR,
                    f"branch projects {len(branch.columns)} column(s), "
                    f"expected {len(expected)} for a "
                    f"{plan.projection!r} projection",
                    subject,
                    "Section 4.1",
                )
                continue
            for column, name in zip(branch.columns, expected):
                if not column.endswith(f"AS {name}"):
                    report.add(
                        _ANALYZER,
                        "PV007",
                        Severity.ERROR,
                        f"branch column {column!r} does not export "
                        f"AS {name} (UNION branches must align)",
                        subject,
                        "Section 4.1, Section 4.4",
                    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _witness_regex(
    pattern: "tuple[object, ...]", anchored: bool
) -> "Union[re.Pattern[str], str]":
    """The compiled Table 1 regex of a witness's recorded pattern, or
    the reason it has none."""
    steps = [step for step in pattern if isinstance(step, PatternStep)]
    if len(steps) != len(pattern):
        return "pattern contains non-PatternStep entries"
    try:
        return re.compile(compile_pattern(steps, anchored))
    except TranslationError as exc:
        return f"recorded pattern does not compile ({exc})"


def _typed_aliases(condition: PlanCond) -> list[str]:
    """Alias fields carried by a typed (non-raw) condition node."""
    if isinstance(condition, PathFilterCond):
        # Resolved to literal paths, a filter reads its owner only.
        if condition.mode == "regex":
            return [condition.alias, condition.paths_alias]
        return [condition.alias]
    if isinstance(condition, PathsLinkCond):
        return [condition.owner_alias, condition.paths_alias]
    if isinstance(condition, NameFilterCond):
        return [condition.alias]
    if isinstance(condition, StructuralCond):
        return [condition.context_alias, condition.target_alias]
    if isinstance(condition, DocEqCond):
        return [condition.left_alias, condition.right_alias]
    if isinstance(condition, LevelCond):
        aliases = [condition.alias]
        if condition.base_alias is not None:
            aliases.append(condition.base_alias)
        return aliases
    return []


def _subplan_mentions(select: LogicalSelect) -> set[str]:
    """Every alias a sub-select mentions anywhere (its own scans
    excluded) — the outer aliases it correlates with."""
    mentioned: set[str] = set()
    for text in list(select.columns) + list(select.order_by):
        mentioned.update(alias for alias, _ in _column_refs(text))
    for condition in iter_conditions(select.where):
        if isinstance(condition, RawCond):
            embedded = _local_bindings(condition.sql)
            mentioned.update(
                alias
                for alias, _ in _column_refs(condition.sql)
                if alias not in embedded
            )
        else:
            mentioned.update(_typed_aliases(condition))
        for subplan in child_subplans(condition):
            mentioned |= _subplan_mentions(subplan)
    mentioned -= {scan.alias for scan in select.scans}
    return mentioned


def verify_plan(
    plan: QueryPlan,
    pass_reports: Sequence[PassReport] = (),
    marking: Optional[SchemaMarking] = None,
    subject: Optional[str] = None,
    summary: Optional[PathSummary] = None,
) -> Report:
    """One-shot convenience wrapper around :class:`PlanVerifier`."""
    return PlanVerifier(marking=marking, summary=summary).verify(
        plan, pass_reports, subject=subject
    )


PlanLike = Union[QueryPlan, LogicalSelect, PlanUnion]
