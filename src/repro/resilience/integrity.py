"""Post-load integrity verification for shredded stores.

After a load's rows are written (but before the enclosing savepoint is
released) the loader verifies the invariants every later query relies
on, per document:

* **count** — the number of rows written equals the document's element
  count,
* **parents** — every non-root ``par_id`` references an element row of
  the same document (no orphan subtrees),
* **paths** — every ``path_id`` resolves in the `Paths` relation (no
  dangling foreign keys),
* **Dewey order** — within the freshly loaded id range, Dewey positions
  are strictly increasing with the preorder element id; both encode
  document order, so any divergence means a corrupted shred.

All four are read back from the database — the rows of the documents
the load wrote, one statement across every relation
(:meth:`~repro.storage.database.Database.query_across`), and the `Paths`
relation — not from the in-memory tree or the path cache.  The same
rows are what the load's path-summary deltas are counted from, so a
load reads what it wrote once.  A failed check raises inside the
savepoint, which rolls the whole load back — the store is left
byte-identical to its pre-load state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

#: (table, path_id, doc_id, valued, id, par_id, dewey_pos); ``valued`` is
#: 1 when the row stores a text value.
_Row = tuple[str, int, int, int, int, "int | None", bytes]


@dataclass(frozen=True)
class IntegrityIssue:
    """One violated invariant."""

    kind: str  # "count-mismatch" | "orphan-parent" | "dangling-path" | "dewey-order"
    table: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.kind}] {self.table}: {self.detail}"


@dataclass(frozen=True)
class LoadCheck:
    """What :func:`check_document_load` read and found."""

    issues: list[IntegrityIssue]
    #: Every stored row of the loaded documents.
    rows: list[_Row]
    #: The `Paths` relation, ``id -> path``.
    paths: dict[int, str]


def _element_rows(
    db, tables: Mapping[str, bool], where: str = "", params: tuple = ()
) -> list[_Row]:
    """The :data:`_Row` of each element row ``where`` selects, across
    ``tables`` (relation -> has a text column): the one place the
    checks read element rows."""
    return db.query_across(
        {
            table: "path_id, doc_id, "
            + ("text IS NOT NULL" if text else "0")
            + ", id, par_id, dewey_pos"
            for table, text in tables.items()
        },
        where,
        params,
    )


def _paths(db) -> dict[int, str]:
    return dict(db.query("SELECT id, path FROM paths"))


def _referential_issues(
    rows: Sequence[_Row], paths: Mapping[int, str]
) -> list[IntegrityIssue]:
    """Orphan parents and dangling path ids among ``rows``, per table.
    A parent counts only when it is one of ``rows`` and of the same
    document."""
    owner = {row[4]: row[2] for row in rows}
    orphans: Counter[str] = Counter()
    dangling: Counter[str] = Counter()
    for table, path_id, doc_id, _, _, par_id, _ in rows:
        if par_id is not None and owner.get(par_id) != doc_id:
            orphans[table] += 1
        if path_id not in paths:
            dangling[table] += 1
    return [
        IntegrityIssue(
            "orphan-parent", table, f"{n} row(s) reference a missing parent"
        )
        for table, n in orphans.items()
    ] + [
        IntegrityIssue(
            "dangling-path", table, f"{n} row(s) carry an unknown path_id"
        )
        for table, n in dangling.items()
    ]


def check_document_load(
    db, tables: Mapping[str, bool], loaded: Sequence[tuple[int, int, int]]
) -> LoadCheck:
    """Verify the just-loaded documents across their mapping relations.

    ``tables`` maps the element relations of the store (the schema-aware
    mapping's tables, or ``edge``) to whether each has a text column;
    ``loaded`` holds one ``(doc_id, base, count)`` per document of the
    load: the contiguous global-id range ``base + 1 … base + count`` it
    was assigned.  Reads every row of those documents, wherever its id
    is, in one statement: a row outside its document's range is a count
    mismatch.
    """
    if not loaded:
        return LoadCheck([], [], {})
    doc_ids = {doc_id for doc_id, _, _ in loaded}
    rows = [
        row
        for row in _element_rows(
            db,
            tables,
            "WHERE doc_id BETWEEN ?1 AND ?2",
            (min(doc_ids), max(doc_ids)),
        )
        if row[2] in doc_ids
    ]
    paths = _paths(db)
    issues = _referential_issues(rows, paths)
    by_document: dict[int, list[_Row]] = {doc_id: [] for doc_id in doc_ids}
    for row in rows:
        by_document[row[2]].append(row)
    everything = "+".join(tables)
    for doc_id, base, count in loaded:
        stored = by_document[doc_id]
        # Restricted to the fresh id range, so later subtree appends
        # (which legitimately break global id order) never trip the
        # Dewey-order check.
        in_range = sorted(
            (row for row in stored if base < row[4] <= base + count),
            key=itemgetter(4),
        )
        if not len(stored) == len(in_range) == count:
            issues.append(
                IntegrityIssue(
                    "count-mismatch",
                    everything,
                    f"expected {count} element rows for doc {doc_id}, "
                    f"found {len(stored)} ({len(in_range)} in its id range)",
                )
            )
        for previous, row in zip(in_range, in_range[1:]):
            if row[6] <= previous[6]:
                issues.append(
                    IntegrityIssue(
                        "dewey-order",
                        everything,
                        f"dewey_pos of id {row[4]} does not follow "
                        f"id {previous[4]}",
                    )
                )
                break
    return LoadCheck(issues, rows, paths)


def check_referential_integrity(db, tables: Iterable[str]) -> list[IntegrityIssue]:
    """The same scan over the whole store, minus the two invariants
    appends and deletes legitimately break (count and Dewey order):
    orphan parents and dangling ``path_id`` references across all
    documents.  Used by diagnostics."""
    return _referential_issues(
        _element_rows(db, dict.fromkeys(tables, False)), _paths(db)
    )
