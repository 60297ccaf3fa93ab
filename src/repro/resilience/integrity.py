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

All four are read back from the database — the rows of the id range the
load assigned, fetched once per relation — not from the in-memory tree
or the path cache.  A failed check raises inside the savepoint, which
rolls the whole load back — the store is left byte-identical to its
pre-load state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

#: (table, id, par_id, path_id, dewey_pos, doc_id)
_Row = tuple[str, int, "int | None", int, bytes, int]


@dataclass(frozen=True)
class IntegrityIssue:
    """One violated invariant."""

    kind: str  # "count-mismatch" | "orphan-parent" | "dangling-path" | "dewey-order"
    table: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.kind}] {self.table}: {self.detail}"


def _element_rows(
    db, tables: Sequence[str], where: str = "", params: tuple = ()
) -> list[_Row]:
    """The descriptor columns of the element rows ``where`` selects,
    across ``tables`` (the one place the checks read element rows)."""
    return [
        (table, *row)
        for table in tables
        for row in db.query(  # static-ok: sql-interp
            f"SELECT id, par_id, path_id, dewey_pos, doc_id "
            f"FROM {table} {where}",
            params,
        )
    ]


def _path_ids(db) -> set[int]:
    return {row[0] for row in db.query("SELECT id FROM paths")}


def _referential_issues(
    rows: Sequence[_Row], path_ids: set[int]
) -> list[IntegrityIssue]:
    """Orphan parents and dangling path ids among ``rows``, per table.
    A parent counts only when it is one of ``rows`` and of the same
    document."""
    owner = {row_id: doc_id for _, row_id, _, _, _, doc_id in rows}
    orphans: Counter[str] = Counter()
    dangling: Counter[str] = Counter()
    for table, _, par_id, path_id, _, doc_id in rows:
        if par_id is not None and owner.get(par_id) != doc_id:
            orphans[table] += 1
        if path_id not in path_ids:
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
    db, tables: Sequence[str], loaded: Sequence[tuple[int, int, int]]
) -> list[IntegrityIssue]:
    """Verify the just-loaded documents across their mapping relations.

    ``tables`` are the element relations of the store (the schema-aware
    mapping's tables, or ``["edge"]``); ``loaded`` holds one
    ``(doc_id, base, count)`` per document of the load: the contiguous
    global-id range ``base + 1 … base + count`` it was assigned.
    """
    if not loaded:
        return []
    # Rows per document anywhere in the store: one of the document's
    # rows outside its id range is a count mismatch too.
    stored: Counter[int] = Counter()
    doc_ids = [doc_id for doc_id, _, _ in loaded]
    for table in tables:
        stored.update(
            dict(
                db.query(  # static-ok: sql-interp
                    f"SELECT doc_id, COUNT(*) FROM {table} "
                    f"WHERE doc_id BETWEEN ? AND ? GROUP BY doc_id",
                    (min(doc_ids), max(doc_ids)),
                )
            )
        )
    path_ids = _path_ids(db)
    issues: list[IntegrityIssue] = []
    everything = "+".join(tables)
    for doc_id, base, count in loaded:
        rows = _element_rows(
            db, tables, "WHERE id > ? AND id <= ?", (base, base + count)
        )
        in_range = sum(row[5] == doc_id for row in rows)
        if not stored[doc_id] == in_range == count:
            issues.append(
                IntegrityIssue(
                    "count-mismatch",
                    everything,
                    f"expected {count} element rows for doc {doc_id}, "
                    f"found {stored[doc_id]} ({in_range} in its id range)",
                )
            )
        issues.extend(_referential_issues(rows, path_ids))
        # Restricted to the fresh id range, so later subtree appends
        # (which legitimately break global id order) never trip it.
        rows.sort(key=itemgetter(1))
        for previous, row in zip(rows, rows[1:]):
            if row[4] <= previous[4]:
                issues.append(
                    IntegrityIssue(
                        "dewey-order",
                        everything,
                        f"dewey_pos of id {row[1]} does not follow "
                        f"id {previous[1]}",
                    )
                )
                break
    return issues


def check_referential_integrity(db, tables: Sequence[str]) -> list[IntegrityIssue]:
    """The same scan over the whole store, minus the two invariants
    appends and deletes legitimately break (count and Dewey order):
    orphan parents and dangling ``path_id`` references across all
    documents.  Used by diagnostics."""
    return _referential_issues(_element_rows(db, tables), _path_ids(db))
