"""The write path shared by the Dewey/`Paths` stores (paper Section 3).

Both mappings give every element row the same four descriptors and
fill the `Paths` relation "gradually during insertion", so loading is
one procedure: :meth:`_DocumentStore._load_documents`.  A store supplies
only what is its own — its element relations, its secondary-index DDL,
:meth:`~_DocumentStore._write_document` — and may extend the integrity
check and what follows a commit.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, Sequence

from repro.errors import StoreIntegrityError
from repro.resilience.integrity import (
    IntegrityIssue,
    check_document_load,
    check_referential_integrity,
)
from repro.storage.database import Database
from repro.storage.paths import PathIndex
from repro.xmltree.nodes import Document

_DOCS_DDL = """
CREATE TABLE IF NOT EXISTS docs (
    id         INTEGER PRIMARY KEY,
    name       TEXT NOT NULL,
    base       INTEGER NOT NULL,
    node_count INTEGER NOT NULL
)
"""


@contextmanager
def bulk_pragmas(db: Database) -> Iterator[None]:
    """Scope with ``synchronous=OFF`` / ``temp_store=MEMORY``; the
    previous values are restored on exit (success or failure).

    Initial loads are write-only and easily re-run, so they trade
    durability for speed while they run: the loaded rows are
    integrity-checked before the scope ends, and a crash mid-load loses
    only the load itself, never a previously committed state.

    Callers must commit inside the scope — changing ``synchronous``
    mid-transaction is undefined, so the restore has to happen back in
    autocommit mode.
    """
    previous_sync = db.query_one("PRAGMA synchronous")[0]
    previous_temp = db.query_one("PRAGMA temp_store")[0]
    db.execute("PRAGMA synchronous = OFF")
    db.execute("PRAGMA temp_store = MEMORY")
    try:
        yield
    finally:
        db.execute(f"PRAGMA synchronous = {int(previous_sync)}")  # static-ok: sql-interp
        db.execute(f"PRAGMA temp_store = {int(previous_temp)}")  # static-ok: sql-interp


class _DocumentStore:
    """Base of :class:`~repro.storage.schema_aware.ShreddedStore` and
    :class:`~repro.storage.edge.EdgeStore`: the ``docs`` registry, the
    path index, the resident documents and the one load transaction."""

    def __init__(self, db: Database, tables: Sequence[str]):
        self.db = db
        #: The element relations (every one carries ``id``, ``par_id``,
        #: ``path_id``, ``dewey_pos`` and ``doc_id``).
        self._tables = list(tables)
        self.path_index = PathIndex(db)
        next_base, stored = db.query_one(
            "SELECT COALESCE(MAX(base + node_count), 0), COUNT(*) FROM docs"
        )
        self._next_base = int(next_base)
        #: In-memory copies of documents loaded through this store
        #: instance (doc_id -> Document); used by the engines'
        #: native-evaluator fallback.
        self.documents: dict[int, Document] = {}
        self._document_bases: dict[int, int] = {}
        # Fallback answers are only trustworthy when every stored
        # document is resident and unmodified since loading.
        self._documents_resident = not stored

    # -- loading -----------------------------------------------------------------

    def load(self, document: Document) -> int:
        """Shred ``document`` into the store, durably.

        The load runs inside one savepoint and is verified by the
        post-load integrity check before release: any mid-load failure
        (or detected inconsistency) rolls every row back, leaving the
        store exactly as it was.

        :returns: the assigned ``doc_id``.
        :raises StorageError: if the store has a schema and the document
            does not conform to it.
        :raises StoreIntegrityError: if the freshly written rows violate
            a store invariant (the load is rolled back first).
        """
        return self._load_documents([document], bulk=False)[0]

    def bulk_load(self, documents: Sequence[Document]) -> list[int]:
        """Load many documents in one transaction, for initial loads.

        The same procedure and the same integrity check as
        :meth:`load`, except that the secondary indexes are dropped up
        front and rebuilt once after every row lands (index maintenance
        per row is what dominates ``load`` loops) and the transaction
        runs with ``synchronous=OFF`` / ``temp_store=MEMORY`` (restored
        at exit).  A failure rolls the store — and its indexes — back to
        the pre-call state.  On an already populated store the index
        rebuild re-sorts existing rows too, so the speedup is largest on
        a fresh store.

        :returns: the assigned ``doc_id``s, in input order.
        """
        return self._load_documents(documents, bulk=True)

    def _load_documents(
        self, documents: Sequence[Document], *, bulk: bool
    ) -> list[int]:
        documents = list(documents)
        if not documents:
            return []
        for document in documents:
            self._check_conforms(document)
        drop_indexes, create_indexes = (
            self._index_statements() if bulk else ((), ())
        )
        #: (doc_id, base, count) per document, in input order.
        loaded: list[tuple[int, int, int]] = []
        next_base = self._next_base
        with bulk_pragmas(self.db) if bulk else nullcontext():
            try:
                with self.db.savepoint("repro_load"):
                    for statement in drop_indexes:
                        self.db.execute(statement)
                    for document in documents:
                        self.path_index.ensure_many(
                            document.distinct_paths()
                        )
                        cursor = self.db.execute(
                            "INSERT INTO docs (name, base, node_count) "
                            "VALUES (?, ?, 0)",
                            (document.name, next_base),
                        )
                        doc_id = int(cursor.lastrowid)
                        count = self._write_document(
                            document, doc_id, next_base
                        )
                        self.db.execute(
                            "UPDATE docs SET node_count = ? WHERE id = ?",
                            (count, doc_id),
                        )
                        loaded.append((doc_id, next_base, count))
                        next_base += count
                    for statement in create_indexes:
                        self.db.execute(statement)
                    issues = self._load_issues(loaded)
                    if issues:
                        raise StoreIntegrityError(
                            "post-load integrity check failed: "
                            + "; ".join(str(issue) for issue in issues)
                        )
            except BaseException:
                # Paths inserted inside the aborted savepoint are gone
                # from the relation; drop them from the cache too.
                self.path_index.refresh()
                raise
            self.db.commit()
        for (doc_id, base, _), document in zip(loaded, documents):
            self.documents[doc_id] = document
            self._document_bases[doc_id] = base
        self._next_base = next_base
        self._bump_generation()
        self._after_load(documents, bulk)
        return [doc_id for doc_id, _, _ in loaded]

    # -- what a store supplies ---------------------------------------------------

    def _write_document(
        self, document: Document, doc_id: int, base: int
    ) -> int:
        """Insert the rows of ``document``, ids ``base + 1 … base +
        count``; returns ``count``."""
        raise NotImplementedError

    def _index_statements(self) -> tuple[Sequence[str], Sequence[str]]:
        """``(DROP statements, CREATE statements)`` of the secondary
        indexes a bulk load rebuilds."""
        raise NotImplementedError

    def _bump_generation(self) -> None:
        raise NotImplementedError

    def _check_conforms(self, document: Document) -> None:
        """Raise before any write when ``document`` cannot be stored."""

    def _load_issues(
        self, loaded: Sequence[tuple[int, int, int]]
    ) -> list[IntegrityIssue]:
        """Invariants violated by the ``(doc_id, base, count)`` loads
        just written (still inside their savepoint)."""
        return check_document_load(self.db, self._tables, loaded)

    def _after_load(self, documents: Sequence[Document], bulk: bool) -> None:
        """Upkeep once the load is committed and the generation bumped."""

    # -- diagnostics / fallback support ------------------------------------------

    def verify_integrity(self) -> list[IntegrityIssue]:
        """Store-wide referential checks (diagnostics): orphan parents
        and dangling ``path_id`` references across all relations."""
        return check_referential_integrity(self.db, self._tables)

    def resident_documents(self) -> dict[int, tuple[Document, int]] | None:
        """``doc_id -> (Document, base)`` when the in-memory copies
        mirror the stored data exactly — i.e. every document was loaded
        through this store instance and none was modified since.
        Returns ``None`` otherwise; the engines' native fallback then
        declines rather than serve stale answers."""
        if not self._documents_resident:
            return None
        return {
            doc_id: (doc, self._document_bases[doc_id])
            for doc_id, doc in self.documents.items()
        }
