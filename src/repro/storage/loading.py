"""The write path shared by the Dewey/`Paths` stores (paper Section 3).

Every change to a store is one transaction,
:meth:`_DocumentStore._mutation`: the rows, the generation that versions
them and the path summary that describes them commit together, and the
in-memory state follows the commit.  Both mappings give every element
row the same four descriptors and fill the `Paths` relation "gradually
during insertion", so loading is one procedure inside it:
:meth:`_DocumentStore._load_documents`.  A store supplies only what is
its own — its element relations, its secondary-index DDL,
:meth:`~_DocumentStore._write_document`, what versions its rows — and
may extend the integrity check.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from repro.dewey import COMPONENT_BYTES, encode
from repro.errors import StoreIntegrityError
from repro.resilience.integrity import (
    IntegrityIssue,
    LoadCheck,
    check_document_load,
    check_referential_integrity,
)
from repro.storage.database import Database
from repro.storage.paths import PathIndex
from repro.xmltree.nodes import Document, ElementNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stats.maintenance import Deltas
    from repro.stats.summary import PathSummary

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
        db.execute(f"PRAGMA synchronous = {int(previous_sync)}")
        db.execute(f"PRAGMA temp_store = {int(previous_temp)}")


#: The Dewey code of a document's root element, ``(1,)``.
_ROOT_CODE = encode((1,))


@dataclass
class _Mutation:
    """What the body of one :meth:`_DocumentStore._mutation` hands over
    about the rows it wrote."""

    #: The first id no row uses once the body has run.
    next_base: int
    #: A bulk load (statistics are collected if the store has none).
    bulk: bool = False
    #: The documents a load writes and, as each lands, its ``(doc_id,
    #: base, count)``.
    documents: Sequence[Document] = ()
    loaded: list[tuple[int, int, int]] = field(default_factory=list)
    #: The document removed, if one was.
    removed: Optional[int] = None
    #: What the change adds to the path summary, counted from the rows
    #: it wrote or deleted while that summary is exact.  A change that
    #: reports none leaves the summary behind — stale, hence absent —
    #: until statistics are collected (a first bulk load collects it).
    deltas: "Optional[Deltas]" = None

    @property
    def whole_documents(self) -> bool:
        """The change added or removed documents and touched nothing
        inside one, so the in-memory documents still mirror the rows."""
        return bool(self.loaded) or self.removed is not None


class _DocumentStore:
    """Base of :class:`~repro.storage.schema_aware.ShreddedStore` and
    :class:`~repro.storage.edge.EdgeStore`: the ``docs`` registry, the
    path index, the resident documents, the generation and the one
    transaction every mutation runs in."""

    def __init__(self, db: Database, tables: Mapping[str, bool]):
        self.db = db
        #: The element relations (every one carries ``id``, ``par_id``,
        #: ``path_id``, ``dewey_pos`` and ``doc_id``), each to whether it
        #: has a ``text`` column.
        self._tables = dict(tables)
        self.path_index = PathIndex(db)
        next_base, stored = db.query_one(
            "SELECT COALESCE(MAX(base + node_count), 0), COUNT(*) FROM docs"
        )
        self._next_base = int(next_base)
        #: Monotonic mutation counter: every :meth:`_mutation` adds one.
        #: The engines' result cache keys on it, so a mutation
        #: implicitly invalidates every cached answer.  Only mutations
        #: made *through this store object* count — writers on other
        #: connections (or processes) are invisible to it.
        self._generation = 0
        #: In-memory copies of documents loaded through this store
        #: instance (doc_id -> Document); used by the engines'
        #: native-evaluator fallback.
        self.documents: dict[int, Document] = {}
        self._document_bases: dict[int, int] = {}
        # Fallback answers are only trustworthy when every stored
        # document is resident and unmodified since loading.
        self._documents_resident = not stored

    @property
    def generation(self) -> int:
        """Current mutation-counter value (see ``_generation``)."""
        return self._generation

    # -- the one transaction -----------------------------------------------------

    @contextmanager
    def _mutation(self, *, bulk: bool = False) -> Iterator[_Mutation]:
        """One change to the store, as one transaction.

        The body writes rows and fills in the :class:`_Mutation` it is
        given.  On the way out, still inside the savepoint,
        :meth:`_write_version` persists what versions those rows — the
        next generation and, while it is exact, the path summary — so
        that one commit publishes rows, generation and summary together
        and no crash can separate them.  Memory moves only once that
        commit has returned: a reader of this object never sees a
        generation, a summary or a resident document the database could
        still lose.  Any exception rolls the store back to the bytes it
        had, leaves memory as it was and the connection outside a
        transaction.

        ``bulk`` runs the transaction under :func:`bulk_pragmas`.
        """
        mutation = _Mutation(self._next_base, bulk)
        generation = self._generation + 1
        with bulk_pragmas(self.db) if bulk else nullcontext():
            try:
                with self.db.savepoint("repro_mutation"):
                    yield mutation
                    summary = self._write_version(generation, mutation)
                self.db.commit()
            except BaseException:
                # Whatever failed — the commit included — nothing stays
                # open; paths inserted inside the aborted transaction are
                # gone from the relation, so drop them from the cache too.
                self.db.connection.rollback()
                self.path_index.refresh()
                raise
            self._generation = generation
            if summary is not None:
                self._adopt_summary(summary)
            self._next_base = mutation.next_base
            for (doc_id, base, _), document in zip(
                mutation.loaded, mutation.documents
            ):
                self.documents[doc_id] = document
                self._document_bases[doc_id] = base
            if mutation.removed is not None:
                self.documents.pop(mutation.removed, None)
                self._document_bases.pop(mutation.removed, None)
            if not mutation.whole_documents:
                self._documents_resident = False

    # -- loading -----------------------------------------------------------------

    def load(self, document: Document) -> int:
        """Shred ``document`` into the store, durably.

        The load runs inside one savepoint and is verified by the
        post-load integrity check before release: any mid-load failure
        (or detected inconsistency) rolls every row back, leaving the
        store exactly as it was.

        :returns: the assigned ``doc_id``.
        :raises StorageError: if the store has a schema and the document
            does not conform to it, or carries an attribute or text its
            relation has no column for (nothing is written).
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
        self,
        documents: Sequence[Document],
        *,
        bulk: bool,
        ids: Optional[Sequence[tuple[int, int]]] = None,
    ) -> list[int]:
        """Write ``documents`` as one mutation.

        ``ids`` gives each document its ``(doc_id, base)``: the fleet
        stores a document under the ids its registry assigned, so a
        shard file holds exactly the rows a single store would.  Without
        it the store allocates both itself.
        """
        documents = list(documents)
        if not documents:
            return []
        for document in documents:
            self._check_conforms(document)
        drop_indexes, create_indexes = (
            self._index_statements() if bulk else ((), ())
        )
        with self._mutation(bulk=bulk) as mutation:
            mutation.documents = documents
            for statement in drop_indexes:
                self.db.execute(statement)
            for index, document in enumerate(documents):
                doc_id, base = (
                    ids[index] if ids is not None
                    else (None, mutation.next_base)
                )
                # A NULL id makes SQLite allocate the next rowid.
                cursor = self.db.execute(
                    "INSERT INTO docs (id, name, base, node_count) "
                    "VALUES (?, ?, ?, 0)",
                    (doc_id, document.name, base),
                )
                doc_id = int(cursor.lastrowid)
                count = self._write_document(document, doc_id, base)
                self.db.execute(
                    "UPDATE docs SET node_count = ? WHERE id = ?",
                    (count, doc_id),
                )
                mutation.loaded.append((doc_id, base, count))
                mutation.next_base = base + count
            for statement in create_indexes:
                self.db.execute(statement)
            check = self._check_load(mutation.loaded)
            if check.issues:
                raise StoreIntegrityError(
                    "post-load integrity check failed: "
                    + "; ".join(str(issue) for issue in check.issues)
                )
            mutation.deltas = self._load_deltas(check)
        return [doc_id for doc_id, _, _ in mutation.loaded]

    # -- what a store supplies ---------------------------------------------------

    def _write_document(
        self, document: Document, doc_id: int, base: int
    ) -> int:
        """Insert the rows of ``document``, ids ``base + 1 … base +
        count``; returns ``count``."""
        raise NotImplementedError

    def _descriptors(
        self,
        document: Document,
        base: int,
        *,
        par_id: Optional[int] = None,
        prefix: str = "",
        code: bytes = _ROOT_CODE,
    ) -> Iterator[tuple[ElementNode, Optional[int], int, bytes]]:
        """``(element, par_id, path_id, dewey_pos)`` of every element of
        ``document`` in preorder, in one pass over its preorder list;
        an element's own id is ``base + element.node_id``.

        Path ids come from one :meth:`PathIndex.ensure_many` call.  A
        child's Dewey code is its parent's plus its ordinal as one
        component (Section 4.2); :meth:`Document.reindex` bounded every
        ordinal, so none is checked again.  The keywords place a
        fragment below a stored element: that element's id and path,
        and the Dewey code of the fragment's root.
        """
        relative = document.distinct_paths()
        ids = self.path_index.ensure_many([prefix + path for path in relative])
        path_ids = {path: ids[prefix + path] for path in relative}
        root = document.root
        codes: list[bytes] = []
        for element in document.iter_elements():
            if element is root:
                parent_id = par_id
            else:
                parent = element.parent
                parent_id = base + parent.node_id
                code = codes[parent.node_id - 1] + element.dewey[-1].to_bytes(
                    COMPONENT_BYTES, "big"
                )
            codes.append(code)
            yield element, parent_id, path_ids[element.path], code

    def _index_statements(self) -> tuple[Sequence[str], Sequence[str]]:
        """``(DROP statements, CREATE statements)`` of the secondary
        indexes a bulk load rebuilds."""
        raise NotImplementedError

    def _write_version(
        self, generation: int, mutation: _Mutation
    ) -> "Optional[PathSummary]":
        """Persist what versions the rows ``mutation`` describes — called
        inside its savepoint, after its body.  Returns the summary
        written, for :meth:`_adopt_summary` once the commit is through."""
        return None

    def _adopt_summary(self, summary: "PathSummary") -> None:
        """``summary`` is committed: make it the one memory holds."""
        raise NotImplementedError

    def _check_conforms(self, document: Document) -> None:
        """Raise before any write when ``document`` cannot be stored."""

    def _check_load(self, loaded: Sequence[tuple[int, int, int]]) -> LoadCheck:
        """The rows of the ``(doc_id, base, count)`` loads just written
        (still inside their savepoint) and the invariants they violate."""
        return check_document_load(self.db, self._tables, loaded)

    def _load_deltas(self, check: LoadCheck) -> "Optional[Deltas]":
        """What the rows a load wrote (read back by ``check``) add to
        the path summary, when the store keeps an exact one."""
        return None

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
