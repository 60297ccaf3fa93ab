"""Schema-aware XML-to-relational mapping and shredder (paper Section 3).

Mapping rules:

* each globally shared complex type maps to one relation,
* every other element declaration maps to its own relation,
* text and attributes map to typed columns of the element's relation.

Every relation carries the four descriptors of Figure 1c — ``id`` (global
preorder element id), ``par_id`` (parent element id), ``dewey_pos``
(binary Dewey position) and ``path_id`` (FK into the `Paths` relation) —
plus ``doc_id``.  Indexes follow Section 3.1 — the primary key on
``id``, an index on the parent FK and the composite Dewey/path index —
with ``doc_id`` leading the composite: ``(doc_id, dewey_pos, path_id)``
is document order, so a statement's ``ORDER BY doc_id, dewey_pos`` reads
it instead of sorting, and a structural join probes one document's
Dewey range.  Values are stored as ``TEXT`` whatever their kind (the
lexical form is what ``text()`` returns); a numeric comparison casts.

Simplification vs. the paper (documented in DESIGN.md): element ids are
global across all relations, so a single ``par_id`` column replaces the
paper's one-FK-column-per-possible-parent-relation; the sibling-axis
conditions of Table 2 already assume such a comparable parent id.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.dewey import decode, encode
from repro.errors import SchemaError, StorageError
from typing import Iterable

from repro.schema.marking import SchemaMarking
from repro.schema.model import Schema
from repro.stats import maintenance as _stats
from repro.stats.summary import PathSummary, StatsState
from repro.storage.database import Database
from repro.storage.loading import _DOCS_DDL, _DocumentStore, _Mutation
from repro.xmltree.nodes import Document, ElementNode

#: Identifiers that element names must not shadow (meta tables and SQL
#: keywords that commonly appear as tag names).
_RESERVED = {
    # meta tables of this library
    "paths",
    "docs",
    "edge",
    "attrs",
    "accel",
    "accel_attr",
    # SQL keywords likely to appear as XML tag names
    "abort", "add", "all", "alter", "and", "as", "asc", "attach",
    "begin", "between", "by", "case", "cast", "check", "collate",
    "column", "commit", "create", "cross", "current", "database",
    "default", "delete", "desc", "distinct", "drop", "each", "else",
    "end", "escape", "except", "exists", "explain", "filter", "for",
    "foreign", "from", "full", "glob", "group", "having", "if", "in",
    "index", "inner", "insert", "intersect", "into", "is", "join",
    "key", "left", "like", "limit", "match", "natural", "no", "not",
    "null", "of", "offset", "on", "or", "order", "outer", "over",
    "plan", "pragma", "primary", "query", "references", "regexp",
    "release", "rename", "right", "rollback", "row", "rows", "select",
    "set", "table", "then", "to", "transaction", "trigger", "union",
    "unique", "update", "using", "vacuum", "values", "view", "virtual",
    "when", "where", "window", "with", "without",
}

_IDENTIFIER_RE = re.compile(r"[^A-Za-z0-9_]")


def sanitize_identifier(name: str, taken: set[str]) -> str:
    """Turn an XML name into a fresh, safe SQL identifier.

    Invalid characters become ``_``; reserved words and collisions (SQLite
    identifiers are case-insensitive) get numeric suffixes.  ``taken`` is
    updated with the chosen identifier's lowercase form.
    """
    base = _IDENTIFIER_RE.sub("_", name) or "el"
    if base[0].isdigit():
        base = "el_" + base
    candidate = base
    suffix = 1
    while candidate.lower() in _RESERVED or candidate.lower() in taken:
        suffix += 1
        candidate = f"{base}_{suffix}"
    taken.add(candidate.lower())
    return candidate


@dataclass
class RelationInfo:
    """One mapping relation: its table and typed value columns."""

    table: str
    #: Element names stored in this relation (one unless a shared type).
    element_names: list[str]
    text_kind: str | None = None
    #: attribute name -> (column name, value kind)
    attr_columns: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def shared(self) -> bool:
        """True when several element names share this relation (complex
        type reuse); rows then need the ``elname`` discriminator."""
        return len(self.element_names) > 1

    def attr_column(self, attr_name: str) -> tuple[str, str]:
        """(column, kind) of an attribute.

        :raises SchemaError: if the attribute is not declared.
        """
        try:
            return self.attr_columns[attr_name]
        except KeyError:
            raise SchemaError(
                f"relation {self.table!r} has no attribute {attr_name!r}"
            ) from None


class SchemaAwareMapping:
    """Derives the relational layout for a schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.relations: dict[str, RelationInfo] = {}
        self._by_element: dict[str, RelationInfo] = {}
        taken: set[str] = set()
        by_type: dict[str, list[str]] = {}
        reachable = schema.reachable_from_roots()
        singles: list[str] = []
        for name in schema.element_names():
            if name not in reachable:
                continue
            decl = schema[name]
            if decl.type_name:
                by_type.setdefault(decl.type_name, []).append(name)
            else:
                singles.append(name)
        for type_name, names in by_type.items():
            self._add_relation(type_name, names, taken)
        for name in singles:
            self._add_relation(name, [name], taken)

    def _add_relation(
        self, raw_table: str, names: list[str], taken: set[str]
    ) -> None:
        table = sanitize_identifier(raw_table, taken)
        text_kind: str | None = None
        attr_columns: dict[str, tuple[str, str]] = {}
        col_taken = {
            "id",
            "doc_id",
            "par_id",
            "path_id",
            "dewey_pos",
            "elname",
            "text",
        }
        for name in names:
            decl = self.schema[name]
            if decl.text_kind is not None:
                # A shared relation degrades mixed kinds to string.
                if text_kind is None:
                    text_kind = decl.text_kind
                elif text_kind != decl.text_kind:
                    text_kind = "string"
            for attr in decl.attributes.values():
                if attr.name not in attr_columns:
                    column = sanitize_identifier("attr_" + attr.name, col_taken)
                    attr_columns[attr.name] = (column, attr.kind)
        info = RelationInfo(table, list(names), text_kind, attr_columns)
        self.relations[table] = info
        for name in names:
            self._by_element[name] = info

    # -- lookup ------------------------------------------------------------

    def relation_for(self, element_name: str) -> RelationInfo:
        """The relation storing elements named ``element_name``.

        :raises SchemaError: if the name is not mapped.
        """
        try:
            return self._by_element[element_name]
        except KeyError:
            raise SchemaError(
                f"no relation maps element {element_name!r}"
            ) from None

    def relations_for(self, element_names: Iterable[str]) -> list[RelationInfo]:
        """Distinct relations covering the given element names, in stable
        (table-name) order."""
        seen: dict[str, RelationInfo] = {}
        for name in element_names:
            info = self.relation_for(name)
            seen.setdefault(info.table, info)
        return [seen[t] for t in sorted(seen)]

    # -- DDL ------------------------------------------------------------------

    def ddl(self) -> list[str]:
        """CREATE TABLE / CREATE INDEX statements for all relations."""
        statements = []
        for info in self.relations.values():
            statements.append(self._table_ddl(info))
            statements.extend(self._index_ddl(info))
        return statements

    def index_ddl(self) -> list[str]:
        """Only the secondary-index statements (Section 3.1's parent-FK
        and Dewey/path indexes).  The bulk-load fast path
        re-runs these after the rows land, which is far cheaper than
        maintaining the trees row by row."""
        return [
            statement
            for info in self.relations.values()
            for statement in self._index_ddl(info)
        ]

    def drop_index_ddl(self) -> list[str]:
        """DROP statements matching :meth:`index_ddl`."""
        return [
            statement
            for info in self.relations.values()
            for statement in (
                f"DROP INDEX IF EXISTS idx_{info.table}_par",
                f"DROP INDEX IF EXISTS idx_{info.table}_dewey",
            )
        ]

    def _table_ddl(self, info: RelationInfo) -> str:
        columns = [
            "id INTEGER PRIMARY KEY",
            "doc_id INTEGER NOT NULL",
            "par_id INTEGER",
            "path_id INTEGER NOT NULL REFERENCES paths(id)",
            "dewey_pos BLOB NOT NULL",
        ]
        if info.shared:
            columns.append("elname TEXT NOT NULL")
        # TEXT whatever the kind: NUMERIC affinity would rewrite
        # '134.20' to 134.2 on insert, and text() returns what was stored.
        if info.text_kind is not None:
            columns.append("text TEXT")
        for column, _ in info.attr_columns.values():
            columns.append(f"{column} TEXT")
        return (
            f"CREATE TABLE {info.table} (\n  "
            + ",\n  ".join(columns)
            + "\n)"
        )

    def _index_ddl(self, info: RelationInfo) -> list[str]:
        return [
            f"CREATE INDEX idx_{info.table}_par ON {info.table}(par_id)",
            f"CREATE INDEX idx_{info.table}_dewey "
            f"ON {info.table}(doc_id, dewey_pos, path_id)",
        ]


_META_DDL = """
CREATE TABLE IF NOT EXISTS repro_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""


class ShreddedStore(_DocumentStore):
    """A schema-aware shredded XML store over one :class:`Database`."""

    def __init__(
        self,
        db: Database,
        schema: Schema,
        mapping: SchemaAwareMapping,
        marking: SchemaMarking,
    ):
        super().__init__(db, list(mapping.relations))
        self.schema = schema
        self.mapping = mapping
        self.marking = marking
        # The counter is persisted in ``repro_meta``, so the
        # path-summary statistics stay versioned across reopen.
        row = db.query_one(
            "SELECT value FROM repro_meta WHERE key = 'generation'"
        )
        self._generation = int(row[0]) if row is not None else 0
        # Path-summary statistics (repro.stats), loaded lazily.
        self._stats_loaded = False
        self._stats_state: StatsState | None = None
        self._summary: PathSummary | None = None

    @classmethod
    def create(cls, db: Database, schema: Schema) -> "ShreddedStore":
        """Create all relations in ``db`` and return the store.

        The schema graph is persisted alongside the data (``repro_meta``)
        so :meth:`open` can reattach to the database later.
        """
        schema.validate()
        mapping = SchemaAwareMapping(schema)
        db.execute(_DOCS_DDL)
        db.execute(_META_DDL)
        db.execute(
            "INSERT OR REPLACE INTO repro_meta (key, value) VALUES (?, ?)",
            ("schema", json.dumps(schema.to_dict())),
        )
        for statement in mapping.ddl():
            db.execute(statement)
        db.commit()
        return cls(db, schema, mapping, SchemaMarking(schema))

    @classmethod
    def open(cls, db: Database) -> "ShreddedStore":
        """Reattach to a database previously built by :meth:`create`.

        :raises StorageError: when the database has no persisted schema.
        """
        row = db.query_one(
            "SELECT value FROM repro_meta WHERE key = 'schema'"
        ) if "repro_meta" in db.table_names() else None
        if row is None:
            raise StorageError(
                "database holds no persisted schema; was it created by "
                "ShreddedStore.create()?"
            )
        schema = Schema.from_dict(json.loads(row[0]))
        mapping = SchemaAwareMapping(schema)
        return cls(db, schema, mapping, SchemaMarking(schema))

    def _write_version(
        self, generation: int, mutation: _Mutation
    ) -> PathSummary | None:
        self.db.execute(
            "INSERT OR REPLACE INTO repro_meta (key, value) "
            "VALUES ('generation', ?)",
            (str(generation),),
        )
        if mutation.deltas is None and not mutation.loaded:
            # The change did not say what it adds: the summary falls
            # behind (stale, hence absent) until collected again.
            return None
        before = self.path_summary()
        if before is not None:
            per_path, per_relation, documents = mutation.deltas or (
                *_stats.document_deltas(self.mapping, mutation.documents),
                len(mutation.documents),
            )
            summary = before.plus(
                per_path,
                per_relation,
                documents=documents,
                version=(before.version[0] + 1, generation),
            )
        elif mutation.bulk and self._stats_state is None:
            # "Collected at shred time": a bulk load gives a store that
            # has no statistics its first summary.  A single-document
            # ``load`` only maintains counts that already exist, so
            # unit-scale stores stay statistics-free — and hence
            # byte-identical to the heuristic pipeline — until
            # bulk-loaded or explicitly analyzed; a summary that lagged
            # behind going in stays stale until explicitly refreshed.
            summary = _stats.collect_summary(
                self.db, self.mapping, (1, generation)
            )
        else:
            return None
        _stats.persist_summary(self.db, summary, self.path_index.all_paths())
        return summary

    # -- loading -----------------------------------------------------------------

    def _check_conforms(self, document: Document) -> None:
        if not self.schema.conforms(document):
            raise StorageError(
                f"document {document.name!r} does not conform to the schema"
            )

    def _index_statements(self) -> tuple[list[str], list[str]]:
        return self.mapping.drop_index_ddl(), self.mapping.index_ddl()

    def _write_document(
        self, document: Document, doc_id: int, base: int
    ) -> int:
        count = 0
        rows_by_relation: dict[str, list[tuple]] = {}
        for element in document.iter_elements():
            count += 1
            info = self.mapping.relation_for(element.name)
            rows_by_relation.setdefault(info.table, []).append(
                self._row_for(element, info, doc_id, base)
            )
        self._insert_rows(rows_by_relation)
        return count

    def _insert_rows(self, rows_by_relation: dict[str, list[tuple]]) -> None:
        for table, rows in rows_by_relation.items():
            self.db.executemany(
                self._insert_sql(self.mapping.relations[table]), rows
            )

    def _insert_sql(self, info: RelationInfo) -> str:
        columns = ["id", "doc_id", "par_id", "path_id", "dewey_pos"]
        if info.shared:
            columns.append("elname")
        if info.text_kind is not None:
            columns.append("text")
        columns.extend(col for col, _ in info.attr_columns.values())
        placeholders = ", ".join("?" for _ in columns)
        return (
            f"INSERT INTO {info.table} ({', '.join(columns)}) "
            f"VALUES ({placeholders})"
        )

    def _row_for(
        self,
        element: ElementNode,
        info: RelationInfo,
        doc_id: int,
        base: int,
        *,
        par_id: int | None = None,
        path: str | None = None,
        dewey: tuple[int, ...] | None = None,
    ) -> tuple:
        """The row of ``element``.  The keywords place a fragment below
        an element already stored (:meth:`append_subtree`): the id of
        that parent for the fragment's root, and the absolute path and
        Dewey vector in place of the fragment-relative ones."""
        parent = element.parent
        if parent is not None:
            par_id = base + parent.node_id
        row: list = [
            base + element.node_id,
            doc_id,
            par_id,
            self.path_index.ensure(path or element.path),
            encode(dewey or element.dewey),
        ]
        if info.shared:
            row.append(element.name)
        if info.text_kind is not None:
            row.append(element.direct_text or None)
        for attr_name in info.attr_columns:
            row.append(element.attributes.get(attr_name))
        return tuple(row)

    # -- id translation -------------------------------------------------------------

    def doc_base(self, doc_id: int) -> int:
        """Global-id base of a document."""
        row = self.db.query_one("SELECT base FROM docs WHERE id = ?", (doc_id,))
        if row is None:
            raise StorageError(f"unknown doc_id {doc_id}")
        return int(row[0])

    def to_document_node_id(self, global_id: int) -> tuple[int, int]:
        """Map a global element id back to ``(doc_id, node_id)``."""
        row = self.db.query_one(
            "SELECT id, base FROM docs "
            "WHERE base < ? AND ? <= base + node_count",
            (global_id, global_id),
        )
        if row is None:
            raise StorageError(f"global id {global_id} belongs to no document")
        return int(row[0]), global_id - int(row[1])

    # -- maintenance ---------------------------------------------------------------------

    def delete_document(self, doc_id: int) -> int:
        """Remove one document's rows from every mapping relation.

        The `Paths` relation is left untouched (paths are shared across
        documents, exactly like the paper's gradually-filled index).

        :returns: the number of element rows removed.
        :raises StorageError: for an unknown ``doc_id``.
        """
        row = self.db.query_one(
            "SELECT node_count FROM docs WHERE id = ?", (doc_id,)
        )
        if row is None:
            raise StorageError(f"unknown doc_id {doc_id}")
        removed = 0
        with self._mutation() as mutation:
            mutation.removed = doc_id
            # Capture the statistics deltas while the rows still exist
            # (they only apply to a summary that is exact going in).
            if self.path_summary() is not None:
                mutation.deltas = (
                    *_stats.removal_deltas(self.db, self.mapping, doc_id),
                    -1,
                )
            for table in self.mapping.relations:
                cursor = self.db.execute(  # static-ok: sql-interp
                    f"DELETE FROM {table} WHERE doc_id = ?", (doc_id,)
                )
                removed += cursor.rowcount
            self.db.execute("DELETE FROM docs WHERE id = ?", (doc_id,))
        return removed

    def append_subtree(self, parent_global_id: int, element: ElementNode) -> list[int]:
        """Insert ``element`` (with its subtree) as the last child of an
        existing stored element — the paper's incremental insertion: new
        root-to-node paths join the `Paths` relation on first sight and
        Dewey ordinals extend without renumbering (append position).

        The fragment must conform to the schema below the parent's
        declaration.  Returns the new global element ids (preorder).

        Appended elements carry correct descriptors for querying, but
        fall outside the original document's contiguous id range;
        :meth:`to_document_node_id` does not cover them (result rows
        still carry the right ``doc_id``).

        :raises StorageError: unknown parent or non-conforming fragment.
        """
        located = self._locate_with_info(parent_global_id)
        if located is None:
            raise StorageError(f"no element with id {parent_global_id}")
        doc_id, parent_dewey_blob, parent_info = located
        parent_name = self._element_name_of(parent_global_id, parent_info)
        if not self._subtree_conforms(parent_name, element):
            raise StorageError(
                f"fragment <{element.name}> does not conform to the "
                f"schema under {parent_name!r}"
            )
        parent_vector = decode(parent_dewey_blob)
        ordinal = self._next_child_ordinal(parent_global_id)
        parent_path_row = self.db.query_one(  # static-ok: sql-interp
            f"SELECT p.path FROM {parent_info.table} t, paths p "
            f"WHERE t.id = ? AND t.path_id = p.id",
            (parent_global_id,),
        )
        parent_path = parent_path_row[0]

        # Index the fragment standalone, then translate its descriptors
        # into the parent's coordinate system.
        fragment = Document(element, name="fragment")
        new_ids = []
        rows_by_relation: dict[str, list[tuple]] = {}
        with self._mutation() as mutation:
            for node in fragment.iter_elements():
                info = self.mapping.relation_for(node.name)
                row = self._row_for(
                    node,
                    info,
                    doc_id,
                    mutation.next_base,
                    par_id=parent_global_id,
                    path=parent_path + node.path,
                    dewey=parent_vector + (ordinal,) + node.dewey[1:],
                )
                new_ids.append(row[0])
                rows_by_relation.setdefault(info.table, []).append(row)
            self._insert_rows(rows_by_relation)
            mutation.next_base += len(new_ids)
        return new_ids

    def _next_child_ordinal(self, parent_global_id: int) -> int:
        """1 + the largest existing child ordinal under the parent."""
        highest = 0
        for table in self.mapping.relations:
            row = self.db.query_one(  # static-ok: sql-interp
                f"SELECT MAX(dewey_pos) FROM {table} WHERE par_id = ?",
                (parent_global_id,),
            )
            if row and row[0] is not None:
                ordinal = decode(bytes(row[0]))[-1]
                highest = max(highest, ordinal)
        return highest + 1

    def _element_name_of(self, global_id: int, info: RelationInfo) -> str:
        if not info.shared:
            return info.element_names[0]
        row = self.db.query_one(  # static-ok: sql-interp
            f"SELECT elname FROM {info.table} WHERE id = ?", (global_id,)
        )
        return row[0]

    def _subtree_conforms(self, parent_name: str, element: ElementNode) -> bool:
        if element.name not in self.schema.children_of(parent_name):
            return False
        stack = [element]
        while stack:
            node = stack.pop()
            if node.name not in self.schema.declarations:
                return False
            for child in node.element_children:
                if child.name not in self.schema.children_of(node.name):
                    return False
                stack.append(child)
        return True

    def _locate_with_info(
        self, global_id: int
    ) -> tuple[int, bytes, RelationInfo] | None:
        for info in self.mapping.relations.values():
            row = self.db.query_one(  # static-ok: sql-interp
                f"SELECT doc_id, dewey_pos FROM {info.table} WHERE id = ?",
                (global_id,),
            )
            if row is not None:
                return int(row[0]), bytes(row[1]), info
        return None

    def delete_subtree(self, global_id: int) -> int:
        """Remove one element and its whole subtree from every relation.

        A showcase of the Dewey model: the subtree is exactly one
        lexicographic range per relation
        (``dewey_pos BETWEEN d AND d || 0xFF`` within the same document),
        so no tree traversal is needed.

        :returns: the number of element rows removed.
        :raises StorageError: when ``global_id`` does not exist.
        """
        located = self._locate(global_id)
        if located is None:
            raise StorageError(f"no element with id {global_id}")
        doc_id, dewey = located
        upper = dewey + b"\xff"
        removed = 0
        with self._mutation():
            for table in self.mapping.relations:
                cursor = self.db.execute(  # static-ok: sql-interp
                    f"DELETE FROM {table} WHERE doc_id = ? "
                    f"AND dewey_pos >= ? AND dewey_pos < ?",
                    (doc_id, dewey, upper),
                )
                removed += cursor.rowcount
        return removed

    def update_text(self, global_id: int, value: object) -> None:
        """Set the text value of one element.

        :raises StorageError: when the element does not exist or its
            relation has no text column.
        """
        info = self._relation_of(global_id)
        if info.text_kind is None:
            raise StorageError(
                f"relation {info.table!r} stores no text values"
            )
        with self._mutation():
            self.db.execute(  # static-ok: sql-interp
                f"UPDATE {info.table} SET text = ? WHERE id = ?",
                (str(value), global_id),
            )

    def update_attribute(
        self, global_id: int, name: str, value: object | None
    ) -> None:
        """Set one attribute of one element (``None`` removes it).

        :raises StorageError: when the element does not exist or the
            attribute is not declared for its relation.
        """
        info = self._relation_of(global_id)
        column, _ = info.attr_column(name)
        with self._mutation():
            self.db.execute(  # static-ok: sql-interp
                f"UPDATE {info.table} SET {column} = ? WHERE id = ?",
                (None if value is None else str(value), global_id),
            )

    def _locate(self, global_id: int) -> tuple[int, bytes] | None:
        """(doc_id, dewey_pos) of an element, searching all relations."""
        for table in self.mapping.relations:
            row = self.db.query_one(  # static-ok: sql-interp
                f"SELECT doc_id, dewey_pos FROM {table} WHERE id = ?",
                (global_id,),
            )
            if row is not None:
                return int(row[0]), bytes(row[1])
        return None

    def _relation_of(self, global_id: int) -> RelationInfo:
        for table, info in self.mapping.relations.items():
            row = self.db.query_one(  # static-ok: sql-interp
                f"SELECT 1 FROM {table} WHERE id = ?", (global_id,)
            )
            if row is not None:
                return info
        raise StorageError(f"no element with id {global_id}")

    # -- path-summary statistics (repro.stats) -----------------------------------------

    def _load_stats(self) -> None:
        if self._stats_loaded:
            return
        self._stats_loaded = True
        self._stats_state = _stats.load_state(self.db)

    @property
    def stats_version(self) -> tuple[int, int] | None:
        """The ``(epoch, generation)`` of the summary :meth:`path_summary`
        hands out, or ``None`` when it hands out none (never collected,
        or stale).  Every statistics write moves it.  It is in no cache
        key: a translation records the version it was planned under and
        what it read from that summary, and the engines serve it under
        later versions for as long as those reads hold."""
        if self.statistics_stale or self._stats_state is None:
            return None
        return self._stats_state.version

    @property
    def statistics_stale(self) -> bool:
        """True when no summary exists, or the store mutated since the
        summary was last written (``append_subtree`` / ``delete_subtree``
        / ``update_*`` do not maintain counts — refresh with
        :meth:`collect_statistics`).  A stale summary may lack paths the
        store now holds, and the ``costed-access-strategy`` pass turns
        the summary's path list into the SQL filter, so a stale summary
        is treated as no summary at all."""
        self._load_stats()
        if self._stats_state is None:
            return True
        return self._stats_state.generation != self._generation

    def path_summary(self) -> PathSummary | None:
        """The :class:`~repro.stats.summary.PathSummary`, while it is
        exact for the stored rows; ``None`` when statistics were never
        collected or are stale."""
        if self.statistics_stale:
            return None
        if (
            self._summary is None
            or self._summary.version != self._stats_state.version
        ):
            self._summary = _stats.load_summary(self.db)
        return self._summary

    def collect_statistics(self) -> PathSummary:
        """Recompute the path summary from the stored rows and persist
        it (epoch bump, versioned against the current generation)."""
        self._load_stats()
        epoch = (
            self._stats_state.epoch + 1
            if self._stats_state is not None
            else 1
        )
        summary = _stats.collect_summary(
            self.db, self.mapping, (epoch, self._generation)
        )
        _stats.persist_summary(self.db, summary, self.path_index.all_paths())
        self.db.commit()
        self._adopt_summary(summary)
        return summary

    def _adopt_summary(self, summary: PathSummary) -> None:
        self._stats_state = StatsState(
            epoch=summary.version[0],
            generation=summary.version[1],
            document_count=summary.document_count,
            relation_counts=dict(summary.relation_counts),
        )
        self._summary = summary

    # -- stats ------------------------------------------------------------------------

    def relation_counts(self) -> dict[str, int]:
        """Row count per mapping relation (diagnostics / tests)."""
        return {
            table: self.db.query_one(f"SELECT COUNT(*) FROM {table}")[0]  # static-ok: sql-interp
            for table in sorted(self.mapping.relations)
        }

    def total_elements(self) -> int:
        """Total element count across all loaded documents."""
        row = self.db.query_one("SELECT COALESCE(SUM(node_count), 0) FROM docs")
        return int(row[0])

