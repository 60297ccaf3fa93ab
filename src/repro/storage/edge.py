"""Schema-oblivious Edge-like mapping (paper Section 5.1).

All elements land in one central ``edge`` relation; attributes live in a
dedicated ``attrs`` relation (the paper's footnote 3 option).  The Edge
store keeps the same four descriptors as the schema-aware mapping —
global ``id``, ``par_id``, ``dewey_pos`` and ``path_id`` — so the PPF
translation algorithm applies unchanged, only against a single (large)
relation, which is exactly the configuration the Figure 3 experiment
compares against.
"""

from __future__ import annotations

from typing import Sequence

from repro.resilience.integrity import IntegrityIssue, LoadCheck
from repro.storage.database import Database
from repro.storage.loading import _DOCS_DDL, _DocumentStore
from repro.storage.paths import PathIndex
from repro.xmltree.nodes import Document

_EDGE_INDEX_DDL = {
    "idx_edge_par": "CREATE INDEX idx_edge_par ON edge(par_id)",
    "idx_edge_name": "CREATE INDEX idx_edge_name ON edge(name)",
    "idx_edge_dewey": (
        "CREATE INDEX idx_edge_dewey ON edge(doc_id, dewey_pos, path_id)"
    ),
    "idx_attrs_name": "CREATE INDEX idx_attrs_name ON attrs(name, value)",
}

_EDGE_DDL = [
    """
    CREATE TABLE edge (
        id        INTEGER PRIMARY KEY,
        doc_id    INTEGER NOT NULL,
        par_id    INTEGER,
        name      TEXT NOT NULL,
        path_id   INTEGER NOT NULL REFERENCES paths(id),
        dewey_pos BLOB NOT NULL,
        text      TEXT
    )
    """,
    _EDGE_INDEX_DDL["idx_edge_par"],
    _EDGE_INDEX_DDL["idx_edge_name"],
    _EDGE_INDEX_DDL["idx_edge_dewey"],
    """
    CREATE TABLE attrs (
        elem_id INTEGER NOT NULL REFERENCES edge(id),
        name    TEXT NOT NULL,
        value   TEXT,
        PRIMARY KEY (elem_id, name)
    )
    """,
    _EDGE_INDEX_DDL["idx_attrs_name"],
]


class EdgeStore(_DocumentStore):
    """A schema-oblivious shredded XML store over one :class:`Database`."""

    def __init__(self, db: Database):
        super().__init__(db, {"edge": True})

    @classmethod
    def create(cls, db: Database) -> "EdgeStore":
        """Create the ``edge``/``attrs`` relations and return the store."""
        db.execute(_DOCS_DDL)
        # PathIndex creates `paths` before edge's FK references it.
        PathIndex(db)
        for statement in _EDGE_DDL:
            db.execute(statement)
        db.commit()
        return cls(db)

    def _index_statements(self) -> tuple[list[str], list[str]]:
        return (
            [f"DROP INDEX IF EXISTS {name}" for name in _EDGE_INDEX_DDL],
            list(_EDGE_INDEX_DDL.values()),
        )

    def _write_document(
        self, document: Document, doc_id: int, base: int
    ) -> int:
        edge_rows = []
        attr_rows = []
        for element, par_id, path_id, dewey in self._descriptors(
            document, base
        ):
            global_id = base + element.node_id
            edge_rows.append(
                (
                    global_id,
                    doc_id,
                    par_id,
                    element.name,
                    path_id,
                    dewey,
                    element.direct_text or None,
                )
            )
            for attr_name, value in element.attributes.items():
                attr_rows.append((global_id, attr_name, value))
        self.db.executemany(
            "INSERT INTO edge (id, doc_id, par_id, name, path_id, dewey_pos,"
            " text) VALUES (?, ?, ?, ?, ?, ?, ?)",
            edge_rows,
        )
        self.db.executemany(
            "INSERT INTO attrs (elem_id, name, value) VALUES (?, ?, ?)",
            attr_rows,
        )
        return len(edge_rows)

    def _check_load(self, loaded: Sequence[tuple[int, int, int]]) -> LoadCheck:
        check = super()._check_load(loaded)
        # One load's id ranges are adjacent: first base to last end.
        first, last = loaded[0], loaded[-1]
        orphan_attrs = self.db.query_one(
            "SELECT COUNT(*) FROM attrs WHERE elem_id > ? AND elem_id <= ? "
            "AND elem_id NOT IN (SELECT id FROM edge)",
            (first[1], last[1] + last[2]),
        )
        if orphan_attrs[0]:
            check.issues.append(
                IntegrityIssue(
                    "orphan-parent",
                    "attrs",
                    f"{orphan_attrs[0]} attribute row(s) reference "
                    f"a missing element",
                )
            )
        return check

    def total_elements(self) -> int:
        """Number of stored element rows."""
        row = self.db.query_one("SELECT COUNT(*) FROM edge")
        return int(row[0])
