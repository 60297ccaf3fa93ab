"""XPath Accelerator storage: pre/post region encoding (Grust et al.).

The Section 5.2 baseline.  Every element gets a preorder rank ``pre``
(its global id here), a postorder rank ``post``, its parent's ``pre`` and
its ``level``; the window conditions of the accelerator's axis evaluation
are then range predicates over ``(pre, post)``.  Attributes are kept in a
side relation keyed by the owner's ``pre`` — a common engineering
simplification that preserves the element-axis self-join shape the
baseline is measured for.
"""

from __future__ import annotations

from repro.storage.database import Database
from repro.storage.loading import _DOCS_DDL
from repro.xmltree.nodes import Document, ElementNode

_ACCEL_DDL = [
    _DOCS_DDL,
    """
    CREATE TABLE accel (
        pre    INTEGER PRIMARY KEY,
        post   INTEGER NOT NULL,
        par    INTEGER,
        level  INTEGER NOT NULL,
        name   TEXT NOT NULL,
        doc_id INTEGER NOT NULL,
        text   TEXT
    )
    """,
    "CREATE INDEX idx_accel_post ON accel(post)",
    "CREATE INDEX idx_accel_name ON accel(name, pre)",
    "CREATE INDEX idx_accel_par ON accel(par)",
    """
    CREATE TABLE accel_attr (
        elem_pre INTEGER NOT NULL REFERENCES accel(pre),
        name     TEXT NOT NULL,
        value    TEXT,
        PRIMARY KEY (elem_pre, name)
    )
    """,
    "CREATE INDEX idx_accel_attr ON accel_attr(name, value)",
]


class AccelStore:
    """A pre/post-encoded XML store over one :class:`Database`."""

    def __init__(self, db: Database):
        self.db = db
        row = db.query_one("SELECT COALESCE(MAX(base + node_count), 0) FROM docs")
        self._next_base = int(row[0]) if row and row[0] is not None else 0

    @classmethod
    def create(cls, db: Database) -> "AccelStore":
        """Create the accelerator relations and return the store."""
        for statement in _ACCEL_DDL:
            db.execute(statement)
        db.commit()
        return cls(db)

    def load(self, document: Document) -> int:
        """Encode and store ``document``.

        ``pre`` is ``base + node_id`` so accelerator results are directly
        comparable with the other stores' global element ids.
        """
        base = self._next_base
        cursor = self.db.execute(
            "INSERT INTO docs (name, base, node_count) VALUES (?, ?, 0)",
            (document.name, base),
        )
        doc_id = int(cursor.lastrowid)
        post_ranks = _postorder_ranks(document)
        accel_rows = []
        attr_rows = []
        count = 0
        for element in document.iter_elements():
            count += 1
            pre = base + element.node_id
            parent = element.parent
            text = element.direct_text
            accel_rows.append(
                (
                    pre,
                    base + post_ranks[element.node_id],
                    base + parent.node_id if parent is not None else None,
                    element.level,
                    element.name,
                    doc_id,
                    text if text else None,
                )
            )
            for attr_name, value in element.attributes.items():
                attr_rows.append((pre, attr_name, value))
        self.db.executemany(
            "INSERT INTO accel (pre, post, par, level, name, doc_id, text)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            accel_rows,
        )
        self.db.executemany(
            "INSERT INTO accel_attr (elem_pre, name, value) VALUES (?, ?, ?)",
            attr_rows,
        )
        self.db.execute(
            "UPDATE docs SET node_count = ? WHERE id = ?", (count, doc_id)
        )
        self.db.commit()
        self._next_base = base + count
        return doc_id

    def total_elements(self) -> int:
        """Number of stored element rows."""
        row = self.db.query_one("SELECT COUNT(*) FROM accel")
        return int(row[0])


def _postorder_ranks(document: Document) -> dict[int, int]:
    """node_id -> 1-based postorder rank over element nodes."""
    ranks: dict[int, int] = {}
    counter = 0

    def visit(element: ElementNode) -> None:
        nonlocal counter
        for child in element.element_children:
            visit(child)
        counter += 1
        ranks[element.node_id] = counter

    visit(document.root)
    return ranks
