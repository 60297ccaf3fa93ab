"""Collecting, persisting and incrementally maintaining path summaries.

All functions work against a store's :class:`~repro.storage.database.
Database` plus its mapping; they are written as free functions (not
methods) so :class:`~repro.storage.schema_aware.ShreddedStore` stays the
only stateful owner.  The per-path counts live in ``repro_path_stats``
(FK into `Paths`); the versioning record — epoch, the store generation
at write time, document and per-relation row counts — is one JSON value
in ``repro_meta``, so a summary is always read back together with the
generation it was true for.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.stats.summary import PathStats, PathSummary, StatsState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.storage.database import Database
    from repro.storage.schema_aware import SchemaAwareMapping
    from repro.xmltree.nodes import Document

STATS_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS repro_path_stats (
    path_id       INTEGER PRIMARY KEY REFERENCES paths(id),
    element_count INTEGER NOT NULL,
    doc_count     INTEGER NOT NULL,
    value_count   INTEGER NOT NULL
)
"""

_STATE_KEY = "stats_state"


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def load_state(db: "Database") -> Optional[StatsState]:
    """The persisted versioning record, or ``None`` when statistics were
    never collected on this store."""
    if "repro_meta" not in db.table_names():
        return None
    row = db.query_one(
        "SELECT value FROM repro_meta WHERE key = ?", (_STATE_KEY,)
    )
    if row is None:
        return None
    payload = json.loads(row[0])
    return StatsState(
        epoch=int(payload["epoch"]),
        generation=int(payload["generation"]),
        document_count=int(payload["document_count"]),
        relation_counts={
            str(k): int(v)
            for k, v in payload.get("relation_counts", {}).items()
        },
    )


def load_summary(db: "Database") -> Optional[PathSummary]:
    """Read the persisted summary back, or ``None`` when absent."""
    state = load_state(db)
    if state is None or "repro_path_stats" not in db.table_names():
        return None
    stats = {
        str(path): PathStats(
            path=str(path),
            element_count=int(elements),
            doc_count=int(docs),
            value_count=int(values),
        )
        for path, elements, docs, values in db.query(
            "SELECT p.path, s.element_count, s.doc_count, s.value_count "
            "FROM repro_path_stats s JOIN paths p ON s.path_id = p.id"
        )
    }
    return PathSummary(
        version=state.version,
        document_count=state.document_count,
        relation_counts=dict(state.relation_counts),
        stats=stats,
    )


def persist_summary(
    db: "Database",
    summary: PathSummary,
    path_ids: Mapping[str, int],
) -> None:
    """Write ``summary`` (full replace) and its versioning record.

    ``path_ids`` maps path strings to `Paths` ids (the store's
    :class:`~repro.storage.paths.PathIndex` snapshot).  The writes
    join the caller's transaction: a mutation commits them with the
    rows they describe, ``collect_statistics`` on their own.
    """
    db.execute(STATS_TABLE_DDL)
    db.execute("DELETE FROM repro_path_stats")
    db.executemany(
        "INSERT OR REPLACE INTO repro_path_stats "
        "(path_id, element_count, doc_count, value_count) "
        "VALUES (?, ?, ?, ?)",
        [
            (path_ids[s.path], s.element_count, s.doc_count, s.value_count)
            for s in summary.stats.values()
            if s.path in path_ids
        ],
    )
    payload = json.dumps(
        {
            "epoch": summary.version[0],
            "generation": summary.version[1],
            "document_count": summary.document_count,
            "relation_counts": dict(summary.relation_counts),
        },
        sort_keys=True,
    )
    db.execute(
        "INSERT OR REPLACE INTO repro_meta (key, value) VALUES (?, ?)",
        (_STATE_KEY, payload),
    )


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------


def collect_summary(
    db: "Database",
    mapping: "SchemaAwareMapping",
    version: tuple[int, int],
) -> PathSummary:
    """Full recompute of the summary from the mapping relations.

    One GROUP BY per relation (value counts only where the relation has
    a text column), joined against `Paths` for the path strings.
    """
    doc_row = (
        db.query_one("SELECT COUNT(*) FROM docs")
        if "docs" in db.table_names()
        else None
    )
    summary = PathSummary(
        version=version,
        document_count=int(doc_row[0]) if doc_row else 0,
        relation_counts={},
    )
    for table, info in mapping.relations.items():
        value_term = (
            "COUNT(t.text)" if info.text_kind is not None else "0"
        )
        per_path = {
            str(path): (int(elements), int(docs), int(values))
            for path, elements, docs, values in db.query(  # static-ok: sql-interp
                f"SELECT p.path, COUNT(*), COUNT(DISTINCT t.doc_id), "
                f"{value_term} FROM {table} t "
                f"JOIN paths p ON t.path_id = p.id GROUP BY t.path_id"
            )
        }
        total = sum(elements for elements, _, _ in per_path.values())
        summary = summary.plus(per_path, {table: total})
    return summary


# ---------------------------------------------------------------------------
# incremental deltas
# ---------------------------------------------------------------------------


def document_deltas(
    mapping: "SchemaAwareMapping", documents: Iterable["Document"]
) -> tuple[dict[str, tuple[int, int, int]], dict[str, int]]:
    """Per-path ``(elements, documents, values)`` and per-relation row
    deltas ``documents`` contribute, computed from the in-memory trees
    (the same walk the shredder does, so the counts match the stored
    rows exactly)."""
    per_path: dict[str, list[int]] = {}
    per_relation: dict[str, int] = {}
    for document in documents:
        seen: set[str] = set()
        for element in document.iter_elements():
            info = mapping.relation_for(element.name)
            entry = per_path.setdefault(element.path, [0, 0, 0])
            entry[0] += 1
            if element.path not in seen:
                seen.add(element.path)
                entry[1] += 1
            if info.text_kind is not None and element.direct_text:
                entry[2] += 1
            per_relation[info.table] = per_relation.get(info.table, 0) + 1
    return (
        {path: tuple(entry) for path, entry in per_path.items()},
        per_relation,
    )


def removal_deltas(
    db: "Database", mapping: "SchemaAwareMapping", doc_id: int
) -> tuple[dict[str, tuple[int, int, int]], dict[str, int]]:
    """The (negative) per-path and per-relation deltas of removing one
    stored document — queried *before* its rows are deleted, so
    ``delete_document`` can apply them to the summary."""
    per_path: dict[str, tuple[int, int, int]] = {}
    per_relation: dict[str, int] = {}
    for table, info in mapping.relations.items():
        value_term = (
            "COUNT(t.text)" if info.text_kind is not None else "0"
        )
        rows = db.query(  # static-ok: sql-interp
            f"SELECT p.path, COUNT(*), {value_term} FROM {table} t "
            f"JOIN paths p ON t.path_id = p.id "
            f"WHERE t.doc_id = ? GROUP BY t.path_id",
            (doc_id,),
        )
        total = 0
        for path, elements, values in rows:
            total += int(elements)
            per_path[str(path)] = (-int(elements), -1, -int(values))
        if total:
            per_relation[table] = -total
    return per_path, per_relation
