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
from collections import Counter
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repro.stats.summary import PathStats, PathSummary, StatsState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.storage.database import Database
    from repro.storage.schema_aware import SchemaAwareMapping

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
# counting
# ---------------------------------------------------------------------------


#: Signed ``(elements, documents, values)`` per path, rows per relation,
#: and documents: what stored rows add to (or take from) a path summary.
Deltas = tuple[dict[str, tuple[int, int, int]], dict[str, int], int]


def count_rows(db: "Database", mapping: "SchemaAwareMapping") -> Deltas:
    """What the stored rows of every document make of a path summary:
    per path ``(elements, documents, values)``, rows per relation (every
    relation, zero included) and documents — one ``GROUP BY`` read
    across all relations (value counts only where the relation has a
    text column)."""
    [(documents,)] = db.query("SELECT COUNT(*) FROM docs")
    rows = db.query_across(
        {
            table: "paths.path, COUNT(*), COUNT(DISTINCT doc_id), "
            + ("COUNT(text)" if info.text_kind is not None else "0")
            for table, info in mapping.relations.items()
        },
        "JOIN paths ON paths.id = path_id GROUP BY path_id",
    )
    per_path: dict[str, tuple[int, int, int]] = {}
    per_relation = dict.fromkeys(mapping.relations, 0)
    for table, path, elements, docs, values in rows:
        before = per_path.get(path, (0, 0, 0))
        per_path[path] = (
            before[0] + elements,
            before[1] + docs,
            before[2] + values,
        )
        per_relation[table] += elements
    return per_path, per_relation, documents


def tally_rows(
    rows: Sequence[Sequence],
    paths: Mapping[int, str],
    relations: Iterable[str],
    sign: int = 1,
) -> Deltas:
    """What ``rows`` add to a path summary, times ``sign``, in the form
    :func:`count_rows` returns.  Each row leads with ``(table, path_id,
    doc_id, valued)`` — ``valued`` 1 when the row stores a text value —
    and ``paths`` names the path ids.

    A load tallies the rows its integrity check read back, inside its
    savepoint; a delete the rows its ``DELETE … RETURNING`` statements
    return (``sign=-1``): a maintained summary is counted from the
    stored rows, as a recompute is, at no extra read.
    """
    # Rows per (table, path, document) and valued rows per path, counted
    # in C: a path lies in one relation, so the groups are few.
    groups = Counter(map(itemgetter(0, 1, 2), rows))
    values = Counter(map(itemgetter(1), filter(itemgetter(3), rows)))
    per_relation = dict.fromkeys(relations, 0)
    per_path: dict[str, tuple[int, int, int]] = {}
    documents: set[int] = set()
    for (table, path_id, doc_id), count in groups.items():
        per_relation[table] += sign * count
        path = paths[path_id]
        elements, docs, _ = per_path.get(path, (0, 0, 0))
        per_path[path] = (
            elements + sign * count,
            docs + sign,
            sign * values[path_id],
        )
        documents.add(doc_id)
    return per_path, per_relation, sign * len(documents)


def collect_summary(
    db: "Database",
    mapping: "SchemaAwareMapping",
    version: tuple[int, int],
) -> PathSummary:
    """Full recompute of the summary from the mapping relations."""
    empty = PathSummary(version=version, document_count=0, relation_counts={})
    return empty.plus(*count_rows(db, mapping))
