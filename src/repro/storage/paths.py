"""The `Paths` relation — the root-to-node path index of Section 3.1.

All distinct root-to-node label paths of the stored documents live in one
relation, ``paths(id, path)``; every mapping relation carries a
``path_id`` foreign key into it.  The index fills gradually during
insertion, exactly as the paper describes, with an in-memory cache so
loading is one lookup per element.

The cache is guarded by a lock: translation (which may run on a
caller's reader threads) reads it while a loader thread fills it.  All writes to
the relation itself still belong to the store's single writer
connection.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.storage.database import Database

PATHS_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS paths (
    id   INTEGER PRIMARY KEY,
    path TEXT NOT NULL UNIQUE
)
"""


class PathIndex:
    """Manages the ``paths`` relation of one database."""

    def __init__(self, db: Database):
        self.db = db
        db.execute(PATHS_TABLE_DDL)
        self._lock = threading.Lock()
        self._cache: dict[str, int] = {
            path: path_id
            for path_id, path in db.query("SELECT id, path FROM paths")
        }

    def ensure(self, path: str) -> int:
        """Id of ``path``, inserting it on first sight."""
        with self._lock:
            path_id = self._cache.get(path)
        if path_id is not None:
            return path_id
        cursor = self.db.execute(
            "INSERT INTO paths (path) VALUES (?)", (path,)
        )
        path_id = int(cursor.lastrowid)
        with self._lock:
            self._cache[path] = path_id
        return path_id

    def ensure_many(self, paths: Iterable[str]) -> dict[str, int]:
        """Ids for all of ``paths``, inserting the unseen ones in one
        batch (the bulk-load fast path: one ``executemany`` instead of a
        round-trip per new path)."""
        wanted = list(dict.fromkeys(paths))
        with self._lock:
            missing = [p for p in wanted if p not in self._cache]
        if missing:
            self.db.executemany(
                "INSERT OR IGNORE INTO paths (path) VALUES (?)",
                [(p,) for p in missing],
            )
            fetched = {}
            for path in missing:
                row = self.db.query_one(
                    "SELECT id FROM paths WHERE path = ?", (path,)
                )
                fetched[path] = int(row[0])
            with self._lock:
                self._cache.update(fetched)
        with self._lock:
            return {p: self._cache[p] for p in wanted}

    def refresh(self) -> None:
        """Rebuild the in-memory cache from the database.

        Required after a rolled-back load: paths inserted inside the
        aborted savepoint are gone from the relation but would otherwise
        linger in the cache, handing out ids that reference nothing.
        """
        rebuilt = {
            path: path_id
            for path_id, path in self.db.query("SELECT id, path FROM paths")
        }
        with self._lock:
            self._cache = rebuilt

    def lookup(self, path: str) -> int | None:
        """Id of ``path`` if present."""
        with self._lock:
            return self._cache.get(path)

    def all_paths(self) -> dict[str, int]:
        """Snapshot of the whole index (path -> id)."""
        with self._lock:
            return dict(self._cache)

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)
