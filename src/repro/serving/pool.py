"""A pool of read-only connections for callers that query from threads.

PR 1 switched file-backed stores to WAL journaling, which is exactly the
mode under which SQLite allows many readers alongside one writer.  A
:class:`ConnectionPool` opens N sibling connections to the store's
database file — each ``read_only``, each registering ``regexp_like``,
each running statements under the same :class:`~repro.resilience.
ResiliencePolicy` retry/guard machinery — and hands them out one per
query.  Every pooled connection is a separate ``sqlite3`` handle, so a
thread never shares a connection with another thread and every reader
sees a committed snapshot beside a live writer.  The pool is that
safety device and nothing more: threaded queries measure *slower* than
serial ones here (EXPERIMENTS.md "PR 18"), and nothing in the library
starts threads over it.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import StorageError
from repro.resilience.policy import ResiliencePolicy
from repro.storage.database import Database

#: Default number of pooled connections.
DEFAULT_POOL_SIZE = 4


class ConnectionPool:
    """``size`` read-only :class:`Database` connections to one file.

    Check a connection out with :meth:`acquire` (a context manager);
    it returns to the pool when the block exits, even on error.  The
    pool is safe to share across threads — that is its whole point.
    """

    def __init__(
        self,
        path: str,
        size: int = DEFAULT_POOL_SIZE,
        policy: ResiliencePolicy | None = None,
        timeout: float = 30.0,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.path = path
        self.size = size
        #: Seconds :meth:`acquire` blocks for a free connection before
        #: raising :class:`StorageError`.
        self.timeout = timeout
        self._closed = False
        self._lock = threading.Lock()
        self._checkouts = 0
        # LIFO: the most recently used connection has the warmest
        # page cache.
        self._idle: queue.LifoQueue[Database] = queue.LifoQueue()
        self._all: list[Database] = []
        try:
            for _ in range(size):
                db = Database.open(
                    path,
                    policy=policy,
                    read_only=True,
                    check_same_thread=False,
                )
                self._all.append(db)
                self._idle.put(db)
        except BaseException:
            for db in self._all:
                db.close()
            raise

    @classmethod
    def for_store(
        cls,
        store,
        size: int = DEFAULT_POOL_SIZE,
        policy: ResiliencePolicy | None = None,
    ) -> "ConnectionPool":
        """A pool over the file backing ``store`` (any object with a
        ``db`` attribute), inheriting the store's policy unless one is
        given.

        :raises StorageError: when the store is in-memory — there is no
            file for sibling connections to open.
        """
        path = store.db.path
        if path is None:
            raise StorageError(
                "cannot pool an in-memory database; open the store from "
                "a file to serve it concurrently"
            )
        return cls(
            path, size=size, policy=policy if policy else store.db.policy
        )

    @contextmanager
    def acquire(self, timeout: float | None = None) -> Iterator[Database]:
        """Check out one connection; blocks while all are busy.

        :raises StorageError: when the pool is closed or no connection
            frees up within the timeout.
        """
        if self._closed:
            raise StorageError("connection pool is closed")
        wait = self.timeout if timeout is None else timeout
        try:
            db = self._idle.get(timeout=wait)
        except queue.Empty:
            raise StorageError(
                f"no pooled connection became available within {wait:g}s "
                f"(pool size {self.size})"
            ) from None
        with self._lock:
            self._checkouts += 1
        try:
            yield db
        finally:
            self._idle.put(db)

    @property
    def checkouts(self) -> int:
        """Total number of successful checkouts so far."""
        with self._lock:
            return self._checkouts

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every pooled connection.  In-flight checkouts keep
        their connection until they return it; new acquires fail."""
        self._closed = True
        for db in self._all:
            db.close()

    def __len__(self) -> int:
        return self.size

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"ConnectionPool({self.path!r}, size={self.size}, {state})"
