"""SQLite connection wrapper with the ``regexp_like`` user function and
the resilience layer wired through every statement.

The paper's SQL statements filter root-to-node paths with Oracle's
``REGEXP_LIKE(value, pattern)``.  SQLite has no regex support built in,
so :class:`Database` registers an equivalent deterministic user function
backed by Python's :mod:`re` with a compiled-pattern cache — the SQL the
translator emits is then shaped exactly like the paper's.

On top of that, every statement runs under a
:class:`~repro.resilience.ResiliencePolicy`:

* transient ``SQLITE_BUSY`` errors are retried with exponential backoff
  and jitter (file-backed stores also get WAL journaling and a
  ``busy_timeout`` so concurrent readers work at all),
* :meth:`query` enforces a per-statement wall-clock timeout through a
  SQLite progress handler (:class:`~repro.resilience.QueryGuard`) and a
  row-count cap while fetching,
* :meth:`cancel` cooperatively interrupts a statement running in another
  thread,
* :meth:`savepoint` provides the nested-transaction scope the stores use
  for atomic document loads.
"""

from __future__ import annotations

import functools
import re
import sqlite3
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

from repro.errors import (
    QueryCancelledError,
    QueryLimitError,
    QueryTimeoutError,
    StorageError,
)
from repro.resilience.guards import QueryGuard
from repro.resilience.policy import DEFAULT_POLICY, ResiliencePolicy
from repro.resilience.retry import run_with_retry

#: Rows fetched per chunk while enforcing ``max_rows``.
_FETCH_CHUNK = 256

#: ``PRAGMA busy_timeout`` in milliseconds: SQLite's own blocking wait
#: below the policy's retry loop.
_BUSY_TIMEOUT_MS = 5000

#: Compiled statements a connection keeps (``sqlite3``'s own default is
#: 128).  A mutation writes to every relation of the mapping in its own
#: statement text — an ``INSERT`` per relation on a load, a ``DELETE``
#: per relation on a removal; reads span all relations in one text
#: (:meth:`Database.query_across`) — so one ``load`` +
#: ``delete_document`` on the 69-relation XMark schema issues ~160
#: distinct texts, and with a cache smaller than that every statement
#: of every mutation, and the queries run between two mutations, are
#: compiled again each time round.  Sized with room for a schema of
#: ~400 relations; ``tests/storage/test_database.py::TestStatementCache``
#: fails when the write path outgrows it.
_CACHED_STATEMENTS = 1024

#: Most simple SELECTs SQLite joins into one compound SELECT
#: (``SQLITE_MAX_COMPOUND_SELECT``, compiled in; ``Connection.getlimit``
#: cannot read it before Python 3.11).
COMPOUND_SELECT_LIMIT = 500

#: Oldest SQLite the stores run on: 3.35 added ``DELETE … RETURNING``,
#: which ``delete_document`` counts its rows with.
MIN_SQLITE_VERSION = (3, 35, 0)

#: Statement parameters: positional (``?``) or by name (``:name``).
Params = Union[Sequence[Any], Mapping[str, Any]]

@functools.lru_cache(maxsize=512)
def _compiled(pattern: str) -> re.Pattern[str]:
    """The one process-wide compiled-pattern cache every ``regexp_like``
    call goes through, on every connection; ``cache_info()`` counts the
    calls.  (A ``str`` signature, not the overloaded ``re.compile``, so
    the type checker knows what it returns.)"""
    return re.compile(pattern)


def _as_text(value: Any) -> str | None:
    """Coerce a SQLite-typed value to text for regex matching.

    ``None`` stays ``None``; blobs decode as UTF-8 (undecodable blobs
    yield ``None`` — binary data cannot match a textual pattern);
    everything else goes through ``str``.
    """
    if value is None:
        return None
    if isinstance(value, bytes):
        try:
            return value.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if isinstance(value, str):
        return value
    return str(value)


def _regexp_like(value: Any, pattern: Any) -> int:
    """Oracle-style ``REGEXP_LIKE``: true iff ``pattern`` matches anywhere
    in ``value`` (our generated patterns are always ``^...$``-anchored).

    :raises StorageError: for patterns that are not valid regular
        expressions (surfaces through SQLite as a wrapped
        :class:`StorageError`, never a bare :class:`re.error`).
    """
    text = _as_text(value)
    if text is None:
        return 0
    pattern_text = _as_text(pattern)
    if pattern_text is None:
        raise StorageError(f"invalid regexp_like pattern {pattern!r}")
    try:
        rx = _compiled(pattern_text)
    except re.error as exc:
        raise StorageError(
            f"invalid regular expression {pattern_text!r}: {exc}"
        ) from exc
    return 1 if rx.search(text) else 0


class Database:
    """Convenience wrapper around one :mod:`sqlite3` connection, running
    every statement under a resilience policy."""

    def __init__(
        self,
        connection: sqlite3.Connection,
        policy: ResiliencePolicy | None = None,
    ):
        if sqlite3.sqlite_version_info < MIN_SQLITE_VERSION:
            raise StorageError(
                f"SQLite {sqlite3.sqlite_version} is too old: the stores "
                f"need 3.35 or newer (DELETE … RETURNING)"
            )
        self.connection = connection
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self._cancel_event = threading.Event()
        self._active_guard: QueryGuard | None = None
        #: Held by the thread whose guard is installed (re-entrant: a
        #: guarded query may nest another on the same thread).
        self._guard_owner = threading.RLock()
        # Injectable for deterministic tests.
        self._sleep = time.sleep
        self._rng = None  # run_with_retry creates one when None
        connection.create_function(
            "regexp_like", 2, _regexp_like, deterministic=True
        )
        # Make the REGEXP operator available too (SQLite rewrites
        # ``x REGEXP y`` to ``regexp(y, x)``).
        connection.create_function(
            "regexp",
            2,
            lambda pattern, value: _regexp_like(value, pattern),
            deterministic=True,
        )
        connection.execute("PRAGMA foreign_keys = ON")
        connection.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def memory(
        cls,
        policy: ResiliencePolicy | None = None,
        check_same_thread: bool = True,
    ) -> "Database":
        """A fresh in-memory database."""
        return cls(
            sqlite3.connect(
                ":memory:",
                check_same_thread=check_same_thread,
                cached_statements=_CACHED_STATEMENTS,
            ),
            policy=policy,
        )

    @classmethod
    def open(
        cls,
        path: str,
        policy: ResiliencePolicy | None = None,
        *,
        check_same_thread: bool = True,
        read_only: bool = False,
    ) -> "Database":
        """Open (or create) a database file.

        :param check_same_thread: set False to share the connection
            across threads (callers must serialize access themselves).
        :param read_only: open via a ``mode=ro`` URI; writes then raise
            :class:`StorageError` and no journal-mode change is
            attempted.
        :raises StorageError: naming ``path`` when SQLite cannot open it
            (a directory, a missing parent directory, …).
        """
        try:
            connection = sqlite3.connect(
                Path(path).absolute().as_uri() + "?mode=ro"
                if read_only
                else path,
                uri=read_only,
                check_same_thread=check_same_thread,
                cached_statements=_CACHED_STATEMENTS,
            )
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open database {path!r}: {exc}") from exc
        db = cls(connection, policy=policy)
        if not read_only:
            try:
                connection.execute("PRAGMA journal_mode = WAL")
            except sqlite3.Error:  # pragma: no cover - e.g. network FS
                pass
        return db

    # -- raw layer (fault injection hooks) ---------------------------------------

    def _raw_execute(self, sql: str, params: Params = ()) -> sqlite3.Cursor:
        return self.connection.execute(sql, params)

    def _raw_executemany(
        self, sql: str, rows: Iterable[Sequence]
    ) -> sqlite3.Cursor:
        return self.connection.executemany(sql, rows)

    def _raw_executescript(self, script: str) -> sqlite3.Cursor:
        return self.connection.executescript(script)

    # -- statement execution ------------------------------------------------------

    def execute(self, sql: str, params: Params = ()) -> sqlite3.Cursor:
        """Execute one statement, retrying transient errors and wrapping
        sqlite errors with (truncated) SQL context."""
        try:
            return run_with_retry(
                lambda: self._raw_execute(sql, params),
                self.policy,
                sleep=self._sleep,
                rng=self._rng,
                sql=sql,
            )
        except sqlite3.Error as exc:
            raise self._wrap(exc, sql) from exc

    def executemany(self, sql: str, rows: Iterable[Sequence]) -> None:
        """Bulk-execute one statement over many parameter rows.

        Rows are materialized once so a transient-error retry replays the
        identical batch even when given a one-shot iterator.
        """
        batch = rows if isinstance(rows, (list, tuple)) else list(rows)
        try:
            run_with_retry(
                lambda: self._raw_executemany(sql, batch),
                self.policy,
                sleep=self._sleep,
                rng=self._rng,
                sql=sql,
            )
        except sqlite3.Error as exc:
            raise self._wrap(exc, sql) from exc

    def executescript(self, script: str) -> None:
        """Execute a multi-statement script."""
        try:
            run_with_retry(
                lambda: self._raw_executescript(script),
                self.policy,
                sleep=self._sleep,
                rng=self._rng,
                sql=script,
            )
        except sqlite3.Error as exc:
            raise self._wrap(exc, script) from exc

    def _wrap(self, exc: sqlite3.Error, sql: str) -> StorageError:
        """Map a raw sqlite error to the right StorageError subclass."""
        if isinstance(exc, sqlite3.OperationalError) and "interrupt" in str(
            exc
        ).lower():
            guard = self._active_guard
            if guard is not None and guard.expired:
                return QueryTimeoutError(
                    f"query exceeded the {guard.timeout:g}s wall-clock "
                    f"limit",
                    sql=sql,
                )
            if self._cancel_event.is_set():
                self._cancel_event.clear()
                return QueryCancelledError("query cancelled", sql=sql)
        return StorageError(str(exc), sql=sql)

    # -- guarded queries ----------------------------------------------------------

    @contextmanager
    def _guarded(self, timeout: float | None) -> Iterator[QueryGuard | None]:
        if timeout is None:
            yield None
            return
        # Swapping the progress handler under another thread's running
        # statement deadlocks (that thread's handler waits for the GIL,
        # this one for SQLite's connection mutex): refuse instead.
        if not self._guard_owner.acquire(blocking=False):
            raise StorageError(
                "this connection is running another thread's guarded "
                "query; a connection serves one thread at a time — give "
                "a multi-threaded caller a ConnectionPool "
                "(engine.attach_pool) so each thread gets its own"
            )
        try:
            guard = QueryGuard(timeout, cancel_event=self._cancel_event)
            previous = self._active_guard
            self._active_guard = guard
            guard.install(self.connection)
            try:
                yield guard
            finally:
                guard.uninstall(self.connection)
                self._active_guard = previous
                if previous is not None:
                    previous.install(self.connection)
        finally:
            self._guard_owner.release()

    def guarded_query(self, sql: str, params: Params = ()) -> list[tuple]:
        """Like :meth:`query`, but under the connection policy's
        ``query_timeout`` and ``max_rows`` limits.  This is the entry
        point for *user* queries (the engines route through it);
        internal metadata reads use the unguarded :meth:`query` so a
        tight row cap can never break store bookkeeping."""
        return self.query(
            sql,
            params,
            timeout=self.policy.query_timeout,
            max_rows=self.policy.max_rows,
        )

    def query(
        self,
        sql: str,
        params: Params = (),
        *,
        timeout: float | None = None,
        max_rows: int | None = None,
    ) -> list[tuple]:
        """Execute and fetch all rows, optionally under query guards.

        :raises QueryTimeoutError: when execution plus fetching exceeds
            the wall-clock limit.
        :raises QueryLimitError: when more than ``max_rows`` rows arrive.
        """
        with self._guarded(timeout) as guard:
            cursor = self.execute(sql, params)
            if guard is not None and guard.deadline_passed():
                raise QueryTimeoutError(
                    f"query exceeded the {timeout:g}s wall-clock limit",
                    sql=sql,
                )
            rows: list[tuple] = []
            while True:
                try:
                    chunk = cursor.fetchmany(_FETCH_CHUNK)
                except sqlite3.Error as exc:
                    raise self._wrap(exc, sql) from exc
                if not chunk:
                    break
                rows.extend(chunk)
                if max_rows is not None and len(rows) > max_rows:
                    raise QueryLimitError(
                        f"query produced more than {max_rows} row(s)",
                        sql=sql,
                    )
                if guard is not None and guard.deadline_passed():
                    raise QueryTimeoutError(
                        f"query exceeded the {timeout:g}s wall-clock "
                        f"limit while fetching",
                        sql=sql,
                    )
        return rows

    def query_one(self, sql: str, params: Sequence = ()) -> tuple | None:
        """Execute and fetch the first row, if any."""
        return self.execute(sql, params).fetchone()

    def query_across(
        self, arms: Mapping[str, str], rest: str = "", params: Params = ()
    ) -> list[tuple]:
        """One read over many tables: ``SELECT '<table>', <columns> FROM
        <table> <rest>`` for each ``table -> columns`` of ``arms``, joined
        by ``UNION ALL`` — one statement per :data:`COMPOUND_SELECT_LIMIT`
        arms.  Every row leads with the name of the table it came from.

        ``rest`` (joins, ``WHERE``, ``GROUP BY``) goes inside every arm,
        so it binds its parameters by number (``?1``): each is given
        once, whatever the number of arms.  The table names are SQL
        identifiers the caller vouches for (a mapping's relations).
        """
        tables = list(arms)
        rows: list[tuple] = []
        for start in range(0, len(tables), COMPOUND_SELECT_LIMIT):
            rows.extend(
                self.query(
                    " UNION ALL ".join(
                        f"SELECT '{table}', {arms[table]} FROM {table} {rest}"
                        for table in tables[start:start + COMPOUND_SELECT_LIMIT]
                    ),
                    params,
                )
            )
        return rows

    def cancel(self) -> None:
        """Cooperatively interrupt the statement currently running on
        this connection (callable from any thread).  The executing
        thread sees a :class:`QueryCancelledError`."""
        self._cancel_event.set()
        self.connection.interrupt()

    # -- transactions --------------------------------------------------------------

    def commit(self) -> None:
        """Commit the current transaction."""
        self.connection.commit()

    @contextmanager
    def savepoint(self, name: str = "repro_sp") -> Iterator[None]:
        """A nested-transaction scope: released on success, rolled back
        (and the enclosing implicit transaction unwound) on any error."""
        self.execute(f'SAVEPOINT "{name}"')
        try:
            yield
        except BaseException:
            try:
                self.execute(f'ROLLBACK TO "{name}"')
                self.execute(f'RELEASE "{name}"')
                self.connection.rollback()
            except StorageError:  # pragma: no cover - connection gone
                pass
            raise
        else:
            self.execute(f'RELEASE "{name}"')

    def close(self) -> None:
        """Close the underlying connection."""
        self.connection.close()

    # -- diagnostics ----------------------------------------------------------------

    @property
    def path(self) -> str | None:
        """Filesystem path of the main database, or ``None`` for an
        in-memory (or temporary) database.  This is what a
        :class:`repro.serving.ConnectionPool` opens its read-only
        sibling connections against."""
        for row in self.query("PRAGMA database_list"):
            if row[1] == "main":
                return row[2] or None
        return None  # pragma: no cover - main is always listed

    @property
    def sql_length_limit(self) -> int | None:
        """Longest statement text, in bytes, this connection accepts
        (``SQLITE_LIMIT_SQL_LENGTH``); ``None`` where Python cannot ask
        (``Connection.getlimit`` arrived in 3.11)."""
        if sys.version_info < (3, 11):
            return None
        return self.connection.getlimit(sqlite3.SQLITE_LIMIT_SQL_LENGTH)

    def query_plan(self, sql: str, params: Params = ()) -> list[str]:
        """The EXPLAIN QUERY PLAN detail lines for ``sql``."""
        rows = self.query("EXPLAIN QUERY PLAN " + sql, params)
        return [row[-1] for row in rows]

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        rows = self.query(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )
        return [row[0] for row in rows]

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
