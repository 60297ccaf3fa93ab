"""Per-query wall-clock guard built on SQLite progress handlers.

A :class:`QueryGuard` is installed on a connection for the duration of
one statement.  SQLite invokes the handler every
:data:`PROGRESS_INTERVAL` virtual machine instructions; when the
deadline has passed (or a cooperative cancellation event is set) the
handler returns non-zero, which makes SQLite abort the running
statement with an ``interrupted`` error.  The
:class:`~repro.storage.database.Database` wrapper then maps that abort
to :class:`~repro.errors.QueryTimeoutError` or
:class:`~repro.errors.QueryCancelledError` depending on which condition
fired.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Callable

#: SQLite VM instructions between progress-handler callbacks.
PROGRESS_INTERVAL = 1000


class QueryGuard:
    """Deadline (and cancellation) watcher for one running statement."""

    def __init__(
        self,
        timeout: float | None,
        *,
        cancel_event: threading.Event | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.timeout = timeout
        self._clock = clock
        self._cancel_event = cancel_event
        self._deadline: float | None = None
        #: Set by the handler when the deadline fired (distinguishes a
        #: timeout abort from a cancellation abort).
        self.expired = False

    def install(self, connection: sqlite3.Connection) -> None:
        """Arm the deadline and register the progress handler."""
        if self.timeout is not None:
            self._deadline = self._clock() + self.timeout
        connection.set_progress_handler(self._tick, PROGRESS_INTERVAL)

    def uninstall(self, connection: sqlite3.Connection) -> None:
        """Remove the progress handler from ``connection``."""
        connection.set_progress_handler(None, 0)

    def _tick(self) -> int:
        if self._cancel_event is not None and self._cancel_event.is_set():
            return 1
        if self._deadline is not None and self._clock() >= self._deadline:
            self.expired = True
            return 1
        return 0

    def deadline_passed(self) -> bool:
        """True once the wall-clock budget is spent.

        Also covers time lost *outside* SQLite's VM (e.g. a slow network
        filesystem or injected latency), which the progress handler alone
        cannot observe.
        """
        if self.expired:
            return True
        if self._deadline is not None and self._clock() >= self._deadline:
            self.expired = True
            return True
        return False
