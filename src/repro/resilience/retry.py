"""Retry with exponential backoff and jitter for transient SQLite errors.

SQLite reports lock contention as ``OperationalError`` with messages like
``database is locked`` / ``database table is locked``.  Those are
transient by nature — another connection holds the write lock for a
moment — so the right response is to back off and retry, not to surface a
raw :class:`StorageError` to the caller.  Everything else (syntax errors,
constraint violations, I/O failures) is permanent and re-raised on the
first attempt.
"""

from __future__ import annotations

import random
import sqlite3
import time
from typing import Callable, TypeVar

from repro.errors import RetryExhaustedError
from repro.resilience.policy import ResiliencePolicy

T = TypeVar("T")

_TRANSIENT_MARKERS = ("database is locked", "database table is locked", "busy")


def is_transient(exc: BaseException) -> bool:
    """True for SQLite errors that a retry can plausibly cure."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc).lower()
    return any(marker in message for marker in _TRANSIENT_MARKERS)


def backoff_delay(
    policy: ResiliencePolicy, attempt: int, rng: random.Random
) -> float:
    """Delay before retry number ``attempt`` (0-based): capped
    exponential growth plus a random jitter fraction."""
    delay = min(
        policy.backoff_cap,
        policy.backoff_base * policy.backoff_multiplier**attempt,
    )
    if policy.jitter:
        delay *= 1.0 + policy.jitter * rng.random()
    return delay


def run_with_retry(
    operation: Callable[[], T],
    policy: ResiliencePolicy,
    *,
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
    sql: str | None = None,
) -> T:
    """Run ``operation``, retrying transient SQLite errors per ``policy``.

    :raises RetryExhaustedError: when a transient error persists beyond
        ``policy.max_retries`` retries (the original error is chained).
    :raises sqlite3.Error: permanent errors propagate untouched so the
        caller can wrap them with its own context.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except sqlite3.Error as exc:
            if not is_transient(exc):
                raise
            if attempt >= policy.max_retries:
                raise RetryExhaustedError(
                    f"transient error persisted through "
                    f"{attempt + 1} attempt(s): {exc}",
                    sql=sql,
                    attempts=attempt + 1,
                ) from exc
            if rng is None:  # seeded from the OS: not on the no-error path
                rng = random.Random()
            sleep(backoff_delay(policy, attempt, rng))
            attempt += 1
