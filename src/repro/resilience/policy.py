"""The knobs of the resilience layer, bundled in one value object.

A :class:`ResiliencePolicy` travels with a :class:`repro.storage.database.
Database` and controls the protective mechanisms the execution path
runs under:

* **query guards** — per-statement wall-clock timeout (enforced through a
  ``sqlite3`` progress handler) and a row-count cap applied while
  fetching,
* **retry** — exponential backoff with jitter for transient
  ``SQLITE_BUSY`` / ``database is locked`` errors,
* **concurrency pragmas** — WAL journaling and ``busy_timeout`` so
  concurrent readers of a file-backed store work at all (always on:
  :class:`~repro.storage.database.Database` sets them on open).

The dataclass is frozen; derive variants with :meth:`replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class ResiliencePolicy:
    """Limits and retry behaviour for one database connection."""

    #: Per-statement wall-clock limit in seconds (``None`` = unbounded).
    query_timeout: float | None = None
    #: Maximum rows a single ``query()`` may return (``None`` = unbounded).
    max_rows: int | None = None
    #: Retries after the first failed attempt of a transient error.
    max_retries: int = 4
    #: First backoff delay in seconds; doubles each retry.
    backoff_base: float = 0.05
    #: Ceiling on a single backoff delay in seconds.
    backoff_cap: float = 2.0
    #: Growth factor between consecutive delays.
    backoff_multiplier: float = 2.0
    #: Random extra fraction added to each delay (0.25 = up to +25%).
    jitter: float = 0.25

    def replace(self, **changes) -> "ResiliencePolicy":
        """A copy of this policy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


#: Policy used when a caller does not supply one: no hard limits, but
#: transient-error retry and the concurrency pragmas stay on.
DEFAULT_POLICY = ResiliencePolicy()
