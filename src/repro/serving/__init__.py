"""Concurrent read-serving layer.

The paper's thesis is that PPF translation lets the relational backend
do the heavy lifting; this package lets the backend actually exploit
that under concurrency:

* :class:`ConnectionPool` — N pooled read-only :class:`~repro.storage.
  database.Database` connections over the WAL file a store writes to,
  checked out per query (each registers ``regexp_like`` and keeps the
  guard/retry machinery of the resilience layer),
* :class:`ResultCache` — the bounded second cache tier of the engines:
  full :class:`~repro.core.engine.QueryResult` objects keyed by
  ``(xpath, store generation)``, so a hit never touches SQLite and a
  mutation can never serve a stale answer,
* the **sharded multi-process tier** (imported lazily — it builds on
  :mod:`repro.core`, which itself imports this package):
  :class:`ShardedStore` places documents across N SQLite shard files,
  :class:`ShardRuntime` supervises the forked worker fleet serving
  them, and :class:`ShardedEngine` scatter-gathers queries over the
  fleet; deadlines, hedging, retries and circuit breaking are the one
  graceful-degradation ladder of :mod:`repro.serving.ladder`, an
  I/O-free machine both engines drive,
* the **asyncio front door** (:class:`AsyncShardedEngine`) — batched
  admission over the same fleet for event-loop clients: thousands of
  in-flight queries per process, one coalesced ``submit_batch`` per
  shard per tick, the same ladder driven from the loop instead of a
  blocked thread.
"""

from repro.serving.cache import CacheInfo, ResultCache
from repro.serving.pool import ConnectionPool

#: name -> submodule holding it (resolved on first attribute access).
_LAZY = {
    "DocEntry": "shards",
    "ShardedStore": "shards",
    "shard_of": "shards",
    "CircuitBreaker": "supervisor",
    "ShardRuntime": "supervisor",
    "WorkerConfig": "supervisor",
    "WorkerHandle": "supervisor",
    "ServingConfig": "scatter",
    "ShardOutcome": "ladder",
    "ShardedEngine": "scatter",
    "AsyncShardedEngine": "frontdoor",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f"repro.serving.{module_name}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsyncShardedEngine",
    "CacheInfo",
    "CircuitBreaker",
    "ConnectionPool",
    "DocEntry",
    "ResultCache",
    "ServingConfig",
    "ShardOutcome",
    "ShardRuntime",
    "ShardedEngine",
    "ShardedStore",
    "WorkerConfig",
    "WorkerHandle",
    "shard_of",
]
