"""The one public entry point: :func:`connect` + :class:`EngineConfig`.

:func:`connect` opens a store and builds its engine from one
:class:`EngineConfig`::

    import repro

    with repro.connect("corpus.db") as engine:          # single store
        for row in engine.execute("/site/regions/*/item"):
            ...

    with repro.connect("shards/") as engine:            # sharded store
        results = engine.execute_many(queries, deadline=5.0)

    engine = repro.connect("shards/")                   # asyncio client
    try:
        result = await engine.execute_async("//price", deadline=1.0)
    finally:
        engine.close()

``connect`` autodetects what it was given — a single SQLite store file
or a sharded store directory (``manifest.json``) — and returns an
object satisfying the :class:`Engine` protocol either way: ``execute``
/ ``execute_many`` / ``execute_async`` / ``explain`` / ``close``, plus
the context-manager surface.  Everything the engine opened on your
behalf (database, worker fleet) is released by ``close``.

:class:`EngineConfig` is the only tunables object of both engine
families.  Both plan through the engine :meth:`EngineConfig.
planning_engine` builds, so the same config translates an XPath to the
same SQL on a single store and on a fleet; the serving fields are read
by the fleet alone (a single store has no hedging).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

from repro.core.engine import PPFEngine, QueryResult
from repro.errors import StorageError
from repro.resilience.policy import ResiliencePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xpath.ast import XPathExpr


@dataclass(frozen=True)
class EngineConfig:
    """Every engine tunable, in one place.

    Both engine families read the planning and execution fields; the
    sharded-serving fields are read by the fleet alone.
    ``EngineConfig()`` reproduces the defaults the individual
    constructors always had.
    """

    # -- planning (both families) --
    #: Section 4.5 — omit provably redundant `Paths` joins.
    path_filter_optimization: bool = True
    #: Section 4.2 — foreign-key equijoins for single-step PPFs.
    prefer_fk_joins: bool = True
    #: Explicit optimizer-pass selection (``None`` = default pipeline).
    passes: Optional[tuple[str, ...]] = None

    # -- execution (both families) --
    #: Per-query wall-clock budget in seconds (``None`` = unlimited):
    #: the resilience policy's query timeout on a single store, the
    #: serving deadline over a sharded one.
    deadline: Optional[float] = 5.0
    #: Per-query row cap (``None`` = unlimited): the single store's
    #: policy, forwarded to every shard's worker on a fleet.
    max_rows: Optional[int] = None
    #: Degrade to the native evaluator when SQL cannot answer (needs
    #: resident documents; silently inert for disk-opened stores).
    fallback: bool = True
    #: Entries in the generation-keyed result cache (``None`` = off).
    result_cache_size: Optional[int] = 128

    # -- sharded serving (the fleet only) --
    #: Worker replicas per shard.
    replicas: int = 2
    #: Seconds a shard may stay silent before a hedged duplicate
    #: request goes to a second replica (``None`` disables hedging).
    hedge_delay: Optional[float] = 0.05
    #: Cost-model gate on hedging: a query whose estimated result is
    #: below this many rows skips hedged duplicates (a cheap query's
    #: tail latency is dominated by the duplicate's own overhead, not
    #: by stragglers).  Only consulted when the store has collected
    #: statistics; estimate-less queries hedge as before.
    hedge_min_rows: float = 16.0
    #: Extra attempts per shard after the first failed/crashed one.
    shard_retries: int = 1
    #: Maximum queries in flight; the admission queue rejects beyond it.
    max_inflight: int = 8
    #: Seconds to wait for an admission slot before
    #: :class:`~repro.errors.AdmissionRejectedError`.  ``None`` waits
    #: without limit — on the async front door this is the *awaitable
    #: backpressure* mode: submitted queries park on the admission
    #: semaphore (a pending future each, not a thread each) until a
    #: slot frees.
    admission_timeout: Optional[float] = 0.5
    #: Consecutive per-shard failures that trip the shard's breaker.
    breaker_threshold: int = 3
    #: Seconds a tripped breaker stays open before half-open probing.
    breaker_cooldown: float = 1.0

    def planning_engine(self, store) -> PPFEngine:
        """The engine that translates for ``store`` under the planning
        fields, with this config's ``fallback`` and result cache.
        :func:`connect` returns it for a single store; a
        :class:`~repro.serving.scatter.ShardedEngine` keeps one over its
        sharded store for translation, ``explain``, the result cache and
        the native fallback."""
        return PPFEngine(
            store,
            path_filter_optimization=self.path_filter_optimization,
            prefer_fk_joins=self.prefer_fk_joins,
            passes=self.passes,
            fallback=self.fallback,
            result_cache_size=self.result_cache_size,
        )

    def policy(self) -> ResiliencePolicy:
        """This config's single-store slice, as a
        :class:`~repro.resilience.ResiliencePolicy`."""
        return ResiliencePolicy(
            query_timeout=self.deadline, max_rows=self.max_rows
        )


@runtime_checkable
class Engine(Protocol):
    """What :func:`connect` returns — the query surface both engine
    families satisfy (``isinstance(engine, Engine)`` checks it at
    runtime).

    The shared contract: ``execute_many`` returns results in input
    order; partial results are *flagged*, never silent
    (``QueryResult.complete`` / ``failed_shards``); ``served_by`` is
    drawn from the closed :data:`~repro.core.engine.SERVED_BY`
    vocabulary; ``close`` releases everything the engine owns and the
    engine is a context manager around it.
    """

    def execute(
        self,
        expression: Union[str, "XPathExpr"],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Run one query; document-ordered result."""
        ...  # pragma: no cover - protocol

    def execute_many(
        self,
        expressions,
        *,
        deadline: Optional[float] = None,
    ) -> list[QueryResult]:
        """Run many queries; results in input order, ``deadline``
        budgets the whole call."""
        ...  # pragma: no cover - protocol

    async def execute_async(
        self,
        expression: Union[str, "XPathExpr"],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Awaitable :meth:`execute` for event-loop callers."""
        ...  # pragma: no cover - protocol

    def explain(self, expression: Union[str, "XPathExpr"]):
        """The SQL (and plan) the query would run."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release everything the engine owns."""
        ...  # pragma: no cover - protocol

    def __enter__(self): ...  # pragma: no cover - protocol

    def __exit__(self, *exc_info): ...  # pragma: no cover - protocol


def _is_sharded_dir(path: str) -> bool:
    return os.path.isdir(path) and os.path.exists(
        os.path.join(path, "manifest.json")
    )


def connect(
    path_or_dir: Union[str, "os.PathLike[str]"],
    *,
    config: Optional[EngineConfig] = None,
) -> Engine:
    """Open a store and return a ready-to-query :class:`Engine`.

    ``path_or_dir`` is either a single-store SQLite file (returns a
    :class:`~repro.core.engine.PPFEngine`) or a sharded store
    directory with a ``manifest.json`` (spawns a supervised worker
    fleet and returns a :class:`~repro.serving.scatter.ShardedEngine`).
    Either way the engine owns what was opened for it: ``close()`` (or
    leaving the ``with`` block) tears down fleets and database handles.

    :raises StorageError: the path is neither an existing store file
        nor a sharded store directory.
    """
    path = os.fspath(path_or_dir)
    config = config if config is not None else EngineConfig()
    if _is_sharded_dir(path):
        return _connect_sharded(path, config)
    if os.path.isdir(path):
        raise StorageError(
            f"{path!r} is a directory without a manifest.json — not a "
            f"sharded store (create one with `repro shard create`)"
        )
    _require_existing(path)
    return _connect_single(path, config)


def _require_existing(path: str) -> None:
    """Refuse a store path that does not exist, before SQLite would
    create an empty file there."""
    if not os.path.exists(path):
        raise StorageError(
            f"{path!r} does not exist — shred documents into it first "
            f"(`repro shred`) or pass a sharded store directory"
        )


def _connect_single(path: str, config: EngineConfig) -> "PPFEngine":
    from repro.storage.database import Database
    from repro.storage.schema_aware import ShreddedStore

    # Not bound to the opening thread: execute_async runs the blocking
    # engine on its one executor thread.  One thread at a time may use
    # the handle (a second one gets a StorageError, see Database.query).
    db = Database.open(
        path, policy=config.policy(), check_same_thread=False
    )
    try:
        engine = config.planning_engine(ShreddedStore.open(db))
    except BaseException:
        db.close()
        raise
    engine._on_close.append(db.close)
    return engine


def _connect_sharded(path: str, config: EngineConfig):
    from repro.serving.scatter import ShardedEngine
    from repro.serving.shards import ShardedStore

    store = ShardedStore.open(path)
    try:
        engine = ShardedEngine.serve(store, config=config)
    except BaseException:
        store.close()
        raise
    engine._on_close.append(store.close)
    return engine
