"""Asyncio front door for the sharded worker fleet.

:class:`AsyncShardedEngine` lets a *single-threaded* event-loop process
hold thousands of in-flight XPath queries against the
:class:`~repro.serving.supervisor.ShardRuntime` fleet — where the
blocking :class:`~repro.serving.scatter.ShardedEngine` spends one OS
thread per admitted query waiting on the transport, the front door
spends none.  It is the asyncio *driver* of the one degradation ladder
(:mod:`repro.serving.ladder`): hedging, retries, deadlines and breakers
are that machine's decisions, translation, merge, caching and fallback
are the blocking engine's shared halves, and this module adds three
things:

**Batched admission (tick coalescing).**  Queries submitted in the same
event-loop iteration — one ``asyncio.gather``, many concurrent client
tasks, a burst drained from a socket — are coalesced into a single
*tick* and scattered as **one** shard call (one ``submit_batch`` message
per shard), so queue/marshal overhead is paid per burst instead of per
query.  The tick flush is scheduled with ``loop.call_soon`` when the
first query of a burst arrives; there is no background pump task to
leak or poll.  Queries with different deadline budgets get separate
ticks, because a shard call has one expiry.

**Awaitable backpressure.**  Admission is an ``asyncio.Semaphore`` of
``max_inflight`` slots.  With ``admission_timeout`` set, a query that
cannot get a slot in time fails fast with
:class:`~repro.errors.AdmissionRejectedError` — the same contract as
the blocking engine.  With ``admission_timeout=None`` the await simply
parks until a slot frees: thousands of submitted queries then occupy a
pending future each instead of a thread each, which is what bounds
memory at high concurrency.

**Cancellation.**  Worker completions reach the loop through
``call_soon_threadsafe`` and timers through ``call_later``; nothing
blocks.  ``asyncio.CancelledError`` propagates through every await: a
cancelled query releases its admission slot, and when every query of a
tick has been cancelled the tick abandons its in-flight requests
(hedges included).
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Optional, Union

from repro.core.engine import QueryResult
from repro.core.translator import TranslationResult
from repro.serving.scatter import (
    Scatter,
    ServingConfig,
    ShardedEngine,
    ShardOutcome,
    _Planned,
)
from repro.xpath.ast import XPathExpr


class _Tick(Scatter):
    """One coalescing window — every query enqueued in the same
    event-loop iteration with the same budget — and the loop-side
    wake-up of its scatter."""

    def __init__(self, engine: ShardedEngine, loop) -> None:
        super().__init__(engine)
        self._loop = loop
        self.statements: list[str] = []
        #: Per statement, the future of its per-shard outcomes.
        self.futures: list[asyncio.Future] = []
        #: The tick hedges when *any* coalesced query is above the
        #: costed hedge gate (the duplicate is shared, so one eligible
        #: query justifies it).
        self.hedge = False
        self._waiting = 0
        self._timers: list[asyncio.TimerHandle] = []

    def add(self, sql: str, hedge: bool) -> "asyncio.Future":
        future = self._loop.create_future()
        future.add_done_callback(self._waiter_done)
        self.statements.append(sql)
        self.futures.append(future)
        self.hedge = self.hedge or hedge
        self._waiting += 1
        return future

    def _post(self, shard: int, tag: int, payload: Optional[dict]) -> None:
        try:
            self._loop.call_soon_threadsafe(
                self.completed, shard, tag, payload
            )
        except RuntimeError:  # loop closed mid-shutdown
            pass

    def _set_timer(self, shard: int, delay: float, token: tuple) -> None:
        self._timers.append(
            self._loop.call_later(delay, self.timer_due, shard, token)
        )

    def _resolved(self, shard: int) -> None:
        shards = range(len(self._calls))
        if len(self.outcomes) < len(shards):
            return
        self._drop_timers()
        for position, future in enumerate(self.futures):
            if not future.done():
                future.set_result(
                    [self.outcomes[shard][position] for shard in shards]
                )

    def _waiter_done(self, future: "asyncio.Future") -> None:
        if not future.cancelled():
            return
        self._waiting -= 1
        if not self._waiting:
            # Nobody is left to hear the answers.
            self.cancel()
            self._drop_timers()

    def _drop_timers(self) -> None:
        # The machine ignores stale timers; cancelling them only keeps
        # finished ticks (and their rows) from lingering in the loop's
        # heap until the budget would have run out.
        for handle in self._timers:
            handle.cancel()
        self._timers = []


class AsyncShardedEngine:
    """Asyncio counterpart of :class:`~repro.serving.scatter.
    ShardedEngine`, sharing its planner, ladders (breakers, rotation),
    result cache and degradation counters.

    Must be constructed on a running event loop and used only from that
    loop.  Obtain one with :meth:`serve`, by wrapping an existing
    blocking engine (``AsyncShardedEngine(engine)``), or implicitly via
    :meth:`ShardedEngine.execute_async` /
    :func:`repro.connect` + :meth:`~repro.api.Engine.execute_async`.
    """

    def __init__(
        self, engine: ShardedEngine, own_engine: bool = False
    ) -> None:
        self._engine = engine
        self._own_engine = own_engine
        self._loop = asyncio.get_running_loop()
        max_inflight = max(1, engine.config.max_inflight)
        self._admission = asyncio.Semaphore(max_inflight)
        #: Open ticks by deadline budget (loop-thread only).
        self._ticks: dict[Optional[float], _Tick] = {}
        self._closed = False

    # -- construction ------------------------------------------------------------

    @classmethod
    async def serve(
        cls,
        store,
        config: Optional[ServingConfig] = None,
        **kwargs,
    ) -> "AsyncShardedEngine":
        """Spawn a worker fleet over ``store`` (forking happens off-loop
        in the default executor) and wrap it; closing the async engine
        closes the fleet."""
        loop = asyncio.get_running_loop()
        engine = await loop.run_in_executor(
            None,
            lambda: ShardedEngine.serve(store, config=config, **kwargs),
        )
        return cls(engine, own_engine=True)

    @property
    def config(self) -> ServingConfig:
        return self._engine.config

    @property
    def stats(self) -> dict:
        """The shared degradation counters (same dict object as the
        wrapped blocking engine's)."""
        return self._engine.stats

    @property
    def engine(self) -> ShardedEngine:
        """The wrapped blocking engine (planner, ladders, fleet)."""
        return self._engine

    def translate(
        self, expression: Union[str, XPathExpr]
    ) -> TranslationResult:
        return self._engine.translate(expression)

    def explain(self, expression: Union[str, XPathExpr]):
        return self._engine.explain(expression)

    async def close(self) -> None:
        """Shut down (idempotent).  Closes the wrapped engine — and its
        fleet, when owned — off-loop; in-flight queries fail with their
        usual ladder errors as workers disappear."""
        if self._closed:
            return
        self._closed = True
        if self._own_engine:
            await asyncio.get_running_loop().run_in_executor(
                None, self._engine.close
            )

    async def __aenter__(self) -> "AsyncShardedEngine":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- admission ---------------------------------------------------------------

    async def _admit(self) -> None:
        timeout = self._engine.config.admission_timeout
        if timeout is None:
            await self._admission.acquire()
            return
        try:
            await asyncio.wait_for(self._admission.acquire(), timeout)
        except asyncio.TimeoutError:
            raise self._engine._rejected() from None

    # -- execution ---------------------------------------------------------------

    async def execute(
        self,
        expression: Union[str, XPathExpr],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Awaitable scatter-gather with the full degradation ladder.

        Semantics match :meth:`ShardedEngine.execute` — same results,
        same ``complete``/``failed_shards`` contract, same typed errors
        — plus: concurrently-submitted queries share batched scatters,
        and cancelling the await releases the admission slot.

        :raises AdmissionRejectedError: no slot within
            ``admission_timeout`` (``None`` waits without limit).
        :raises ShardUnavailableError: every shard failed and the
            native fallback was disabled or declined.
        """
        return (await self.execute_many([expression], deadline=deadline))[0]

    async def execute_many(
        self,
        expressions,
        *,
        deadline: Optional[float] = None,
    ) -> list[QueryResult]:
        """Run many queries, results in input order.

        Like the blocking engine's, the whole call occupies **one**
        admission slot and every statement lands in the same coalescing
        tick — one ``submit_batch`` per shard.  ``deadline`` budgets
        the whole call.
        """
        engine = self._engine
        planned = [engine._plan(expression) for expression in expressions]
        pending = [plan for plan in planned if plan.result is None]
        if pending:
            await self._admit()
            futures: list[asyncio.Future] = []
            try:
                engine._count("queries", len(pending))
                budget = engine._budget(deadline)
                futures = [self._enqueue(plan, budget) for plan in pending]
                for plan, future in zip(pending, futures):
                    plan.result = await self._finish(plan, await future)
            finally:
                for future in futures:
                    future.cancel()
                self._admission.release()
        return [plan.result for plan in planned]

    async def stream(
        self,
        expressions,
        *,
        deadline: Optional[float] = None,
    ) -> AsyncIterator[QueryResult]:
        """Async iterator yielding one :class:`QueryResult` per input
        expression, in input order, each as soon as it (and its
        predecessors) complete.

        Every query is submitted up front — so they coalesce into
        shared batches and admission-control applies per query — but
        the caller consumes results incrementally instead of holding
        the whole list.  Closing the iterator early cancels the
        still-outstanding queries (releasing their admission slots).
        """
        tasks = [
            asyncio.ensure_future(
                self.execute(expression, deadline=deadline)
            )
            for expression in expressions
        ]
        try:
            for task in tasks:
                yield await task
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- tick coalescing ---------------------------------------------------------

    def _enqueue(
        self, plan: _Planned, budget: Optional[float]
    ) -> "asyncio.Future":
        """Join the open tick for ``budget`` (opening one — and
        scheduling the flush on the next loop iteration — if needed);
        returns the future of this statement's per-shard outcomes."""
        tick = self._ticks.get(budget)
        if tick is None:
            if not self._ticks:
                self._loop.call_soon(self._flush)
            tick = self._ticks[budget] = _Tick(self._engine, self._loop)
        return tick.add(
            plan.translation.sql, self._engine._hedge_allowed(plan)
        )

    def _flush(self) -> None:
        """Close the open ticks and scatter each: one call per shard."""
        ticks, self._ticks = self._ticks, {}
        for budget, tick in ticks.items():
            tick.start(tick.statements, budget, tick.hedge)

    async def _finish(
        self, plan: _Planned, outcomes: list[ShardOutcome]
    ) -> QueryResult:
        if any(outcome.ok for outcome in outcomes):
            return self._engine._finish(plan, outcomes)
        # The native fallback evaluates documents in-process: run it
        # (or raise the typed error) off-loop.
        return await self._loop.run_in_executor(
            None, self._engine._finish, plan, outcomes
        )
