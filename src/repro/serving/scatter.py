"""Scatter-gather query execution over a sharded store.

:class:`ShardedEngine` is the sharded counterpart of
:class:`~repro.core.engine.PPFEngine`: translate once (all shards share
one schema, and the generated SQL filters `Paths` by string, never by
shard-local ids), scatter the statement to every shard's worker via the
:class:`~repro.serving.supervisor.ShardRuntime`, remap shard-local row
ids to global ids through the store's document registry, and merge in
Dewey document order — bit-identical to single-store execution.

What happens between "scatter" and "merge" — deadline slices, hedged
duplicates, retries on the next replica, circuit breaking — is decided
per shard by :mod:`repro.serving.ladder` and nowhere else.  This module
holds what surrounds that ladder, once for both engines:

* the **front half** — translate → empty check → result-cache lookup
  (:meth:`ShardedEngine._plan`) — and the **back half** — merge →
  cache-or-``partials`` → native fallback or typed error when every
  shard failed (:meth:`ShardedEngine._finish`);
* :class:`Scatter`, which carries a ladder's actions out against the
  runtime (send, abandon) and leaves the wake-up — where completions
  land, how timers are kept — to a driver.

The blocking driver here adds thread-safe admission (a bounded
semaphore: reject fast with :class:`~repro.errors.
AdmissionRejectedError` rather than queue without bound) and a blocking
wait: the calling thread sends to every shard itself, takes completions
from one queue and sleeps until the nearest timer.  The asyncio driver
is :mod:`repro.serving.frontdoor`.

No rung ever fabricates rows; a caller always gets correct-complete,
correct-partial (``complete=False``, losers in ``failed_shards``), the
native evaluator's answer (``served_by="native"``) or a typed
:class:`~repro.errors.ShardUnavailableError` — the chaos suite asserts
exactly this against the native oracle.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import operator
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Union

from repro.core.adapters import SchemaAwareAdapter
from repro.core.engine import ExplainReport, SQLXPathEngine
from repro.core.results import (
    QueryResult,
    ResultRow,
    merge_document_runs,
    remapped_rows,
)
from repro.core.translator import PPFTranslator, TranslationResult
from repro.errors import (
    AdmissionRejectedError,
    ShardError,
    ShardUnavailableError,
)
from repro.resilience.faults import WorkerFaultPlan
from repro.resilience.policy import ResiliencePolicy
from repro.serving.ladder import (
    Abandon,
    Action,
    Send,
    SetTimer,
    ShardLadder,
    ShardOutcome,
)
from repro.serving.supervisor import CircuitBreaker, ShardRuntime
from repro.xpath.ast import XPathExpr


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the sharded serving ladder."""

    #: Default per-query wall-clock deadline in seconds, budgeted over a
    #: shard's attempts (``None`` = no deadline).
    deadline: Optional[float] = 5.0
    #: Seconds a shard may stay silent before a hedged duplicate request
    #: goes to a second replica (``None`` disables hedging).
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
    #: Seconds :meth:`ShardedEngine.execute` waits for an admission slot
    #: before raising :class:`AdmissionRejectedError`.  ``None`` waits
    #: without limit — on the async front door this is the *awaitable
    #: backpressure* mode: submitted queries park on the admission
    #: semaphore (a pending future each, not a thread each) until a
    #: slot frees.
    admission_timeout: Optional[float] = 0.5
    #: Consecutive per-shard failures that trip the shard's breaker.
    breaker_threshold: int = 3
    #: Seconds a tripped breaker stays open before half-open probing.
    breaker_cooldown: float = 1.0
    #: Per-request row cap forwarded to the workers (``None`` = none).
    max_rows: Optional[int] = None
    #: Allow the final native-evaluator rung when every shard failed.
    fallback: bool = True
    #: Entries in the generation-keyed result cache (``None`` disables).
    result_cache_size: Optional[int] = 128



@dataclass
class _Planned:
    """One expression past the front half: translated and looked up in
    the result cache.  ``result`` is set when no scatter is needed
    (empty translation, cache hit) and filled in by the back half
    otherwise."""

    translation: TranslationResult
    key: Optional[tuple]
    result: Optional[QueryResult]


class Scatter:
    """One scatter: a :class:`~repro.serving.ladder.ShardCall` per
    shard, its actions carried out against the runtime.

    A driver subclasses this with the wake-up: :meth:`_post` receives a
    transport completion on a runtime thread and must get it to
    :meth:`completed` on the driver's own thread, :meth:`_set_timer`
    must get :meth:`timer_due` called there after a delay, and
    :meth:`_resolved` hears each shard's call finish.  Everything here
    runs on that one thread.
    """

    def __init__(self, engine: "ShardedEngine") -> None:
        self._engine = engine
        self._calls: list = []
        #: Shard -> one outcome per statement, once its call resolved.
        self.outcomes: dict[int, list[ShardOutcome]] = {}

    def start(
        self, statements: list[str], budget: Optional[float], hedge: bool
    ) -> None:
        """Scatter ``statements`` to every shard; the deadline budget
        (seconds, ``None`` = none) starts now."""
        now = time.monotonic()
        expiry = now + budget if budget is not None else None
        self._calls = [
            ladder.call(statements, expiry, hedge)
            for ladder in self._engine._ladders
        ]
        for call in self._calls:
            self._perform(call, call.start(now))

    def completed(self, shard: int, tag: int, payload: Optional[dict]) -> None:
        """The transport completed request ``tag`` of ``shard``'s call
        (``None``: it never will)."""
        call = self._calls[shard]
        now = time.monotonic()
        self._perform(
            call,
            call.lost(tag, now)
            if payload is None
            else call.response(tag, payload, now),
        )

    def timer_due(self, shard: int, token: tuple) -> None:
        call = self._calls[shard]
        self._perform(call, call.timer(token, time.monotonic()))

    def cancel(self) -> None:
        """Abandon whatever is still in flight (no-op for resolved
        calls)."""
        for call in self._calls:
            self._perform(call, call.cancel())

    def _perform(self, call, actions: list[Action]) -> None:
        runtime = self._engine.runtime
        todo = deque(actions)
        while todo:
            action = todo.popleft()
            if isinstance(action, Send):
                try:
                    rid = runtime.submit_batch(
                        call.shard,
                        action.statements,
                        replica=action.replica,
                        timeout=action.timeout,
                        max_rows=self._engine.config.max_rows,
                        on_complete=partial(
                            self._post, call.shard, action.tag
                        ),
                    )
                except ShardError:
                    todo.extend(call.lost(action.tag, time.monotonic()))
                else:
                    call.sent(action.tag, rid)
            elif isinstance(action, Abandon):
                runtime.abandon(action.rid)
            elif isinstance(action, SetTimer):
                self._set_timer(call.shard, action.delay, action.token)
            else:
                self.outcomes[call.shard] = action.outcomes
                self._resolved(call.shard)

    def _post(self, shard: int, tag: int, payload: Optional[dict]) -> None:
        raise NotImplementedError

    def _set_timer(self, shard: int, delay: float, token: tuple) -> None:
        raise NotImplementedError

    def _resolved(self, shard: int) -> None:
        """``shard``'s call just resolved into :attr:`outcomes`."""


class _BlockingScatter(Scatter):
    """The blocking wake-up: completions land in one queue, timers in a
    heap, and the calling thread sleeps on the queue until the nearest
    timer."""

    def __init__(self, engine: "ShardedEngine") -> None:
        super().__init__(engine)
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        #: (due, tie-break, shard, token)
        self._timers: list[tuple] = []
        self._order = itertools.count()

    def _post(self, shard: int, tag: int, payload: Optional[dict]) -> None:
        self._inbox.put((shard, tag, payload))

    def _set_timer(self, shard: int, delay: float, token: tuple) -> None:
        heapq.heappush(
            self._timers,
            (time.monotonic() + delay, next(self._order), shard, token),
        )

    def run(
        self, statements: list[str], budget: Optional[float], hedge: bool
    ) -> dict[int, list[ShardOutcome]]:
        """Scatter and block until every shard's call resolved."""
        try:
            self.start(statements, budget, hedge)
            while len(self.outcomes) < len(self._calls):
                wait = (
                    max(self._timers[0][0] - time.monotonic(), 0.0)
                    if self._timers
                    else None
                )
                try:
                    event = self._inbox.get(timeout=wait)
                except queue.Empty:
                    _, _, shard, token = heapq.heappop(self._timers)
                    self.timer_due(shard, token)
                else:
                    self.completed(*event)
        finally:
            self.cancel()
        return self.outcomes


class ShardedEngine:
    """Scatter-gather XPath execution over a :class:`~repro.serving.
    shards.ShardedStore` served by a :class:`ShardRuntime` worker fleet.

    Construct directly from an already-running runtime, or use
    :meth:`serve` to spawn (and own) one.  Thread-safe; admission
    control is the concurrency limiter.
    """

    def __init__(
        self,
        store,
        runtime: ShardRuntime,
        config: Optional[ServingConfig] = None,
        own_runtime: bool = False,
        verify_plans: bool = False,
    ):
        if runtime.shard_count != store.shard_count:
            raise ShardUnavailableError(
                f"runtime serves {runtime.shard_count} shard(s) but the "
                f"store has {store.shard_count}"
            )
        self.store = store
        self.runtime = runtime
        self.config = config if config is not None else ServingConfig()
        self._own_runtime = own_runtime
        # The planner wraps translation caching, explain() and the
        # native-fallback evaluation; its SQL-execution paths are never
        # used (a ShardedStore has no single `.db` to run them on).
        self._planner = SQLXPathEngine(
            store,
            PPFTranslator(SchemaAwareAdapter(store)),
            fallback=self.config.fallback,
            result_cache_size=self.config.result_cache_size,
            verify_plans=verify_plans,
        )
        self._admission = threading.BoundedSemaphore(self.config.max_inflight)
        self._stats_lock = threading.Lock()
        #: Degradation counters: queries, hedges, retries, partials,
        #: fallbacks, rejections, breaker_short_circuits.
        self.stats = {
            "queries": 0,
            "hedges": 0,
            "retries": 0,
            "partials": 0,
            "fallbacks": 0,
            "rejections": 0,
            "breaker_short_circuits": 0,
        }
        #: Per shard, the rungs every call to it shares (blocking and
        #: asyncio alike): breaker, primary rotation, counters.
        self._ladders = [
            ShardLadder(
                shard,
                runtime.replicas,
                self.config,
                CircuitBreaker(
                    failure_threshold=self.config.breaker_threshold,
                    cooldown=self.config.breaker_cooldown,
                ),
                self._count,
            )
            for shard in range(store.shard_count)
        ]
        # Lazily-built async front doors, one per event loop (keyed by
        # id(loop), identity-checked: a dead loop's slot is reclaimed).
        self._frontdoors: dict[int, object] = {}
        #: Cleanup hooks run by :meth:`close` — :func:`repro.connect`
        #: registers the store it opened here.
        self._on_close: list = []

    # -- construction ------------------------------------------------------------

    @classmethod
    def serve(
        cls,
        store,
        config: Optional[ServingConfig] = None,
        replicas: int = 2,
        policy: Optional[ResiliencePolicy] = None,
        fault_plan: Optional[WorkerFaultPlan] = None,
        health_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        verify_plans: bool = False,
    ) -> "ShardedEngine":
        """Spawn a worker fleet over ``store`` and wrap it in an engine
        that owns it (closing the engine closes the fleet)."""
        kwargs = {}
        if health_interval is not None:
            kwargs["health_interval"] = health_interval
        if heartbeat_timeout is not None:
            kwargs["heartbeat_timeout"] = heartbeat_timeout
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=replicas,
            policy=policy if policy is not None else store.policy,
            fault_plan=fault_plan,
            **kwargs,
        ).start()
        return cls(
            store,
            runtime,
            config=config,
            own_runtime=True,
            verify_plans=verify_plans,
        )

    def close(self) -> None:
        """Shut down the worker fleet when this engine owns it, and
        anything :func:`repro.connect` opened on the caller's behalf."""
        self._frontdoors.clear()
        if self._own_runtime:
            self.runtime.close()
        hooks, self._on_close = list(self._on_close), []
        for hook in reversed(hooks):
            hook()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- planning ----------------------------------------------------------------

    def translate(
        self, expression: Union[str, XPathExpr]
    ) -> TranslationResult:
        """Translate without executing (cached for string expressions;
        one translation serves every shard)."""
        return self._planner.translate(expression)

    def explain(self, expression: Union[str, XPathExpr]) -> ExplainReport:
        """The SQL that would be scattered to every shard, as an
        :class:`ExplainReport`."""
        return self._planner.explain(expression)

    # -- stats -------------------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self.stats[key] += amount

    def breaker_states(self) -> dict[int, str]:
        """Current circuit-breaker state per shard."""
        return {
            ladder.shard: ladder.breaker.state for ladder in self._ladders
        }

    # -- execution ---------------------------------------------------------------

    def execute(
        self,
        expression: Union[str, XPathExpr],
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Run ``expression`` over every shard and merge.

        ``deadline`` (seconds) overrides the config's per-query
        deadline.  The result's :attr:`~repro.core.engine.QueryResult.
        complete` / ``failed_shards`` carry the completeness contract.

        :raises AdmissionRejectedError: no in-flight slot freed up
            within the admission timeout (backpressure).
        :raises ShardUnavailableError: every shard failed and the
            native fallback was disabled or declined.
        """
        return self.execute_many([expression], deadline=deadline)[0]

    def execute_many(
        self,
        expressions: Iterable[Union[str, XPathExpr]],
        *,
        deadline: Optional[float] = None,
    ) -> list[QueryResult]:
        """Run many queries, results in input order.

        The normalized batch surface shared with
        :class:`~repro.core.engine.PPFEngine`: ``deadline`` is a
        wall-clock budget for the whole call, and partial-result
        semantics ride on each result's ``complete``/``failed_shards``.
        The statements are *pipelined*: each shard worker receives one
        request carrying every statement the result cache could not
        answer, and one ladder per shard covers the whole list — a
        retry resends only the statements still unanswered.  The call
        occupies one admission slot."""
        planned = [self._plan(expression) for expression in expressions]
        pending = [plan for plan in planned if plan.result is None]
        if pending:
            if not self._admission.acquire(
                timeout=self.config.admission_timeout
            ):
                raise self._rejected()
            try:
                self._count("queries", len(pending))
                per_shard = _BlockingScatter(self).run(
                    [plan.translation.sql for plan in pending],
                    self._budget(deadline),
                    any(self._hedge_allowed(plan) for plan in pending),
                )
                for position, plan in enumerate(pending):
                    plan.result = self._finish(
                        plan,
                        [
                            per_shard[shard][position]
                            for shard in range(self.store.shard_count)
                        ],
                    )
            finally:
                self._admission.release()
        return [plan.result for plan in planned]

    def frontdoor(self) -> "object":
        """The calling event loop's :class:`~repro.serving.frontdoor.
        AsyncShardedEngine` over this engine (created on first use;
        shares this engine's planner, ladders, caches and stats).
        Must be called from a running loop."""
        # Imported lazily: frontdoor imports this module.
        from repro.serving.frontdoor import AsyncShardedEngine

        loop = asyncio.get_running_loop()
        front = self._frontdoors.get(id(loop))
        if front is None or front._loop is not loop:
            front = AsyncShardedEngine(self)
            self._frontdoors[id(loop)] = front
        return front

    async def execute_async(
        self,
        expression: Union[str, XPathExpr],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Awaitable :meth:`execute` through the calling loop's async
        front door: batched admission, awaitable backpressure, and the
        same ladder driven from the loop instead of a blocked thread.
        See :class:`~repro.serving.frontdoor.AsyncShardedEngine`."""
        return await self.frontdoor().execute(expression, deadline=deadline)

    # -- the halves both drivers share -------------------------------------------

    def _plan(self, expression: Union[str, XPathExpr]) -> _Planned:
        """Front half: translate → empty check → result-cache lookup."""
        translation = self.translate(expression)
        if translation.is_empty:
            return _Planned(
                translation,
                None,
                QueryResult([], translation.projection, served_by="shards"),
            )
        key = self._planner._result_key(expression)
        return _Planned(
            translation,
            key,
            self._planner._result_cache.get(key) if key is not None else None,
        )

    def _budget(self, deadline: Optional[float]) -> Optional[float]:
        return deadline if deadline is not None else self.config.deadline

    def _rejected(self) -> AdmissionRejectedError:
        self._count("rejections")
        return AdmissionRejectedError(
            f"admission queue full: {self.config.max_inflight} queries "
            f"in flight and none finished within "
            f"{self.config.admission_timeout:g}s"
        )

    def _hedge_allowed(self, plan: _Planned) -> bool:
        """Costed hedge gate: a query whose estimated result is below
        ``config.hedge_min_rows`` skips hedged duplicates — statistics
        never change which rows come back, only the duplicate-request
        policy.  Estimate-less translations (no statistics collected)
        hedge as before."""
        estimated = getattr(plan.translation, "estimated_rows", None)
        if estimated is None:
            return True
        return bool(estimated >= self.config.hedge_min_rows)

    def _finish(
        self, plan: _Planned, outcomes: list[ShardOutcome]
    ) -> QueryResult:
        """Back half: merge → cache-or-``partials``, or the last rung
        when every shard failed."""
        translation = plan.translation
        if not any(outcome.ok for outcome in outcomes):
            return self._all_shards_failed(
                translation.expression, translation.projection, outcomes
            )
        result = self._merge(translation, outcomes)
        if result.complete:
            self._planner._cache_result(plan.key, result)
        else:
            self._count("partials")
        return result

    # -- merging and degradation -------------------------------------------------

    def _merge(
        self,
        translation: TranslationResult,
        outcomes: list[ShardOutcome],
    ) -> QueryResult:
        """Remap shard-local rows to global ids through the document
        registry and concatenate the per-document runs in global
        document order.

        A row naming a document the registry does not know means the
        shard file and the manifest disagree (corruption, swapped
        file): that shard's rows are *discarded* and the shard is
        reported failed — wrong attribution must never look like a
        correct answer.  So is a shard whose records are not the
        three (``nodes``) or four columns the projection selects.
        """
        remap = self.store.remap_table()
        failed = {
            outcome.shard for outcome in outcomes if not outcome.ok
        }
        #: (global doc_id, that document's rows) per document run.
        runs: list[tuple[int, list[ResultRow]]] = []
        wants_value = translation.projection != "nodes"
        for outcome in outcomes:
            if not outcome.ok:
                continue
            shard_runs: list[tuple[int, list[ResultRow]]] = []
            try:
                # Shard responses arrive ordered by document, so the
                # registry lookup and id offset are resolved once per
                # document run instead of once per row.
                for local_doc, records in itertools.groupby(
                    outcome.rows, key=operator.itemgetter(1)
                ):
                    entry = remap[(outcome.shard, local_doc)]
                    shard_runs.append(
                        (
                            entry.doc_id,
                            remapped_rows(
                                records,
                                wants_value,
                                entry.base - entry.local_base,
                                entry.doc_id,
                            ),
                        )
                    )
            except KeyError as exc:
                failed.add(outcome.shard)
                outcome.kind = "registry-mismatch"
                outcome.error = (
                    f"shard {outcome.shard} returned rows for local "
                    f"doc {exc.args[0][1]}, unknown to the manifest"
                )
                continue
            except (ValueError, TypeError, IndexError) as exc:
                failed.add(outcome.shard)
                outcome.kind = "malformed-response"
                outcome.error = (
                    f"shard {outcome.shard} returned records that do "
                    f"not fit a {translation.projection!r} projection: "
                    f"{exc}"
                )
                continue
            runs.extend(shard_runs)
        # Every shard ran ``translation.sql`` as one statement, so its
        # runs are as ordered and duplicate-free as the statement says
        # (global ids never collide across shards).
        ordered = merge_document_runs(
            runs,
            ordered=translation.ordered,
            distinct=translation.one_row_per_id,
        )
        return QueryResult(
            ordered,
            translation.projection,
            served_by="shards",
            complete=not failed,
            failed_shards=sorted(failed),
        )

    def _all_shards_failed(
        self,
        expression,
        projection: str,
        failures: list[ShardOutcome],
    ) -> QueryResult:
        """Last rung: every shard failed — answer natively or raise."""
        if self.config.fallback:
            # The planner's fallback machinery evaluates over the
            # store's resident documents and declines (None) when they
            # cannot vouch for the stored data.
            fallback = self._planner._execute_fallback(
                expression, projection
            )
            if fallback is not None:
                self._count("fallbacks")
                return fallback
        detail = "; ".join(
            f"shard {outcome.shard}: {outcome.kind} ({outcome.error})"
            for outcome in failures
        )
        raise ShardUnavailableError(
            f"every shard failed and the native fallback was "
            f"{'unavailable' if self.config.fallback else 'disabled'}: "
            f"{detail}"
        )
