"""User-facing query engines.

Every engine exposes the same two calls:

* ``execute(xpath)``  → a :class:`QueryResult` (element rows in document
  order, or projected text/attribute values),
* ``explain(xpath)``  → the SQL the engine would run (empty for the
  native evaluator).

:class:`PPFEngine` is the paper's system (schema-aware mapping +
PPF-based translation); :class:`EdgePPFEngine` is the Section 5.1
schema-oblivious variant sharing the identical translation algorithm.

No engine here starts threads over a query: one XPath is one SQL
statement, and the forked shard fleet (:mod:`repro.serving.supervisor`)
is the only parallelism in the tree.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from collections import OrderedDict, namedtuple
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Optional, Union

from repro.core.adapters import EdgeAdapter, SchemaAwareAdapter

# The result types live in repro.core.results; they are re-exported
# here because this module is where callers have always found them.
from repro.core.results import (  # noqa: F401
    SERVED_BY,
    QueryResult,
    ResultRow,
    ServedBy,
    in_document_order,
    rows_from_records,
)
from repro.core.translator import (
    PlanTemplate,
    PPFTranslator,
    TranslationResult,
)
from repro.errors import (
    QueryTimeoutError,
    ReproError,
    RetryExhaustedError,
    StorageError,
)
from repro.plan.nodes import QueryPlan, describe_plan

# Module-object binding (see translator.py): repro.plan.passes imports
# core submodules, so it may still be mid-initialization when this
# module loads; defer attribute access to runtime.
import repro.plan.passes as _plan_passes

from repro.serving.cache import ResultCache
from repro.serving.pool import ConnectionPool
from repro.sqlgen.ast import SelectStatement, UnionStatement
from repro.sqlgen.dialect import AnsiDialect
from repro.sqlgen.render import render_statement
from repro.storage.database import Params
from repro.storage.edge import EdgeStore
from repro.storage.schema_aware import ShreddedStore
from repro.xpath.ast import XPathExpr
from repro.xpath.lexer import shape_of

#: Hit/miss statistics of the per-engine translation cache.
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])

#: Rows :meth:`SQLXPathEngine.iterate` fetches and wraps at a time.
_ITERATE_CHUNK = 256

#: Times :meth:`SQLXPathEngine.execute` starts over because the store's
#: generation moved under a running query, before it gives up.
_MUTATION_RETRIES = 3


class ExplainReport(str):
    """``explain()``'s return value: the SQL text (it *is* a ``str``,
    keeping the historical contract), enriched with the optimized
    logical plan and per-pass diagnostics.

    Attributes: ``plan`` (the :class:`~repro.plan.nodes.QueryPlan`),
    ``pass_reports`` (one :class:`~repro.plan.passes.PassReport` per
    pass run), ``fired`` (names of passes that changed the plan), and
    ``stats_before`` / ``stats_after`` (plan statistics around the
    pipeline).

    Cost-model attributes (``explain --costs``): ``estimated_rows`` /
    ``branch_estimates`` carry the cardinality estimates computed from
    the store's path summary (``None`` without collected statistics),
    ``stats_version`` the ``(epoch, generation)`` of the summary the
    plan was made under, ``held_version`` the latest one it was found
    still exact under — they differ on a plan that has outlived a
    mutation, whose join order and estimates are then those of
    ``stats_version``.  ``actual_rows`` / ``branch_actual`` stay ``None`` until
    :meth:`SQLXPathEngine.explain_costs` executes the statement and
    fills them in (``branch_actual`` counts raw per-branch rows before
    the union-level dedup; ``actual_rows`` is the final result size).
    """

    plan: Optional[QueryPlan]
    pass_reports: list[_plan_passes.PassReport]
    fired: list[str]
    stats_before: Optional[dict[str, int]]
    stats_after: Optional[dict[str, int]]
    estimated_rows: Optional[float]
    branch_estimates: Optional[tuple[float, ...]]
    stats_version: Optional[tuple[int, int]]
    held_version: Optional[tuple[int, int]]
    actual_rows: Optional[int]
    branch_actual: Optional[tuple[int, ...]]

    @classmethod
    def from_translation(
        cls, translation: TranslationResult
    ) -> "ExplainReport":
        report = cls(translation.sql)
        report.plan = translation.plan
        report.pass_reports = list(translation.pass_reports)
        report.fired = translation.fired_passes()
        report.stats_before = translation.plan_stats_before
        report.stats_after = translation.plan_stats_after
        report.estimated_rows = translation.estimated_rows
        report.branch_estimates = translation.branch_estimates
        report.stats_version = translation.stats_version
        report.held_version = translation.held_version
        report.actual_rows = None
        report.branch_actual = None
        return report

    def plan_text(self) -> str:
        """Indented rendering of the optimized plan tree."""
        if self.plan is None:
            return "(no plan available)"
        return describe_plan(self.plan)

    def cost_lines(self) -> list[str]:
        """Human-readable estimated-vs-actual lines for the CLI."""
        if self.estimated_rows is None:
            return ["(no statistics collected; run `repro analyze`)"]
        planned = "planned under statistics epoch {} at generation {}".format(
            *self.stats_version
        )
        if self.held_version != self.stats_version:
            planned += (
                "; its summary reads last held under epoch {} at "
                "generation {}".format(*self.held_version)
            )
        lines = [planned]
        total_actual = (
            "?" if self.actual_rows is None else str(self.actual_rows)
        )
        lines.append(
            f"total: estimated ~{self.estimated_rows:.1f} rows, "
            f"actual {total_actual}"
        )
        estimates = self.branch_estimates or ()
        for index, estimate in enumerate(estimates):
            actual = (
                "?"
                if self.branch_actual is None
                or index >= len(self.branch_actual)
                else str(self.branch_actual[index])
            )
            lines.append(
                f"branch {index}: estimated ~{estimate:.1f} rows, "
                f"actual {actual}"
            )
        return lines


class SQLXPathEngine:
    """Base engine: translate, execute, wrap rows.

    Two cache tiers sit in front of SQLite:

    * **translations** are looked up twice, both with true LRU eviction:
      by expression string — a repeated query skips translation
      entirely — and, failing that, by *shape*: the expression with its
      literals lifted out (:func:`repro.xpath.lexer.shape_of`).  A
      string of a known shape binds its literals to the shape's
      :class:`~repro.core.translator.PlanTemplate` as SQL parameters
      instead of being translated, so a stream of never-repeating
      strings from a handful of query forms costs a handful of
      translations (and of SQLite statement compilations).  A cached
      translation is served while what it read from the path summary
      still holds (:meth:`translate`), so a mutation retires only the
      plans it invalidated;
    * **results** are cached in a bounded LRU keyed by ``(xpath, store
      generation)``.  The store bumps its generation on every mutation,
      so a hit is always consistent with the current data and never
      touches SQLite at all.  Introspect with :meth:`result_cache_info`.

    The engine itself never fans a query out over threads: one XPath
    is one statement, handed whole to SQLite (Section 4.4), and the only
    parallelism in the tree is the forked shard fleet of
    :mod:`repro.serving.supervisor`.  Callers that bring their *own*
    threads attach a :class:`~repro.serving.ConnectionPool`
    (:meth:`attach_pool`): every :meth:`execute` then checks a read-only
    pooled connection out for the duration of its statement, which makes
    the engine thread-safe and gives each reader a committed snapshot
    beside a live writer.  That is a safety device, not a speed-up
    (EXPERIMENTS.md "PR 18").  Without a pool, execution uses the
    store's own connection, which one thread at a time may use.

    With ``fallback=True``, :meth:`execute` degrades gracefully: when
    SQL execution times out (:class:`QueryTimeoutError`) or exhausts its
    transient-error retries (:class:`RetryExhaustedError`), the query is
    re-evaluated by the native in-memory engine over the store's
    resident documents, and the result reports ``served_by ==
    "native"``.  The fallback declines (and the original error
    propagates) when the store cannot guarantee its in-memory documents
    mirror the database.
    """

    _CACHE_LIMIT = 256
    _TEMPLATE_LIMIT = 256

    def __init__(self, store, translator: PPFTranslator,
                 fallback: bool = False,
                 result_cache_size: int | None = 128,
                 pool: ConnectionPool | None = None,
                 verify_plans: bool = False):
        self.store = store
        self.translator = translator
        self.fallback = fallback
        #: Debug gate: when set, every fresh translation is checked by
        #: the static plan verifier and an invariant violation raises
        #: :class:`~repro.errors.PlanVerificationError` instead of
        #: running bad SQL.
        self.verify_plans = verify_plans
        self._translation_cache: OrderedDict[tuple, TranslationResult] = (
            OrderedDict()
        )
        #: ``(shape key, translator fingerprint)`` → the shape's
        #: template, or ``None`` for a shape known not to be liftable.
        self._templates: OrderedDict[tuple, Optional[PlanTemplate]] = (
            OrderedDict()
        )
        self._cache_hits = 0
        self._cache_misses = 0
        #: Guards the translation cache (shared by the caller's threads).
        self._lock = threading.Lock()
        self._result_cache = (
            ResultCache(result_cache_size) if result_cache_size else None
        )
        self._pool = pool
        #: The one thread behind :meth:`execute_async` (lazy).
        self._async_executor: ThreadPoolExecutor | None = None
        #: Cleanup hooks run by :meth:`close` — :func:`repro.connect`
        #: registers the store/database it opened here, so closing the
        #: engine releases everything it owns.
        self._on_close: list = []

    # -- connection pool ---------------------------------------------------------

    @property
    def pool(self) -> ConnectionPool | None:
        """The attached read-serving pool, if any."""
        return self._pool

    def attach_pool(self, pool: ConnectionPool) -> None:
        """Serve queries from ``pool`` (read-only connections over the
        store's file) instead of the store's own connection.  This is
        what makes :meth:`execute` safe to call from many threads."""
        self._pool = pool

    def detach_pool(self) -> None:
        """Go back to executing on the store's own connection."""
        self._pool = None

    def translate(self, expression: Union[str, XPathExpr]) -> TranslationResult:
        """Translate without executing (cached for string expressions).

        First lookup: the exact string.  Second: its shape — a hit
        binds the string's literals to the cached template and shares
        everything else with it.  Only a shape never seen before (or
        one that is not liftable) is translated.

        Both keys carry the translator fingerprint, which says whether
        the store hands out a path summary but not which.  What a plan
        took from the summary it was made under travels with it
        (:attr:`TranslationResult.summary_reads`), and a cached entry of
        either tier is served while those reads hold under the store's
        current summary (:meth:`_holds`) — so a mutation retires the
        plans it invalidated, not every plan.  A plan that survives
        keeps the join order and estimates of the summary it was
        planned under (its ``stats_version``): statistics never change
        what a query returns, only how it runs."""
        if not isinstance(expression, str):
            translated = self.translator.translate_inline(expression)
            if self.verify_plans:
                self._verify_translation(translated)
            return translated
        fingerprint = self.translator.fingerprint
        key = (expression, fingerprint)
        with self._lock:
            cached = self._translation_cache.get(key)
            if cached is not None and self._holds(cached):
                self._cache_hits += 1
                self._translation_cache.move_to_end(key)
                return cached
        translated, hit = self._translate_by_shape(expression, fingerprint)
        with self._lock:
            if hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
            self._translation_cache[key] = translated
            self._translation_cache.move_to_end(key)
            while len(self._translation_cache) > self._CACHE_LIMIT:
                self._translation_cache.popitem(last=False)
        return translated

    def _holds(self, translation: TranslationResult) -> bool:
        """Whether a cached translation — an exact-string entry or a
        template's — is exact for the store as it stands.

        A plan that read nothing from the path summary is right in
        every state.  One that did is right under any exact summary its
        reads hold under, and is stamped with the version of the last
        one found so, which makes the lookup between two mutations one
        comparison; it is never served while the store hands out no
        summary, because nothing then vouches for its reads."""
        reads = translation.summary_reads
        if not reads:
            return True
        summary = getattr(self.translator.adapter, "path_summary", None)
        if summary is None:
            return False
        if translation.held_version != summary.version:
            if not all(read.holds(summary) for read in reads):
                return False
            translation.held_version = summary.version
        return True

    def _translate_by_shape(
        self, expression: str, fingerprint: tuple
    ) -> tuple[TranslationResult, bool]:
        """The translation of a string the exact-string cache missed,
        and whether a cached template supplied it."""
        # Translation runs outside the lock: it only reads the schema
        # and the store's current summary, and two threads translating
        # the same novel shape just produce equal templates.
        shape = shape_of(expression)
        if shape is None:  # does not tokenize: raises, saying where
            return self.translator.translate_inline(expression), False
        key = (shape.key, fingerprint)
        with self._lock:
            known = key in self._templates
            template = self._templates.get(key)
            if template is not None and not self._holds(template.translation):
                known = False  # retired: translated again, replaced below
            if known:
                self._templates.move_to_end(key)
        if not known:
            template = self.translator.template(expression, shape)
            if template is not None and self.verify_plans:
                self._verify_translation(template.translation)
            with self._lock:
                self._templates[key] = template
                self._templates.move_to_end(key)
                while len(self._templates) > self._TEMPLATE_LIMIT:
                    self._templates.popitem(last=False)
        if template is not None:
            return template.bind(expression, shape.values), known
        translated = self.translator.translate_inline(expression)
        if self.verify_plans:
            self._verify_translation(translated)
        return translated, False

    def _verify_translation(self, translation: TranslationResult) -> None:
        """Run the static plan verifier over a fresh translation
        (``verify_plans=True`` engines only); raise on any violation."""
        # Imported lazily: repro.analysis imports the plan and core
        # layers, so a module-level import would cycle.
        from repro.analysis.verifier import PlanVerifier
        from repro.errors import PlanVerificationError

        adapter = self.translator.adapter
        report = PlanVerifier(
            marking=getattr(adapter, "marking", None),
            summary=getattr(adapter, "path_summary", None),
        ).verify(
            translation.plan,
            translation.pass_reports,
            subject=translation.expression,
        )
        if not report.ok:
            raise PlanVerificationError(
                "translated plan violates static invariants:\n"
                + report.render_text(),
                report=report,
            )

    def cache_info(self) -> CacheInfo:
        """Counters of the translation cache: ``hits`` are lookups
        answered without translating (by the exact string, or by
        binding to a cached template), ``misses`` the full translations
        made; ``maxsize`` / ``currsize`` describe the exact-string
        tier."""
        with self._lock:
            return CacheInfo(
                self._cache_hits,
                self._cache_misses,
                self._CACHE_LIMIT,
                len(self._translation_cache),
            )

    def cache_clear(self) -> None:
        """Drop all cached translations and reset the counters."""
        with self._lock:
            self._translation_cache.clear()
            self._templates.clear()
            self._cache_hits = 0
            self._cache_misses = 0

    # -- result cache ------------------------------------------------------------

    def result_cache_info(self) -> CacheInfo:
        """Hit/miss counters of the result cache (all zeros when the
        engine was built with ``result_cache_size=None``)."""
        if self._result_cache is None:
            return CacheInfo(0, 0, 0, 0)
        return CacheInfo(*self._result_cache.cache_info())

    def result_cache_clear(self) -> None:
        """Drop every cached result and reset the counters."""
        if self._result_cache is not None:
            self._result_cache.clear()

    def _result_key(self, expression) -> Optional[tuple]:
        """Cache key for ``expression`` at the store's current
        generation, or ``None`` when result caching does not apply
        (non-string expression, caching disabled, or a store with no
        generation counter)."""
        if self._result_cache is None or not isinstance(expression, str):
            return None
        generation = getattr(self.store, "generation", None)
        if generation is None:
            return None
        # The translator fingerprint keys results on the active dialect
        # and optimizer-pass set, so engines with different pass
        # configurations sharing a cache never serve each other's rows.
        return (expression, generation, self.translator.fingerprint)

    def _cache_result(self, key: Optional[tuple], result: "QueryResult") -> None:
        """Insert ``result`` unless the store mutated while the query
        ran (the rows then belong to a newer generation than ``key``
        claims — recompute on the next call instead of guessing)."""
        if key is None:
            return
        if getattr(self.store, "generation", None) == key[1]:
            self._result_cache.put(key, result)

    def explain(self, expression: Union[str, XPathExpr]) -> ExplainReport:
        """The SQL text for ``expression``, as an
        :class:`ExplainReport` also carrying the optimized logical
        plan, which optimizer passes fired, and plan statistics before
        and after the pass pipeline."""
        return ExplainReport.from_translation(self.translate(expression))

    def explain_costs(
        self, expression: Union[str, XPathExpr]
    ) -> ExplainReport:
        """Like :meth:`explain`, but also *executes* the statement —
        branch by branch for a UNION — and fills in ``actual_rows`` /
        ``branch_actual`` next to the cost model's estimates, so
        estimation error is visible per plan node."""
        translation = self.translate(expression)
        report = ExplainReport.from_translation(translation)
        if translation.is_empty:
            report.actual_rows = 0
            report.branch_actual = ()
            return report
        statement = translation.statement
        branches = (
            list(statement.branches)
            if isinstance(statement, UnionStatement)
            else [statement]
        )
        raws = [
            self._run_bound(translation, self._run_sql, branch)
            for branch in branches
        ]
        report.branch_actual = tuple(len(raw) for raw in raws)
        # Branches are rendered without the union-level ORDER BY, so
        # their concatenation vouches for neither order nor uniqueness.
        merged = in_document_order(
            rows_from_records(
                [record for raw in raws for record in raw],
                translation.projection != "nodes",
            ),
            ordered=False,
            distinct=False,
        )
        report.actual_rows = len(merged)
        return report

    def query_plan(self, expression: Union[str, XPathExpr]) -> list[str]:
        """SQLite's EXPLAIN QUERY PLAN detail for the translated SQL
        (empty for statically-empty translations)."""
        translation = self.translate(expression)
        if translation.is_empty:
            return []
        return self._run_bound(translation, self.store.db.query_plan)

    def iterate(self, expression: Union[str, XPathExpr]):
        """Stream result rows without materializing the whole set.

        Rows arrive as the statement orders them — document order,
        since a UNION carries the ``ORDER BY`` at union level — and
        without :meth:`execute`'s one-row-per-id pass over a UNION.
        """
        translation = self.translate(expression)
        if translation.is_empty:
            return
        cursor = self._run_bound(translation, self.store.db.execute)
        wants_value = translation.projection != "nodes"
        while True:
            records = cursor.fetchmany(_ITERATE_CHUNK)
            if not records:
                return
            yield from rows_from_records(records, wants_value)

    @staticmethod
    def _run_bound(
        translation: TranslationResult,
        run,
        statement: Optional[SelectStatement] = None,
    ):
        """``run(sql, parameters)`` for ``translation`` — for one branch
        ``statement`` of it when given, for all of it otherwise: the
        one place the parametrised text meets its values.

        A :class:`~repro.errors.StorageError` on the way out (timeout,
        row cap, retries exhausted, a wrapped SQLite error) is restated
        with the literals inline: what failed is something the user can
        paste into ``sqlite3``, not ``:v0`` with the value lost."""
        parameters = translation.parameters
        sql = (
            translation.parametrised_sql
            if statement is None
            else render_statement(statement)
        )
        if not parameters:
            return run(sql)
        try:
            return run(sql, parameters)
        except StorageError as exc:
            if exc.sql:
                inline = (
                    translation.sql
                    if statement is None
                    else render_statement(statement, parameters=parameters)
                )
                exc.restate(exc.sql.replace(sql, inline))
            raise

    @staticmethod
    def _strictest(*limits: "Optional[float]") -> Optional[float]:
        """The tightest of several optional limits (``None`` = none)."""
        present = [limit for limit in limits if limit is not None]
        return min(present) if present else None

    def _run_sql(
        self,
        sql: str,
        parameters: Params = (),
        deadline: Optional[float] = None,
    ) -> list[tuple]:
        """Run one statement under the resilience guards — on a pooled
        read-only connection when a pool is attached, on the store's own
        connection otherwise.

        The store policy's ``query_timeout`` / ``max_rows`` are enforced
        on *every* path: a pooled connection runs under the strictest of
        its own policy and the store's, so attaching a pool built
        without limits (``ConnectionPool(path)`` defaults to
        :data:`~repro.resilience.DEFAULT_POLICY`) can never silently
        drop the limits ``execute`` would have applied.  ``deadline``
        (seconds of remaining budget) tightens the wall-clock limit
        further, never loosens it.
        """
        store_policy = self.store.db.policy
        pool = self._pool
        if pool is not None:
            with pool.acquire() as db:
                return db.query(
                    sql,
                    parameters,
                    timeout=self._strictest(
                        store_policy.query_timeout,
                        db.policy.query_timeout,
                        deadline,
                    ),
                    max_rows=self._strictest(
                        store_policy.max_rows, db.policy.max_rows
                    ),
                )
        if deadline is not None:
            return self.store.db.query(
                sql,
                parameters,
                timeout=self._strictest(
                    store_policy.query_timeout, deadline
                ),
                max_rows=store_policy.max_rows,
            )
        return self.store.db.guarded_query(sql, parameters)

    def execute(
        self,
        expression: Union[str, XPathExpr],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Translate and run ``expression`` against the store.

        Runs under the connection's resilience policy (query timeout /
        row cap); ``deadline`` (seconds) tightens the wall-clock budget
        further.  With :attr:`fallback` enabled, a timed-out or
        retry-exhausted SQL execution is answered by the native
        evaluator instead (``result.served_by == "native"``).  A result
        cached for the store's current generation is returned without
        touching SQLite.  When the store mutates between translation
        and the last row fetched, the query is translated and run again;
        a store that will not hold still raises :class:`StorageError`
        rather than answer with one state's plan over another's rows.
        """
        for _ in range(_MUTATION_RETRIES + 1):
            # A translation bakes in what the store held when it was
            # made (the summary's path list); rows fetched after a
            # mutation committed belong to another state, and the two
            # together are an answer no state of the store ever had.
            generation = getattr(self.store, "generation", None)
            translation = self.translate(expression)
            if translation.is_empty:
                return QueryResult([], translation.projection)
            key = self._result_key(expression)
            if key is not None:
                cached = self._result_cache.get(key)
                if cached is not None:
                    return cached
            try:
                raw = self._run_bound(
                    translation,
                    functools.partial(self._run_sql, deadline=deadline),
                )
            except (QueryTimeoutError, RetryExhaustedError):
                if not self.fallback:
                    raise
                fallback_result = self._execute_fallback(
                    expression, translation.projection
                )
                if fallback_result is None:
                    raise
                return fallback_result
            if getattr(self.store, "generation", None) == generation:
                break
        else:
            raise StorageError(
                f"the store kept mutating while {str(expression)!r} ran "
                f"({_MUTATION_RETRIES + 1} attempts); no consistent answer"
            )
        # The statement's own ORDER BY / DISTINCT stand, except that a
        # UNION removes duplicate *rows* and a result holds one row per
        # *id* (translation.one_row_per_id).
        result = QueryResult(
            in_document_order(
                rows_from_records(raw, translation.projection != "nodes"),
                ordered=translation.ordered,
                distinct=translation.one_row_per_id,
            ),
            translation.projection,
        )
        self._cache_result(key, result)
        return result

    def execute_many(
        self,
        expressions: Iterable[Union[str, XPathExpr]],
        *,
        deadline: Optional[float] = None,
    ) -> list[QueryResult]:
        """Run many independent queries one after another, results in
        input order.

        The normalized batch surface shared with
        :class:`~repro.serving.scatter.ShardedEngine`: ``deadline`` is a
        wall-clock budget for the *whole call* — queries started after
        it expires fail like any per-query timeout (fallback-answered
        when enabled, raised otherwise).
        """
        if deadline is None:
            return [self.execute(expression) for expression in expressions]
        expiry = time.monotonic() + deadline
        return [
            self.execute(
                expression,
                deadline=max(expiry - time.monotonic(), 0.001),
            )
            for expression in expressions
        ]

    async def execute_async(
        self,
        expression: Union[str, XPathExpr],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Awaitable :meth:`execute` for asyncio callers.

        Single-store execution is CPU/SQLite-bound, so the call runs on
        the engine's one executor thread — concurrent awaits queue
        behind each other, and only that thread ever touches the
        connection; the coroutine merely awaits its completion.
        Cancelling the await abandons the *wait*, not the underlying
        statement — the resilience policy's timeout still bounds it.
        """
        loop = asyncio.get_running_loop()
        executor = self._async_executor
        if executor is None:
            with self._lock:
                executor = self._async_executor
                if executor is None:
                    executor = ThreadPoolExecutor(
                        max_workers=1,
                        thread_name_prefix="repro-async",
                    )
                    self._async_executor = executor
        return await loop.run_in_executor(
            executor,
            functools.partial(self.execute, expression, deadline=deadline),
        )

    def close(self) -> None:
        """Release engine-owned resources (idempotent).

        Shuts down the :meth:`execute_async` thread and runs any
        cleanup hooks registered by :func:`repro.connect` (the store /
        database it opened on the caller's behalf).  The engine object
        must not be used afterwards.
        """
        executor, self._async_executor = self._async_executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        hooks, self._on_close = list(self._on_close), []
        for hook in reversed(hooks):
            hook()

    def __enter__(self) -> "SQLXPathEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- graceful degradation ---------------------------------------------------

    def _execute_fallback(
        self, expression: Union[str, XPathExpr], projection: str
    ) -> Optional[QueryResult]:
        """Answer ``expression`` with the native evaluator, or ``None``
        when the store's in-memory documents cannot vouch for the stored
        data (partially resident or modified since loading)."""
        resident = getattr(self.store, "resident_documents", None)
        documents = resident() if resident is not None else None
        if not documents:
            return None
        # Imported lazily: repro.baselines pulls in the SQL baselines,
        # which would cycle back into repro.core at import time.
        from repro.baselines.native import NativeEngine
        from repro.dewey import encode
        from repro.xmltree.nodes import AttributeNode, ElementNode, TextNode

        rows: list[ResultRow] = []
        for doc_id, (document, base) in documents.items():
            try:
                nodes = NativeEngine(document).execute(expression)
            except ReproError:
                return None
            for node in nodes:
                if isinstance(node, ElementNode):
                    owner, value = node, None
                elif isinstance(node, TextNode):
                    owner, value = node.parent, node.value
                elif isinstance(node, AttributeNode):
                    owner, value = node.owner, node.value
                else:  # pragma: no cover - defensive
                    return None
                rows.append(
                    ResultRow(
                        base + owner.node_id,
                        doc_id,
                        encode(owner.dewey),
                        value=value,
                    )
                )
        return QueryResult(
            in_document_order(rows, ordered=False, distinct=False),
            projection,
            served_by="native",
        )


class PPFEngine(SQLXPathEngine):
    """PPF-based processing over the schema-aware mapping (the paper's
    system).

    :param store: a loaded :class:`ShreddedStore`.
    :param path_filter_optimization: Section 4.5 — omit provably
        redundant `Paths` joins (the paper's default).
    :param prefer_fk_joins: Section 4.2 — foreign-key equijoins for
        single-step child/parent PPFs (the paper's default).
    :param fallback: degrade to the native evaluator when SQL execution
        times out or exhausts its retries (requires the store's
        documents to be resident in memory).
    :param result_cache_size: entries in the generation-keyed result
        cache (``None`` disables it).
    :param pool: serve queries from this read-only connection pool
        (equivalent to calling :meth:`attach_pool` afterwards) — for
        callers that query from several threads.
    :param passes: explicit optimizer-pass selection (names from
        :data:`repro.plan.passes.PASSES`, run in the given order);
        ``None`` uses the default pipeline, honouring
        ``path_filter_optimization``.
    :param dialect: SQL dialect to lower plans through (default:
        SQLite).
    :param verify_plans: debug gate — statically verify every fresh
        translation and raise
        :class:`~repro.errors.PlanVerificationError` on violations.
    """

    def __init__(
        self,
        store: ShreddedStore,
        path_filter_optimization: bool = True,
        prefer_fk_joins: bool = True,
        fallback: bool = False,
        result_cache_size: int | None = 128,
        pool: ConnectionPool | None = None,
        passes: "Optional[tuple[str, ...] | list[str]]" = None,
        dialect: Optional[AnsiDialect] = None,
        verify_plans: bool = False,
    ):
        adapter = SchemaAwareAdapter(
            store, path_filter_optimization=path_filter_optimization
        )
        super().__init__(
            store,
            PPFTranslator(
                adapter,
                prefer_fk_joins=prefer_fk_joins,
                passes=passes,
                dialect=dialect,
            ),
            fallback=fallback,
            result_cache_size=result_cache_size,
            pool=pool,
            verify_plans=verify_plans,
        )


class EdgePPFEngine(SQLXPathEngine):
    """PPF-based processing over the schema-oblivious Edge mapping
    (the `Edge-like PPF` competitor of Figures 3–4)."""

    def __init__(
        self,
        store: EdgeStore,
        prefer_fk_joins: bool = True,
        fallback: bool = False,
        result_cache_size: int | None = 128,
        pool: ConnectionPool | None = None,
        passes: "Optional[tuple[str, ...] | list[str]]" = None,
        dialect: Optional[AnsiDialect] = None,
        verify_plans: bool = False,
    ):
        adapter = EdgeAdapter(store)
        super().__init__(
            store,
            PPFTranslator(
                adapter,
                prefer_fk_joins=prefer_fk_joins,
                passes=passes,
                dialect=dialect,
            ),
            fallback=fallback,
            result_cache_size=result_cache_size,
            pool=pool,
            verify_plans=verify_plans,
        )
