"""Async front door: batched admission, backpressure, cancellation,
deadlines, and oracle equality with the blocking engine."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import AdmissionRejectedError, ShardUnavailableError
from repro.api import EngineConfig
from repro.core.engine import PPFEngine
from repro.schema.inference import infer_schema
from repro.serving.frontdoor import AsyncShardedEngine
from repro.serving.scatter import ShardedEngine
from repro.serving.shards import ShardedStore
from repro.storage.database import Database
from repro.storage.schema_aware import ShreddedStore
from repro.xmltree.parser import parse_document

pytestmark = [
    pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning"),
]

QUERIES = [
    "/shop/item",
    "/shop/item/price/text()",
    "//price",
    "//item[@sku]",
]


def make_docs(count=6):
    return [
        parse_document(
            "<shop>"
            + "".join(
                f"<item sku='d{i}i{j}'><price>{i + j}</price></item>"
                for j in range(4)
            )
            + "</shop>",
            name=f"doc{i}.xml",
        )
        for i in range(count)
    ]


@pytest.fixture()
def corpus(tmp_path):
    docs = make_docs()
    schema = infer_schema(docs)
    single = ShreddedStore.create(
        Database.open(str(tmp_path / "single.db")), schema
    )
    for doc in docs:
        single.load(doc)
    sharded = ShardedStore.create(str(tmp_path / "shards"), schema, shards=3)
    sharded.bulk_load(docs)
    yield single, sharded
    single.db.close()
    sharded.close()


def serve(sharded, **overrides):
    defaults = dict(deadline=10.0, result_cache_size=None)
    defaults.update(overrides)
    return ShardedEngine.serve(
        sharded, config=EngineConfig(replicas=2, **defaults)
    )


def run(coro):
    # Debug mode makes the loop raise on a call from a thread other than
    # its own: a shard completion posted with ``call_soon`` instead of
    # ``call_soon_threadsafe`` is then never delivered.
    return asyncio.run(coro, debug=True)


class TestOracleEquality:
    def test_async_results_identical_to_sync_and_single_store(self, corpus):
        single, sharded = corpus
        oracle = PPFEngine(single)
        engine = serve(sharded)
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                return await asyncio.gather(
                    *(front.execute(q) for q in QUERIES)
                )

            results = run(go())
            for query, result in zip(QUERIES, results):
                expected = oracle.execute(query)
                assert result.served_by == "shards"
                assert result.complete
                assert result.ids == expected.ids
                assert result.values == expected.values
        finally:
            engine.close()

    def test_execute_many_order_and_oracle(self, corpus):
        single, sharded = corpus
        oracle = PPFEngine(single)
        engine = serve(sharded)
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                return await front.execute_many(QUERIES, deadline=10.0)

            results = run(go())
            assert len(results) == len(QUERIES)
            for query, result in zip(QUERIES, results):
                assert result.ids == oracle.execute(query).ids
        finally:
            engine.close()

    def test_stream_yields_in_input_order(self, corpus):
        _, sharded = corpus
        engine = serve(sharded)
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                seen = []
                async for result in front.stream(QUERIES):
                    seen.append(result)
                return seen

            seen = run(go())
            sync = [engine.execute(q) for q in QUERIES]
            assert [r.ids for r in seen] == [r.ids for r in sync]
        finally:
            engine.close()

    def test_sharded_engine_execute_async_entry_point(self, corpus):
        _, sharded = corpus
        engine = serve(sharded)
        try:

            async def go():
                # The per-loop front door is cached and reused.
                first = engine.frontdoor()
                again = engine.frontdoor()
                assert first is again
                return await engine.execute_async(QUERIES[0])

            result = run(go())
            assert result.ids == engine.execute(QUERIES[0]).ids
        finally:
            engine.close()


class TestCoalescing:
    def test_concurrent_queries_share_one_batch_per_shard(self, corpus):
        _, sharded = corpus
        engine = serve(sharded, max_inflight=16, hedge_delay=None)
        try:
            batch_calls = []
            real_batch = engine.runtime.submit_batch

            def counting_batch(shard, sqls, **kwargs):
                batch_calls.append((shard, tuple(sqls)))
                return real_batch(shard, sqls, **kwargs)

            engine.runtime.submit_batch = counting_batch

            async def go():
                front = AsyncShardedEngine(engine)
                return await asyncio.gather(
                    *(front.execute(q) for q in QUERIES)
                )

            results = run(go())
            assert all(r.complete for r in results)
            # One submit_batch per shard for the whole burst, each
            # carrying all four statements; nothing was resent.
            assert len(batch_calls) == sharded.shard_count
            assert all(len(sqls) == len(QUERIES) for _, sqls in batch_calls)
        finally:
            engine.runtime.submit_batch = real_batch
            engine.close()

    def test_sequential_queries_get_their_own_ticks(self, corpus):
        _, sharded = corpus
        engine = serve(sharded, hedge_delay=None)
        try:
            batch_calls = []
            real_batch = engine.runtime.submit_batch

            def counting_batch(shard, sqls, **kwargs):
                batch_calls.append(shard)
                return real_batch(shard, sqls, **kwargs)

            engine.runtime.submit_batch = counting_batch

            async def go():
                front = AsyncShardedEngine(engine)
                await front.execute(QUERIES[0])
                await front.execute(QUERIES[1])

            run(go())
            # Two awaited-in-sequence queries cannot coalesce: one
            # batch per shard per query.
            assert len(batch_calls) == 2 * sharded.shard_count
        finally:
            engine.runtime.submit_batch = real_batch
            engine.close()


class TestBackpressure:
    def test_admission_timeout_rejects_when_full(self, corpus):
        _, sharded = corpus
        engine = serve(sharded, max_inflight=1, admission_timeout=0.05)
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                # Occupy the only slot, then submit.
                await front._admission.acquire()
                try:
                    with pytest.raises(AdmissionRejectedError):
                        await front.execute(QUERIES[0])
                finally:
                    front._admission.release()

            before = engine.stats["rejections"]
            run(go())
            assert engine.stats["rejections"] == before + 1
        finally:
            engine.close()

    def test_admission_timeout_none_waits_for_slots(self, corpus):
        _, sharded = corpus
        engine = serve(sharded, max_inflight=1, admission_timeout=None)
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                return await asyncio.gather(
                    *(front.execute(q) for q in QUERIES * 2)
                )

            results = run(go())
            assert len(results) == 2 * len(QUERIES)
            assert all(r.complete for r in results)
            assert engine.stats["rejections"] == 0
        finally:
            engine.close()

    def test_high_concurrency_single_thread(self, corpus):
        """A few hundred concurrently-submitted queries on one loop,
        bounded by max_inflight slots, all correct (the 1000-query
        version runs in the benchmark harness)."""
        _, sharded = corpus
        engine = serve(sharded, max_inflight=16, admission_timeout=None)
        try:
            expected = {q: engine.execute(q).ids for q in QUERIES}

            async def go():
                front = AsyncShardedEngine(engine)
                queries = [QUERIES[i % len(QUERIES)] for i in range(240)]
                results = await asyncio.gather(
                    *(front.execute(q) for q in queries)
                )
                return queries, results

            queries, results = run(go())
            for query, result in zip(queries, results):
                assert result.complete
                assert result.ids == expected[query]
        finally:
            engine.close()


class TestCancellation:
    def test_cancelled_awaits_release_slots_and_drain_pending(
        self, corpus
    ):
        _, sharded = corpus
        engine = serve(sharded, max_inflight=2, admission_timeout=None)
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                tasks = [
                    asyncio.ensure_future(front.execute("//price"))
                    for _ in range(8)
                ]
                await asyncio.sleep(0.01)
                for task in tasks:
                    task.cancel()
                outcomes = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                assert all(
                    isinstance(o, (asyncio.CancelledError, Exception))
                    or o.complete
                    for o in outcomes
                )
                # Every admission slot must be back: a full round of
                # fresh queries completes promptly.
                fresh = await asyncio.wait_for(
                    asyncio.gather(
                        *(front.execute(q) for q in QUERIES)
                    ),
                    timeout=10,
                )
                assert all(r.complete for r in fresh)
                # In-flight requests (hedges included) were abandoned:
                # the supervisor's pending table drains.
                for _ in range(50):
                    if not engine.runtime._pending:
                        break
                    await asyncio.sleep(0.05)
                assert not engine.runtime._pending

            run(go())
        finally:
            engine.close()

    def test_stream_early_close_cancels_outstanding(self, corpus):
        _, sharded = corpus
        engine = serve(sharded, admission_timeout=None)
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                iterator = front.stream(QUERIES * 3)
                first = await iterator.__anext__()
                assert first.complete
                await iterator.aclose()
                for _ in range(50):
                    if not engine.runtime._pending:
                        break
                    await asyncio.sleep(0.05)
                assert not engine.runtime._pending

            run(go())
        finally:
            engine.close()


class TestDeadline:
    def test_expired_deadline_raises_typed_error_without_fallback(
        self, corpus
    ):
        _, sharded = corpus
        engine = serve(sharded, fallback=False)
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                with pytest.raises(ShardUnavailableError):
                    await front.execute("//price", deadline=0.000001)

            run(go())
        finally:
            engine.close()

    def test_expired_deadline_served_by_native_fallback(self, corpus):
        _, sharded = corpus
        engine = serve(sharded, fallback=True)
        finished_on = []
        finish = engine._finish

        def recording_finish(plan, outcomes):
            finished_on.append(threading.get_ident())
            return finish(plan, outcomes)

        engine._finish = recording_finish
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                result = await front.execute("//price", deadline=0.000001)
                return result, threading.get_ident()

            result, loop_thread = run(go())
            # The store was built in-process, so its documents are
            # resident and the last ladder rung answers natively — on an
            # executor thread, never on the loop it would block.
            assert result.served_by == "native"
            assert finished_on and loop_thread not in finished_on
            assert result.ids == engine.execute("//price").ids
        finally:
            engine.close()


class TestOneCallForm:
    """``execute_many(expressions, *, deadline=None)`` is the only call
    form on every engine: the ``max_workers`` / positional shims
    deprecated in PR 8 are gone, and so is ``concurrency`` — no engine
    fans a batch out over threads."""

    @pytest.mark.parametrize("keyword", ["concurrency", "max_workers"])
    @pytest.mark.parametrize("family", ["ppf", "sharded", "async"])
    def test_fan_out_keywords_rejected(self, corpus, family, keyword):
        single, sharded = corpus
        if family == "ppf":
            with pytest.raises(TypeError):
                PPFEngine(single).execute_many(QUERIES, **{keyword: 2})
            return
        engine = serve(sharded)
        try:
            if family == "sharded":
                with pytest.raises(TypeError):
                    engine.execute_many(QUERIES, **{keyword: 2})
                return

            async def go():
                front = AsyncShardedEngine(engine)
                with pytest.raises(TypeError):
                    await front.execute_many(QUERIES, **{keyword: 2})

            run(go())
        finally:
            engine.close()

    def test_async_execute_many_positional_rejected(self, corpus):
        _, sharded = corpus
        engine = serve(sharded)
        try:

            async def go():
                front = AsyncShardedEngine(engine)
                with pytest.raises(TypeError):
                    await front.execute_many(QUERIES, 3)

            run(go())
        finally:
            engine.close()

    def test_sync_execute_many_max_workers_kwarg_rejected(self, corpus):
        _, sharded = corpus
        engine = serve(sharded)
        try:
            with pytest.raises(TypeError):
                engine.execute_many(QUERIES, max_workers=3)
        finally:
            engine.close()

    def test_ppf_execute_many_positional_rejected(self, corpus):
        single, _ = corpus
        engine = PPFEngine(single)
        with pytest.raises(TypeError):
            engine.execute_many(QUERIES, 2)
        assert len(engine.execute_many(QUERIES)) == len(QUERIES)


class TestSingleStoreAsync:
    def test_ppf_execute_async_matches_sync(self, tmp_path):
        # execute_async runs on an executor thread, so the connection
        # must be shareable across threads.
        docs = make_docs()
        db = Database.open(
            str(tmp_path / "async.db"), check_same_thread=False
        )
        single = ShreddedStore.create(db, infer_schema(docs))
        for doc in docs:
            single.load(doc)
        engine = PPFEngine(single)
        try:

            async def go():
                return await asyncio.gather(
                    *(engine.execute_async(q) for q in QUERIES)
                )

            results = run(go())
            for query, result in zip(QUERIES, results):
                assert result.ids == engine.execute(query).ids
                assert result.served_by == "sql"
        finally:
            engine.close()
            db.close()
