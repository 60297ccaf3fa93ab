"""ShardedEngine: oracle equivalence with single-store execution, and
each rung of the degradation ladder — hedge, retry, partial, native
fallback, admission control, circuit breaking."""

from __future__ import annotations

import asyncio
import os
import threading
import time

import pytest

from repro import (
    AdmissionRejectedError,
    Database,
    PPFEngine,
    ShardUnavailableError,
    ShreddedStore,
    infer_schema,
    parse_document,
)
from repro.api import EngineConfig
from repro.resilience.faults import WorkerFaultPlan, corrupt_shard_file
from repro.serving.scatter import ShardedEngine
from repro.serving.shards import ShardedStore, shard_filename

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*fork.*:DeprecationWarning"
)

QUERIES = [
    "/shop/item",
    "//item[@sku]",
    "//price/text()",
    "//item/@sku",
    "//item[price>5]/price/text()",
    "/shop/item[2]",
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


def free_admission_slots(engine):
    taken = 0
    while engine._admission.acquire(blocking=False):
        taken += 1
    for _ in range(taken):
        engine._admission.release()
    return taken


class TestOracleEquivalence:
    def test_results_identical_to_single_store(self, corpus):
        single, sharded = corpus
        oracle = PPFEngine(single)
        with ShardedEngine.serve(
            sharded, config=EngineConfig(deadline=15.0)
        ) as engine:
            for query in QUERIES:
                expected = oracle.execute(query)
                actual = engine.execute(query)
                assert actual.ids == expected.ids, query
                assert actual.values == expected.values, query
                assert actual.complete and actual.served_by == "shards"

    def test_execute_many_in_order(self, corpus):
        single, sharded = corpus
        oracle = PPFEngine(single)
        with ShardedEngine.serve(
            sharded, config=EngineConfig(deadline=15.0)
        ) as engine:
            results = engine.execute_many(QUERIES)
            for query, result in zip(QUERIES, results):
                assert result.ids == oracle.execute(query).ids, query

    def test_explain_matches_single_store_sql(self, corpus):
        single, sharded = corpus
        with ShardedEngine.serve(sharded) as engine:
            assert str(engine.explain("//item")) == str(
                PPFEngine(single).explain("//item")
            )

    def test_empty_translation_short_circuits(self, corpus):
        _, sharded = corpus
        with ShardedEngine.serve(sharded) as engine:
            result = engine.execute("//no_such_element")
            assert result.ids == [] and result.complete

    def test_document_loaded_after_the_first_query_is_remapped(
        self, corpus
    ):
        """The merge reads the registry as it is at each query, not as
        it was when the engine started."""
        single, sharded = corpus
        oracle = PPFEngine(single)
        with ShardedEngine.serve(
            sharded, config=EngineConfig(deadline=15.0, replicas=1)
        ) as engine:
            assert engine.execute("//item").rows == oracle.execute("//item").rows
            extra = make_docs(7)[6]
            single.load(extra)
            new_id = sharded.load(extra)
            for query in QUERIES:
                actual = engine.execute(query)
                assert actual.complete, query
                assert actual.rows == oracle.execute(query).rows, query
            assert new_id in {row.doc_id for row in engine.execute("//item")}
            sharded.delete_document(new_id)
            single.delete_document(new_id)
            assert engine.execute("//item").rows == oracle.execute("//item").rows

    def test_result_cache_serves_repeat(self, corpus):
        _, sharded = corpus
        with ShardedEngine.serve(
            sharded, config=EngineConfig(deadline=15.0)
        ) as engine:
            first = engine.execute("//item")
            second = engine.execute("//item")
            assert second is first  # cache hit, no second scatter


class TestDegradationLadder:
    def test_crash_recovered_by_replica_retry(self, corpus):
        _, sharded = corpus
        plan = WorkerFaultPlan().script("kill", shard=0, replica=0)
        with ShardedEngine.serve(
            sharded,
            config=EngineConfig(deadline=15.0, hedge_delay=0.05),
            fault_plan=plan,
            health_interval=0.1,
        ) as engine:
            result = engine.execute("//item")
            assert result.complete and len(result) == 24
            stats = engine.stats
            assert stats["retries"] + stats["hedges"] >= 1

    def test_slow_shard_hedged(self, corpus):
        _, sharded = corpus
        plan = WorkerFaultPlan().script(
            "slow", shard=0, replica=0, seconds=1.0
        )
        with ShardedEngine.serve(
            sharded,
            config=EngineConfig(deadline=15.0, hedge_delay=0.05),
            fault_plan=plan,
        ) as engine:
            result = engine.execute("//item")
            assert result.complete
            assert engine.stats["hedges"] >= 1

    def test_corrupt_shard_yields_flagged_partial(self, tmp_path):
        docs = make_docs()
        schema = infer_schema(docs)
        sharded = ShardedStore.create(
            str(tmp_path / "c"), schema, shards=2
        )
        sharded.bulk_load(docs)
        sharded.close()
        reopened = ShardedStore.open(str(tmp_path / "c"))
        corrupt_shard_file(reopened.shard_path(0), seed=11, bytes_to_flip=512)
        with reopened, ShardedEngine.serve(
            reopened,
            config=EngineConfig(deadline=10.0, shard_retries=1, replicas=1),
        ) as engine:
            result = engine.execute("//item")
            assert not result.complete
            assert result.failed_shards == [0]
            assert result.served_by == "shards"
            # The healthy shard's rows are still correct: every id maps
            # back to a registered document outside the failed shard.
            for row in result:
                assert reopened.registry[row.doc_id].shard != 0

    def test_swapped_shard_files_serve_no_rows(self, tmp_path):
        """Two shard files swapped on disk: each shard answers with
        documents the registry places on the other, so both drivers
        flag both shards and attribute no row to a document."""
        docs = make_docs()
        directory = str(tmp_path / "w")
        with ShardedStore.create(
            directory, infer_schema(docs), shards=2
        ) as sharded:
            sharded.bulk_load(docs)
            assert {e.shard for e in sharded.doc_entries} == {0, 1}
        a = os.path.join(directory, shard_filename(0))
        b = os.path.join(directory, shard_filename(1))
        os.replace(a, a + ".swap")
        os.replace(b, a)
        os.replace(a + ".swap", b)
        with ShardedStore.open(directory) as swapped, ShardedEngine.serve(
            swapped, config=EngineConfig(deadline=10.0, replicas=1)
        ) as engine:
            kinds = []
            merge = engine._merge

            def spy(translation, outcomes):
                result = merge(translation, outcomes)
                kinds.append([outcome.kind for outcome in outcomes])
                return result

            engine._merge = spy
            query = "//item/price/text()"
            for result in (
                engine.execute(query),
                asyncio.run(engine.execute_async(query)),
            ):
                assert not result.complete
                assert result.failed_shards == [0, 1]
                assert result.served_by == "shards"
                assert result.rows == []
            assert kinds == [["registry-mismatch"] * 2] * 2

    def test_all_shards_down_falls_back_to_native(self, corpus):
        single, sharded = corpus
        plan = WorkerFaultPlan().script(
            "kill", generation=None, times=10**6
        )
        with ShardedEngine.serve(
            sharded,
            config=EngineConfig(
                deadline=5.0, shard_retries=0, hedge_delay=None, replicas=1
            ),
            health_interval=30.0,
            fault_plan=plan,
        ) as engine:
            result = engine.execute("//item")
            assert result.served_by == "native"
            assert result.ids == PPFEngine(single).execute("//item").ids
            assert engine.stats["fallbacks"] == 1

    def test_all_shards_down_without_fallback_raises_typed(self, corpus):
        _, sharded = corpus
        plan = WorkerFaultPlan().script(
            "kill", generation=None, times=10**6
        )
        with ShardedEngine.serve(
            sharded,
            config=EngineConfig(
                deadline=5.0, shard_retries=0, hedge_delay=None,
                fallback=False,
                replicas=1,
            ),
            health_interval=30.0,
            fault_plan=plan,
        ) as engine:
            with pytest.raises(ShardUnavailableError):
                engine.execute("//item")
            # The call that raised gave its admission slot back.
            assert free_admission_slots(engine) == engine.config.max_inflight

    def test_reopened_store_cannot_vouch_so_typed_error(self, corpus):
        """Fallback rung declines on a reopened store (documents not
        resident) — a typed error, never a guessed answer."""
        _, sharded = corpus
        reopened = ShardedStore.open(sharded.directory)
        plan = WorkerFaultPlan().script(
            "kill", generation=None, times=10**6
        )
        with reopened, ShardedEngine.serve(
            reopened,
            config=EngineConfig(
                deadline=5.0, shard_retries=0, hedge_delay=None, replicas=1
            ),
            health_interval=30.0,
            fault_plan=plan,
        ) as engine:
            with pytest.raises(ShardUnavailableError):
                engine.execute("//item")


class TestBackpressure:
    def test_admission_rejects_when_full(self, corpus):
        _, sharded = corpus
        plan = WorkerFaultPlan().script(
            "slow", seconds=2.0, times=10**6, generation=None
        )
        config = EngineConfig(
            deadline=10.0,
            hedge_delay=None,
            max_inflight=1,
            admission_timeout=0.05,
            replicas=1,
        )
        with ShardedEngine.serve(
            sharded, config=config, fault_plan=plan
        ) as engine:
            outcome = {}

            def slow_query():
                outcome["result"] = engine.execute("//item")

            worker = threading.Thread(target=slow_query)
            worker.start()
            # The slow query counts itself only once it holds the one
            # slot; asking any earlier races it for that slot.
            while engine.stats["queries"] == 0 and worker.is_alive():
                time.sleep(0.005)
            with pytest.raises(AdmissionRejectedError):
                engine.execute("//price/text()")
            worker.join()
            assert engine.stats["rejections"] == 1
            assert outcome["result"].complete

    def test_breaker_opens_after_repeated_failures(self, corpus):
        _, sharded = corpus
        plan = WorkerFaultPlan().script(
            "kill", shard=0, generation=None, times=10**6
        )
        config = EngineConfig(
            deadline=3.0,
            shard_retries=0,
            hedge_delay=None,
            breaker_threshold=2,
            breaker_cooldown=60.0,
            replicas=1,
        )
        with ShardedEngine.serve(
            sharded, config=config, health_interval=0.1,
            fault_plan=plan,
        ) as engine:
            for _ in range(2):
                result = engine.execute("//item")
                assert not result.complete
                engine._planner.result_cache_clear()
            assert engine.breaker_states()[0] == "open"
            result = engine.execute("//item")
            assert not result.complete
            assert engine.stats["breaker_short_circuits"] >= 1


class TestValidation:
    def test_shard_count_mismatch_rejected(self, corpus, tmp_path):
        _, sharded = corpus
        from repro.serving.supervisor import ShardRuntime

        runtime = ShardRuntime(sharded.shard_paths[:2], replicas=1)
        with pytest.raises(ShardUnavailableError, match="shard"):
            ShardedEngine(sharded, runtime)
        runtime.close()
