"""repro.connect / EngineConfig: the unified engine entry point."""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import (
    Engine,
    EngineConfig,
    PPFEngine,
    QueryLimitError,
    ShardedEngine,
    StorageError,
    connect,
    infer_schema,
    parse_document,
)
from repro.core.engine import SERVED_BY, QueryResult
from repro.serving.shards import ShardedStore
from repro.storage.database import Database
from repro.storage.schema_aware import ShreddedStore

pytestmark = [
    pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning"),
]

XML = "<shop><item sku='a'><price>5</price></item></shop>"

#: Child process of the gather regression test: XMark scale 24 (the
#: smallest store the deadlock reproduced on every time), default
#: config, the 25 XM25 queries.
_GATHER_SCRIPT = """
import asyncio, faulthandler, sys
faulthandler.dump_traceback_later(60, exit=True)
import repro
from repro.storage.database import Database
from repro.storage.schema_aware import ShreddedStore
from repro.workloads.xmark import XMarkConfig, generate_xmark
from repro.workloads.xpathmark import XPATHMARK_A_QUERIES, XPATHMARK_QUERIES

document = generate_xmark(XMarkConfig(scale=24.0, seed=7))
db = Database.open(sys.argv[1])
ShreddedStore.create(db, repro.infer_schema([document])).bulk_load([document])
db.close()
queries = [q.xpath for q in XPATHMARK_QUERIES + XPATHMARK_A_QUERIES]

async def gathered(engine):
    return await asyncio.gather(*(engine.execute_async(q) for q in queries))

with repro.connect(sys.argv[1]) as engine:
    got = asyncio.run(gathered(engine))
    engine.result_cache_clear()
    assert [r.rows for r in got] == [engine.execute(q).rows for q in queries]
print(len(got), "results match")
"""


def make_docs(count=4):
    return [
        parse_document(
            f"<shop><item sku='s{i}'><price>{i}</price></item></shop>",
            name=f"doc{i}.xml",
        )
        for i in range(count)
    ]


@pytest.fixture()
def single_path(tmp_path):
    docs = make_docs()
    path = str(tmp_path / "single.db")
    db = Database.open(path)
    store = ShreddedStore.create(db, infer_schema(docs))
    for doc in docs:
        store.load(doc)
    db.close()
    return path


@pytest.fixture()
def shard_dir(tmp_path):
    docs = make_docs()
    path = str(tmp_path / "shards")
    store = ShardedStore.create(path, infer_schema(docs), shards=2)
    store.bulk_load(docs)
    store.close()
    return path


class TestConnectSingle:
    def test_autodetects_single_store_file(self, single_path):
        with connect(single_path) as engine:
            assert isinstance(engine, PPFEngine)
            assert isinstance(engine, Engine)
            result = engine.execute("//item")
            assert len(result) == 4
            assert result.served_by == "sql"

    def test_close_tears_down_database(self, single_path):
        engine = connect(single_path)
        engine.execute("//price")
        engine.close()
        with pytest.raises(StorageError):
            engine.store.db.query("SELECT 1")
        engine.close()  # idempotent

    def test_config_controls_pool_and_policy(self, single_path):
        """The policy follows the config; a pool is no longer something
        a config can ask for — ``connect`` never builds one."""
        with pytest.raises(TypeError):
            EngineConfig(pool_size=2)
        config = EngineConfig(deadline=9.0, max_rows=50)
        with connect(single_path, config=config) as engine:
            assert engine.pool is None
            assert engine.store.db.policy.query_timeout == 9.0
            assert engine.store.db.policy.max_rows == 50
            assert len(engine.execute("//item")) == 4

    def test_execute_async_is_wired(self, single_path):
        with connect(single_path) as engine:

            async def go():
                return await engine.execute_async("//item")

            assert len(asyncio.run(go())) == 4

    def test_gathered_execute_async_does_not_deadlock(self, tmp_path):
        """Regression: 25 gathered ``execute_async`` calls on one
        ``connect()``-ed file store used to park four executor threads
        on the one guarded connection (GIL vs SQLite's connection
        mutex) and never return.  Runs in a child under a watchdog so a
        relapse fails in bounded time instead of hanging the suite."""
        child = subprocess.run(
            [sys.executable, "-c", _GATHER_SCRIPT, str(tmp_path / "x.db")],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr[-2000:]
        assert child.stdout.strip().endswith("25 results match")

    def test_second_thread_on_a_guarded_connection_gets_a_typed_error(
        self, single_path
    ):
        """Two plain threads on an unpooled engine: the one that arrives
        while the other's guard is installed is told to attach a pool —
        at once, not after a deadlock — and once the holder is done,
        whether its guarded query returned or raised, the next thread is
        served."""
        with connect(single_path) as engine:
            db = engine.store.db
            entered, release = threading.Event(), threading.Event()

            def hold():
                with db._guarded(5.0):
                    entered.set()
                    release.wait(10.0)

            holder = threading.Thread(target=hold)
            holder.start()
            try:
                assert entered.wait(5.0)
                started = time.monotonic()
                with pytest.raises(StorageError, match="attach_pool"):
                    engine.execute("//item")
                assert time.monotonic() - started < 1.0
            finally:
                release.set()
                holder.join(5.0)
            assert not holder.is_alive()
            # The guard's owner is unaffected, and the connection serves
            # the next thread once it is free again.
            assert len(engine.execute("//item")) == 4

            # A guarded query that raises (a max_rows overrun) gives the
            # connection back too.
            raised = []

            def overrun():
                try:
                    db.query(
                        "SELECT 1 UNION ALL SELECT 2", timeout=5.0, max_rows=1
                    )
                except QueryLimitError as exc:
                    raised.append(exc)

            holder = threading.Thread(target=overrun)
            holder.start()
            holder.join(5.0)
            assert not holder.is_alive() and raised
            # Not "//item": the result cache would answer it without
            # touching the connection.
            assert len(engine.execute("//price")) == 4


class TestConnectSharded:
    def test_autodetects_shard_directory(self, shard_dir):
        with connect(shard_dir) as engine:
            assert isinstance(engine, ShardedEngine)
            assert isinstance(engine, Engine)
            result = engine.execute("//item")
            assert len(result) == 4
            assert result.served_by == "shards"

    def test_close_tears_down_fleet_and_store(self, shard_dir):
        engine = connect(shard_dir)
        engine.execute("//price")
        engine.close()
        assert not engine.runtime._pending
        engine.close()  # idempotent

    def test_serving_config_mapping(self, shard_dir):
        config = EngineConfig(
            deadline=7.5, replicas=1, max_inflight=3, hedge_delay=0.2
        )
        with connect(shard_dir, config=config) as engine:
            assert engine.config.deadline == 7.5
            assert engine.config.max_inflight == 3
            assert engine.config.hedge_delay == 0.2
            assert engine.runtime.replicas == 1

    def test_execute_async_is_wired(self, shard_dir):
        with connect(shard_dir) as engine:

            async def go():
                return await engine.execute_async("//item")

            assert len(asyncio.run(go())) == 4


class TestConnectErrors:
    def test_missing_path_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            connect(str(tmp_path / "nope.db"))

    def test_directory_without_manifest_raises(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        with pytest.raises(StorageError):
            connect(str(plain))


class TestEngineConfig:
    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.deadline = 1.0

    def test_top_level_exports(self):
        assert repro.connect is connect
        assert repro.EngineConfig is EngineConfig
        assert repro.SERVED_BY == SERVED_BY


class TestServedByContract:
    def test_out_of_vocabulary_value_rejected(self):
        with pytest.raises(ValueError, match="served_by"):
            QueryResult([], None, served_by="turbo")

    def test_vocabulary_values_accepted(self):
        for value in sorted(SERVED_BY):
            assert QueryResult([], None, served_by=value).served_by == value
