"""ConnectionPool: checkout discipline, read-only enforcement, the
shared regexp machinery on pooled connections."""

from __future__ import annotations

import threading

import pytest

from repro import (
    ConnectionPool,
    Database,
    PPFEngine,
    ShreddedStore,
    StorageError,
    infer_schema,
    parse_document,
)

XML = "<lib><book id='b1'>alpha</book><book id='b2'>beta</book></lib>"


@pytest.fixture
def file_store(tmp_path):
    path = str(tmp_path / "store.db")
    doc = parse_document(XML, name="lib")
    store = ShreddedStore.create(Database.open(path), infer_schema([doc]))
    store.load(doc)
    return store


class TestPoolBasics:
    def test_opens_the_requested_number_of_connections(self, file_store):
        with ConnectionPool.for_store(file_store, size=3) as pool:
            assert len(pool) == 3
            assert pool.path == file_store.db.path

    def test_acquire_returns_a_working_readonly_database(self, file_store):
        with ConnectionPool.for_store(file_store, size=2) as pool:
            with pool.acquire() as db:
                rows = db.query("SELECT COUNT(*) FROM docs")
                assert rows == [(1,)]
                with pytest.raises(StorageError):
                    db.execute("INSERT INTO docs (name, base, node_count) "
                               "VALUES ('x', 0, 0)")

    def test_connection_returns_to_pool_after_use(self, file_store):
        with ConnectionPool.for_store(file_store, size=1) as pool:
            for _ in range(5):
                with pool.acquire() as db:
                    db.query("SELECT 1")
            assert pool.checkouts == 5

    def test_connection_returns_even_on_error(self, file_store):
        with ConnectionPool.for_store(file_store, size=1) as pool:
            with pytest.raises(StorageError):
                with pool.acquire() as db:
                    db.query("SELECT * FROM no_such_table")
            # The single connection must be available again.
            with pool.acquire() as db:
                assert db.query_one("SELECT 1") == (1,)

    def test_exhausted_pool_times_out(self, file_store):
        with ConnectionPool.for_store(file_store, size=1) as pool:
            with pool.acquire():
                with pytest.raises(StorageError, match="available"):
                    with pool.acquire(timeout=0.05):
                        pass  # pragma: no cover

    def test_closed_pool_rejects_acquire(self, file_store):
        pool = ConnectionPool.for_store(file_store, size=1)
        pool.close()
        assert pool.closed
        with pytest.raises(StorageError, match="closed"):
            with pool.acquire():
                pass  # pragma: no cover

    def test_memory_store_cannot_be_pooled(self):
        doc = parse_document(XML, name="lib")
        store = ShreddedStore.create(Database.memory(), infer_schema([doc]))
        with pytest.raises(StorageError, match="in-memory"):
            ConnectionPool.for_store(store)

    def test_size_must_be_positive(self, file_store):
        with pytest.raises(ValueError):
            ConnectionPool.for_store(file_store, size=0)


class TestPooledQueries:
    def test_regexp_like_is_registered_on_pooled_connections(
        self, file_store
    ):
        with ConnectionPool.for_store(file_store, size=2) as pool:
            with pool.acquire() as db:
                row = db.query_one(
                    "SELECT regexp_like('abc', '^a.c$')"
                )
                assert row == (1,)

    def test_engine_serves_identical_results_through_the_pool(
        self, file_store
    ):
        serial = PPFEngine(file_store, result_cache_size=None)
        expected = serial.execute("//book").ids
        with ConnectionPool.for_store(file_store, size=2) as pool:
            engine = PPFEngine(file_store, result_cache_size=None)
            engine.attach_pool(pool)
            assert engine.execute("//book").ids == expected
            engine.detach_pool()
            assert engine.pool is None
            assert engine.execute("//book").ids == expected

    def test_pooled_connections_are_usable_from_many_threads(
        self, file_store
    ):
        with ConnectionPool.for_store(file_store, size=3) as pool:
            engine = PPFEngine(file_store, result_cache_size=None)
            engine.attach_pool(pool)
            expected = engine.execute("//book").ids
            errors, results = [], []

            def worker():
                try:
                    for _ in range(10):
                        results.append(engine.execute("//book").ids)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert all(ids == expected for ids in results)
