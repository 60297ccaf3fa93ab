"""Pooled readers against a live writer: snapshot containment, no lock
errors leaking through, no stale cache serves — plus ``execute_many``
with and without a pool, the inventory of thread fan-outs left in the
tree, and the process-global regex cache under contention."""

from __future__ import annotations

import ast
import functools
import pathlib
import re
import sqlite3
import threading
import time

import pytest

from repro import (
    ConnectionPool,
    Database,
    PPFEngine,
    ShreddedStore,
    infer_schema,
    parse_document,
    parse_fragment,
)
from repro.storage.database import _compiled

XML = (
    "<lib>"
    + "".join(
        f"<book id='b{i}'><title>T{i}</title></book>" for i in range(4)
    )
    + "</lib>"
)


@pytest.fixture
def file_store(tmp_path):
    path = str(tmp_path / "store.db")
    doc = parse_document(XML, name="lib")
    # The writer thread mutates through this connection.
    db = Database.open(path, check_same_thread=False)
    store = ShreddedStore.create(db, infer_schema([doc]))
    store.load(doc)
    return store


class TestReadersWithLiveWriter:
    N_READERS = 3
    N_APPENDS = 8
    READS_PER_THREAD = 30

    def test_reads_stay_consistent_while_writer_appends(self, file_store):
        with ConnectionPool.for_store(file_store, size=self.N_READERS) as pool:
            engine = PPFEngine(file_store)
            engine.attach_pool(pool)
            lib_id = engine.execute("/lib").ids[0]
            initial = set(engine.execute("//book").ids)

            errors: list[Exception] = []
            snapshots: list[set[int]] = []

            def reader():
                try:
                    for _ in range(self.READS_PER_THREAD):
                        snapshots.append(set(engine.execute("//book").ids))
                except (sqlite3.OperationalError, Exception) as exc:
                    errors.append(exc)

            def writer():
                try:
                    for i in range(self.N_APPENDS):
                        file_store.append_subtree(
                            lib_id,
                            parse_fragment(
                                f"<book id='n{i}'><title>N{i}</title></book>"
                            ),
                        )
                        time.sleep(0.002)  # interleave with the readers
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader)
                for _ in range(self.N_READERS)
            ] + [threading.Thread(target=writer)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            # No SQLITE_BUSY (or anything else) leaked out of a reader.
            assert not errors

            # Every snapshot is a committed state: appends only grow the
            # result, so initial ⊆ snapshot ⊆ final must hold for all.
            fresh = PPFEngine(file_store, result_cache_size=None)
            final = set(fresh.execute("//book").ids)
            assert len(final) == len(initial) + self.N_APPENDS
            for snap in snapshots:
                assert initial <= snap <= final

            # The cached engine must not serve a pre-append generation.
            assert set(engine.execute("//book").ids) == final
            assert engine.execute("//book").ids == fresh.execute("//book").ids


class TestParallelExecution:
    QUERIES = [
        "//book",
        "//book/title/text()",
        "/lib/book[@id='b2']",
        "//title",
        "/lib",
    ]

    def test_execute_many_matches_serial(self, file_store):
        serial = PPFEngine(file_store, result_cache_size=None)
        expected = [serial.execute(q).ids for q in self.QUERIES]
        with ConnectionPool.for_store(file_store, size=4) as pool:
            engine = PPFEngine(file_store, result_cache_size=None)
            engine.attach_pool(pool)
            got = engine.execute_many(self.QUERIES)
            assert [r.ids for r in got] == expected
            assert pool.checkouts >= len(self.QUERIES)

    def test_execute_many_without_pool_is_serial_but_correct(
        self, file_store
    ):
        engine = PPFEngine(file_store, result_cache_size=None)
        got = engine.execute_many(self.QUERIES)
        assert [r.ids for r in got] == [
            engine.execute(q).ids for q in self.QUERIES
        ]

    def test_one_thread_fan_out_left_in_the_tree(self):
        """Processes are the only parallelism: the single executor under
        ``src/repro`` is the one thread behind single-store
        ``execute_async``."""
        import repro

        root = pathlib.Path(repro.__file__).parent
        sites = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", ""))
            == "ThreadPoolExecutor"
        ]
        assert len(sites) == 1 and sites[0].startswith("core/engine.py:")


class TestSharedRegexCache:
    def test_cache_is_process_global_across_pooled_connections(
        self, file_store
    ):
        _compiled.cache_clear()
        pattern = "^/lib(/book)?$"
        with ConnectionPool.for_store(file_store, size=2) as pool:
            with pool.acquire() as first:
                first.query_one(
                    "SELECT regexp_like('/lib/book', ?)", (pattern,)
                )
                # Nested acquire => a *different* connection.
                with pool.acquire() as second:
                    second.query_one(
                        "SELECT regexp_like('/lib', ?)", (pattern,)
                    )
        info = _compiled.cache_info()
        assert info.misses == 1  # compiled once, shared by both
        assert info.hits >= 1

    def test_contention_with_eviction_stays_correct(self):
        cache = functools.lru_cache(maxsize=4)(re.compile)
        patterns = [f"^p{i}[0-9]+$" for i in range(8)]  # 2x maxsize
        errors: list[Exception] = []

        def hammer(offset: int):
            try:
                for i in range(200):
                    pattern = patterns[(i + offset) % len(patterns)]
                    compiled = cache(pattern)
                    expected = f"p{patterns.index(pattern)}42"
                    assert compiled.search(expected)
                    assert not compiled.search("zzz")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = cache.cache_info()
        assert info.hits + info.misses == 8 * 200
        assert info.currsize <= 4
        assert info.maxsize == 4

    def test_module_cache_keeps_lru_interface(self):
        # tests and tools rely on the lru_cache-style surface
        assert _compiled.cache_info().maxsize == 512
        assert isinstance(_compiled("^x$"), re.Pattern)
        _compiled.cache_clear()
        assert _compiled.cache_info().currsize == 0
